//! The byte-level mutation set the seeded input fuzzers share: byte
//! flips, byte and digit rewrites, truncations and duplicated, swapped
//! or deleted lines.

/// One mutation: `(kind, a, b)`, positions taken modulo the input.
pub fn mutate(bytes: &mut Vec<u8>, (kind, a, b): (u8, usize, usize)) {
    if bytes.is_empty() {
        return;
    }
    let at = a % bytes.len();
    match kind {
        0 => bytes[at] ^= 1 << (b % 8),
        1 => bytes[at] = b as u8,
        2 => {
            // Rewrite a digit: numbers stay numbers, and move.
            let digits: Vec<usize> = (0..bytes.len())
                .filter(|&i| bytes[i].is_ascii_digit())
                .collect();
            if !digits.is_empty() {
                bytes[digits[a % digits.len()]] = b'0' + (b % 10) as u8;
            }
        }
        3 => bytes.truncate(at),
        _ => {
            let mut lines: Vec<Vec<u8>> =
                bytes.split(|&c| c == b'\n').map(<[u8]>::to_vec).collect();
            let (i, j) = (a % lines.len(), b % lines.len());
            match kind {
                4 => {
                    let copy = lines[i].clone();
                    lines.insert(j, copy);
                }
                5 => lines.swap(i, j),
                _ => {
                    lines.remove(i);
                }
            }
            *bytes = lines.join(&b'\n');
        }
    }
}
