//! Fixture: `.unwrap()` outside tests, counted against the zero ceiling
//! fixtures get. Two calls past the ceiling still make exactly one U001
//! finding: the ratchet reports a count, not each call.

pub fn first(v: &[u64]) -> u64 {
    *v.first().unwrap()
}

pub fn parse(s: &str) -> u64 {
    s.parse().unwrap()
}

// Look-alikes that must not count: other methods, a field, text.
pub fn fine(v: &[u64], o: Option<u64>) -> u64 {
    let _ = "x.unwrap()";
    o.unwrap_or(0) + v.first().copied().unwrap_or_default()
}

#[cfg(test)]
mod tests {
    // Test code is outside the ratchet: must NOT add a finding.
    #[test]
    fn unwraps_freely() {
        assert_eq!(super::first(&[1]), Some(1u64).unwrap());
    }
}
