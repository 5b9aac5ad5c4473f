//! What the host says about this process (`/proc`) and about the
//! conditions a number was produced under (the provenance stamp).

use serde::Serialize;
use std::process::Command;

/// Reads `key:` from a `/proc/.../status`-style file, first number only.
fn status_field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 off Linux.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| status_field(&s, "VmHWM"))
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// User + system CPU seconds of this process, threads that already
/// exited included (`/proc/self/stat`, USER_HZ = 100 on Linux).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name may contain spaces; fields resume after ')'.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime/stime are fields 14/15.
    let ticks = |i: usize| fields.get(i - 3).and_then(|f| f.parse::<u64>().ok());
    match (ticks(14), ticks(15)) {
        (Some(u), Some(s)) => (u + s) as f64 / 100.0,
        _ => 0.0,
    }
}

/// Voluntary + involuntary context switches summed over the live
/// threads of this process.
pub fn context_switches() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(|e| std::fs::read_to_string(e.ok()?.path().join("status")).ok())
        .map(|s| {
            status_field(&s, "voluntary_ctxt_switches").unwrap_or(0)
                + status_field(&s, "nonvoluntary_ctxt_switches").unwrap_or(0)
        })
        .sum()
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The conditions a result was measured under. Two numbers are compared
/// only when these agree.
#[derive(Debug, Clone, Serialize)]
pub struct Provenance {
    /// `git rev-parse --short HEAD`, with `-dirty` when the tree has
    /// uncommitted changes; `unknown` outside a git checkout.
    pub git: String,
    pub rustc: String,
    pub nproc: usize,
    pub profile: &'static str,
    pub seed: u64,
    pub repeats: usize,
    pub spin_reserve_us: f64,
    /// What these numbers do not cover, whatever the core count.
    pub note: &'static str,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        // Never look for a repository above the checkout.
        .env(
            "GIT_CEILING_DIRECTORIES",
            std::env::current_dir().ok()?.parent()?,
        )
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

impl Provenance {
    pub fn capture(seed: u64, repeats: usize) -> Provenance {
        let git = command_line("git", &["rev-parse", "--short", "HEAD"])
            .filter(|rev| !rev.is_empty())
            .map(|rev| {
                let dirty =
                    command_line("git", &["status", "--porcelain"]).is_some_and(|s| !s.is_empty());
                if dirty {
                    format!("{rev}-dirty")
                } else {
                    rev
                }
            })
            .unwrap_or_else(|| "unknown".into());
        Provenance {
            git,
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
            nproc: nproc(),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            seed,
            repeats,
            spin_reserve_us: brb_rt::timing::spin_reserve().as_secs_f64() * 1e6,
            note: "parallel sweep not measured (simulator workloads pin BRB_THREADS=1)",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields_parse() {
        let text = "Name:\tledger\nVmHWM:\t   20480 kB\nvoluntary_ctxt_switches:\t12\n";
        assert_eq!(status_field(text, "VmHWM"), Some(20_480));
        assert_eq!(status_field(text, "voluntary_ctxt_switches"), Some(12));
        assert_eq!(status_field(text, "VmPeak"), None);
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mib() > 0.0);
        assert!(context_switches() > 0 || cfg!(not(target_os = "linux")));
        assert!(cpu_seconds() >= 0.0);
        assert!(nproc() >= 1);
    }
}
