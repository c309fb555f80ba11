//! Facts about the host and the process: peak RSS, CPU count,
//! toolchain and commit.

use std::process::Command;

/// `VmHWM` of a `/proc/<pid>/status` text, in MB (the kernel reports kB).
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = rest.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set size of this process so far, in MB; 0 where
/// `/proc` is not available.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_mb(&s))
        .unwrap_or(0.0)
}

pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

pub fn rustc_version() -> String {
    first_line_of("rustc", &["--version"])
}

/// The checked-out commit; "unknown" outside a git work tree.
pub fn git_commit() -> String {
    first_line_of("git", &["rev-parse", "HEAD"])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_parsed_from_status_text() {
        let status = "Name:\thera\nVmPeak:\t  999999 kB\nVmHWM:\t  440320 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(430.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tx\nVmRSS:\t1 kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\tmany kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t12\n"), None);
    }

    #[test]
    fn this_process_has_a_peak_rss() {
        assert!(peak_rss_mb() > 0.0);
        assert!(host_cpus() >= 1);
    }
}
