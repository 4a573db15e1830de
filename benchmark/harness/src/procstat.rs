//! Process accounting read from `/proc`: CPU time, peak resident set and
//! the bypass evidence for the `sim_*` workloads (no socket, no child).

use std::fs;

/// Kernel clock ticks per second of `/proc/<pid>/stat` (`USER_HZ`, 100 on
/// every Linux the benchmark targets; `getconf CLK_TCK`).
const TICKS_PER_SEC: f64 = 100.0;

/// User + system CPU seconds consumed so far by `pid` (all its threads,
/// exited ones included).  `None` when the process is gone.
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may contain spaces and parentheses: fields are
    // counted from the last ')'.  utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SEC)
}

/// `read` summed over `pids` plus this process (gone processes count 0).
fn sum_with_self(pids: &[u32], read: fn(u32) -> Option<f64>) -> f64 {
    pids.iter()
        .chain(std::iter::once(&std::process::id()))
        .filter_map(|&p| read(p))
        .sum()
}

/// CPU seconds summed over `pids` plus this process.
pub fn cpu_seconds_with_self(pids: &[u32]) -> f64 {
    sum_with_self(pids, cpu_seconds)
}

/// Peak resident set (`VmHWM`) of `pid` in MB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `VmHWM` summed over `pids` plus this process, in MB.
pub fn peak_rss_mb_with_self(pids: &[u32]) -> f64 {
    sum_with_self(pids, peak_rss_mb)
}

/// Number of this process's open file descriptors that are sockets.
pub fn open_sockets() -> usize {
    let Ok(dir) = fs::read_dir("/proc/self/fd") else {
        return 0;
    };
    dir.flatten()
        .filter_map(|e| fs::read_link(e.path()).ok())
        .filter(|target| target.to_string_lossy().starts_with("socket:"))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_accounting_is_readable() {
        assert!(cpu_seconds(std::process::id()).is_some());
        assert!(peak_rss_mb(std::process::id()).expect("VmHWM") > 0.5);
        assert!(cpu_seconds(u32::MAX).is_none());
    }
}
