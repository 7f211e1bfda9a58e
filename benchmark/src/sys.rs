//! Process-level measurements read from `/proc`.

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, which is 100 on every
/// supported architecture.
const TICKS_PER_SEC: f64 = 100.0;

/// User + system CPU seconds of the whole process so far, including threads
/// that have already exited (the app workloads spawn and join an engine
/// pool per destination rank).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after_comm.split_whitespace();
    // after_comm starts at field 3 (state); utime and stime are 14 and 15.
    let utime: f64 = fields.nth(11).and_then(|v| v.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|v| v.parse().ok()).unwrap_or(0.0);
    (utime + stime) / TICKS_PER_SEC
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Hardware threads the process may use; reported beside every result
/// because the engine's worker pool (32 by default) is timed on them.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
