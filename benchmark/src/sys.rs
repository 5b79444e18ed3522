//! Process-level readings from `/proc/self`.

/// Kernel clock ticks per second behind `/proc/self/stat`'s CPU times
/// (`USER_HZ`, 100 on every Linux ABI this benchmark runs on).
const USER_HZ: f64 = 100.0;

/// Peak resident set size (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// User + system CPU seconds of this process, all threads included.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name: state is the first, utime
    // and stime are the 12th and 13th.
    let rest = &stat[stat.rfind(')').expect("comm in /proc/self/stat") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> f64 { fields[i].parse().expect("cpu ticks") };
    (ticks(11) + ticks(12)) / USER_HZ
}
