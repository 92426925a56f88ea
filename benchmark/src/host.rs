//! What the benchmark records about the machine it ran on.

use std::process::Command;

/// Peak resident set of this process so far (`VmHWM`), in MB; NaN when the
/// kernel does not say, which fails the run.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// `nproc`, CPU model and `rustc -V`, as a JSON object (looked up once).
pub fn describe_json() -> &'static str {
    static HOST: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    HOST.get_or_init(describe)
}

fn describe() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find(|line| line.starts_with("model name"))
        .and_then(|line| line.split(':').nth(1))
        .map_or("unknown", str::trim);
    let rustc = Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or("unknown".to_string(), |out| {
            String::from_utf8_lossy(&out.stdout).trim().to_string()
        });
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": {}, \"rustc\": {}}}",
        crate::trace::json_string(cpu),
        crate::trace::json_string(&rustc)
    )
}
