//! The run context recorded with every output, so two sets of runs can be
//! checked for comparability: processor count, compiler, commit and load.

use std::process::Command;

use analysis::json::JsonValue;

/// The 1-, 5- and 15-minute load averages, or an empty string where
/// `/proc/loadavg` is unavailable.
pub fn load_average() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_default()
}

/// Peak resident memory of this process in MiB (`VmHWM`), or 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
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
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The first line of a command's standard output, or `"unknown"` if it
/// cannot run.  The child is waited for before this returns.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8(out.stdout)
                .ok()
                .and_then(|s| s.lines().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The context of one run: `nproc`, `rustc -V`, the git commit (`unknown`
/// outside a git checkout) and the load average at start and end.
pub fn run_context(load_start: &str, load_end: &str) -> JsonValue {
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    JsonValue::object()
        .with("nproc", nproc)
        .with("rustc", command_line("rustc", &["-V"]).as_str())
        .with(
            "commit",
            command_line("git", &["rev-parse", "HEAD"]).as_str(),
        )
        .with("loadavg_start", load_start)
        .with("loadavg_end", load_end)
        .with("worker_threads", 1usize)
}
