//! What the operating system says about this process and machine.
//! Linux `/proc` only; elsewhere every reading is 0 and says so.

use std::process::Command;

fn proc_self(file: &str) -> String {
    std::fs::read_to_string(format!("/proc/self/{file}")).unwrap_or_default()
}

/// User + system CPU seconds of this process (all threads) so far.
pub fn cpu_seconds() -> f64 {
    let stat = proc_self("stat");
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the line, in clock ticks.
    let Some((_, rest)) = stat.rsplit_once(") ") else {
        return 0.0;
    };
    let ticks: u64 = rest
        .split(' ')
        .skip(11)
        .take(2)
        .filter_map(|t| t.parse::<u64>().ok())
        .sum();
    // USER_HZ is 100 on every Linux this runs on; `getconf` would need
    // a child process per reading.
    ticks as f64 / 100.0
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    proc_self("status")
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn first_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The machine block every result set carries: `(key, value)` pairs.
pub fn machine() -> Vec<(&'static str, String)> {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("cores", cores.to_string()),
        ("os", first_line("uname", &["-sr"])),
        ("rustc", first_line("rustc", &["--version"])),
        (
            "network",
            "loopback (127.0.0.1), real TCP sockets, one process".to_owned(),
        ),
    ]
}
