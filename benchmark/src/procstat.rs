//! Process-level resource readings from `/proc/self`.

use std::fs;

/// Kernel clock ticks per second as `/proc` reports them (`USER_HZ`, fixed
/// at 100 on Linux regardless of the scheduler's internal `HZ`).
const USER_HZ: f64 = 100.0;

/// CPU time this process has consumed so far (user + system, all threads
/// including ones that already exited), in milliseconds.
pub fn cpu_time_ms() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_cpu_ticks(&stat).expect("utime/stime in /proc/self/stat") as f64 * 1000.0 / USER_HZ
}

/// `utime + stime` from a `/proc/<pid>/stat` line. The command name (field
/// 2) may contain spaces and parentheses, so fields are counted from the
/// last `)`.
fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the command: state is field 3; utime and stime are 14 and 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_status_kib(&status, "VmHWM:").expect("VmHWM in /proc/self/status") as f64 / 1024.0
}

fn parse_status_kib(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_survive_a_hostile_command_name() {
        let line = "4242 (be) nch (x) S 1 4242 4242 0 -1 4194304 100 0 0 0 37 5 0 0 20 0 9 0 1 2 3";
        assert_eq!(parse_cpu_ticks(line), Some(42));
        assert_eq!(parse_cpu_ticks("garbage"), None);
    }

    #[test]
    fn status_value_is_parsed_in_kib() {
        let status = "Name:\tbenchmark\nVmPeak:\t  999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_status_kib(status, "VmHWM:"), Some(204800));
        assert_eq!(parse_status_kib(status, "VmSwap:"), None);
    }

    #[test]
    fn live_readings_are_positive_and_cpu_time_grows() {
        assert!(peak_rss_mib() > 0.0);
        let before = cpu_time_ms();
        let mut x = 0u64;
        let t0 = std::time::Instant::now();
        while t0.elapsed() < std::time::Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(
            cpu_time_ms() > before,
            "60 ms of spinning burned no CPU ticks"
        );
    }
}
