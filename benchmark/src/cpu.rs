//! Process CPU time from `/proc/self/stat`, without libc.
//!
//! Fields 14 and 15 (`utime`, `stime`) count clock ticks the whole process —
//! every thread, exited ones included — spent on a CPU. Unlike wall time
//! they are immune to preemption, exclude the simulated link's sleeps, and
//! expose a step made "faster" by burning a helper thread.

/// Linux reports `/proc` times in `USER_HZ` ticks, fixed at 100 per second
/// on every mainstream architecture whatever the kernel's own `HZ`.
const MS_PER_TICK: f64 = 10.0;

/// User + system CPU milliseconds consumed by this process so far; `None`
/// where `/proc/self/stat` is missing or unparseable (non-Linux hosts).
pub fn process_cpu_ms() -> Option<f64> {
    parse_stat(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

fn parse_stat(stat: &str) -> Option<f64> {
    // The command name (field 2) is parenthesised and may itself contain
    // spaces or parentheses; the fixed-format fields start after the last
    // ')'. The first of them is field 3, so utime/stime sit at 11 and 12.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 * MS_PER_TICK)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_ticks_past_a_hostile_command_name() {
        let stat = "4242 (a b) c) R 1 4242 4242 0 -1 4194304 100 0 0 0 37 5 0 0 20 0 3 0 1000 0 0";
        assert_eq!(parse_stat(stat), Some(420.0));
        assert_eq!(parse_stat("garbage"), None);
    }

    #[test]
    fn cpu_time_is_monotone() {
        if let (Some(a), Some(b)) = (process_cpu_ms(), process_cpu_ms()) {
            assert!(b >= a);
        }
    }
}
