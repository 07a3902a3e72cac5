//! What the kernel reports about the two processes: CPU time and peak
//! resident memory from `/proc/<pid>`, and the host's core count and model.

/// Clock ticks per second of `/proc/<pid>/stat` times. `USER_HZ` is 100 on
/// every Linux ABI this benchmark runs on; there is no libc here to ask.
const TICKS_PER_SECOND: f64 = 100.0;

/// User plus system CPU ticks from the text of `/proc/<pid>/stat`. The
/// command name (field 2) may itself hold spaces and parentheses, so fields
/// are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // after_comm starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = after_comm.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size in kB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// CPU seconds (user + system, all threads, reaped children excluded) the
/// process has used so far.
pub fn cpu_seconds(pid: u32) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .unwrap_or_else(|e| panic!("cannot read /proc/{pid}/stat: {e}"));
    let ticks = parse_stat_cpu_ticks(&stat)
        .unwrap_or_else(|| panic!("malformed /proc/{pid}/stat: {stat:?}"));
    ticks as f64 / TICKS_PER_SECOND
}

/// Peak resident set size of the process in MB (10^6 bytes).
pub fn peak_rss_mb(pid: u32) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .unwrap_or_else(|e| panic!("cannot read /proc/{pid}/status: {e}"));
    let kb =
        parse_vm_hwm_kb(&status).unwrap_or_else(|| panic!("no VmHWM line in /proc/{pid}/status"));
    kb as f64 * 1024.0 / 1e6
}

/// CPUs of the host, whatever subset this process is confined to.
pub fn host_cpus() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|text| text.lines().filter(|l| l.starts_with("processor")).count())
        .ok()
        .filter(|n| *n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The CPUs this process may run on, as the kernel lists them (`0`, `0-1`).
pub fn allowed_cpus() -> String {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .map(|list| list.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The CPU model string of the first core, or "unknown".
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_ticks_survive_a_hostile_command_name() {
        let stat = "4242 (monomi) server) S 1 4242 4242 0 -1 4194560 1523 0 0 0 \
                    731 46 0 0 20 0 3 0 8841 1234567 890 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(777));
        let plain = "7 (e2e) R 1 7 7 0 -1 0 0 0 0 0 12 3 0 0 20 0 1 0 1 1 1 1";
        assert_eq!(parse_stat_cpu_ticks(plain), Some(15));
        assert_eq!(parse_stat_cpu_ticks("7 (e2e) R 1 2 3"), None);
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kb() {
        let status =
            "Name:\tmonomi-server\nVmPeak:\t  999999 kB\nVmHWM:\t   48212 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(48212));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\nVmRSS:\t 1 kB\n"), None);
    }

    #[test]
    fn this_process_has_cpu_time_and_memory() {
        let pid = std::process::id();
        assert!(cpu_seconds(pid) >= 0.0);
        assert!(peak_rss_mb(pid) > 0.0);
        assert!(host_cpus() >= 1);
        assert!(!allowed_cpus().is_empty());
    }
}
