//! What the benchmark learns about its host and its own process from
//! `/proc` — no syscalls beyond file reads, so the package stays
//! `forbid(unsafe_code)`.

use std::fs;

/// `USER_HZ`: the unit of the CPU times in `/proc/self/stat`.  Fixed at 100
/// for every Linux ABI the toolchain targets.
const TICKS_PER_SECOND: f64 = 100.0;

/// User plus system CPU time of the whole process (every thread), in
/// seconds.
pub fn process_cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may contain spaces; fields are counted after its
    // closing parenthesis.  utime and stime are fields 14 and 15 overall.
    let after_name = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after_name.split_whitespace().skip(11);
    let mut ticks = || -> f64 { fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0) };
    (ticks() + ticks()) / TICKS_PER_SECOND
}

/// One `key: value` line of `/proc/self/status`, the value's leading number.
fn status_number(key: &str) -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with(key))?;
    line[key.len()..]
        .trim_start_matches(':')
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set size of the process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    status_number("VmHWM").unwrap_or(0.0) / 1024.0
}

/// Current resident set size of the process (`VmRSS`), in bytes.
pub fn rss_bytes() -> f64 {
    status_number("VmRSS").unwrap_or(0.0) * 1024.0
}

/// Times the scheduler took the CPU away from this process's main thread.
pub fn involuntary_context_switches() -> u64 {
    status_number("nonvoluntary_ctxt_switches").unwrap_or(0.0) as u64
}

/// Times this process's main thread gave the CPU up (parked waiting for the
/// pool worker, mostly).
pub fn voluntary_context_switches() -> u64 {
    status_number("voluntary_ctxt_switches").unwrap_or(0.0) as u64
}

/// Microseconds some task on the host waited for a CPU
/// (`/proc/pressure/cpu`, `some … total=`); `None` where the kernel has no
/// pressure-stall accounting.
pub fn cpu_pressure_us() -> Option<u64> {
    let pressure = fs::read_to_string("/proc/pressure/cpu").ok()?;
    let some = pressure.lines().find(|line| line.starts_with("some"))?;
    some.split_whitespace()
        .find_map(|field| field.strip_prefix("total="))?
        .parse()
        .ok()
}

/// The processor's model name, as `/proc/cpuinfo` gives it.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split_once(':'))
                .map(|(_, model)| model.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The CPUs this process may run on (`Cpus_allowed_list`), e.g. `0-1`, or
/// `1` under `run.sh`.
pub fn cpus_allowed() -> String {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))
                .map(|list| list.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Threads the host lets this process run at once.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The build profile this binary was compiled under.
pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(nproc() >= 1);
        assert!(peak_rss_mb() > 0.5);
        assert!(rss_bytes() > 512.0 * 1024.0);
        assert!(process_cpu_seconds() >= 0.0);
        assert!(!cpu_model().is_empty());
    }
}
