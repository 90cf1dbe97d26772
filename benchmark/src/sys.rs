//! Process-level readings the end-to-end metrics need: CPU time, memory
//! high-water mark, core count. Linux only — the benchmark's sandbox;
//! elsewhere the readings are 0.

/// Process CPU seconds: user + system over all threads, joined ones
/// included (`CLOCK_PROCESS_CPUTIME_ID`). The same total
/// `/proc/self/stat` reports as utime + stime, at nanosecond rather
/// than 10 ms tick resolution — a round is only a few hundred ticks.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` is the C library's (std already links
    // it); `ts` is a live, writable `timespec` of the layout 64-bit
    // Linux defines (two 64-bit fields), and the call writes nothing
    // else. A non-zero return leaves `ts` zeroed, which reads as 0 s.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Elsewhere the benchmark still runs; CPU time reads 0.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn cpu_seconds() -> f64 {
    0.0
}

fn status_kb(key: &str) -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// Peak resident set size so far (MB, `VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

/// Current resident set size (kB, `VmRSS`).
pub fn rss_kb() -> f64 {
    status_kb("VmRSS:")
}

/// Cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Serve workloads leave one core to the driver thread.
pub fn serve_workers() -> usize {
    cores().saturating_sub(1).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_sane() {
        assert!(cores() >= 1);
        assert!(serve_workers() >= 1);
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() > before);
        assert!(peak_rss_mb() > 0.0);
        assert!(rss_kb() > 0.0);
    }
}
