//! Host-side measurement: process counters from `/proc`, order
//! statistics, and the probe timing loop.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Counters of this process, read from `/proc/self`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcessStats {
    /// Peak resident set (`VmHWM`), MB.
    pub peak_rss_mb: f64,
    /// User CPU seconds.
    pub cpu_user_s: f64,
    /// System CPU seconds.
    pub cpu_sys_s: f64,
    /// Minor page faults.
    pub minor_faults: u64,
}

impl ProcessStats {
    /// Reads the counters. Fields the host does not expose stay zero,
    /// which the correctness gate reports as a failed run.
    pub fn read() -> ProcessStats {
        let mut stats = ProcessStats::default();
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            if let Some(kb) = status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|kb| kb.parse::<f64>().ok())
            {
                stats.peak_rss_mb = kb / 1024.0;
            }
        }
        if let Ok(stat) = std::fs::read_to_string("/proc/self/stat") {
            // Fields after the parenthesised command name; `minflt` is
            // field 10, `utime` 14 and `stime` 15 of the whole line.
            if let Some((_, rest)) = stat.rsplit_once(')') {
                let fields: Vec<&str> = rest.split_whitespace().collect();
                let field = |n: usize| fields.get(n - 3).and_then(|f| f.parse::<u64>().ok());
                // USER_HZ is 100 on every Linux ABI Rust targets.
                let ticks_per_s = 100.0;
                stats.minor_faults = field(10).unwrap_or(0);
                stats.cpu_user_s = field(14).unwrap_or(0) as f64 / ticks_per_s;
                stats.cpu_sys_s = field(15).unwrap_or(0) as f64 / ticks_per_s;
            }
        }
        stats
    }
}

/// Logical cores available to this process.
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// order statistics; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles Python's `statistics.quantiles(v, n=4)`
/// gives (the exclusive method), which is what the driver computes.
pub fn iqr_share(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let exclusive = |k: usize| {
        let position = k as f64 * (n + 1) as f64 / 4.0;
        let j = (position.floor() as usize).clamp(1, n - 1);
        let delta = position - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    let mid = median(&sorted);
    if mid == 0.0 {
        return 0.0;
    }
    (exclusive(3) - exclusive(1)).abs() / mid.abs()
}

/// Samples a probe takes.
pub const PROBE_SAMPLES: usize = 30;

/// Median nanoseconds per call of `op` over [`PROBE_SAMPLES`] samples,
/// each a batch sized to take about a millisecond.
pub fn ns_per_op<R>(mut op: impl FnMut() -> R) -> f64 {
    let target = Duration::from_millis(1);
    let mut batch = 1u64;
    loop {
        let started = Instant::now();
        for _ in 0..batch {
            black_box(op());
        }
        if started.elapsed() >= target / 2 || batch >= 1 << 24 {
            break;
        }
        batch *= 2;
    }
    let samples: Vec<f64> = (0..PROBE_SAMPLES)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..batch {
                black_box(op());
            }
            started.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    median(&samples)
}

/// Like [`ns_per_op`] for an operation that consumes a fresh input:
/// `setup` builds one input per call outside the timed region.
pub fn ns_per_op_with_setup<I, R>(mut setup: impl FnMut() -> I, mut op: impl FnMut(I) -> R) -> f64 {
    let samples: Vec<f64> = (0..PROBE_SAMPLES)
        .map(|_| {
            let input = setup();
            let started = Instant::now();
            black_box(op(input));
            started.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&values) - 5.5 / 5.5).abs() < 1e-12);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert!((iqr_share(&[3.0, 1.0, 4.0, 1.0, 5.0]) - 3.5 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_interpolates() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0], 1.0), 3.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn process_counters_are_readable_here() {
        let stats = ProcessStats::read();
        assert!(stats.peak_rss_mb > 0.0);
    }
}
