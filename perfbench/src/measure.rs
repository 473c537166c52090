//! Host-side measurement helpers: timers, order statistics, peak RSS and the
//! contention witness.

use std::hint::black_box;
use std::time::Instant;

/// Milliseconds elapsed since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Runs `f` and returns its result with the elapsed milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, ms_since(start))
}

/// The median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The nearest-rank `pct`-th percentile of `values`; 0 for an empty slice.
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Index of the sample whose value is the lower median of `values`.
pub fn median_index(values: &[f64]) -> usize {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    order[(order.len() - 1) / 2]
}

/// Peak resident set size of this process (`VmHWM`), in MB; 0 where
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

/// Steps per calibration pass (about 6 ms on an idle 2-vCPU Xeon host).
const CALIBRATION_STEPS: u64 = 4_000_000;

/// The contention witness: a fixed integer loop (a multiply-add chain with
/// shifts and an unpredictable branch) that runs in registers. Every pass
/// does the same work, so its time depends only on how much of a core, and
/// at what clock, the host gives this process, never on the program under
/// test. A run whose calibration is slow was slowed by its neighbours, not
/// by a regression.
#[derive(Debug, Default)]
pub struct Calibration {
    samples: Vec<f64>,
}

impl Calibration {
    /// Times one pass; returns its milliseconds.
    pub fn sample(&mut self) -> f64 {
        let start = Instant::now();
        let (mut x, mut y) = (black_box(1u64), black_box(3u64));
        for step in 0..CALIBRATION_STEPS {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(step);
            y ^= x >> 17;
            if y & 1 == 0 {
                y = y.rotate_left(3);
            }
        }
        black_box((x, y));
        let ms = ms_since(start);
        self.samples.push(ms);
        ms
    }

    /// Median pass time so far, in milliseconds.
    pub fn median_ms(&self) -> f64 {
        median(&self.samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 90.0), 5.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 50.0), 3.0);
        assert_eq!(median_index(&[5.0, 1.0, 3.0, 4.0]), 2);
    }
}
