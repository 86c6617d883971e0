//! Small statistics and host-measurement helpers shared by the workloads.

use std::time::Instant;

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p`% of the samples at or below it. `None` on an empty
/// slice.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    Some(sorted[rank.min(sorted.len()) - 1])
}

/// The median (nearest-rank p50) of unsorted samples; `NaN` when empty.
pub fn median(samples: &[f64]) -> f64 {
    nearest_rank(&sorted(samples), 50.0).unwrap_or(f64::NAN)
}

/// The lower quartile (nearest-rank p25) of unsorted samples; `NaN`
/// when empty.
pub fn lower_quartile(samples: &[f64]) -> f64 {
    nearest_rank(&sorted(samples), 25.0).unwrap_or(f64::NAN)
}

/// A tail percentile that is only reported when the sample supports it:
/// at least ten samples must lie strictly beyond the percentile's rank,
/// otherwise the value would be set by a handful of outliers.
pub fn supported_percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let value = nearest_rank(sorted, p)?;
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    (sorted.len() - rank.min(sorted.len()) >= 10).then_some(value)
}

/// The highest of `candidates` (descending percentiles) that the sample
/// supports, with its value.
pub fn highest_supported(sorted: &[f64], candidates: &[f64]) -> Option<(f64, f64)> {
    candidates
        .iter()
        .find_map(|&p| supported_percentile(sorted, p).map(|v| (p, v)))
}

/// An ascending copy of `samples` (NaNs sort last).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The FNV-1a-style digest of `crates/bench/src/bin/e2e.rs`, which the
/// committed `BENCH_*.json` e2e rows pin. Its multiplier is
/// `0x1_0000_01b3`, not the standard 64-bit FNV prime; it must stay as it
/// is for the pinned digests to match.
pub struct Fnv64(u64);

impl Fnv64 {
    pub fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x1_0000_01b3);
        }
    }

    pub fn push_f64(&mut self, v: f64) {
        self.update(&v.to_bits().to_le_bytes());
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Seconds elapsed since `t`.
pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Peak resident memory of this process in MB (`VmHWM` of
/// `/proc/self/status`); `NaN` where the file is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Runs `setup` `times` times and returns the median wall seconds plus
/// the last result (the one the measurement uses). Earlier results are
/// dropped before the next set-up starts.
pub fn repeated_setup<T>(times: usize, mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut walls = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        walls.push(secs_since(t));
    }
    (median(&walls), last.expect("at least one set-up ran"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_is_exact_on_known_arrays() {
        let v = one_to(100);
        assert_eq!(nearest_rank(&v, 50.0), Some(50.0));
        assert_eq!(nearest_rank(&v, 99.0), Some(99.0));
        assert_eq!(nearest_rank(&v, 100.0), Some(100.0));
        assert_eq!(nearest_rank(&one_to(1000), 99.0), Some(990.0));
        assert_eq!(nearest_rank(&[7.0], 99.0), Some(7.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(lower_quartile(&[4.0, 1.0, 3.0, 2.0]), 1.0);
        assert_eq!(lower_quartile(&[8.0, 1.0, 3.0, 2.0, 5.0]), 2.0);
        assert!(lower_quartile(&[]).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples has exactly 10 beyond its rank (990).
        assert_eq!(supported_percentile(&one_to(1000), 99.0), Some(990.0));
        // 999 samples: rank 990, only 9 beyond.
        assert_eq!(supported_percentile(&one_to(999), 99.0), None);
        // p50 of 20 samples: rank 10, 10 beyond.
        assert_eq!(supported_percentile(&one_to(20), 50.0), Some(10.0));
        assert_eq!(supported_percentile(&one_to(19), 50.0), None);
        assert_eq!(
            highest_supported(&one_to(200), &[99.0, 90.0, 50.0]),
            Some((90.0, 180.0))
        );
        assert_eq!(highest_supported(&one_to(5), &[99.0, 50.0]), None);
    }

    #[test]
    fn digest_matches_the_e2e_recorder() {
        // (0xcbf29ce484222325 ^ 0x61) * 0x1000001b3 mod 2^64.
        let mut d = Fnv64::new();
        d.update(b"a");
        assert_eq!(d.hex(), "1162bb908601ec8c");
    }
}
