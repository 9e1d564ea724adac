//! Small numeric helpers shared by the workloads.

/// Median of `values` (the mean of the middle pair for an even count);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// The tail of a latency sample: the highest whole percentile that still
/// has at least ten samples beyond it, as `(percentile, value)`. With ten
/// or fewer samples no percentile qualifies, and the smallest sample is
/// returned at percentile 0 (every sample lies at or beyond it).
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n <= 10 {
        return (0.0, sorted.first().copied().unwrap_or(0.0));
    }
    let percentile = (100 * (n - 10) / n) as f64;
    // Nearest-rank: the smallest sample with at least `percentile` % of the
    // sample at or below it.
    let rank = ((percentile / 100.0) * n as f64).ceil().max(1.0) as usize;
    (percentile, sorted[rank - 1])
}

/// FNV-1a digest of a byte string, rendered as 16 hex digits — the report
/// fingerprint recorded per workload and seed.
pub fn digest(bytes: &[u8]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// Peak resident set of this process in MiB (`VmHWM`), or `None` where
/// `/proc/self/status` does not exist.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let values: Vec<f64> = (1..=20).map(f64::from).collect();
        // 20 samples: p50 leaves exactly ten beyond it.
        assert_eq!(tail(&values), (50.0, 10.0));
        assert_eq!(tail(&[5.0, 2.0]), (0.0, 2.0));
    }
}
