//! Order statistics and process memory.

/// Samples required beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The median (mean of the middle two for an even count); NaN when empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartiles as Python's `statistics.quantiles(xs, n=4)`
/// computes them (the default "exclusive" method). Needs two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    Some((cut(1), cut(3)))
}

/// The quartile distance as a share of the median.
pub fn spread(xs: &[f64]) -> f64 {
    match quartiles(xs) {
        Some((q1, q3)) => (q3 - q1) / median(xs).abs(),
        None => 0.0,
    }
}

/// The nearest-rank `p`-th percentile of `sorted` (ascending), with the
/// number of samples above its rank.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<(f64, usize)> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    Some((sorted[rank - 1], n - rank))
}

/// The highest of the 50th, 90th, 99th and 99.9th percentiles with at
/// least [`MIN_BEYOND`] samples beyond it: `(percentile, value, beyond)`.
pub fn tail(xs: &[f64]) -> Option<(f64, f64, usize)> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    [99.9, 99.0, 90.0, 50.0].into_iter().find_map(|p| {
        nearest_rank(&s, p)
            .filter(|&(_, beyond)| beyond >= MIN_BEYOND)
            .map(|(v, beyond)| (p, v, beyond))
    })
}

/// `VmHWM` (peak resident set) in MB from a `/proc/<pid>/status` text.
pub fn vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// This process's peak resident set in MB.
pub fn peak_rss_mb() -> Option<f64> {
    vm_hwm_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_and_the_ten_beyond_rule() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&xs, 50.0), Some((50.0, 50)));
        assert_eq!(nearest_rank(&xs, 90.0), Some((90.0, 10)));
        assert_eq!(nearest_rank(&xs, 99.0), Some((99.0, 1)));
        // p99 has one sample beyond it, p90 has ten: p90 is reported.
        assert_eq!(tail(&xs), Some((90.0, 90.0, 10)));
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&many), Some((99.0, 990.0, 10)));
        let few: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(tail(&few), None);
        assert_eq!(
            tail(&(1..=20).map(f64::from).collect::<Vec<_>>()),
            Some((50.0, 10.0, 10))
        );
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn reads_vm_hwm() {
        let status = "Name:\tdlp\nVmPeak:\t  300000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(vm_hwm_mb(status), Some(50.0));
        assert_eq!(vm_hwm_mb("Name:\tdlp\n"), None);
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
