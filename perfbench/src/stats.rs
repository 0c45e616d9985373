//! Order statistics over measured samples.

/// Linear-interpolated quantile `q` in `[0, 1]` of `values` (the
/// "inclusive" method of Python's `statistics.quantiles`). Returns NaN for
/// an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Runs `f`, appends its wall time in seconds to `times` and returns its
/// result.
pub fn time_into<R>(times: &mut Vec<f64>, f: impl FnOnce() -> R) -> R {
    let t = std::time::Instant::now();
    let r = f();
    times.push(t.elapsed().as_secs_f64());
    r
}

/// Median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The steady-state figure of a run's per-window rates: the 90th
/// percentile. Each workload makes its windows long enough (about half a
/// second or more) to hold the program's whole cycle, so a slow phase of
/// the program shows in every window. On a shared machine other tenants
/// slow the run down in bursts from milliseconds to minutes, but never
/// speed a window up: the fast end of the distribution is what the code
/// itself sustains, and it repeats across runs, where the median mostly
/// reports how busy the neighbours were. The 90th percentile rather than
/// the maximum keeps a regression that hits one window in ten or more in
/// the figure.
pub fn steady_rate(rates: &[f64]) -> f64 {
    quantile(rates, 0.9)
}

/// Milliseconds per operation at the steady-state rate ([`steady_rate`])
/// of a run's per-window rates in operations per second.
pub fn steady_ms_per_op(rates: &[f64]) -> f64 {
    1e3 / steady_rate(rates)
}

/// The steady-state figure of a run's per-window latencies: the 10th
/// percentile, for the same reason as [`steady_rate`].
pub fn steady_latency(latencies: &[f64]) -> f64 {
    quantile(latencies, 0.1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.99) - 3.97).abs() < 1e-12);
        assert!(median(&[]).is_nan());
    }
}
