//! Shared measurement helpers for the experiment harness.
//!
//! The `exp_*` binaries in `src/bin/` each print one experiment table
//! (E2–E11, numbered in each binary's header); the Criterion benches in
//! `benches/` provide
//! statistically careful timings of the same code paths. Both use the
//! workload constructors re-exported here so the inputs are identical.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

/// Runs `f` repeatedly and returns the median wall-clock duration of
/// `samples` runs (minimum 1). Use for quick experiment tables; use the
/// Criterion benches for publication-grade numbers.
pub fn median_time<F: FnMut()>(samples: usize, mut f: F) -> Duration {
    let samples = samples.max(1);
    let mut times: Vec<Duration> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed()
        })
        .collect();
    times.sort_unstable();
    median(&times)
}

/// The median of a sorted, non-empty sample: the middle element, or the
/// mean of the two middle elements for an even count.
fn median(sorted: &[Duration]) -> Duration {
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2
    } else {
        sorted[mid]
    }
}

/// Least-squares slope of `log(y)` against `log(x)`: the empirical
/// polynomial degree of a scaling series. A quasilinear algorithm shows a
/// slope near 1, a quadratic one near 2.
///
/// # Panics
///
/// Panics if fewer than two points are given or any coordinate is
/// non-positive.
pub fn log_log_slope(points: &[(f64, f64)]) -> f64 {
    assert!(points.len() >= 2, "need at least two points");
    let logs: Vec<(f64, f64)> = points
        .iter()
        .map(|&(x, y)| {
            assert!(x > 0.0 && y > 0.0, "log-log fit needs positive data");
            (x.ln(), y.ln())
        })
        .collect();
    let n = logs.len() as f64;
    let sx: f64 = logs.iter().map(|p| p.0).sum();
    let sy: f64 = logs.iter().map(|p| p.1).sum();
    let sxx: f64 = logs.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = logs.iter().map(|p| p.0 * p.1).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

/// Formats a duration as fractional milliseconds.
pub fn ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

/// Prints a markdown table row.
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Prints a markdown table header (with separator line).
pub fn header(cells: &[&str]) {
    println!("| {} |", cells.join(" | "));
    println!("|{}|", cells.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_averages_the_middle_pair_of_an_even_sample() {
        let ms = Duration::from_millis;
        assert_eq!(median(&[ms(1), ms(2), ms(9)]), ms(2));
        assert_eq!(median(&[ms(1), ms(2), ms(4), ms(9)]), ms(3));
        assert_eq!(median(&[ms(5)]), ms(5));
    }

    #[test]
    fn median_time_runs_the_closure() {
        let mut count = 0;
        let d = median_time(5, || count += 1);
        assert_eq!(count, 5);
        assert!(d.as_nanos() < 1_000_000_000);
    }

    #[test]
    fn slope_recovers_polynomial_degree() {
        let quadratic: Vec<(f64, f64)> =
            (1..=6).map(|i| (i as f64, (i * i) as f64)).collect();
        let s = log_log_slope(&quadratic);
        assert!((s - 2.0).abs() < 1e-9, "got {s}");

        let linear: Vec<(f64, f64)> = (1..=6).map(|i| (i as f64, 3.0 * i as f64)).collect();
        let s = log_log_slope(&linear);
        assert!((s - 1.0).abs() < 1e-9, "got {s}");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ms(Duration::from_millis(2)), "2.000");
        header(&["a", "b"]);
        row(&["1".into(), "2".into()]);
    }
}
