//! Rolling windowed staleness analytics over the cumulative
//! staleness-depth histogram.
//!
//! The pipeline's [`PipelineProgress`](super::PipelineProgress) carries
//! `depth_hist`, a *cumulative* histogram of read staleness depths since
//! the audit started. For a long audit that is the wrong lens: a latency
//! regression an hour in is invisible under millions of healthy early
//! reads. A [`DepthWindow`] turns the cumulative histogram into a
//! sliding-window view by retaining the histogram as of `ticks`
//! observations ago and differencing — the delta is exactly the reads that
//! arrived during the window, at zero cost to the hot path (two `Vec<u64>`
//! subtractions per progress tick, nothing per record).
//!
//! Depths are bucketed (bucket 0 = depth 0, bucket `i >= 1` covers
//! `[2^(i-1), 2^i)`), so the reported percentiles are the *upper bound*
//! of the bucket containing that percentile — a conservative estimate
//! that never under-reports staleness.

use serde::Serialize;
use std::collections::VecDeque;

/// Default sliding-window length, in progress ticks.
pub const DEFAULT_DEPTH_WINDOW: usize = 16;

/// Windowed staleness-depth summary for one progress tick.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct DepthStats {
    /// Reads observed inside the window.
    pub reads: u64,
    /// Median staleness depth (bucket upper bound).
    pub p50: u64,
    /// 99th-percentile staleness depth (bucket upper bound).
    pub p99: u64,
    /// Largest staleness depth in the window (bucket upper bound).
    pub max: u64,
}

/// Sliding window over cumulative depth histograms: feed it the
/// cumulative `depth_hist` at every progress tick and it reports the
/// depth distribution of the last `ticks` intervals only.
#[derive(Clone, Debug)]
pub struct DepthWindow {
    ticks: usize,
    /// Cumulative histograms from the most recent `ticks` observations,
    /// oldest first. Once full, the front is the subtraction baseline
    /// for the next tick.
    history: VecDeque<Vec<u64>>,
}

impl DepthWindow {
    /// A window covering the last `ticks` progress intervals (`0` is
    /// treated as `1`: a window must cover something).
    pub fn new(ticks: usize) -> Self {
        DepthWindow { ticks: ticks.max(1), history: VecDeque::new() }
    }

    /// Records the cumulative histogram at this tick and returns the
    /// stats of the window ending here. Until `ticks` observations have
    /// accumulated, the window stretches back to the start of the audit.
    pub fn observe(&mut self, cumulative: &[u64]) -> DepthStats {
        // The baseline is the cumulative histogram from `ticks`
        // observations ago; until the window fills, it is the (zero)
        // state at the start of the audit.
        let baseline =
            if self.history.len() >= self.ticks { self.history.pop_front() } else { None };
        let base: &[u64] = baseline.as_deref().unwrap_or(&[]);
        let delta: Vec<u64> = cumulative
            .iter()
            .enumerate()
            // Saturating: a resumed audit may restart counters below a
            // stale baseline; a clamped bucket beats a panic mid-audit.
            .map(|(i, &c)| c.saturating_sub(base.get(i).copied().unwrap_or(0)))
            .collect();
        self.history.push_back(cumulative.to_vec());
        stats_of(&delta)
    }
}

impl Default for DepthWindow {
    fn default() -> Self {
        DepthWindow::new(DEFAULT_DEPTH_WINDOW)
    }
}

/// The largest depth bucket `i` can hold: bucket 0 is depth 0, bucket
/// `i >= 1` covers `[2^(i-1), 2^i)` so its upper bound is `2^i - 1`.
fn bucket_ceiling(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        (1u64 << i.min(63)) - 1
    }
}

/// The bucket ceiling at quantile `q` of a bucketed histogram (the
/// smallest depth bound covering at least `ceil(q * total)` reads).
fn quantile(hist: &[u64], total: u64, q: f64) -> u64 {
    // ceil without floating-point edge trouble at q = 1.0.
    let rank = ((total as f64) * q).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (i, &count) in hist.iter().enumerate() {
        seen += count;
        if seen >= rank {
            return bucket_ceiling(i);
        }
    }
    bucket_ceiling(hist.len().saturating_sub(1))
}

fn stats_of(hist: &[u64]) -> DepthStats {
    let reads: u64 = hist.iter().sum();
    if reads == 0 {
        return DepthStats::default();
    }
    let max = hist
        .iter()
        .rposition(|&c| c > 0)
        .map_or(0, bucket_ceiling);
    DepthStats {
        reads,
        p50: quantile(hist, reads, 0.50),
        p99: quantile(hist, reads, 0.99),
        max,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_window_reports_zeros() {
        let mut window = DepthWindow::new(4);
        assert_eq!(window.observe(&[0, 0, 0]), DepthStats::default());
    }

    #[test]
    fn percentiles_use_bucket_ceilings() {
        let mut window = DepthWindow::new(4);
        // 90 depth-0 reads, 9 in [1,1], 1 in [2,3]: p50 = 0, p99 lands in
        // bucket 1 (cumulative 99 >= rank 99), max in bucket 2.
        let stats = window.observe(&[90, 9, 1]);
        assert_eq!(stats, DepthStats { reads: 100, p50: 0, p99: 1, max: 3 });
    }

    #[test]
    fn old_mass_leaves_the_window() {
        let mut window = DepthWindow::new(2);
        // Tick 1: 100 deep reads. Ticks 2-3: only shallow reads arrive
        // (cumulative deep count stays flat), so once the deep tick's
        // histogram becomes the baseline, the window is all shallow.
        window.observe(&[0, 0, 0, 100]);
        window.observe(&[50, 0, 0, 100]);
        let stats = window.observe(&[80, 0, 0, 100]);
        assert_eq!(stats.reads, 80);
        assert_eq!(stats.max, 0);
        assert_eq!(stats.p99, 0);
    }

    #[test]
    fn window_shorter_than_history_stretches_to_start() {
        let mut window = DepthWindow::new(8);
        window.observe(&[10, 0]);
        let stats = window.observe(&[10, 5]);
        // Baseline is the first tick: the window covers ticks 1..=2.
        assert_eq!(stats, DepthStats { reads: 15, p50: 0, p99: 1, max: 1 });
    }

    #[test]
    fn growing_histogram_widths_are_tolerated() {
        let mut window = DepthWindow::new(2);
        window.observe(&[5]);
        let stats = window.observe(&[5, 3]);
        assert_eq!(stats.reads, 8);
        assert_eq!(stats.max, 1);
    }

    #[test]
    fn all_reads_deep_pushes_every_quantile_up() {
        let mut window = DepthWindow::default();
        let stats = window.observe(&[0, 0, 0, 0, 7]);
        assert_eq!(stats, DepthStats { reads: 7, p50: 15, p99: 15, max: 15 });
    }
}
