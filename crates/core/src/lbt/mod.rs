//! LBT — the Limited BackTracking 2-atomicity verifier (paper §III).
//!
//! LBT constructs a 2-atomic total order back to front, placing operations
//! into *write slots* and *read containers* (Figure 1). It runs in *epochs*:
//! each epoch tentatively places a candidate write in the latest unfilled
//! write slot; that placement forces which reads join the adjacent read
//! container, which in turn forces the next write slot, and so on — no
//! search happens inside an epoch. Backtracking is limited to the choice of
//! the epoch's first write, drawn from the candidate set
//!
//! ```text
//! C = { w ∈ W : w does not precede any other write of W }
//!   = { w ∈ W : w.finish > max start time over W }
//! ```
//!
//! (the two sets coincide: a write fails the first condition iff some other
//! write starts after it finishes, and the write with the maximum start
//! always finishes after that start). `C` is an antichain of writes — its
//! members pairwise overlap — so `|C| ≤ c`, the maximum number of concurrent
//! writes, and `C` is a suffix of `W` in finish order.
//!
//! With the iterative-deepening candidate schedule of §III-C the total
//! running time is `O(n log n + c·n)`; the paper's Figure 2 pseudo-code
//! (try each candidate to completion) is available as
//! [`SearchStrategy::Naive`] for ablation.

mod arena;

use crate::{TotalOrder, Verdict, Verifier};
use arena::Lists;
use kav_history::{History, OpId, Time};
use std::collections::BinaryHeap;

/// How an epoch's candidate writes are scheduled (§III-C).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SearchStrategy {
    /// Run every candidate to completion before trying the next, exactly as
    /// in the paper's Figure 2. Worst case `O(t)` per *failed* candidate.
    Naive,
    /// Iterative deepening with doubling removal budgets: all surviving
    /// candidates advance in lock step, so one epoch costs `O(c·t)` where
    /// `t` is the depth at which the epoch resolves (Theorem 3.2).
    #[default]
    IterativeDeepening,
}

/// The order in which the candidate set `C` is tried.
///
/// The paper leaves this unspecified; it only affects constants on YES
/// instances — and the adversarial *staircase* workload shows either fixed
/// choice can be forced quadratic (see `kav-workloads`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CandidateOrder {
    /// Try candidates in increasing finish time (list order of `W`).
    #[default]
    IncreasingFinish,
    /// Try candidates in decreasing finish time.
    DecreasingFinish,
}

/// Configuration of [`Lbt`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LbtConfig {
    /// Candidate scheduling strategy.
    pub strategy: SearchStrategy,
    /// Candidate ordering within an epoch.
    pub candidate_order: CandidateOrder,
}

/// Work counters of one LBT run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LbtReport {
    /// Epochs executed (successful ones).
    pub epochs: usize,
    /// Candidate trials, counting repeats across deepening rounds.
    pub candidates_tried: usize,
    /// Operations removed across all trials, counting repeats (the paper's
    /// `O(c·t)` work term).
    pub ops_removed: u64,
    /// Deepening rounds across all epochs (0 under `Naive`).
    pub deepening_rounds: usize,
    /// Largest candidate set observed; at most `c`.
    pub max_candidate_set: usize,
}

/// The LBT 2-atomicity verifier.
///
/// # Examples
///
/// ```
/// use kav_core::{Lbt, Verifier};
/// use kav_history::HistoryBuilder;
///
/// // One write stale: 2-atomic but not atomic.
/// let h = HistoryBuilder::new()
///     .write(1, 0, 10)
///     .write(2, 12, 20)
///     .read(1, 22, 30)
///     .build()?;
/// assert!(Lbt::new().verify(&h).is_k_atomic());
///
/// // Two writes stale: not 2-atomic.
/// let h = HistoryBuilder::new()
///     .write(1, 0, 10)
///     .write(2, 12, 20)
///     .write(3, 22, 30)
///     .read(1, 32, 40)
///     .build()?;
/// assert!(!Lbt::new().verify(&h).is_k_atomic());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Lbt {
    config: LbtConfig,
}

impl Lbt {
    /// LBT with the default configuration (iterative deepening, increasing
    /// finish order).
    pub fn new() -> Self {
        Lbt::default()
    }

    /// LBT with an explicit configuration.
    pub fn with_config(config: LbtConfig) -> Self {
        Lbt { config }
    }

    /// The active configuration.
    pub fn config(&self) -> LbtConfig {
        self.config
    }

    /// Runs LBT and additionally returns its work counters.
    pub fn verify_detailed(&self, history: &History) -> (Verdict, LbtReport) {
        let mut run = Run::new(history, self.config);
        let verdict = run.solve();
        (verdict, run.report)
    }
}

impl Verifier for Lbt {
    fn k(&self) -> u64 {
        2
    }

    fn name(&self) -> &'static str {
        "lbt"
    }

    fn verify(&self, history: &History) -> Verdict {
        // The lists count writes, not write weights.
        if !crate::genk::unit_weights(history) {
            return crate::GenK::new(2).verify(history);
        }
        self.verify_detailed(history).0
    }
}

/// Outcome of one candidate trial.
enum EpochOutcome {
    /// The epoch completed; its removals stand.
    Success,
    /// The epoch hit a contradiction (lines 14/16 of Figure 2).
    Fail,
    /// The removal budget ran out before the epoch resolved.
    Exhausted,
}

struct Run<'h> {
    history: &'h History,
    config: LbtConfig,
    lists: Lists,
    /// Max-start tracking over remaining `W` with lazy deletion; entries
    /// are only discarded at epoch boundaries, when removals are committed
    /// and can no longer be rolled back.
    start_heap: BinaryHeap<(Time, usize)>,
    /// The witness in reverse (latest operation first).
    rev_order: Vec<OpId>,
    report: LbtReport,
}

impl<'h> Run<'h> {
    fn new(history: &'h History, config: LbtConfig) -> Self {
        let lists = Lists::new(history);
        let mut start_heap = BinaryHeap::with_capacity(history.num_writes());
        for &w in history.writes_by_finish() {
            start_heap.push((history.op(w).start, w.index()));
        }
        Run {
            history,
            config,
            lists,
            start_heap,
            rev_order: Vec::with_capacity(history.len()),
            report: LbtReport::default(),
        }
    }

    #[inline]
    fn start(&self, op: usize) -> Time {
        self.history.op(OpId(op)).start
    }

    #[inline]
    fn finish(&self, op: usize) -> Time {
        self.history.op(OpId(op)).finish
    }

    fn solve(&mut self) -> Verdict {
        while self.lists.h_len() > 0 {
            if self.lists.w_len() == 0 {
                // Unreachable for validated histories: every remaining read
                // would lack its dictating write.
                debug_assert!(false, "H non-empty but W empty");
                return Verdict::NotKAtomic;
            }
            self.report.epochs += 1;
            let candidates = self.candidate_set();
            self.report.max_candidate_set = self.report.max_candidate_set.max(candidates.len());
            let succeeded = match self.config.strategy {
                SearchStrategy::Naive => self.run_naive(&candidates),
                SearchStrategy::IterativeDeepening => self.run_deepening(&candidates),
            };
            if !succeeded {
                return Verdict::NotKAtomic;
            }
            // Successful epochs are permanent: limited backtracking never
            // crosses an epoch boundary (§III-B).
            self.lists.commit();
        }
        let mut order = std::mem::take(&mut self.rev_order);
        order.reverse();
        Verdict::KAtomic { witness: TotalOrder::new(order) }
    }

    /// Computes `C = {w ∈ W : w.finish > max start over W}` as a suffix of
    /// `W` in increasing finish order.
    fn candidate_set(&mut self) -> Vec<usize> {
        // Lazy-clean the heap: safe here because epoch boundaries commit.
        let max_start = loop {
            match self.start_heap.peek() {
                Some(&(t, w)) if !self.lists.in_w(w) => {
                    debug_assert!(t >= Time::ZERO);
                    self.start_heap.pop();
                }
                Some(&(t, _)) => break t,
                None => unreachable!("w_len > 0 guarantees a live heap entry"),
            }
        };
        let mut suffix = Vec::new();
        let mut cur = self.lists.w_last();
        while let Some(w) = cur {
            if self.finish(w) > max_start {
                suffix.push(w);
                cur = self.lists.w_prev_of(w);
            } else {
                break;
            }
        }
        match self.config.candidate_order {
            CandidateOrder::IncreasingFinish => suffix.reverse(),
            CandidateOrder::DecreasingFinish => {}
        }
        suffix
    }

    /// Figure 2 literal: each candidate runs to completion.
    fn run_naive(&mut self, candidates: &[usize]) -> bool {
        for &w in candidates {
            let cp = self.lists.checkpoint();
            let rev_cp = self.rev_order.len();
            self.report.candidates_tried += 1;
            match self.run_epoch(w, None) {
                EpochOutcome::Success => return true,
                EpochOutcome::Fail => {
                    self.lists.rollback(cp);
                    self.rev_order.truncate(rev_cp);
                }
                EpochOutcome::Exhausted => unreachable!("no budget given"),
            }
        }
        false
    }

    /// §III-C: all candidates advance with doubling removal budgets, so the
    /// epoch costs `O(|C| · t)` where `t` is the resolution depth.
    fn run_deepening(&mut self, candidates: &[usize]) -> bool {
        let mut alive: Vec<usize> = candidates.to_vec();
        let mut budget: u64 = 4;
        loop {
            self.report.deepening_rounds += 1;
            let mut survivors = Vec::with_capacity(alive.len());
            for &w in &alive {
                let cp = self.lists.checkpoint();
                let rev_cp = self.rev_order.len();
                self.report.candidates_tried += 1;
                match self.run_epoch(w, Some(budget)) {
                    EpochOutcome::Success => return true,
                    EpochOutcome::Fail => {
                        self.lists.rollback(cp);
                        self.rev_order.truncate(rev_cp);
                    }
                    EpochOutcome::Exhausted => {
                        self.lists.rollback(cp);
                        self.rev_order.truncate(rev_cp);
                        survivors.push(w);
                    }
                }
            }
            if survivors.is_empty() {
                return false;
            }
            alive = survivors;
            budget = budget.saturating_mul(2);
        }
    }

    /// `RunEpoch(w, H, W)` of Figure 2, with an optional removal budget.
    ///
    /// Placements are appended to `rev_order` newest-first: for the write
    /// currently occupying the latest unfilled slot, first the reads that
    /// start after it finishes (its read container, walked in decreasing
    /// start order), then its remaining dictated reads, then the write
    /// itself. Reversing at the end yields a forward total order in which
    /// every container is sorted by start time.
    fn run_epoch(&mut self, first: usize, budget: Option<u64>) -> EpochOutcome {
        let mut w = first;
        let mut removed: u64 = 0;
        loop {
            let wf = self.finish(w);
            // Forced previous write slot (the paper's w').
            let mut forced: Option<usize> = None;

            // Scan the suffix of H that starts after w finishes.
            let mut cur = self.lists.h_last();
            while let Some(op) = cur {
                if self.start(op) <= wf {
                    break;
                }
                let next = self.lists.h_prev_of(op);
                if self.history.op(OpId(op)).is_write() {
                    // Line 14: a write after the latest write slot.
                    return EpochOutcome::Fail;
                }
                let dict = self
                    .history
                    .dictating_write(OpId(op))
                    .expect("validated read has a dictating write")
                    .index();
                if dict != w {
                    match forced {
                        None => forced = Some(dict),
                        Some(prev) if prev == dict => {}
                        // Line 16: two distinct foreign dictating writes.
                        Some(_) => return EpochOutcome::Fail,
                    }
                }
                self.lists.remove_h(op);
                self.lists.remove_d(op);
                self.rev_order.push(OpId(op));
                removed += 1;
                self.report.ops_removed += 1;
                if budget.is_some_and(|b| removed >= b) {
                    return EpochOutcome::Exhausted;
                }
                cur = next;
            }

            // Lines 19–20: the write's remaining dictated reads (all start
            // before w.finish now) join its container, then w fills the slot.
            let remaining = self.lists.dictated_remaining(w);
            for &r in remaining.iter().rev() {
                self.lists.remove_h(r);
                self.lists.remove_d(r);
                self.rev_order.push(OpId(r));
                removed += 1;
                self.report.ops_removed += 1;
                if budget.is_some_and(|b| removed >= b) {
                    return EpochOutcome::Exhausted;
                }
            }
            self.lists.remove_h(w);
            self.lists.remove_w(w);
            self.rev_order.push(OpId(w));
            removed += 1;
            self.report.ops_removed += 1;

            match forced {
                // Line 21: the container does not constrain the next slot.
                None => return EpochOutcome::Success,
                Some(next_w) => {
                    if budget.is_some_and(|b| removed >= b) {
                        return EpochOutcome::Exhausted;
                    }
                    w = next_w;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_witness;
    use kav_history::HistoryBuilder;

    fn verify_both(h: &History) -> (bool, bool) {
        let naive = Lbt::with_config(LbtConfig {
            strategy: SearchStrategy::Naive,
            candidate_order: CandidateOrder::IncreasingFinish,
        });
        let deep = Lbt::new();
        let vn = naive.verify(h);
        let vd = deep.verify(h);
        for v in [&vn, &vd] {
            if let Verdict::KAtomic { witness } = v {
                check_witness(h, witness, 2).expect("LBT witness must certify 2-atomicity");
            }
        }
        (vn.is_k_atomic(), vd.is_k_atomic())
    }

    #[test]
    fn accepts_serial_history() {
        let h = HistoryBuilder::new()
            .write(1, 0, 10)
            .read(1, 12, 20)
            .write(2, 22, 30)
            .read(2, 32, 40)
            .build()
            .unwrap();
        assert_eq!(verify_both(&h), (true, true));
    }

    #[test]
    fn accepts_one_write_stale_read() {
        let h = HistoryBuilder::new()
            .write(1, 0, 10)
            .write(2, 12, 20)
            .read(1, 22, 30)
            .build()
            .unwrap();
        assert_eq!(verify_both(&h), (true, true));
    }

    #[test]
    fn rejects_two_writes_stale_read() {
        let h = HistoryBuilder::new()
            .write(1, 0, 10)
            .write(2, 12, 20)
            .write(3, 22, 30)
            .read(1, 32, 40)
            .build()
            .unwrap();
        assert_eq!(verify_both(&h), (false, false));
    }

    #[test]
    fn empty_history_is_trivially_2_atomic() {
        let h = HistoryBuilder::new().build().unwrap();
        assert_eq!(verify_both(&h), (true, true));
    }

    #[test]
    fn write_only_histories_are_2_atomic() {
        let h = HistoryBuilder::new()
            .write(1, 0, 10)
            .write(2, 5, 15)
            .write(3, 8, 20)
            .write(4, 30, 40)
            .build()
            .unwrap();
        assert_eq!(verify_both(&h), (true, true));
    }

    #[test]
    fn new_old_inversion_is_2_atomic() {
        // r(2) then r(1) with w(2) concurrent to both: classic k=2 case.
        let h = HistoryBuilder::new()
            .write(1, 0, 5)
            .write(2, 10, 40)
            .read(2, 12, 20)
            .read(1, 24, 32)
            .build()
            .unwrap();
        assert_eq!(verify_both(&h), (true, true));
    }

    #[test]
    fn epoch_chaining_follows_forced_writes() {
        // Three sequential clusters read in a pattern that forces the
        // chain w3 -> w2 -> w1 within one epoch.
        let h = HistoryBuilder::new()
            .write(1, 0, 10) // 0
            .write(2, 12, 20) // 1
            .write(3, 22, 30) // 2
            .read(2, 32, 38) // 3: one write stale after w3
            .read(3, 40, 48) // 4
            .build()
            .unwrap();
        let (verdict, report) = Lbt::new().verify_detailed(&h);
        assert!(verdict.is_k_atomic());
        assert!(report.epochs >= 1);
        assert!(report.candidates_tried >= 1);
    }

    #[test]
    fn report_counts_work() {
        let h = HistoryBuilder::new()
            .write(1, 0, 10)
            .write(2, 5, 15)
            .read(1, 20, 30)
            .read(2, 21, 31)
            .build()
            .unwrap();
        let (_, report) = Lbt::new().verify_detailed(&h);
        assert!(report.ops_removed >= 4);
        assert!(report.max_candidate_set >= 1);
        assert!(report.max_candidate_set <= h.max_concurrent_writes());
    }

    #[test]
    fn candidate_orders_agree_on_verdict() {
        let h = HistoryBuilder::new()
            .write(1, 0, 100)
            .write(2, 1, 101)
            .write(3, 2, 102)
            .read(3, 103, 110)
            .read(2, 104, 111)
            .build()
            .unwrap();
        let inc = Lbt::with_config(LbtConfig {
            candidate_order: CandidateOrder::IncreasingFinish,
            ..LbtConfig::default()
        });
        let dec = Lbt::with_config(LbtConfig {
            candidate_order: CandidateOrder::DecreasingFinish,
            ..LbtConfig::default()
        });
        assert_eq!(inc.verify(&h).is_k_atomic(), dec.verify(&h).is_k_atomic());
    }

    #[test]
    fn trait_metadata() {
        assert_eq!(Lbt::new().k(), 2);
        assert_eq!(Lbt::new().name(), "lbt");
        assert_eq!(Lbt::new().config(), LbtConfig::default());
    }
}
