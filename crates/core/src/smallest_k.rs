//! Computing the smallest `k` for which a history is k-atomic (§II-B).
//!
//! k-atomicity is monotone in `k`, so the smallest `k` is well defined and
//! finite: ordering all operations by *finish time* is always a valid total
//! order (if `a` precedes `b` then `a.finish < b.start < b.finish`) that
//! places every write before its dictated reads (guaranteed by the §II-C
//! write-shortening normalisation), so some `k` always works.
//!
//! The procedure uses the best verifier per level — the Gibbons–Korach
//! zone test for `k = 1`, FZF for `k = 2` — and from `k = 3` up runs the
//! [`GenK`](crate::GenK) bound sandwich (forced-separation lower bound,
//! constructive witness upper bound) before any exhaustive-search call,
//! so the exponential search only sees the pieces of a bound gap that the
//! best witness order misses. Weighted histories skip the two zone tests,
//! which ignore weights, and run the sandwich from level 1.

use crate::genk::{
    base_candidates, escalate_gap, max_separation, refined_witness, staleness_lower_bound,
    unit_weights,
};
use crate::{Fzf, GkOneAv, Verdict, Verifier};
use kav_history::{History, OpId};
use std::fmt;

/// Result of a smallest-k computation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Staleness {
    /// The history is exactly `k`-atomic (k-atomic but not (k−1)-atomic).
    Exact(u64),
    /// The search budget ran out: the history is not (k−1)-atomic, so the
    /// smallest k is at least this value.
    AtLeast(u64),
}

impl Staleness {
    /// The proven lower bound on the smallest k.
    pub fn lower_bound(&self) -> u64 {
        match *self {
            Staleness::Exact(k) | Staleness::AtLeast(k) => k,
        }
    }

    /// The exact smallest k, if it was determined.
    pub fn exact(&self) -> Option<u64> {
        match *self {
            Staleness::Exact(k) => Some(k),
            Staleness::AtLeast(_) => None,
        }
    }
}

impl fmt::Display for Staleness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Staleness::Exact(k) => write!(f, "k = {k}"),
            Staleness::AtLeast(k) => write!(f, "k >= {k}"),
        }
    }
}

/// A cheap upper bound on the smallest k: the maximum separation observed
/// in the finish-time order, which is always a valid witness order.
///
/// # Examples
///
/// ```
/// use kav_core::staleness_upper_bound;
/// use kav_history::HistoryBuilder;
///
/// let h = HistoryBuilder::new()
///     .write(1, 0, 10)
///     .write(2, 12, 20)
///     .read(1, 22, 30)
///     .build()?;
/// assert!(staleness_upper_bound(&h) >= 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn staleness_upper_bound(history: &History) -> u64 {
    // `max_separation` carries the wp < rp invariant: normalisation
    // places a write's finish strictly below its dictated reads', and
    // the explicit tie-break in `finish_order_writes_first` covers any
    // input where the two rank equal.
    max_separation(history, &finish_order_writes_first(history)).max(1)
}

/// The finish-time total order with an **explicit** tie-break: writes
/// before reads at equal finish time, then by operation id. Validated
/// histories have pairwise distinct (re-ranked) endpoints, so the
/// tie-break never fires on them — but it makes the invariant "a
/// dictating write sorts before its dictated reads" hold by construction
/// rather than by the accident of a sort's stability, so debug asserts
/// downstream cannot panic even if an unnormalised history slips through.
pub(crate) fn finish_order_writes_first(history: &History) -> Vec<OpId> {
    let mut order: Vec<OpId> = history.ids().collect();
    order.sort_unstable_by_key(|id| {
        let op = history.op(*id);
        (op.finish, op.is_read(), id.index())
    });
    order
}

/// Computes the smallest `k` for which `history` is k-atomic.
///
/// From `k = 3` up (from `k = 1` on a weighted history) the search is
/// sandwiched by the [`GenK`](crate::GenK) bounds: the forced-separation
/// lower bound and the best constructive witness order pin an interval
/// `[lower, upper]` of candidate levels, every level below `lower` is
/// already refuted, and `upper` is certified by an explicit witness — so
/// the exact [`ConstrainedSearch`](crate::ConstrainedSearch) only runs on
/// levels inside the bound gap, and there only on the free-cut pieces the
/// level's best witness order misses.
///
/// `node_budget` caps the search nodes of each level, shared by the pieces
/// it searches; pass `None` for unbounded (potentially exponential)
/// searches. When a budgeted search
/// gives up at level `k`, the result is [`Staleness::AtLeast`]`(k)` —
/// exactly the last *proven* non-atomic level plus one, never an
/// over-claim. There is no op-count ceiling: given enough budget, any
/// straddling gap — of any size — resolves to [`Staleness::Exact`].
///
/// # Examples
///
/// ```
/// use kav_core::{smallest_k, Staleness};
/// use kav_history::HistoryBuilder;
///
/// let h = HistoryBuilder::new()
///     .write(1, 0, 10)
///     .write(2, 12, 20)
///     .read(1, 22, 30)
///     .build()?;
/// assert_eq!(smallest_k(&h, None), Staleness::Exact(2));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn smallest_k(history: &History, node_budget: Option<u64>) -> Staleness {
    // GK and FZF decide unit-weight histories only; a weighted history
    // starts the sandwich at level 1.
    let floor = if unit_weights(history) {
        if GkOneAv.verify(history).is_k_atomic() {
            return Staleness::Exact(1);
        }
        if Fzf.verify(history).is_k_atomic() {
            return Staleness::Exact(2);
        }
        // Not 2-atomic: FZF refutes every level below 3.
        3
    } else {
        1
    };
    // Every level below `lower` is refuted, by FZF or by the forced
    // separation.
    let lower = staleness_lower_bound(history).max(floor);
    // The k-independent half of the sandwich is computed once and shared
    // across levels; the base witness certifies `upper`-atomicity.
    let base = base_candidates(history);
    let upper = base.sep.max(lower);
    for k in lower..upper {
        let (order, sep) = refined_witness(history, &base, k);
        if sep <= k {
            // The refined witness certifies k; every level below was
            // already refuted.
            return Staleness::Exact(k);
        }
        match escalate_gap(history, &order, k, node_budget).0 {
            Verdict::KAtomic { .. } | Verdict::Consistent => return Staleness::Exact(k),
            Verdict::NotKAtomic => {}
            // Give up at the first undecided level: everything below k is
            // proven non-atomic, so "at least k" is exactly what is known.
            Verdict::Inconclusive => return Staleness::AtLeast(k),
        }
    }
    // Every level in lower..upper was refuted and `upper` carries a
    // checkable witness: the smallest k is exactly `upper`.
    Staleness::Exact(upper)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kav_history::HistoryBuilder;

    fn ladder(writes: u64) -> History {
        let mut b = HistoryBuilder::new();
        for i in 0..writes {
            b = b.write(i + 1, 100 * i, 100 * i + 50);
        }
        b.read(1, 100 * writes, 100 * writes + 50).build().unwrap()
    }

    #[test]
    fn ladder_staleness_is_its_height() {
        for writes in 1..=5 {
            assert_eq!(smallest_k(&ladder(writes), None), Staleness::Exact(writes));
        }
    }

    #[test]
    fn upper_bound_is_sound() {
        for writes in 1..=5 {
            let h = ladder(writes);
            assert!(staleness_upper_bound(&h) >= writes);
        }
    }

    #[test]
    fn atomic_histories_report_one() {
        let h = HistoryBuilder::new().write(1, 0, 10).read(1, 12, 20).build().unwrap();
        assert_eq!(smallest_k(&h, None), Staleness::Exact(1));
        assert_eq!(staleness_upper_bound(&h), 1);
    }

    #[test]
    fn read_free_history_is_atomic() {
        let h = HistoryBuilder::new().write(1, 0, 10).write(2, 5, 15).build().unwrap();
        assert_eq!(smallest_k(&h, None), Staleness::Exact(1));
        assert_eq!(staleness_upper_bound(&h), 1);
    }

    #[test]
    fn ladders_are_bound_decided_even_with_no_budget() {
        // The sandwich closes on a ladder (forced lower bound == witness
        // upper bound), so even a 1-node search budget yields an exact
        // answer — the search is never needed.
        let result = smallest_k(&ladder(4), Some(1));
        assert_eq!(result, Staleness::Exact(4));
        assert_eq!(result.lower_bound(), 4);
        assert_eq!(result.exact(), Some(4));
    }

    /// A history whose bounds straddle its true k: concurrent writes
    /// defeat the forced lower bound while the candidate orders miss the
    /// optimum, so a level escalates to the search. Under a starved
    /// budget, the result must be [`Staleness::AtLeast`] at the *first
    /// undecided* level — the last proven non-atomic level + 1, never a
    /// number merely reached by a loop counter.
    #[test]
    fn budget_exhaustion_pins_at_least_vs_exact() {
        let h = gapped_history();
        // On this shape the sandwich straddles: forced lower bound 2,
        // witness upper bound 4, true k = 4, so level 3 must escalate.
        assert_eq!(smallest_k(&h, Some(10_000_000)), Staleness::Exact(4));
        // A starved budget gives up at level 3 — the result is "at least
        // 3" (the last *proven* non-atomic level, 2, plus one), never an
        // over-claim like AtLeast(4) or a fabricated Exact.
        let starved = smallest_k(&h, Some(1));
        assert_eq!(starved, Staleness::AtLeast(3));
        assert_eq!(starved.lower_bound(), 3);
        assert_eq!(starved.exact(), None);
    }

    #[test]
    fn oversized_straddling_gaps_resolve_exactly() {
        // Regression for the 128-op cliff: pad the straddling gadget with
        // 97 serial write/read pairs (201 ops total). The old escalator
        // pinned AtLeast(3) at *any* budget because the segment exceeded
        // the oracle's bitmask; the constrained tier must now close the
        // level-3 gap and land on the exact answer.
        let mut b = HistoryBuilder::new()
            .write(1, 0, 100)
            .write(2, 2, 102)
            .write(3, 4, 104)
            .write(4, 110, 120)
            .read(1, 122, 130)
            .read(3, 132, 140)
            .read(2, 142, 150);
        let mut t = 1000u64;
        for v in 10..107u64 {
            b = b.write(v, t, t + 5).read(v, t + 10, t + 15);
            t += 20;
        }
        let h = b.build().unwrap();
        assert!(h.len() > crate::MAX_SEARCH_OPS);
        assert_eq!(smallest_k(&h, Some(10_000_000)), Staleness::Exact(4));
    }

    /// A history that needs the escalation search at some level: see
    /// `budget_exhaustion_pins_at_least_vs_exact`.
    fn gapped_history() -> History {
        // Three mutually concurrent heavy-ish writes, then interleaved
        // stale reads whose optimal placements conflict: the greedy
        // witness orders overshoot while no single read's separation is
        // forced high.
        HistoryBuilder::new()
            .write(1, 0, 100)
            .write(2, 2, 102)
            .write(3, 4, 104)
            .write(4, 110, 120)
            .read(1, 122, 130)
            .read(3, 132, 140)
            .read(2, 142, 150)
            .build()
            .unwrap()
    }

    #[test]
    fn tied_raw_finish_times_never_panic() {
        // A write and its dictated read tying on *raw* finish time (and a
        // reader tying with an unrelated write) exercise the explicit
        // writes-before-reads tie-break: after endpoint repair and
        // normalisation the upper bound must come out without tripping
        // the wp < rp debug assertion.
        let mut raw = kav_history::RawHistory::new();
        raw.write(kav_history::Value(1), kav_history::Time(0), kav_history::Time(10));
        raw.read(kav_history::Value(1), kav_history::Time(5), kav_history::Time(10));
        raw.write(kav_history::Value(2), kav_history::Time(3), kav_history::Time(5));
        raw.make_endpoints_distinct();
        let h = raw.into_history().unwrap();
        let bound = staleness_upper_bound(&h);
        assert!(bound >= 1);
        assert!(matches!(smallest_k(&h, None), Staleness::Exact(_)));

        // Same shape with the read declared *before* its write, so the
        // repair ranks the read's endpoints first at each tie.
        let mut raw = kav_history::RawHistory::new();
        raw.read(kav_history::Value(1), kav_history::Time(5), kav_history::Time(10));
        raw.write(kav_history::Value(1), kav_history::Time(0), kav_history::Time(10));
        raw.make_endpoints_distinct();
        let h = raw.into_history().unwrap();
        assert_eq!(staleness_upper_bound(&h), 1);
        assert_eq!(smallest_k(&h, None), Staleness::Exact(1));
    }

    #[test]
    fn finish_order_places_writes_before_dictated_reads() {
        for seed in 0..10u64 {
            let h = kav_workloads::random_k_atomic(kav_workloads::RandomHistoryConfig {
                ops: 40,
                k: 2,
                seed,
                ..Default::default()
            });
            let order = finish_order_writes_first(&h);
            let mut position = vec![0usize; h.len()];
            for (i, id) in order.iter().enumerate() {
                position[id.index()] = i;
            }
            for r in h.reads() {
                let w = h.dictating_write(*r).unwrap();
                assert!(position[w.index()] < position[r.index()]);
            }
        }
    }

    #[test]
    fn staleness_accessors_and_display() {
        assert_eq!(Staleness::Exact(2).exact(), Some(2));
        assert_eq!(Staleness::Exact(2).lower_bound(), 2);
        assert_eq!(Staleness::Exact(2).to_string(), "k = 2");
        assert_eq!(Staleness::AtLeast(3).to_string(), "k >= 3");
    }
}
