//! Write shortening and dense re-ranking (§II-C, last assumption).
//!
//! The paper assumes WLOG that a write finishes before any of its dictated
//! reads *finishes*: a write's commit point cannot lie after a dictated read
//! has already returned its value, so the tail of the write interval past
//! that point is inert. [`normalize`] enforces the assumption and re-ranks
//! all `2n` endpoints onto the dense grid `0..2n` in one sweep. It merges
//! the start order and the finish order that validation already sorted, and
//! hands each endpoint the next rank. When a read's finish comes up while its
//! dictating write is still open, the write's finish is *parked*: it takes
//! the rank just below that read's finish, and its own place in the finish
//! order is skipped later. The same sweep emits the new finish order and
//! counts the writes open at once.
//!
//! Correctness of the repair relies on two facts:
//!
//! * the parked finish stays above the write's start, because an anomaly-free
//!   read never finishes before its dictating write starts; and
//! * no two parked finishes collide, because the minimum-finish read of a
//!   write is dictated by that write alone, so distinct writes park below
//!   distinct read finishes.

use crate::{OpId, Operation, Time};

/// The normalised operations and the indexes [`normalize`]'s sweep yields.
pub(crate) struct Normalized {
    /// The operations, shortened and re-ranked onto `0..2n`.
    pub(crate) ops: Vec<Operation>,
    /// The op ids in order of their new finishes.
    pub(crate) sorted_by_finish: Vec<OpId>,
    /// The most writes open at any instant.
    pub(crate) max_concurrent_writes: usize,
}

/// Applies write shortening and re-ranks all endpoints onto `0..2n`.
///
/// `dictating[i]` must give, for each read `i`, its dictating write (`None`
/// for writes), and `by_start` and `by_finish` the op ids in start and in
/// finish order. The input must already be anomaly-free with pairwise
/// distinct endpoints; [`crate::RawHistory::check`] guarantees all of this
/// before [`crate::History`] calls this. Shortening moves only finishes, so
/// `by_start` stays the start order of the result.
pub(crate) fn normalize(
    mut ops: Vec<Operation>,
    dictating: &[Option<OpId>],
    by_start: &[OpId],
    by_finish: &[OpId],
) -> Normalized {
    let n = ops.len();
    let mut finished = vec![false; n];
    let mut sorted_by_finish = Vec::with_capacity(n);
    let mut rank = 0u64;
    let mut next_rank = || {
        rank += 1;
        Time(rank - 1)
    };
    let (mut open_writes, mut max_concurrent_writes) = (0usize, 0usize);
    let mut starts = by_start.iter().copied().peekable();

    // A rank overwrites an endpoint only once the sweep has passed it, so
    // every time compared below is still the original one.
    for &f in by_finish {
        if finished[f.index()] {
            continue; // parked below an earlier read's finish
        }
        let finish = ops[f.index()].finish;
        while let Some(s) = starts.next_if(|s| ops[s.index()].start < finish) {
            let op = &mut ops[s.index()];
            op.start = next_rank();
            if op.is_write() {
                open_writes += 1;
                max_concurrent_writes = max_concurrent_writes.max(open_writes);
            }
        }
        // Park a write still open at its earliest dictated read's finish.
        let parked = dictating[f.index()].filter(|w| !finished[w.index()]);
        for id in parked.into_iter().chain([f]) {
            let op = &mut ops[id.index()];
            op.finish = next_rank();
            open_writes -= usize::from(op.is_write());
            finished[id.index()] = true;
            sorted_by_finish.push(id);
        }
    }

    debug_assert!(starts.next().is_none());
    debug_assert!(ops.iter().all(|op| op.start < op.finish));
    Normalized { ops, sorted_by_finish, max_concurrent_writes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RawHistory, Time, Value};

    /// The normalised ops of a clean `raw`, from the orders and dictating
    /// writes its check keeps.
    fn normalized(raw: &RawHistory) -> Vec<Operation> {
        let checked = raw.check();
        assert!(checked.report.is_clean(), "{:?}", checked.report);
        normalize(raw.ops.clone(), &checked.dictating, &checked.by_start, &checked.by_finish).ops
    }

    #[test]
    fn already_normalized_history_keeps_order() {
        let mut raw = RawHistory::new();
        raw.write(Value(1), Time(0), Time(10)).read(Value(1), Time(20), Time(30));
        let ops = normalized(&raw);
        assert!(ops[0].start < ops[0].finish);
        assert!(ops[0].finish < ops[1].start);
        assert!(ops[1].start < ops[1].finish);
        // Dense grid 0..4.
        let mut all: Vec<u64> = ops
            .iter()
            .flat_map(|o| [o.start.as_u64(), o.finish.as_u64()])
            .collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3]);
    }

    #[test]
    fn long_write_is_shortened_below_first_dictated_read_finish() {
        let mut raw = RawHistory::new();
        // Write spans the whole history; its dictated read finishes at 15.
        raw.write(Value(1), Time(0), Time(100)).read(Value(1), Time(5), Time(15));
        let ops = normalized(&raw);
        let (w, r) = (ops[0], ops[1]);
        assert!(w.finish < r.finish, "write must finish before its dictated read finishes");
        assert!(w.start < w.finish, "interval must stay proper");
        assert!(r.start < w.finish, "shortening must not push the write before the read start");
    }

    #[test]
    fn shortening_lands_immediately_below_the_read_finish() {
        let mut raw = RawHistory::new();
        raw.write(Value(1), Time(0), Time(100)) // shortened below t=15
            .read(Value(1), Time(5), Time(15))
            .write(Value(2), Time(11), Time(13)); // unrelated write inside
        let ops = normalized(&raw);
        // Order of endpoints: w1.s=0, r.s=5, w2.s=11, w2.f=13, [w1.f], r.f=15
        assert_eq!(ops[0].start, Time(0));
        assert_eq!(ops[1].start, Time(1));
        assert_eq!(ops[2].start, Time(2));
        assert_eq!(ops[2].finish, Time(3));
        assert_eq!(ops[0].finish, Time(4), "shortened finish parks just below the read finish");
        assert_eq!(ops[1].finish, Time(5));
    }

    #[test]
    fn two_writes_shorten_below_distinct_reads_without_collision() {
        let mut raw = RawHistory::new();
        raw.write(Value(1), Time(0), Time(50))
            .read(Value(1), Time(2), Time(10))
            .write(Value(2), Time(1), Time(60))
            .read(Value(2), Time(3), Time(12));
        let ops = normalized(&raw);
        let mut all: Vec<u64> = ops
            .iter()
            .flat_map(|o| [o.start.as_u64(), o.finish.as_u64()])
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 8, "all endpoints stay distinct after shortening");
        assert!(ops[0].finish < ops[1].finish);
        assert!(ops[2].finish < ops[3].finish);
    }
}
