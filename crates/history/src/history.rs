//! Validated, indexed histories — the input type of every verifier.

use crate::normalize::{normalize, Normalized};
use crate::raw::Checked;
use crate::{OpId, Operation, RawHistory, ValidationError};

/// A validated history of operations on one register.
///
/// Construction (via [`RawHistory::into_history`] or [`History::from_raw`])
/// enforces every §II model assumption:
///
/// * proper intervals with pairwise distinct endpoints,
/// * distinct write values (so each read has a unique *dictating write*),
/// * no read without a dictating write, none preceding its dictating write,
/// * positive weights, and
/// * the write-shortening normalisation — every write finishes before the
///   earliest finish of its dictated reads (§II-C, enforced by re-timing).
///
/// Timestamps are re-ranked onto the dense grid `0..2n`; only their order is
/// meaningful. All indexes the verifiers need (dictating-write maps,
/// start/finish orders, concurrency statistics) are precomputed here.
/// Validation and indexing share one pass: the orders and the value lookups
/// that [`RawHistory::validate`]'s checks make are the ones the indexes are
/// built from, and construction fails exactly when that report is not clean.
///
/// # Examples
///
/// ```
/// use kav_history::{RawHistory, Value, Time};
///
/// let mut raw = RawHistory::new();
/// raw.write(Value(1), Time(0), Time(10));
/// raw.write(Value(2), Time(5), Time(15));
/// raw.read(Value(1), Time(20), Time(30));
/// let h = raw.into_history()?;
/// assert_eq!(h.num_writes(), 2);
/// assert_eq!(h.num_reads(), 1);
/// assert_eq!(h.max_concurrent_writes(), 2);
/// # Ok::<(), kav_history::ValidationError>(())
/// ```
#[derive(Clone, Debug)]
pub struct History {
    ops: Vec<Operation>,
    sorted_by_start: Vec<OpId>,
    sorted_by_finish: Vec<OpId>,
    /// Writes sorted by finish time (the order LBT's `W` list uses).
    writes_by_finish: Vec<OpId>,
    reads: Vec<OpId>,
    /// For each read, its dictating write; `None` for writes.
    dictating: Vec<Option<OpId>>,
    /// Every write's dictated reads sorted by start, one list after another:
    /// op `i`'s list is `dictated[dictated_from[i]..dictated_from[i + 1]]`,
    /// empty for reads.
    dictated: Vec<OpId>,
    dictated_from: Vec<usize>,
    max_concurrent_writes: usize,
}

impl History {
    /// Validates `raw`, applies the §II-C normalisation, and builds indexes.
    ///
    /// # Errors
    ///
    /// Returns a [`ValidationError`] listing every detected anomaly when the
    /// raw history violates the model assumptions.
    pub fn from_raw(raw: RawHistory) -> Result<Self, ValidationError> {
        let Checked { report, by_start, by_finish, dictating } = raw.check();
        report.into_result()?;

        let Normalized { ops, sorted_by_finish, max_concurrent_writes } =
            normalize(raw.ops, &dictating, &by_start, &by_finish);
        // Shortening moves only finishes, so the start order stands.
        let sorted_by_start = by_start;
        let n = ops.len();

        let writes_by_finish: Vec<OpId> = sorted_by_finish
            .iter()
            .copied()
            .filter(|id| ops[id.index()].is_write())
            .collect();
        let reads: Vec<OpId> = (0..n).map(OpId).filter(|id| ops[id.index()].is_read()).collect();

        // Count each write's reads, then hand every read the next slot of
        // its write's list in start order, so each list comes out sorted.
        let mut dictated_from = vec![0; n + 1];
        for w in dictating.iter().flatten() {
            dictated_from[w.index() + 1] += 1;
        }
        for i in 1..=n {
            dictated_from[i] += dictated_from[i - 1];
        }
        let mut next = dictated_from.clone();
        let mut dictated = vec![OpId(0); reads.len()];
        for &id in &sorted_by_start {
            if let Some(w) = dictating[id.index()] {
                dictated[next[w.index()]] = id;
                next[w.index()] += 1;
            }
        }

        Ok(History {
            ops,
            sorted_by_start,
            sorted_by_finish,
            writes_by_finish,
            reads,
            dictating,
            dictated,
            dictated_from,
            max_concurrent_writes,
        })
    }

    /// Number of operations `n`.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if the history has no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of writes.
    pub fn num_writes(&self) -> usize {
        self.writes_by_finish.len()
    }

    /// Number of reads.
    pub fn num_reads(&self) -> usize {
        self.reads.len()
    }

    /// The operation with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this history.
    #[inline]
    pub fn op(&self, id: OpId) -> &Operation {
        &self.ops[id.index()]
    }

    /// All operations, indexed by [`OpId`].
    pub fn ops(&self) -> &[Operation] {
        &self.ops
    }

    /// Iterates over all operation ids `0..n`.
    pub fn ids(&self) -> impl Iterator<Item = OpId> + '_ {
        (0..self.ops.len()).map(OpId)
    }

    /// Operation ids sorted by start time.
    pub fn sorted_by_start(&self) -> &[OpId] {
        &self.sorted_by_start
    }

    /// Operation ids sorted by finish time.
    pub fn sorted_by_finish(&self) -> &[OpId] {
        &self.sorted_by_finish
    }

    /// Write ids sorted by finish time — the order of LBT's `W` list.
    pub fn writes_by_finish(&self) -> &[OpId] {
        &self.writes_by_finish
    }

    /// Read ids in id order.
    pub fn reads(&self) -> &[OpId] {
        &self.reads
    }

    /// The dictating write of `read`, or `None` if `read` is a write.
    ///
    /// Every read in a validated history has a dictating write.
    #[inline]
    pub fn dictating_write(&self, read: OpId) -> Option<OpId> {
        self.dictating[read.index()]
    }

    /// The dictated reads of `write`, sorted by start time. Empty for reads.
    #[inline]
    pub fn dictated_reads(&self, write: OpId) -> &[OpId] {
        &self.dictated[self.dictated_from[write.index()]..self.dictated_from[write.index() + 1]]
    }

    /// The paper's "precedes" relation on operations of this history.
    #[inline]
    pub fn precedes(&self, a: OpId, b: OpId) -> bool {
        self.op(a).precedes(self.op(b))
    }

    /// True iff neither operation precedes the other.
    #[inline]
    pub fn concurrent(&self, a: OpId, b: OpId) -> bool {
        self.op(a).overlaps(self.op(b))
    }

    /// The maximum number of writes concurrently active at any instant — the
    /// parameter `c` in LBT's `O(n log n + c·n)` bound (Theorem 3.2).
    pub fn max_concurrent_writes(&self) -> usize {
        self.max_concurrent_writes
    }

    /// Exports the (normalised) operations back into a [`RawHistory`],
    /// e.g. for serialisation.
    pub fn to_raw(&self) -> RawHistory {
        RawHistory { ops: self.ops.clone() }
    }

    /// Sum of the weights of all writes (the trivial upper bound for
    /// smallest-k searches on weighted histories).
    pub fn total_write_weight(&self) -> u64 {
        self.writes_by_finish
            .iter()
            .map(|id| u64::from(self.op(*id).weight.as_u32()))
            .sum()
    }
}

impl TryFrom<RawHistory> for History {
    type Error = ValidationError;
    fn try_from(raw: RawHistory) -> Result<Self, Self::Error> {
        History::from_raw(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Time, Value, Weight};

    fn sample() -> History {
        let mut raw = RawHistory::new();
        raw.write(Value(1), Time(0), Time(10));
        raw.write(Value(2), Time(5), Time(15));
        raw.write(Value(3), Time(40), Time(50));
        raw.read(Value(1), Time(20), Time(30));
        raw.read(Value(2), Time(22), Time(35));
        raw.into_history().unwrap()
    }

    #[test]
    fn indexes_are_consistent() {
        let h = sample();
        assert_eq!(h.len(), 5);
        assert_eq!(h.num_writes(), 3);
        assert_eq!(h.num_reads(), 2);
        assert!(!h.is_empty());

        // sorted_by_start is sorted.
        let starts: Vec<Time> = h.sorted_by_start().iter().map(|id| h.op(*id).start).collect();
        assert!(starts.windows(2).all(|w| w[0] < w[1]));
        let finishes: Vec<Time> =
            h.sorted_by_finish().iter().map(|id| h.op(*id).finish).collect();
        assert!(finishes.windows(2).all(|w| w[0] < w[1]));

        // writes_by_finish only contains writes, in finish order.
        assert!(h.writes_by_finish().iter().all(|id| h.op(*id).is_write()));
        let wf: Vec<Time> = h.writes_by_finish().iter().map(|id| h.op(*id).finish).collect();
        assert!(wf.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn dictating_maps_are_mutually_inverse() {
        let h = sample();
        for read in h.reads() {
            let w = h.dictating_write(*read).expect("validated read has a dictating write");
            assert!(h.dictated_reads(w).contains(read));
            assert_eq!(h.op(w).value, h.op(*read).value);
        }
        for id in h.ids() {
            if h.op(id).is_write() {
                assert!(h.dictating_write(id).is_none());
                for r in h.dictated_reads(id) {
                    assert_eq!(h.dictating_write(*r), Some(id));
                }
            }
        }
    }

    #[test]
    fn precedence_and_concurrency() {
        let h = sample();
        // w1=[0,10], w2=[5,15] are concurrent; w3 starts at 40 after both.
        let w1 = OpId(0);
        let w2 = OpId(1);
        let w3 = OpId(2);
        assert!(h.concurrent(w1, w2));
        assert!(h.precedes(w1, w3));
        assert!(h.precedes(w2, w3));
        assert!(!h.precedes(w3, w1));
        assert_eq!(h.max_concurrent_writes(), 2);
    }

    #[test]
    fn normalisation_shortens_writes_under_reads() {
        let mut raw = RawHistory::new();
        raw.write(Value(1), Time(0), Time(100)); // spans past its read's finish
        raw.read(Value(1), Time(10), Time(20));
        let h = raw.into_history().unwrap();
        let w = OpId(0);
        let r = OpId(1);
        assert!(h.op(w).finish < h.op(r).finish);
        assert!(h.op(w).start < h.op(w).finish);
    }

    #[test]
    fn rejects_invalid_histories() {
        let mut raw = RawHistory::new();
        raw.read(Value(1), Time(0), Time(2));
        assert!(raw.into_history().is_err());
    }

    #[test]
    fn total_write_weight_sums_write_weights_only() {
        let mut raw = RawHistory::new();
        raw.push(Operation::weighted_write(Value(1), Time(0), Time(1), Weight(5)));
        raw.push(Operation::weighted_write(Value(2), Time(2), Time(3), Weight(7)));
        raw.read(Value(1), Time(4), Time(5));
        let h = raw.into_history().unwrap();
        assert_eq!(h.total_write_weight(), 12);
    }

    #[test]
    fn empty_history_is_valid() {
        let h = RawHistory::new().into_history().unwrap();
        assert!(h.is_empty());
        assert_eq!(h.max_concurrent_writes(), 0);
        assert_eq!(h.len(), 0);
    }

    #[test]
    fn to_raw_roundtrips_through_validation() {
        let h = sample();
        let again = h.to_raw().into_history().unwrap();
        assert_eq!(again.len(), h.len());
        // Normalised histories are fixed points of normalisation.
        for (a, b) in h.ops().iter().zip(again.ops()) {
            assert_eq!(a, b);
        }
    }
}
