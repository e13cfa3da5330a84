//! Unvalidated histories: what you parse, record, or generate.
//!
//! A [`RawHistory`] is just a bag of operations. It can be serialised,
//! mutated and inspected freely; turning it into a [`crate::History`]
//! validates the §II model assumptions and freezes the indexes the
//! verification algorithms need.

use crate::{Anomaly, History, OpId, Operation, Time, ValidationError, ValidationReport, Value};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::{Entry, HashMap};

/// An unvalidated collection of operations on a single register.
///
/// # Examples
///
/// ```
/// use kav_history::{RawHistory, Value, Time};
///
/// let mut raw = RawHistory::new();
/// raw.write(Value(1), Time(0), Time(3));
/// raw.read(Value(1), Time(5), Time(8));
/// let history = raw.into_history()?;
/// assert_eq!(history.len(), 2);
/// # Ok::<(), kav_history::ValidationError>(())
/// ```
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RawHistory {
    /// The operations, in no particular order.
    pub ops: Vec<Operation>,
}

impl RawHistory {
    /// Creates an empty raw history.
    pub fn new() -> Self {
        RawHistory::default()
    }

    /// Creates a raw history from any iterable of operations.
    pub fn from_ops<I: IntoIterator<Item = Operation>>(ops: I) -> Self {
        RawHistory { ops: ops.into_iter().collect() }
    }

    /// Appends an operation.
    pub fn push(&mut self, op: Operation) -> &mut Self {
        self.ops.push(op);
        self
    }

    /// Appends a unit-weight write of `value` over `[start, finish]`.
    pub fn write(&mut self, value: Value, start: Time, finish: Time) -> &mut Self {
        self.push(Operation::write(value, start, finish))
    }

    /// Appends a unit-weight read of `value` over `[start, finish]`.
    pub fn read(&mut self, value: Value, start: Time, finish: Time) -> &mut Self {
        self.push(Operation::read(value, start, finish))
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if the history contains no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Iterates over the operations.
    pub fn iter(&self) -> std::slice::Iter<'_, Operation> {
        self.ops.iter()
    }

    /// Checks the §II model assumptions and reports every violation found.
    ///
    /// The checks, in order: proper intervals, positive weights, pairwise
    /// distinct endpoints, distinct write values, a dictating write for every
    /// read, and no read preceding its dictating write. These are exactly the
    /// checks [`RawHistory::into_history`] runs, in the same pass that builds
    /// its indexes: it refuses a history iff this report is not clean, and
    /// its error lists these anomalies.
    pub fn validate(&self) -> ValidationReport {
        self.check().report
    }

    /// Runs [`RawHistory::validate`]'s checks and keeps what they sorted and
    /// looked up on the way, for [`History::from_raw`] to index from.
    pub(crate) fn check(&self) -> Checked {
        let ops = &self.ops;
        let mut anomalies = Vec::new();

        let mut writes = 0;
        for (i, op) in ops.iter().enumerate() {
            if op.finish <= op.start {
                anomalies.push(Anomaly::EmptyInterval { op: OpId(i) });
            }
            if op.weight.as_u32() == 0 {
                anomalies.push(Anomaly::ZeroWeight { op: OpId(i) });
            }
            writes += usize::from(op.is_write());
        }

        // Distinct endpoints across all 2n endpoints. The starts and the
        // finishes are sorted apart and merged in `(time, id)` order, the
        // order one sort of all 2n endpoints gives, so equal timestamps land
        // side by side.
        let mut by_start: Vec<OpId> = (0..ops.len()).map(OpId).collect();
        by_start.sort_unstable_by_key(|&id| (ops[id.index()].start, id));
        let mut by_finish: Vec<OpId> = (0..ops.len()).map(OpId).collect();
        by_finish.sort_unstable_by_key(|&id| (ops[id.index()].finish, id));
        let mut starts = by_start.iter().map(|&id| (ops[id.index()].start, id)).peekable();
        let mut finishes = by_finish.iter().map(|&id| (ops[id.index()].finish, id)).peekable();
        let mut previous: Option<(Time, OpId)> = None;
        while let Some(endpoint) = match (starts.peek(), finishes.peek()) {
            (Some(start), Some(finish)) if finish < start => finishes.next(),
            (Some(_), _) => starts.next(),
            (None, _) => finishes.next(),
        } {
            if let Some((time, first)) = previous.filter(|&(time, _)| time == endpoint.0) {
                anomalies.push(Anomaly::DuplicateEndpoint { time, first, second: endpoint.1 });
            }
            previous = Some(endpoint);
        }

        // Distinct write values; remember the first write of each value.
        // Keyed by untrusted input values and unbounded (one entry per
        // write in an arbitrary capture), so this stays on the standard
        // DoS-resistant hasher — see `crate::fxhash`'s usage rule.
        let mut write_of: HashMap<Value, OpId> = HashMap::with_capacity(writes);
        for (i, op) in ops.iter().enumerate() {
            if op.is_write() {
                match write_of.entry(op.value) {
                    Entry::Occupied(first) => anomalies.push(Anomaly::DuplicateWriteValue {
                        value: op.value,
                        first: *first.get(),
                        second: OpId(i),
                    }),
                    Entry::Vacant(slot) => {
                        slot.insert(OpId(i));
                    }
                }
            }
        }

        // Every read has a dictating write it does not precede.
        let mut dictating = Vec::with_capacity(ops.len());
        for (i, op) in ops.iter().enumerate() {
            let write = if op.is_read() { write_of.get(&op.value).copied() } else { None };
            match write {
                None if op.is_read() => anomalies.push(Anomaly::MissingDictatingWrite {
                    read: OpId(i),
                    value: op.value,
                }),
                Some(w) if op.precedes(&ops[w.index()]) => {
                    anomalies.push(Anomaly::ReadPrecedesDictatingWrite { read: OpId(i), write: w });
                }
                _ => {}
            }
            dictating.push(write);
        }

        Checked { report: ValidationReport::new(anomalies), by_start, by_finish, dictating }
    }

    /// Re-ranks all endpoints so that every one of the `2n` timestamps is
    /// distinct, breaking ties *toward concurrency*.
    ///
    /// At a shared instant, starts are ordered before finishes (so two
    /// operations touching at a point stay concurrent rather than acquiring
    /// an order), and ties within the same phase are broken by operation
    /// index. Strict precedence between distinct timestamps is preserved
    /// exactly, so on already-distinct histories this is a no-op up to
    /// relabelling. A zero-length interval (`start == finish`) is repaired
    /// into a proper one as a side effect.
    ///
    /// Use this on histories imported from coarse clocks before calling
    /// [`RawHistory::into_history`].
    pub fn make_endpoints_distinct(&mut self) -> &mut Self {
        #[derive(PartialEq, Eq, PartialOrd, Ord)]
        struct Key {
            time: Time,
            /// 0 = start, 1 = finish: keeps touching operations concurrent.
            phase: u8,
            op: usize,
        }
        let mut keys: Vec<Key> = Vec::with_capacity(2 * self.ops.len());
        for (i, op) in self.ops.iter().enumerate() {
            keys.push(Key { time: op.start, phase: 0, op: i });
            keys.push(Key { time: op.finish, phase: 1, op: i });
        }
        keys.sort_unstable();
        for (rank, key) in keys.iter().enumerate() {
            let op = &mut self.ops[key.op];
            if key.phase == 0 {
                op.start = Time(rank as u64);
            } else {
                op.finish = Time(rank as u64);
            }
        }
        self
    }

    /// Validates the history and builds the indexed, normalised
    /// [`crate::History`] the verifiers consume.
    ///
    /// # Errors
    ///
    /// Returns a [`ValidationError`] listing every anomaly if any §II model
    /// assumption is violated; see [`RawHistory::validate`].
    pub fn into_history(self) -> Result<History, ValidationError> {
        History::from_raw(self)
    }
}

/// What [`RawHistory::check`] found and kept.
pub(crate) struct Checked {
    /// Every anomaly, in [`RawHistory::validate`]'s order.
    pub(crate) report: ValidationReport,
    /// The op ids in `(start, id)` order.
    pub(crate) by_start: Vec<OpId>,
    /// The op ids in `(finish, id)` order.
    pub(crate) by_finish: Vec<OpId>,
    /// For each read, the first write of its value; `None` for writes.
    pub(crate) dictating: Vec<Option<OpId>>,
}

impl FromIterator<Operation> for RawHistory {
    fn from_iter<I: IntoIterator<Item = Operation>>(iter: I) -> Self {
        RawHistory::from_ops(iter)
    }
}

impl Extend<Operation> for RawHistory {
    fn extend<I: IntoIterator<Item = Operation>>(&mut self, iter: I) {
        self.ops.extend(iter);
    }
}

impl IntoIterator for RawHistory {
    type Item = Operation;
    type IntoIter = std::vec::IntoIter<Operation>;
    fn into_iter(self) -> Self::IntoIter {
        self.ops.into_iter()
    }
}

impl<'a> IntoIterator for &'a RawHistory {
    type Item = &'a Operation;
    type IntoIter = std::slice::Iter<'a, Operation>;
    fn into_iter(self) -> Self::IntoIter {
        self.ops.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OpId;

    #[test]
    fn clean_history_validates() {
        let mut raw = RawHistory::new();
        raw.write(Value(1), Time(0), Time(2)).read(Value(1), Time(3), Time(5));
        assert!(raw.validate().is_clean());
    }

    #[test]
    fn detects_missing_dictating_write() {
        let mut raw = RawHistory::new();
        raw.read(Value(1), Time(0), Time(2));
        let report = raw.validate();
        assert_eq!(
            report.anomalies(),
            &[Anomaly::MissingDictatingWrite { read: OpId(0), value: Value(1) }]
        );
    }

    #[test]
    fn detects_read_preceding_its_write() {
        let mut raw = RawHistory::new();
        raw.read(Value(1), Time(0), Time(2)).write(Value(1), Time(4), Time(6));
        let report = raw.validate();
        assert_eq!(
            report.anomalies(),
            &[Anomaly::ReadPrecedesDictatingWrite { read: OpId(0), write: OpId(1) }]
        );
    }

    #[test]
    fn detects_duplicate_write_values_and_endpoints() {
        let mut raw = RawHistory::new();
        raw.write(Value(1), Time(0), Time(2)).write(Value(1), Time(2), Time(5));
        let report = raw.validate();
        assert!(report
            .anomalies()
            .iter()
            .any(|a| matches!(a, Anomaly::DuplicateWriteValue { .. })));
        assert!(report
            .anomalies()
            .iter()
            .any(|a| matches!(a, Anomaly::DuplicateEndpoint { time: Time(2), .. })));
    }

    #[test]
    fn detects_empty_interval() {
        let mut raw = RawHistory::new();
        raw.write(Value(1), Time(5), Time(5));
        assert!(raw
            .validate()
            .anomalies()
            .iter()
            .any(|a| matches!(a, Anomaly::EmptyInterval { op: OpId(0) })));
    }

    #[test]
    fn make_endpoints_distinct_keeps_touching_ops_concurrent() {
        let mut raw = RawHistory::new();
        // w finishes exactly when r starts: concurrent under the strict
        // "precedes" relation, and must stay concurrent after repair.
        raw.write(Value(1), Time(0), Time(10)).read(Value(1), Time(10), Time(20));
        raw.make_endpoints_distinct();
        let w = raw.ops[0];
        let r = raw.ops[1];
        assert!(w.overlaps(&r), "tie must be broken toward concurrency");
        assert!(raw.validate().is_clean());
    }

    #[test]
    fn make_endpoints_distinct_preserves_strict_precedence() {
        let mut raw = RawHistory::new();
        raw.write(Value(1), Time(0), Time(10)).read(Value(1), Time(11), Time(20));
        raw.make_endpoints_distinct();
        assert!(raw.ops[0].precedes(&raw.ops[1]));
    }

    #[test]
    fn collect_and_extend() {
        let ops = [Operation::write(Value(1), Time(0), Time(1)),
            Operation::read(Value(1), Time(2), Time(3))];
        let mut raw: RawHistory = ops.iter().copied().collect();
        raw.extend(std::iter::once(Operation::write(Value(2), Time(4), Time(5))));
        assert_eq!(raw.len(), 3);
        assert_eq!((&raw).into_iter().count(), 3);
    }
}
