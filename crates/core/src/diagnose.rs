//! Failure diagnosis: *why* is a history not k-atomic?
//!
//! Verifiers answer yes/no; an operator debugging a storage deployment
//! wants the culprit. [`diagnose`] combines the workbench's evidence into
//! one report: the measured staleness bound, the Gibbons–Korach zone
//! violation or the heavy observed write (for atomicity failures), and the
//! FZF chunk that refused a 2-atomic order (naming the involved writes),
//! which localises the violation to a window of the history.

use crate::{smallest_k, Fzf, GkAnalysis, GkOneAv, Staleness, Verifier};
use kav_history::{chunk_set, clusters, zones, History, Value, Weight};
use std::fmt;

/// Evidence for a consistency violation (or a clean bill of health).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnosis {
    /// The smallest k for which the history verifies (possibly a lower
    /// bound if the search budget ran out).
    pub staleness: Staleness,
    /// For non-linearizable histories: which zone condition failed, in
    /// terms of the values written by the clusters involved, or else which
    /// heavy write a read observes.
    pub atomicity_violation: Option<AtomicityViolation>,
    /// For non-2-atomic histories: the writes of the first chunk FZF could
    /// not order.
    pub failing_chunk_writes: Option<Vec<Value>>,
}

/// Why a history is not 1-atomic under the weighted rule: the GK
/// zone-condition failure, or a read of a write whose weight exceeds 1.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AtomicityViolation {
    /// Two forward zones overlap: the two clusters' reads cannot both be
    /// fresh (condition 1).
    ForwardZonesOverlap {
        /// Value written by the first cluster.
        first: Value,
        /// Value written by the overlapping cluster.
        second: Value,
    },
    /// A backward cluster is wedged inside a forward zone: its write is
    /// forced between the forward cluster's write and read (condition 2).
    BackwardZoneInsideForward {
        /// Value written by the wedged backward cluster.
        backward: Value,
        /// Value written by the surrounding forward cluster.
        forward: Value,
    },
    /// The zone test passes, but a read observes a write of weight above 1.
    /// A read's separation starts at its dictating write's weight (§V), so
    /// no total order keeps it within 1.
    HeavyWrite {
        /// Value written by the heavy write.
        value: Value,
        /// Its weight.
        weight: Weight,
    },
}

impl fmt::Display for Diagnosis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "staleness: {}", self.staleness)?;
        match &self.atomicity_violation {
            None => writeln!(f, "atomicity: ok")?,
            Some(AtomicityViolation::ForwardZonesOverlap { first, second }) => writeln!(
                f,
                "atomicity: forward zones of writes {first} and {second} overlap"
            )?,
            Some(AtomicityViolation::BackwardZoneInsideForward { backward, forward }) => writeln!(
                f,
                "atomicity: write {backward} is wedged inside the zone of write {forward}"
            )?,
            Some(AtomicityViolation::HeavyWrite { value, weight }) => {
                writeln!(f, "atomicity: write {value} has weight {weight} and is read")?
            }
        }
        match &self.failing_chunk_writes {
            None => write!(f, "2-atomicity: ok"),
            Some(values) => {
                let names: Vec<String> = values.iter().map(Value::to_string).collect();
                write!(f, "2-atomicity: no viable order for chunk over writes {{{}}}", names.join(", "))
            }
        }
    }
}

/// Diagnoses `history`, spending at most `node_budget` search nodes on the
/// exact staleness bound (pass `None` for unbounded).
///
/// # Examples
///
/// ```
/// use kav_core::{diagnose, Staleness};
/// use kav_history::HistoryBuilder;
///
/// let h = HistoryBuilder::new()
///     .write(1, 0, 10)
///     .write(2, 12, 20)
///     .read(1, 22, 30)
///     .build()?;
/// let d = diagnose(&h, None);
/// assert_eq!(d.staleness, Staleness::Exact(2));
/// assert!(d.atomicity_violation.is_some());
/// assert!(d.failing_chunk_writes.is_none());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn diagnose(history: &History, node_budget: Option<u64>) -> Diagnosis {
    let staleness = smallest_k(history, node_budget);

    let atomicity_violation = match GkOneAv.analyze(history) {
        GkAnalysis::Atomic { .. } => heavy_write(history),
        GkAnalysis::ForwardZonesOverlap { first, second } => {
            let cs = clusters(history);
            Some(AtomicityViolation::ForwardZonesOverlap {
                first: history.op(cs[first.index()].write).value,
                second: history.op(cs[second.index()].write).value,
            })
        }
        GkAnalysis::BackwardZoneInsideForward { backward, forward } => {
            let cs = clusters(history);
            Some(AtomicityViolation::BackwardZoneInsideForward {
                backward: history.op(cs[backward.index()].write).value,
                forward: history.op(cs[forward.index()].write).value,
            })
        }
    };

    let failing_chunk_writes = if Fzf.verify(history).is_k_atomic() {
        None
    } else {
        // Re-run the chunk decomposition and identify the first chunk whose
        // projection is not 2-atomic (FZF's NO came from some chunk).
        let cs = clusters(history);
        let zs = zones(history, &cs);
        let chunked = chunk_set(&zs);
        chunked.chunks.iter().find_map(|chunk| {
            let ops: Vec<_> = chunk
                .forward
                .iter()
                .chain(chunk.backward.iter())
                .flat_map(|c| cs[c.index()].ops())
                .collect();
            let raw: kav_history::RawHistory =
                ops.iter().map(|id| *history.op(*id)).collect();
            let sub = raw.into_history().expect("projection of a valid history");
            if Fzf.verify(&sub).is_k_atomic() {
                None
            } else {
                Some(
                    chunk
                        .forward
                        .iter()
                        .chain(chunk.backward.iter())
                        .map(|c| history.op(cs[c.index()].write).value)
                        .collect(),
                )
            }
        })
    };

    Diagnosis { staleness, atomicity_violation, failing_chunk_writes }
}

/// The dictating write of the first read, in finish order, that observes a
/// write of weight above 1. With the zone test passing, such a read is the
/// only thing that keeps a weighted history from 1-atomicity.
fn heavy_write(history: &History) -> Option<AtomicityViolation> {
    history.sorted_by_finish().iter().find_map(|&read| {
        let write = history.op(history.dictating_write(read)?);
        (write.weight > Weight::UNIT)
            .then_some(AtomicityViolation::HeavyWrite { value: write.value, weight: write.weight })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kav_history::HistoryBuilder;

    #[test]
    fn clean_history_diagnoses_clean() {
        let h = HistoryBuilder::new().write(1, 0, 10).read(1, 12, 20).build().unwrap();
        let d = diagnose(&h, None);
        assert_eq!(d.staleness, Staleness::Exact(1));
        assert!(d.atomicity_violation.is_none());
        assert!(d.failing_chunk_writes.is_none());
        assert!(d.to_string().contains("atomicity: ok"));
    }

    #[test]
    fn one_stale_read_names_the_overlap() {
        let h = HistoryBuilder::new()
            .write(1, 0, 10)
            .write(2, 12, 20)
            .read(2, 22, 30)
            .read(1, 24, 32)
            .build()
            .unwrap();
        let d = diagnose(&h, None);
        assert_eq!(d.staleness, Staleness::Exact(2));
        assert!(matches!(
            d.atomicity_violation,
            Some(AtomicityViolation::ForwardZonesOverlap { .. })
        ));
        assert!(d.failing_chunk_writes.is_none());
    }

    #[test]
    fn wedged_write_names_the_containment() {
        let h = HistoryBuilder::new()
            .write(1, 0, 10)
            .read(1, 40, 50)
            .write(2, 20, 30)
            .build()
            .unwrap();
        let d = diagnose(&h, None);
        assert!(matches!(
            d.atomicity_violation,
            Some(AtomicityViolation::BackwardZoneInsideForward {
                backward: Value(2),
                forward: Value(1),
            })
        ));
    }

    #[test]
    fn heavy_observed_write_fails_atomicity() {
        let h = HistoryBuilder::new()
            .weighted_write(1, 0, 10, 5)
            .read(1, 12, 20)
            .build()
            .unwrap();
        let d = diagnose(&h, None);
        assert_eq!(d.staleness, Staleness::Exact(5));
        assert_eq!(
            d.atomicity_violation,
            Some(AtomicityViolation::HeavyWrite { value: Value(1), weight: Weight(5) })
        );
        assert!(d.to_string().contains("atomicity: write v1 has weight 5 and is read"));
    }

    #[test]
    fn ladder_names_the_failing_chunk() {
        let h = HistoryBuilder::new()
            .write(1, 0, 10)
            .write(2, 12, 20)
            .write(3, 22, 30)
            .read(1, 32, 40)
            .build()
            .unwrap();
        let d = diagnose(&h, None);
        assert_eq!(d.staleness, Staleness::Exact(3));
        assert!(d.to_string().contains("no viable order"));
        let chunk = d.failing_chunk_writes.expect("FZF must fail some chunk");
        assert!(chunk.contains(&Value(1)), "culprit chunk contains the stale write");
    }
}
