//! The Gibbons–Korach 1-atomicity (linearizability) test.
//!
//! The paper builds on the classic result (§IV, citing Gibbons & Korach):
//! an anomaly-free history with unique write values is 1-atomic iff
//!
//! 1. no two *forward zones* overlap, and
//! 2. no *backward zone* is contained entirely inside a forward zone.
//!
//! This module implements the test in `O(n log n)` and, on YES, constructs a
//! witness: clusters ordered by zone low endpoint, each written as its
//! dictating write followed by its reads in start order. Validity of that
//! order follows from the two conditions (each failure case forces either
//! overlapping forward zones or a backward zone inside a forward zone); the
//! test suite re-validates every witness with [`crate::check_witness`].

use crate::{TotalOrder, Verdict, Verifier};
use kav_history::{clusters, zones, History, Zone, ZoneKind};

/// Verifier for `k = 1` (atomicity/linearizability) via the zone conditions.
///
/// # Examples
///
/// ```
/// use kav_core::{GkOneAv, Verifier};
/// use kav_history::HistoryBuilder;
///
/// let atomic = HistoryBuilder::new()
///     .write(1, 0, 10)
///     .read(1, 12, 20)
///     .write(2, 22, 30)
///     .read(2, 32, 40)
///     .build()?;
/// assert!(GkOneAv.verify(&atomic).is_k_atomic());
///
/// // A read of value 1 issued strictly after value 2 was written is stale.
/// let stale = HistoryBuilder::new()
///     .write(1, 0, 10)
///     .write(2, 12, 20)
///     .read(1, 22, 30)
///     .build()?;
/// assert!(!GkOneAv.verify(&stale).is_k_atomic());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GkOneAv;

impl GkOneAv {
    /// Runs the zone test and reports which condition failed, if any.
    pub fn analyze(&self, history: &History) -> GkAnalysis {
        let cs = clusters(history);
        let zs = zones(history, &cs);

        let mut forward: Vec<&Zone> = zs.iter().filter(|z| z.is_forward()).collect();
        forward.sort_unstable_by_key(|z| z.low());

        // Condition 1: forward zones pairwise disjoint. Sorted by low, it
        // suffices to compare neighbours against the running max high.
        for pair in forward.windows(2) {
            if pair[1].low() <= pair[0].high() {
                return GkAnalysis::ForwardZonesOverlap {
                    first: pair[0].cluster,
                    second: pair[1].cluster,
                };
            }
        }

        // Condition 2: no backward zone strictly inside a forward zone.
        // Forward zones are now disjoint and sorted; binary search by low.
        for z in zs.iter().filter(|z| z.kind() == ZoneKind::Backward) {
            let idx = forward.partition_point(|f| f.low() < z.low());
            if let Some(f) = idx.checked_sub(1).map(|i| forward[i]) {
                if z.high() < f.high() {
                    return GkAnalysis::BackwardZoneInsideForward {
                        backward: z.cluster,
                        forward: f.cluster,
                    };
                }
            }
        }

        // Witness: clusters ordered by zone low endpoint; each cluster
        // contributes its write followed by its reads (already start-sorted).
        let mut order_of_zones: Vec<&Zone> = zs.iter().collect();
        order_of_zones.sort_unstable_by_key(|z| z.low());
        let mut witness = Vec::with_capacity(history.len());
        for z in order_of_zones {
            let cluster = &cs[z.cluster.index()];
            witness.push(cluster.write);
            witness.extend_from_slice(&cluster.reads);
        }
        GkAnalysis::Atomic { witness: TotalOrder::new(witness) }
    }
}

/// Detailed outcome of the zone test.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GkAnalysis {
    /// Both conditions hold; `witness` is a valid 1-atomic total order.
    Atomic {
        /// Certifying total order.
        witness: TotalOrder,
    },
    /// Two forward zones overlap (condition 1 fails).
    ForwardZonesOverlap {
        /// Cluster of the earlier-starting forward zone.
        first: kav_history::ClusterId,
        /// Cluster of the overlapping forward zone.
        second: kav_history::ClusterId,
    },
    /// A backward zone lies strictly inside a forward zone (condition 2
    /// fails).
    BackwardZoneInsideForward {
        /// The contained backward cluster.
        backward: kav_history::ClusterId,
        /// The containing forward cluster.
        forward: kav_history::ClusterId,
    },
}

impl Verifier for GkOneAv {
    fn k(&self) -> u64 {
        1
    }

    fn name(&self) -> &'static str {
        "gk-zones"
    }

    fn verify(&self, history: &History) -> Verdict {
        // The zone test ignores write weights.
        if !crate::genk::unit_weights(history) {
            return crate::GenK::new(1).verify(history);
        }
        match self.analyze(history) {
            GkAnalysis::Atomic { witness } => Verdict::KAtomic { witness },
            _ => Verdict::NotKAtomic,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_witness;
    use kav_history::HistoryBuilder;

    fn assert_atomic(h: &History) {
        match GkOneAv.verify(h) {
            Verdict::KAtomic { witness } => {
                check_witness(h, &witness, 1).expect("GK witness must certify 1-atomicity")
            }
            v => panic!("expected YES, got {v}"),
        }
    }

    #[test]
    fn serial_history_is_atomic() {
        let h = HistoryBuilder::new()
            .write(1, 0, 10)
            .read(1, 12, 20)
            .write(2, 22, 30)
            .read(2, 32, 40)
            .read(2, 42, 50)
            .build()
            .unwrap();
        assert_atomic(&h);
    }

    #[test]
    fn empty_history_is_atomic() {
        let h = HistoryBuilder::new().build().unwrap();
        assert_atomic(&h);
    }

    #[test]
    fn concurrent_overlapping_ops_are_atomic_when_reads_are_fresh() {
        let h = HistoryBuilder::new()
            .write(1, 0, 10)
            .write(2, 5, 15) // concurrent with write 1
            .read(2, 20, 30)
            .build()
            .unwrap();
        assert_atomic(&h);
    }

    #[test]
    fn stale_read_violates_condition_1() {
        // w(1) < w(2) < r(1): the forward zones of clusters 1 and 2 overlap.
        let h = HistoryBuilder::new()
            .write(1, 0, 10)
            .write(2, 12, 20)
            .read(2, 22, 30)
            .read(1, 24, 32)
            .build()
            .unwrap();
        match GkOneAv.analyze(&h) {
            GkAnalysis::ForwardZonesOverlap { .. } => {}
            other => panic!("expected overlap, got {other:?}"),
        }
        assert_eq!(GkOneAv.verify(&h), Verdict::NotKAtomic);
    }

    #[test]
    fn backward_zone_inside_forward_violates_condition_2() {
        // Cluster 1 is forward: w(1)=[0,10], r(1)=[40,50], zone ~ [10,40].
        // Cluster 2 is backward strictly inside it: w(2)=[20,30].
        // No valid order: w2 must sit between w1 and r1 (w1 < w2 < r1),
        // so r1 is one write stale — 2-atomic but not 1-atomic.
        let h = HistoryBuilder::new()
            .write(1, 0, 10)
            .read(1, 40, 50)
            .write(2, 20, 30)
            .build()
            .unwrap();
        match GkOneAv.analyze(&h) {
            GkAnalysis::BackwardZoneInsideForward { .. } => {}
            other => panic!("expected containment, got {other:?}"),
        }
    }

    #[test]
    fn new_old_inversion_is_not_atomic() {
        // Write w(2) concurrent with two sequential reads: the first read
        // returns the new value, the second the old one.
        let h = HistoryBuilder::new()
            .write(1, 0, 5)
            .write(2, 10, 40)
            .read(2, 12, 20)
            .read(1, 24, 32)
            .build()
            .unwrap();
        assert_eq!(GkOneAv.verify(&h), Verdict::NotKAtomic);
    }

    #[test]
    fn trait_metadata() {
        assert_eq!(GkOneAv.k(), 1);
        assert_eq!(GkOneAv.name(), "gk-zones");
    }
}
