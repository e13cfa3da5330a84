//! FZF — the Forward Zones First 2-atomicity verifier (paper §IV).
//!
//! FZF decides 2-atomicity in `O(n log n)` even in the worst case:
//!
//! * **Stage 1** computes the chunk set `CS(H)` — maximal runs of
//!   overlapping forward zones, each annotated with the backward clusters
//!   strictly inside its interval — plus the dangling backward clusters
//!   (implemented in `kav_history::chunk_set`).
//! * **Stage 2** decides each chunk independently. By Lemma 4.2, at most two
//!   write orders over the forward clusters can be viable: `TF` (increasing
//!   zone low endpoints) and `T'F` (first two swapped). By Lemma 4.3 the
//!   dictating writes of backward clusters can only be prepended/appended —
//!   one at each end at most — and three or more backward clusters doom the
//!   chunk. Each candidate order is checked by the simplified-LBT
//!   viability subroutine.
//! * **Stage 3** accepts; by Lemma 4.1 the history is 2-atomic iff every
//!   chunk projection is, and a global witness is assembled by concatenating
//!   per-chunk and per-dangling-cluster orders sorted by zone low endpoint
//!   (a linear extension of the paper's `≤H`).

mod viability;

use crate::{TotalOrder, Verdict, Verifier};
use kav_history::{chunk_set, clusters, zones, Chunk, Cluster, History, OpId, Time};
use viability::extend_to_2_atomic;

/// Work counters of one FZF run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FzfReport {
    /// Maximal chunks examined.
    pub chunks: usize,
    /// Dangling clusters (2-atomic by construction, never examined).
    pub dangling: usize,
    /// Candidate write orders tested across all chunks (at most 4 each).
    pub orders_tested: usize,
    /// Operations in the largest chunk.
    pub largest_chunk_ops: usize,
}

/// The FZF 2-atomicity verifier.
///
/// # Examples
///
/// ```
/// use kav_core::{Fzf, Verifier};
/// use kav_history::HistoryBuilder;
///
/// let h = HistoryBuilder::new()
///     .write(1, 0, 10)
///     .write(2, 12, 20)
///     .read(1, 22, 30) // one write stale: 2-atomic
///     .build()?;
/// assert!(Fzf.verify(&h).is_k_atomic());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Fzf;

impl Fzf {
    /// Runs FZF and additionally returns its work counters.
    pub fn verify_detailed(&self, history: &History) -> (Verdict, FzfReport) {
        let mut report = FzfReport::default();
        let cs = clusters(history);
        let zs = zones(history, &cs);
        let chunked = chunk_set(&zs);
        report.chunks = chunked.chunks.len();
        report.dangling = chunked.dangling.len();

        // (sort key, ops) pieces of the final witness.
        let mut pieces: Vec<(Time, Vec<OpId>)> = Vec::with_capacity(
            chunked.chunks.len() + chunked.dangling.len(),
        );

        for chunk in &chunked.chunks {
            match decide_chunk(history, &cs, chunk, &mut report) {
                Some(order) => pieces.push((chunk.low, order)),
                None => return (Verdict::NotKAtomic, report),
            }
        }

        // Dangling clusters are backward clusters outside every chunk; each
        // is 1-atomic on its own (§IV-B, proof of Lemma 4.1).
        for &d in &chunked.dangling {
            let cluster = &cs[d.index()];
            let mut order = Vec::with_capacity(cluster.len());
            order.push(cluster.write);
            order.extend_from_slice(&cluster.reads);
            pieces.push((zs[d.index()].low(), order));
        }

        pieces.sort_unstable_by_key(|(low, _)| *low);
        let mut witness = Vec::with_capacity(history.len());
        for (_, ops) in pieces {
            witness.extend(ops);
        }
        (Verdict::KAtomic { witness: TotalOrder::new(witness) }, report)
    }
}

impl Verifier for Fzf {
    fn k(&self) -> u64 {
        2
    }

    fn name(&self) -> &'static str {
        "fzf"
    }

    fn verify(&self, history: &History) -> Verdict {
        // The zone argument ignores write weights.
        if !crate::genk::unit_weights(history) {
            return crate::GenK::new(2).verify(history);
        }
        self.verify_detailed(history).0
    }
}

/// Stage 2 for one chunk: build the candidate write orders and test each
/// with the viability subroutine. Returns a valid 2-atomic order over the
/// chunk's operations, or `None` if the chunk (and hence the history) is
/// not 2-atomic.
fn decide_chunk(
    history: &History,
    cs: &[Cluster],
    chunk: &Chunk,
    report: &mut FzfReport,
) -> Option<Vec<OpId>> {
    // TF: forward-cluster writes by increasing zone low endpoint. Stage 1
    // already sorted chunk.forward that way.
    let tf: Vec<OpId> = chunk.forward.iter().map(|c| cs[c.index()].write).collect();
    let mut tpf = tf.clone();
    if tpf.len() >= 2 {
        tpf.swap(0, 1);
    }

    let backward: Vec<OpId> = chunk.backward.iter().map(|c| cs[c.index()].write).collect();

    let mut candidates: Vec<Vec<OpId>> = Vec::with_capacity(4);
    let push_unique = |order: Vec<OpId>, candidates: &mut Vec<Vec<OpId>>| {
        if !candidates.contains(&order) {
            candidates.push(order);
        }
    };
    match backward.as_slice() {
        [] => {
            push_unique(tf.clone(), &mut candidates);
            push_unique(tpf.clone(), &mut candidates);
        }
        [w] => {
            for base in [&tf, &tpf] {
                let mut pre = vec![*w];
                pre.extend_from_slice(base);
                push_unique(pre, &mut candidates);
                let mut post = base.clone();
                post.push(*w);
                push_unique(post, &mut candidates);
            }
        }
        [w1, w2] => {
            for base in [&tf, &tpf] {
                for (first, last) in [(*w1, *w2), (*w2, *w1)] {
                    let mut order = vec![first];
                    order.extend_from_slice(base);
                    order.push(last);
                    push_unique(order, &mut candidates);
                }
            }
        }
        // Lemma 4.3, case B >= 3: at most one backward write can precede and
        // at most one can follow all forward writes, so no viable order
        // exists — the chunk is not 2-atomic.
        _ => return None,
    }

    let chunk_ops = chunk_ops_by_start(history, cs, chunk);
    report.largest_chunk_ops = report.largest_chunk_ops.max(chunk_ops.len());

    for order in candidates {
        report.orders_tested += 1;
        if let Some(extension) = extend_to_2_atomic(history, &chunk_ops, &order) {
            return Some(extension);
        }
    }
    None
}

/// All operations of the chunk's clusters, sorted by start time.
fn chunk_ops_by_start(history: &History, cs: &[Cluster], chunk: &Chunk) -> Vec<OpId> {
    let mut ops: Vec<OpId> = chunk
        .forward
        .iter()
        .chain(chunk.backward.iter())
        .flat_map(|c| cs[c.index()].ops())
        .collect();
    ops.sort_unstable_by_key(|id| history.op(*id).start);
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_witness;
    use kav_history::HistoryBuilder;

    fn assert_fzf(h: &History, expected: bool) {
        let (verdict, _) = Fzf.verify_detailed(h);
        match verdict {
            Verdict::KAtomic { ref witness } => {
                assert!(expected, "expected NO, got YES");
                check_witness(h, witness, 2).expect("FZF witness must certify 2-atomicity");
            }
            Verdict::NotKAtomic => assert!(!expected, "expected YES, got NO"),
            Verdict::Inconclusive => panic!("FZF never returns inconclusive"),
            Verdict::Consistent => panic!("FZF always witnesses YES"),
        }
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
        assert_fzf(&h, true);
    }

    #[test]
    fn accepts_one_write_stale_read() {
        let h = HistoryBuilder::new()
            .write(1, 0, 10)
            .write(2, 12, 20)
            .read(1, 22, 30)
            .build()
            .unwrap();
        assert_fzf(&h, true);
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
        assert_fzf(&h, false);
    }

    #[test]
    fn empty_and_write_only_histories_are_2_atomic() {
        assert_fzf(&HistoryBuilder::new().build().unwrap(), true);
        let h = HistoryBuilder::new()
            .write(1, 0, 10)
            .write(2, 5, 15)
            .write(3, 30, 45)
            .build()
            .unwrap();
        assert_fzf(&h, true);
    }

    #[test]
    fn three_backward_clusters_inside_a_chunk_reject() {
        // Forward cluster spanning [10, 100]; three write-only backward
        // clusters strictly inside its zone: by Lemma 4.3 (B >= 3) not
        // 2-atomic.
        let h = HistoryBuilder::new()
            .write(1, 0, 10)
            .read(1, 100, 110)
            .write(2, 20, 25)
            .write(3, 40, 45)
            .write(4, 60, 65)
            .build()
            .unwrap();
        assert_fzf(&h, false);
    }

    #[test]
    fn two_write_only_backward_clusters_inside_a_chunk_reject() {
        // Write-only backward clusters strictly inside a single forward
        // zone are forced between the forward write and its read, so two of
        // them already give the read separation 3.
        let h = HistoryBuilder::new()
            .write(1, 0, 10)
            .read(1, 100, 110)
            .write(2, 20, 25)
            .write(3, 40, 45)
            .build()
            .unwrap();
        assert_fzf(&h, false);
    }

    #[test]
    fn two_backward_clusters_inside_a_chunk_accept() {
        // Backward clusters whose writes overlap the chunk boundary can be
        // placed before/after the forward writes (Lemma 4.3, B = 2 case).
        // Zones: forward [10,100]; backward [15,~60] and [30,~70], both
        // strictly inside; but w2 starts before the forward write finishes
        // (movable to the front) and w3 starts after it (placeable behind).
        let h = HistoryBuilder::new()
            .write(1, 0, 10) // wA
            .read(1, 100, 110) // rA
            .write(2, 5, 95) // w2, shortened below its read's finish
            .read(2, 15, 60) // r2
            .write(3, 20, 98) // w3, likewise
            .read(3, 30, 70) // r3
            .build()
            .unwrap();
        let (verdict, report) = Fzf.verify_detailed(&h);
        assert!(verdict.is_k_atomic(), "expected YES, report {report:?}");
        check_witness(&h, verdict.witness().unwrap(), 2).unwrap();
        assert_eq!(report.chunks, 1);
    }

    #[test]
    fn swapped_forward_order_is_needed_sometimes() {
        // Lemma 4.2 Case 2 (zone A ends after zone B ends; A also overlaps
        // C): TF = [wA, wB, wC] is not viable because A's read follows wC,
        // giving it separation 3; only T'F = [wB, wA, wC] certifies the
        // chunk. Zones: A = [10, 40], B = [12, 14], C = [30, 32].
        let h = HistoryBuilder::new()
            .write(10, 0, 10) // wA
            .read(10, 40, 50) // rA
            .write(20, 2, 12) // wB
            .read(20, 14, 22) // rB
            .write(30, 4, 30) // wC
            .read(30, 32, 38) // rC
            .build()
            .unwrap();
        let (verdict, report) = Fzf.verify_detailed(&h);
        assert!(verdict.is_k_atomic());
        assert_eq!(report.chunks, 1, "one chunk of three forward clusters");
        assert!(
            report.orders_tested >= 2,
            "TF must fail before T'F succeeds, got {report:?}"
        );
        check_witness(&h, verdict.witness().unwrap(), 2).unwrap();
    }

    #[test]
    fn dangling_clusters_concatenate() {
        // Two disjoint backward clusters and one forward chunk between them.
        let h = HistoryBuilder::new()
            .write(1, 0, 30)
            .read(1, 5, 35) // backward cluster (overlapping read)
            .write(2, 50, 60)
            .read(2, 70, 80) // forward chunk
            .write(3, 100, 130)
            .read(3, 105, 135) // backward cluster
            .build()
            .unwrap();
        let (verdict, report) = Fzf.verify_detailed(&h);
        assert!(verdict.is_k_atomic());
        assert_eq!(report.chunks, 1);
        assert_eq!(report.dangling, 2);
    }

    #[test]
    fn report_counts() {
        let h = HistoryBuilder::new()
            .write(1, 0, 10)
            .read(1, 12, 20)
            .build()
            .unwrap();
        let (_, report) = Fzf.verify_detailed(&h);
        assert_eq!(report.chunks, 1);
        assert!(report.orders_tested >= 1);
        assert_eq!(report.largest_chunk_ops, 2);
    }

    #[test]
    fn trait_metadata() {
        assert_eq!(Fzf.k(), 2);
        assert_eq!(Fzf.name(), "fzf");
    }
}
