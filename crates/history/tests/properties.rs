//! Property tests for the history substrate: validation, repair,
//! normalisation, zones/chunks and transforms maintain their documented
//! invariants on arbitrary inputs, and `History` construction matches a
//! straightforward reference construction exactly.

use kav_history::stream::{completion_order, StreamBuilder};
use kav_history::{
    chunk_set, clusters, repair, transform, zones, Anomaly, History, HistoryStats, OpId, OpKind,
    Operation, RawHistory, Time, Value, Weight, ZoneKind,
};
use proptest::prelude::*;
use std::collections::HashMap;

/// Completely arbitrary operation soup — may contain every anomaly.
fn arb_soup() -> impl Strategy<Value = RawHistory> {
    prop::collection::vec(
        (any::<bool>(), 0u64..6, 0u64..120, 0u64..40, 0u32..4),
        0..25,
    )
    .prop_map(|ops| {
        ops.into_iter()
            .map(|(is_read, value, start, len, weight)| Operation {
                kind: if is_read { OpKind::Read } else { OpKind::Write },
                value: Value(value),
                start: Time(start),
                finish: Time(start + len), // len 0 => empty interval anomaly
                weight: Weight(weight),    // 0 => zero-weight anomaly
                client: 0,
            })
            .collect()
    })
}

/// Anomaly-free generator (validated downstream).
fn arb_clean() -> impl Strategy<Value = RawHistory> {
    let writes = prop::collection::vec((0u64..200, 1u64..50), 1..8);
    let reads = prop::collection::vec((any::<prop::sample::Index>(), 0u64..80, 1u64..40), 0..10);
    (writes, reads).prop_map(|(writes, reads)| {
        let mut raw = RawHistory::new();
        for (i, &(s, l)) in writes.iter().enumerate() {
            raw.push(Operation::write(Value(i as u64 + 1), Time(s), Time(s + l)));
        }
        for (which, off, l) in reads {
            let w = which.index(writes.len());
            let s = writes[w].0 + off;
            raw.push(Operation::read(Value(w as u64 + 1), Time(s), Time(s + l)));
        }
        raw.make_endpoints_distinct();
        raw
    })
}

/// `arb_clean` with its ops in a random order.
fn arb_shuffled_clean() -> impl Strategy<Value = RawHistory> {
    let picks = prop::collection::vec(any::<prop::sample::Index>(), 32..33);
    (arb_clean(), picks).prop_map(|(mut raw, picks)| {
        for i in (1..raw.ops.len()).rev() {
            raw.ops.swap(i, picks[i].index(i + 1));
        }
        raw
    })
}

/// The segments a `StreamBuilder` seals from `raw` fed in finish order,
/// sealing down to `window` resident ops after every push.
fn sealed_segments(raw: &RawHistory, window: usize) -> Vec<RawHistory> {
    let mut builder = StreamBuilder::new();
    let mut segments = Vec::new();
    for op in completion_order(raw) {
        builder.push(op).expect("a clean history streams in finish order");
        segments.extend(builder.try_seal(window));
    }
    segments.push(builder.flush());
    segments
}

/// Every index a `History` exposes.
#[derive(Debug, PartialEq)]
struct Indexes {
    ops: Vec<Operation>,
    sorted_by_start: Vec<OpId>,
    sorted_by_finish: Vec<OpId>,
    writes_by_finish: Vec<OpId>,
    reads: Vec<OpId>,
    dictating: Vec<Option<OpId>>,
    dictated: Vec<Vec<OpId>>,
    max_concurrent_writes: usize,
}

impl Indexes {
    fn of(h: &History) -> Self {
        Indexes {
            ops: h.ops().to_vec(),
            sorted_by_start: h.sorted_by_start().to_vec(),
            sorted_by_finish: h.sorted_by_finish().to_vec(),
            writes_by_finish: h.writes_by_finish().to_vec(),
            reads: h.reads().to_vec(),
            dictating: h.ids().map(|id| h.dictating_write(id)).collect(),
            dictated: h.ids().map(|id| h.dictated_reads(id).to_vec()).collect(),
            max_concurrent_writes: h.max_concurrent_writes(),
        }
    }
}

/// The reference checks: one sort of all 2n endpoints finds duplicates, and
/// one value map serves the write-value and read checks.
fn reference_anomalies(raw: &RawHistory) -> Vec<Anomaly> {
    let ops = &raw.ops;
    let mut anomalies = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        if op.finish <= op.start {
            anomalies.push(Anomaly::EmptyInterval { op: OpId(i) });
        }
        if op.weight.as_u32() == 0 {
            anomalies.push(Anomaly::ZeroWeight { op: OpId(i) });
        }
    }
    let mut endpoints: Vec<(Time, OpId)> = ops
        .iter()
        .enumerate()
        .flat_map(|(i, op)| [(op.start, OpId(i)), (op.finish, OpId(i))])
        .collect();
    endpoints.sort_unstable();
    for pair in endpoints.windows(2) {
        if pair[0].0 == pair[1].0 {
            anomalies.push(Anomaly::DuplicateEndpoint {
                time: pair[0].0,
                first: pair[0].1,
                second: pair[1].1,
            });
        }
    }
    let mut first_write: HashMap<Value, OpId> = HashMap::new();
    for (i, op) in ops.iter().enumerate().filter(|(_, op)| op.is_write()) {
        if let Some(&first) = first_write.get(&op.value) {
            let second = OpId(i);
            anomalies.push(Anomaly::DuplicateWriteValue { value: op.value, first, second });
        } else {
            first_write.insert(op.value, OpId(i));
        }
    }
    for (i, op) in ops.iter().enumerate().filter(|(_, op)| op.is_read()) {
        match first_write.get(&op.value) {
            None => {
                anomalies.push(Anomaly::MissingDictatingWrite { read: OpId(i), value: op.value })
            }
            Some(&w) if op.precedes(&ops[w.index()]) => {
                anomalies.push(Anomaly::ReadPrecedesDictatingWrite { read: OpId(i), write: w })
            }
            Some(_) => {}
        }
    }
    anomalies
}

/// The reference indexes of a clean history: shortening and re-ranking by
/// one sort of `(time, phase, op)` keys, separate start and finish sorts,
/// per-write dictated lists each sorted by start, and an event sort for
/// concurrency.
fn reference_indexes(raw: &RawHistory) -> Indexes {
    let n = raw.len();
    let write_of: HashMap<Value, OpId> = raw
        .iter()
        .enumerate()
        .filter(|(_, op)| op.is_write())
        .map(|(i, op)| (op.value, OpId(i)))
        .collect();
    let dictating: Vec<Option<OpId>> = raw
        .iter()
        .map(|op| if op.is_read() { write_of.get(&op.value).copied() } else { None })
        .collect();

    // A write that outlives its earliest dictated read parks its finish just
    // below that read's finish (phase 0 sorts before the original phase 1).
    let mut min_read_finish: Vec<Option<Time>> = vec![None; n];
    for (op, w) in raw.iter().zip(&dictating) {
        if let Some(w) = w {
            let slot = &mut min_read_finish[w.index()];
            *slot = Some(slot.map_or(op.finish, |t| t.min(op.finish)));
        }
    }
    let mut keys: Vec<(Time, u8, usize, bool)> = Vec::new();
    for (i, op) in raw.iter().enumerate() {
        keys.push((op.start, 1, i, false));
        keys.push(match min_read_finish[i] {
            Some(t) if op.finish > t => (t, 0, i, true),
            _ => (op.finish, 1, i, true),
        });
    }
    keys.sort_unstable();
    let mut ops = raw.ops.clone();
    for (rank, &(_, _, i, is_finish)) in keys.iter().enumerate() {
        if is_finish {
            ops[i].finish = Time(rank as u64);
        } else {
            ops[i].start = Time(rank as u64);
        }
    }

    let mut sorted_by_start: Vec<OpId> = (0..n).map(OpId).collect();
    sorted_by_start.sort_by_key(|id| ops[id.index()].start);
    let mut sorted_by_finish: Vec<OpId> = (0..n).map(OpId).collect();
    sorted_by_finish.sort_by_key(|id| ops[id.index()].finish);
    let writes_by_finish =
        sorted_by_finish.iter().copied().filter(|id| ops[id.index()].is_write()).collect();
    let reads = (0..n).map(OpId).filter(|id| ops[id.index()].is_read()).collect();
    let mut dictated: Vec<Vec<OpId>> = vec![Vec::new(); n];
    for (i, w) in dictating.iter().enumerate() {
        if let Some(w) = w {
            dictated[w.index()].push(OpId(i));
        }
    }
    for list in &mut dictated {
        list.sort_by_key(|id| ops[id.index()].start);
    }
    let mut events: Vec<(Time, i64)> = ops
        .iter()
        .filter(|op| op.is_write())
        .flat_map(|op| [(op.start, 1), (op.finish, -1)])
        .collect();
    events.sort_unstable();
    let mut open = 0;
    let mut max_concurrent_writes = 0;
    for (_, delta) in events {
        open += delta;
        max_concurrent_writes = max_concurrent_writes.max(open as usize);
    }

    Indexes {
        ops,
        sorted_by_start,
        sorted_by_finish,
        writes_by_finish,
        reads,
        dictating,
        dictated,
        max_concurrent_writes,
    }
}

/// `raw`'s report, its `into_history` outcome and, when it is clean, every
/// index equal the reference's.
fn matches_reference(raw: &RawHistory) -> Result<(), TestCaseError> {
    let expected = reference_anomalies(raw);
    let report = raw.validate();
    prop_assert_eq!(report.anomalies(), &expected[..]);
    match raw.clone().into_history() {
        Ok(h) => {
            prop_assert!(expected.is_empty(), "accepted despite {:?}", expected);
            prop_assert_eq!(Indexes::of(&h), reference_indexes(raw));
        }
        Err(err) => {
            let listed: String = expected.iter().map(|a| format!(" [{a}]")).collect();
            let text = format!(
                "history violates model assumptions ({} anomalies:{listed})",
                expected.len()
            );
            prop_assert_eq!(err.anomalies(), &expected[..]);
            prop_assert_eq!(err.to_string(), text);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Repair always produces a validating history, never invents
    /// operations, and is idempotent.
    #[test]
    fn repair_is_sound_and_idempotent(raw in arb_soup()) {
        let (history, log) = repair(raw.clone()).expect("repair always salvages");
        prop_assert_eq!(history.len() + log.dropped.len(), raw.len());
        prop_assert!(history.to_raw().validate().is_clean());
        let (again, log2) = repair(history.to_raw()).expect("second pass");
        prop_assert!(log2.dropped.is_empty(), "idempotence: nothing left to drop");
        prop_assert_eq!(again.len(), history.len());
    }

    /// `make_endpoints_distinct` yields distinct endpoints and preserves
    /// every strict precedence.
    #[test]
    fn endpoint_repair_preserves_precedence(raw in arb_soup()) {
        let mut repaired = raw.clone();
        repaired.make_endpoints_distinct();
        // Distinctness:
        let mut endpoints: Vec<u64> = repaired
            .iter()
            .flat_map(|op| [op.start.as_u64(), op.finish.as_u64()])
            .collect();
        endpoints.sort_unstable();
        let before_dedup = endpoints.len();
        endpoints.dedup();
        prop_assert_eq!(before_dedup, endpoints.len());
        // Precedence preservation:
        for i in 0..raw.len() {
            for j in 0..raw.len() {
                if i != j && raw.ops[i].precedes(&raw.ops[j]) {
                    prop_assert!(
                        repaired.ops[i].precedes(&repaired.ops[j]),
                        "strict precedence {i} -> {j} lost"
                    );
                }
            }
        }
    }

    /// Zone and chunk invariants on clean histories.
    #[test]
    fn zone_and_chunk_invariants(raw in arb_clean()) {
        let h = raw.into_history().expect("clean");
        let cs = clusters(&h);
        let zs = zones(&h, &cs);
        prop_assert_eq!(cs.len(), h.num_writes());

        for z in &zs {
            prop_assert!(z.low() <= z.high());
            if z.kind() == ZoneKind::Forward {
                // Forward zones need a read that starts after the write
                // finishes; in particular the cluster has a read.
                prop_assert!(!cs[z.cluster.index()].reads.is_empty());
            }
        }

        let chunked = chunk_set(&zs);
        // Chunk intervals are sorted and pairwise disjoint.
        for pair in chunked.chunks.windows(2) {
            prop_assert!(pair[0].high < pair[1].low);
        }
        // Every forward cluster appears in exactly one chunk.
        let mut seen = std::collections::HashSet::new();
        for chunk in &chunked.chunks {
            for c in &chunk.forward {
                prop_assert!(seen.insert(*c), "forward cluster in two chunks");
            }
            // Backward members nest strictly inside the interval.
            for c in &chunk.backward {
                let z = zs[c.index()];
                prop_assert!(chunk.low < z.low() && z.high() < chunk.high);
            }
        }
        let forward_total = zs.iter().filter(|z| z.kind() == ZoneKind::Forward).count();
        prop_assert_eq!(seen.len(), forward_total);
        // Dangling clusters are backward.
        for d in &chunked.dangling {
            prop_assert_eq!(zs[d.index()].kind(), ZoneKind::Backward);
        }
        // Census agrees.
        let stats = HistoryStats::of(&h);
        prop_assert_eq!(stats.chunks, chunked.chunks.len());
        prop_assert_eq!(stats.dangling_clusters, chunked.dangling.len());
        prop_assert_eq!(stats.reads + stats.writes, stats.ops);
    }

    /// Transform laws: shift and dilate compose and preserve validity.
    #[test]
    fn transform_laws(raw in arb_clean(), a in 1u64..500, b in 1u64..500, f in 1u64..6) {
        let shifted = transform::shift(&transform::shift(&raw, a), b);
        let direct = transform::shift(&raw, a + b);
        prop_assert_eq!(shifted, direct, "shift composes additively");

        let dilated = transform::dilate(&raw, f);
        prop_assert!(dilated.validate().is_clean());
        // Dilation preserves order, hence cluster/zone structure counts.
        let h1 = raw.clone().into_history().expect("clean");
        let h2 = dilated.into_history().expect("still clean");
        prop_assert_eq!(
            HistoryStats::of(&h1), HistoryStats::of(&h2),
            "order-isomorphic relabelling preserves the census"
        );
    }

    /// Merging value-disjoint histories keeps both parts intact.
    #[test]
    fn merge_preserves_parts(a in arb_clean(), b in arb_clean()) {
        let b_shifted = transform::offset_values(&b, 1000);
        let merged = transform::merge(&a, &b_shifted);
        prop_assert_eq!(merged.len(), a.len() + b.len());
        prop_assert!(merged.validate().is_clean(), "{:?}", merged.validate());
        // Projecting the merged history back onto b's values recovers b's
        // operation multiset (up to re-ranked timestamps).
        let values: std::collections::BTreeSet<Value> =
            b_shifted.iter().map(|op| op.value).collect();
        let projected = transform::project_values(&merged, &values);
        prop_assert_eq!(projected.len(), b.len());
    }

    /// Validation finds a planted orphan read in any clean history.
    #[test]
    fn validation_catches_planted_orphans(raw in arb_clean(), s in 0u64..500) {
        let mut poisoned = raw;
        poisoned.push(Operation::read(Value(99_999), Time(10 * s + 1_000_000), Time(10 * s + 1_000_005)));
        let report = poisoned.validate();
        let caught = report
            .anomalies()
            .iter()
            .any(|a| matches!(a, kav_history::Anomaly::MissingDictatingWrite { .. }));
        prop_assert!(caught, "orphan read not detected: {:?}", report);
    }

    /// Validation and `into_history` agree with the reference on arbitrary
    /// input: the same anomalies in the same order, the same error text.
    #[test]
    fn construction_matches_reference_on_soup(raw in arb_soup()) {
        matches_reference(&raw)?;
    }

    /// On valid input in any op order, and on the segments a stream builder
    /// seals from it, every index equals the reference's.
    #[test]
    fn construction_matches_reference_on_clean_histories(
        raw in arb_shuffled_clean(),
        window in 1usize..6,
    ) {
        matches_reference(&raw)?;
        for segment in sealed_segments(&raw, window) {
            matches_reference(&segment)?;
        }
    }
}
