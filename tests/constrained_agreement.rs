//! The gate for the constrained-search escalation tier: on every history
//! small enough for the exhaustive oracle to decide (≤ 128 ops), the
//! production [`ConstrainedSearch`] engine must agree with the oracle for
//! k ∈ 1..=5, its YES verdicts must carry independently checked
//! witnesses, and its node budget must degrade to `Inconclusive` only —
//! never flip a verdict. Past the oracle's ceiling, a regression case
//! pins the removed 128-op cliff. On histories built from several blocks,
//! so that genk's escalation splits them at free cuts, genk and
//! `smallest_k` must agree with the oracle too.

use k_atomicity::history::{History, HistoryBuilder, Operation, RawHistory, Time, Value};
use k_atomicity::verify::{
    check_witness, smallest_k, ConstrainedSearch, ExhaustiveSearch, GenK, Staleness, Verdict,
    Verifier, MAX_SEARCH_OPS,
};
use k_atomicity::workloads::{deep_stale, DeepStaleConfig};
use proptest::prelude::*;

/// Generates an arbitrary anomaly-free history, as in
/// `cross_verifier_agreement.rs`: up to 7 writes with random intervals and
/// up to 8 reads, each referencing some write and starting no earlier than
/// that write starts. Endpoint collisions are repaired toward concurrency.
fn arb_history() -> impl Strategy<Value = History> {
    let writes = prop::collection::vec((0u64..500, 1u64..80), 1..7);
    let reads = prop::collection::vec((any::<prop::sample::Index>(), 0u64..150, 1u64..60), 0..8);
    (writes, reads).prop_map(|(writes, reads)| {
        let mut raw = RawHistory::new();
        for (i, &(start, len)) in writes.iter().enumerate() {
            raw.push(Operation::write(
                Value(i as u64 + 1),
                Time(start),
                Time(start + len),
            ));
        }
        for (which, offset, len) in reads {
            let w = which.index(writes.len());
            let (wstart, _) = writes[w];
            let start = wstart + offset;
            raw.push(Operation::read(
                Value(w as u64 + 1),
                Time(start),
                Time(start + len),
            ));
        }
        raw.make_endpoints_distinct();
        raw.into_history().expect("constructed histories are anomaly-free")
    })
}

/// The straddling gadget: forced lower bound 2, witness upper bound 4,
/// true k 4, so genk escalates it at k = 3.
fn straddle_gadget() -> History {
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

/// 2–6 blocks (`arb_history` draws, or the straddle gadget one time in
/// four), each shifted in time to start a few ticks before the previous
/// block ends and given values of its own: at most 78 ops, which the
/// oracle decides, with free cuts between and inside the blocks.
fn arb_blocks() -> impl Strategy<Value = History> {
    prop::collection::vec((arb_history(), 0u8..4, 0u64..4), 2..7).prop_map(|blocks| {
        let mut raw = RawHistory::new();
        let mut shift = 0u64;
        for (b, (block, kind, overlap)) in blocks.into_iter().enumerate() {
            let block = if kind == 0 { straddle_gadget() } else { block };
            let start = shift.saturating_sub(overlap);
            for op in block.ops() {
                let mut op = *op;
                op.start = Time(op.start.as_u64() + start);
                op.finish = Time(op.finish.as_u64() + start);
                op.value = Value(op.value.0 + 1000 * b as u64);
                shift = shift.max(op.finish.as_u64() + 1);
                raw.push(op);
            }
        }
        raw.make_endpoints_distinct();
        raw.into_history().expect("shifted blocks stay anomaly-free")
    })
}

fn checked(history: &History, verdict: &Verdict, k: u64, who: &str) -> bool {
    match verdict {
        Verdict::KAtomic { witness } => {
            check_witness(history, witness, k)
                .unwrap_or_else(|e| panic!("{who} produced a bad witness: {e}"));
            true
        }
        Verdict::NotKAtomic => false,
        Verdict::Inconclusive => panic!("{who} must be decisive here"),
        Verdict::Consistent => panic!("{who} must carry a witness, not a bare Consistent"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random histories: the constrained engine and the oracle are two
    /// structurally different exact searches; they must never disagree.
    #[test]
    fn constrained_matches_oracle_on_random_histories(h in arb_history()) {
        for k in 1..=5u64 {
            let got = checked(&h, &ConstrainedSearch::new(k).verify(&h), k, "constrained");
            let oracle = checked(&h, &ExhaustiveSearch::new(k).verify(&h), k, "oracle");
            prop_assert_eq!(got, oracle, "constrained disagrees at k = {}", k);
        }
    }

    /// Deep-stale workloads (true staleness forced to k) around the cliff
    /// — the shapes genk actually escalates in production.
    #[test]
    fn constrained_matches_oracle_on_deep_stale_histories(
        seed in 0u64..500,
        k in 1u64..=5,
    ) {
        let h = deep_stale(DeepStaleConfig {
            ops_per_key: 20,
            k,
            gadget_every: 8,
            seed,
            ..Default::default()
        });
        prop_assert!(h.len() <= MAX_SEARCH_OPS, "oracle must stay exact");
        for probe in [k.saturating_sub(1).max(1), k, k + 1] {
            let got =
                checked(&h, &ConstrainedSearch::new(probe).verify(&h), probe, "constrained");
            let oracle =
                checked(&h, &ExhaustiveSearch::new(probe).verify(&h), probe, "oracle");
            prop_assert_eq!(got, oracle, "k = {}, probe = {}", k, probe);
        }
    }

    /// A node budget only ever degrades the answer to `Inconclusive`; a
    /// budgeted run that *does* decide must match the unbounded one.
    #[test]
    fn budget_never_flips_a_verdict(h in arb_history(), budget in 0u64..200, k in 1u64..=4) {
        let exact = ConstrainedSearch::new(k).verify(&h).is_k_atomic();
        match ConstrainedSearch::with_node_budget(k, budget).verify(&h) {
            Verdict::KAtomic { witness } => {
                check_witness(&h, &witness, k)
                    .unwrap_or_else(|e| panic!("budgeted run produced a bad witness: {e}"));
                prop_assert!(exact, "budgeted YES contradicts the unbounded search");
            }
            Verdict::NotKAtomic => prop_assert!(!exact, "budgeted NO contradicts"),
            Verdict::Inconclusive => {} // the only permitted degradation
            Verdict::Consistent => {
                panic!("budgeted run must carry a witness, not a bare Consistent")
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// GenK splits a bound-gap history at its free cuts and searches only
    /// the pieces its best order misses: unbounded, it must equal the
    /// oracle with checked witnesses; budgeted, it may only degrade to
    /// `Inconclusive`; and `smallest_k` must land on the oracle's least k.
    #[test]
    fn genk_split_matches_oracle_on_block_histories(h in arb_blocks(), budget in 0u64..200) {
        prop_assert!(h.len() <= MAX_SEARCH_OPS, "oracle must stay exact");
        let oracle = |k: u64| checked(&h, &ExhaustiveSearch::new(k).verify(&h), k, "oracle");
        for k in 2..=4u64 {
            let want = oracle(k);
            let got = checked(&h, &GenK::with_gap_budget(k, None).verify(&h), k, "genk");
            prop_assert_eq!(got, want, "unbounded genk disagrees at k = {}", k);
            match GenK::with_gap_budget(k, Some(budget)).verify(&h) {
                Verdict::KAtomic { witness } => {
                    check_witness(&h, &witness, k)
                        .unwrap_or_else(|e| panic!("budgeted genk produced a bad witness: {e}"));
                    prop_assert!(want, "budgeted genk YES contradicts the oracle at k = {}", k);
                }
                Verdict::NotKAtomic => {
                    prop_assert!(!want, "budgeted genk NO contradicts the oracle at k = {}", k)
                }
                Verdict::Inconclusive => {}
                Verdict::Consistent => panic!("genk YES must carry a witness"),
            }
        }
        let least = (1..=h.total_write_weight().max(1)).find(|&k| oracle(k));
        prop_assert_eq!(Some(smallest_k(&h, None)), least.map(Staleness::Exact));
    }
}

/// Regression for the removed op-count cliff: a >128-op history must be
/// decided (both YES and NO sides) by the constrained engine under a
/// generous finite budget, where the oracle can only shrug.
#[test]
fn decides_above_the_oracle_ceiling() {
    // The straddling gadget (true k = 4) plus 97 serial write/read pairs:
    // 201 ops in one segment.
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
    assert!(h.len() > MAX_SEARCH_OPS);
    assert_eq!(
        ExhaustiveSearch::new(4).verify(&h),
        Verdict::Inconclusive,
        "the oracle's ceiling is the point of this test"
    );

    let generous = 10_000_000;
    let no = ConstrainedSearch::with_node_budget(3, generous).verify(&h);
    assert_eq!(no, Verdict::NotKAtomic);
    let yes = ConstrainedSearch::with_node_budget(4, generous).verify(&h);
    let Verdict::KAtomic { witness } = yes else {
        panic!("201-op segment must certify at k = 4, got {yes:?}");
    };
    check_witness(&h, &witness, 4).expect("witness must check");
}
