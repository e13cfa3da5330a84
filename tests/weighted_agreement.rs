//! Properties tying §V to the rest of the paper: unit-weight k-WAV is
//! exactly k-AV, the Figure-5 reduction decides bin packing, and every
//! verifier decides weighted histories by the weighted rule.

use k_atomicity::history::{History, Operation, RawHistory, Time, Value, Weight};
use k_atomicity::verify::{
    check_witness, diagnose, smallest_k, ExhaustiveSearch, Fzf, GkOneAv, Lbt, Staleness, Verdict,
    Verifier,
};
use k_atomicity::weighted::{extract_packing, reduce_bin_packing, BinPacking, WkavInstance};
use proptest::prelude::*;

fn arb_weighted_history() -> impl Strategy<Value = History> {
    let writes = prop::collection::vec((0u64..300, 1u64..50, 1u32..5), 1..6);
    let reads = prop::collection::vec((any::<prop::sample::Index>(), 0u64..80, 1u64..40), 0..6);
    (writes, reads).prop_map(|(writes, reads)| {
        let mut raw = RawHistory::new();
        for (i, &(start, len, weight)) in writes.iter().enumerate() {
            raw.push(Operation::weighted_write(
                Value(i as u64 + 1),
                Time(start),
                Time(start + len),
                Weight(weight),
            ));
        }
        for (which, offset, len) in reads {
            let w = which.index(writes.len());
            let start = writes[w].0 + offset;
            raw.push(Operation::read(Value(w as u64 + 1), Time(start), Time(start + len)));
        }
        raw.make_endpoints_distinct();
        raw.into_history().expect("anomaly-free")
    })
}

/// Strips weights down to 1, keeping intervals and values.
fn unit_weighted(h: &History) -> History {
    let raw: RawHistory = h
        .to_raw()
        .into_iter()
        .map(|mut op| {
            op.weight = Weight::UNIT;
            op
        })
        .collect();
    raw.into_history().expect("weights do not affect validity")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn unit_weight_kwav_equals_k_av(h in arb_weighted_history()) {
        let unit = unit_weighted(&h);
        // k = 2 of the weighted rule (unit weights) is 2-AV.
        let wkav = WkavInstance::new(unit.clone(), 2).decide(None).is_k_atomic();
        let fzf = Fzf.verify(&unit).is_k_atomic();
        prop_assert_eq!(wkav, fzf);
    }

    #[test]
    fn weighted_verdicts_are_monotone_in_k(h in arb_weighted_history()) {
        let mut previous = false;
        let total = h.total_write_weight();
        for k in 1..=total.min(8) {
            let now = WkavInstance::new(h.clone(), k).decide(None).is_k_atomic();
            prop_assert!(!previous || now, "YES at {} but NO at {}", k - 1, k);
            previous = now;
        }
        // The total write weight always suffices (finish-order witness).
        prop_assert!(WkavInstance::new(h.clone(), total).decide(None).is_k_atomic());
    }

    #[test]
    fn raising_any_weight_never_helps(h in arb_weighted_history(), bump in 1u32..4) {
        // Heavier writes only make the constraint harder: if the bumped
        // instance is solvable, the original was too.
        let k = 4u64;
        let bumped: RawHistory = h
            .to_raw()
            .into_iter()
            .map(|mut op| {
                if op.is_write() {
                    op.weight = Weight(op.weight.as_u32() + bump);
                }
                op
            })
            .collect();
        let bumped = bumped.into_history().unwrap();
        let heavy = WkavInstance::new(bumped, k).decide(None).is_k_atomic();
        let light = WkavInstance::new(h.clone(), k).decide(None).is_k_atomic();
        prop_assert!(!heavy || light);
    }

    /// GK, FZF and LBT hand weighted histories to genk, so at their one
    /// `k` they agree with the oracle; `smallest_k` is the least `k` the
    /// oracle accepts.
    #[test]
    fn unit_k_verifiers_and_smallest_k_follow_the_weighted_rule(h in arb_weighted_history()) {
        let oracle = |k: u64| ExhaustiveSearch::new(k).verify(&h).is_k_atomic();
        for (verdict, k) in
            [(GkOneAv.verify(&h), 1), (Fzf.verify(&h), 2), (Lbt::new().verify(&h), 2)]
        {
            if let Verdict::KAtomic { witness } = &verdict {
                prop_assert!(check_witness(&h, witness, k).is_ok(), "bad witness at k = {}", k);
            }
            prop_assert_eq!(verdict.is_k_atomic(), oracle(k), "k = {}", k);
        }
        let least = (1..=h.total_write_weight().max(1)).find(|&k| oracle(k));
        prop_assert_eq!(Some(smallest_k(&h, None)), least.map(Staleness::Exact));
    }

    /// `diagnose` finds no atomicity violation iff the weighted rule
    /// accepts the history at k = 1.
    #[test]
    fn diagnose_judges_atomicity_by_the_weighted_rule(h in arb_weighted_history()) {
        let clean = diagnose(&h, None).atomicity_violation.is_none();
        prop_assert_eq!(clean, ExhaustiveSearch::new(1).verify(&h).is_k_atomic());
    }

    #[test]
    fn reduction_decides_bin_packing(
        sizes in prop::collection::vec(1u64..6, 1..5),
        bins in 1usize..4,
        capacity in 3u64..8,
    ) {
        let bp = BinPacking::new(sizes, bins, capacity).expect("positive sizes");
        let feasible = bp.solve_exact().is_some();
        let instance = reduce_bin_packing(&bp);
        match instance.decide(None) {
            k_atomicity::verify::Verdict::KAtomic { witness } => {
                prop_assert!(feasible, "k-WAV YES on infeasible packing");
                let assignment = extract_packing(&bp, &instance.history, witness.as_slice())
                    .expect("witness covers instance");
                prop_assert!(bp.is_feasible_assignment(&assignment));
            }
            k_atomicity::verify::Verdict::NotKAtomic => prop_assert!(!feasible),
            k_atomicity::verify::Verdict::Inconclusive => {
                return Err(TestCaseError::fail("unbounded search was inconclusive"))
            }
            k_atomicity::verify::Verdict::Consistent => {
                return Err(TestCaseError::fail(
                    "k-WAV oracle must carry a witness, not a bare Consistent",
                ))
            }
        }
    }

    #[test]
    fn oracle_consistency_between_weight_representations(h in arb_weighted_history()) {
        // Expressing a weight-w write as w is NOT the same as w unit
        // writes (the reduction needs genuine weights); but the oracle must
        // at least respect that the weighted verdict with k = total weight
        // is YES while k = 0 is NO when reads exist.
        if h.num_reads() > 0 {
            prop_assert!(!ExhaustiveSearch::new(0).verify(&h).is_k_atomic());
        }
    }
}
