//! Criterion benches for the verification algorithms (the code paths of
//! experiments E2–E5 and E9, `src/bin/exp_*.rs`): LBT and FZF scaling on
//! practical and adversarial inputs, and the GK 1-AV baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kav_core::{CandidateOrder, Fzf, GkOneAv, Lbt, LbtConfig, Verifier};
use kav_workloads::{random_k_atomic, staircase, RandomHistoryConfig};

fn practical(ops: usize) -> kav_history::History {
    random_k_atomic(RandomHistoryConfig {
        ops,
        k: 2,
        spread: 3,
        seed: 42,
        ..Default::default()
    })
}

/// E2: LBT on practical histories (small c) — expected quasilinear.
fn bench_lbt_practical(c: &mut Criterion) {
    let mut group = c.benchmark_group("lbt_practical");
    group.sample_size(10);
    for ops in [1_000, 4_000, 16_000] {
        let h = practical(ops);
        group.bench_with_input(BenchmarkId::from_parameter(ops), &h, |b, h| {
            b.iter(|| {
                assert!(Lbt::new().verify(h).is_k_atomic());
            })
        });
    }
    group.finish();
}

/// E3: LBT on the adversarial staircase — quadratic for the default
/// (increasing-finish) candidate order.
fn bench_lbt_staircase(c: &mut Criterion) {
    let mut group = c.benchmark_group("lbt_staircase");
    group.sample_size(10);
    for steps in [250, 500, 1_000] {
        let h = staircase(steps);
        group.bench_with_input(BenchmarkId::new("increasing", steps), &h, |b, h| {
            b.iter(|| assert!(Lbt::new().verify(h).is_k_atomic()))
        });
        let dec = Lbt::with_config(LbtConfig {
            candidate_order: CandidateOrder::DecreasingFinish,
            ..LbtConfig::default()
        });
        group.bench_with_input(BenchmarkId::new("decreasing", steps), &h, |b, h| {
            b.iter(|| assert!(dec.verify(h).is_k_atomic()))
        });
    }
    group.finish();
}

/// E4: FZF on both input families — quasilinear everywhere (Theorem 4.6).
fn bench_fzf(c: &mut Criterion) {
    let mut group = c.benchmark_group("fzf");
    group.sample_size(10);
    for ops in [1_000, 4_000, 16_000] {
        let h = practical(ops);
        group.bench_with_input(BenchmarkId::new("practical", ops), &h, |b, h| {
            b.iter(|| assert!(Fzf.verify(h).is_k_atomic()))
        });
    }
    for steps in [500, 2_000, 8_000] {
        let h = staircase(steps);
        group.bench_with_input(BenchmarkId::new("staircase", steps), &h, |b, h| {
            b.iter(|| assert!(Fzf.verify(h).is_k_atomic()))
        });
    }
    group.finish();
}

/// E9: the GK 1-AV zone test as the solved-baseline comparison.
fn bench_gk(c: &mut Criterion) {
    let mut group = c.benchmark_group("gk_one_av");
    group.sample_size(10);
    for ops in [1_000, 4_000, 16_000] {
        let h = random_k_atomic(RandomHistoryConfig {
            ops,
            k: 1,
            spread: 2,
            seed: 11,
            ..Default::default()
        });
        group.bench_with_input(BenchmarkId::from_parameter(ops), &h, |b, h| {
            b.iter(|| assert!(GkOneAv.verify(h).is_k_atomic()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_lbt_practical, bench_lbt_staircase, bench_fzf, bench_gk);
criterion_main!(benches);
