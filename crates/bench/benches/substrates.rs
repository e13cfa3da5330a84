//! Criterion benches for the substrates: history validation and
//! normalisation, zone/chunk computation, the quorum simulator, the exact
//! search oracle, and bin packing (support for experiments E6–E8,
//! `src/bin/exp_*.rs`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kav_core::ExhaustiveSearch;
use kav_core::Verifier;
use kav_history::{chunk_set, clusters, zones, HistoryStats};
use kav_sim::{SimConfig, Simulation};
use kav_weighted::{reduce_bin_packing, BinPacking};
use kav_workloads::{ladder, random_k_atomic, RandomHistoryConfig};

fn bench_history_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("history_pipeline");
    group.sample_size(10);
    for ops in [1_000, 8_000] {
        let raw = random_k_atomic(RandomHistoryConfig { ops, seed: 5, ..Default::default() })
            .to_raw();
        group.bench_with_input(BenchmarkId::new("validate_index", ops), &raw, |b, raw| {
            b.iter(|| raw.clone().into_history().unwrap())
        });
        let history = raw.clone().into_history().unwrap();
        group.bench_with_input(BenchmarkId::new("zones_chunks", ops), &history, |b, h| {
            b.iter(|| {
                let cs = clusters(h);
                let zs = zones(h, &cs);
                chunk_set(&zs)
            })
        });
        group.bench_with_input(BenchmarkId::new("stats", ops), &history, |b, h| {
            b.iter(|| HistoryStats::of(h))
        });
    }
    group.finish();
}

fn bench_simulator(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator");
    group.sample_size(10);
    for ops in [500, 2_000] {
        let config = SimConfig { clients: 8, ops_per_client: ops / 8, seed: 1, ..Default::default() };
        group.bench_with_input(BenchmarkId::from_parameter(ops), &config, |b, cfg| {
            b.iter(|| Simulation::new(*cfg).unwrap().run())
        });
    }
    group.finish();
}

/// E7 shape: the exact oracle explodes exponentially with ladder height
/// plus concurrent decoys, while polynomial 2-AV stays flat.
fn bench_search_oracle(c: &mut Criterion) {
    let mut group = c.benchmark_group("search_oracle");
    group.sample_size(10);
    for k in [3, 5, 7] {
        let h = ladder(k);
        group.bench_with_input(BenchmarkId::new("ladder_exact_k", k), &h, |b, h| {
            b.iter(|| assert!(ExhaustiveSearch::new(k).verify(h).is_k_atomic()))
        });
    }
    group.finish();
}

fn bench_binpacking(c: &mut Criterion) {
    let mut group = c.benchmark_group("binpacking");
    group.sample_size(10);
    for items in [6, 9] {
        let bp = BinPacking::random(items, 3, 8, 7);
        group.bench_with_input(BenchmarkId::new("exact", items), &bp, |b, bp| {
            b.iter(|| bp.solve_exact())
        });
        group.bench_with_input(BenchmarkId::new("reduce", items), &bp, |b, bp| {
            b.iter(|| reduce_bin_packing(bp))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_history_pipeline,
    bench_simulator,
    bench_search_oracle,
    bench_binpacking
);
criterion_main!(benches);
