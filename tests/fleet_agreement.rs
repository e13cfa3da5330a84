//! Distribution must be invisible: a coordinator fanning a stream over
//! worker processes has to finish with reports **byte-identical** to the
//! single-process [`StreamPipeline`] on the same records — for any worker
//! count, any `k`, either ingest encoding (NDJSON or binary frames), and
//! across mid-stream checkpoints and hot-shard splits. §II-B guarantees
//! this is achievable (per-key verdicts ignore placement); this suite is
//! the fleet determinism gate that holds the implementation to it.
//!
//! The workers here are real [`worker_loop`]s speaking the full wire
//! protocol over socket pairs — only the process boundary is elided.
//!
//! [`StreamPipeline`]: k_atomicity::verify::StreamPipeline
//! [`worker_loop`]: k_atomicity::verify::worker_loop

use k_atomicity::history::frame::{FrameReader, FrameWriter};
use k_atomicity::history::ndjson::{self, StreamRecord};
use k_atomicity::verify::{
    worker_loop, FleetConfig, FleetCoordinator, FleetSummary, Fzf, GenK, GkOneAv, KeyError,
    KeyReport, ModelId, PipelineConfig, PipelineOutput, PipelineSnapshot, SnapshotFragments,
    StreamPipeline, Verifier, WorkerLink,
};
use k_atomicity::workloads::{streaming_workload, StreamingWorkloadConfig};
use proptest::prelude::*;
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::thread::JoinHandle;

/// Spawns `workers` worker loops on socket pairs, returning the
/// coordinator-side links, the join handles, and each worker's socket,
/// whose shutdown kills the worker.
fn spawn_workers<V: Verifier + Clone + Send + 'static>(
    verifier: V,
    workers: usize,
) -> (Vec<WorkerLink>, Vec<JoinHandle<()>>, Vec<UnixStream>) {
    let mut links = Vec::with_capacity(workers);
    let mut handles = Vec::with_capacity(workers);
    let mut kills = Vec::with_capacity(workers);
    for _ in 0..workers {
        let (coordinator_side, worker_side) = UnixStream::pair().expect("socketpair");
        kills.push(worker_side.try_clone().expect("clone worker socket"));
        let v = verifier.clone();
        handles.push(std::thread::spawn(move || {
            let input = worker_side.try_clone().expect("clone worker socket");
            // Normal shutdown is Ok(()); a dropped coordinator surfaces
            // as Disconnected, which is also a clean worker exit here.
            let _ = worker_loop(v, input, worker_side);
        }));
        links.push(WorkerLink {
            writer: Box::new(coordinator_side.try_clone().expect("clone coordinator socket")),
            reader: Box::new(coordinator_side),
        });
    }
    (links, handles, kills)
}

fn fleet_config<V: Verifier>(verifier: &V, window: usize) -> FleetConfig {
    FleetConfig {
        algo: verifier.name().to_owned(),
        model: ModelId::KAtomic,
        k: verifier.k(),
        window,
        horizon: None,
        batch: 7, // deliberately off-stride so batches straddle cuts
        checkpoint_every: 0,
        replay_cap: 1 << 20,
    }
}

/// Runs `records` through a real fleet, snapshotting at each index in
/// `cuts` (and splitting the hottest shard at `split_at`, if any).
fn fleet_run<V: Verifier + Clone + Send + 'static>(
    verifier: V,
    workers: usize,
    window: usize,
    records: &[StreamRecord],
    cuts: &[usize],
    split_at: Option<usize>,
) -> (PipelineOutput, FleetSummary, Vec<SnapshotFragments>) {
    let (links, handles, _) = spawn_workers(verifier.clone(), workers);
    let mut fleet =
        FleetCoordinator::new(fleet_config(&verifier, window), links).expect("fleet start");
    let mut snapshots = Vec::new();
    for (i, record) in records.iter().enumerate() {
        if let Some(split) = split_at {
            if split == i {
                fleet.split_hottest().expect("split");
            }
        }
        if cuts.contains(&i) {
            snapshots.push(fleet.snapshot_fleet().expect("fleet snapshot"));
        }
        fleet.push(record.key, record.op()).expect("push");
    }
    let (output, summary) = fleet.finish().expect("fleet finish");
    for handle in handles {
        handle.join().expect("worker thread");
    }
    (output, summary, snapshots)
}

/// The single-process reference: same records, same cuts.
fn single_run<V: Verifier + Clone + Send + 'static>(
    verifier: V,
    window: usize,
    records: &[StreamRecord],
    cuts: &[usize],
) -> (PipelineOutput, Vec<PipelineSnapshot>) {
    let mut pipeline = StreamPipeline::new(
        verifier,
        PipelineConfig { shards: 2, window, ..Default::default() },
    );
    let mut snapshots = Vec::new();
    for (i, record) in records.iter().enumerate() {
        if cuts.contains(&i) {
            snapshots.push(pipeline.snapshot());
        }
        pipeline.push(record.key, record.op());
    }
    (pipeline.finish(), snapshots)
}

/// Byte-identity of finished outputs, via the serialized report vectors
/// (the same shapes the wire protocol carries).
fn serialize_output(output: &PipelineOutput) -> String {
    let keys: Vec<KeyReport> = output
        .keys
        .iter()
        .map(|(key, report)| KeyReport { key: *key, report: report.clone() })
        .collect();
    let errors: Vec<KeyError> = output
        .errors
        .iter()
        .map(|(key, error)| KeyError { key: *key, error: error.clone() })
        .collect();
    format!(
        "{}\n{}",
        serde_json::to_string(&keys).unwrap(),
        serde_json::to_string(&errors).unwrap()
    )
}

fn assert_outputs_identical(fleet: &PipelineOutput, single: &PipelineOutput, ctx: &str) {
    assert_eq!(
        serialize_output(fleet),
        serialize_output(single),
        "fleet output must be byte-identical to single-process ({ctx})"
    );
    assert_eq!(fleet.all_k_atomic(), single.all_k_atomic(), "{ctx}");
}

/// A fleet snapshot as the JSON a checkpoint file holds.
fn fleet_json(snapshot: &SnapshotFragments) -> String {
    let mut out = Vec::new();
    snapshot.write_json(&mut out).unwrap();
    String::from_utf8(out).unwrap()
}

/// Roundtrips records through the chosen on-disk encoding, so the fleet
/// ingests exactly what a `kav serve` invocation would decode.
fn through_encoding(records: &[StreamRecord], binary: bool) -> Vec<StreamRecord> {
    if binary {
        let mut writer = FrameWriter::new(Vec::new());
        for record in records {
            writer.write_record(record).unwrap();
        }
        let bytes = writer.finish().unwrap();
        FrameReader::new(&bytes).unwrap().collect::<Result<_, _>>().unwrap()
    } else {
        let doc: String = records.iter().map(|r| ndjson::to_line(r) + "\n").collect();
        ndjson::Reader::new(doc.as_bytes()).collect::<Result<_, _>>().unwrap()
    }
}

fn workload(keys: u64, ops_per_key: usize, k: u64, seed: u64) -> Vec<StreamRecord> {
    streaming_workload(StreamingWorkloadConfig {
        keys,
        ops_per_key,
        k,
        spread: 3,
        seed,
        ..Default::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The determinism gate: workers {1,2,4} × k {1,3} × both encodings,
    /// with two mid-stream fleet checkpoints that must equal the
    /// single-process snapshots at the same cuts.
    #[test]
    fn fleet_report_is_byte_identical_to_single_process(
        workers_pick in 0usize..3,
        use_k3 in any::<bool>(),
        binary in any::<bool>(),
        seed in 0u64..1_000,
    ) {
        let workers = [1, 2, 4][workers_pick];
        let k = if use_k3 { 3 } else { 1 };
        let records = through_encoding(&workload(12, 40, k, seed), binary);
        let cuts = [records.len() / 3, 2 * records.len() / 3];
        let window = 8;

        let run = |records: &[StreamRecord], cuts: &[usize]| {
            if use_k3 {
                let v = GenK::new(3);
                (fleet_run(v, workers, window, records, cuts, None),
                 single_run(v, window, records, cuts))
            } else {
                let v = GkOneAv;
                (fleet_run(v, workers, window, records, cuts, None),
                 single_run(GkOneAv, window, records, cuts))
            }
        };
        let ((fleet, summary, fleet_snaps), (single, single_snaps)) = run(&records, &cuts);

        let ctx = format!("workers={workers} k={k} binary={binary} seed={seed}");
        assert_outputs_identical(&fleet, &single, &ctx);
        prop_assert_eq!(summary.workers, workers);
        prop_assert_eq!(summary.hand_offs, 0);
        prop_assert_eq!(summary.uncertified_hand_offs, 0);
        // Fleet checkpoints are ordinary checkpoints: byte-identical to
        // the single-process snapshot at the same consistent cut.
        prop_assert_eq!(fleet_snaps.len(), single_snaps.len());
        for (fleet_snap, single_snap) in fleet_snaps.iter().zip(&single_snaps) {
            prop_assert_eq!(
                fleet_json(fleet_snap),
                serde_json::to_string(single_snap).unwrap(),
                "merged fleet checkpoint differs from single-process ({})", ctx
            );
        }
    }

    /// Splitting the hottest shard mid-stream re-homes state with a
    /// verified chain: the final report is still byte-identical and
    /// nothing is tainted.
    #[test]
    fn hot_shard_split_preserves_the_report(
        workers_pick in 0usize..2,
        seed in 0u64..1_000,
        split_frac in 1usize..4,
    ) {
        let workers = [2, 4][workers_pick];
        let records = workload(10, 30, 2, seed);
        let split_at = records.len() * split_frac / 4;
        let window = 8;
        let (fleet, summary, _) =
            fleet_run(Fzf, workers, window, &records, &[], Some(split_at));
        let (single, _) = single_run(Fzf, window, &records, &[]);
        assert_outputs_identical(&fleet, &single, &format!("split at {split_at}"));
        prop_assert_eq!(summary.splits, 1);
        prop_assert_eq!(summary.ranges, workers.next_power_of_two() + 1);
        prop_assert_eq!(summary.uncertified_hand_offs, 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Trust is state: after an unverified resume (the prefix could not be
    /// re-read), a worker killed at any point hands its ranges off with
    /// their taint, so no key ends more certain than in the single-process
    /// audit resumed the same way — whether the kill comes before the
    /// range's first probe or after it.
    #[test]
    fn an_unverified_resume_stays_unverified_through_a_kill(
        workers in 2usize..4,
        victim in 0usize..3,
        seed in 0u64..1_000,
        cut_frac in 1usize..4,
        kill_frac in 0usize..8,
        probe in any::<bool>(),
    ) {
        let (verifier, window) = (GkOneAv, 8);
        let records = workload(8, 30, 1, seed);
        let cut = records.len() * cut_frac / 4;
        let (prefix, rest) = records.split_at(cut);
        let config = PipelineConfig { shards: 2, window, ..Default::default() };
        let mut checkpointed = StreamPipeline::new(verifier, config);
        for record in prefix {
            checkpointed.push(record.key, record.op());
        }
        let base = checkpointed.snapshot();
        checkpointed.finish();

        let mut single = StreamPipeline::resume(verifier, config, &base, false).unwrap();
        for record in rest {
            single.push(record.key, record.op());
        }
        let single = single.finish();

        let (links, handles, kills) = spawn_workers(verifier, workers);
        let config = fleet_config(&verifier, window);
        let mut fleet =
            FleetCoordinator::resume(config, links, &base, false).expect("fleet resume");
        let (kill_at, probe_at) = (rest.len() * kill_frac / 8, rest.len() / 8);
        for (i, record) in rest.iter().enumerate() {
            if probe && i == probe_at {
                fleet.snapshot_fleet().expect("fleet snapshot");
            }
            if i == kill_at {
                kills[victim % workers].shutdown(Shutdown::Both).expect("kill");
            }
            fleet.push(record.key, record.op()).expect("push survives a dead worker");
        }
        let (output, summary) = fleet.finish().expect("fleet finish");
        for handle in handles {
            handle.join().expect("worker thread");
        }
        prop_assert_eq!(summary.hand_offs >= 1, true);
        prop_assert_eq!(output.keys.len(), single.keys.len());
        for ((key, got), (_, want)) in output.keys.iter().zip(&single.keys) {
            prop_assert!(
                got.k_atomic() == want.k_atomic() || got.k_atomic().is_none(),
                "key {}: fleet says {:?}, the single process {:?}",
                key, got.k_atomic(), want.k_atomic()
            );
        }
    }
}

/// A fleet must prove violations exactly where the single process does:
/// seeded non-atomic workloads keep their NO through distribution.
#[test]
fn fleet_preserves_violations() {
    for seed in [7u64, 21, 99] {
        let records = workload(6, 60, 1, seed);
        let (single, _) = single_run(GkOneAv, 4, &records, &[]);
        let (fleet, _, _) = fleet_run(GkOneAv, 3, 4, &records, &[], None);
        assert_outputs_identical(&fleet, &single, &format!("seed {seed}"));
    }
}
