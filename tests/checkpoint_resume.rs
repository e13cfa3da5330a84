//! Kill-and-resume must be invisible to verdicts: a streaming audit that
//! is checkpointed at an arbitrary point, "crashed" (all in-flight state
//! discarded), serialized through JSON and resumed must finish with
//! reports identical to the uninterrupted audit — on property-generated
//! multi-key streams, at any shard count, across multi-hop snapshot
//! chains. This suite is part of the acceptance gate for the
//! checkpoint/resume subsystem.

use k_atomicity::history::ndjson::StreamRecord;
use k_atomicity::verify::{
    Fzf, GenK, PipelineConfig, PipelineOutput, PipelineSnapshot, StreamPipeline,
};
use k_atomicity::workloads::{
    deep_stale_stream, streaming_workload, DeepStaleConfig, StreamingWorkloadConfig,
};
use proptest::prelude::*;

fn push_all(pipeline: &mut StreamPipeline, records: &[StreamRecord]) {
    for record in records {
        pipeline.push(record.key, record.op());
    }
}

fn uninterrupted(records: &[StreamRecord], config: PipelineConfig) -> PipelineOutput {
    let mut pipeline = StreamPipeline::new(Fzf, config);
    push_all(&mut pipeline, records);
    pipeline.finish()
}

/// Snapshots after `cut` records, "crashes", and resumes through a JSON
/// roundtrip (the exact on-disk path) with `resume_shards` workers.
fn kill_and_resume(
    records: &[StreamRecord],
    config: PipelineConfig,
    cut: usize,
    resume_shards: usize,
    prefix_verified: bool,
) -> PipelineOutput {
    let mut first = StreamPipeline::new(Fzf, config);
    push_all(&mut first, &records[..cut]);
    let json = serde_json::to_string(&first.snapshot()).expect("snapshots serialize");
    drop(first); // the crash: worker threads and buffers are discarded
    let snapshot: PipelineSnapshot =
        serde_json::from_str(&json).expect("checkpoints parse back");
    let resume_config = PipelineConfig { shards: resume_shards, ..config };
    let mut resumed = StreamPipeline::resume(Fzf, resume_config, &snapshot, prefix_verified)
        .expect("own snapshots resume");
    push_all(&mut resumed, &records[cut..]);
    resumed.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline guarantee: killing an audit at any point and resuming
    /// from its checkpoint yields byte-for-byte the uninterrupted per-key
    /// reports — counters, statistics and verdicts — even when the resumed
    /// pipeline uses a different shard count.
    #[test]
    fn kill_and_resume_agrees_with_uninterrupted(
        seed in 0u64..2000,
        keys in 1u64..6,
        shards in 1usize..4,
        resume_shards in 1usize..4,
        window in 8usize..48,
        cut_permille in 0usize..=1000,
    ) {
        let records = streaming_workload(StreamingWorkloadConfig {
            keys,
            ops_per_key: 40,
            k: 2,
            seed,
            ..Default::default()
        });
        let config = PipelineConfig { shards, window, ..Default::default() };
        let baseline = uninterrupted(&records, config);
        let cut = records.len() * cut_permille / 1000;
        let output = kill_and_resume(&records, config, cut, resume_shards, true);
        prop_assert_eq!(&output.keys, &baseline.keys);
        prop_assert_eq!(&output.errors, &baseline.errors);
    }

    /// Snapshot chains compose: two kill/resume hops land on the same
    /// reports as zero or one.
    #[test]
    fn snapshot_chains_compose(
        seed in 0u64..1000,
        first_cut in 0usize..=100,
        second_cut in 0usize..=100,
    ) {
        let records = streaming_workload(StreamingWorkloadConfig {
            keys: 3,
            ops_per_key: 50,
            k: 2,
            seed,
            ..Default::default()
        });
        let config = PipelineConfig { shards: 2, window: 16, ..Default::default() };
        let baseline = uninterrupted(&records, config);

        let a = records.len() * first_cut / 100;
        let b = a + (records.len() - a) * second_cut / 100;
        let mut pipeline = StreamPipeline::new(Fzf, config);
        push_all(&mut pipeline, &records[..a]);
        let hop1 = serde_json::to_string(&pipeline.snapshot()).unwrap();
        drop(pipeline);
        let snapshot: PipelineSnapshot = serde_json::from_str(&hop1).unwrap();
        let mut pipeline = StreamPipeline::resume(Fzf, config, &snapshot, true).unwrap();
        push_all(&mut pipeline, &records[a..b]);
        let hop2 = serde_json::to_string(&pipeline.snapshot()).unwrap();
        drop(pipeline);
        let snapshot: PipelineSnapshot = serde_json::from_str(&hop2).unwrap();
        let mut pipeline = StreamPipeline::resume(Fzf, config, &snapshot, true).unwrap();
        push_all(&mut pipeline, &records[b..]);
        let output = pipeline.finish();
        prop_assert_eq!(&output.keys, &baseline.keys);
        prop_assert_eq!(&output.errors, &baseline.errors);
    }

    /// An unverified resume (e.g. from a non-seekable source) never
    /// upgrades or downgrades soundness the wrong way: every key that
    /// would certify YES reports UNKNOWN instead, and no key changes its
    /// violation status.
    #[test]
    fn unverified_resume_degrades_yes_keys_to_unknown(
        seed in 0u64..1000,
        cut_percent in 0usize..=100,
    ) {
        let records = streaming_workload(StreamingWorkloadConfig {
            keys: 4,
            ops_per_key: 40,
            k: 2,
            seed,
            ..Default::default()
        });
        let config = PipelineConfig { shards: 2, window: 16, ..Default::default() };
        let baseline = uninterrupted(&records, config);
        let cut = records.len() * cut_percent / 100;
        let output = kill_and_resume(&records, config, cut, 2, false);
        prop_assert_eq!(output.keys.len(), baseline.keys.len());
        for ((key, tainted), (base_key, clean)) in output.keys.iter().zip(&baseline.keys) {
            prop_assert_eq!(key, base_key);
            prop_assert!(tainted.resumed_uncertified, "key {}: {}", key, tainted);
            match clean.k_atomic() {
                Some(true) | None => prop_assert_eq!(
                    tainted.k_atomic(), None, "key {}: {}", key, tainted
                ),
                Some(false) => prop_assert_eq!(
                    tainted.k_atomic(), Some(false), "key {}: {}", key, tainted
                ),
            }
            // Everything except certifiability is untouched.
            prop_assert_eq!(tainted.ops, clean.ops);
            prop_assert_eq!(tainted.violations, clean.violations);
            prop_assert_eq!(tainted.horizon_breaches, clean.horizon_breaches);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Kill-and-resume at general k: a genk audit of a deep-stale stream
    /// (true staleness 3) checkpointed at any cut resumes to byte-identical
    /// per-key reports, at k = 3 and across the staleness cliff at k = 2.
    #[test]
    fn kill_and_resume_at_k_three(
        seed in 0u64..500,
        cut_percent in 0usize..=100,
        resume_shards in 1usize..4,
        k in 2u64..=3,
    ) {
        let records = deep_stale_stream(DeepStaleConfig {
            keys: 3,
            ops_per_key: 40,
            k: 3,
            seed,
            ..Default::default()
        });
        let config = PipelineConfig { shards: 2, window: 24, ..Default::default() };
        let verifier = GenK::new(k);

        let mut pipeline = StreamPipeline::new(verifier, config);
        push_all(&mut pipeline, &records);
        let baseline = pipeline.finish();

        let cut = records.len() * cut_percent / 100;
        let mut first = StreamPipeline::new(verifier, config);
        push_all(&mut first, &records[..cut]);
        let json = serde_json::to_string(&first.snapshot()).expect("snapshots serialize");
        drop(first);
        let snapshot: PipelineSnapshot = serde_json::from_str(&json).expect("checkpoints parse");
        prop_assert_eq!(&snapshot.algo, "genk");
        prop_assert_eq!(snapshot.k, k);
        let resume_config = PipelineConfig { shards: resume_shards, ..config };
        let mut resumed = StreamPipeline::resume(verifier, resume_config, &snapshot, true)
            .expect("own snapshots resume");
        push_all(&mut resumed, &records[cut..]);
        let output = resumed.finish();
        prop_assert_eq!(&output.keys, &baseline.keys);
        prop_assert_eq!(&output.errors, &baseline.errors);
        // And the verdicts themselves honour the cliff: NO at k = 2
        // survives any cut, YES at k = 3 only ever degrades to UNKNOWN.
        for (key, report) in &output.keys {
            match k {
                2 => prop_assert_eq!(report.k_atomic(), Some(false), "key {}: {}", key, report),
                _ => prop_assert!(report.k_atomic() != Some(false), "key {}: {}", key, report),
            }
        }
    }

    /// A genk snapshot must not resume under a different verifier or k.
    #[test]
    fn genk_snapshots_reject_mismatched_resumes(seed in 0u64..200) {
        let records = deep_stale_stream(DeepStaleConfig {
            keys: 2,
            ops_per_key: 30,
            k: 3,
            seed,
            ..Default::default()
        });
        let config = PipelineConfig { shards: 2, window: 16, ..Default::default() };
        let mut pipeline = StreamPipeline::new(GenK::new(3), config);
        push_all(&mut pipeline, &records[..records.len() / 2]);
        let snapshot = pipeline.snapshot();
        prop_assert!(StreamPipeline::resume(GenK::new(4), config, &snapshot, true).is_err());
        prop_assert!(StreamPipeline::resume(Fzf, config, &snapshot, true).is_err());
        prop_assert!(StreamPipeline::resume(GenK::new(3), config, &snapshot, true).is_ok());
        pipeline.finish();
    }
}

/// A gap segment that *escalates to the constrained search* must survive a
/// checkpoint hop: the verdict of an escalated window is a search result,
/// not a bound, and resuming mid-stream must reproduce it bit-for-bit.
#[test]
fn escalated_gap_segments_survive_checkpoint_hops() {
    use k_atomicity::history::{HistoryBuilder, Operation, Time, Value};

    // The straddling gadget (forced lower bound 2, witness upper bound 4,
    // true k = 4), time-shifted per repetition; in finish order, ready to
    // stream. At k = 3 every window containing it must escalate and
    // refute.
    let gadget = |base: u64, v0: u64| -> Vec<Operation> {
        vec![
            Operation::write(Value(v0), Time(base), Time(base + 100)),
            Operation::write(Value(v0 + 1), Time(base + 2), Time(base + 102)),
            Operation::write(Value(v0 + 2), Time(base + 4), Time(base + 104)),
            Operation::write(Value(v0 + 3), Time(base + 110), Time(base + 120)),
            Operation::read(Value(v0), Time(base + 122), Time(base + 130)),
            Operation::read(Value(v0 + 2), Time(base + 132), Time(base + 140)),
            Operation::read(Value(v0 + 1), Time(base + 142), Time(base + 150)),
        ]
    };

    // Sanity: this shape really exercises the escalation tier at k = 3.
    let sanity = {
        let mut b = HistoryBuilder::new();
        for op in gadget(0, 1) {
            let (s, f) = (op.start.as_u64(), op.finish.as_u64());
            b = if op.is_write() {
                b.write(op.value.0, s, f)
            } else {
                b.read(op.value.0, s, f)
            };
        }
        b.build().unwrap()
    };
    let (verdict, report) = GenK::new(3).verify_detailed(&sanity);
    assert!(report.escalated, "the gadget must reach the search: {report:?}");
    assert!(!verdict.is_k_atomic(), "true k is 4");

    // Six gadgets on one key (42 records); window 14 puts two gadgets in
    // each sealed segment, so every segment's NO comes from escalation.
    let records: Vec<StreamRecord> = (0..6u64)
        .flat_map(|i| {
            gadget(1000 * i, 10 * i + 1)
                .into_iter()
                .map(|op| StreamRecord::new(7, op))
        })
        .collect();
    let config = PipelineConfig { shards: 2, window: 14, ..Default::default() };
    let verifier = GenK::new(3);

    let mut pipeline = StreamPipeline::new(verifier, config);
    push_all(&mut pipeline, &records);
    let baseline = pipeline.finish();
    let (_, report) = baseline.keys.iter().find(|(key, _)| *key == 7).expect("key 7").clone();
    assert_eq!(report.k_atomic(), Some(false), "escalated windows refute: {report}");
    assert!(report.segments >= 2, "the stream must span several windows: {report}");

    // Kill and resume at cuts that land before, inside (mid-gadget,
    // mid-window) and after escalated segments.
    for cut in [0, 5, 14, 17, 21, 30, 40, records.len()] {
        let mut first = StreamPipeline::new(verifier, config);
        push_all(&mut first, &records[..cut]);
        let json = serde_json::to_string(&first.snapshot()).expect("snapshots serialize");
        drop(first); // the crash
        let snapshot: PipelineSnapshot =
            serde_json::from_str(&json).expect("checkpoints parse");
        let mut resumed = StreamPipeline::resume(verifier, config, &snapshot, true)
            .expect("own snapshots resume");
        push_all(&mut resumed, &records[cut..]);
        let output = resumed.finish();
        assert_eq!(&output.keys, &baseline.keys, "cut at {cut}");
        assert_eq!(&output.errors, &baseline.errors, "cut at {cut}");
    }
}

/// A fault-schedule audit must survive a crash of the *auditor* while the
/// *store under audit* is itself faulting: the partition-heal scenario
/// (replica 0 cut off for most of the run, then a second partition after
/// heal) is streamed through a genk pipeline that is killed and resumed at
/// cuts straddling the heal boundary. Reports must be byte-identical to
/// the uninterrupted audit, and the partition's NO verdict must survive
/// every cut — including an unverified resume.
#[test]
fn fault_schedule_audits_resume_across_partition_heal_boundaries() {
    use k_atomicity::sim::scenario;

    let run = scenario("partition-heal", 3)
        .expect("known scenario")
        .run()
        .expect("matrix scenarios validate");
    let records = run.records;
    let config = PipelineConfig { shards: 2, window: 24, ..Default::default() };
    let verifier = GenK::new(run.manifest.k_bound);

    let mut pipeline = StreamPipeline::new(verifier, config);
    push_all(&mut pipeline, &records);
    let baseline = pipeline.finish();
    // The scenario genuinely bites at this seed: the partition-era
    // staleness refutes k_bound somewhere, so the cut-stability below is
    // exercising a real NO, not a vacuous stream.
    assert!(
        baseline.keys.iter().any(|(_, r)| r.k_atomic() == Some(false)),
        "partition-heal seed 3 must refute k = {}",
        run.manifest.k_bound
    );

    // Cut indices straddling the heal instant (24 ms into the run): the
    // first record recorded after heal, its neighbours, plus the extremes.
    let heal = records
        .iter()
        .position(|r| r.finish.as_u64() >> 20 >= 24_000)
        .unwrap_or(records.len());
    assert!(
        heal > 0 && heal < records.len(),
        "the stream must span the heal boundary (heal index {heal})"
    );
    for cut in [0, heal - 1, heal, (heal + 1).min(records.len()), records.len()] {
        let mut first = StreamPipeline::new(verifier, config);
        push_all(&mut first, &records[..cut]);
        let json = serde_json::to_string(&first.snapshot()).expect("snapshots serialize");
        drop(first); // the auditor crash, mid-partition-history
        let snapshot: PipelineSnapshot =
            serde_json::from_str(&json).expect("checkpoints parse");
        let mut resumed = StreamPipeline::resume(verifier, config, &snapshot, true)
            .expect("own snapshots resume");
        push_all(&mut resumed, &records[cut..]);
        let output = resumed.finish();
        assert_eq!(&output.keys, &baseline.keys, "cut at {cut} (heal at {heal})");
        assert_eq!(&output.errors, &baseline.errors, "cut at {cut}");
    }

    // An unverified resume exactly at the heal boundary keeps every NO.
    let mut first = StreamPipeline::new(verifier, config);
    push_all(&mut first, &records[..heal]);
    let snapshot = first.snapshot();
    drop(first);
    let mut resumed = StreamPipeline::resume(verifier, config, &snapshot, false)
        .expect("own snapshots resume");
    push_all(&mut resumed, &records[heal..]);
    let tainted = resumed.finish();
    for ((key, t), (_, b)) in tainted.keys.iter().zip(&baseline.keys) {
        if b.k_atomic() == Some(false) {
            assert_eq!(
                t.k_atomic(),
                Some(false),
                "key {key}: NO must survive an unverified resume at the heal"
            );
        }
    }
}

/// Checkpoint files carry an audit across crashes: an audit that writes a
/// full snapshot every 4 records through [`CheckpointWriter`], is killed
/// after checkpoints at several points, and resumes from the file —
/// through a second kill-and-resume hop, each hop re-reading the NDJSON
/// prefix from a *differently chunked* source than the previous one —
/// must finish with reports byte-identical to the uninterrupted audit.
///
/// [`CheckpointWriter`]: k_atomicity::verify::CheckpointWriter
#[test]
fn checkpoint_files_resume_across_kill_boundaries() {
    use k_atomicity::history::fxhash::Fingerprint;
    use k_atomicity::history::ndjson;
    use k_atomicity::verify::{read_checkpoint, CheckpointWriter, SourcePosition};

    let records = streaming_workload(StreamingWorkloadConfig {
        keys: 3,
        ops_per_key: 40,
        k: 2,
        seed: 11,
        ..Default::default()
    });
    let config = PipelineConfig { shards: 2, window: 16, ..Default::default() };
    let baseline = uninterrupted(&records, config);

    // The stream as its on-disk NDJSON bytes: the checkpoint fingerprints
    // must match what a prefix re-read would produce, however the bytes
    // arrive.
    let doc: String = records.iter().map(|r| ndjson::to_line(r) + "\n").collect();
    let dir = std::env::temp_dir().join("kav_kill_resume_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("audit.ckpt");
    let path = path.to_str().unwrap();

    // Checkpoint every 4 records; each hop resumes the last checkpoint
    // before its kill, and its writer continues the version chain.
    let drive = |from: usize, until: usize, version: u64| {
        // The whole slice at once, or 7-byte reads (a pipe or stdin).
        let mut whole = ndjson::SliceReader::with_fingerprint(doc.as_bytes(), Fingerprint::new());
        let mut chunked = ndjson::Reader::with_fingerprint(
            std::io::BufReader::with_capacity(7, doc.as_bytes()),
            Fingerprint::new(),
        );
        let mut pipeline = if from == 0 {
            StreamPipeline::new(Fzf, config)
        } else {
            let checkpoint = read_checkpoint(path).expect("checkpoint reads back");
            assert_eq!(checkpoint.version, version);
            assert_eq!(checkpoint.source.lines, from as u64);
            // Alternate which source re-proves the prefix — the hop is
            // only sound because both produce the same fingerprint chain.
            let replayed = if version.is_multiple_of(2) {
                whole.skip_raw_lines(from as u64).unwrap();
                whole.fingerprint()
            } else {
                chunked.skip_raw_lines(from as u64).unwrap();
                chunked.fingerprint()
            };
            assert_eq!(
                replayed,
                Some(checkpoint.source.fingerprint),
                "prefix fingerprint must verify on either source"
            );
            StreamPipeline::resume(Fzf, config, &checkpoint.pipeline, true)
                .expect("own checkpoints resume")
        };
        let mut writer = CheckpointWriter::starting_at(path, version);
        let mut fp = Fingerprint::new();
        for (i, record) in records.iter().enumerate().take(until) {
            let line = ndjson::to_line(record) + "\n";
            fp.update(line.as_bytes());
            if i < from {
                continue; // already audited before the kill
            }
            pipeline.push(record.key, record.op());
            if (i + 1) % 4 == 0 {
                let source = SourcePosition {
                    lines: (i + 1) as u64,
                    fingerprint: fp.value(),
                    malformed: 0,
                    malformed_samples: Vec::new(),
                };
                writer.write(source, pipeline.snapshot()).expect("checkpoints write");
            }
        }
        (pipeline, writer.version())
    };

    for (first_kill, second_kill) in [(12, 24), (4, 36), (24, 28), (36, 40)] {
        let (pipeline, v1) = drive(0, first_kill, 0);
        drop(pipeline); // the first crash; only the checkpoint file survives
        let (pipeline, v2) = drive(first_kill, second_kill, v1);
        drop(pipeline); // the second crash
        let (pipeline, _) = drive(second_kill, records.len(), v2);
        let output = pipeline.finish();
        assert_eq!(&output.keys, &baseline.keys, "kills at {first_kill}/{second_kill}");
        assert_eq!(&output.errors, &baseline.errors, "kills at {first_kill}/{second_kill}");
    }
    std::fs::remove_file(path).ok();
}

/// Deterministic spot check that a snapshot is stable: snapshotting twice
/// without pushes yields identical bytes, and resume restores ops_routed.
#[test]
fn snapshots_are_deterministic_and_restore_position() {
    let records = streaming_workload(StreamingWorkloadConfig {
        keys: 3,
        ops_per_key: 30,
        k: 2,
        seed: 9,
        ..Default::default()
    });
    let config = PipelineConfig { shards: 2, window: 16, ..Default::default() };
    let mut pipeline = StreamPipeline::new(Fzf, config);
    push_all(&mut pipeline, &records[..records.len() / 2]);
    let first = serde_json::to_string(&pipeline.snapshot()).unwrap();
    let second = serde_json::to_string(&pipeline.snapshot()).unwrap();
    assert_eq!(first, second, "probing must not perturb state");
    let snapshot: PipelineSnapshot = serde_json::from_str(&first).unwrap();
    assert_eq!(snapshot.ops_routed, (records.len() / 2) as u64);
    assert_eq!(snapshot.algo, "fzf");
    assert_eq!(snapshot.k, 2);
    let resumed = StreamPipeline::resume(Fzf, config, &snapshot, true).unwrap();
    assert_eq!(resumed.ops_routed(), (records.len() / 2) as u64);
    resumed.finish();
    pipeline.finish();
}

// ---------------------------------------------------------------------------
// Fleet kill-and-rebalance: a worker process dying mid-audit must be as
// invisible as a single-process kill-and-resume — the coordinator hands the
// dead worker's ranges to survivors from the last acknowledged checkpoint
// plus its replay buffer, and the merged report stays byte-identical. When
// the replay chain is NOT re-feedable, YES must degrade to UNKNOWN (sticky)
// while proven violations survive: soundness is never traded for liveness.
// ---------------------------------------------------------------------------

mod fleet {
    use super::*;
    use k_atomicity::history::frame::KeyRange;
    use k_atomicity::verify::{
        fleet_verdict, worker_loop, FleetConfig, FleetCoordinator, FleetSummary, GenK,
        ModelId, Verifier, WorkerLink,
    };
    use std::net::Shutdown;
    use std::os::unix::net::UnixStream;
    use std::thread::JoinHandle;

    /// A killable in-process worker: shutting down the kept socket clone is
    /// the in-process analogue of SIGKILL — the worker loop dies instantly,
    /// taking all unacknowledged state with it, and the coordinator sees
    /// only a dead transport.
    struct Worker {
        kill: UnixStream,
        handle: JoinHandle<()>,
    }

    impl Worker {
        fn kill(&self) {
            self.kill.shutdown(Shutdown::Both).expect("socket shutdown");
        }
    }

    fn spawn_workers<V: Verifier + Clone + Send + 'static>(
        verifier: V,
        workers: usize,
    ) -> (Vec<WorkerLink>, Vec<Worker>) {
        let mut links = Vec::with_capacity(workers);
        let mut spawned = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (coordinator_side, worker_side) = UnixStream::pair().expect("socketpair");
            let kill = worker_side.try_clone().expect("clone for kill");
            let v = verifier.clone();
            let handle = std::thread::spawn(move || {
                let input = worker_side.try_clone().expect("clone worker socket");
                let _ = worker_loop(v, input, worker_side);
            });
            links.push(WorkerLink {
                writer: Box::new(coordinator_side.try_clone().expect("clone link")),
                reader: Box::new(coordinator_side),
            });
            spawned.push(Worker { kill, handle });
        }
        (links, spawned)
    }

    fn fleet_config<V: Verifier>(verifier: &V, window: usize, replay_cap: usize) -> FleetConfig {
        FleetConfig {
            algo: verifier.name().to_owned(),
            model: ModelId::KAtomic,
            k: verifier.k(),
            window,
            horizon: None,
            batch: 5,
            checkpoint_every: 0,
            replay_cap,
        }
    }

    /// Drives `records` through a fleet, checkpointing at `snapshot_at` and
    /// shutting down `victim` at `kill_at` (record indices).
    #[allow(clippy::too_many_arguments)]
    fn run_with_kill<V: Verifier + Clone + Send + 'static>(
        verifier: V,
        workers: usize,
        window: usize,
        replay_cap: usize,
        records: &[StreamRecord],
        snapshot_at: Option<usize>,
        kill_at: usize,
        victim: usize,
    ) -> (PipelineOutput, FleetSummary) {
        let (links, spawned) = spawn_workers(verifier.clone(), workers);
        let mut fleet =
            FleetCoordinator::new(fleet_config(&verifier, window, replay_cap), links)
                .expect("fleet start");
        for (i, record) in records.iter().enumerate() {
            if snapshot_at == Some(i) {
                fleet.snapshot_fleet().expect("mid-stream fleet checkpoint");
            }
            if i == kill_at {
                spawned[victim].kill();
            }
            fleet.push(record.key, record.op()).expect("push survives a dead worker");
        }
        let (output, summary) = fleet.finish().expect("fleet finish");
        for worker in spawned {
            let _ = worker.handle.join();
        }
        (output, summary)
    }

    /// SIGKILL-equivalent cuts at 25/50/75%: the re-assigned shard resumes
    /// from the last acked checkpoint plus the replay, and the fleet report
    /// is byte-identical to the undisturbed single-process audit — the
    /// pre-kill violations (true staleness 3, audited at k = 2) included.
    #[test]
    fn kill_and_rebalance_is_invisible_at_any_cut() {
        let records = deep_stale_stream(DeepStaleConfig {
            keys: 4,
            ops_per_key: 40,
            k: 3,
            seed: 17,
            ..Default::default()
        });
        let verifier = GenK::new(2);
        let window = 24;
        let mut baseline_pipe = StreamPipeline::new(
            verifier,
            PipelineConfig { shards: 2, window, ..Default::default() },
        );
        push_all(&mut baseline_pipe, &records);
        let baseline = baseline_pipe.finish();
        assert_eq!(baseline.all_k_atomic(), Some(false), "staleness 3 refutes k = 2");

        for cut_percent in [25usize, 50, 75] {
            let cut = records.len() * cut_percent / 100;
            let (output, summary) = run_with_kill(
                verifier,
                3,
                window,
                1 << 20,
                &records,
                Some(cut / 2),
                cut,
                cut_percent % 3, // vary which worker dies
            );
            assert_eq!(output.keys, baseline.keys, "kill at {cut_percent}%");
            assert_eq!(output.errors, baseline.errors, "kill at {cut_percent}%");
            assert!(summary.hand_offs >= 1, "the death must actually rebalance");
            assert_eq!(
                summary.uncertified_hand_offs, 0,
                "an intact replay chain keeps the hand-off certified"
            );
            assert_eq!(output.all_k_atomic(), Some(false), "pre-kill violations survive");
        }
    }

    /// When the replay buffer overflowed before the kill, the hand-off is
    /// unverifiable: the dead worker's keys are tainted (YES → UNKNOWN,
    /// sticky), no violation is ever invented, and untouched shards keep
    /// their certified YES.
    #[test]
    fn unverifiable_hand_off_degrades_yes_to_unknown() {
        let records = deep_stale_stream(DeepStaleConfig {
            keys: 8,
            ops_per_key: 30,
            k: 2,
            seed: 5,
            ..Default::default()
        });
        let verifier = GenK::new(3); // the stream is 2-atomic: all YES
        let window = 24;
        let mut baseline_pipe = StreamPipeline::new(
            verifier,
            PipelineConfig { shards: 2, window, ..Default::default() },
        );
        push_all(&mut baseline_pipe, &records);
        let baseline = baseline_pipe.finish();
        assert_eq!(baseline.all_k_atomic(), Some(true), "the undisturbed audit certifies");

        let kill_at = records.len() * 3 / 4;
        let (output, summary) =
            run_with_kill(verifier, 2, window, 8, &records, None, kill_at, 0);
        assert!(summary.hand_offs >= 1);
        assert!(
            summary.uncertified_hand_offs >= 1,
            "an overflowed replay cannot certify the hand-off"
        );
        assert!(
            summary.frames_dropped > 0,
            "auditing across the gap could invent violations, so frames must drop"
        );
        assert_eq!(
            fleet_verdict(&output, &summary),
            None,
            "a lost replay never certifies YES"
        );
        // With no acked checkpoint, the dead range's audit is gone
        // entirely; what remains must be the untouched shard's certified
        // YES — and nothing may have been promoted to a violation.
        let dead_range = KeyRange::partition(2)[0];
        let mut certified = 0usize;
        for (key, report) in &output.keys {
            assert_ne!(report.k_atomic(), Some(false), "a gap must not invent a violation");
            if !dead_range.contains(*key) && report.k_atomic() == Some(true) {
                certified += 1;
            }
        }
        assert!(certified >= 1, "untouched shards keep their certified YES");
    }

    /// Violations already captured in an acknowledged fleet checkpoint
    /// survive even an unverifiable hand-off: the tainted resume keeps NO
    /// while refusing to certify anything else.
    #[test]
    fn acked_checkpoint_survives_an_unverifiable_hand_off() {
        let records = deep_stale_stream(DeepStaleConfig {
            keys: 4,
            ops_per_key: 40,
            k: 3,
            seed: 23,
            ..Default::default()
        });
        let verifier = GenK::new(2);
        let window = 24;
        let snapshot_at = records.len() * 3 / 5;
        let kill_at = records.len() * 9 / 10;

        // Which keys have a proven NO by the checkpoint cut? Those must
        // survive the broken hand-off no matter what.
        let mut prefix_pipe = StreamPipeline::new(
            verifier,
            PipelineConfig { shards: 2, window, ..Default::default() },
        );
        push_all(&mut prefix_pipe, &records[..snapshot_at]);
        let prefix = prefix_pipe.finish();
        let dead_range = KeyRange::partition(2)[0];
        let proven: Vec<u64> = prefix
            .keys
            .iter()
            .filter(|(key, report)| {
                dead_range.contains(*key) && report.k_atomic() == Some(false)
            })
            .map(|(key, _)| *key)
            .collect();
        assert!(
            !proven.is_empty(),
            "seed must plant a violation on the dead range before the checkpoint"
        );

        // Replay cap 8 overflows in the 30% of the stream after the
        // checkpoint, so the hand-off resumes the acked snapshot unverified.
        let (output, summary) =
            run_with_kill(verifier, 2, window, 8, &records, Some(snapshot_at), kill_at, 0);
        assert!(summary.uncertified_hand_offs >= 1, "the hand-off must be the broken kind");
        assert_ne!(
            fleet_verdict(&output, &summary),
            Some(true),
            "a broken hand-off bars certification"
        );
        for key in proven {
            let (_, report) = output
                .keys
                .iter()
                .find(|(k, _)| *k == key)
                .expect("checkpointed keys stay in the report");
            assert_eq!(
                report.k_atomic(),
                Some(false),
                "key {key}: a checkpointed violation survives the broken hand-off"
            );
        }
    }
}
