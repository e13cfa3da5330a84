//! exp_stream_throughput — the streaming ingest scaling matrix.
//!
//! Three measurements, each across shards × batch size (`batch = 1`
//! reproduces the old per-operation channel sends, so each row's speed-up
//! column is the before/after of the batched-ingest rework):
//!
//! * `fzf` — end-to-end pipeline throughput with the real FZF verifier;
//! * `noop` — a verifier that accepts every segment unseen, leaving
//!   builder bookkeeping + per-segment §II validation + channels;
//! * `drain` — the **ingest ceiling**: workers receive and discard, so
//!   only the ingest architecture (hash, batch, channel) is measured.
//!   This is the number the ROADMAP's "~1.5M ops/s channel-bound ingest"
//!   item referred to; batching is what moves it.
//!
//! On a single-core host the end-to-end rows are bounded by total
//! verification work (threads cannot overlap), so the drain rows carry
//! the ingest-scaling signal.
//!
//! A fourth section measures the **checkpoint axis**: the same fzf
//! pipeline with `checkpoint_every` snapshots written through
//! `CheckpointWriter` (temp-file + rename, like `kav stream
//! --checkpoint`). The run uses a cadence scaled to the preset so several
//! checkpoints actually happen, then reports both the measured overhead
//! at that cadence and the *implied* overhead at the production default
//! cadence (`DEFAULT_CHECKPOINT_EVERY`), computed from the measured
//! per-checkpoint cost — the number the <10% operations budget is judged
//! against (see docs/OPERATIONS.md).
//!
//! A fifth section measures the **general-k axis**: deep-stale workloads
//! (true staleness exactly `k`) streamed at `k ∈ {2, 3, 4}` through the
//! `GenK` bound sandwich and through a budgeted `ExhaustiveSearch` on the
//! same windows — genk's edge over raw search *is* the gap residue it
//! avoids, so the ratio column tracks how often the bounds close.
//!
//! A sixth section measures the **escalation axis** (`escalation[]` in
//! the JSON artifact): deep-stale streams at `k ∈ {3, 4, 5}` through genk
//! at the *default* gap budget, recording sealed segments, UNKNOWN
//! segments and the UNKNOWN rate — the ROADMAP's "~0 UNKNOWN residue"
//! success metric — plus a 201-op straddling gap segment that the old
//! 128-op escalator could only shrug at, now decided by the constrained
//! search with its node count recorded.
//!
//! A seventh section measures the **fleet axis** (`fleet[]` in the JSON
//! artifact): the same fzf stream through a `FleetCoordinator` at 1, 2
//! and 4 workers — in-process `worker_loop` threads on socketpairs, so
//! the row isolates the routing + wire-protocol cost (`kav serve` adds
//! only process spawn and pipe buffering on top). On a single-core host
//! the absolute numbers are serialization-bound; the signal is the
//! fleet-vs-single overhead at workers = 1 and its trend as workers grow.
//!
//! Usage:
//!
//! ```text
//! exp_stream_throughput [--preset smoke|full] [--out BENCH_stream.json]
//! ```
//!
//! `--out` records the matrix as a small JSON document (used by CI's
//! bench-smoke job to archive the performance trajectory).

use kav_bench::{header, row};
use kav_core::{
    worker_loop, CheckpointWriter, ExhaustiveSearch, FleetConfig, FleetCoordinator, Fzf,
    GenK, PipelineConfig, SourcePosition, StreamPipeline, TotalOrder, Verdict, Verifier,
    WorkerLink, DEFAULT_CHECKPOINT_EVERY, DEFAULT_GAP_BUDGET,
};
use kav_history::ndjson::StreamRecord;
use kav_history::{frame, ndjson, History, HistoryBuilder};
use kav_workloads::{
    deep_stale_stream, streaming_workload, DeepStaleConfig, StreamingWorkloadConfig,
};
use std::time::Instant;

/// Accepts every segment without looking: all remaining cost is the
/// pipeline itself (hashing, batching, channel, builder bookkeeping), so
/// this is the cheap-verifier workload that exposes the ingest ceiling.
#[derive(Clone)]
struct NoopVerifier;

impl Verifier for NoopVerifier {
    fn k(&self) -> u64 {
        2
    }
    fn name(&self) -> &'static str {
        "noop"
    }
    fn verify(&self, _: &History) -> Verdict {
        Verdict::KAtomic { witness: TotalOrder::new(vec![]) }
    }
}

struct Measurement {
    verifier: &'static str,
    /// The `k` the verifier decides (the general-k axis varies it; every
    /// other section runs at the historical k = 2).
    k: u64,
    shards: usize,
    window: usize,
    batch: usize,
    ops: usize,
    seconds: f64,
    /// Checkpoint cadence in ops (0 = no checkpointing).
    checkpoint_every: u64,
    /// Checkpoints actually written.
    checkpoints: u64,
}

impl Measurement {
    fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.seconds
    }
}

/// Measures the fzf pipeline with checkpoints written at `every` ops, the
/// exact `kav stream --checkpoint` path (snapshot probe + JSON + atomic
/// replace).
fn measure_checkpointed(records: &[StreamRecord], shards: usize, every: u64) -> Measurement {
    let dir = std::env::temp_dir().join("kav_bench_checkpoints");
    std::fs::create_dir_all(&dir).expect("temp dir for bench checkpoints");
    let path = dir.join(format!("bench_{shards}_{every}.ckpt"));
    let config = PipelineConfig {
        shards,
        window: 256,
        batch: 256,
        checkpoint_every: every,
        ..Default::default()
    };
    let t0 = Instant::now();
    let mut pipeline = StreamPipeline::new(Fzf, config);
    let mut writer = CheckpointWriter::new(&path);
    for (i, record) in records.iter().enumerate() {
        pipeline.push(record.key, record.op());
        if pipeline.checkpoint_due() {
            let snapshot = pipeline.snapshot();
            let source = SourcePosition { lines: i as u64 + 1, ..Default::default() };
            writer.write(source, snapshot).expect("bench checkpoint writes");
        }
    }
    let output = pipeline.finish();
    let seconds = t0.elapsed().as_secs_f64();
    assert!(output.errors.is_empty(), "bench stream must be clean");
    std::fs::remove_file(&path).ok();
    Measurement {
        verifier: "fzf+ckpt",
        k: 2,
        shards,
        window: 256,
        batch: 256,
        ops: records.len(),
        seconds,
        checkpoint_every: every,
        checkpoints: writer.version(),
    }
}

/// Measures the ingest architecture alone: the same shard hash, per-shard
/// batch buffers and bounded channels as `StreamPipeline`, but workers
/// that receive and discard. `batch = 1` is the old per-operation send
/// path; the ratio between the two is the ingest-ceiling speed-up.
fn measure_drain(records: &[StreamRecord], shards: usize, batch: usize) -> Measurement {
    fn shard_of(key: u64, shards: usize) -> usize {
        ((frame::key_hash(key) >> 33) % shards as u64) as usize
    }
    use kav_history::Operation;
    use std::sync::mpsc;
    let t0 = Instant::now();
    let backlog = (4 * 256usize).div_ceil(batch).max(2);
    let channels: Vec<_> = (0..shards)
        .map(|_| {
            let (tx, rx) = mpsc::sync_channel::<Vec<(u64, Operation)>>(backlog);
            let handle = std::thread::spawn(move || {
                let mut received = 0usize;
                while let Ok(batch) = rx.recv() {
                    received += batch.len();
                }
                received
            });
            (tx, handle)
        })
        .collect();
    let mut buffers: Vec<Vec<(u64, Operation)>> =
        (0..shards).map(|_| Vec::with_capacity(batch)).collect();
    for r in records {
        let s = shard_of(r.key, shards);
        buffers[s].push((r.key, r.op()));
        if buffers[s].len() >= batch {
            let full = std::mem::replace(&mut buffers[s], Vec::with_capacity(batch));
            channels[s].0.send(full).expect("drain worker alive");
        }
    }
    for (s, buf) in buffers.into_iter().enumerate() {
        if !buf.is_empty() {
            channels[s].0.send(buf).expect("drain worker alive");
        }
    }
    let mut received = 0usize;
    for (tx, handle) in channels {
        drop(tx);
        received += handle.join().expect("drain worker exits cleanly");
    }
    let seconds = t0.elapsed().as_secs_f64();
    assert_eq!(received, records.len());
    Measurement {
        verifier: "drain",
        k: 2,
        shards,
        window: 256,
        batch,
        ops: records.len(),
        seconds,
        checkpoint_every: 0,
        checkpoints: 0,
    }
}

/// Measures the fleet path: a `FleetCoordinator` routing the stream to
/// `workers` in-process `worker_loop` threads over socketpairs — the
/// exact `kav serve` data plane minus process spawn and pipe buffering.
fn measure_fleet(records: &[StreamRecord], workers: usize) -> Measurement {
    use std::os::unix::net::UnixStream;
    let t0 = Instant::now();
    let mut links = Vec::with_capacity(workers);
    let mut handles = Vec::with_capacity(workers);
    for _ in 0..workers {
        let (coordinator_side, worker_side) = UnixStream::pair().expect("socketpair");
        handles.push(std::thread::spawn(move || {
            let input = worker_side.try_clone().expect("clone worker socket");
            let _ = worker_loop(Fzf, input, worker_side);
        }));
        links.push(WorkerLink {
            writer: Box::new(coordinator_side.try_clone().expect("clone coordinator socket")),
            reader: Box::new(coordinator_side),
        });
    }
    let config = FleetConfig {
        algo: "fzf".to_owned(),
        model: kav_core::ModelId::KAtomic,
        k: 2,
        window: 256,
        horizon: None,
        batch: 256,
        checkpoint_every: 0,
        replay_cap: 1 << 16,
    };
    let mut fleet = FleetCoordinator::new(config, links).expect("fleet start");
    for record in records {
        fleet.push(record.key, record.op()).expect("fleet push");
    }
    let (output, summary) = fleet.finish().expect("fleet finish");
    for handle in handles {
        handle.join().expect("worker thread exits cleanly");
    }
    let seconds = t0.elapsed().as_secs_f64();
    assert!(output.errors.is_empty(), "bench stream must be clean");
    assert_eq!(output.total_ops(), records.len() as u64);
    assert_eq!(summary.hand_offs, 0, "no worker dies in the bench");
    Measurement {
        verifier: "fleet-fzf",
        k: 2,
        shards: workers, // workers, not thread shards, on the fleet rows
        window: 256,
        batch: 256,
        ops: records.len(),
        seconds,
        checkpoint_every: 0,
        checkpoints: 0,
    }
}

fn measure<V: Verifier + Clone + Send + 'static>(
    verifier: V,
    records: &[StreamRecord],
    config: PipelineConfig,
) -> Measurement {
    let t0 = Instant::now();
    let mut pipeline = StreamPipeline::new(verifier.clone(), config);
    for record in records {
        pipeline.push(record.key, record.op());
    }
    let output = pipeline.finish();
    let seconds = t0.elapsed().as_secs_f64();
    assert!(output.errors.is_empty(), "bench stream must be clean");
    assert_eq!(output.total_ops(), records.len() as u64);
    Measurement {
        verifier: verifier.name(),
        k: verifier.k(),
        shards: config.shards,
        window: config.window,
        batch: config.batch,
        ops: records.len(),
        seconds,
        checkpoint_every: 0,
        checkpoints: 0,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
    };
    let preset = get("--preset").unwrap_or_else(|| "full".into());
    let (keys, ops_per_key) = match preset.as_str() {
        "smoke" => (16, 500),
        "full" => (64, 2000),
        other => {
            eprintln!("unknown preset {other:?} (want smoke|full)");
            std::process::exit(2);
        }
    };
    let out = get("--out");

    let records = streaming_workload(StreamingWorkloadConfig {
        keys,
        ops_per_key,
        k: 2,
        spread: 3,
        seed: 42,
        ..Default::default()
    });
    let window = 256;
    println!(
        "## stream ingest throughput ({} ops, {keys} keys, window {window})\n",
        records.len()
    );
    header(&["verifier", "shards", "batch", "ops/s", "vs batch=1"]);

    let mut results: Vec<Measurement> = Vec::new();
    for mode in ["fzf", "noop", "drain"] {
        for shards in [1usize, 2, 4, 8] {
            let mut baseline: Option<f64> = None;
            for batch in [1usize, 64, 256] {
                let config =
                    PipelineConfig { shards, window, batch, ..Default::default() };
                let m = match mode {
                    "fzf" => measure(Fzf, &records, config),
                    "noop" => measure(NoopVerifier, &records, config),
                    _ => measure_drain(&records, shards, batch),
                };
                let speedup = m.ops_per_sec() / *baseline.get_or_insert(m.ops_per_sec());
                row(&[
                    m.verifier.to_string(),
                    shards.to_string(),
                    batch.to_string(),
                    format!("{:.0}", m.ops_per_sec()),
                    format!("{speedup:.2}x"),
                ]);
                results.push(m);
            }
        }
    }

    // Parse axis: decode cost alone, no pipeline — the NDJSON reader over
    // the records' NDJSON bytes vs the binary frame decoder over the same
    // records frame-encoded (`kav stream` maps NDJSON files into the
    // former and `--format binary` files into the latter).
    println!(
        "\n## parse throughput (decoder only, {} records per round)\n",
        records.len()
    );
    header(&["path", "rounds", "ops/s", "vs serde"]);
    let mut ndjson_buf = String::new();
    for r in &records {
        ndjson::write_line_into(r, &mut ndjson_buf);
        ndjson_buf.push('\n');
    }
    let mut frame_writer = frame::FrameWriter::new(Vec::new());
    for r in &records {
        frame_writer.write_record(r).expect("in-memory frame encoding cannot fail");
    }
    let frame_buf = frame_writer.finish().expect("in-memory frame encoding cannot fail");
    let rounds: usize = if preset == "smoke" { 4 } else { 8 };
    let mut parse_rows: Vec<String> = Vec::new();
    let mut serde_ops_per_sec = 0.0f64;
    for path in ["serde", "binary-frame"] {
        let t0 = Instant::now();
        for _ in 0..rounds {
            // Fold the decoded keys so the decode cannot be discarded.
            let decoded: u64 = match path {
                "serde" => ndjson::Reader::new(ndjson_buf.as_bytes())
                    .map(|r| r.expect("bench lines are valid").key)
                    .fold(0, u64::wrapping_add),
                _ => frame::FrameReader::new(&frame_buf)
                    .expect("the frame buffer starts with magic")
                    .map(|r| r.expect("bench frames are valid").key)
                    .fold(0, u64::wrapping_add),
            };
            std::hint::black_box(decoded);
        }
        let seconds = t0.elapsed().as_secs_f64();
        let ops_per_sec = (records.len() * rounds) as f64 / seconds;
        if path == "serde" {
            serde_ops_per_sec = ops_per_sec;
        }
        row(&[
            path.into(),
            rounds.to_string(),
            format!("{ops_per_sec:.0}"),
            format!("{:.2}x", ops_per_sec / serde_ops_per_sec),
        ]);
        parse_rows.push(format!(
            "    {{\"path\":\"{path}\",\"ops\":{},\"rounds\":{rounds},\
             \"seconds\":{seconds:.6},\"ops_per_sec\":{ops_per_sec:.0},\
             \"speedup_vs_serde\":{:.2}}}",
            records.len(),
            ops_per_sec / serde_ops_per_sec,
        ));
    }

    // General-k axis: deep-stale workloads (true staleness exactly k)
    // through the GenK bound sandwich vs a node-budgeted exhaustive
    // search on the same windows. Window 64 keeps sealed segments within
    // MAX_SEARCH_OPS so the search rows measure real search effort, not
    // instant give-ups; the smaller record count bounds the search rows'
    // worst case.
    let genk_keys = (keys / 2).max(2);
    let genk_ops_per_key = (ops_per_key / 2).max(100);
    println!(
        "\n## general-k verification (deep-stale workload, {} ops/key x {genk_keys} keys, \
         window 64)\n",
        genk_ops_per_key
    );
    header(&["k", "verifier", "shards", "ops/s", "vs genk"]);
    for k in [2u64, 3, 4] {
        let records = deep_stale_stream(DeepStaleConfig {
            keys: genk_keys,
            ops_per_key: genk_ops_per_key,
            k,
            seed: 7,
            ..Default::default()
        });
        let config = PipelineConfig { shards: 4, window: 64, batch: 256, ..Default::default() };
        let genk = measure(GenK::new(k), &records, config);
        let search =
            measure(ExhaustiveSearch::with_node_budget(k, 20_000), &records, config);
        let baseline = genk.ops_per_sec();
        for m in [genk, search] {
            row(&[
                k.to_string(),
                m.verifier.to_string(),
                m.shards.to_string(),
                format!("{:.0}", m.ops_per_sec()),
                format!("{:.2}x", m.ops_per_sec() / baseline),
            ]);
            results.push(m);
        }
    }

    // Escalation axis: the UNKNOWN residue of the constrained escalation
    // tier. Deep-stale streams at k in {3, 4, 5} run genk at the DEFAULT
    // gap budget (exactly what `kav stream --algo genk` does with no
    // budget flag); the success metric is an UNKNOWN rate of ~0 across
    // sealed segments. A final row streams a 201-op straddling gap
    // segment — past the retired 128-op oracle ceiling — and records the
    // constrained-search effort that decides it.
    println!(
        "\n## escalation residue (genk @ default gap budget {DEFAULT_GAP_BUDGET})\n"
    );
    header(&["workload", "k", "segments", "unknown", "unknown rate", "ops/s"]);
    let mut escalation_rows: Vec<String> = Vec::new();
    for k in [3u64, 4, 5] {
        let records = deep_stale_stream(DeepStaleConfig {
            keys: genk_keys,
            ops_per_key: genk_ops_per_key,
            k,
            seed: 11,
            ..Default::default()
        });
        let config =
            PipelineConfig { shards: 4, window: 64, batch: 256, ..Default::default() };
        let t0 = Instant::now();
        let mut pipeline = StreamPipeline::new(GenK::new(k), config);
        for record in &records {
            pipeline.push(record.key, record.op());
        }
        let output = pipeline.finish();
        let seconds = t0.elapsed().as_secs_f64();
        assert!(output.errors.is_empty(), "bench stream must be clean");
        let segments: usize = output.keys.iter().map(|(_, r)| r.segments).sum();
        let unknown_segments: usize =
            output.keys.iter().map(|(_, r)| r.inconclusive).sum();
        let unknown_keys =
            output.keys.iter().filter(|(_, r)| r.k_atomic().is_none()).count();
        let unknown_rate = unknown_segments as f64 / segments.max(1) as f64;
        let ops_per_sec = records.len() as f64 / seconds;
        row(&[
            "deep-stale".into(),
            k.to_string(),
            segments.to_string(),
            unknown_segments.to_string(),
            format!("{unknown_rate:.4}"),
            format!("{ops_per_sec:.0}"),
        ]);
        escalation_rows.push(format!(
            "    {{\"workload\":\"deep-stale\",\"k\":{k},\"gap_budget\":{DEFAULT_GAP_BUDGET},\
             \"ops\":{},\"segments\":{segments},\"unknown_segments\":{unknown_segments},\
             \"unknown_keys\":{unknown_keys},\"unknown_rate\":{unknown_rate:.4},\
             \"ops_per_sec\":{ops_per_sec:.0}}}",
            records.len(),
        ));
    }
    {
        // The straddle row: a bound-gap gadget (true k = 4) padded with 97
        // serial write/read pairs to 201 ops — one segment, no 128-op out.
        // genk splits it at its free cuts, so the search sees only the
        // 7-op gadget piece and `search_nodes` counts that piece.
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
        let straddle = b.build().expect("straddle history is anomaly-free");
        let t0 = Instant::now();
        let (verdict, report) = GenK::new(3).verify_detailed(&straddle);
        let seconds = t0.elapsed().as_secs_f64();
        assert!(report.escalated, "the straddle must reach the search");
        let decided = verdict.decided().is_some();
        row(&[
            "straddle-201".into(),
            "3".into(),
            "1".into(),
            if decided { "0".into() } else { "1".into() },
            if decided { "0.0000".into() } else { "1.0000".into() },
            format!("{:.0}", straddle.len() as f64 / seconds),
        ]);
        escalation_rows.push(format!(
            "    {{\"workload\":\"straddle-201\",\"k\":3,\"gap_budget\":{DEFAULT_GAP_BUDGET},\
             \"ops\":{},\"segments\":1,\"unknown_segments\":{},\"unknown_keys\":{},\
             \"unknown_rate\":{:.4},\"search_nodes\":{},\"decided\":{decided}}}",
            straddle.len(),
            u8::from(!decided),
            u8::from(!decided),
            f64::from(u8::from(!decided)),
            report.search_nodes,
        ));
    }

    // Fleet axis: the same stream through the multi-process data plane
    // (coordinator routing + wire protocol + worker-side shards), with
    // workers as in-process threads so the row measures the architecture,
    // not fork/exec. The vs-single column is the distribution overhead
    // against the plain single-process pipeline on the same input.
    println!("\n## fleet throughput (fzf, window {window}, batch 256, one thread per worker)\n");
    header(&["workers", "ops/s", "vs single-process"]);
    let single = measure(
        Fzf,
        &records,
        PipelineConfig { shards: 1, window, batch: 256, ..Default::default() },
    );
    let mut fleet_rows: Vec<String> = Vec::new();
    for workers in [1usize, 2, 4] {
        let m = measure_fleet(&records, workers);
        let ratio = m.ops_per_sec() / single.ops_per_sec();
        row(&[
            workers.to_string(),
            format!("{:.0}", m.ops_per_sec()),
            format!("{ratio:.2}x"),
        ]);
        fleet_rows.push(format!(
            "    {{\"workers\":{workers},\"ops\":{},\"seconds\":{:.6},\
             \"ops_per_sec\":{:.0},\"vs_single_process\":{ratio:.2}}}",
            m.ops,
            m.seconds,
            m.ops_per_sec(),
        ));
        results.push(m);
    }

    // Checkpoint axis: the cost of making the audit crash-resumable. The
    // cadence is scaled so the run writes several checkpoints regardless
    // of preset size; the production-default cadence is then judged from
    // the measured per-checkpoint cost.
    let cadence = (records.len() as u64 / 4).max(1);
    println!("\n## checkpoint overhead (fzf, window {window}, batch 256, cadence {cadence})\n");
    header(&["shards", "ckpts", "ops/s", "overhead", "implied @ default cadence"]);
    let mut checkpoint_rows: Vec<String> = Vec::new();
    for shards in [1usize, 4] {
        let base = measure(
            Fzf,
            &records,
            PipelineConfig { shards, window, batch: 256, ..Default::default() },
        );
        let ckpt = measure_checkpointed(&records, shards, cadence);
        let overhead = ckpt.seconds / base.seconds - 1.0;
        // Per-checkpoint cost amortised over the default cadence's worth
        // of baseline ingest: what `kav stream --checkpoint` pays with no
        // flags beyond the path.
        let per_checkpoint = (ckpt.seconds - base.seconds) / ckpt.checkpoints.max(1) as f64;
        let default_window_seconds = DEFAULT_CHECKPOINT_EVERY as f64 / base.ops_per_sec();
        let implied_default = per_checkpoint.max(0.0) / default_window_seconds;
        row(&[
            shards.to_string(),
            ckpt.checkpoints.to_string(),
            format!("{:.0}", ckpt.ops_per_sec()),
            format!("{:+.1}%", overhead * 100.0),
            format!("{:.2}%", implied_default * 100.0),
        ]);
        checkpoint_rows.push(format!(
            "    {{\"shards\":{},\"checkpoint_every\":{},\"checkpoints\":{},\
             \"base_ops_per_sec\":{:.0},\"ckpt_ops_per_sec\":{:.0},\
             \"overhead_pct\":{:.2},\"default_cadence\":{},\
             \"implied_default_overhead_pct\":{:.3}}}",
            shards,
            cadence,
            ckpt.checkpoints,
            base.ops_per_sec(),
            ckpt.ops_per_sec(),
            overhead * 100.0,
            DEFAULT_CHECKPOINT_EVERY,
            implied_default * 100.0,
        ));
        results.push(base);
        results.push(ckpt);
    }

    if let Some(path) = out {
        let rows: Vec<String> = results
            .iter()
            .map(|m| {
                format!(
                    "    {{\"verifier\":\"{}\",\"k\":{},\"shards\":{},\"window\":{},\"batch\":{},\
                     \"ops\":{},\"seconds\":{:.6},\"ops_per_sec\":{:.0},\
                     \"checkpoint_every\":{},\"checkpoints\":{}}}",
                    m.verifier,
                    m.k,
                    m.shards,
                    m.window,
                    m.batch,
                    m.ops,
                    m.seconds,
                    m.ops_per_sec(),
                    m.checkpoint_every,
                    m.checkpoints,
                )
            })
            .collect();
        let json = format!(
            "{{\n  \"bench\": \"stream_throughput\",\n  \"preset\": \"{preset}\",\n  \
             \"ops\": {},\n  \"results\": [\n{}\n  ],\n  \"parse\": [\n{}\n  ],\n  \
             \"escalation\": [\n{}\n  ],\n  \
             \"fleet\": [\n{}\n  ],\n  \
             \"checkpoint_overhead\": [\n{}\n  ]\n}}\n",
            records.len(),
            rows.join(",\n"),
            parse_rows.join(",\n"),
            escalation_rows.join(",\n"),
            fleet_rows.join(",\n"),
            checkpoint_rows.join(",\n"),
        );
        std::fs::write(&path, json).expect("write bench artifact");
        println!("\nwrote {} measurements to {path}", results.len());
    }
}
