//! The traced pass: a workload's input driven in-process through each
//! layer's public functions, in the order `kav stream` and `kav serve`
//! call them, with a span around every call (or block of calls) into a
//! layer.
//!
//! The *path* pass mirrors what `kav` does on the workload. Its main-thread
//! half decodes the input in blocks and pushes them into the real sink: a
//! 2-shard `StreamPipeline`, or for fleet-ckpt a `FleetCoordinator` over two
//! in-process `worker_loop` threads on socketpairs. Pushes include the
//! time spent blocked on full channels. Progress probes and checkpoints
//! happen at `kav`'s cadence. Its shard half then replays every record
//! through a per-key `StreamBuilder` with `OnlineVerifier::push`'s seal
//! policy, timing the push, seal-scan, validation and verification steps
//! that the shard threads perform unseen. That replay must reproduce the
//! real verifier's per-key segment, violation and inconclusive counts
//! exactly, so it measures the same work.
//!
//! Layers that are not on a workload's path (the fleet on replay-ndjson,
//! say) are measured by *probes* over the first [`PROBE_RECORDS`] records:
//! every decoder, a 2-shard pipeline with progress probes, and a 2-worker
//! fleet with checkpoints. Probe spans never count toward a `*.self_share`.

use crate::bench::remove_if_present;
use crate::trace::{self_times, Span, Tracer};
use crate::workloads::{Format, Workload, CHECKPOINT_EVERY, PARALLELISM, PROGRESS_EVERY, WINDOW};
use kav_core::{
    worker_loop, CheckpointWriter, FleetConfig, FleetCoordinator, Fzf, GenK, GenKReport,
    PipelineConfig, PipelineOutput, ProtocolError, SourcePosition, StreamPipeline, Verdict,
    Verifier, WorkerLink, DEFAULT_GAP_BUDGET, DEFAULT_HORIZON_WINDOWS,
};
use kav_history::fxhash::Fingerprint;
use kav_history::ndjson::{self, NdjsonError, SliceReader, StreamRecord};
use kav_history::stream::{Push, StreamBuilder, StreamConfig};
use kav_history::{frame, History, Operation, RawHistory};
use std::collections::BTreeMap;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Records per decode / push block: one span per block keeps tracing
/// cheap while still separating decode from push.
const BLOCK: usize = 4096;
/// Records the path pass covers at most (live-stdin's input is longer).
const PATH_RECORDS: usize = 320_000;
/// Records the layer probes cover.
const PROBE_RECORDS: usize = 65_536;

/// A verifier the replay can also ask for genk's escalation counters.
trait Audit: Verifier + Clone + Send + 'static {
    fn audit(&self, history: &History) -> (Verdict, Option<GenKReport>);
}

impl Audit for Fzf {
    fn audit(&self, history: &History) -> (Verdict, Option<GenKReport>) {
        (self.verify(history), None)
    }
}

impl Audit for GenK {
    fn audit(&self, history: &History) -> (Verdict, Option<GenKReport>) {
        let (verdict, report) = self.verify_detailed(history);
        (verdict, Some(report))
    }
}

/// The three ingest decoders `kav` reads records with.
enum Decoder<'a> {
    /// mmap'd NDJSON files.
    Slice(SliceReader<'a>),
    /// NDJSON on stdin.
    Serde(ndjson::Reader<&'a [u8]>),
    /// Binary frame files.
    Frame(frame::FrameReader<'a>),
}

impl<'a> Decoder<'a> {
    const NAMES: [&'static str; 3] = ["ndjson.slice", "ndjson.serde", "frame.read"];

    /// Opens `bytes` with the decoder named `name`; `fingerprinted`
    /// digests every record, as `kav` does whenever it checkpoints.
    fn open(name: &str, bytes: &'a [u8], fingerprinted: bool) -> Result<Self, String> {
        let fp = || Fingerprint::new();
        Ok(match name {
            "ndjson.slice" if fingerprinted => {
                Decoder::Slice(SliceReader::with_fingerprint(bytes, fp()))
            }
            "ndjson.slice" => Decoder::Slice(SliceReader::new(bytes)),
            "ndjson.serde" if fingerprinted => {
                Decoder::Serde(ndjson::Reader::with_fingerprint(bytes, fp()))
            }
            "ndjson.serde" => Decoder::Serde(ndjson::Reader::new(bytes)),
            _ => Decoder::Frame(
                if fingerprinted {
                    frame::FrameReader::with_fingerprint(bytes, fp())
                } else {
                    frame::FrameReader::new(bytes)
                }
                .map_err(|e| e.to_string())?,
            ),
        })
    }

    fn next_record(&mut self) -> Option<Result<StreamRecord, NdjsonError>> {
        match self {
            Decoder::Slice(r) => r.next(),
            Decoder::Serde(r) => r.next(),
            Decoder::Frame(r) => r.next(),
        }
    }

    fn fingerprint(&self) -> Option<u64> {
        match self {
            Decoder::Slice(r) => r.fingerprint(),
            Decoder::Serde(r) => r.fingerprint(),
            Decoder::Frame(r) => r.fingerprint(),
        }
    }

    /// Decodes up to [`BLOCK`] records into `block`; false at the end.
    fn fill(&mut self, block: &mut Vec<(u64, Operation)>) -> Result<bool, String> {
        block.clear();
        while block.len() < BLOCK {
            match self.next_record() {
                Some(Ok(record)) => block.push((record.key, record.op())),
                Some(Err(e)) => return Err(format!("decoding the input: {e}")),
                None => break,
            }
        }
        Ok(!block.is_empty())
    }
}

/// The decoder `kav` uses on the workload's input.
fn path_decoder(workload: Workload) -> &'static str {
    match workload {
        Workload::ReplayNdjson => "ndjson.slice",
        Workload::LiveStdin => "ndjson.serde",
        Workload::WideGenk | Workload::FleetCkpt => "frame.read",
    }
}

/// Counts the bytes the coordinator puts on a worker link.
struct Counting<W> {
    inner: W,
    bytes: Arc<AtomicU64>,
}

impl<W: Write> Write for Counting<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        // A statistic read only after the workers are joined.
        self.bytes.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// What `kav` pushes records into on its main thread.
enum Sink {
    Pipeline(StreamPipeline),
    Fleet {
        coordinator: FleetCoordinator,
        workers: Vec<JoinHandle<Result<(), ProtocolError>>>,
        wire_bytes: Arc<AtomicU64>,
    },
}

impl Sink {
    fn pipeline<V: Audit>(verifier: V) -> Sink {
        Sink::Pipeline(StreamPipeline::new(
            verifier,
            PipelineConfig {
                shards: PARALLELISM,
                window: WINDOW,
                ..Default::default()
            },
        ))
    }

    /// A fleet of in-process workers, linked like `kav serve` links its
    /// `kav work` children: buffered writes, flushed per message. Only
    /// fleets checkpoint, as on fleet-ckpt's path.
    fn fleet<V: Audit>(verifier: V, checkpoint_every: u64) -> Result<Sink, String> {
        let wire_bytes = Arc::new(AtomicU64::new(0));
        let mut links = Vec::new();
        let mut workers = Vec::new();
        for _ in 0..PARALLELISM {
            let (ours, theirs) = UnixStream::pair().map_err(|e| format!("socketpair: {e}"))?;
            let theirs_in = theirs.try_clone().map_err(|e| e.to_string())?;
            let verifier = verifier.clone();
            workers.push(std::thread::spawn(move || {
                worker_loop(verifier, BufReader::new(theirs_in), BufWriter::new(theirs))
            }));
            let ours_in = ours.try_clone().map_err(|e| e.to_string())?;
            links.push(WorkerLink {
                writer: Box::new(BufWriter::new(Counting {
                    inner: ours,
                    bytes: wire_bytes.clone(),
                })),
                reader: Box::new(BufReader::new(ours_in)),
            });
        }
        let config = FleetConfig {
            algo: verifier.name().to_string(),
            k: verifier.k(),
            window: WINDOW,
            checkpoint_every,
            ..Default::default()
        };
        let coordinator =
            FleetCoordinator::new(config, links).map_err(|e| format!("fleet: {e}"))?;
        Ok(Sink::Fleet {
            coordinator,
            workers,
            wire_bytes,
        })
    }

    fn push_span(&self) -> &'static str {
        match self {
            Sink::Pipeline(_) => "pipeline.push",
            Sink::Fleet { .. } => "fleet.push",
        }
    }
}

/// Checkpoints written during a pass.
#[derive(Default)]
struct Checkpoints {
    writes: u64,
    deltas: u64,
    last_bytes: u64,
}

/// The main-thread half of a pass: pushes, probes and checkpoints.
struct Ingest {
    sink: Sink,
    progress: bool,
    writer: Option<CheckpointWriter>,
    checkpoints: Checkpoints,
    pushed: u64,
}

/// What the sink reported at the end.
struct SinkRun {
    output: PipelineOutput,
    wire_bytes: u64,
    checkpoints: Checkpoints,
    pushed: u64,
}

impl Ingest {
    fn new(sink: Sink, progress: bool, checkpoint: Option<&Path>) -> Result<Self, String> {
        let writer = match checkpoint {
            Some(path) => {
                remove_if_present(path)?;
                Some(CheckpointWriter::new(path))
            }
            None => None,
        };
        Ok(Ingest {
            sink,
            progress,
            writer,
            checkpoints: Checkpoints::default(),
            pushed: 0,
        })
    }

    fn push_block(
        &mut self,
        t: &mut Tracer,
        block: &[(u64, Operation)],
        fingerprint: Option<u64>,
    ) -> Result<(), String> {
        let span = t.enter(self.sink.push_span());
        for &(key, op) in block {
            self.pushed += 1;
            let checkpoint_due = match &mut self.sink {
                Sink::Pipeline(pipeline) => {
                    pipeline.push(key, op);
                    if self.progress && self.pushed.is_multiple_of(PROGRESS_EVERY) {
                        let probe = t.enter("pipeline.probe");
                        std::hint::black_box(pipeline.progress());
                        t.exit(probe, 1);
                    }
                    false
                }
                Sink::Fleet { coordinator, .. } => {
                    coordinator
                        .push(key, op)
                        .map_err(|e| format!("fleet push: {e}"))?;
                    self.writer.is_some() && coordinator.checkpoint_due()
                }
            };
            if checkpoint_due {
                self.checkpoint(t, fingerprint)?;
            }
        }
        t.exit(span, block.len() as u64);
        Ok(())
    }

    /// Snapshots the fleet and writes the checkpoint, as `kav serve` does
    /// at its cadence. The fingerprint is the decoder's, which runs up to a
    /// block ahead of the pushes: pass checkpoints are measured, never
    /// resumed.
    fn checkpoint(&mut self, t: &mut Tracer, fingerprint: Option<u64>) -> Result<(), String> {
        let Sink::Fleet { coordinator, .. } = &mut self.sink else {
            unreachable!("only fleets checkpoint");
        };
        let span = t.enter("checkpoint.snapshot");
        let snapshot = coordinator
            .snapshot_fleet()
            .map_err(|e| format!("fleet snapshot: {e}"))?;
        t.exit(span, snapshot.states.len() as u64);
        let writer = self
            .writer
            .as_mut()
            .expect("checkpointing ingest has a writer");
        let position = SourcePosition {
            lines: self.pushed,
            fingerprint: fingerprint.unwrap_or_default(),
            ..Default::default()
        };
        let span = t.enter("checkpoint.write");
        writer
            .write(position, snapshot)
            .map_err(|e| format!("checkpoint write: {e}"))?;
        let bytes = std::fs::metadata(writer.path())
            .map_err(|e| e.to_string())?
            .len();
        t.exit(span, bytes);
        // A full write leaves the delta list at the end of the file empty.
        const FULL_TAIL: &[u8] = b"\"deltas\":[]}\n";
        let mut tail = [0; FULL_TAIL.len()];
        let mut file = std::fs::File::open(writer.path()).map_err(|e| e.to_string())?;
        file.seek(SeekFrom::End(-(FULL_TAIL.len() as i64)))
            .and_then(|_| file.read_exact(&mut tail))
            .map_err(|e| format!("reading the checkpoint's end: {e}"))?;
        if tail != FULL_TAIL {
            self.checkpoints.deltas += 1;
        }
        self.checkpoints.writes += 1;
        self.checkpoints.last_bytes = bytes;
        Ok(())
    }

    fn finish(self, t: &mut Tracer) -> Result<SinkRun, String> {
        let (output, wire_bytes) = match self.sink {
            Sink::Pipeline(pipeline) => {
                let span = t.enter("pipeline.finish");
                let output = pipeline.finish();
                t.exit(span, 1);
                (output, 0)
            }
            Sink::Fleet {
                coordinator,
                workers,
                wire_bytes,
            } => {
                let span = t.enter("fleet.finish");
                let finished = coordinator.finish();
                t.exit(span, 1);
                for worker in workers {
                    worker
                        .join()
                        .map_err(|_| "a fleet worker panicked".to_string())?
                        .map_err(|e| format!("fleet worker: {e}"))?;
                }
                let (output, summary) = finished.map_err(|e| format!("fleet finish: {e}"))?;
                if summary.hand_offs > 0 || summary.frames_dropped > 0 {
                    return Err(format!("fleet lost a worker: {summary:?}"));
                }
                (output, wire_bytes.load(Ordering::Relaxed))
            }
        };
        Ok(SinkRun {
            output,
            wire_bytes,
            checkpoints: self.checkpoints,
            pushed: self.pushed,
        })
    }
}

/// One key's shard-side state, stepped exactly as `OnlineVerifier::push`
/// steps its own.
struct KeyReplica {
    builder: StreamBuilder,
    next_attempt: usize,
    ops: u64,
    segments: usize,
    violations: usize,
    inconclusive: usize,
    escalated: usize,
    nodes: u64,
}

/// Shard-side counters of the replay.
#[derive(Default)]
struct ReplayCounts {
    seal_attempts: u64,
    seal_hits: u64,
}

struct Replica<V> {
    verifier: V,
    keys: BTreeMap<u64, KeyReplica>,
    counts: ReplayCounts,
}

impl<V: Audit> Replica<V> {
    fn new(verifier: V) -> Self {
        Replica {
            verifier,
            keys: BTreeMap::new(),
            counts: ReplayCounts::default(),
        }
    }

    fn push_block(&mut self, t: &mut Tracer, block: &[StreamRecord]) -> Result<(), String> {
        let span = t.enter("builder.push");
        for record in block {
            self.push(t, record.key, record.op())?;
        }
        t.exit(span, block.len() as u64);
        Ok(())
    }

    fn push(&mut self, t: &mut Tracer, key: u64, op: Operation) -> Result<(), String> {
        let state = self.keys.entry(key).or_insert_with(|| KeyReplica {
            builder: StreamBuilder::with_config(StreamConfig {
                horizon: Some(WINDOW * DEFAULT_HORIZON_WINDOWS),
            }),
            next_attempt: 0,
            ops: 0,
            segments: 0,
            violations: 0,
            inconclusive: 0,
            escalated: 0,
            nodes: 0,
        });
        state.ops += 1;
        match state
            .builder
            .push(op)
            .map_err(|e| format!("key {key}: {e}"))?
        {
            Push::Buffered => {}
            // Counted and dropped, like the real adapter's breach path.
            Push::BeyondHorizon => return Ok(()),
        }
        let resident = state.builder.resident();
        if resident > 2 * WINDOW && resident >= state.next_attempt {
            let span = t.enter("builder.seal");
            let sealed = state.builder.try_seal(WINDOW);
            t.exit(span, sealed.as_ref().map_or(0, |s| s.len() as u64));
            self.counts.seal_attempts += 1;
            match sealed {
                Some(segment) => {
                    self.counts.seal_hits += 1;
                    state.next_attempt = 0;
                    verify_segment(t, &self.verifier, state, segment)?;
                }
                None => state.next_attempt = resident + (WINDOW / 8).max(1),
            }
        }
        Ok(())
    }

    /// Flushes every key's tail as its final segment, like `freeze`.
    fn finish(&mut self, t: &mut Tracer) -> Result<(), String> {
        for state in self.keys.values_mut() {
            let span = t.enter("builder.flush");
            let last = state.builder.flush();
            t.exit(span, last.len() as u64);
            if !last.is_empty() {
                verify_segment(t, &self.verifier, state, last)?;
            }
        }
        Ok(())
    }
}

fn verify_segment<V: Audit>(
    t: &mut Tracer,
    verifier: &V,
    state: &mut KeyReplica,
    segment: RawHistory,
) -> Result<(), String> {
    let ops = segment.len() as u64;
    let span = t.enter("validate");
    let history = segment.into_history();
    t.exit(span, ops);
    let history = history.map_err(|e| format!("invalid segment: {e}"))?;
    state.segments += 1;
    let span = t.enter("verify");
    let (verdict, genk) = verifier.audit(&history);
    t.exit(span, ops);
    match verdict {
        Verdict::KAtomic { .. } | Verdict::Consistent => {}
        Verdict::NotKAtomic => state.violations += 1,
        Verdict::Inconclusive => state.inconclusive += 1,
    }
    if let Some(report) = genk.filter(|r| r.escalated) {
        state.escalated += 1;
        state.nodes += report.search_nodes;
    }
    Ok(())
}

/// Per-key counts the replay produced, for the equivalence check and the
/// kav-table cross-check.
pub struct KeyCounts {
    pub ops: u64,
    pub segments: u64,
    pub violations: u64,
    pub inconclusive: u64,
}

/// The path pass's results.
struct PathRun {
    sink: SinkRun,
    replay: ReplayCounts,
    keys: BTreeMap<u64, KeyCounts>,
    escalated: u64,
    nodes: u64,
    peak_resident: u64,
}

/// Runs the path pass over `bytes` (the workload's input in its format,
/// covering exactly `records`).
fn path_pass<V: Audit>(
    t: &mut Tracer,
    verifier: V,
    workload: Workload,
    bytes: &[u8],
    records: &[StreamRecord],
    checkpoint: &Path,
) -> Result<PathRun, String> {
    let root = t.enter("pass");
    let checkpointing = workload == Workload::FleetCkpt;
    let sink = if workload == Workload::FleetCkpt {
        Sink::fleet(verifier.clone(), CHECKPOINT_EVERY)?
    } else {
        Sink::pipeline(verifier.clone())
    };
    let progress = workload == Workload::LiveStdin;
    let mut ingest = Ingest::new(sink, progress, checkpointing.then_some(checkpoint))?;
    let name = path_decoder(workload);
    let mut decoder = Decoder::open(name, bytes, checkpointing)?;
    let mut block = Vec::with_capacity(BLOCK);
    loop {
        let span = t.enter(name);
        let more = decoder.fill(&mut block)?;
        t.exit(span, block.len() as u64);
        if !more {
            break;
        }
        ingest.push_block(t, &block, decoder.fingerprint())?;
    }
    let sink = ingest.finish(t)?;

    let shard = t.enter("shard");
    let mut replica = Replica::new(verifier);
    for chunk in records.chunks(BLOCK) {
        replica.push_block(t, chunk)?;
    }
    replica.finish(t)?;
    t.exit(shard, records.len() as u64);
    t.exit(root, records.len() as u64);

    let keys = replica
        .keys
        .iter()
        .map(|(key, s)| {
            let counts = KeyCounts {
                ops: s.ops,
                segments: s.segments as u64,
                violations: s.violations as u64,
                inconclusive: s.inconclusive as u64,
            };
            (*key, counts)
        })
        .collect();
    let states = replica.keys.values();
    Ok(PathRun {
        escalated: states.clone().map(|s| s.escalated as u64).sum(),
        nodes: states.clone().map(|s| s.nodes).sum(),
        peak_resident: states
            .map(|s| s.builder.peak_resident() as u64)
            .max()
            .unwrap_or(0),
        sink,
        replay: replica.counts,
        keys,
    })
}

/// Checks the replay against the real verifier's per-key reports.
fn check_equivalence(run: &PathRun) -> Result<(), String> {
    let output = &run.sink.output;
    if !output.errors.is_empty() {
        return Err(format!("the sink reported key errors: {:?}", output.errors));
    }
    if output.keys.len() != run.keys.len() {
        return Err(format!(
            "the sink reported {} keys, the replay {}",
            output.keys.len(),
            run.keys.len()
        ));
    }
    for (key, report) in &output.keys {
        let ours = run
            .keys
            .get(key)
            .ok_or(format!("key {key} missing from the replay"))?;
        let theirs = (
            report.ops,
            report.segments as u64,
            report.violations as u64,
            report.inconclusive as u64,
        );
        if theirs != (ours.ops, ours.segments, ours.violations, ours.inconclusive) {
            return Err(format!(
                "key {key}: OnlineVerifier counted (ops, segments, violations, inconclusive) \
                 = {theirs:?}, the replay {:?}",
                (ours.ops, ours.segments, ours.violations, ours.inconclusive)
            ));
        }
    }
    Ok(())
}

/// Runs the probes over `records` (a prefix of the input) and returns the
/// fleet probe's sink results.
fn probes<V: Audit>(
    t: &mut Tracer,
    verifier: V,
    records: &[StreamRecord],
    checkpoint: &Path,
) -> Result<SinkRun, String> {
    let root = t.enter("probe");
    let mut ndjson_out = ndjson::StreamWriter::new(Vec::new());
    let mut frame_out = frame::FrameWriter::new(Vec::new());
    for record in records {
        ndjson_out.write_record(record).map_err(|e| e.to_string())?;
        frame_out.write_record(record).map_err(|e| e.to_string())?;
    }
    let ndjson_bytes = ndjson_out.finish().map_err(|e| e.to_string())?;
    let frame_bytes = frame_out.finish().map_err(|e| e.to_string())?;
    let mut block = Vec::with_capacity(BLOCK);
    for name in Decoder::NAMES {
        let bytes = if name == "frame.read" {
            &frame_bytes
        } else {
            &ndjson_bytes
        };
        let mut decoder = Decoder::open(name, bytes, false)?;
        let span = t.enter(name);
        let mut decoded = 0;
        while decoder.fill(&mut block)? {
            decoded += block.len();
        }
        t.exit(span, decoded as u64);
        if decoded != records.len() {
            return Err(format!(
                "{name} decoded {decoded} of {} records",
                records.len()
            ));
        }
    }

    // A prefix cuts keys mid-stream, so the probes' verdicts are not
    // checked; only their timings and counts are used.
    let cadence = (records.len() as u64 / 5).max(1);
    let mut ingest_all = |t: &mut Tracer, mut ingest: Ingest| -> Result<SinkRun, String> {
        for chunk in records.chunks(BLOCK) {
            block.clear();
            block.extend(chunk.iter().map(|r| (r.key, r.op())));
            ingest.push_block(t, &block, None)?;
        }
        ingest.finish(t)
    };
    ingest_all(
        t,
        Ingest::new(Sink::pipeline(verifier.clone()), true, None)?,
    )?;
    let fleet = ingest_all(
        t,
        Ingest::new(Sink::fleet(verifier, cadence)?, false, Some(checkpoint))?,
    )?;
    t.exit(root, records.len() as u64);
    Ok(fleet)
}

/// Span statistics of one pass.
struct Totals<'a> {
    spans: &'a [Span],
    self_time: Vec<u64>,
    root: u64,
}

impl<'a> Totals<'a> {
    fn new(spans: &'a [Span]) -> Self {
        let root = spans.first().map_or(0, Span::duration);
        Totals {
            spans,
            self_time: self_times(spans),
            root,
        }
    }

    fn named<'b>(&'b self, name: &'b str) -> impl Iterator<Item = (usize, &'a Span)> + 'b {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.name == name)
    }

    fn has(&self, name: &str) -> bool {
        self.named(name).next().is_some()
    }

    /// Total duration (ns) and count of the spans named `name`.
    fn sum(&self, name: &str) -> (f64, f64) {
        self.named(name).fold((0.0, 0.0), |(d, c), (_, s)| {
            (d + s.duration() as f64, c + s.count as f64)
        })
    }

    fn ns_per_count(&self, name: &str) -> f64 {
        let (duration, count) = self.sum(name);
        ratio(duration, count)
    }

    /// Self time per unit of count of the spans named `name`: for a push
    /// block, the push itself without the probes or checkpoints inside it.
    fn self_ns_per_count(&self, name: &str) -> f64 {
        let own: f64 = self
            .named(name)
            .map(|(i, _)| self.self_time[i] as f64)
            .sum();
        ratio(own, self.sum(name).1)
    }

    /// Median duration of the spans named `name`, in nanoseconds.
    fn median(&self, name: &str) -> f64 {
        let durations: Vec<f64> = self.named(name).map(|(_, s)| s.duration() as f64).collect();
        crate::stats::median(&durations).unwrap_or(0.0)
    }

    /// Share of the pass spent in the layer's own code.
    fn self_share(&self, layer: &str) -> f64 {
        let own: f64 = self
            .spans
            .iter()
            .zip(&self.self_time)
            .filter(|(s, _)| layer_of(s.name) == Some(layer))
            // fold, not sum: an empty f64 sum is -0.0.
            .fold(0.0, |total, (_, t)| total + *t as f64);
        ratio(own, self.root as f64)
    }
}

/// The layer a span belongs to; `None` for the pass's grouping spans.
fn layer_of(name: &str) -> Option<&'static str> {
    Some(match name.split('.').next()? {
        "ndjson" | "frame" => "decode",
        "pipeline" => "pipeline",
        "builder" => "builder",
        "validate" => "validate",
        "verify" => "verify",
        "checkpoint" => "checkpoint",
        "fleet" => "fleet",
        _ => return None,
    })
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// One per-layer metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// Everything the traced pass produced.
pub struct Traced {
    pub metrics: Vec<Metric>,
    /// The replay's per-key counts.
    pub keys: BTreeMap<u64, KeyCounts>,
    /// Spans of the path and probe passes, as span-file JSON.
    pub spans: Vec<serde::Value>,
}

/// Runs the path pass untraced and traced, then the probes, and derives
/// the per-layer metrics. `bytes` is the workload's input file and
/// `records` the records it holds.
pub fn run(
    workload: Workload,
    bytes: &[u8],
    records: &[StreamRecord],
    work: &Path,
) -> Result<Traced, String> {
    match workload {
        Workload::WideGenk => {
            let genk = GenK::with_gap_budget(workload.k(), Some(DEFAULT_GAP_BUDGET));
            run_with(genk, workload, bytes, records, work)
        }
        _ => run_with(Fzf, workload, bytes, records, work),
    }
}

fn run_with<V: Audit>(
    verifier: V,
    workload: Workload,
    bytes: &[u8],
    records: &[StreamRecord],
    work: &Path,
) -> Result<Traced, String> {
    let records = &records[..records.len().min(PATH_RECORDS)];
    let bytes = input_prefix(workload, bytes, records.len());
    let path_ckpt = work.join("path.ckpt");
    let probe_ckpt = work.join("probe.ckpt");
    let origin = Instant::now();

    let mut untraced = Tracer::new(origin, false);
    let start = Instant::now();
    path_pass(
        &mut untraced,
        verifier.clone(),
        workload,
        bytes,
        records,
        &path_ckpt,
    )?;
    let untraced_ns = start.elapsed().as_nanos() as f64;

    let mut path = Tracer::new(origin, true);
    let run = path_pass(
        &mut path,
        verifier.clone(),
        workload,
        bytes,
        records,
        &path_ckpt,
    )?;
    check_equivalence(&run)?;

    let mut probe = Tracer::new(origin, true);
    let prefix = &records[..records.len().min(PROBE_RECORDS)];
    let fleet_probe = probes(&mut probe, verifier, prefix, &probe_ckpt)?;
    remove_if_present(&path_ckpt)?;
    remove_if_present(&probe_ckpt)?;

    let on_path = Totals::new(path.spans());
    let probed = Totals::new(probe.spans());
    // A layer's numbers come from the path where the workload uses it,
    // else from the probes.
    let pick = |name: &str| if on_path.has(name) { &on_path } else { &probed };
    let fleet = if workload == Workload::FleetCkpt {
        &run.sink
    } else {
        &fleet_probe
    };
    let segments: u64 = run.keys.values().map(|k| k.segments).sum();
    let inconclusive: u64 = run.keys.values().map(|k| k.inconclusive).sum();
    let replay = &run.replay;
    let metrics = vec![
        (
            "ndjson.slice.ns_per_op",
            pick("ndjson.slice").ns_per_count("ndjson.slice"),
            "ns",
        ),
        (
            "ndjson.serde.ns_per_op",
            pick("ndjson.serde").ns_per_count("ndjson.serde"),
            "ns",
        ),
        (
            "frame.read.ns_per_op",
            pick("frame.read").ns_per_count("frame.read"),
            "ns",
        ),
        ("decode.self_share", on_path.self_share("decode"), "ratio"),
        (
            "pipeline.push.ns_per_op",
            pick("pipeline.push").self_ns_per_count("pipeline.push"),
            "ns",
        ),
        (
            "pipeline.probe.us_p50",
            pick("pipeline.probe").median("pipeline.probe") / 1e3,
            "us",
        ),
        (
            "pipeline.self_share",
            on_path.self_share("pipeline"),
            "ratio",
        ),
        (
            "builder.push.ns_per_op",
            on_path.self_ns_per_count("builder.push"),
            "ns",
        ),
        (
            "builder.seal.ns_per_op",
            ratio(on_path.sum("builder.seal").0, records.len() as f64),
            "ns",
        ),
        (
            "builder.seal.hit_ratio",
            ratio(replay.seal_hits as f64, replay.seal_attempts as f64),
            "ratio",
        ),
        (
            "builder.peak_resident_ops",
            run.peak_resident as f64,
            "count",
        ),
        ("builder.self_share", on_path.self_share("builder"), "ratio"),
        ("validate.ns_per_op", on_path.ns_per_count("validate"), "ns"),
        (
            "validate.self_share",
            on_path.self_share("validate"),
            "ratio",
        ),
        ("verify.ns_per_op", on_path.ns_per_count("verify"), "ns"),
        (
            "verify.escalated_share",
            ratio(run.escalated as f64, segments as f64),
            "ratio",
        ),
        ("verify.constrained.nodes", run.nodes as f64, "count"),
        (
            "verify.inconclusive_share",
            ratio(inconclusive as f64, segments as f64),
            "ratio",
        ),
        ("verify.self_share", on_path.self_share("verify"), "ratio"),
        (
            "checkpoint.snapshot.ms",
            pick("checkpoint.snapshot").median("checkpoint.snapshot") / 1e6,
            "ms",
        ),
        (
            "checkpoint.write.ms",
            pick("checkpoint.write").median("checkpoint.write") / 1e6,
            "ms",
        ),
        (
            "checkpoint.bytes",
            fleet.checkpoints.last_bytes as f64,
            "bytes",
        ),
        (
            "checkpoint.delta_share",
            ratio(
                fleet.checkpoints.deltas as f64,
                fleet.checkpoints.writes as f64,
            ),
            "ratio",
        ),
        (
            "checkpoint.self_share",
            on_path.self_share("checkpoint"),
            "ratio",
        ),
        (
            "fleet.push.ns_per_op",
            pick("fleet.push").self_ns_per_count("fleet.push"),
            "ns",
        ),
        (
            "fleet.wire_bytes_per_op",
            ratio(fleet.wire_bytes as f64, fleet.pushed as f64),
            "bytes",
        ),
        (
            "fleet.finish.ms",
            pick("fleet.finish").sum("fleet.finish").0 / 1e6,
            "ms",
        ),
        ("fleet.self_share", on_path.self_share("fleet"), "ratio"),
        (
            "trace.overhead_share",
            ratio(on_path.root as f64, untraced_ns) - 1.0,
            "ratio",
        ),
    ];
    let mut spans = crate::trace::to_json(path.spans(), workload.name(), "path");
    spans.extend(crate::trace::to_json(
        probe.spans(),
        workload.name(),
        "probe",
    ));
    Ok(Traced {
        metrics,
        keys: run.keys,
        spans,
    })
}

/// The part of the input file that holds its first `records` records
/// (one record per NDJSON line, or per frame after the magic).
fn input_prefix(workload: Workload, bytes: &[u8], records: usize) -> &[u8] {
    let end = match workload.format() {
        Format::Binary => frame::FRAME_MAGIC.len() + records * frame::FRAME_LEN,
        Format::Ndjson if records == 0 => 0,
        Format::Ndjson => bytes
            .iter()
            .enumerate()
            .filter(|(_, b)| **b == b'\n')
            .nth(records - 1)
            .map_or(bytes.len(), |(i, _)| i + 1),
    };
    &bytes[..end.min(bytes.len())]
}
