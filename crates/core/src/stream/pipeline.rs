//! Sharded multi-register streaming verification.
//!
//! k-atomicity is a local property (§II-B): each register verifies
//! independently, so a multi-register stream shards by key. A `Shard`
//! owns the [`OnlineVerifier`]s of the keys hashed to it, and its verdicts
//! are a function of the operations pushed into it alone. The pipeline
//! spawns one thread per shard, each driving one `Shard`; a fleet worker
//! drives one per range inline (see [`protocol`](super::protocol)).
//!
//! The ingest side only hashes and buffers: `(key, Operation)` pairs
//! accumulate in a per-shard `Vec` of [`PipelineConfig::batch`] pairs and
//! cross the channel as one batch per flush, so the per-operation cost of
//! ingest is a hash and a push; channel synchronisation (the ~1.5M ops/s
//! ceiling of per-operation sends) is amortised over the whole batch.
//! Shard threads likewise receive a batch per `recv` and verify its pairs
//! in order. Throughput then scales with shard count until the work itself
//! (not the channel) saturates the cores.
//!
//! # Probes: snapshots and progress
//!
//! Besides batches, the ingest side can send a shard thread a *probe*. A
//! probe is answered only after every batch queued before it — channels
//! are FIFO — so probing all shards after flushing the ingest buffers
//! yields a **consistent cut**: the merged answer reflects exactly the
//! operations pushed so far, none in flight. [`StreamPipeline::snapshot`]
//! uses probes to assemble a [`PipelineSnapshot`] (resumable via
//! [`StreamPipeline::resume`] — see the stream-module docs on
//! [`OnlineVerifier`] for the soundness argument), and
//! [`StreamPipeline::progress`] uses them for a cheap
//! [`PipelineProgress`] summary. Both pause ingest for one channel
//! round-trip per shard; verification itself keeps running until a thread
//! drains its queue and answers.

use super::fragment::SnapshotHeader;
use super::{
    check_count, check_identity, check_online_counts, resolve_horizon, OnlineSnapshot,
    OnlineVerifier, SnapshotError, StreamReport,
};
use crate::models::ModelId;
use crate::Verifier;
use kav_history::frame::{key_hash, KeyRange};
use kav_history::stream::DEPTH_BUCKETS;
use kav_history::Operation;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::sync::mpsc;
use std::thread::JoinHandle;

/// Configuration of a [`StreamPipeline`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Worker threads to shard keys over (clamped to at least 1).
    pub shards: usize,
    /// Per-key sliding-window width, in operations (clamped to at least 1).
    pub window: usize,
    /// Per-key retirement horizon, in sealed writes: how many retired
    /// value ids each key retains for breach and duplicate detection.
    /// `None` uses the default of
    /// [`DEFAULT_HORIZON_WINDOWS`](super::DEFAULT_HORIZON_WINDOWS)
    /// windows. Any horizon is sound; smaller horizons trade
    /// certifiability of long streams for memory.
    pub horizon: Option<usize>,
    /// Operations buffered per shard before a batch crosses the channel
    /// (clamped to at least 1; `1` reproduces per-operation sends).
    pub batch: usize,
    /// Checkpoint cadence, in ingested operations:
    /// [`StreamPipeline::checkpoint_due`] turns true every
    /// `checkpoint_every` pushes. Consulted by drivers that persist
    /// [snapshots](StreamPipeline::snapshot) (e.g. `kav stream
    /// --checkpoint`); a pipeline whose driver never checkpoints ignores
    /// it. `0` means never due. Defaults to
    /// [`DEFAULT_CHECKPOINT_EVERY`](super::DEFAULT_CHECKPOINT_EVERY).
    pub checkpoint_every: u64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            shards: 4,
            window: 1024,
            horizon: None,
            batch: 256,
            checkpoint_every: super::DEFAULT_CHECKPOINT_EVERY,
        }
    }
}

/// Everything a finished pipeline knows, merged across shards.
#[derive(Clone, Debug, Default)]
pub struct PipelineOutput {
    /// Per-key reports, sorted by key.
    pub keys: Vec<(u64, StreamReport)>,
    /// Keys whose stream failed (bad records or invalid segments), with
    /// the error message. Sorted by key. A key that fails mid-stream also
    /// keeps its [aborted](OnlineVerifier::abort) report in
    /// [`keys`](Self::keys) — `NO` when a violation was already proven
    /// (bad input must not mask it), `UNKNOWN` otherwise, never a
    /// certified `YES` — so its accepted operations stay in every tally.
    /// A key whose *final flush* fails validation keeps a report only
    /// when a violation was proven.
    pub errors: Vec<(u64, String)>,
}

impl PipelineOutput {
    /// The conjunction of all per-key verdicts, with `None` (undecided)
    /// dominating `Some(true)` and any error or violation forcing
    /// `Some(false)`.
    pub fn all_k_atomic(&self) -> Option<bool> {
        if !self.errors.is_empty()
            || self.keys.iter().any(|(_, r)| r.k_atomic() == Some(false))
        {
            return Some(false);
        }
        if self.keys.iter().all(|(_, r)| r.k_atomic() == Some(true)) {
            Some(true)
        } else {
            None
        }
    }

    /// Total operations accepted across all keys (saturating).
    pub fn total_ops(&self) -> u64 {
        self.keys.iter().fold(0, |sum, (_, r)| sum.saturating_add(r.ops))
    }
}

/// One key's adapter state inside a [`PipelineSnapshot`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct KeySnapshot {
    /// The register.
    pub key: u64,
    /// Its online adapter's state.
    pub state: OnlineSnapshot,
}

/// One key's finalised report inside a [`PipelineSnapshot`] (keys that
/// failed mid-stream carry their aborted report — see
/// [`PipelineOutput::errors`]).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct KeyReport {
    /// The register.
    pub key: u64,
    /// Its aborted report.
    pub report: StreamReport,
}

/// One key's stream error inside a [`PipelineSnapshot`]. A resumed
/// pipeline keeps skipping such keys, exactly as the original would have.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct KeyError {
    /// The register.
    pub key: u64,
    /// Why its stream was given up on.
    pub error: String,
}

/// Serializable state of a whole [`StreamPipeline`] at a consistent cut,
/// produced by [`StreamPipeline::snapshot`] and consumed by
/// [`StreamPipeline::resume`]. Keys are sorted, so equal states serialize
/// to equal bytes regardless of shard count or hash-map iteration order.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PipelineSnapshot {
    /// [`Verifier::name`] of the verifier all keys run.
    pub algo: String,
    /// The consistency model every key audits (absent = k-atomic):
    /// resume and assignment hand-off refuse a model mismatch.
    #[serde(default, skip_serializing_if = "ModelId::is_k_atomic")]
    pub model: ModelId,
    /// The `k` the verdicts decide.
    pub k: u64,
    /// Per-key window width (resume must match it).
    pub window: usize,
    /// Per-key retirement horizon, resolved (resume must match it).
    pub horizon: usize,
    /// Operations pushed into the pipeline so far.
    pub ops_routed: u64,
    /// True when some earlier hop of this audit's snapshot chain was
    /// resumed without prefix verification: *every* key — including keys
    /// first seen later — stays uncertified, because the unverified
    /// re-feed could have dropped or repeated any key's records.
    #[serde(default)]
    pub uncertified: bool,
    /// The slice of the hashed key space this snapshot covers, when it
    /// was taken by a fleet worker (`None` = the whole key space, as every
    /// single-process audit covers). The tag is the *shard map* of the
    /// state: assignment hand-off rejects a mismatch, so state produced
    /// under one partition is never silently continued under another.
    #[serde(default)]
    pub partition: Option<KeyRange>,
    /// Live per-key adapter states, sorted by key.
    pub states: Vec<KeySnapshot>,
    /// Early-finalised per-key reports, sorted by key.
    pub reports: Vec<KeyReport>,
    /// Failed keys, sorted by key.
    pub errors: Vec<KeyError>,
}

/// A snapshot's three key lists: live states, early reports, errors.
pub(super) type KeyEntries = (Vec<KeySnapshot>, Vec<KeyReport>, Vec<KeyError>);

impl PipelineSnapshot {
    /// The snapshot of an audit that has routed nothing: what a fresh
    /// pipeline or fleet starts from. `window` and `horizon` resolve as a
    /// [`PipelineConfig`]'s do.
    pub(super) fn empty(
        algo: &str,
        model: ModelId,
        k: u64,
        window: usize,
        horizon: Option<usize>,
    ) -> Self {
        let header = SnapshotHeader {
            algo: algo.to_string(),
            model,
            k,
            window: window.max(1),
            horizon: resolve_horizon(window, horizon),
            ops_routed: 0,
            uncertified: false,
            partition: None,
        };
        Self::from_parts(header, KeyEntries::default())
    }
}

/// `entries` with each list sorted by key.
fn sorted(mut entries: KeyEntries) -> KeyEntries {
    entries.0.sort_by_key(|entry| entry.key);
    entries.1.sort_by_key(|entry| entry.key);
    entries.2.sort_by_key(|entry| entry.key);
    entries
}

/// The counts check [`read_checkpoint`](super::read_checkpoint) and
/// [`StreamPipeline::resume`] run: no running count, a key's included, is
/// at or above 2^63, which no audit reaches (finalised reports never grow).
pub(super) fn check_counts(snapshot: &PipelineSnapshot) -> Result<(), SnapshotError> {
    check_count("ops_routed", snapshot.ops_routed)?;
    snapshot.states.iter().try_for_each(|entry| check_online_counts(&entry.state))
}

/// Live counters of one shard, as answered by a worker probe.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ShardProgress {
    /// Which shard this is.
    pub shard: usize,
    /// Operations accepted across the shard's keys.
    pub ops: u64,
    /// Keys seen (live plus early-finalised).
    pub keys: usize,
    /// Segments sealed and verified so far.
    pub segments: u64,
    /// Keys with a proven violation so far.
    pub violating_keys: usize,
    /// Keys whose stream failed.
    pub errored_keys: usize,
    /// Horizon-breach reads across the shard's keys.
    pub horizon_breaches: u64,
    /// Orphaned reads across the shard's keys.
    pub orphaned_reads: u64,
    /// Operations currently buffered across the shard's keys.
    pub resident: u64,
    /// Largest retained retired-metadata count of any key — the
    /// high-water mark the retirement horizon bounds.
    pub peak_retired: usize,
    /// Summed staleness-depth histogram
    /// ([`DEPTH_BUCKETS`] buckets; see
    /// [`kav_history::stream::StreamBuilder::depth_histogram`]).
    pub depth_hist: Vec<u64>,
}

/// A progress summary over the whole pipeline at a consistent cut: the
/// per-shard answers plus their merge. Serializable, so drivers can emit
/// it as one NDJSON record per probe (`kav stream --progress-every`).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct PipelineProgress {
    /// Operations pushed into the pipeline.
    pub ops_routed: u64,
    /// Operations accepted across all keys (excludes ops of failed keys
    /// after their failure).
    pub ops: u64,
    /// Keys seen.
    pub keys: usize,
    /// Segments sealed and verified.
    pub segments: u64,
    /// Keys with a proven violation so far.
    pub violating_keys: usize,
    /// Keys whose stream failed.
    pub errored_keys: usize,
    /// Horizon-breach reads.
    pub horizon_breaches: u64,
    /// Orphaned reads.
    pub orphaned_reads: u64,
    /// Operations currently buffered.
    pub resident: u64,
    /// Largest retained retired-metadata count of any key.
    pub peak_retired: usize,
    /// Summed staleness-depth histogram ([`DEPTH_BUCKETS`] buckets).
    pub depth_hist: Vec<u64>,
    /// The per-shard answers the merge came from.
    pub shards: Vec<ShardProgress>,
}

/// A finished shard's reports and errors, each sorted by key.
type Finished = (Vec<KeyReport>, Vec<KeyError>);
/// What crosses the channel in the common case: a batch of keyed ops.
type Batch = Vec<(u64, Operation)>;

/// Cap on a shard channel's bound, in batches, and on the operations an
/// ingest buffer reserves up front. Defaults never reach it (window 1024
/// needs 16 batches at batch 256, 4 096 at batch 1); it keeps an extreme
/// `window` or `batch` from asking for memory the stream never fills.
const MAX_PREALLOCATED: usize = 1 << 16;

/// An empty ingest buffer for batches of `batch` operations.
fn empty_batch(batch: usize) -> Batch {
    Vec::with_capacity(batch.min(MAX_PREALLOCATED))
}

/// The keys of one shard and everything verified about them: the live
/// per-key [`OnlineVerifier`]s, the reports and errors of keys that
/// failed, and the taint of an unverified resume. Its verdicts depend on
/// the operations pushed into it alone, so a pipeline thread and a fleet
/// worker drive it alike.
pub(super) struct Shard<V> {
    verifier: V,
    window: usize,
    horizon: usize,
    /// Some hop of the snapshot chain was resumed unverified: every key,
    /// a key first seen later included, is tainted.
    uncertified: bool,
    // Keyed by *untrusted* input keys and unbounded in size, so these
    // stay on the standard library's DoS-resistant hasher (unlike the
    // builder-internal maps, which are bounded by window/horizon — see
    // `kav_history::fxhash`).
    states: HashMap<u64, OnlineVerifier<V>>,
    failed: HashSet<u64>,
    reports: Vec<KeyReport>,
    errors: Vec<KeyError>,
}

impl<V: Verifier + Clone> Shard<V> {
    /// Checks `snapshot` against `verifier` and `config`, and deals its
    /// keys over `config.shards` shards (see [`StreamPipeline::resume`]).
    pub(super) fn resume(
        verifier: &V,
        config: &PipelineConfig,
        snapshot: &PipelineSnapshot,
        prefix_verified: bool,
    ) -> Result<Vec<Self>, SnapshotError> {
        check_identity(verifier, &snapshot.algo, snapshot.model, snapshot.k)?;
        check_counts(snapshot)?;
        let window = config.window.max(1);
        let horizon = resolve_horizon(config.window, config.horizon);
        if window != snapshot.window || horizon != snapshot.horizon {
            return Err(SnapshotError::new(format!(
                "snapshot used window {} / horizon {}, resuming config resolves to \
                 window {window} / horizon {horizon}",
                snapshot.window, snapshot.horizon
            )));
        }
        // Taint is sticky across hops: one unverified resume anywhere in
        // the chain leaves the whole audit uncertifiable.
        let uncertified = !prefix_verified || snapshot.uncertified;
        let mut shards: Vec<Self> = (0..config.shards.max(1))
            .map(|_| Shard {
                verifier: verifier.clone(),
                window,
                horizon,
                uncertified,
                states: HashMap::new(),
                failed: HashSet::new(),
                reports: Vec::new(),
                errors: Vec::new(),
            })
            .collect();
        let count = shards.len();
        for entry in &snapshot.errors {
            let shard = &mut shards[shard_of(entry.key, count)];
            if !shard.failed.insert(entry.key) {
                return Err(SnapshotError::new(format!(
                    "key {} listed twice among the failed keys",
                    entry.key
                )));
            }
            shard.errors.push(entry.clone());
        }
        let mut reported: HashSet<u64> = HashSet::new();
        for entry in &snapshot.reports {
            if !reported.insert(entry.key) {
                return Err(SnapshotError::new(format!(
                    "key {} carries two finalised reports",
                    entry.key
                )));
            }
        }
        for entry in &snapshot.states {
            let shard = &mut shards[shard_of(entry.key, count)];
            if shard.states.contains_key(&entry.key) {
                return Err(SnapshotError::new(format!("key {} appears twice", entry.key)));
            }
            if shard.failed.contains(&entry.key) {
                return Err(SnapshotError::new(format!(
                    "key {} is both live and failed",
                    entry.key
                )));
            }
            let mut state = OnlineVerifier::resume(verifier.clone(), &entry.state)?;
            if state.window() != window || state.horizon() != horizon {
                return Err(SnapshotError::new(format!(
                    "key {} disagrees with the pipeline's window/horizon",
                    entry.key
                )));
            }
            if uncertified {
                state.mark_uncertified();
            }
            shard.states.insert(entry.key, state);
        }
        for entry in &snapshot.reports {
            let shard = &mut shards[shard_of(entry.key, count)];
            if !shard.failed.contains(&entry.key) {
                return Err(SnapshotError::new(format!(
                    "key {} finalised early without a recorded stream error",
                    entry.key
                )));
            }
            shard.reports.push(entry.clone());
        }
        Ok(shards)
    }

    /// Verifies one operation of `key`, unless the key has failed. An
    /// operation its key refuses fails the key, which keeps its aborted
    /// report beside the error: a violation already proven must survive
    /// (abort never certifies YES), and the key's accepted ops and
    /// segments stay in the tallies — progress counters must never go
    /// backwards when a key fails.
    pub(super) fn push(&mut self, key: u64, op: Operation) {
        if self.failed.contains(&key) {
            return;
        }
        let state = self.states.entry(key).or_insert_with(|| {
            let mut fresh =
                OnlineVerifier::with_horizon(self.verifier.clone(), self.window, self.horizon);
            if self.uncertified {
                // A key first seen after an unverified resume: its earlier
                // records may have been lost with the unproven prefix.
                fresh.mark_uncertified();
            }
            fresh
        });
        if let Err(e) = state.push(op) {
            self.errors.push(KeyError { key, error: e.to_string() });
            self.failed.insert(key);
            let state = self.states.remove(&key).expect("state was just pushed to");
            self.reports.push(KeyReport { key, report: state.abort() });
        }
    }

    /// The shard's live counters, labelled `shard`: its live keys' reports
    /// so far and its failed keys' reports, summed.
    pub(super) fn progress(&self, shard: usize) -> ShardProgress {
        let mut p =
            ShardProgress { shard, depth_hist: vec![0; DEPTH_BUCKETS], ..Default::default() };
        let live: Vec<StreamReport> = self.states.values().map(OnlineVerifier::report).collect();
        // Restored counts are below 2^63 each, but their sums saturate.
        for report in live.iter().chain(self.reports.iter().map(|entry| &entry.report)) {
            p.ops = p.ops.saturating_add(report.ops);
            p.keys += 1;
            p.segments = p.segments.saturating_add(report.segments as u64);
            if report.k_atomic() == Some(false) {
                p.violating_keys += 1;
            }
            p.horizon_breaches = p.horizon_breaches.saturating_add(report.horizon_breaches);
            p.orphaned_reads = p.orphaned_reads.saturating_add(report.orphaned_reads);
            p.peak_retired = p.peak_retired.max(report.peak_retired);
            for (bucket, count) in report.depth_hist.iter().enumerate().take(DEPTH_BUCKETS) {
                p.depth_hist[bucket] = p.depth_hist[bucket].saturating_add(*count);
            }
        }
        p.resident = self.states.values().map(|state| state.resident() as u64).sum();
        p.errored_keys = self.errors.len();
        p
    }

    /// Every key's state, report and error, each list sorted by key.
    pub(super) fn snapshot(&self) -> KeyEntries {
        let states = self.states.iter();
        let states = states.map(|(&key, state)| KeySnapshot { key, state: state.snapshot() });
        sorted((states.collect(), self.reports.clone(), self.errors.clone()))
    }

    /// Ends every key's stream, verifying its last segment.
    pub(super) fn finish(self) -> Finished {
        let (mut reports, mut errors) = (self.reports, self.errors);
        for (key, state) in self.states {
            // As on the push-error path: if the final flush fails
            // validation, a violation already proven on this key must
            // still surface (clone only on that rare path — freeze
            // consumes the state).
            let proven = (state.verdict_so_far() == Some(false)).then(|| state.clone());
            match state.freeze() {
                Ok(report) => reports.push(KeyReport { key, report }),
                Err(e) => {
                    errors.push(KeyError { key, error: e.to_string() });
                    if let Some(violated) = proven {
                        reports.push(KeyReport { key, report: violated.abort() });
                    }
                }
            }
        }
        reports.sort_by_key(|entry| entry.key);
        errors.sort_by_key(|entry| entry.key);
        (reports, errors)
    }
}

/// A shard thread's answer to a probe.
struct ShardProbe {
    progress: ShardProgress,
    /// Present only when the probe asked for a snapshot.
    snapshot: Option<KeyEntries>,
}

/// What the ingest side sends a shard thread.
enum Msg {
    /// Verify these operations.
    Batch(Batch),
    /// Answer with current state; `snapshot` also serializes every key.
    Probe { snapshot: bool, reply: mpsc::SyncSender<ShardProbe> },
}

/// A thread driving one [`Shard`].
struct ShardThread {
    sender: mpsc::SyncSender<Msg>,
    /// `Some` until the thread is joined; taken early (before `finish`)
    /// only to propagate a panic discovered through a failed send.
    handle: Option<JoinHandle<Finished>>,
}

/// A running sharded verification pipeline.
///
/// Push operations with [`push`](Self::push) as they complete, then call
/// [`finish`](Self::finish) to drain the workers and collect per-key
/// reports. Per-key streams must arrive in completion order; different
/// keys may interleave arbitrarily. For long audits,
/// [`snapshot`](Self::snapshot) / [`resume`](Self::resume) checkpoint the
/// whole pipeline and [`progress`](Self::progress) reports on it live.
///
/// # Examples
///
/// ```
/// use kav_core::{Fzf, PipelineConfig, StreamPipeline};
/// use kav_history::{Operation, Time, Value};
///
/// let mut pipeline = StreamPipeline::new(
///     Fzf,
///     PipelineConfig { shards: 2, window: 64, ..Default::default() },
/// );
/// pipeline.push(7, Operation::write(Value(1), Time(0), Time(10)));
/// pipeline.push(9, Operation::write(Value(1), Time(0), Time(10)));
/// pipeline.push(7, Operation::read(Value(1), Time(12), Time(20)));
/// let output = pipeline.finish();
/// assert_eq!(output.keys.len(), 2);
/// assert_eq!(output.all_k_atomic(), Some(true));
/// ```
///
/// Checkpoint a pipeline mid-stream and resume it in a new process:
///
/// ```
/// use kav_core::{Fzf, PipelineConfig, PipelineSnapshot, StreamPipeline};
/// use kav_history::{Operation, Time, Value};
///
/// let config = PipelineConfig { shards: 2, window: 64, ..Default::default() };
/// let mut pipeline = StreamPipeline::new(Fzf, config);
/// pipeline.push(7, Operation::write(Value(1), Time(0), Time(10)));
/// let json = serde_json::to_string(&pipeline.snapshot()).expect("snapshots serialize");
/// drop(pipeline); // the process dies...
///
/// let snapshot: PipelineSnapshot = serde_json::from_str(&json).expect("checkpoint parses");
/// let mut resumed = StreamPipeline::resume(Fzf, config, &snapshot, true)
///     .expect("snapshot is consistent");
/// resumed.push(7, Operation::read(Value(1), Time(12), Time(20)));
/// assert_eq!(resumed.finish().all_k_atomic(), Some(true));
/// ```
pub struct StreamPipeline {
    workers: Vec<ShardThread>,
    /// Per-shard ingest buffers, flushed at `batch` operations.
    buffers: Vec<Batch>,
    batch: usize,
    checkpoint_every: u64,
    /// Every snapshot field but the key lists: the verifier's identity,
    /// the resolved window and horizon, the operations pushed so far, the
    /// taint, and the key-range tag (the resumed snapshot's, else none).
    header: SnapshotHeader,
    /// `ops_routed` as of the last snapshot (cadence anchor).
    ops_at_last_snapshot: u64,
}

impl StreamPipeline {
    /// Spawns `config.shards` workers, each verifying its keys with a
    /// clone of `verifier`.
    pub fn new<V: Verifier + Clone + Send + 'static>(
        verifier: V,
        config: PipelineConfig,
    ) -> Self {
        let (algo, model, k) = (verifier.name(), verifier.model(), verifier.k());
        let empty = PipelineSnapshot::empty(algo, model, k, config.window, config.horizon);
        Self::resume(verifier, config, &empty, true)
            .expect("a pipeline resumes the empty snapshot of its own configuration")
    }

    /// Rebuilds a pipeline from a [`snapshot`](Self::snapshot).
    ///
    /// `verifier` must match the snapshot's recorded algorithm and `k`,
    /// and `config` must resolve to the snapshot's window and horizon
    /// (shards, batch and cadence are free to change — keys re-shard).
    ///
    /// `prefix_verified` is the caller's claim that the stream will be
    /// re-fed from exactly the cut the snapshot was taken at (e.g. proven
    /// by re-fingerprinting the skipped input prefix). Pass `false` when
    /// that cannot be verified: every key is then marked
    /// [uncertified](OnlineVerifier::mark_uncertified), so YES degrades
    /// to `UNKNOWN` while NO stays provable — see
    /// [`StreamReport::resumed_uncertified`].
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] on any mismatch or inconsistency;
    /// nothing about a rejected snapshot is trusted.
    pub fn resume<V: Verifier + Clone + Send + 'static>(
        verifier: V,
        config: PipelineConfig,
        snapshot: &PipelineSnapshot,
        prefix_verified: bool,
    ) -> Result<Self, SnapshotError> {
        let shards = Shard::resume(&verifier, &config, snapshot, prefix_verified)?;
        let mut header = snapshot.header();
        header.uncertified |= !prefix_verified;
        let batch = config.batch.max(1);
        // Bounded channels apply backpressure: if ingest outpaces
        // verification, `push` blocks instead of queueing the stream in
        // memory. The bound is measured in batches but sized so the
        // in-flight backlog stays at roughly four windows of operations —
        // windowed verification must keep windowed memory.
        let backlog = header.window.saturating_mul(4).div_ceil(batch).clamp(2, MAX_PREALLOCATED);
        let workers: Vec<ShardThread> = shards
            .into_iter()
            .enumerate()
            .map(|(index, mut shard)| {
                let (sender, receiver) = mpsc::sync_channel::<Msg>(backlog);
                // One recv per message: a batch amortises the channel cost
                // over its operations; a probe is answered after everything
                // queued before it (the consistent cut).
                let handle = std::thread::spawn(move || {
                    while let Ok(msg) = receiver.recv() {
                        match msg {
                            Msg::Batch(batch) => {
                                batch.into_iter().for_each(|(key, op)| shard.push(key, op));
                            }
                            Msg::Probe { snapshot, reply } => {
                                let progress = shard.progress(index);
                                let snapshot = snapshot.then(|| shard.snapshot());
                                // The ingest side may have given up waiting
                                // (it propagates our panic, not a send
                                // error), so a failed reply is not fatal.
                                let _ = reply.send(ShardProbe { progress, snapshot });
                            }
                        }
                    }
                    shard.finish()
                });
                ShardThread { sender, handle: Some(handle) }
            })
            .collect();
        Ok(StreamPipeline {
            buffers: (0..workers.len()).map(|_| empty_batch(batch)).collect(),
            workers,
            batch,
            checkpoint_every: config.checkpoint_every,
            ops_at_last_snapshot: header.ops_routed,
            header,
        })
    }

    /// Operations pushed into the pipeline so far (across resumes).
    pub fn ops_routed(&self) -> u64 {
        self.header.ops_routed
    }

    /// True once [`PipelineConfig::checkpoint_every`] operations have been
    /// pushed since the last [`snapshot`](Self::snapshot) (or since the
    /// start). Drivers that persist checkpoints poll this after pushes.
    pub fn checkpoint_due(&self) -> bool {
        self.checkpoint_every > 0
            && self.header.ops_routed - self.ops_at_last_snapshot >= self.checkpoint_every
    }

    /// Routes one completed operation to its key's shard buffer, flushing
    /// the buffer across the channel once it holds a full batch (and
    /// blocking while that shard's backlog is full — backpressure).
    ///
    /// # Panics
    ///
    /// Re-raises the worker's own panic if the shard's worker thread has
    /// died (workers only exit early by panicking).
    pub fn push(&mut self, key: u64, op: Operation) {
        self.header.ops_routed += 1;
        let shard = shard_of(key, self.workers.len());
        self.buffers[shard].push((key, op));
        if self.buffers[shard].len() >= self.batch {
            self.flush_shard(shard);
        }
    }

    /// Sends shard `shard`'s buffered batch, propagating the worker's
    /// panic if it died.
    fn flush_shard(&mut self, shard: usize) {
        if self.buffers[shard].is_empty() {
            return;
        }
        let batch = std::mem::replace(&mut self.buffers[shard], empty_batch(self.batch));
        if self.workers[shard].sender.send(Msg::Batch(batch)).is_err() {
            self.propagate_worker_death(shard);
        }
    }

    /// Joins a worker whose channel went dead and re-raises its panic
    /// (workers only exit early by panicking). Diverges.
    fn propagate_worker_death(&mut self, shard: usize) -> ! {
        let handle = self.workers[shard]
            .handle
            .take()
            .expect("a dead worker is joined at most once");
        match handle.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(_) => unreachable!("worker exited cleanly while its channel was open"),
        }
    }

    /// Flushes every ingest buffer and probes every worker, collecting
    /// the answers — the consistent cut both snapshots and progress
    /// reports are built on.
    fn probe(&mut self, snapshot: bool) -> Vec<ShardProbe> {
        let mut pending = Vec::with_capacity(self.workers.len());
        for shard in 0..self.workers.len() {
            self.flush_shard(shard);
            let (reply, answer) = mpsc::sync_channel::<ShardProbe>(1);
            if self.workers[shard].sender.send(Msg::Probe { snapshot, reply }).is_err() {
                self.propagate_worker_death(shard);
            }
            pending.push((shard, answer));
        }
        // Collect after all probes are queued, so shards drain in
        // parallel rather than one at a time.
        pending
            .into_iter()
            .map(|(shard, answer)| match answer.recv() {
                Ok(probe) => probe,
                Err(_) => self.propagate_worker_death(shard),
            })
            .collect()
    }

    /// Captures the pipeline's complete state at a consistent cut (see
    /// the module docs on probes): every in-flight batch is drained, so
    /// the snapshot reflects exactly the [`ops_routed`](Self::ops_routed)
    /// operations pushed so far. Also re-arms the
    /// [`checkpoint_due`](Self::checkpoint_due) cadence.
    ///
    /// Ingest pauses for the probe round-trip; the pipeline then
    /// continues unaffected — snapshotting is not a stop.
    pub fn snapshot(&mut self) -> PipelineSnapshot {
        let mut entries = KeyEntries::default();
        for probe in self.probe(true) {
            let (states, reports, errors) =
                probe.snapshot.expect("probe(true) answers carry snapshots");
            entries.0.extend(states);
            entries.1.extend(reports);
            entries.2.extend(errors);
        }
        self.ops_at_last_snapshot = self.header.ops_routed;
        PipelineSnapshot::from_parts(self.header.clone(), sorted(entries))
    }

    /// Probes every worker for its live counters and merges them — the
    /// cheap observability path (`kav stream --progress-every`): no per-key
    /// serialization, one channel round-trip per shard.
    pub fn progress(&mut self) -> PipelineProgress {
        let mut merged = PipelineProgress {
            ops_routed: self.header.ops_routed,
            depth_hist: vec![0; DEPTH_BUCKETS],
            ..Default::default()
        };
        for probe in self.probe(false) {
            let shard = probe.progress;
            merged.ops = merged.ops.saturating_add(shard.ops);
            merged.keys += shard.keys;
            merged.segments = merged.segments.saturating_add(shard.segments);
            merged.violating_keys += shard.violating_keys;
            merged.errored_keys += shard.errored_keys;
            merged.horizon_breaches =
                merged.horizon_breaches.saturating_add(shard.horizon_breaches);
            merged.orphaned_reads = merged.orphaned_reads.saturating_add(shard.orphaned_reads);
            merged.resident += shard.resident;
            merged.peak_retired = merged.peak_retired.max(shard.peak_retired);
            for (bucket, count) in shard.depth_hist.iter().enumerate().take(DEPTH_BUCKETS) {
                merged.depth_hist[bucket] = merged.depth_hist[bucket].saturating_add(*count);
            }
            merged.shards.push(shard);
        }
        merged.shards.sort_by_key(|shard| shard.shard);
        merged
    }

    /// Closes the stream, waits for all workers and merges their reports.
    ///
    /// Every shard's channel closes before any shard is joined, so the
    /// shards drain and verify their keys' final segments in parallel.
    ///
    /// # Panics
    ///
    /// Re-raises a worker panic (the lowest-numbered panicking shard's).
    pub fn finish(mut self) -> PipelineOutput {
        for shard in 0..self.workers.len() {
            self.flush_shard(shard);
        }
        // Dropping each sender closes its channel; the worker drains and
        // exits. Collecting first closes every channel before any join.
        let handles: Vec<_> = self
            .workers
            .into_iter()
            .map(|worker| worker.handle.expect("flush_shard diverges when it takes a handle"))
            .collect();
        let mut output = PipelineOutput::default();
        for handle in handles {
            match handle.join() {
                Ok((reports, errors)) => {
                    output.keys.extend(reports.into_iter().map(|entry| (entry.key, entry.report)));
                    output.errors.extend(errors.into_iter().map(|entry| (entry.key, entry.error)));
                }
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        output.keys.sort_by_key(|(key, _)| *key);
        output.errors.sort_by_key(|(key, _)| *key);
        output
    }
}

/// Maps a key to a shard by its [`key_hash`], so clustered key ranges
/// still spread across workers.
fn shard_of(key: u64, shards: usize) -> usize {
    ((key_hash(key) >> 33) % shards as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fzf, Verdict};
    use kav_history::stream::completion_order;
    use kav_history::{Time, Value};
    use kav_workloads::{ladder, random_k_atomic, RandomHistoryConfig};
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::Duration;

    fn keyed_corpus(keys: u64) -> Vec<(u64, kav_history::History)> {
        (0..keys)
            .map(|key| {
                let h = random_k_atomic(RandomHistoryConfig {
                    ops: 60,
                    k: 1 + key % 2,
                    seed: 100 + key,
                    ..Default::default()
                });
                (key, h)
            })
            .collect()
    }

    fn interleave(corpus: &[(u64, kav_history::History)]) -> Vec<(u64, Operation)> {
        let mut all: Vec<(u64, Operation)> = corpus
            .iter()
            .flat_map(|(key, h)| {
                completion_order(&h.to_raw()).into_iter().map(move |op| (*key, op))
            })
            .collect();
        all.sort_by_key(|(key, op)| (op.finish, *key));
        all
    }

    #[test]
    fn pipeline_matches_offline_per_key() {
        let corpus = keyed_corpus(6);
        for (shards, batch) in [(1, 1), (3, 1), (1, 64), (3, 64)] {
            let mut pipeline = StreamPipeline::new(
                Fzf,
                PipelineConfig { shards, window: 32, batch, ..Default::default() },
            );
            for (key, op) in interleave(&corpus) {
                pipeline.push(key, op);
            }
            let output = pipeline.finish();
            assert!(output.errors.is_empty(), "{:?}", output.errors);
            assert_eq!(output.keys.len(), corpus.len());
            for ((key, report), (expected_key, h)) in output.keys.iter().zip(&corpus) {
                assert_eq!(key, expected_key);
                let offline = matches!(Fzf.verify(h), Verdict::KAtomic { .. });
                assert_eq!(report.k_atomic(), Some(offline), "key {key}: {report}");
            }
            assert_eq!(output.all_k_atomic(), Some(true));
            assert_eq!(output.total_ops(), 6 * 60);
        }
    }

    #[test]
    fn one_bad_key_does_not_poison_the_others() {
        let mut pipeline = StreamPipeline::new(
            Fzf,
            PipelineConfig { shards: 2, window: 16, ..Default::default() },
        );
        // Key 1 violates completion order; key 2 is clean.
        pipeline.push(1, Operation::write(Value(1), Time(0), Time(10)));
        pipeline.push(1, Operation::write(Value(2), Time(1), Time(5)));
        pipeline.push(2, Operation::write(Value(1), Time(0), Time(10)));
        pipeline.push(2, Operation::read(Value(1), Time(12), Time(20)));
        let output = pipeline.finish();
        assert_eq!(output.errors.len(), 1);
        assert_eq!(output.errors[0].0, 1);
        // The failed key keeps its aborted report — accepted ops stay in
        // the tallies, and the abort can never certify YES.
        assert_eq!(output.keys.len(), 2);
        assert_eq!(output.keys[0].0, 1);
        assert_eq!(output.keys[0].1.k_atomic(), None, "{}", output.keys[0].1);
        assert_eq!(output.keys[0].1.ops, 1);
        assert_eq!(output.keys[1].0, 2);
        assert_eq!(output.keys[1].1.k_atomic(), Some(true), "{}", output.keys[1].1);
        assert_eq!(output.all_k_atomic(), Some(false), "errors force NO");
    }

    #[test]
    fn progress_counters_survive_a_key_failure() {
        // Counters are monotone across a key's failure: the failed key's
        // accepted ops remain in ops/keys/segments (finding a bad record
        // must not make a monitor see negative progress).
        let mut pipeline = StreamPipeline::new(
            Fzf,
            PipelineConfig { shards: 1, window: 2, batch: 1, ..Default::default() },
        );
        for v in 1..=10u64 {
            pipeline.push(1, Operation::write(Value(v), Time(10 * v), Time(10 * v + 5)));
        }
        let before = pipeline.progress();
        assert_eq!(before.ops, 10);
        assert_eq!(before.keys, 1);
        // The key fails (out of completion order)...
        pipeline.push(1, Operation::write(Value(99), Time(1), Time(2)));
        let after = pipeline.progress();
        assert_eq!(after.errored_keys, 1);
        assert_eq!(after.ops, before.ops, "accepted ops must not vanish");
        assert_eq!(after.keys, before.keys, "the key is still a key seen");
        assert!(after.segments >= before.segments, "segments never go backwards");
        pipeline.finish();
    }

    #[test]
    fn proven_violation_survives_a_later_stream_error() {
        let mut pipeline = StreamPipeline::new(
            Fzf,
            PipelineConfig { shards: 1, window: 4, batch: 1, ..Default::default() },
        );
        // ladder(3) shape — not 2-atomic — followed by filler writes so a
        // window seals and proves the violation...
        pipeline.push(8, Operation::write(Value(1), Time(0), Time(10)));
        pipeline.push(8, Operation::write(Value(2), Time(12), Time(20)));
        pipeline.push(8, Operation::write(Value(3), Time(22), Time(30)));
        pipeline.push(8, Operation::read(Value(1), Time(32), Time(40)));
        for v in 4..=8u64 {
            pipeline.push(8, Operation::write(Value(v), Time(10 * v + 2), Time(10 * v + 10)));
        }
        // ...then the stream breaks (out of completion order). The key
        // must surface BOTH the error and the already-proven violation.
        pipeline.push(8, Operation::write(Value(99), Time(1), Time(5)));
        let output = pipeline.finish();
        assert_eq!(output.errors.len(), 1, "{:?}", output.errors);
        assert!(output.errors[0].1.contains("completion order"), "{:?}", output.errors);
        assert_eq!(output.keys.len(), 1);
        let report = &output.keys[0].1;
        assert_eq!(report.k_atomic(), Some(false), "{report}");
        assert!(report.violations >= 1);
        assert_eq!(output.all_k_atomic(), Some(false));
    }

    #[test]
    fn proven_violation_survives_a_failing_final_flush() {
        let mut pipeline = StreamPipeline::new(
            Fzf,
            PipelineConfig { shards: 1, window: 4, batch: 1, ..Default::default() },
        );
        // Same proven violation as above...
        pipeline.push(8, Operation::write(Value(1), Time(0), Time(10)));
        pipeline.push(8, Operation::write(Value(2), Time(12), Time(20)));
        pipeline.push(8, Operation::write(Value(3), Time(22), Time(30)));
        pipeline.push(8, Operation::read(Value(1), Time(32), Time(40)));
        for v in 4..=8u64 {
            pipeline.push(8, Operation::write(Value(v), Time(10 * v + 2), Time(10 * v + 10)));
        }
        // ...but the stream *ends* with a read whose write never arrives,
        // so the final flush segment fails validation in freeze().
        pipeline.push(8, Operation::read(Value(777), Time(92), Time(100)));
        let output = pipeline.finish();
        assert_eq!(output.errors.len(), 1, "{:?}", output.errors);
        assert_eq!(output.keys.len(), 1, "violation must not vanish with the bad tail");
        assert_eq!(output.keys[0].1.k_atomic(), Some(false), "{}", output.keys[0].1);
        assert_eq!(output.all_k_atomic(), Some(false));
    }

    #[test]
    fn violating_key_fails_the_conjunction() {
        let mut pipeline = StreamPipeline::new(
            Fzf,
            PipelineConfig { shards: 2, window: 64, ..Default::default() },
        );
        for (key, h) in [(0u64, ladder(2)), (1u64, ladder(3))] {
            for op in completion_order(&h.to_raw()) {
                pipeline.push(key, op);
            }
        }
        let output = pipeline.finish();
        assert!(output.errors.is_empty(), "{:?}", output.errors);
        let verdicts: Vec<Option<bool>> =
            output.keys.iter().map(|(_, r)| r.k_atomic()).collect();
        assert_eq!(verdicts, vec![Some(true), Some(false)]);
        assert_eq!(output.all_k_atomic(), Some(false));
    }

    #[test]
    fn partial_batches_flush_at_finish() {
        // Batch far larger than the stream: every op is still delivered.
        let mut pipeline = StreamPipeline::new(
            Fzf,
            PipelineConfig { shards: 3, window: 8, batch: 4096, ..Default::default() },
        );
        for (key, op) in interleave(&keyed_corpus(5)) {
            pipeline.push(key, op);
        }
        let output = pipeline.finish();
        assert!(output.errors.is_empty(), "{:?}", output.errors);
        assert_eq!(output.total_ops(), 5 * 60);
    }

    #[test]
    fn pipeline_threads_a_custom_horizon() {
        // Horizon 0 retains no retirees: the late read degrades the key to
        // UNKNOWN (a breach), proving the knob reaches the builders.
        let run = |horizon: Option<usize>| {
            let mut pipeline = StreamPipeline::new(
                Fzf,
                PipelineConfig { shards: 1, window: 1, horizon, batch: 1, ..Default::default() },
            );
            pipeline.push(3, Operation::write(Value(1), Time(0), Time(10)));
            pipeline.push(3, Operation::write(Value(2), Time(12), Time(20)));
            pipeline.push(3, Operation::write(Value(3), Time(22), Time(30)));
            pipeline.push(3, Operation::read(Value(2), Time(32), Time(40)));
            pipeline.finish()
        };
        let bounded = run(Some(0));
        assert_eq!(bounded.keys[0].1.horizon_breaches, 1, "{}", bounded.keys[0].1);
        assert_eq!(bounded.all_k_atomic(), None);
        // The default horizon (16 windows = 16) still recognises value 2.
        let default = run(None);
        assert_eq!(default.keys[0].1.horizon_breaches, 1, "window 1 seals v2 away");
    }

    #[test]
    fn snapshot_resume_agrees_with_uninterrupted_at_any_shard_count() {
        let corpus = keyed_corpus(5);
        let stream = interleave(&corpus);
        let config = PipelineConfig { shards: 2, window: 24, ..Default::default() };

        let mut uninterrupted = StreamPipeline::new(Fzf, config);
        for (key, op) in &stream {
            uninterrupted.push(*key, *op);
        }
        let baseline = uninterrupted.finish();

        for cut in [0, 1, stream.len() / 2, stream.len()] {
            for resume_shards in [1usize, 3] {
                let mut first = StreamPipeline::new(Fzf, config);
                for (key, op) in &stream[..cut] {
                    first.push(*key, *op);
                }
                let json = serde_json::to_string(&first.snapshot()).unwrap();
                drop(first); // the "crash": in-flight state is discarded
                let snapshot: PipelineSnapshot = serde_json::from_str(&json).unwrap();
                // Keys re-shard freely on resume; window/horizon must match.
                let resumed_config =
                    PipelineConfig { shards: resume_shards, batch: 7, ..config };
                let mut resumed =
                    StreamPipeline::resume(Fzf, resumed_config, &snapshot, true).unwrap();
                assert_eq!(resumed.ops_routed(), cut as u64);
                for (key, op) in &stream[cut..] {
                    resumed.push(*key, *op);
                }
                let output = resumed.finish();
                assert_eq!(output.keys, baseline.keys, "cut {cut} shards {resume_shards}");
                assert_eq!(output.errors, baseline.errors);
            }
        }
    }

    #[test]
    fn snapshot_preserves_errors_and_proven_violations() {
        let config = PipelineConfig { shards: 1, window: 4, batch: 1, ..Default::default() };
        let mut pipeline = StreamPipeline::new(Fzf, config);
        // Key 8: proven violation, then a stream error (as in the
        // violation-survival tests above).
        pipeline.push(8, Operation::write(Value(1), Time(0), Time(10)));
        pipeline.push(8, Operation::write(Value(2), Time(12), Time(20)));
        pipeline.push(8, Operation::write(Value(3), Time(22), Time(30)));
        pipeline.push(8, Operation::read(Value(1), Time(32), Time(40)));
        for v in 4..=8u64 {
            pipeline.push(8, Operation::write(Value(v), Time(10 * v + 2), Time(10 * v + 10)));
        }
        pipeline.push(8, Operation::write(Value(99), Time(1), Time(5)));
        // Key 9 stays live across the checkpoint.
        pipeline.push(9, Operation::write(Value(1), Time(200), Time(210)));
        let snapshot = pipeline.snapshot();
        drop(pipeline);
        assert_eq!(snapshot.errors.len(), 1);
        assert_eq!(snapshot.reports.len(), 1);
        assert_eq!(snapshot.states.len(), 1);

        // Duplicated finalised entries are corruption, same as duplicated
        // live states: reject, don't double-count the key.
        let mut dup = snapshot.clone();
        dup.errors.push(dup.errors[0].clone());
        assert!(StreamPipeline::resume(Fzf, config, &dup, true).is_err());
        let mut dup = snapshot.clone();
        dup.reports.push(dup.reports[0].clone());
        assert!(StreamPipeline::resume(Fzf, config, &dup, true).is_err());

        let mut resumed = StreamPipeline::resume(Fzf, config, &snapshot, true).unwrap();
        // More ops for the failed key are still skipped after resume.
        resumed.push(8, Operation::write(Value(50), Time(220), Time(230)));
        resumed.push(9, Operation::read(Value(1), Time(240), Time(250)));
        let output = resumed.finish();
        assert_eq!(output.errors.len(), 1);
        assert_eq!(output.errors[0].0, 8);
        assert_eq!(output.keys.len(), 2);
        assert_eq!(output.keys[0].0, 8);
        assert_eq!(output.keys[0].1.k_atomic(), Some(false), "{}", output.keys[0].1);
        assert_eq!(output.keys[1].0, 9);
        assert_eq!(output.keys[1].1.k_atomic(), Some(true), "{}", output.keys[1].1);
    }

    #[test]
    fn unverified_resume_taints_every_key() {
        let config = PipelineConfig { shards: 2, window: 16, ..Default::default() };
        let mut pipeline = StreamPipeline::new(Fzf, config);
        pipeline.push(1, Operation::write(Value(1), Time(0), Time(10)));
        pipeline.push(2, Operation::write(Value(1), Time(0), Time(10)));
        let snapshot = pipeline.snapshot();
        drop(pipeline);
        let mut resumed = StreamPipeline::resume(Fzf, config, &snapshot, false).unwrap();
        resumed.push(1, Operation::read(Value(1), Time(12), Time(20)));
        resumed.push(2, Operation::read(Value(1), Time(12), Time(20)));
        // A key first seen after the unverified resume is tainted too: its
        // records may have been lost with the unproven prefix.
        resumed.push(3, Operation::write(Value(1), Time(0), Time(10)));
        // And the taint is sticky across a further *verified* hop.
        let chained = resumed.snapshot();
        assert!(chained.uncertified);
        drop(resumed);
        let mut resumed = StreamPipeline::resume(Fzf, config, &chained, true).unwrap();
        resumed.push(4, Operation::write(Value(1), Time(0), Time(10)));
        let output = resumed.finish();
        assert_eq!(output.keys.len(), 4);
        for (key, report) in &output.keys {
            assert!(report.resumed_uncertified, "key {key}: {report}");
            assert_eq!(report.k_atomic(), None, "key {key}: {report}");
        }
        assert_eq!(output.all_k_atomic(), None);
    }

    #[test]
    fn resume_rejects_mismatched_configuration() {
        let config = PipelineConfig { shards: 2, window: 16, ..Default::default() };
        let mut pipeline = StreamPipeline::new(Fzf, config);
        pipeline.push(1, Operation::write(Value(1), Time(0), Time(10)));
        let snapshot = pipeline.snapshot();
        drop(pipeline);
        // Wrong verifier.
        assert!(StreamPipeline::resume(crate::GkOneAv, config, &snapshot, true).is_err());
        // Wrong window.
        let bad = PipelineConfig { window: 32, ..config };
        assert!(StreamPipeline::resume(Fzf, bad, &snapshot, true).is_err());
        // Wrong horizon.
        let bad = PipelineConfig { horizon: Some(3), ..config };
        assert!(StreamPipeline::resume(Fzf, bad, &snapshot, true).is_err());
        // Duplicated key.
        let mut dup = snapshot.clone();
        dup.states.push(dup.states[0].clone());
        assert!(StreamPipeline::resume(Fzf, config, &dup, true).is_err());
        // The pristine snapshot still resumes.
        assert!(StreamPipeline::resume(Fzf, config, &snapshot, true).is_ok());
    }

    #[test]
    fn checkpoint_cadence_re_arms_after_each_snapshot() {
        let config = PipelineConfig {
            shards: 1,
            window: 4,
            checkpoint_every: 3,
            ..Default::default()
        };
        let mut pipeline = StreamPipeline::new(Fzf, config);
        let mut t = 0u64;
        let mut push = |p: &mut StreamPipeline, v: u64| {
            p.push(1, Operation::write(Value(v), Time(t), Time(t + 5)));
            t += 10;
        };
        push(&mut pipeline, 1);
        push(&mut pipeline, 2);
        assert!(!pipeline.checkpoint_due());
        push(&mut pipeline, 3);
        assert!(pipeline.checkpoint_due());
        let snapshot = pipeline.snapshot();
        assert!(!pipeline.checkpoint_due(), "snapshot re-arms the cadence");
        assert_eq!(snapshot.ops_routed, 3);
        // A cadence of 0 is never due.
        let quiet = StreamPipeline::new(
            Fzf,
            PipelineConfig { checkpoint_every: 0, ..Default::default() },
        );
        assert!(!quiet.checkpoint_due());
        pipeline.finish();
        quiet.finish();
    }

    #[test]
    fn progress_reports_a_consistent_cut() {
        let corpus = keyed_corpus(4);
        let stream = interleave(&corpus);
        let mut pipeline = StreamPipeline::new(
            Fzf,
            PipelineConfig { shards: 2, window: 16, batch: 8, ..Default::default() },
        );
        for (key, op) in &stream {
            pipeline.push(*key, *op);
        }
        let progress = pipeline.progress();
        assert_eq!(progress.ops_routed, stream.len() as u64);
        assert_eq!(progress.ops, stream.len() as u64, "clean stream: all ops accepted");
        assert_eq!(progress.keys, corpus.len());
        assert_eq!(progress.violating_keys, 0);
        assert_eq!(progress.errored_keys, 0);
        assert_eq!(progress.shards.len(), 2);
        assert_eq!(progress.depth_hist.len(), DEPTH_BUCKETS);
        let shard_ops: u64 = progress.shards.iter().map(|s| s.ops).sum();
        assert_eq!(shard_ops, progress.ops);
        let hist_reads: u64 = progress.depth_hist.iter().sum();
        assert!(hist_reads > 0, "the corpus contains reads");
        // Progress serializes as one JSON document (the NDJSON record).
        let json = serde_json::to_string(&progress).unwrap();
        let back: PipelineProgress = serde_json::from_str(&json).unwrap();
        assert_eq!(back, progress);
        pipeline.finish();
    }

    /// A verifier that panics on its first segment, to exercise worker
    /// death during an open stream.
    #[derive(Clone)]
    struct ExplodingVerifier;

    impl Verifier for ExplodingVerifier {
        fn k(&self) -> u64 {
            2
        }
        fn name(&self) -> &'static str {
            "exploding"
        }
        fn verify(&self, _: &kav_history::History) -> Verdict {
            panic!("worker exploded on purpose");
        }
    }

    fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
        payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("<non-string panic>")
    }

    #[test]
    fn push_propagates_the_workers_own_panic() {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut pipeline = StreamPipeline::new(
                ExplodingVerifier,
                PipelineConfig { shards: 1, window: 1, batch: 1, ..Default::default() },
            );
            // The worker panics verifying the first sealed segment; the
            // ingest side keeps pushing until a send fails and must then
            // surface the *worker's* panic, not a generic send error.
            for v in 0..10_000u64 {
                pipeline.push(
                    1,
                    Operation::write(Value(v + 1), Time(2 * v + 1), Time(2 * v + 2)),
                );
            }
            pipeline.finish();
        }));
        let payload = result.expect_err("worker panic must propagate");
        assert_eq!(panic_message(payload.as_ref()), "worker exploded on purpose");
    }

    #[test]
    fn finish_propagates_the_workers_own_panic() {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut pipeline = StreamPipeline::new(
                ExplodingVerifier,
                PipelineConfig { shards: 2, window: 1024, ..Default::default() },
            );
            // Too few ops to seal a window: the panic fires in freeze(),
            // after the channel closes, and finish must re-raise it.
            pipeline.push(1, Operation::write(Value(1), Time(0), Time(10)));
            pipeline.push(1, Operation::read(Value(1), Time(12), Time(20)));
            pipeline.finish();
        }));
        let payload = result.expect_err("worker panic must propagate");
        assert_eq!(panic_message(payload.as_ref()), "worker exploded on purpose");
    }

    #[test]
    fn snapshot_propagates_the_workers_own_panic() {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut pipeline = StreamPipeline::new(
                ExplodingVerifier,
                PipelineConfig { shards: 1, window: 1, batch: 1, ..Default::default() },
            );
            // Enough sealed windows to make the worker explode, then probe:
            // the probe must re-raise the worker's panic, not hang or mask.
            for v in 0..100u64 {
                pipeline.push(
                    1,
                    Operation::write(Value(v + 1), Time(2 * v + 1), Time(2 * v + 2)),
                );
            }
            pipeline.snapshot();
        }));
        let payload = result.expect_err("worker panic must propagate");
        assert_eq!(panic_message(payload.as_ref()), "worker exploded on purpose");
    }

    /// A verifier whose every call waits, for at most a few seconds, until
    /// `calls` calls have arrived, and records whether it gave up waiting.
    #[derive(Clone)]
    struct RendezvousVerifier {
        calls: usize,
        /// Calls arrived so far, and whether any call gave up.
        state: Arc<(Mutex<(usize, bool)>, Condvar)>,
    }

    impl RendezvousVerifier {
        fn new(calls: usize) -> Self {
            RendezvousVerifier { calls, state: Arc::default() }
        }

        fn gave_up(&self) -> bool {
            self.state.0.lock().unwrap().1
        }
    }

    impl Verifier for RendezvousVerifier {
        fn k(&self) -> u64 {
            2
        }
        fn name(&self) -> &'static str {
            "rendezvous"
        }
        fn verify(&self, _: &kav_history::History) -> Verdict {
            let (lock, arrived) = &*self.state;
            let mut state = lock.lock().unwrap();
            state.0 += 1;
            arrived.notify_all();
            let (mut state, wait) = arrived
                .wait_timeout_while(state, Duration::from_secs(5), |(n, _)| *n < self.calls)
                .unwrap();
            state.1 |= wait.timed_out();
            Verdict::Consistent
        }
    }

    #[test]
    fn finish_verifies_every_shard_at_once() {
        // One key per shard, in a window wider than the stream: each key's
        // only segment is verified in finish, and each shard's verify
        // waits for the other's.
        let verifier = RendezvousVerifier::new(2);
        let mut pipeline = StreamPipeline::new(
            verifier.clone(),
            PipelineConfig { shards: 2, window: 64, ..Default::default() },
        );
        for shard in 0..2 {
            let key = (0u64..).find(|key| shard_of(*key, 2) == shard).unwrap();
            pipeline.push(key, Operation::write(Value(1), Time(0), Time(10)));
            pipeline.push(key, Operation::read(Value(1), Time(12), Time(20)));
        }
        let output = pipeline.finish();
        assert_eq!(output.keys.len(), 2);
        assert!(!verifier.gave_up(), "a shard verified while the other's channel was open");
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for shards in 1..9 {
            for key in 0..100 {
                let s = shard_of(key, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(key, shards));
            }
        }
    }
}
