//! Online (streaming) verification: sliding-window adapters over the
//! offline verifiers, and a sharded multi-register pipeline.
//!
//! [`OnlineVerifier`] wraps any offline [`Verifier`] (typically
//! [`Fzf`](crate::Fzf) for `k = 2`, [`GkOneAv`](crate::GkOneAv) for
//! `k = 1`, or [`GenK`](crate::GenK) for general `k` — whose
//! budget-exhausted gap escalations surface as inconclusive segments and
//! degrade YES to UNKNOWN, never to a guess) behind a
//! [`StreamBuilder`](kav_history::stream::StreamBuilder): operations are
//! pushed in completion order, and once the buffer outgrows two windows
//! the builder seals a prefix segment at a decomposition-safe cut
//! (leaving about one window buffered) and verifies it offline. The running verdict is the conjunction of
//! the segment verdicts — exact (equal to offline verification of the full
//! history) as long as no read arrives whose dictating write was already
//! sealed away; such *horizon breaches* are counted and surfaced rather
//! than silently mis-verified. See [`kav_history::stream`] for the
//! decomposition argument.
//!
//! [`StreamPipeline`] fans a multi-register stream over worker threads
//! (k-atomicity is per-register, §II-B, so keys shard freely), giving the
//! service-shaped ingest path: `NDJSON → shard by key → per-key
//! OnlineVerifier → per-key reports`.
//!
//! # Checkpoint and resume
//!
//! Long audits must survive process death. Every layer snapshots:
//! [`OnlineVerifier::snapshot`] captures one register's adapter (its
//! [`StreamBuilder`] plus verdict counters) as a serde-serializable
//! [`OnlineSnapshot`], and [`StreamPipeline::snapshot`] drains all in-flight
//! batches, pauses the workers at a consistent cut and merges their per-key
//! snapshots into a [`PipelineSnapshot`]. The matching `resume`
//! constructors rebuild the exact state, so a resumed audit is a
//! *bisimulation* of the uninterrupted one (the snapshot layer validates
//! itself — see [`kav_history::stream`]).
//!
//! Verdict semantics across a snapshot/resume cycle:
//!
//! * **NO stays sound** — a violation proven in any sealed window, before
//!   or after the cut, is a violation of the full history;
//! * **YES additionally requires an unbroken chain** — every operation must
//!   have passed through the chain of resumed verifiers exactly once.
//!   Drivers prove this by fingerprinting the input prefix (see `kav
//!   stream --resume`); when the chain cannot be verified they resume with
//!   `prefix_verified = false`, which taints every report
//!   ([`StreamReport::resumed_uncertified`]) and degrades YES to `UNKNOWN`
//!   — never to a wrong YES.
//!
//! [`CheckpointWriter`] persists snapshots as monotonically versioned,
//! atomically replaced (temp-file + rename) checkpoint files, and
//! [`StreamPipeline::progress`] probes the live workers for an NDJSON-able
//! [`PipelineProgress`] summary without stopping the audit.
//!
//! # Examples
//!
//! ```
//! use kav_core::{Fzf, OnlineVerifier};
//! use kav_history::{Operation, Time, Value};
//!
//! let mut online = OnlineVerifier::new(Fzf, 4);
//! online.push(Operation::write(Value(1), Time(0), Time(10)))?;
//! online.push(Operation::write(Value(2), Time(12), Time(20)))?;
//! online.push(Operation::read(Value(1), Time(22), Time(30)))?; // 1 stale: fine for k=2
//! let report = online.freeze()?;
//! assert_eq!(report.k_atomic(), Some(true));
//! # Ok::<(), kav_core::OnlineError>(())
//! ```
//!
//! Snapshot an adapter mid-stream, serialize it, and resume where it left
//! off:
//!
//! ```
//! use kav_core::{Fzf, OnlineSnapshot, OnlineVerifier};
//! use kav_history::{Operation, Time, Value};
//!
//! let mut online = OnlineVerifier::new(Fzf, 4);
//! online.push(Operation::write(Value(1), Time(0), Time(10)))?;
//! let json = serde_json::to_string(&online.snapshot()).expect("snapshots serialize");
//! drop(online); // the process dies...
//!
//! // ...and a new one picks the audit up from the checkpoint.
//! let snapshot: OnlineSnapshot = serde_json::from_str(&json).expect("checkpoint parses");
//! let mut resumed = OnlineVerifier::resume(Fzf, &snapshot).expect("snapshot is consistent");
//! resumed.push(Operation::read(Value(1), Time(12), Time(20)))?;
//! let report = resumed.freeze()?;
//! assert_eq!(report.k_atomic(), Some(true));
//! # Ok::<(), kav_core::OnlineError>(())
//! ```

mod checkpoint;
pub mod coordinator;
pub mod depth;
pub mod fragment;
pub mod merge;
mod pipeline;
pub mod protocol;

pub use depth::{DepthStats, DepthWindow, DEFAULT_DEPTH_WINDOW};

pub use checkpoint::{
    read_checkpoint, Checkpoint, CheckpointError, CheckpointWriter, SourcePosition,
    CHECKPOINT_FORMAT, DEFAULT_CHECKPOINT_EVERY,
};
pub use coordinator::{FleetConfig, FleetCoordinator, WorkerLink, DEFAULT_REPLAY_CAP};
pub use fragment::{Fragment, LayoutError, SnapshotFragments, SnapshotHeader};
pub use merge::{fleet_verdict, merge_fragments, merge_reports, FleetSummary, MergeError};
pub use pipeline::{
    KeyError, KeyReport, KeySnapshot, PipelineConfig, PipelineOutput, PipelineProgress,
    PipelineSnapshot, ShardProgress, StreamPipeline,
};
pub use protocol::{worker_loop, ProtocolError};

use crate::models::ModelId;
use crate::{Verdict, Verifier};
use kav_history::stream::{Push, StreamBuilder, StreamConfig, StreamError};
use kav_history::{Operation, ValidationError};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

pub use kav_history::stream::SnapshotError;

/// Default retirement horizon, in windows: an [`OnlineVerifier`] built
/// without an explicit horizon retains the value ids of the last
/// `16 × window` sealed writes for breach and duplicate detection. Memory
/// stays bounded by `O(window)` while streams up to 16 windows of sealed
/// writes keep exact (certifiable) verdicts; longer streams degrade YES to
/// `UNKNOWN` rather than growing — raise the horizon to certify deeper.
pub const DEFAULT_HORIZON_WINDOWS: usize = 16;

/// The retirement horizon a window and an optional explicit horizon
/// resolve to: the explicit one, else [`DEFAULT_HORIZON_WINDOWS`] windows.
fn resolve_horizon(window: usize, horizon: Option<usize>) -> usize {
    horizon.unwrap_or_else(|| window.max(1).saturating_mul(DEFAULT_HORIZON_WINDOWS))
}

/// Refuses to resume a snapshot of `algo`, `model` and `k` with a verifier
/// of another identity: the accumulated counters would change meaning.
fn check_identity(
    verifier: &impl Verifier,
    algo: &str,
    model: ModelId,
    k: u64,
) -> Result<(), SnapshotError> {
    if verifier.name() != algo {
        return Err(SnapshotError::new(format!(
            "snapshot was taken with algorithm {algo:?}, resuming with {:?}",
            verifier.name()
        )));
    }
    if verifier.model() != model {
        return Err(SnapshotError::new(format!(
            "snapshot audits the {model} consistency model, resuming verifier decides {}",
            verifier.model()
        )));
    }
    if verifier.k() != k {
        return Err(SnapshotError::new(format!(
            "snapshot decides k = {k}, resuming verifier decides k = {}",
            verifier.k()
        )));
    }
    Ok(())
}

/// Refuses a restored count at or above 2^63 ([`SnapshotError::Count`]).
fn check_count(field: &'static str, value: u64) -> Result<(), SnapshotError> {
    if value < 1 << 63 { Ok(()) } else { Err(SnapshotError::Count { field, value }) }
}

/// The counts check of one key's state, its builder's included.
fn check_online_counts(s: &OnlineSnapshot) -> Result<(), SnapshotError> {
    let counts = [
        ("ops", s.ops),
        ("segments", s.segments as u64),
        ("violations", s.violations as u64),
        ("inconclusive", s.inconclusive as u64),
        ("horizon_breaches", s.horizon_breaches),
    ];
    counts.into_iter().try_for_each(|(field, value)| check_count(field, value))?;
    s.builder.check_counts()
}

/// Why the online verifier rejected an operation or a segment.
#[derive(Debug)]
pub enum OnlineError {
    /// The operation itself was unacceptable (out of order, malformed);
    /// it was discarded and the stream state is unchanged.
    Record(StreamError),
    /// A sealed segment failed §II validation (e.g. duplicate endpoints or
    /// a read preceding its dictating write) — offline verification of the
    /// same history would reject it identically.
    Segment(ValidationError),
}

impl fmt::Display for OnlineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OnlineError::Record(e) => write!(f, "bad stream record: {e}"),
            OnlineError::Segment(e) => write!(f, "invalid segment: {e}"),
        }
    }
}

impl Error for OnlineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            OnlineError::Record(e) => Some(e),
            OnlineError::Segment(e) => Some(e),
        }
    }
}

impl From<StreamError> for OnlineError {
    fn from(e: StreamError) -> Self {
        OnlineError::Record(e)
    }
}

impl From<ValidationError> for OnlineError {
    fn from(e: ValidationError) -> Self {
        OnlineError::Segment(e)
    }
}

/// Final summary of one register's verified stream.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StreamReport {
    /// The consistency model the verdicts decide (absent = k-atomic, the
    /// only model pre-model reports could describe).
    #[serde(default, skip_serializing_if = "ModelId::is_k_atomic")]
    pub model: ModelId,
    /// The `k` the verdicts decide.
    pub k: u64,
    /// Operations accepted (including horizon-breach reads).
    pub ops: u64,
    /// Segments verified (sealed windows plus the final flush).
    pub segments: usize,
    /// Segments whose verdict was [`Verdict::NotKAtomic`].
    pub violations: usize,
    /// Segments whose verdict was [`Verdict::Inconclusive`].
    pub inconclusive: usize,
    /// Reads whose dictating write was sealed before they arrived.
    pub horizon_breaches: u64,
    /// Reads evicted as orphans: their dictating write never arrived
    /// within the expiry horizon (e.g. lost upstream), so they were
    /// excluded from segments to keep memory bounded.
    pub orphaned_reads: u64,
    /// Largest number of operations ever buffered at once.
    pub peak_resident: usize,
    /// Largest number of retired value ids ever retained at once — bounded
    /// by the configured retirement horizon, independent of stream length.
    pub peak_retired: usize,
    /// Reads observed (including breaches).
    pub reads: u64,
    /// Mean arrival-order staleness depth (writes completed between a
    /// read's dictating write and the read).
    pub mean_read_depth: f64,
    /// Maximum arrival-order staleness depth.
    pub max_read_depth: u64,
    /// Histogram of those depths
    /// ([`kav_history::stream::DEPTH_BUCKETS`] buckets: bucket 0 is depth
    /// 0, bucket `i >= 1` covers `[2^(i-1), 2^i)`).
    #[serde(default)]
    pub depth_hist: Vec<u64>,
    /// True when this stream was resumed from a snapshot whose input
    /// prefix could **not** be verified (e.g. a non-seekable source): the
    /// already-audited prefix might differ from what the checkpoint
    /// summarised, so YES degrades to `UNKNOWN`. NO verdicts are
    /// unaffected — the violating window was genuinely observed.
    #[serde(default)]
    pub resumed_uncertified: bool,
}

impl StreamReport {
    /// The stream's verdict:
    ///
    /// * `Some(false)` — some window was not k-atomic, so the full history
    ///   is not k-atomic (sound regardless of window size or breaches);
    /// * `Some(true)` — every window verified k-atomic and the
    ///   decomposition was exact (no breaches, nothing inconclusive), so
    ///   the full history is k-atomic. Like every streaming verdict this
    ///   assumes the input obeys the stream schema; model violations whose
    ///   operations span *different* windows (e.g. a duplicated endpoint)
    ///   are only caught by offline validation — see
    ///   [`kav_history::stream`];
    /// * `None` — no violation found, but breaches or inconclusive
    ///   segments mean the YES cannot be certified at this window size.
    pub fn k_atomic(&self) -> Option<bool> {
        if self.violations > 0 {
            Some(false)
        } else if self.exact() {
            Some(true)
        } else {
            None
        }
    }

    /// True when the windowed decomposition lost no information, i.e. the
    /// verdict is exactly offline verification's: no horizon breaches, no
    /// orphaned reads, nothing inconclusive, and no unverified resume in
    /// the stream's snapshot chain.
    pub fn exact(&self) -> bool {
        self.horizon_breaches == 0
            && self.orphaned_reads == 0
            && self.inconclusive == 0
            && !self.resumed_uncertified
    }
}

impl fmt::Display for StreamReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let verdict = match self.k_atomic() {
            Some(true) => "YES",
            Some(false) => "NO",
            None => "UNKNOWN",
        };
        write!(
            f,
            "{verdict} (k={}, {} ops, {} segments, {} violations, {} breaches, {} orphans, \
             peak {} resident{})",
            self.k,
            self.ops,
            self.segments,
            self.violations,
            self.horizon_breaches,
            self.orphaned_reads,
            self.peak_resident,
            if self.resumed_uncertified { ", uncertified resume" } else { "" }
        )
    }
}

/// A sliding-window online adapter for one register.
///
/// `window` bounds how many operations stay buffered before the adapter
/// tries to seal and verify a prefix segment (clamped to at least 1). The
/// buffer can exceed the window while no decomposition-safe cut exists,
/// but not indefinitely: a read whose dictating write has not arrived
/// within four windows of operations expires as an orphan
/// ([`StreamReport::orphaned_reads`]), so residency stays proportional to
/// the window even on streams with lost records —
/// [`StreamReport::peak_resident`] records the high-water mark.
///
/// Retired-value metadata is likewise bounded: the adapter retains value
/// ids for the last `horizon` sealed writes (default
/// [`DEFAULT_HORIZON_WINDOWS`]` × window`), so **total** memory is
/// `O(window + horizon)` regardless of stream length. A horizon too small
/// for the workload costs certifiability, never soundness: extra
/// [`StreamReport::horizon_breaches`] degrade YES to `UNKNOWN`, while NO
/// verdicts hold at any horizon (see [`kav_history::stream`]).
#[derive(Clone, Debug)]
pub struct OnlineVerifier<V> {
    verifier: V,
    builder: StreamBuilder,
    window: usize,
    /// Re-attempt sealing only once the buffer grows past this length —
    /// hysteresis so a stalled cut search is not repeated on every push.
    next_attempt: usize,
    ops: u64,
    segments: usize,
    violations: usize,
    inconclusive: usize,
    horizon_breaches: u64,
    /// Resumed from a snapshot whose input prefix was not verified.
    resumed_uncertified: bool,
}

/// Serializable state of an [`OnlineVerifier`], produced by
/// [`OnlineVerifier::snapshot`] and consumed by [`OnlineVerifier::resume`].
///
/// The verifier itself is not serialized — only its identity (`algo`,
/// `k`), which resume checks against the verifier it is handed: resuming
/// an FZF audit with a GK verifier would silently change what the
/// accumulated counters mean.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct OnlineSnapshot {
    /// [`Verifier::name`] of the wrapped verifier.
    pub algo: String,
    /// [`Verifier::model`] of the wrapped verifier (absent = k-atomic):
    /// resume refuses to continue an audit under different semantics.
    #[serde(default, skip_serializing_if = "ModelId::is_k_atomic")]
    pub model: ModelId,
    /// The `k` the verdicts decide.
    pub k: u64,
    /// Sliding-window width, in operations.
    pub window: usize,
    /// Sealing hysteresis state (see [`OnlineVerifier::push`]).
    pub next_attempt: usize,
    /// Operations accepted so far.
    pub ops: u64,
    /// Segments verified so far.
    pub segments: usize,
    /// Segments that verified [`Verdict::NotKAtomic`].
    pub violations: usize,
    /// Segments that verified [`Verdict::Inconclusive`].
    pub inconclusive: usize,
    /// Horizon-breach reads so far.
    pub horizon_breaches: u64,
    /// Whether an earlier resume in this stream's chain was unverified.
    #[serde(default)]
    pub resumed_uncertified: bool,
    /// The underlying incremental builder.
    pub builder: kav_history::stream::BuilderSnapshot,
}

impl<V: Verifier> OnlineVerifier<V> {
    /// Wraps `verifier` with a sliding window of `window` operations
    /// (clamped to at least 1) and the default retirement horizon of
    /// [`DEFAULT_HORIZON_WINDOWS`] windows.
    pub fn new(verifier: V, window: usize) -> Self {
        Self::with_horizon(verifier, window, resolve_horizon(window, None))
    }

    /// Wraps `verifier` with an explicit retirement horizon: value ids of
    /// the last `horizon` sealed writes are retained for breach and
    /// duplicate detection. Larger horizons keep long streams certifiable
    /// at the cost of memory (one value id per retained write); any
    /// horizon is sound.
    pub fn with_horizon(verifier: V, window: usize, horizon: usize) -> Self {
        OnlineVerifier {
            verifier,
            builder: StreamBuilder::with_config(StreamConfig { horizon: Some(horizon) }),
            window: window.max(1),
            next_attempt: 0,
            ops: 0,
            segments: 0,
            violations: 0,
            inconclusive: 0,
            horizon_breaches: 0,
            resumed_uncertified: false,
        }
    }

    /// Captures the adapter's complete state as a serializable snapshot —
    /// a bisimulation point: the resumed adapter seals, verifies and
    /// counts exactly as this one would (see the module docs).
    pub fn snapshot(&self) -> OnlineSnapshot {
        OnlineSnapshot {
            algo: self.verifier.name().to_string(),
            model: self.verifier.model(),
            k: self.verifier.k(),
            window: self.window,
            next_attempt: self.next_attempt,
            ops: self.ops,
            segments: self.segments,
            violations: self.violations,
            inconclusive: self.inconclusive,
            horizon_breaches: self.horizon_breaches,
            resumed_uncertified: self.resumed_uncertified,
            builder: self.builder.snapshot(),
        }
    }

    /// Rebuilds an adapter from a [`snapshot`](Self::snapshot), wrapping
    /// `verifier` (which must match the snapshot's recorded `algo`/`k`).
    ///
    /// The caller asserts, by calling this, that the stream will be
    /// re-fed from exactly the point the snapshot was taken; when that
    /// cannot be verified, follow up with
    /// [`mark_uncertified`](Self::mark_uncertified) so YES degrades to
    /// `UNKNOWN` instead of silently trusting an unproven prefix.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] on verifier identity mismatch, an
    /// out-of-range or inconsistent count, or a corrupt builder snapshot.
    pub fn resume(verifier: V, snapshot: &OnlineSnapshot) -> Result<Self, SnapshotError> {
        check_identity(&verifier, &snapshot.algo, snapshot.model, snapshot.k)?;
        check_online_counts(snapshot)?;
        if snapshot.window == 0 {
            return Err(SnapshotError::new("window of zero operations".to_string()));
        }
        if snapshot.violations.saturating_add(snapshot.inconclusive) > snapshot.segments {
            return Err(SnapshotError::new(
                "more failed segments than segments verified".to_string(),
            ));
        }
        let builder = StreamBuilder::resume(&snapshot.builder)?;
        if snapshot.ops < builder.resident() as u64 {
            return Err(SnapshotError::new(
                "fewer operations accepted than currently buffered".to_string(),
            ));
        }
        // The hysteresis threshold is only ever 0 or "resident at the last
        // stalled scan + window/8", and resident never shrinks between a
        // stalled scan and a snapshot — so anything beyond resident +
        // window is corruption, and accepting it would let the buffer
        // grow unboundedly (sealing would never re-arm).
        if snapshot.next_attempt > builder.resident().saturating_add(snapshot.window) {
            return Err(SnapshotError::new(format!(
                "seal hysteresis threshold {} is beyond the buffer ({} resident, window {})",
                snapshot.next_attempt,
                builder.resident(),
                snapshot.window
            )));
        }
        Ok(OnlineVerifier {
            verifier,
            builder,
            window: snapshot.window,
            next_attempt: snapshot.next_attempt,
            ops: snapshot.ops,
            segments: snapshot.segments,
            violations: snapshot.violations,
            inconclusive: snapshot.inconclusive,
            horizon_breaches: snapshot.horizon_breaches,
            resumed_uncertified: snapshot.resumed_uncertified,
        })
    }

    /// Marks the stream's snapshot chain as unverified: the final report
    /// can still prove NO but will never certify YES
    /// ([`StreamReport::resumed_uncertified`]).
    pub fn mark_uncertified(&mut self) {
        self.resumed_uncertified = true;
    }

    /// The window width in operations.
    pub fn window(&self) -> usize {
        self.window
    }

    /// The retirement horizon, in sealed writes.
    pub fn horizon(&self) -> usize {
        self.builder.horizon().expect("online builders always have a bounded horizon")
    }

    /// Operations currently buffered.
    pub fn resident(&self) -> usize {
        self.builder.resident()
    }

    /// Operations accepted so far (including horizon-breach reads).
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Reads expired as orphans so far.
    pub fn orphaned_reads(&self) -> u64 {
        self.builder.orphaned_reads()
    }

    /// High-water mark of retained retired-value metadata.
    pub fn peak_retired(&self) -> usize {
        self.builder.peak_retired()
    }

    /// Histogram of arrival-order staleness depths so far (see
    /// [`kav_history::stream::StreamBuilder::depth_histogram`]).
    pub fn depth_histogram(&self) -> [u64; kav_history::stream::DEPTH_BUCKETS] {
        self.builder.depth_histogram()
    }

    /// The running verdict: `Some(false)` once any window fails, `None`
    /// while the stream is still open and nothing failed.
    pub fn verdict_so_far(&self) -> Option<bool> {
        (self.violations > 0).then_some(false)
    }

    /// Pushes one completed operation, sealing and verifying a segment
    /// once the buffer outgrows twice the configured width.
    ///
    /// Sealing waits for the buffer to reach two windows and then cuts
    /// back down to one: each `O(buffer)` cut scan retires about a
    /// window's worth of operations instead of a single one, making the
    /// scan `O(1)` amortised per operation. Residency therefore oscillates
    /// between one and two windows (plus the orphan-expiry slack) — still
    /// window-proportional, as [`StreamReport::peak_resident`] records.
    ///
    /// # Errors
    ///
    /// [`OnlineError::Record`] when the operation is rejected (state
    /// unchanged), [`OnlineError::Segment`] when a sealed window fails
    /// validation.
    pub fn push(&mut self, op: Operation) -> Result<(), OnlineError> {
        match self.builder.push(op)? {
            Push::Buffered => {}
            Push::BeyondHorizon => {
                self.ops += 1;
                self.horizon_breaches += 1;
                return Ok(());
            }
        }
        self.ops += 1;
        let resident = self.builder.resident();
        if resident > self.window.saturating_mul(2) && resident >= self.next_attempt {
            match self.builder.try_seal(self.window) {
                Some(segment) => {
                    self.next_attempt = 0;
                    self.verify_segment(segment)?;
                }
                None => {
                    // No valid cut yet: wait for the buffer to grow a bit
                    // before scanning again.
                    self.next_attempt = resident + (self.window / 8).max(1);
                }
            }
        }
        Ok(())
    }

    /// Abandons the stream *without* verifying the buffered tail,
    /// returning the report accumulated so far. For error paths where the
    /// stream turned unusable mid-flight: verdict evidence already proven
    /// (violated windows) must not be discarded with the broken tail. The
    /// abandoned tail — buffered operations and whatever the stream would
    /// have delivered next — counts as one inconclusive segment, so an
    /// aborted stream can never certify YES: its verdict is `Some(false)`
    /// when a window already failed, `None` otherwise.
    pub fn abort(mut self) -> StreamReport {
        self.inconclusive += 1;
        self.segments += 1;
        self.report()
    }

    /// Ends the stream: verifies the final segment and returns the report.
    ///
    /// # Errors
    ///
    /// [`OnlineError::Segment`] when the remaining operations fail
    /// validation (e.g. a read whose dictating write never arrived) — the
    /// same condition under which offline verification would reject the
    /// full history.
    pub fn freeze(mut self) -> Result<StreamReport, OnlineError> {
        let last = self.builder.flush();
        if !last.is_empty() {
            self.verify_segment(last)?;
        }
        Ok(self.report())
    }

    fn report(&self) -> StreamReport {
        StreamReport {
            model: self.verifier.model(),
            k: self.verifier.k(),
            ops: self.ops,
            segments: self.segments,
            violations: self.violations,
            inconclusive: self.inconclusive,
            horizon_breaches: self.horizon_breaches,
            orphaned_reads: self.builder.orphaned_reads(),
            peak_resident: self.builder.peak_resident(),
            peak_retired: self.builder.peak_retired(),
            reads: self.builder.reads_accepted(),
            mean_read_depth: self.builder.mean_read_depth(),
            max_read_depth: self.builder.max_read_depth(),
            depth_hist: self.builder.depth_histogram().to_vec(),
            resumed_uncertified: self.resumed_uncertified,
        }
    }

    fn verify_segment(&mut self, segment: kav_history::RawHistory) -> Result<(), OnlineError> {
        let history = segment.into_history()?;
        self.segments += 1;
        match self.verifier.verify(&history) {
            Verdict::KAtomic { .. } | Verdict::Consistent => {}
            Verdict::NotKAtomic => self.violations += 1,
            Verdict::Inconclusive => self.inconclusive += 1,
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fzf, GkOneAv};
    use kav_history::{Time, Value};
    use kav_workloads::{ladder, random_k_atomic, RandomHistoryConfig};

    fn replay<V: Verifier>(
        verifier: V,
        history: &kav_history::History,
        window: usize,
    ) -> StreamReport {
        let mut online = OnlineVerifier::new(verifier, window);
        for id in history.sorted_by_finish() {
            online.push(*history.op(*id)).unwrap();
        }
        online.freeze().unwrap()
    }

    #[test]
    fn atomic_stream_verifies_with_tiny_window() {
        let h = random_k_atomic(RandomHistoryConfig {
            ops: 300,
            k: 2,
            seed: 9,
            ..Default::default()
        });
        let report = replay(Fzf, &h, 32);
        assert_eq!(report.k_atomic(), Some(true), "{report}");
        assert!(report.segments > 1, "window must actually slide: {report}");
        assert!(report.peak_resident < h.len(), "memory must stay windowed");
    }

    #[test]
    fn violations_survive_windowing() {
        // ladder(3) needs k=3. A window covering the read's dictation span
        // keeps the stale read and its write in one segment, so the
        // violation is caught; an undersized window degrades to UNKNOWN
        // (with the breach counted), never to a wrong YES.
        let h = ladder(3);
        let caught = replay(Fzf, &h, 3);
        assert_eq!(caught.k_atomic(), Some(false), "{caught}");
        assert_eq!(caught.violations, 1);

        let blind = replay(Fzf, &h, 1);
        assert_eq!(blind.k_atomic(), None, "{blind}");
        assert!(blind.horizon_breaches > 0);
    }

    #[test]
    fn gk_one_av_streams_too() {
        let h = random_k_atomic(RandomHistoryConfig {
            ops: 200,
            k: 1,
            seed: 4,
            ..Default::default()
        });
        let report = replay(GkOneAv, &h, 32);
        assert_eq!(report.k, 1);
        assert_eq!(report.k_atomic(), Some(true), "{report}");
    }

    #[test]
    fn horizon_breach_degrades_to_unknown_not_wrong() {
        let mut online = OnlineVerifier::new(Fzf, 1);
        // Two writes seal away immediately; the late read of the first
        // write becomes a breach, not a (wrong) YES or a spurious NO.
        online.push(Operation::write(Value(1), Time(0), Time(10))).unwrap();
        online.push(Operation::write(Value(2), Time(12), Time(20))).unwrap();
        online.push(Operation::write(Value(3), Time(22), Time(30))).unwrap();
        online.push(Operation::read(Value(1), Time(32), Time(40))).unwrap();
        let report = online.freeze().unwrap();
        assert_eq!(report.horizon_breaches, 1);
        assert_eq!(report.k_atomic(), None, "{report}");
        assert!(!report.exact());
    }

    #[test]
    fn lost_write_expires_as_orphan_and_keeps_memory_bounded() {
        let mut online = OnlineVerifier::new(Fzf, 4);
        // A read whose write was lost upstream, then a long clean tail.
        online.push(Operation::read(Value(999), Time(0), Time(5))).unwrap();
        let mut t = 10;
        for v in 1..=60u64 {
            online.push(Operation::write(Value(v), Time(t), Time(t + 5))).unwrap();
            online.push(Operation::read(Value(v), Time(t + 7), Time(t + 12))).unwrap();
            t += 20;
        }
        let report = online.freeze().unwrap();
        assert_eq!(report.orphaned_reads, 1);
        assert!(report.peak_resident <= 5 * 4, "buffer must stay windowed: {report}");
        // No violation, but the YES is not certifiable.
        assert_eq!(report.k_atomic(), None, "{report}");
        assert_eq!(report.violations, 0);
    }

    #[test]
    fn abort_keeps_proven_violations_and_never_certifies() {
        // A proven violation survives an abort: the ladder(3) gadget seals
        // into one verified (failing) window, then the stream is cut off.
        let mut online = OnlineVerifier::new(Fzf, 2);
        online.push(Operation::write(Value(1), Time(0), Time(10))).unwrap();
        online.push(Operation::write(Value(2), Time(12), Time(20))).unwrap();
        online.push(Operation::write(Value(3), Time(22), Time(30))).unwrap();
        online.push(Operation::read(Value(1), Time(32), Time(40))).unwrap();
        online.push(Operation::write(Value(4), Time(42), Time(50))).unwrap();
        assert_eq!(online.verdict_so_far(), Some(false));
        let report = online.abort();
        assert_eq!(report.k_atomic(), Some(false), "{report}");

        // A clean-so-far stream aborts to UNKNOWN, never YES: the
        // unverified tail counts as an inconclusive segment.
        let mut online = OnlineVerifier::new(Fzf, 8);
        online.push(Operation::write(Value(1), Time(0), Time(10))).unwrap();
        online.push(Operation::read(Value(1), Time(12), Time(20))).unwrap();
        let report = online.abort();
        assert_eq!(report.k_atomic(), None, "{report}");
        assert_eq!(report.inconclusive, 1);
    }

    #[test]
    fn snapshot_resume_is_transparent_at_any_cut() {
        let h = random_k_atomic(RandomHistoryConfig {
            ops: 160,
            k: 2,
            seed: 11,
            ..Default::default()
        });
        let ops: Vec<Operation> =
            h.sorted_by_finish().iter().map(|id| *h.op(*id)).collect();
        let baseline = replay(Fzf, &h, 16);
        for cut in [0, 1, ops.len() / 3, ops.len() / 2, ops.len() - 1, ops.len()] {
            let mut first = OnlineVerifier::new(Fzf, 16);
            for op in &ops[..cut] {
                first.push(*op).unwrap();
            }
            let json = serde_json::to_string(&first.snapshot()).unwrap();
            drop(first); // the "crash"
            let snapshot: OnlineSnapshot = serde_json::from_str(&json).unwrap();
            let mut resumed = OnlineVerifier::resume(Fzf, &snapshot).unwrap();
            for op in &ops[cut..] {
                resumed.push(*op).unwrap();
            }
            let report = resumed.freeze().unwrap();
            assert_eq!(report, baseline, "cut {cut}");
        }
    }

    #[test]
    fn unverified_resume_degrades_yes_to_unknown_never_no() {
        // A clean stream resumed without prefix verification: UNKNOWN.
        let mut online = OnlineVerifier::new(Fzf, 8);
        online.push(Operation::write(Value(1), Time(0), Time(10))).unwrap();
        let snapshot = online.snapshot();
        let mut resumed = OnlineVerifier::resume(Fzf, &snapshot).unwrap();
        resumed.mark_uncertified();
        resumed.push(Operation::read(Value(1), Time(12), Time(20))).unwrap();
        let report = resumed.freeze().unwrap();
        assert!(report.resumed_uncertified);
        assert!(!report.exact());
        assert_eq!(report.k_atomic(), None, "{report}");

        // The taint survives a further (even verified) snapshot hop.
        let mut online = OnlineVerifier::new(Fzf, 8);
        online.mark_uncertified();
        let again = OnlineVerifier::resume(Fzf, &online.snapshot()).unwrap();
        assert!(again.freeze().unwrap().resumed_uncertified);

        // A violation proven after an unverified resume is still NO.
        let h = ladder(3);
        let ops: Vec<Operation> =
            h.sorted_by_finish().iter().map(|id| *h.op(*id)).collect();
        let mut online = OnlineVerifier::new(Fzf, 3);
        online.push(ops[0]).unwrap();
        let mut resumed = OnlineVerifier::resume(Fzf, &online.snapshot()).unwrap();
        resumed.mark_uncertified();
        for op in &ops[1..] {
            resumed.push(*op).unwrap();
        }
        let report = resumed.freeze().unwrap();
        assert_eq!(report.k_atomic(), Some(false), "{report}");
    }

    #[test]
    fn resume_rejects_mismatches_and_corruption() {
        let mut online = OnlineVerifier::new(Fzf, 8);
        online.push(Operation::write(Value(1), Time(0), Time(10))).unwrap();
        let good = online.snapshot();
        assert_eq!(good.algo, "fzf");
        assert_eq!(good.k, 2);

        // Wrong verifier identity (name and k both differ).
        assert!(OnlineVerifier::resume(GkOneAv, &good).is_err());
        // Tampered adapter state.
        let mut bad = good.clone();
        bad.window = 0;
        assert!(OnlineVerifier::resume(Fzf, &bad).is_err());
        let mut bad = good.clone();
        bad.violations = bad.segments + 1;
        assert!(OnlineVerifier::resume(Fzf, &bad).is_err());
        // Counters near the numeric limits must reject, never overflow.
        let mut bad = good.clone();
        bad.violations = usize::MAX;
        bad.inconclusive = 1;
        assert!(OnlineVerifier::resume(Fzf, &bad).is_err());
        let mut bad = good.clone();
        bad.next_attempt = usize::MAX;
        assert!(OnlineVerifier::resume(Fzf, &bad).is_err());
        let mut bad = good.clone();
        bad.ops = 0; // one op is buffered
        assert!(OnlineVerifier::resume(Fzf, &bad).is_err());
        // Tampered builder state is caught by the builder's own validation.
        let mut bad = good.clone();
        bad.builder.writes_accepted += 1;
        assert!(OnlineVerifier::resume(Fzf, &bad).is_err());
    }

    #[test]
    fn record_errors_leave_the_stream_usable() {
        let mut online = OnlineVerifier::new(Fzf, 8);
        online.push(Operation::write(Value(1), Time(0), Time(10))).unwrap();
        let err = online.push(Operation::write(Value(2), Time(2), Time(8))).unwrap_err();
        assert!(matches!(err, OnlineError::Record(_)));
        online.push(Operation::read(Value(1), Time(12), Time(20))).unwrap();
        let report = online.freeze().unwrap();
        assert_eq!(report.ops, 2);
        assert_eq!(report.k_atomic(), Some(true));
    }

    #[test]
    fn freeze_surfaces_validation_errors_like_offline() {
        let mut online = OnlineVerifier::new(Fzf, 8);
        online.push(Operation::read(Value(7), Time(0), Time(5))).unwrap();
        assert!(matches!(online.freeze(), Err(OnlineError::Segment(_))));
    }

    #[test]
    fn empty_stream_reports_trivially_atomic() {
        let online = OnlineVerifier::new(Fzf, 8);
        let report = online.freeze().unwrap();
        assert_eq!(report.segments, 0);
        assert_eq!(report.k_atomic(), Some(true));
    }
}
