//! Incremental history construction for the streaming verification path.
//!
//! Offline verification consumes a complete [`crate::History`]; the
//! streaming pipeline instead observes operations one at a time, in
//! **completion order** (strictly increasing `finish` — the order a
//! store's audit log naturally emits them). [`StreamBuilder`] accepts that
//! stream for a single register, validates it incrementally, and carves it
//! into *sealed segments* at cut points where verification provably
//! decomposes.
//!
//! # The decomposition invariant
//!
//! Split a history delivered in completion order into a prefix `P` and a
//! suffix `S` such that no read in `S` is dictated by a write in `P`. Then
//! `P · S` is k-atomic **iff** `P` and `S` are each k-atomic:
//!
//! * no `S` operation precedes a `P` operation in real time (completion
//!   order guarantees `s.finish > p.finish > p.start`), so concatenating a
//!   witness of `P` with a witness of `S` is a valid total order;
//! * a read's separation from its dictating write only involves writes
//!   ordered between them, and with no cross-segment dictation those all
//!   lie in the read's own segment;
//! * conversely, restricting a witness of `P · S` to either segment keeps
//!   it valid and never increases any read's separation.
//!
//! [`StreamBuilder::try_seal`] finds such cut points among the buffered
//! operations (reads and their dictating writes are kept in the same
//! segment), so the *operation buffer* stays bounded by the window width
//! rather than the history length whenever the workload's dictation spans
//! fit the window.
//!
//! # The retirement horizon
//!
//! Duplicate-value and breach detection need to recognise the values of
//! *sealed-away* writes. Retaining one value id per sealed write forever
//! would grow linearly with stream length, so the builder instead keeps a
//! **retirement horizon** ([`StreamConfig::horizon`]): only the values of
//! the most recent `horizon` sealed writes are retained. The metadata is
//! then bounded by `horizon`, independent of stream length
//! ([`StreamBuilder::peak_retired`] records the high-water mark).
//!
//! The price is ambiguity beyond the horizon. A read whose value matches
//! a *retained* retiree is a certain breach ([`Push::BeyondHorizon`]). A
//! read whose value is unknown is, while no retiree has been forgotten
//! yet, certainly waiting for a future write and is buffered as pending;
//! once retirees *have* been forgotten it might instead be dictated by a
//! forgotten write, so it is conservatively classified as
//! [`Push::BeyondHorizon`] too. Likewise a write duplicating a forgotten
//! value is accepted — duplicate-write detection beyond the horizon is
//! explicitly **best-effort** (the §II model forbids duplicate values, so
//! this only affects input that already breaks the model).
//!
//! Verdict semantics are unchanged in one direction and degrade gracefully
//! in the other, at **any** horizon (including 0):
//!
//! * **NO stays sound.** The horizon only ever *excludes reads* from
//!   segments (breach-classified reads are dropped). Removing reads from a
//!   history never turns a non-k-atomic remainder k-atomic — restricting a
//!   witness of the full history to the remaining operations keeps it
//!   valid and never increases a read's separation — so a violation found
//!   in any sealed segment is a violation of the full history.
//! * **YES weakens to "not certifiable".** Every conservative
//!   classification increments the breach count, and callers certify YES
//!   only on breach-free streams; a horizon too small for the workload
//!   yields `UNKNOWN`, never a wrong `YES`.
//!
//! A read whose dictating write was already sealed away ("beyond the
//! horizon") is reported as [`Push::BeyondHorizon`] and excluded from
//! segments: dropping a read never turns a non-k-atomic history k-atomic,
//! so violation verdicts stay sound, but a YES verdict is then only exact
//! up to those reads (callers surface the breach count).
//!
//! # Snapshots and resume
//!
//! Long audits checkpoint: [`StreamBuilder::snapshot`] captures the whole
//! builder — buffered window, watermark, retirement ring, orphan marks and
//! every accumulated counter — as a serde-serializable [`BuilderSnapshot`],
//! and [`StreamBuilder::resume`] rebuilds an equivalent builder from one.
//! Resume *validates* the snapshot (completion order, horizon bound,
//! distinct values, counter consistency) and re-derives the internal
//! read/write pairing indexes by replaying the buffered operations, so a
//! corrupted or hand-edited snapshot is rejected with a [`SnapshotError`]
//! instead of silently mis-verifying.
//!
//! The soundness argument extends across a snapshot/resume cycle:
//!
//! * **NO stays sound.** A resumed builder seals exactly the segments the
//!   uninterrupted builder would have sealed (the snapshot is a *bisimulation
//!   point*: every subsequent push observes identical state), so a violation
//!   found after resume is a violation of the full history, and a violation
//!   found before the snapshot was already reported.
//! * **YES requires an unbroken chain.** A YES is only exact if every
//!   operation of the stream passed through *some* builder in the chain —
//!   i.e. the resumed run re-feeds the stream from precisely the point the
//!   snapshot was taken. Callers that cannot verify this (e.g. resuming a
//!   non-seekable source) must degrade YES to UNKNOWN; see
//!   `kav_core::stream` for how the online adapters surface that.
//!
//! # Examples
//!
//! ```
//! use kav_history::stream::{Push, StreamBuilder};
//! use kav_history::{Operation, Time, Value};
//!
//! let mut builder = StreamBuilder::new();
//! builder.push(Operation::write(Value(1), Time(0), Time(10)))?;
//! builder.push(Operation::read(Value(1), Time(12), Time(20)))?;
//! builder.push(Operation::write(Value(2), Time(22), Time(30)))?;
//! assert_eq!(builder.resident(), 3);
//!
//! // Keep at most one op buffered: the w(1)/r(1) pair seals together.
//! let segment = builder.try_seal(1).expect("a valid cut exists");
//! assert_eq!(segment.len(), 2);
//! assert_eq!(builder.resident(), 1);
//! # Ok::<(), kav_history::stream::StreamError>(())
//! ```

use crate::fxhash::{FxHashMap, FxHashSet};
use crate::{Operation, RawHistory, Time, Value};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

/// Buckets of the arrival-order staleness-depth histogram: bucket 0 holds
/// depth 0 (fresh reads), bucket `i >= 1` holds depths in
/// `[2^(i-1), 2^i)`, and the last bucket absorbs everything deeper.
pub const DEPTH_BUCKETS: usize = 16;

/// The histogram bucket a staleness depth falls into.
fn depth_bucket(depth: u64) -> usize {
    if depth == 0 {
        0
    } else {
        ((64 - depth.leading_zeros()) as usize).min(DEPTH_BUCKETS - 1)
    }
}

/// Outcome of accepting one operation into a [`StreamBuilder`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Push {
    /// The operation was buffered and will be part of a future segment.
    Buffered,
    /// A read whose dictating write was already sealed into an earlier
    /// segment — or, once retirees older than the
    /// [horizon](StreamConfig::horizon) have been forgotten, a read whose
    /// value is unknown and therefore *might* be (conservative
    /// classification). The read is **not** buffered; the caller should
    /// count it — it marks staleness deeper than the retirement horizon.
    BeyondHorizon,
}

/// Tuning knobs for a [`StreamBuilder`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamConfig {
    /// Retirement horizon: how many of the most recently sealed writes
    /// keep their value ids retained for duplicate-write and breach
    /// detection. `None` retains every retired value forever (exact
    /// detection, memory grows with the write count — the pre-horizon
    /// behaviour); `Some(h)` bounds the metadata by `h` value ids at the
    /// cost of conservative [`Push::BeyondHorizon`] classification and
    /// best-effort duplicate detection once older retirees are forgotten.
    /// Verdict soundness does not depend on the choice (see the module
    /// docs); pick a comfortable multiple of the window — online adapters
    /// default to 16 windows.
    pub horizon: Option<usize>,
}

/// A record the stream cannot accept. The builder's state is unchanged.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StreamError {
    /// The operation's finish is not strictly beyond the watermark —
    /// completion-order delivery is violated.
    OutOfOrder {
        /// The offending operation.
        op: Operation,
        /// Largest finish time accepted so far.
        watermark: Time,
    },
    /// `finish <= start`: not a proper interval.
    EmptyInterval {
        /// The offending operation.
        op: Operation,
    },
    /// A write of a value already written earlier in the stream (the §II
    /// model requires distinct write values).
    DuplicateWriteValue {
        /// The duplicated value.
        value: Value,
    },
    /// An operation with weight zero (weights must be positive).
    ZeroWeight {
        /// The offending operation.
        op: Operation,
    },
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::OutOfOrder { op, watermark } => write!(
                f,
                "operation {op} arrived out of completion order (watermark {watermark})"
            ),
            StreamError::EmptyInterval { op } => {
                write!(f, "operation {op} has an empty interval")
            }
            StreamError::DuplicateWriteValue { value } => {
                write!(f, "value {value} was already written earlier in the stream")
            }
            StreamError::ZeroWeight { op } => {
                write!(f, "operation {op} has zero weight")
            }
        }
    }
}

impl Error for StreamError {}

/// A checkpoint snapshot that cannot be resumed: it is internally
/// inconsistent (corrupted, truncated, hand-edited) or does not match the
/// configuration it is being resumed under. Resume never "repairs" such a
/// snapshot — verdicts derived from guessed state would be unsound.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The snapshot is inconsistent or mismatched, as the message says.
    Invalid(String),
    /// A restored count is at or above 2^63, which no audit reaches:
    /// resuming it would overflow on a later record.
    Count {
        /// The snapshot field holding the count.
        field: &'static str,
        /// The count it holds.
        value: u64,
    },
}

impl SnapshotError {
    /// An [`Invalid`](Self::Invalid) error carrying a preformatted message.
    pub fn new(message: impl Into<String>) -> Self {
        SnapshotError::Invalid(message.into())
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Invalid(message) => write!(f, "cannot resume snapshot: {message}"),
            SnapshotError::Count { field, value } => {
                write!(f, "cannot resume snapshot: {field} = {value} is at or above 2^63")
            }
        }
    }
}

impl Error for SnapshotError {}

/// Serializable state of a [`StreamBuilder`], produced by
/// [`StreamBuilder::snapshot`] and consumed by [`StreamBuilder::resume`].
///
/// Only the irreducible state is stored: the buffered operations, the
/// retirement ring and the accumulated counters. The derived pairing
/// indexes (the buffered-write map, the reads waiting for their write and
/// each buffered operation's reach, which the seal scan reads) are
/// rebuilt — and thereby cross-checked — by replaying the buffer on
/// resume. Snapshots are deterministic: the same builder state always
/// serializes to the same JSON, so checkpoint files can be compared.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BuilderSnapshot {
    /// Retirement horizon the builder was configured with.
    pub horizon: Option<usize>,
    /// Sequence number of the first buffered operation.
    pub base: u64,
    /// Largest finish time accepted, if any.
    pub watermark: Option<Time>,
    /// Buffered operations in arrival order.
    pub buffer: Vec<Operation>,
    /// Values of the retained retired writes, oldest first.
    pub retired_recent: Vec<Value>,
    /// Writes ever retired, including forgotten ones.
    pub retired_total: u64,
    /// High-water mark of the retirement ring.
    pub peak_retired: usize,
    /// Sequence numbers of buffered reads expired as orphans, ascending.
    pub orphaned: Vec<u64>,
    /// Total reads expired as orphans.
    pub orphaned_reads: u64,
    /// Total writes accepted.
    pub writes_accepted: u64,
    /// Total reads accepted (including horizon breaches).
    pub reads_accepted: u64,
    /// Sum of arrival-order staleness depths.
    pub depth_sum: u64,
    /// Maximum arrival-order staleness depth.
    pub max_depth: u64,
    /// Reads contributing to the depth statistics.
    pub depth_count_reads: u64,
    /// Depth histogram ([`DEPTH_BUCKETS`] buckets).
    pub depth_hist: Vec<u64>,
    /// Segments sealed so far.
    pub segments_sealed: usize,
    /// High-water mark of the operation buffer.
    pub peak_resident: usize,
}

impl BuilderSnapshot {
    /// Refuses a count at or above 2^63, naming its field
    /// ([`SnapshotError::Count`]). [`StreamBuilder::resume`] runs this
    /// first, as does a reader validating a snapshot before resuming it.
    pub fn check_counts(&self) -> Result<(), SnapshotError> {
        let counts = [
            ("base", self.base),
            ("retired_total", self.retired_total),
            ("orphaned_reads", self.orphaned_reads),
            ("writes_accepted", self.writes_accepted),
            ("reads_accepted", self.reads_accepted),
            ("depth_sum", self.depth_sum),
            ("depth_count_reads", self.depth_count_reads),
            ("segments_sealed", self.segments_sealed as u64),
        ];
        let hist = self.depth_hist.iter().map(|&count| ("depth_hist", count));
        match counts.into_iter().chain(hist).find(|&(_, value)| value >= 1 << 63) {
            Some((field, value)) => Err(SnapshotError::Count { field, value }),
            None => Ok(()),
        }
    }
}

/// One buffered operation and its *reach*: the largest sequence number
/// it is paired with as the earlier of a read and its dictating write (a
/// write read later, or a read whose write arrived later), else its own.
/// A cut after the row at sequence `s` is valid when no row up to it
/// reaches past `s`.
#[derive(Clone, Copy, Debug)]
struct Row {
    op: Operation,
    reach: u64,
}

/// Incremental, windowed construction of one register's history.
///
/// Operations are [pushed](StreamBuilder::push) in completion order;
/// [`try_seal`](StreamBuilder::try_seal) extracts a prefix segment at a
/// decomposition-safe cut point, and [`flush`](StreamBuilder::flush)
/// drains whatever remains when the stream ends.
///
/// Incremental checks (rejected immediately): completion-order delivery,
/// proper intervals, positive weights, and distinct write values (exact
/// among buffered and horizon-retained writes; best-effort for values
/// forgotten past the [horizon](StreamConfig::horizon)).
/// The remaining §II model assumptions (distinct endpoints, reads not
/// preceding their dictating writes) are enforced *per segment* when the
/// caller validates a sealed segment with [`RawHistory::into_history`];
/// duplicate endpoints that land in different segments are not detected.
#[derive(Clone, Debug, Default)]
pub struct StreamBuilder {
    /// Buffered operations in arrival order; row `i` has sequence number
    /// `base + i`.
    rows: Vec<Row>,
    /// Sequence number of the first buffered operation.
    base: u64,
    /// Largest finish time accepted (advances even for horizon breaches).
    watermark: Option<Time>,
    /// Buffered writes: value → (sequence number, writes arrived before it).
    buffered_writes: FxHashMap<Value, (u64, u64)>,
    /// Buffered reads still waiting for their dictating write: value →
    /// their sequence numbers in arrival order (never an empty list).
    pending_reads: FxHashMap<Value, Vec<u64>>,
    /// Retirement horizon (see [`StreamConfig::horizon`]).
    horizon: Option<usize>,
    /// Values of the most recent retired writes, oldest first; evicted
    /// past the horizon.
    retired_recent: VecDeque<Value>,
    /// Set view of `retired_recent` for O(1) membership. A value appears
    /// at most once in the ring: a duplicate write is rejected while its
    /// value is retained, so it can only re-enter after eviction.
    retired_set: FxHashSet<Value>,
    /// Writes ever retired, including those forgotten past the horizon.
    retired_total: u64,
    /// Largest `retired_recent` size ever reached.
    peak_retired: usize,
    /// Buffered reads declared orphans (their write outstayed the expiry
    /// horizon); skipped when their position drains.
    orphaned: FxHashSet<u64>,
    /// Total reads expired as orphans.
    orphaned_reads: u64,
    /// Total writes accepted (used for arrival-order staleness depths).
    writes_accepted: u64,
    /// Total reads accepted (including horizon breaches).
    reads_accepted: u64,
    /// Sum over reads of "writes that completed between my dictating
    /// write's arrival and mine" (breach reads excluded).
    depth_sum: u64,
    /// Maximum such depth (breach reads excluded).
    max_depth: u64,
    /// Reads whose dictating write is known (depth statistics population).
    depth_count_reads: u64,
    /// Histogram of those depths, in [`depth_bucket`] buckets.
    depth_hist: [u64; DEPTH_BUCKETS],
    segments_sealed: usize,
    peak_resident: usize,
}

impl StreamBuilder {
    /// Creates an empty builder with watermark at minus infinity and an
    /// unbounded retirement horizon.
    pub fn new() -> Self {
        StreamBuilder::default()
    }

    /// Creates an empty builder with the given configuration.
    pub fn with_config(config: StreamConfig) -> Self {
        StreamBuilder { horizon: config.horizon, ..StreamBuilder::default() }
    }

    /// The retirement horizon this builder was configured with.
    pub fn horizon(&self) -> Option<usize> {
        self.horizon
    }

    /// Number of operations currently buffered.
    pub fn resident(&self) -> usize {
        self.rows.len()
    }

    /// Largest buffer size ever reached.
    pub fn peak_resident(&self) -> usize {
        self.peak_resident
    }

    /// Retired value ids currently retained for breach and duplicate
    /// detection (at most the horizon).
    pub fn retired_resident(&self) -> usize {
        self.retired_recent.len()
    }

    /// Largest number of retired value ids ever retained at once — the
    /// metadata the horizon bounds ([`StreamConfig::horizon`]).
    pub fn peak_retired(&self) -> usize {
        self.peak_retired
    }

    /// Writes ever retired into sealed segments, including those whose
    /// value ids were since forgotten past the horizon.
    pub fn retired_total(&self) -> u64 {
        self.retired_total
    }

    /// True once at least one retiree's value id has been forgotten:
    /// unknown-value reads are then classified conservatively as
    /// [`Push::BeyondHorizon`] and duplicate-write detection is
    /// best-effort.
    pub fn horizon_exceeded(&self) -> bool {
        self.retired_total > self.retired_recent.len() as u64
    }

    /// Number of segments sealed so far (excluding [`flush`](Self::flush)).
    pub fn segments_sealed(&self) -> usize {
        self.segments_sealed
    }

    /// Largest finish time accepted so far, if any.
    pub fn watermark(&self) -> Option<Time> {
        self.watermark
    }

    /// Total reads accepted, including horizon breaches.
    pub fn reads_accepted(&self) -> u64 {
        self.reads_accepted
    }

    /// Reads expired as orphans: their dictating write never arrived
    /// within the expiry horizon, so they were evicted (and excluded from
    /// segments) to keep the buffer bounded. Like horizon breaches, a
    /// non-zero count means a YES verdict cannot be certified.
    pub fn orphaned_reads(&self) -> u64 {
        self.orphaned_reads
    }

    /// Mean arrival-order staleness depth over reads with a known dictating
    /// write: how many writes completed between the dictating write's
    /// arrival and the read's. Horizon-breach reads and reads still waiting
    /// for their write are excluded.
    pub fn mean_read_depth(&self) -> f64 {
        if self.depth_count_reads == 0 {
            0.0
        } else {
            self.depth_sum as f64 / self.depth_count_reads as f64
        }
    }

    /// Maximum arrival-order staleness depth (same population as
    /// [`mean_read_depth`](Self::mean_read_depth)).
    pub fn max_read_depth(&self) -> u64 {
        self.max_depth
    }

    /// Histogram of arrival-order staleness depths over the
    /// [`mean_read_depth`](Self::mean_read_depth) population: bucket 0 is
    /// depth 0, bucket `i >= 1` covers `[2^(i-1), 2^i)`, the last bucket
    /// absorbs deeper reads ([`DEPTH_BUCKETS`] buckets).
    pub fn depth_histogram(&self) -> [u64; DEPTH_BUCKETS] {
        self.depth_hist
    }

    /// Accepts one operation.
    ///
    /// # Errors
    ///
    /// Returns a [`StreamError`] (leaving all state unchanged) when the
    /// operation violates an incrementally-checkable model assumption.
    pub fn push(&mut self, op: Operation) -> Result<Push, StreamError> {
        if op.finish <= op.start {
            return Err(StreamError::EmptyInterval { op });
        }
        if op.weight.as_u32() == 0 {
            return Err(StreamError::ZeroWeight { op });
        }
        if let Some(watermark) = self.watermark {
            if op.finish <= watermark {
                return Err(StreamError::OutOfOrder { op, watermark });
            }
        }
        if op.is_write()
            && (self.buffered_writes.contains_key(&op.value)
                || self.retired_set.contains(&op.value))
        {
            // Best-effort past the horizon: a duplicate of a *forgotten*
            // retiree is not caught here (such input already violates the
            // §II distinct-values assumption).
            return Err(StreamError::DuplicateWriteValue { value: op.value });
        }
        // Every error path is above; the watermark advances exactly once
        // per accepted operation, horizon-breach reads included.
        self.watermark = Some(op.finish);
        let seq = self.base + self.rows.len() as u64;
        if op.is_write() {
            self.buffered_writes.insert(op.value, (seq, self.writes_accepted));
            self.writes_accepted += 1;
            // Reads that arrived before their dictating write resolve now
            // with arrival-order depth 0 (no write completed in between
            // that postdates the dictating write), and now reach it.
            for read_seq in self.pending_reads.remove(&op.value).unwrap_or_default() {
                self.rows[(read_seq - self.base) as usize].reach = seq;
                self.depth_count_reads += 1;
                self.depth_hist[0] += 1;
            }
        } else {
            self.reads_accepted += 1;
            if let Some(&(write_seq, writes_before)) = self.buffered_writes.get(&op.value) {
                let depth = self.writes_accepted - writes_before - 1;
                self.depth_sum += depth;
                self.max_depth = self.max_depth.max(depth);
                self.depth_count_reads += 1;
                self.depth_hist[depth_bucket(depth)] += 1;
                self.rows[(write_seq - self.base) as usize].reach = seq;
            } else if self.retired_set.contains(&op.value) {
                return Ok(Push::BeyondHorizon);
            } else if self.horizon_exceeded() {
                // The value is unknown, but retirees have been forgotten:
                // the dictating write may lie beyond the horizon, so the
                // read is conservatively a breach rather than a pending
                // read (see the module docs — NO stays sound, YES degrades
                // to "not certifiable").
                return Ok(Push::BeyondHorizon);
            } else {
                self.pending_reads.entry(op.value).or_default().push(seq);
            }
        }
        self.rows.push(Row { op, reach: seq });
        self.peak_resident = self.peak_resident.max(self.rows.len());
        Ok(Push::Buffered)
    }

    /// Seals and returns a prefix of the buffer at a decomposition-safe cut
    /// point, aiming to leave at most `max_resident` operations buffered.
    ///
    /// A cut is valid when it separates no read from its dictating write
    /// (buffered or still unarrived). Among valid cuts the builder picks
    /// the **smallest** one that reaches the target — retiring as little as
    /// possible minimises the risk of future horizon breaches — falling
    /// back to the largest valid cut when none reaches it. Returns `None`
    /// when the buffer is already within the target or only the empty cut
    /// is valid.
    ///
    /// The scan walks the rows in arrival order up to the oldest read
    /// still waiting for its write (which blocks every cut past it),
    /// keeping a running maximum of each row's *reach*, the largest
    /// sequence number it is paired with: the cut after a row is valid
    /// exactly when that maximum does not pass the row itself.
    ///
    /// A waiting read blocks cuts only for four windows (`4 * max_resident`)
    /// of arrivals: a write lost upstream must not grow the buffer for the
    /// rest of the stream, so older waiting reads expire as
    /// [orphans](Self::orphaned_reads) and are excluded from segments.
    pub fn try_seal(&mut self, max_resident: usize) -> Option<RawHistory> {
        let len = self.rows.len();
        if len <= max_resident {
            return None;
        }

        // Expire orphan candidates: a waiting read would otherwise block
        // every future cut, growing the buffer for the rest of the stream.
        // A read whose write has not arrived within four windows of ops is
        // declared an orphan — dropped from the waiting lists, excluded
        // from segments when its position drains, and counted (so the
        // final verdict degrades to "not certifiable", never to a wrong
        // YES; dropping a read cannot hide a violation among the rest).
        let expiry = max_resident.max(1).saturating_mul(4);
        if len > expiry {
            let cutoff = self.base + (len - expiry) as u64;
            let orphaned = &mut self.orphaned;
            let orphaned_reads = &mut self.orphaned_reads;
            self.pending_reads.retain(|_, seqs| {
                // Arrival order: the expired reads are a prefix.
                let expired = seqs.partition_point(|&seq| seq < cutoff);
                *orphaned_reads += expired as u64;
                orphaned.extend(seqs.drain(..expired));
                !seqs.is_empty()
            });
        }

        let base = self.base;
        let open = self.pending_reads.values().map(|seqs| seqs[0]).min();
        let open = open.map_or(len, |oldest| (oldest - base) as usize);
        let target = len - max_resident;
        let mut best: Option<usize> = None;
        let mut reach = 0;
        for (i, row) in self.rows[..open].iter().enumerate() {
            reach = reach.max(row.reach);
            if reach <= base + i as u64 {
                best = Some(i + 1);
                if i + 1 >= target {
                    break; // smallest cut reaching the target
                }
            }
        }
        let cut = best?;

        let sealed = self.drain_prefix(cut);
        self.segments_sealed += 1;
        Some(sealed)
    }

    /// Drains the first `count` buffered ops: orphan positions are
    /// skipped, drained writes retire their values (evicting retirees past
    /// the horizon), `base` advances.
    fn drain_prefix(&mut self, count: usize) -> RawHistory {
        let mut sealed = RawHistory::new();
        sealed.ops.reserve(count);
        for (seq, Row { op, .. }) in (self.base..).zip(self.rows.drain(..count)) {
            if self.orphaned.remove(&seq) {
                continue; // expired orphan read: counted, not sealed
            }
            if op.is_write() {
                self.buffered_writes.remove(&op.value);
                self.retired_total += 1;
                if self.horizon != Some(0) {
                    self.retired_recent.push_back(op.value);
                    self.retired_set.insert(op.value);
                }
            }
            sealed.ops.push(op);
        }
        if let Some(horizon) = self.horizon {
            while self.retired_recent.len() > horizon {
                let old = self.retired_recent.pop_front().expect("len > horizon >= 0");
                self.retired_set.remove(&old);
            }
        }
        self.peak_retired = self.peak_retired.max(self.retired_recent.len());
        self.base += count as u64;
        sealed
    }

    /// Drains every buffered operation as the stream's final segment.
    ///
    /// Reads still waiting for a dictating write are included; validating
    /// the returned segment will report them as anomalies, exactly as
    /// offline validation of the full history would.
    pub fn flush(&mut self) -> RawHistory {
        let sealed = self.drain_prefix(self.rows.len());
        self.pending_reads.clear();
        sealed
    }

    /// Captures the builder's complete state as a serializable snapshot.
    ///
    /// The snapshot is a *bisimulation point*: a builder
    /// [resumed](Self::resume) from it reacts to every future push and
    /// seal exactly as this builder would, so checkpoint/resume is
    /// invisible to verdicts (see the module docs).
    ///
    /// # Examples
    ///
    /// ```
    /// use kav_history::stream::StreamBuilder;
    /// use kav_history::{Operation, Time, Value};
    ///
    /// let mut builder = StreamBuilder::new();
    /// builder.push(Operation::write(Value(1), Time(0), Time(10)))?;
    /// let snapshot = builder.snapshot();
    ///
    /// // ...process crashes; later, a new process picks up the audit...
    /// let mut resumed = StreamBuilder::resume(&snapshot).expect("snapshot is consistent");
    /// resumed.push(Operation::read(Value(1), Time(12), Time(20)))?;
    /// assert_eq!(resumed.resident(), 2);
    /// # Ok::<(), kav_history::stream::StreamError>(())
    /// ```
    pub fn snapshot(&self) -> BuilderSnapshot {
        let mut orphaned: Vec<u64> = self.orphaned.iter().copied().collect();
        orphaned.sort_unstable();
        BuilderSnapshot {
            horizon: self.horizon,
            base: self.base,
            watermark: self.watermark,
            buffer: self.rows.iter().map(|row| row.op).collect(),
            retired_recent: self.retired_recent.iter().copied().collect(),
            retired_total: self.retired_total,
            peak_retired: self.peak_retired,
            orphaned,
            orphaned_reads: self.orphaned_reads,
            writes_accepted: self.writes_accepted,
            reads_accepted: self.reads_accepted,
            depth_sum: self.depth_sum,
            max_depth: self.max_depth,
            depth_count_reads: self.depth_count_reads,
            depth_hist: self.depth_hist.to_vec(),
            segments_sealed: self.segments_sealed,
            peak_resident: self.peak_resident,
        }
    }

    /// Rebuilds a builder from a [`snapshot`](Self::snapshot).
    ///
    /// The snapshot is validated — completion order and interval sanity of
    /// the buffer, the horizon bound on the retirement ring, value
    /// distinctness across buffer and ring, orphan marks pointing at
    /// buffered reads, bounded and consistent counts — and the derived pairing
    /// indexes are re-derived by replaying the buffered operations.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] naming the first inconsistency; nothing
    /// about such a snapshot is trusted.
    pub fn resume(snapshot: &BuilderSnapshot) -> Result<StreamBuilder, SnapshotError> {
        let s = snapshot;
        s.check_counts()?;
        let err = |msg: String| Err(SnapshotError::new(msg));
        if s.depth_hist.len() != DEPTH_BUCKETS {
            return err(format!(
                "depth histogram has {} buckets, expected {DEPTH_BUCKETS}",
                s.depth_hist.len()
            ));
        }
        if let Some(h) = s.horizon {
            if s.retired_recent.len() > h {
                return err(format!(
                    "{} retained retirees exceed the horizon {h}",
                    s.retired_recent.len()
                ));
            }
        }
        if s.peak_retired < s.retired_recent.len() || s.peak_resident < s.buffer.len() {
            return err("high-water marks below current occupancy".into());
        }
        if s.retired_total < s.retired_recent.len() as u64 {
            return err("more retained retirees than writes ever retired".into());
        }

        // The buffer must itself be a legal completion-order stream.
        let mut prev: Option<Time> = None;
        for op in &s.buffer {
            if op.finish <= op.start {
                return err(format!("buffered operation {op} has an empty interval"));
            }
            if op.weight.as_u32() == 0 {
                return err(format!("buffered operation {op} has zero weight"));
            }
            if let Some(p) = prev {
                if op.finish <= p {
                    return err(format!("buffered operation {op} breaks completion order"));
                }
            }
            prev = Some(op.finish);
        }
        match (prev, s.watermark) {
            (Some(last), Some(mark)) if last > mark => {
                return err("watermark behind the buffered operations".into());
            }
            (Some(_), None) => return err("non-empty buffer without a watermark".into()),
            _ => {}
        }

        let mut retired_set: FxHashSet<Value> = FxHashSet::default();
        for v in &s.retired_recent {
            if !retired_set.insert(*v) {
                return err(format!("value {v} retired twice in the retained ring"));
            }
        }

        // No sum below overflows: `base` and `retired_total` are < 2^63.
        let len = s.buffer.len() as u64;
        let mut orphaned: FxHashSet<u64> = FxHashSet::default();
        for &seq in &s.orphaned {
            if seq < s.base || seq >= s.base + len {
                return err(format!("orphan sequence {seq} outside the buffer"));
            }
            if !s.buffer[(seq - s.base) as usize].is_read() {
                return err(format!("orphan sequence {seq} marks a write"));
            }
            if !orphaned.insert(seq) {
                return err(format!("orphan sequence {seq} listed twice"));
            }
        }
        if s.orphaned_reads < orphaned.len() as u64 {
            return err("orphan total below the marked orphans".into());
        }

        // Replay the buffer to re-derive (and cross-check) the pairing
        // indexes and every row's reach. Counters are restored, not
        // recomputed: they summarise arrivals that predate the buffer.
        let mut buffered_writes: FxHashMap<Value, (u64, u64)> = FxHashMap::default();
        let mut pending_reads: FxHashMap<Value, Vec<u64>> = FxHashMap::default();
        let mut buffered_write_count = 0u64;
        let mut rows: Vec<Row> = Vec::with_capacity(s.buffer.len());
        for (seq, op) in (s.base..).zip(&s.buffer) {
            if op.is_write() {
                if retired_set.contains(&op.value) {
                    return err(format!("buffered write duplicates retained value {}", op.value));
                }
                let writes_before = s.retired_total + buffered_write_count;
                if buffered_writes.insert(op.value, (seq, writes_before)).is_some() {
                    return err(format!("value {} written twice in the buffer", op.value));
                }
                buffered_write_count += 1;
                for read_seq in pending_reads.remove(&op.value).unwrap_or_default() {
                    rows[(read_seq - s.base) as usize].reach = seq;
                }
            } else if orphaned.contains(&seq) {
                // Expired orphan: excluded from the cut constraints.
            } else if let Some(&(write_seq, _)) = buffered_writes.get(&op.value) {
                rows[(write_seq - s.base) as usize].reach = seq;
            } else if retired_set.contains(&op.value) {
                // Such a read would have been classified BeyondHorizon and
                // never buffered.
                return err(format!("buffered read of retired value {}", op.value));
            } else {
                pending_reads.entry(op.value).or_default().push(seq);
            }
            rows.push(Row { op: *op, reach: seq });
        }
        if s.writes_accepted != s.retired_total + buffered_write_count {
            return err(format!(
                "{} writes accepted but {} retired + {} buffered",
                s.writes_accepted, s.retired_total, buffered_write_count
            ));
        }
        if s.depth_count_reads > s.reads_accepted {
            return err("depth population exceeds reads accepted".into());
        }

        let mut depth_hist = [0u64; DEPTH_BUCKETS];
        depth_hist.copy_from_slice(&s.depth_hist);
        Ok(StreamBuilder {
            rows,
            base: s.base,
            watermark: s.watermark,
            buffered_writes,
            pending_reads,
            horizon: s.horizon,
            retired_recent: s.retired_recent.iter().copied().collect(),
            retired_set,
            retired_total: s.retired_total,
            peak_retired: s.peak_retired,
            orphaned,
            orphaned_reads: s.orphaned_reads,
            writes_accepted: s.writes_accepted,
            reads_accepted: s.reads_accepted,
            depth_sum: s.depth_sum,
            max_depth: s.max_depth,
            depth_count_reads: s.depth_count_reads,
            depth_hist,
            segments_sealed: s.segments_sealed,
            peak_resident: s.peak_resident,
        })
    }
}

/// Returns the operations of `raw` in completion order (by finish time),
/// the delivery order [`StreamBuilder`] expects.
///
/// # Examples
///
/// ```
/// use kav_history::stream::completion_order;
/// use kav_history::{RawHistory, Time, Value};
///
/// let mut raw = RawHistory::new();
/// raw.write(Value(1), Time(0), Time(30)); // finishes last
/// raw.write(Value(2), Time(5), Time(10)); // finishes first
/// let ordered = completion_order(&raw);
/// assert_eq!(ordered[0].value, Value(2));
/// assert_eq!(ordered[1].value, Value(1));
/// ```
pub fn completion_order(raw: &RawHistory) -> Vec<Operation> {
    let mut ops = raw.ops.clone();
    ops.sort_by_key(|op| op.finish);
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(value: u64, start: u64, finish: u64) -> Operation {
        Operation::write(Value(value), Time(start), Time(finish))
    }

    fn r(value: u64, start: u64, finish: u64) -> Operation {
        Operation::read(Value(value), Time(start), Time(finish))
    }

    #[test]
    fn rejects_out_of_order_and_malformed_ops() {
        let mut b = StreamBuilder::new();
        b.push(w(1, 0, 10)).unwrap();
        let err = b.push(w(2, 3, 9)).unwrap_err();
        assert!(matches!(err, StreamError::OutOfOrder { .. }));
        assert!(matches!(
            b.push(w(3, 20, 20)).unwrap_err(),
            StreamError::EmptyInterval { .. }
        ));
        assert!(matches!(
            b.push(Operation::weighted_write(Value(3), Time(20), Time(25), crate::Weight(0)))
                .unwrap_err(),
            StreamError::ZeroWeight { .. }
        ));
        // Failed pushes left the builder untouched.
        assert_eq!(b.resident(), 1);
        assert_eq!(b.watermark(), Some(Time(10)));
    }

    #[test]
    fn rejects_duplicate_write_values_across_segments() {
        let mut b = StreamBuilder::new();
        b.push(w(1, 0, 10)).unwrap();
        b.push(w(2, 12, 20)).unwrap();
        b.try_seal(1).unwrap();
        assert!(matches!(
            b.push(w(1, 22, 30)).unwrap_err(),
            StreamError::DuplicateWriteValue { value: Value(1) }
        ));
    }

    #[test]
    fn cut_never_separates_a_read_from_its_write() {
        let mut b = StreamBuilder::new();
        b.push(w(1, 0, 10)).unwrap();
        b.push(w(2, 12, 20)).unwrap();
        b.push(r(2, 22, 30)).unwrap();
        // Target resident 1: the smallest cut reaching it is after the
        // w(2)/r(2) pair, i.e. the whole buffer — w(1) alone would do but
        // leaves 2 resident; cut between w(2) and r(2) is blocked.
        let sealed = b.try_seal(1).unwrap();
        assert_eq!(sealed.len(), 3);
        assert_eq!(b.resident(), 0);
    }

    #[test]
    fn pending_read_blocks_sealing_past_it() {
        let mut b = StreamBuilder::new();
        // The read of value 2 finishes before its (overlapping) write.
        b.push(w(1, 0, 10)).unwrap();
        b.push(r(2, 12, 20)).unwrap();
        b.push(w(3, 22, 30)).unwrap();
        // Only the cut after w(1) is valid; everything later is blocked by
        // the read still waiting for its dictating write.
        let sealed = b.try_seal(0).unwrap();
        assert_eq!(sealed.len(), 1);
        assert_eq!(b.resident(), 2);
        // Its write arrives; the pair can now seal together.
        b.push(w(2, 14, 40)).unwrap();
        let sealed = b.try_seal(0).unwrap();
        assert_eq!(sealed.len(), 3);
    }

    #[test]
    fn beyond_horizon_reads_are_reported_and_dropped() {
        let mut b = StreamBuilder::new();
        b.push(w(1, 0, 10)).unwrap();
        b.push(w(2, 12, 20)).unwrap();
        b.try_seal(0).unwrap();
        assert_eq!(b.push(r(1, 22, 30)).unwrap(), Push::BeyondHorizon);
        assert_eq!(b.resident(), 0);
        // The watermark still advanced, so earlier finishes stay rejected.
        assert!(matches!(
            b.push(w(3, 24, 28)).unwrap_err(),
            StreamError::OutOfOrder { .. }
        ));
    }

    #[test]
    fn breach_reads_advance_the_watermark() {
        let mut b = StreamBuilder::new();
        b.push(w(1, 0, 10)).unwrap();
        b.push(w(2, 12, 20)).unwrap();
        b.try_seal(0).unwrap();
        assert_eq!(b.watermark(), Some(Time(20)));
        // The breach read is dropped, but its finish still advances the
        // watermark — exactly once, to the read's own finish.
        assert_eq!(b.push(r(1, 22, 30)).unwrap(), Push::BeyondHorizon);
        assert_eq!(b.watermark(), Some(Time(30)));
        assert!(matches!(
            b.push(w(3, 24, 28)).unwrap_err(),
            StreamError::OutOfOrder { watermark: Time(30), .. }
        ));
        // Buffered pushes advance it identically.
        b.push(w(4, 32, 40)).unwrap();
        assert_eq!(b.watermark(), Some(Time(40)));
    }

    #[test]
    fn horizon_bounds_retired_metadata() {
        let mut b = StreamBuilder::with_config(StreamConfig { horizon: Some(3) });
        assert_eq!(b.horizon(), Some(3));
        let mut t = 0;
        for v in 1..=20u64 {
            b.push(w(v, t, t + 5)).unwrap();
            t += 10;
            b.try_seal(0);
            assert!(b.retired_resident() <= 3, "ring grew to {}", b.retired_resident());
        }
        assert_eq!(b.peak_retired(), 3);
        assert_eq!(b.retired_total(), 20);
        assert!(b.horizon_exceeded());
        // The three freshest retirees are still recognised...
        assert_eq!(b.push(r(19, t, t + 5)).unwrap(), Push::BeyondHorizon);
        // ...and an unknown value is conservatively a breach, not pending.
        assert_eq!(b.push(r(999, t + 7, t + 12)).unwrap(), Push::BeyondHorizon);
        assert_eq!(b.resident(), 0);
    }

    #[test]
    fn unknown_reads_stay_pending_while_horizon_not_exceeded() {
        let mut b = StreamBuilder::with_config(StreamConfig { horizon: Some(8) });
        b.push(w(1, 0, 10)).unwrap();
        b.push(w(2, 12, 20)).unwrap();
        b.try_seal(0).unwrap();
        assert!(!b.horizon_exceeded());
        // Nothing has been forgotten, so an unknown value can only belong
        // to a future write: the read waits instead of breaching.
        assert_eq!(b.push(r(3, 22, 30)).unwrap(), Push::Buffered);
        b.push(w(3, 24, 40)).unwrap();
        let sealed = b.try_seal(0).unwrap();
        assert_eq!(sealed.len(), 2);
        assert!(sealed.into_history().is_ok());
    }

    #[test]
    fn duplicate_detection_is_best_effort_beyond_horizon() {
        let mut b = StreamBuilder::with_config(StreamConfig { horizon: Some(1) });
        let mut t = 0;
        for v in 1..=4u64 {
            b.push(w(v, t, t + 5)).unwrap();
            t += 10;
            b.try_seal(0);
        }
        // Value 4 is still within the horizon: exact detection.
        assert!(matches!(
            b.push(w(4, t, t + 5)).unwrap_err(),
            StreamError::DuplicateWriteValue { value: Value(4) }
        ));
        // Value 1 was forgotten: the duplicate is accepted (best-effort).
        assert_eq!(b.push(w(1, t, t + 5)).unwrap(), Push::Buffered);
    }

    #[test]
    fn zero_horizon_retains_nothing_and_stays_sound() {
        let mut b = StreamBuilder::with_config(StreamConfig { horizon: Some(0) });
        b.push(w(1, 0, 10)).unwrap();
        b.push(w(2, 12, 20)).unwrap();
        b.try_seal(0).unwrap();
        assert_eq!(b.retired_resident(), 0);
        assert_eq!(b.peak_retired(), 0);
        // Every unknown read is a breach (never a wrong pairing), and
        // duplicate writes pass unnoticed — documented best-effort.
        assert_eq!(b.push(r(1, 22, 30)).unwrap(), Push::BeyondHorizon);
        assert_eq!(b.push(w(1, 32, 40)).unwrap(), Push::Buffered);
    }

    #[test]
    fn sealed_segments_concatenate_to_the_original_stream() {
        let ops =
            vec![w(1, 0, 10), r(1, 12, 20), w(2, 14, 30), r(2, 32, 40), w(3, 42, 50)];
        let mut b = StreamBuilder::new();
        let mut collected = Vec::new();
        for op in &ops {
            assert_eq!(b.push(*op).unwrap(), Push::Buffered);
            if let Some(segment) = b.try_seal(2) {
                collected.extend(segment.ops);
            }
        }
        collected.extend(b.flush().ops);
        assert_eq!(collected, ops);
        assert!(b.resident() == 0);
    }

    #[test]
    fn depth_statistics_track_arrival_order_staleness() {
        let mut b = StreamBuilder::new();
        b.push(w(1, 0, 10)).unwrap();
        b.push(w(2, 12, 20)).unwrap();
        b.push(w(3, 22, 30)).unwrap();
        b.push(r(1, 32, 40)).unwrap(); // two writes completed since w(1)
        b.push(r(3, 42, 50)).unwrap(); // fresh
        assert_eq!(b.max_read_depth(), 2);
        assert!((b.mean_read_depth() - 1.0).abs() < 1e-9);
        assert_eq!(b.reads_accepted(), 2);
    }

    #[test]
    fn segments_validate_as_standalone_histories() {
        let mut b = StreamBuilder::new();
        b.push(w(1, 0, 10)).unwrap();
        b.push(r(1, 12, 20)).unwrap();
        b.push(w(2, 22, 30)).unwrap();
        b.push(r(2, 32, 40)).unwrap();
        let sealed = b.try_seal(2).unwrap();
        assert!(sealed.into_history().is_ok());
        assert!(b.flush().into_history().is_ok());
        assert_eq!(b.segments_sealed(), 1);
    }

    #[test]
    fn orphan_read_cannot_block_cuts_forever() {
        let mut b = StreamBuilder::new();
        // A read whose write was lost upstream, then a long clean tail.
        b.push(r(999, 0, 5)).unwrap();
        let mut t = 10;
        for v in 1..=40u64 {
            b.push(w(v, t, t + 5)).unwrap();
            b.push(r(v, t + 7, t + 12)).unwrap();
            t += 20;
            // Window of 4: the orphan expires after 16 resident ops and
            // sealing resumes; the buffer must stay bounded.
            b.try_seal(4);
            assert!(b.resident() <= 4 * 4 + 4, "buffer grew to {}", b.resident());
        }
        assert_eq!(b.orphaned_reads(), 1);
        // The orphan was excluded, so the remaining tail still validates.
        assert!(b.flush().into_history().is_ok());
    }

    #[test]
    fn flush_includes_unresolved_reads() {
        let mut b = StreamBuilder::new();
        b.push(w(1, 0, 10)).unwrap();
        b.push(r(9, 12, 20)).unwrap(); // its write never arrives
        let last = b.flush();
        assert_eq!(last.len(), 2);
        assert!(last.into_history().is_err());
    }

    #[test]
    fn depth_histogram_buckets_by_power_of_two() {
        assert_eq!(depth_bucket(0), 0);
        assert_eq!(depth_bucket(1), 1);
        assert_eq!(depth_bucket(2), 2);
        assert_eq!(depth_bucket(3), 2);
        assert_eq!(depth_bucket(4), 3);
        assert_eq!(depth_bucket(u64::MAX), DEPTH_BUCKETS - 1);

        let mut b = StreamBuilder::new();
        b.push(w(1, 0, 10)).unwrap();
        b.push(w(2, 12, 20)).unwrap();
        b.push(w(3, 22, 30)).unwrap();
        b.push(r(1, 32, 40)).unwrap(); // depth 2 -> bucket 2
        b.push(r(3, 42, 50)).unwrap(); // depth 0 -> bucket 0
        let hist = b.depth_histogram();
        assert_eq!(hist[0], 1);
        assert_eq!(hist[2], 1);
        assert_eq!(hist.iter().sum::<u64>(), 2);
    }

    #[test]
    fn pending_read_resolution_counts_as_depth_zero_in_histogram() {
        let mut b = StreamBuilder::new();
        b.push(r(5, 0, 10)).unwrap(); // waits for its write
        b.push(w(5, 2, 20)).unwrap(); // resolves it at depth 0
        assert_eq!(b.depth_histogram()[0], 1);
    }

    /// Pushes `ops` through builder `b`, sealing with `target` after each
    /// push, and returns everything sealed plus every push outcome.
    fn drive(
        b: &mut StreamBuilder,
        ops: &[Operation],
        target: usize,
    ) -> (Vec<Operation>, Vec<Push>) {
        let mut sealed = Vec::new();
        let mut outcomes = Vec::new();
        for op in ops {
            outcomes.push(b.push(*op).unwrap());
            if let Some(segment) = b.try_seal(target) {
                sealed.extend(segment.ops);
            }
        }
        (sealed, outcomes)
    }

    #[test]
    fn resumed_builder_bisimulates_the_uninterrupted_one() {
        // A workload exercising pairs, pending reads, retirement and
        // breaches, split at every possible point: the resumed builder
        // must seal identical segments and report identical statistics.
        let mut ops = Vec::new();
        let mut t = 0;
        for v in 1..=12u64 {
            ops.push(w(v, t, t + 5));
            if v % 2 == 0 {
                ops.push(r(v - 1, t + 6, t + 9)); // one write stale
            }
            t += 10;
        }
        ops.push(r(1, t, t + 5)); // deep read: breaches at small horizons
        let config = StreamConfig { horizon: Some(4) };

        for cut in 0..=ops.len() {
            let mut uninterrupted = StreamBuilder::with_config(config);
            let (sealed_a, outcomes_a) = drive(&mut uninterrupted, &ops, 2);

            let mut first = StreamBuilder::with_config(config);
            let (mut sealed_b, mut outcomes_b) = drive(&mut first, &ops[..cut], 2);
            let snapshot = first.snapshot();
            drop(first); // the "crash"
            let mut resumed = StreamBuilder::resume(&snapshot).expect("snapshot resumes");
            let (tail_sealed, tail_outcomes) = drive(&mut resumed, &ops[cut..], 2);
            sealed_b.extend(tail_sealed);
            outcomes_b.extend(tail_outcomes);

            assert_eq!(outcomes_a, outcomes_b, "cut {cut}");
            assert_eq!(sealed_a, sealed_b, "cut {cut}");
            assert_eq!(uninterrupted.flush().ops, resumed.flush().ops, "cut {cut}");
            assert_eq!(uninterrupted.retired_total(), resumed.retired_total());
            assert_eq!(uninterrupted.peak_retired(), resumed.peak_retired());
            assert_eq!(uninterrupted.reads_accepted(), resumed.reads_accepted());
            assert_eq!(uninterrupted.orphaned_reads(), resumed.orphaned_reads());
            assert_eq!(uninterrupted.max_read_depth(), resumed.max_read_depth());
            assert_eq!(uninterrupted.depth_histogram(), resumed.depth_histogram());
            assert_eq!(uninterrupted.watermark(), resumed.watermark());
        }
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let mut b = StreamBuilder::with_config(StreamConfig { horizon: Some(3) });
        b.push(w(1, 0, 10)).unwrap();
        b.push(r(1, 12, 20)).unwrap();
        b.push(w(2, 14, 30)).unwrap();
        b.try_seal(1);
        let snapshot = b.snapshot();
        let json = serde_json::to_string(&snapshot).expect("snapshot serializes");
        let back: BuilderSnapshot = serde_json::from_str(&json).expect("snapshot parses");
        assert_eq!(back, snapshot);
        // Determinism: identical state, identical bytes.
        assert_eq!(json, serde_json::to_string(&b.snapshot()).unwrap());
    }

    #[test]
    fn corrupted_snapshots_are_rejected() {
        let mut b = StreamBuilder::with_config(StreamConfig { horizon: Some(2) });
        b.push(w(1, 0, 10)).unwrap();
        b.push(w(2, 12, 20)).unwrap();
        b.try_seal(0);
        b.push(r(3, 22, 30)).unwrap();
        b.push(w(4, 32, 40)).unwrap();
        let good = b.snapshot();
        assert!(StreamBuilder::resume(&good).is_ok());

        let tamper = |mutate: &dyn Fn(&mut BuilderSnapshot)| {
            let mut bad = good.clone();
            mutate(&mut bad);
            StreamBuilder::resume(&bad).expect_err("tampered snapshot must be rejected")
        };
        tamper(&|s| s.retired_recent.push(Value(9))); // ring outgrows the horizon
        tamper(&|s| s.writes_accepted += 1);
        tamper(&|s| s.buffer.reverse());
        tamper(&|s| s.watermark = None);
        tamper(&|s| {
            s.depth_hist.pop();
        });
        tamper(&|s| s.orphaned.push(999));
        tamper(&|s| s.peak_resident = 0);
        // Adversarial numeric fields must reject, never overflow, and the
        // refusal names the field.
        let err = tamper(&|s| s.base = u64::MAX);
        assert_eq!(err, SnapshotError::Count { field: "base", value: u64::MAX });
        tamper(&|s| s.retired_total = u64::MAX);
        let err = tamper(&|s| s.segments_sealed = 1 << 63);
        assert!(err.to_string().contains("segments_sealed = 9223372036854775808"), "{err}");
        let err = tamper(&|s| s.buffer[0] = w(2, 21, 29));
        assert!(err.to_string().contains("cannot resume"), "{err}");
    }

    #[test]
    fn completion_order_sorts_by_finish() {
        let mut raw = RawHistory::new();
        raw.write(Value(1), Time(0), Time(50));
        raw.read(Value(1), Time(5), Time(9));
        raw.write(Value(2), Time(2), Time(30));
        let ordered = completion_order(&raw);
        let finishes: Vec<Time> = ordered.iter().map(|op| op.finish).collect();
        assert_eq!(finishes, vec![Time(9), Time(30), Time(50)]);
    }
}
