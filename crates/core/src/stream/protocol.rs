//! The coordinator↔worker wire protocol of the audit fleet.
//!
//! One coordinator process owns ingest and routing; N worker processes
//! each own a set of key ranges, one [`StreamPipeline`] per range, started
//! by resuming the snapshot its assignment carries. The two speak a
//! length-prefixed message stream over any byte pipe (`kav serve` uses
//! the spawned workers' stdin/stdout; tests use Unix socket pairs):
//!
//! ```text
//! coordinator → worker        worker → coordinator
//! ───────────────────         ────────────────────
//! COORDINATOR_MAGIC           WORKER_MAGIC          (stream preambles)
//! ASSIGN   {RangeSnapshot}
//! BATCH    routed frames      (no reply — ingest is pipelined)
//! SNAPSHOT                    SNAPSHOT_REPLY {SnapshotReply}
//! RETIRE   {KeyRange}         RETIRE_REPLY   {RangeSnapshot}
//! FINISH                      FINISH_REPLY   {FinishReply}
//!                             ERROR    diagnostic text, then exit 2
//! ```
//!
//! FINISH is not terminal: a worker that has answered it keeps serving, so
//! it can adopt the ranges of a peer that died at the finish line (see
//! [`worker_loop`] for when it exits).
//!
//! Every message is `tag u8 | length u32 LE | payload`. BATCH payloads
//! are [`encode_routed_batch`] bytes (magic, key-range routing header,
//! length-prefixed frames). Snapshots travel in [fragment
//! layout](crate::SnapshotFragments): a [`RangeSnapshot`] is its range, a JSON
//! header and one JSON fragment per key, and a [`SnapshotReply`] is
//! `version u64 | count u32` followed by `count` of them. RETIRE and
//! FINISH_REPLY payloads are JSON.
//!
//! **Validation discipline**: every fault — a truncated frame or
//! snapshot, a wrong magic, a key routed or snapshotted outside its
//! declared range, a non-ascending snapshot version, a duplicate
//! assignment — is a [`ProtocolError`], which drivers surface as an exit-2
//! diagnostic. A protocol fault is *unusable input*, never evidence about
//! the store: no code path turns one into a verdict.
//!
//! **No deadlock**: a worker writes only in reply to a request, and the
//! coordinator writes nothing to a worker whose reply it has not yet read
//! in full. A SNAPSHOT or a FINISH goes to every worker it is meant for
//! before any reply is read, so workers serialise snapshots and verify
//! their final windows in parallel; a worker blocked on a full pipe is
//! then one the coordinator will read before it writes to it again. The
//! coordinator reads every reply of a round, even after a death, and
//! re-homes the dead worker's ranges (ASSIGN, BATCH) only once the round
//! is drained.
//!
//! [`StreamPipeline`]: super::StreamPipeline
//! [`encode_routed_batch`]: kav_history::frame::encode_routed_batch

use super::fragment::{wire_u32, Cursor, LayoutError, SnapshotFragments};
use super::pipeline::{KeyError, KeyReport, PipelineConfig, StreamPipeline};
use super::SnapshotError;
use crate::Verifier;
use kav_history::frame::{decode_routed_batch, BatchError, KeyRange};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};

/// Preamble the coordinator writes before its first message; a worker
/// reading anything else refuses the stream.
pub const COORDINATOR_MAGIC: [u8; 8] = *b"KAVC0001";

/// Preamble a worker answers with; the coordinator likewise refuses a
/// stream that starts with anything else.
pub const WORKER_MAGIC: [u8; 8] = *b"KAVW0001";

/// Upper bound on one message's payload, a backstop against a corrupt
/// length prefix allocating unbounded memory.
pub const MAX_MESSAGE_LEN: u32 = 256 * 1024 * 1024;

/// Message tags (the `tag u8` of the wire framing).
pub mod tag {
    /// Coordinator → worker: take ownership of a key range, starting from
    /// its [`RangeSnapshot`](super::RangeSnapshot).
    pub const ASSIGN: u8 = 1;
    /// Coordinator → worker: a routed frame batch.
    pub const BATCH: u8 = 2;
    /// Coordinator → worker: snapshot every owned range.
    pub const SNAPSHOT: u8 = 3;
    /// Coordinator → worker: give up a range, replying with its final snapshot.
    pub const RETIRE: u8 = 4;
    /// Coordinator → worker: finish and drop every owned range, replying
    /// with their reports.
    pub const FINISH: u8 = 5;
    /// Worker → coordinator: reply to SNAPSHOT.
    pub const SNAPSHOT_REPLY: u8 = 6;
    /// Worker → coordinator: reply to RETIRE.
    pub const RETIRE_REPLY: u8 = 7;
    /// Worker → coordinator: reply to FINISH.
    pub const FINISH_REPLY: u8 = 8;
    /// Worker → coordinator: a fatal worker-side diagnostic (UTF-8 text).
    pub const ERROR: u8 = 9;
}

/// One range's snapshot: what ASSIGN hands a worker (an empty snapshot
/// for a fresh range), what RETIRE_REPLY hands back, and one entry of a
/// [`SnapshotReply`].
#[derive(Clone, Debug, PartialEq)]
pub struct RangeSnapshot {
    /// The range the snapshot covers. On ASSIGN the worker owns it from
    /// then on, and batches for it follow.
    pub range: KeyRange,
    /// The range's state. Its header names the verifier, which a worker
    /// refuses unless it is its own, so one fleet never mixes verdict
    /// semantics; it fixes the window and horizon; it carries the trust
    /// flag, so a tainted range stays tainted through every hand-off; and
    /// it must be tagged with `range`, or the receiver refuses it.
    pub snapshot: SnapshotFragments,
}

impl RangeSnapshot {
    /// Writes this snapshot as one message tagged `tag` (ASSIGN or
    /// RETIRE_REPLY). The caller flushes.
    ///
    /// # Errors
    ///
    /// Transport I/O errors, and a snapshot too large for one message.
    pub fn write_message(&self, out: &mut impl Write, tag: u8) -> io::Result<()> {
        let mut parts = Vec::new();
        self.snapshot.encode(self.range, &mut parts)?;
        write_parts(out, tag, &parts)
    }

    /// Decodes an ASSIGN or RETIRE_REPLY payload.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Layout`] for bytes that are not exactly one
    /// snapshot in fragment layout.
    pub fn decode(payload: Vec<u8>) -> Result<Self, ProtocolError> {
        let mut cursor = Cursor::new(payload);
        let (range, snapshot) = SnapshotFragments::decode(&mut cursor)?;
        cursor.finish()?;
        Ok(RangeSnapshot { range, snapshot })
    }
}

/// A worker's answer to SNAPSHOT: all its ranges at one consistent cut.
#[derive(Clone, Debug, PartialEq)]
pub struct SnapshotReply {
    /// Strictly ascending per worker; the coordinator refuses a version
    /// that does not ascend (a duplicate betrays a confused or replayed
    /// worker whose cut cannot be trusted).
    pub version: u64,
    /// One entry per owned range, sorted by range.
    pub ranges: Vec<RangeSnapshot>,
}

impl SnapshotReply {
    /// Writes this reply as one SNAPSHOT_REPLY message. The caller
    /// flushes.
    ///
    /// # Errors
    ///
    /// Transport I/O errors, and a reply too large for one message.
    pub fn write_message(&self, out: &mut impl Write) -> io::Result<()> {
        let mut head = self.version.to_le_bytes().to_vec();
        head.extend_from_slice(&wire_u32(self.ranges.len())?.to_le_bytes());
        let mut parts = vec![Cow::Owned(head)];
        for entry in &self.ranges {
            entry.snapshot.encode(entry.range, &mut parts)?;
        }
        write_parts(out, tag::SNAPSHOT_REPLY, &parts)
    }

    /// Decodes a SNAPSHOT_REPLY payload. Its fragments stay in the
    /// payload, unparsed and uncopied.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Layout`] for a malformed payload, or for two
    /// ranges that overlap (a key could then appear in both).
    pub fn decode(payload: Vec<u8>) -> Result<Self, ProtocolError> {
        let mut cursor = Cursor::new(payload);
        let version = cursor.u64()?;
        let count = cursor.u32()?;
        let mut ranges: Vec<RangeSnapshot> = Vec::new();
        for _ in 0..count {
            let (range, snapshot) = SnapshotFragments::decode(&mut cursor)?;
            if let Some(other) = ranges.iter().find(|entry| entry.range.overlaps(&range)) {
                return Err(LayoutError::OverlappingRanges(other.range, range).into());
            }
            ranges.push(RangeSnapshot { range, snapshot });
        }
        cursor.finish()?;
        Ok(SnapshotReply { version, ranges })
    }
}

/// One range's finished output inside a [`FinishReply`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RangeOutput {
    /// The range the reports cover.
    pub range: KeyRange,
    /// Per-key reports, sorted by key.
    pub keys: Vec<KeyReport>,
    /// Per-key stream errors, sorted by key.
    pub errors: Vec<KeyError>,
}

/// A worker's answer to FINISH: every range's final reports. The worker
/// then owns no range, and exits cleanly once its link closes.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FinishReply {
    /// One entry per owned range, sorted by range.
    pub ranges: Vec<RangeOutput>,
}

/// Why a protocol stream is unusable (either side). Fleet drivers map
/// every variant to exit 2 with the diagnostic — never to a verdict.
#[derive(Debug)]
pub enum ProtocolError {
    /// Reading or writing the transport failed (includes a peer dying:
    /// EOF mid-message, broken pipe).
    Io(io::Error),
    /// The stream ended cleanly where a message was required.
    Disconnected,
    /// The stream preamble was not the expected magic.
    BadPreamble {
        /// What the preamble should have been.
        expected: [u8; 8],
        /// What actually arrived.
        got: [u8; 8],
    },
    /// A message tag neither side defines.
    UnknownTag(u8),
    /// A length prefix beyond [`MAX_MESSAGE_LEN`].
    Oversized(u32),
    /// A JSON payload that does not parse as its message type.
    Json(String),
    /// A snapshot payload that is not in [fragment layout](crate::SnapshotFragments).
    Layout(LayoutError),
    /// A BATCH payload rejected by frame validation.
    Batch(BatchError),
    /// An ASSIGN for a range the worker already owns.
    DuplicateAssignment(KeyRange),
    /// A BATCH or RETIRE for a range the worker does not own.
    UnassignedRange(KeyRange),
    /// An ASSIGN whose snapshot's algorithm, `k` or consistency model
    /// disagrees with the worker's verifier.
    VerifierMismatch(String),
    /// An ASSIGN whose resume snapshot is tagged with a different
    /// partition than the assigned range — state from one shard map must
    /// not silently continue under another.
    PartitionMismatch {
        /// The range being assigned.
        range: KeyRange,
        /// The partition the snapshot was tagged with.
        snapshot: Option<KeyRange>,
    },
    /// An ASSIGN whose resume snapshot failed pipeline validation.
    Snapshot(SnapshotError),
    /// A SNAPSHOT_REPLY version that does not ascend past the previous.
    SnapshotVersion {
        /// The version the reply carried.
        got: u64,
        /// The highest version already seen from that worker.
        last: u64,
    },
    /// The peer reported a fatal diagnostic (an ERROR message).
    Peer(String),
    /// A reply with the wrong tag for the outstanding request.
    UnexpectedReply {
        /// The tag the request called for.
        expected: u8,
        /// The tag that arrived.
        got: u8,
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "fleet transport failed: {e}"),
            ProtocolError::Disconnected => {
                write!(f, "fleet peer disconnected mid-protocol")
            }
            ProtocolError::BadPreamble { expected, got } => write!(
                f,
                "bad fleet preamble {:?} (expected {:?})",
                String::from_utf8_lossy(got),
                String::from_utf8_lossy(expected)
            ),
            ProtocolError::UnknownTag(tag) => write!(f, "unknown fleet message tag {tag}"),
            ProtocolError::Oversized(len) => write!(
                f,
                "fleet message of {len} bytes exceeds the {MAX_MESSAGE_LEN}-byte bound"
            ),
            ProtocolError::Json(e) => write!(f, "malformed fleet message payload: {e}"),
            ProtocolError::Layout(e) => write!(f, "malformed fleet snapshot: {e}"),
            ProtocolError::Batch(e) => write!(f, "bad frame batch: {e}"),
            ProtocolError::DuplicateAssignment(range) => {
                write!(f, "range {range} assigned twice to the same worker")
            }
            ProtocolError::UnassignedRange(range) => {
                write!(f, "message for range {range}, which this worker does not own")
            }
            ProtocolError::VerifierMismatch(msg) => {
                write!(f, "assignment disagrees with the worker's verifier: {msg}")
            }
            ProtocolError::PartitionMismatch { range, snapshot } => write!(
                f,
                "assignment for range {range} carries a snapshot tagged {} — refusing to \
                 resume state from a different shard map",
                match snapshot {
                    Some(r) => r.to_string(),
                    None => "with no partition".to_string(),
                }
            ),
            ProtocolError::Snapshot(e) => write!(f, "hand-off snapshot rejected: {e}"),
            ProtocolError::SnapshotVersion { got, last } => write!(
                f,
                "snapshot version {got} does not ascend past {last} — duplicate or replayed \
                 snapshot, the cut cannot be trusted"
            ),
            ProtocolError::Peer(msg) => write!(f, "fleet peer failed: {msg}"),
            ProtocolError::UnexpectedReply { expected, got } => {
                write!(f, "expected reply tag {expected}, got {got}")
            }
        }
    }
}

impl Error for ProtocolError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ProtocolError::Io(e) => Some(e),
            ProtocolError::Batch(e) => Some(e),
            ProtocolError::Layout(e) => Some(e),
            ProtocolError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ProtocolError {
    fn from(e: io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

impl From<BatchError> for ProtocolError {
    fn from(e: BatchError) -> Self {
        ProtocolError::Batch(e)
    }
}

impl From<serde_json::Error> for ProtocolError {
    fn from(e: serde_json::Error) -> Self {
        ProtocolError::Json(e.to_string())
    }
}

impl From<LayoutError> for ProtocolError {
    fn from(e: LayoutError) -> Self {
        ProtocolError::Layout(e)
    }
}

impl From<SnapshotError> for ProtocolError {
    fn from(e: SnapshotError) -> Self {
        ProtocolError::Snapshot(e)
    }
}

/// Writes one framed message (tag, length, payload). The caller flushes
/// when the write must become visible to the peer.
///
/// # Errors
///
/// Propagates transport I/O errors (a dead peer surfaces here as a
/// broken pipe), and refuses a payload beyond [`MAX_MESSAGE_LEN`].
pub fn write_message(out: &mut impl Write, tag: u8, payload: &[u8]) -> io::Result<()> {
    write_parts(out, tag, &[Cow::Borrowed(payload)])
}

/// Writes one framed message whose payload is `parts` in order, so a
/// snapshot's fragments go on the wire without being gathered first.
fn write_parts(out: &mut impl Write, tag: u8, parts: &[Cow<[u8]>]) -> io::Result<()> {
    let len = wire_u32(parts.iter().map(|part| part.len()).sum())?;
    if len > MAX_MESSAGE_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("a {len}-byte fleet message exceeds the {MAX_MESSAGE_LEN}-byte bound"),
        ));
    }
    out.write_all(&[tag])?;
    out.write_all(&len.to_le_bytes())?;
    parts.iter().try_for_each(|part| out.write_all(part))
}

/// Reads one framed message.
///
/// # Errors
///
/// [`ProtocolError::Disconnected`] on clean EOF at a message boundary,
/// [`ProtocolError::Io`] on EOF mid-message or transport failure,
/// [`ProtocolError::Oversized`] on a corrupt length prefix.
pub fn read_message(input: &mut impl Read) -> Result<(u8, Vec<u8>), ProtocolError> {
    let mut tag = [0u8; 1];
    // Distinguish "peer closed between messages" from "message torn".
    if input.read(&mut tag)? == 0 {
        return Err(ProtocolError::Disconnected);
    }
    let mut len = [0u8; 4];
    input.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len);
    if len > MAX_MESSAGE_LEN {
        return Err(ProtocolError::Oversized(len));
    }
    let mut payload = vec![0u8; len as usize];
    input.read_exact(&mut payload)?;
    Ok((tag[0], payload))
}

/// Reads and checks a stream preamble.
///
/// # Errors
///
/// [`ProtocolError::BadPreamble`] when the magic differs, I/O errors
/// when the stream dies first.
pub fn expect_preamble(input: &mut impl Read, expected: [u8; 8]) -> Result<(), ProtocolError> {
    let mut got = [0u8; 8];
    input.read_exact(&mut got)?;
    if got != expected {
        return Err(ProtocolError::BadPreamble { expected, got });
    }
    Ok(())
}

/// Parses a JSON message payload.
pub(super) fn parse_json<T: Deserialize>(payload: &[u8]) -> Result<T, ProtocolError> {
    let text =
        std::str::from_utf8(payload).map_err(|e| ProtocolError::Json(e.to_string()))?;
    serde_json::from_str(text).map_err(|e| ProtocolError::Json(e.to_string()))
}

/// Serializes a JSON message payload.
pub(super) fn to_json<T: Serialize>(value: &T) -> Result<Vec<u8>, ProtocolError> {
    serde_json::to_string(value)
        .map(String::into_bytes)
        .map_err(|e| ProtocolError::Json(e.to_string()))
}

/// One owned range inside a worker.
struct OwnedRange {
    range: KeyRange,
    pipeline: StreamPipeline,
}

/// Runs one fleet worker over a transport until its link closes or a
/// fault: reads the coordinator's preamble, answers with its own, then
/// serves the message loop — hosting one [`StreamPipeline`] per assigned
/// range, each verifying with a clone of `verifier`.
///
/// FINISH is not terminal: the worker reports every range it owns, drops
/// them and keeps serving, so it can still adopt a range whose owner died
/// at the finish line (and is asked to FINISH again).
///
/// On a fault the worker best-effort sends an ERROR diagnostic before
/// returning, and the driver exits 2; it never fabricates a verdict.
///
/// # Errors
///
/// Every protocol violation described on [`ProtocolError`]. The link
/// closing is `Ok(())` only after the worker has answered a FINISH and
/// while it owns no range; any other close is
/// [`ProtocolError::Disconnected`].
pub fn worker_loop<V: Verifier + Clone + Send + 'static>(
    verifier: V,
    mut input: impl Read,
    mut output: impl Write,
) -> Result<(), ProtocolError> {
    let result = worker_loop_inner(verifier, &mut input, &mut output);
    if let Err(e) = &result {
        // Give the coordinator the diagnostic; it is already unwinding if
        // the transport is what failed, hence best-effort.
        let _ = write_message(&mut output, tag::ERROR, e.to_string().as_bytes());
        let _ = output.flush();
    }
    result
}

fn worker_loop_inner<V: Verifier + Clone + Send + 'static>(
    verifier: V,
    input: &mut impl Read,
    output: &mut impl Write,
) -> Result<(), ProtocolError> {
    expect_preamble(input, COORDINATOR_MAGIC)?;
    output.write_all(&WORKER_MAGIC)?;
    output.flush()?;

    let mut owned: Vec<OwnedRange> = Vec::new();
    let mut snapshot_version = 0u64;
    let mut finished = false;
    loop {
        let (tag, payload) = match read_message(input) {
            // Everything this worker verified has been reported.
            Err(ProtocolError::Disconnected) if finished && owned.is_empty() => return Ok(()),
            message => message?,
        };
        match tag {
            tag::ASSIGN => {
                let RangeSnapshot { range, snapshot } = RangeSnapshot::decode(payload)?;
                let header = &snapshot.header;
                let ours = (verifier.name(), verifier.k(), verifier.model());
                if (header.algo.as_str(), header.k, header.model) != ours {
                    return Err(ProtocolError::VerifierMismatch(format!(
                        "fleet runs {}/k={}/model={}, worker runs {}/k={}/model={}",
                        header.algo, header.k, header.model, ours.0, ours.1, ours.2
                    )));
                }
                if owned.iter().any(|o| o.range == range) {
                    return Err(ProtocolError::DuplicateAssignment(range));
                }
                if header.partition != Some(range) {
                    let snapshot = header.partition;
                    return Err(ProtocolError::PartitionMismatch { range, snapshot });
                }
                // One thread per range (the fleet's parallelism is its
                // processes); the coordinator owns the checkpoint cadence.
                // Trust travels in the snapshot's own flag, so the chain
                // up to it counts as verified here.
                let (window, horizon) = (header.window, Some(header.horizon));
                let base = PipelineConfig { shards: 1, checkpoint_every: 0, ..Default::default() };
                let config = PipelineConfig { window, horizon, ..base };
                let pipeline =
                    StreamPipeline::resume(verifier.clone(), config, &snapshot.parse()?, true)?;
                owned.push(OwnedRange { range, pipeline });
                owned.sort_by_key(|o| o.range);
            }
            tag::BATCH => {
                let (range, ops) = decode_routed_batch(&payload)?;
                let slot = owned
                    .iter_mut()
                    .find(|o| o.range == range)
                    .ok_or(ProtocolError::UnassignedRange(range))?;
                for (key, op) in ops {
                    slot.pipeline.push(key, op);
                }
            }
            tag::SNAPSHOT => {
                snapshot_version += 1;
                let ranges = owned
                    .iter_mut()
                    .map(|o| {
                        let snapshot = o.pipeline.snapshot().try_into()?;
                        Ok(RangeSnapshot { range: o.range, snapshot })
                    })
                    .collect::<Result<_, ProtocolError>>()?;
                SnapshotReply { version: snapshot_version, ranges }.write_message(output)?;
                output.flush()?;
            }
            tag::RETIRE => {
                let range: KeyRange = parse_json(&payload)?;
                let pos = owned
                    .iter()
                    .position(|o| o.range == range)
                    .ok_or(ProtocolError::UnassignedRange(range))?;
                // Drop the retired pipeline without reports: its state
                // lives on in the reply the coordinator re-assigns.
                let mut retired = owned.remove(pos);
                let snapshot = retired.pipeline.snapshot().try_into()?;
                RangeSnapshot { range, snapshot }.write_message(output, tag::RETIRE_REPLY)?;
                output.flush()?;
            }
            tag::FINISH => {
                let ranges = owned
                    .drain(..)
                    .map(|o| {
                        let finished = o.pipeline.finish();
                        RangeOutput {
                            range: o.range,
                            keys: finished
                                .keys
                                .into_iter()
                                .map(|(key, report)| KeyReport { key, report })
                                .collect(),
                            errors: finished
                                .errors
                                .into_iter()
                                .map(|(key, error)| KeyError { key, error })
                                .collect(),
                        }
                    })
                    .collect();
                let reply = FinishReply { ranges };
                write_message(output, tag::FINISH_REPLY, &to_json(&reply)?)?;
                output.flush()?;
                finished = true;
            }
            other => return Err(ProtocolError::UnknownTag(other)),
        }
    }
}
