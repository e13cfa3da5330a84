//! The coordinator↔worker wire protocol of the audit fleet.
//!
//! One coordinator process owns ingest and routing; N worker processes
//! each own a set of key ranges. A worker process is one thread running a
//! [`Worker`], which verifies each range it owns inline, in a shard of its
//! own started by resuming the snapshot the range's assignment carries.
//! The two speak a length-prefixed message stream over any byte pipe
//! (`kav serve` uses the spawned workers' stdin/stdout; tests use Unix
//! socket pairs or in-memory pipes):
//!
//! ```text
//! coordinator → worker        worker → coordinator
//! ───────────────────         ────────────────────
//! COORDINATOR_MAGIC           WORKER_MAGIC          (stream preambles)
//! ASSIGN   {RangeSnapshot}
//! BATCH    {Batch}            (no reply — ingest is pipelined)
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
//! Every message is `tag u8 | length u32 LE | payload`: the framing and
//! the preambles delimit and version every payload. A [`Batch`] is its key
//! range (`bits u32 | prefix u64`) and one v2 frame ([`FRAME_LEN_V2`]
//! bytes) per operation. Snapshots travel in [fragment
//! layout](crate::SnapshotFragments): a [`RangeSnapshot`] is its range, laid
//! out as a batch's, a JSON header and one JSON fragment per key, and a
//! [`SnapshotReply`] is `version u64 | count u32` followed by `count` of
//! them. Both are read through one cursor and fail with one
//! [`LayoutError`]. RETIRE and FINISH_REPLY payloads are JSON.
//!
//! **Validation discipline**: every fault — a truncated frame or
//! snapshot, a wrong magic, a key routed or snapshotted outside its
//! declared range, a key range no [`KeyRange`] can be, a non-ascending
//! snapshot version, a duplicate assignment — is a [`ProtocolError`],
//! which drivers surface as an exit-2 diagnostic. A protocol fault is
//! *unusable input*, never evidence about the store: no code path turns
//! one into a verdict.
//!
//! **No deadlock**: a worker writes only in reply to a request, and the
//! coordinator writes nothing to a worker whose reply it has not yet read
//! in full. A SNAPSHOT or a FINISH goes to every worker it is meant for
//! before any reply is read, so workers serialise snapshots and verify
//! their final windows in parallel; a worker blocked on a full pipe is
//! then one the coordinator will read before it writes to it again. The
//! coordinator reads every reply of a round, even after a death, and
//! places the dead worker's ranges anew (ASSIGN, BATCH) only once the
//! round is drained.

use super::fragment::{put_range, wire_u32, Cursor, LayoutError, SnapshotFragments, SnapshotHeader};
use super::pipeline::{KeyError, KeyReport, PipelineConfig, PipelineSnapshot, Shard};
use super::SnapshotError;
use crate::Verifier;
use kav_history::frame::{decode_frame_v2, encode_frame_v2, KeyRange, FRAME_LEN_V2};
use kav_history::Operation;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::BTreeMap;
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
    /// Coordinator → worker: a [`Batch`](super::Batch) for an owned range.
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
///
/// Its header's `ops_routed` is 0, and a worker keeps the header its ASSIGN
/// carried: the coordinator alone counts routed operations, and stamps its
/// count on the merged fleet snapshot
/// ([`merge_fragments`](super::merge_fragments)).
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

/// One BATCH: operations routed to a range the worker owns, in push order.
#[derive(Clone, Debug, PartialEq)]
pub struct Batch<'a> {
    /// The range every operation's key lies in.
    pub range: KeyRange,
    /// The `(key, operation)` pairs, lent by the coordinator, owned once decoded.
    pub ops: Cow<'a, [(u64, Operation)]>,
}

impl Batch<'_> {
    /// Writes this batch as one BATCH message. The caller flushes.
    ///
    /// # Errors
    ///
    /// Transport I/O errors, and a batch too large for one message.
    pub fn write_message(&self, out: &mut impl Write) -> io::Result<()> {
        let mut payload = Vec::with_capacity(12 + self.ops.len() * FRAME_LEN_V2);
        put_range(self.range, &mut payload);
        for (key, op) in self.ops.iter() {
            encode_frame_v2(*key, op, &mut payload);
        }
        write_message(out, tag::BATCH, &payload)
    }

    /// Decodes a BATCH payload: a valid range, then at least one frame,
    /// each whole, with a valid kind byte and a key inside the range.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Layout`] for the first fault found.
    pub fn decode(payload: Vec<u8>) -> Result<Self, ProtocolError> {
        let mut cursor = Cursor::new(payload);
        let range = cursor.range()?;
        let mut ops = Vec::with_capacity(cursor.left() / FRAME_LEN_V2);
        while ops.is_empty() || cursor.left() > 0 {
            let (key, op) = decode_frame_v2(cursor.array()?).map_err(LayoutError::BadKind)?;
            if !range.contains(key) {
                return Err(LayoutError::ForeignKey { key, range }.into());
            }
            ops.push((key, op));
        }
        Ok(Batch { range, ops: Cow::Owned(ops) })
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
    /// A batch or snapshot payload that does not decode.
    Layout(LayoutError),
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
            ProtocolError::Layout(e) => write!(f, "malformed fleet message: {e}"),
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

/// Refuses a range parsed from JSON that fails [`KeyRange::is_valid`],
/// before anything prints it.
pub(super) fn valid_range(range: KeyRange) -> Result<KeyRange, ProtocolError> {
    let invalid = || ProtocolError::Json(format!("invalid key range {range:?}"));
    range.is_valid().then_some(range).ok_or_else(invalid)
}

/// One range a [`Worker`] owns: its shard, and the header of its
/// snapshots — the one its ASSIGN carried.
struct OwnedRange<V> {
    header: SnapshotHeader,
    shard: Shard<V>,
}

impl<V: Verifier + Clone> OwnedRange<V> {
    /// The state of the range, `range`, at this cut.
    fn snapshot(&self, range: KeyRange) -> Result<RangeSnapshot, ProtocolError> {
        let snapshot = PipelineSnapshot::from_parts(self.header.clone(), self.shard.snapshot());
        Ok(RangeSnapshot { range, snapshot: snapshot.try_into()? })
    }
}

/// A fleet worker as a state machine: [`handle`](Self::handle) takes one
/// coordinator message and writes the reply, so what a worker answers is
/// a function of the messages it was sent. It verifies each range it owns
/// with a shard of its own, inline, on the thread that calls it.
pub struct Worker<V> {
    verifier: V,
    owned: BTreeMap<KeyRange, OwnedRange<V>>,
    /// The version of the last SNAPSHOT_REPLY.
    snapshot_version: u64,
    /// Whether a FINISH has been answered.
    finished: bool,
}

impl<V: Verifier + Clone> Worker<V> {
    /// A worker owning no range, verifying with clones of `verifier`.
    pub fn new(verifier: V) -> Self {
        Worker { verifier, owned: BTreeMap::new(), snapshot_version: 0, finished: false }
    }

    /// Whether everything the worker verified has been reported: it has
    /// answered a FINISH and adopted no range since.
    pub fn done(&self) -> bool {
        self.finished && self.owned.is_empty()
    }

    /// Handles one coordinator message (see the module docs), writing the
    /// framed reply, if the message gets one, to `reply`: ASSIGN and BATCH
    /// get none. The caller flushes. A snapshot's fragments go to `reply`
    /// as they are, never gathered into one buffer. A retired range's
    /// shard is dropped unverified: its state lives on in the reply, which
    /// the coordinator re-assigns.
    ///
    /// # Errors
    ///
    /// Every protocol violation described on [`ProtocolError`], and
    /// `reply`'s I/O errors; the worker is not to be used after one.
    pub fn handle(
        &mut self,
        tag: u8,
        payload: Vec<u8>,
        reply: &mut impl Write,
    ) -> Result<(), ProtocolError> {
        match tag {
            tag::ASSIGN => self.assign(payload)?,
            tag::BATCH => {
                let Batch { range, ops } = Batch::decode(payload)?;
                let owned = self.owned.get_mut(&range);
                let owned = owned.ok_or(ProtocolError::UnassignedRange(range))?;
                ops.iter().for_each(|&(key, op)| owned.shard.push(key, op));
            }
            tag::SNAPSHOT => {
                self.snapshot_version += 1;
                let ranges = self.owned.iter().map(|(&range, owned)| owned.snapshot(range));
                let ranges = ranges.collect::<Result<_, _>>()?;
                SnapshotReply { version: self.snapshot_version, ranges }
                    .write_message(reply)?;
            }
            tag::RETIRE => {
                let range = valid_range(parse_json(&payload)?)?;
                let retired = self.owned.remove(&range);
                let retired = retired.ok_or(ProtocolError::UnassignedRange(range))?;
                retired.snapshot(range)?.write_message(reply, tag::RETIRE_REPLY)?;
            }
            tag::FINISH => {
                let ranges = std::mem::take(&mut self.owned).into_iter().map(|(range, owned)| {
                    let (keys, errors) = owned.shard.finish();
                    RangeOutput { range, keys, errors }
                });
                let finished = FinishReply { ranges: ranges.collect() };
                write_message(reply, tag::FINISH_REPLY, &to_json(&finished)?)?;
                self.finished = true;
            }
            other => return Err(ProtocolError::UnknownTag(other)),
        }
        Ok(())
    }

    /// Takes ownership of a range by resuming its snapshot with the
    /// validation [`StreamPipeline::resume`](super::StreamPipeline::resume)
    /// runs. Trust travels in the snapshot's own flag, so the chain up to
    /// it counts as verified here.
    fn assign(&mut self, payload: Vec<u8>) -> Result<(), ProtocolError> {
        let RangeSnapshot { range, snapshot } = RangeSnapshot::decode(payload)?;
        let header = &snapshot.header;
        let ours = (self.verifier.name(), self.verifier.k(), self.verifier.model());
        if (header.algo.as_str(), header.k, header.model) != ours {
            return Err(ProtocolError::VerifierMismatch(format!(
                "fleet runs {}/k={}/model={}, worker runs {}/k={}/model={}",
                header.algo, header.k, header.model, ours.0, ours.1, ours.2
            )));
        }
        if self.owned.contains_key(&range) {
            return Err(ProtocolError::DuplicateAssignment(range));
        }
        if header.partition != Some(range) {
            return Err(ProtocolError::PartitionMismatch { range, snapshot: header.partition });
        }
        let (window, horizon) = (header.window, Some(header.horizon));
        let config = PipelineConfig { shards: 1, window, horizon, ..Default::default() };
        let shard = Shard::resume(&self.verifier, &config, &snapshot.parse()?, true)?.remove(0);
        self.owned.insert(range, OwnedRange { header: snapshot.header, shard });
        Ok(())
    }
}

/// Runs one fleet worker over a transport until its link closes or a
/// fault: reads the coordinator's preamble, answers with its own, then
/// hands every message to a [`Worker`], which writes its reply to
/// `output`, all on the calling thread.
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
/// closing is `Ok(())` only once the worker is [done](Worker::done); any
/// other close is [`ProtocolError::Disconnected`].
pub fn worker_loop<V: Verifier + Clone + Send + 'static>(
    verifier: V,
    mut input: impl Read,
    mut output: impl Write,
) -> Result<(), ProtocolError> {
    let mut worker = Worker::new(verifier);
    let mut serve = || -> Result<(), ProtocolError> {
        expect_preamble(&mut input, COORDINATOR_MAGIC)?;
        output.write_all(&WORKER_MAGIC)?;
        output.flush()?;
        loop {
            let (tag, payload) = match read_message(&mut input) {
                Err(ProtocolError::Disconnected) if worker.done() => return Ok(()),
                message => message?,
            };
            worker.handle(tag, payload, &mut output)?;
            output.flush()?;
        }
    };
    let result = serve();
    if let Err(e) = &result {
        // Give the coordinator the diagnostic; it is already unwinding if
        // the transport is what failed, hence best-effort.
        let _ = write_message(&mut output, tag::ERROR, e.to_string().as_bytes());
        let _ = output.flush();
    }
    result
}
