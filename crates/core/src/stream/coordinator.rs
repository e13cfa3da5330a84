//! The fleet coordinator: one process routing a multi-register stream
//! over worker processes, each auditing a slice of the key space.
//!
//! §II-B makes k-AV embarrassingly parallel across keys, and the
//! in-process [`StreamPipeline`] already exploits that with threads; the
//! coordinator lifts the same decomposition across *processes*. Keys are
//! partitioned by [`KeyRange`] (bit prefixes of the shard hash, so ranges
//! nest and split cleanly), ingest fans out as routed frame batches, and
//! per-range snapshots flow back at checkpoint cadence in [fragment
//! layout](crate::SnapshotFragments), to be [merged](super::merge) into one
//! ordinary checkpoint. The coordinator parses no snapshot: it splits one
//! by filtering its keys ([`SnapshotFragments::partition`]). It alone
//! counts routed operations, so a range's snapshot counts none and the
//! merged checkpoint carries the coordinator's count, every operation
//! routed included, as a single process's does.
//!
//! Each range keeps one buffer of the `(key, Operation)` pairs routed to
//! it since its last acknowledged snapshot. Its unsent tail is the next
//! batch; frames are built only when that batch goes on the wire.
//!
//! # Placement: one way onto a worker
//!
//! A range without an owner is *placed*: it goes to the live worker owning
//! the fewest ranges, as an ASSIGN resuming the range's snapshot followed
//! by its replay as one BATCH. Every range starts without an owner, and
//! one loses its owner only when a split creates it or its owner dies
//! (any transport error, at the preamble or the first ASSIGN too), so
//! start-up, splits and hand-offs all reach a worker the same way.
//!
//! # Hand-off: death is a resume
//!
//! The rebalancing mechanism *is* the checkpoint mechanism. A range starts
//! on a worker only by resuming a snapshot: empty in a fresh fleet, its
//! checkpoint slice, a split half, or on hand-off the last one a worker
//! acknowledged. The coordinator keeps that snapshot for every range, and
//! the range's buffer is the replay of everything routed since. When
//! a worker dies, each of its ranges is placed anew: the new owner resumes
//! the acked snapshot and the coordinator re-sends the replay — an
//! exactly-once hand-off, so the fleet report is the one an undisturbed
//! run produces. Work the dead worker did past the snapshot is
//! deliberately lost and redone; work is never double-counted.
//!
//! If the replay overflowed ([`FleetConfig::replay_cap`]) the buffer
//! keeps only its unsent tail, the chain between snapshot and present
//! cannot be re-fed, and per-key streams now have a **gap** — feeding
//! later operations across it could prove violations that never
//! happened. So an unverifiable hand-off *stops the range's audit*: the
//! acked snapshot's trust flag is set and the new owner resumes it
//! (proven violations survive; its keys are tainted, YES degrades to
//! UNKNOWN, sticky), the
//! buffer is dropped, every later operation for the range is dropped and
//! counted in [`FleetSummary::frames_dropped`], and
//! [`fleet_verdict`](super::merge::fleet_verdict) refuses to certify the
//! fleet. Soundness is never traded for liveness. Size `replay_cap` at or
//! above the checkpoint cadence and the buffer never overflows between
//! acks.
//!
//! A hot range splits by the same move in reverse: the owner retires the
//! range (replying with its snapshot), the snapshot is
//! [partitioned](SnapshotFragments::partition) into the two child ranges,
//! and each child is placed with the parent's trust flag. A child of a
//! range whose audit stopped is stopped too: the gap is in its keys'
//! streams as much as in its parent's.
//!
//! Trust is state: the only record of an unverified resume or hand-off is
//! the snapshot's own `uncertified` flag, which every ASSIGN carries and
//! every later snapshot of the range keeps.
//!
//! [`StreamPipeline`]: super::StreamPipeline

use super::fragment::SnapshotFragments;
use super::merge::{merge_fragments, FleetSummary, MergeError};
use super::pipeline::{check_counts, PipelineOutput, PipelineSnapshot};
use crate::models::ModelId;
use super::protocol::{
    expect_preamble, parse_json, read_message, tag, to_json, valid_range, write_message, Batch,
    FinishReply, ProtocolError, RangeSnapshot, SnapshotReply, COORDINATOR_MAGIC, WORKER_MAGIC,
};
use kav_history::frame::KeyRange;
use kav_history::Operation;
use std::borrow::Cow;
use std::io::{self, Read, Write};

/// Default bound on the per-range replay, in operations. At 48 bytes a
/// buffered operation this caps hand-off memory near 50 MB per range
/// while covering many checkpoint cadences' worth of traffic.
pub const DEFAULT_REPLAY_CAP: usize = 1 << 20;

/// One worker's transport, as the coordinator sees it. `kav serve` wraps
/// a child's stdin/stdout; tests wrap socket pairs.
pub struct WorkerLink {
    /// Coordinator → worker byte stream.
    pub writer: Box<dyn Write + Send>,
    /// Worker → coordinator byte stream.
    pub reader: Box<dyn Read + Send>,
}

/// Fleet-wide configuration. The coordinator never runs a verifier — it
/// only names one, and every worker refuses an assignment that disagrees
/// with the verifier it was started with.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// [`Verifier::name`](crate::Verifier::name) the fleet runs.
    pub algo: String,
    /// The consistency model the fleet audits; stamped into every
    /// assignment so no worker can join under different semantics.
    pub model: ModelId,
    /// The `k` the fleet decides.
    pub k: u64,
    /// Per-key sliding-window width.
    pub window: usize,
    /// Per-key retirement horizon (`None` = default).
    pub horizon: Option<usize>,
    /// Operations per routed batch on the wire.
    pub batch: usize,
    /// Checkpoint cadence in routed operations (0 = never due).
    pub checkpoint_every: u64,
    /// Replay bound per range, in operations; past it a hand-off of that
    /// range degrades to an unverified resume.
    pub replay_cap: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            algo: "fzf".into(),
            model: ModelId::KAtomic,
            k: 2,
            window: 1024,
            horizon: None,
            batch: 256,
            checkpoint_every: super::DEFAULT_CHECKPOINT_EVERY,
            replay_cap: DEFAULT_REPLAY_CAP,
        }
    }
}

/// The answers to one fan-out: each worker with its reply's payload.
type Replies = Vec<(usize, Vec<u8>)>;

/// A worker slot: its transport while alive, its snapshot-version high
/// water mark.
struct WorkerSlot {
    link: Option<WorkerLink>,
    last_snapshot_version: u64,
}

impl WorkerSlot {
    fn alive(&self) -> bool {
        self.link.is_some()
    }

    /// Writes one message to the worker, flushing.
    fn write(
        &mut self,
        message: impl FnOnce(&mut Box<dyn Write + Send>) -> io::Result<()>,
    ) -> Result<(), ProtocolError> {
        let link = self.link.as_mut().ok_or(ProtocolError::Disconnected)?;
        message(&mut link.writer)?;
        link.writer.flush()?;
        Ok(())
    }
}

/// Everything the coordinator knows about one key range.
struct RangeState {
    range: KeyRange,
    /// Index into the worker table; `None` until the range is placed, and
    /// again once its owner died.
    worker: Option<usize>,
    /// Operations routed since `snapshot` was acknowledged, oldest first:
    /// while `replay_intact` the whole hand-off replay, afterwards only
    /// what is still to be sent.
    ops: Vec<(u64, Operation)>,
    /// How many of `ops` are already on the wire; the rest is the next
    /// batch.
    sent: usize,
    /// False once the replay overflowed [`FleetConfig::replay_cap`]: the
    /// chain from `snapshot` to the present is no longer re-feedable.
    replay_intact: bool,
    /// True once an unverifiable hand-off stopped this range's audit:
    /// its per-key streams have a gap, so feeding later operations could
    /// prove violations that never happened. The range keeps its (tainted)
    /// acked snapshot; everything after the break is dropped and counted.
    broken: bool,
    /// Last snapshot the owner acknowledged; until the first checkpoint
    /// probe, the one the range started from. Never parsed here.
    snapshot: SnapshotFragments,
    /// Operations routed to this range (split-heat signal): since the
    /// fleet started, plus half its parent's for a split half.
    routed: u64,
}

impl RangeState {
    /// A range waiting to be placed, with an empty buffer. A `broken`
    /// range (a split half of one) drops everything routed to it.
    fn new(range: KeyRange, snapshot: SnapshotFragments, routed: u64, broken: bool) -> Self {
        RangeState {
            range,
            worker: None,
            ops: Vec::new(),
            sent: 0,
            replay_intact: !broken,
            broken,
            snapshot,
            routed,
        }
    }
}

/// The coordinator end of an audit fleet (see the module docs).
///
/// Drive it like a [`StreamPipeline`](super::StreamPipeline):
/// [`push`](Self::push) every
/// operation, consult [`checkpoint_due`](Self::checkpoint_due) /
/// [`snapshot_fleet`](Self::snapshot_fleet) at cadence, then
/// [`finish`](Self::finish) for the merged output. Worker death at any
/// point is handled inside those calls by checkpoint hand-off.
pub struct FleetCoordinator {
    config: FleetConfig,
    workers: Vec<WorkerSlot>,
    ranges: Vec<RangeState>,
    ops_routed: u64,
    ops_at_last_snapshot: u64,
    summary: FleetSummary,
}

impl FleetCoordinator {
    /// Starts a fresh fleet over `links`: exchanges preambles, carves the
    /// key space into [`KeyRange::partition`]`(links.len())` ranges and
    /// places them, each starting from an empty snapshot. A worker that
    /// dies at its preamble or its first ASSIGN is buried and its ranges
    /// placed on the others, as at any hand-off.
    ///
    /// # Errors
    ///
    /// A worker answering with the wrong preamble, and no worker left
    /// alive ([`ProtocolError`]).
    pub fn new(config: FleetConfig, links: Vec<WorkerLink>) -> Result<Self, ProtocolError> {
        let (window, horizon) = (config.window, config.horizon);
        let empty = PipelineSnapshot::empty(&config.algo, config.model, config.k, window, horizon);
        Self::resume(config, links, &empty, true)
    }

    /// Starts a fleet resuming a merged checkpoint, as
    /// [`new`](Self::new) starts one: the base snapshot is
    /// [partitioned](SnapshotFragments::partition) over the initial
    /// ranges, so any fleet size can resume any checkpoint — including one
    /// written by a single-process `kav stream` run, and vice versa.
    ///
    /// `prefix_verified` is the caller's claim that the input will be
    /// re-fed from exactly the checkpoint's cut (fingerprint-proven);
    /// `false` sets every range's trust flag, which taints every key as in
    /// [`StreamPipeline::resume`] and survives every later hand-off.
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] as for [`new`](Self::new), or when `base` does
    /// not match `config` or holds a count at or above 2^63.
    ///
    /// [`StreamPipeline::resume`]: super::StreamPipeline::resume
    pub fn resume(
        config: FleetConfig,
        links: Vec<WorkerLink>,
        base: &PipelineSnapshot,
        prefix_verified: bool,
    ) -> Result<Self, ProtocolError> {
        let horizon = super::resolve_horizon(config.window, config.horizon);
        let configured = (config.algo.as_str(), config.k, config.window.max(1), horizon);
        let recorded = (base.algo.as_str(), base.k, base.window, base.horizon);
        if recorded != configured {
            return Err(ProtocolError::VerifierMismatch(format!(
                "checkpoint has (algo, k, window, horizon) = {recorded:?}, fleet config \
                 resolves to {configured:?}"
            )));
        }
        check_counts(base)?;
        let mut whole: SnapshotFragments = base.clone().try_into()?;
        whole.header.uncertified |= !prefix_verified;
        let greet = |link: &mut WorkerLink| -> Result<(), ProtocolError> {
            link.writer.write_all(&COORDINATOR_MAGIC)?;
            link.writer.flush()?;
            expect_preamble(&mut link.reader, WORKER_MAGIC)
        };
        let mut workers: Vec<WorkerSlot> = Vec::with_capacity(links.len());
        for mut link in links {
            let link = match greet(&mut link) {
                Ok(()) => Some(link),
                // Dead already: buried before it owns anything.
                Err(ProtocolError::Io(_) | ProtocolError::Disconnected) => None,
                Err(e) => return Err(e),
            };
            workers.push(WorkerSlot { link, last_snapshot_version: 0 });
        }
        // With no live worker, `place` fails the fleet.
        let ranges: Vec<RangeState> = KeyRange::partition(workers.len())
            .into_iter()
            .map(|range| RangeState::new(range, whole.partition(range), 0, false))
            .collect();
        let mut fleet = FleetCoordinator {
            ops_routed: base.ops_routed,
            ops_at_last_snapshot: base.ops_routed,
            summary: FleetSummary {
                workers: workers.len(),
                workers_alive: workers.iter().filter(|w| w.alive()).count(),
                ranges: ranges.len(),
                ..Default::default()
            },
            config,
            workers,
            ranges,
        };
        fleet.place()?;
        Ok(fleet)
    }

    /// Operations routed into the fleet so far (across resumes).
    pub fn ops_routed(&self) -> u64 {
        self.ops_routed
    }

    /// The fleet's topology and hand-off counters so far.
    pub fn summary(&self) -> &FleetSummary {
        &self.summary
    }

    /// True once [`FleetConfig::checkpoint_every`] operations have been
    /// routed since the last [`snapshot_fleet`](Self::snapshot_fleet).
    pub fn checkpoint_due(&self) -> bool {
        self.config.checkpoint_every > 0
            && self.ops_routed - self.ops_at_last_snapshot >= self.config.checkpoint_every
    }

    /// Routes one operation to its range's owner, flushing a full batch
    /// across the wire, and counts it. A dead owner triggers hand-off; the
    /// operation is never lost.
    ///
    /// # Errors
    ///
    /// Only when no worker is left alive to own the range.
    pub fn push(&mut self, key: u64, op: Operation) -> Result<(), ProtocolError> {
        self.ops_routed += 1;
        let idx = self
            .ranges
            .iter()
            .position(|state| state.range.contains(key))
            .expect("split ranges tile the key space");
        let state = &mut self.ranges[idx];
        state.routed += 1;
        if state.broken {
            // The range's audit stopped at an unverifiable hand-off:
            // feeding across the gap could prove violations that never
            // happened, so later operations are dropped — loudly counted, and
            // the fleet verdict never certifies (see `fleet_verdict`).
            self.summary.frames_dropped += 1;
            return Ok(());
        }
        if state.replay_intact && state.ops.len() >= self.config.replay_cap {
            // The replay outgrew its cap: keep only what is still unsent.
            state.replay_intact = false;
            state.ops.drain(..state.sent);
            state.sent = 0;
        }
        state.ops.push((key, op));
        if state.ops.len() - state.sent >= self.config.batch {
            self.flush_range(idx)?;
        }
        Ok(())
    }

    /// Sends range `idx`'s unsent operations as one batch, then keeps them
    /// as replay (intact) or drops them (overflowed). If the owner died,
    /// the range is handed off instead, and the hand-off re-sends what the
    /// replay holds.
    fn flush_range(&mut self, idx: usize) -> Result<(), ProtocolError> {
        let state = &self.ranges[idx];
        if state.sent == state.ops.len() {
            return Ok(());
        }
        let worker = state.worker.ok_or(ProtocolError::Disconnected)?;
        let batch = Batch { range: state.range, ops: Cow::Borrowed(&state.ops[state.sent..]) };
        if self.workers[worker].write(|out| batch.write_message(out)).is_err() {
            self.bury(worker);
            return self.place();
        }
        let state = &mut self.ranges[idx];
        if state.replay_intact {
            state.sent = state.ops.len();
        } else {
            state.ops.clear();
            state.sent = 0;
        }
        Ok(())
    }

    /// Reads one reply from a worker, expecting `expected`; an ERROR
    /// message surfaces as [`ProtocolError::Peer`].
    fn read_reply(&mut self, worker: usize, expected: u8) -> Result<Vec<u8>, ProtocolError> {
        let link = self.workers[worker].link.as_mut().ok_or(ProtocolError::Disconnected)?;
        let (got, payload) = read_message(&mut link.reader)?;
        if got == tag::ERROR {
            return Err(ProtocolError::Peer(String::from_utf8_lossy(&payload).into_owned()));
        }
        if got != expected {
            return Err(ProtocolError::UnexpectedReply { expected, got });
        }
        Ok(payload)
    }

    /// The live worker owning the fewest ranges (the lowest index on a
    /// tie), counted in one pass over the ranges.
    fn least_loaded(&self) -> Option<usize> {
        let mut owned = vec![0usize; self.workers.len()];
        for worker in self.ranges.iter().filter_map(|state| state.worker) {
            owned[worker] += 1;
        }
        (0..self.workers.len()).filter(|w| self.workers[*w].alive()).min_by_key(|w| owned[*w])
    }

    /// Places every range without an owner (see the module docs): each in
    /// turn goes to the least-loaded live worker as an ASSIGN of its
    /// snapshot and, if its buffer holds any, one BATCH of its whole
    /// replay. A worker dying on the way is buried, and its ranges are
    /// placed in turn.
    ///
    /// # Errors
    ///
    /// Only when no worker is left alive: the audit cannot continue. This
    /// is a transport failure (exit 2), never a verdict.
    fn place(&mut self) -> Result<(), ProtocolError> {
        while let Some(idx) = self.ranges.iter().position(|state| state.worker.is_none()) {
            let worker = self.least_loaded().ok_or(ProtocolError::Disconnected)?;
            let state = &mut self.ranges[idx];
            state.worker = Some(worker);
            let assignment = RangeSnapshot { range: state.range, snapshot: state.snapshot.clone() };
            let replay = (!state.ops.is_empty())
                .then(|| Batch { range: state.range, ops: Cow::Borrowed(&state.ops) });
            let placed = self.workers[worker].write(|out| {
                assignment.write_message(out, tag::ASSIGN)?;
                replay.map_or(Ok(()), |batch| batch.write_message(out))
            });
            match placed {
                // The whole buffer went out: nothing is left unsent.
                Ok(()) => self.ranges[idx].sent = self.ranges[idx].ops.len(),
                Err(ProtocolError::Io(_) | ProtocolError::Disconnected) => self.bury(worker),
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// The workers owning a range, in index order.
    fn owners(&self) -> Vec<usize> {
        let owns = |w: usize| self.ranges.iter().any(|state| state.worker == Some(w));
        (0..self.workers.len()).filter(|w| owns(*w)).collect()
    }

    /// Checks that a reply from `worker` covers exactly the ranges it owns.
    fn check_owned(
        &self,
        worker: usize,
        got: impl Iterator<Item = KeyRange>,
    ) -> Result<(), ProtocolError> {
        let mut owned: Vec<KeyRange> = self
            .ranges
            .iter()
            .filter(|state| state.worker == Some(worker))
            .map(|state| state.range)
            .collect();
        owned.sort();
        let mut got: Vec<KeyRange> = got.map(valid_range).collect::<Result<_, _>>()?;
        got.sort();
        if owned != got {
            return Err(ProtocolError::UnassignedRange(
                got.into_iter().find(|r| !owned.contains(r)).unwrap_or(KeyRange::ALL),
            ));
        }
        Ok(())
    }

    /// Sends `request` with `payload` to every worker in `workers` before
    /// reading any reply, so they work in parallel, then reads every
    /// `reply_tag` answer, a death notwithstanding: nothing may be written
    /// to a worker whose reply is still unread. Returns the replies in
    /// `workers` order, and whether a worker died (the dead are buried;
    /// their ranges still need [`place`](Self::place)).
    fn fan_out(
        &mut self,
        workers: Vec<usize>,
        request: u8,
        payload: &[u8],
        reply_tag: u8,
    ) -> Result<(Replies, bool), ProtocolError> {
        let mut dead = Vec::new();
        let mut asked = Vec::with_capacity(workers.len());
        for worker in workers {
            match self.workers[worker].write(|out| write_message(out, request, payload)) {
                Ok(()) => asked.push(worker),
                Err(ProtocolError::Io(_) | ProtocolError::Disconnected) => dead.push(worker),
                Err(e) => return Err(e),
            }
        }
        let mut replies = Vec::with_capacity(asked.len());
        for worker in asked {
            match self.read_reply(worker, reply_tag) {
                Ok(payload) => replies.push((worker, payload)),
                Err(ProtocolError::Io(_) | ProtocolError::Disconnected) => dead.push(worker),
                Err(e) => return Err(e),
            }
        }
        for &worker in &dead {
            self.bury(worker);
        }
        Ok((replies, !dead.is_empty()))
    }

    /// Marks a worker dead and hands its ranges off: each loses its owner
    /// until [`place`](Self::place)d, keeping its acked snapshot and
    /// replay. A range whose replay overflowed cannot be re-fed, so its
    /// hand-off is unverifiable and stops its audit (see the module docs):
    /// the snapshot's trust flag is set and the buffer dropped.
    fn bury(&mut self, worker: usize) {
        self.workers[worker].link = None;
        self.summary.workers_alive = self.workers.iter().filter(|w| w.alive()).count();
        for state in self.ranges.iter_mut().filter(|state| state.worker == Some(worker)) {
            state.worker = None;
            self.summary.hand_offs += 1;
            if !state.replay_intact {
                self.summary.uncertified_hand_offs += 1;
                state.broken = true;
                state.snapshot.header.uncertified = true;
                state.ops.clear();
                state.sent = 0;
            }
        }
    }

    /// Flushes every range and collects one consistent fleet-wide cut,
    /// merged into a whole-key-space snapshot — the fleet checkpoint,
    /// interchangeable with a single-process one. Also re-arms
    /// [`checkpoint_due`](Self::checkpoint_due) and clears the replay
    /// buffers of every acked range (the new snapshot supersedes them).
    ///
    /// Every worker is probed before any reply is read, so workers
    /// serialise their ranges in parallel. The replies stay in [fragment
    /// layout](crate::SnapshotFragments): the coordinator checks their headers and
    /// keys and lays their bytes out in key order, parsing none of them. A
    /// worker dying mid-probe has every other reply drained, is handed
    /// off, and the probe is retried, so the returned cut is always
    /// consistent.
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] when the fleet dies entirely or a reply violates
    /// the protocol (non-ascending snapshot version, wrong ranges,
    /// mismatched partition tags — each a diagnostic, never a verdict).
    pub fn snapshot_fleet(&mut self) -> Result<SnapshotFragments, ProtocolError> {
        loop {
            for idx in 0..self.ranges.len() {
                self.flush_range(idx)?;
            }
            let probed = self.owners();
            let (payloads, died) = self.fan_out(probed, tag::SNAPSHOT, &[], tag::SNAPSHOT_REPLY)?;
            let mut replies = Vec::with_capacity(payloads.len());
            for (worker, payload) in payloads {
                let reply = SnapshotReply::decode(payload)?;
                let last = self.workers[worker].last_snapshot_version;
                if reply.version <= last {
                    return Err(ProtocolError::SnapshotVersion { got: reply.version, last });
                }
                self.workers[worker].last_snapshot_version = reply.version;
                replies.push((worker, reply));
            }
            if died {
                self.place()?;
                continue;
            }
            for (worker, reply) in replies {
                self.check_owned(worker, reply.ranges.iter().map(|r| r.range))?;
                for RangeSnapshot { range, snapshot } in reply.ranges {
                    if snapshot.header.partition != Some(range) {
                        return Err(ProtocolError::PartitionMismatch {
                            range,
                            snapshot: snapshot.header.partition,
                        });
                    }
                    let state = self
                        .ranges
                        .iter_mut()
                        .find(|state| state.range == range)
                        .expect("validated against the owned set");
                    // The ack supersedes the replay: hand-offs now resume
                    // from this snapshot. A broken range stays broken —
                    // its gap does not heal, it only gets re-acked.
                    state.snapshot = snapshot;
                    state.ops.clear();
                    state.sent = 0;
                    state.replay_intact = !state.broken;
                }
            }
            self.ops_at_last_snapshot = self.ops_routed;
            // Every range was just acked: its owner was probed and covered
            // exactly the ranges it owns.
            let acked = self.ranges.iter().map(|state| &state.snapshot);
            return merge_fragments(acked, self.ops_routed).map_err(|e: MergeError| {
                ProtocolError::Json(format!("fleet snapshots do not merge: {e}"))
            });
        }
    }

    /// Splits the hottest range (most routed operations) in two: the owner
    /// retires it at a consistent cut, its snapshot is
    /// [partitioned](SnapshotFragments::partition) between the two halves,
    /// and each half is placed like any range without an owner. Each half
    /// keeps the parent's trust flag, so splitting never costs
    /// certification, and a half of a range whose audit stopped is stopped
    /// too.
    ///
    /// # Errors
    ///
    /// Transport or protocol failure; the split is abandoned (and the
    /// fleet continues or dies) exactly as a hand-off would.
    pub fn split_hottest(&mut self) -> Result<(), ProtocolError> {
        let Some(idx) = (0..self.ranges.len())
            .filter(|i| self.ranges[*i].range.bits < KeyRange::MAX_BITS)
            .max_by_key(|i| self.ranges[*i].routed)
        else {
            return Ok(());
        };
        self.flush_range(idx)?;
        let owner = self.ranges[idx].worker.ok_or(ProtocolError::Disconnected)?;
        let range = self.ranges[idx].range;
        let retire = to_json(&range)?;
        let (mut replies, _) = self.fan_out(vec![owner], tag::RETIRE, &retire, tag::RETIRE_REPLY)?;
        let Some((_, payload)) = replies.pop() else {
            // The owner died before retiring: its hand-off replaces the split.
            return self.place();
        };
        let retired = RangeSnapshot::decode(payload)?;
        let partition = retired.snapshot.header.partition;
        if retired.range != range || partition != Some(range) {
            return Err(ProtocolError::PartitionMismatch { range, snapshot: partition });
        }
        let parent = self.ranges.swap_remove(idx);
        let (low, high) = range.split();
        for half in [low, high] {
            // Heat resets proportionally so the halves do not immediately
            // win the next split election.
            let snapshot = retired.snapshot.partition(half);
            self.ranges.push(RangeState::new(half, snapshot, parent.routed / 2, parent.broken));
        }
        self.summary.splits += 1;
        self.summary.ranges = self.ranges.len();
        self.place()
    }

    /// Finishes the fleet: flushes everything, collects every worker's
    /// final reports and merges them into the single-process
    /// [`PipelineOutput`] shape.
    ///
    /// FINISH goes to every live worker before any reply is read, so
    /// workers verify their final windows in parallel, and every reply is
    /// read even after a death. A worker that answers has reported and
    /// dropped its ranges but keeps serving, so the ranges of a worker
    /// that died before replying are handed off to live workers (one that
    /// has already answered included), and a further FINISH round goes to
    /// those adopters only: one crash at the finish line does not cost the
    /// audit.
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] when the whole fleet dies or a reply violates
    /// the protocol.
    pub fn finish(mut self) -> Result<(PipelineOutput, FleetSummary), ProtocolError> {
        for idx in 0..self.ranges.len() {
            self.flush_range(idx)?;
        }
        let mut outputs: Vec<PipelineOutput> = Vec::new();
        // The first round asks every live worker, ranged or not, so each
        // one's link may close once it has answered.
        let mut asked: Vec<usize> =
            (0..self.workers.len()).filter(|w| self.workers[*w].alive()).collect();
        while !asked.is_empty() {
            let (replies, _) = self.fan_out(asked, tag::FINISH, &[], tag::FINISH_REPLY)?;
            for (worker, payload) in replies {
                let reply: FinishReply = parse_json(&payload)?;
                self.check_owned(worker, reply.ranges.iter().map(|r| r.range))?;
                // Final: the worker has dropped these ranges.
                self.ranges.retain(|state| state.worker != Some(worker));
                outputs.extend(reply.ranges.into_iter().map(|range| PipelineOutput {
                    keys: range.keys.into_iter().map(|e| (e.key, e.report)).collect(),
                    errors: range.errors.into_iter().map(|e| (e.key, e.error)).collect(),
                }));
            }
            // Only unfinished ranges remain, each on a live worker once
            // placed (no survivor left is a transport failure, never a
            // partial verdict); their owners are asked again.
            self.place()?;
            asked = self.owners();
        }
        Ok((super::merge::merge_reports(outputs), self.summary))
    }
}
