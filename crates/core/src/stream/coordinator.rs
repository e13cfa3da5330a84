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
//! ordinary checkpoint without being parsed.
//!
//! Each range keeps one buffer of the `(key, Operation)` pairs routed to
//! it since its last acknowledged snapshot. Its unsent tail is the next
//! batch; frames are built only when that batch goes on the wire.
//!
//! # Hand-off: death is a resume
//!
//! The rebalancing mechanism *is* the checkpoint mechanism. A range starts
//! on a worker only by resuming a snapshot: empty in a fresh fleet, its
//! checkpoint slice, a split half, or on hand-off the last one a worker
//! acknowledged. The coordinator keeps that snapshot for every range, and
//! the range's buffer is the replay of everything routed since. When
//! a worker dies (any transport error), each of its ranges is re-assigned
//! to the survivor owning the fewest ranges: the survivor resumes the
//! acked snapshot and the coordinator re-sends the replay — an
//! exactly-once hand-off, so the fleet report is the one an undisturbed
//! run produces. Work the dead worker did past the snapshot is
//! deliberately lost and redone; work is never double-counted.
//!
//! If the replay overflowed ([`FleetConfig::replay_cap`]) the buffer
//! keeps only its unsent tail, the chain between snapshot and present
//! cannot be re-fed, and per-key streams now have a **gap** — feeding
//! later operations across it could prove violations that never
//! happened. So an unverifiable hand-off *stops the range's audit*: the
//! acked snapshot's trust flag is set and the survivor resumes it
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
//! range (replying with its snapshot), the snapshot is parsed and
//! [partitioned](super::merge::partition_snapshot) into the two child
//! ranges, and each child resumes on its new owner with the parent's
//! trust flag.
//!
//! Trust is state: the only record of an unverified resume or hand-off is
//! the snapshot's own `uncertified` flag, which every ASSIGN carries and
//! every later snapshot of the range keeps.
//!
//! [`StreamPipeline`]: super::StreamPipeline

use super::fragment::SnapshotFragments;
use super::merge::{
    merge_fragments, partition_snapshot, split_ops_share, FleetSummary, MergeError,
};
use super::pipeline::{check_counts, PipelineOutput, PipelineSnapshot};
use crate::models::ModelId;
use super::protocol::{
    expect_preamble, parse_json, read_message, tag, to_json, valid_range, write_message,
    FinishReply, ProtocolError, RangeSnapshot, SnapshotReply, COORDINATOR_MAGIC, WORKER_MAGIC,
};
use kav_history::frame::{encode_routed_batch, KeyRange};
use kav_history::Operation;
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
}

/// Everything the coordinator knows about one key range.
struct RangeState {
    range: KeyRange,
    /// Index into the worker table.
    worker: usize,
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
    /// probe, the one the range started from. Never parsed here, except
    /// to split the range.
    snapshot: SnapshotFragments,
    /// Operations routed to this range since it was created (split-heat
    /// signal, and the `ops_routed` share for fresh assignments).
    routed: u64,
}

impl RangeState {
    /// A range with an empty buffer, owned by `worker`.
    fn new(range: KeyRange, worker: usize, snapshot: SnapshotFragments, routed: u64) -> Self {
        RangeState {
            range,
            worker,
            ops: Vec::new(),
            sent: 0,
            replay_intact: true,
            broken: false,
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
    /// deals them round-robin, each starting from an empty snapshot.
    ///
    /// # Errors
    ///
    /// Any preamble or assignment failure ([`ProtocolError`]); a fleet
    /// that cannot start assigns no work.
    pub fn new(config: FleetConfig, links: Vec<WorkerLink>) -> Result<Self, ProtocolError> {
        let (window, horizon) = (config.window, config.horizon);
        let empty = PipelineSnapshot::empty(&config.algo, config.model, config.k, window, horizon);
        Self::resume(config, links, &empty, true)
    }

    /// Starts a fleet resuming a merged checkpoint: the base snapshot is
    /// [partitioned](partition_snapshot) over the initial ranges, so any
    /// fleet size can resume any checkpoint — including one written by a
    /// single-process `kav stream` run, and vice versa.
    ///
    /// `prefix_verified` is the caller's claim that the input will be
    /// re-fed from exactly the checkpoint's cut (fingerprint-proven);
    /// `false` sets every range's trust flag, which taints every key as in
    /// [`StreamPipeline::resume`] and survives every later hand-off.
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] on transport/assignment failure, or when `base`
    /// does not match `config` or holds a count at or above 2^63.
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
        let mut workers: Vec<WorkerSlot> = Vec::with_capacity(links.len());
        for mut link in links {
            link.writer.write_all(&COORDINATOR_MAGIC)?;
            link.writer.flush()?;
            expect_preamble(&mut link.reader, WORKER_MAGIC)?;
            workers.push(WorkerSlot { link: Some(link), last_snapshot_version: 0 });
        }
        if workers.is_empty() {
            return Err(ProtocolError::Disconnected);
        }
        let partition = KeyRange::partition(workers.len());
        let mut fleet = FleetCoordinator {
            ops_routed: base.ops_routed,
            ops_at_last_snapshot: base.ops_routed,
            summary: FleetSummary {
                workers: workers.len(),
                workers_alive: workers.len(),
                ranges: partition.len(),
                ..Default::default()
            },
            config,
            workers,
            ranges: Vec::with_capacity(partition.len()),
        };
        let mut remaining = base.ops_routed;
        let last = partition.len() - 1;
        for (i, range) in partition.into_iter().enumerate() {
            // Conserve the fleet-wide ops_routed sum: each slice takes its
            // accepted ops, the last takes the remainder (pushes to failed
            // keys are not attributable to a slice).
            let share =
                if i == last { remaining } else { split_ops_share(base, range).min(remaining) };
            remaining -= share;
            let mut snapshot = partition_snapshot(base, range, share);
            snapshot.uncertified |= !prefix_verified;
            let snapshot = snapshot.try_into()?;
            fleet.ranges.push(RangeState::new(range, i % fleet.workers.len(), snapshot, share));
            fleet.assign(i)?;
        }
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
    /// across the wire. A dead owner triggers hand-off; the operation is
    /// never lost.
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
        let worker = state.worker;
        let payload = encode_routed_batch(state.range, &state.ops[state.sent..]);
        if self.write_to(worker, |out| write_message(out, tag::BATCH, &payload)).is_err() {
            return self.handle_worker_death(worker);
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

    /// Writes one message to a worker, flushing.
    fn write_to(
        &mut self,
        worker: usize,
        message: impl FnOnce(&mut Box<dyn Write + Send>) -> io::Result<()>,
    ) -> Result<(), ProtocolError> {
        let link = self.workers[worker].link.as_mut().ok_or(ProtocolError::Disconnected)?;
        message(&mut link.writer)?;
        link.writer.flush()?;
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

    /// Sends one request to a worker and reads its `reply_tag` answer. A
    /// transport failure hands the dead worker's ranges off and returns
    /// `Ok(None)`.
    fn request(
        &mut self,
        worker: usize,
        tag: u8,
        payload: &[u8],
        reply_tag: u8,
    ) -> Result<Option<Vec<u8>>, ProtocolError> {
        let reply = self
            .write_to(worker, |out| write_message(out, tag, payload))
            .and_then(|()| self.read_reply(worker, reply_tag));
        match reply {
            Ok(payload) => Ok(Some(payload)),
            Err(ProtocolError::Io(_) | ProtocolError::Disconnected) => {
                self.handle_worker_death(worker)?;
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// Sends range `idx`'s assignment to its owner, resuming the range's
    /// last acked snapshot.
    fn assign(&mut self, idx: usize) -> Result<(), ProtocolError> {
        let state = &self.ranges[idx];
        let assignment = RangeSnapshot { range: state.range, snapshot: state.snapshot.clone() };
        self.write_to(state.worker, |out| assignment.write_message(out, tag::ASSIGN))
    }

    /// The live worker owning the fewest ranges (the lowest index on a
    /// tie).
    fn least_loaded(&self) -> Option<usize> {
        (0..self.workers.len())
            .filter(|w| self.workers[*w].alive())
            .min_by_key(|w| self.ranges.iter().filter(|r| r.worker == *w).count())
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
            .filter(|state| state.worker == worker)
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

    /// Sends `request` to every worker in `workers` before reading any
    /// reply, so they work in parallel, then reads every `reply_tag`
    /// answer, a death notwithstanding: nothing may be written to a worker
    /// whose reply is still unread. Returns the replies in `workers` order,
    /// and whether a worker died (the dead are buried; their ranges still
    /// need [`rehome`](Self::rehome)).
    fn fan_out(
        &mut self,
        workers: Vec<usize>,
        request: u8,
        reply_tag: u8,
    ) -> Result<(Replies, bool), ProtocolError> {
        let mut dead = Vec::new();
        let mut asked = Vec::with_capacity(workers.len());
        for worker in workers {
            match self.write_to(worker, |out| write_message(out, request, &[])) {
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

    /// Marks a worker dead.
    fn bury(&mut self, worker: usize) {
        self.workers[worker].link = None;
        self.summary.workers_alive = self.workers.iter().filter(|w| w.alive()).count();
    }

    /// Buries a dead worker and re-homes its ranges (see [`rehome`](Self::rehome)).
    ///
    /// # Errors
    ///
    /// Only when no worker is left alive.
    fn handle_worker_death(&mut self, dead: usize) -> Result<(), ProtocolError> {
        self.bury(dead);
        self.rehome()
    }

    /// Re-homes each range of a buried worker on the survivor owning the
    /// fewest, resuming from the last acked snapshot and re-sending the
    /// replay (see the module docs). An unverifiable hand-off sets the
    /// snapshot's trust flag first. Survivors dying during the hand-off
    /// are buried the same way, recursively.
    ///
    /// # Errors
    ///
    /// Only when no worker is left alive.
    fn rehome(&mut self) -> Result<(), ProtocolError> {
        while let Some(idx) =
            self.ranges.iter().position(|state| !self.workers[state.worker].alive())
        {
            // Nobody left: the audit cannot continue. This is a transport
            // failure (exit 2), never a verdict.
            let survivor = self.least_loaded().ok_or(ProtocolError::Disconnected)?;
            self.summary.hand_offs += 1;
            let state = &mut self.ranges[idx];
            state.worker = survivor;
            if state.replay_intact {
                // The whole buffer goes out below; nothing is left unsent.
                state.sent = state.ops.len();
            } else {
                self.summary.uncertified_hand_offs += 1;
                state.broken = true;
                state.snapshot.header.uncertified = true;
                state.ops.clear();
                state.sent = 0;
            }
            let mut outcome = self.assign(idx);
            let state = &self.ranges[idx];
            if outcome.is_ok() && !state.ops.is_empty() {
                let payload = encode_routed_batch(state.range, &state.ops);
                outcome = self.write_to(survivor, |out| write_message(out, tag::BATCH, &payload));
            }
            match outcome {
                Ok(()) => {}
                // The survivor died too; bury it and loop — the range is
                // still homed on a dead worker, so it is picked up again
                // with its replay intact.
                Err(ProtocolError::Io(_) | ProtocolError::Disconnected) => self.bury(survivor),
                Err(e) => return Err(e),
            }
        }
        Ok(())
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
            let probed: Vec<usize> = (0..self.workers.len())
                .filter(|w| {
                    self.workers[*w].alive()
                        && self.ranges.iter().any(|state| state.worker == *w)
                })
                .collect();
            let (payloads, died) = self.fan_out(probed, tag::SNAPSHOT, tag::SNAPSHOT_REPLY)?;
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
                self.rehome()?;
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
            return merge_fragments(self.ranges.iter().map(|state| &state.snapshot)).map_err(
                |e: MergeError| ProtocolError::Json(format!("fleet snapshots do not merge: {e}")),
            );
        }
    }

    /// Splits the hottest range (most routed operations since creation) in
    /// two: the owner retires it at a consistent cut, the snapshot is
    /// partitioned between the two children, and the busier half stays
    /// put while the other re-homes on the least-loaded worker — each with
    /// the parent's trust flag, so splitting never costs certification.
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
        let owner = self.ranges[idx].worker;
        let range = self.ranges[idx].range;
        let Some(payload) =
            self.request(owner, tag::RETIRE, &to_json(&range)?, tag::RETIRE_REPLY)?
        else {
            // The owner died before retiring: its hand-off replaces the split.
            return Ok(());
        };
        let retired = RangeSnapshot::decode(payload)?;
        let partition = retired.snapshot.header.partition;
        if retired.range != range || partition != Some(range) {
            return Err(ProtocolError::PartitionMismatch { range, snapshot: partition });
        }
        let parent = retired.snapshot.parse()?;
        let (low, high) = range.split();
        let low_share = split_ops_share(&parent, low);
        let parent_routed = self.ranges[idx].routed;
        // Heat resets proportionally so the split halves do not
        // immediately win the next split election.
        let make_state = |child: KeyRange, ops: u64, worker: usize| {
            let snapshot = partition_snapshot(&parent, child, ops).try_into()?;
            Ok::<_, ProtocolError>(RangeState::new(child, worker, snapshot, parent_routed / 2))
        };
        let other = self.least_loaded().ok_or(ProtocolError::Disconnected)?;
        let low_ops = low_share.min(parent.ops_routed);
        let low_state = make_state(low, low_ops, owner)?;
        let high_state = make_state(high, parent.ops_routed - low_ops, other)?;
        self.ranges.swap_remove(idx);
        for state in [low_state, high_state] {
            let worker = state.worker;
            self.ranges.push(state);
            match self.assign(self.ranges.len() - 1) {
                Ok(()) => {}
                Err(ProtocolError::Io(_) | ProtocolError::Disconnected) => {
                    self.handle_worker_death(worker)?;
                }
                Err(e) => return Err(e),
            }
        }
        self.summary.splits += 1;
        self.summary.ranges = self.ranges.len();
        Ok(())
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
            let (replies, _) = self.fan_out(asked, tag::FINISH, tag::FINISH_REPLY)?;
            for (worker, payload) in replies {
                let reply: FinishReply = parse_json(&payload)?;
                self.check_owned(worker, reply.ranges.iter().map(|r| r.range))?;
                // Final: the worker has dropped these ranges.
                self.ranges.retain(|state| state.worker != worker);
                outputs.extend(reply.ranges.into_iter().map(|range| PipelineOutput {
                    keys: range.keys.into_iter().map(|e| (e.key, e.report)).collect(),
                    errors: range.errors.into_iter().map(|e| (e.key, e.error)).collect(),
                }));
            }
            // Only unfinished ranges remain, each on a live worker once
            // re-homed (no survivor left is a transport failure, never a
            // partial verdict); their owners are asked again.
            self.rehome()?;
            asked = (0..self.workers.len())
                .filter(|w| self.ranges.iter().any(|state| state.worker == *w))
                .collect();
        }
        Ok((super::merge::merge_reports(outputs), self.summary))
    }
}
