//! Every fleet schedule on a small bound, checked exhaustively.
//!
//! A [`FleetCoordinator`] and its [`Worker`]s run on one thread. Each
//! [`WorkerLink`] is an in-memory pipe: the coordinator's writes queue
//! messages, and its reads run [`Worker::handle`] on every complete
//! message queued, then serve the reply bytes it wrote. The coordinator works by
//! sequential request and reply, so a schedule is a set of choices, and
//! the explorer enumerates them all:
//!
//! - the input (2 or 3 keys, 34 operations) and the resume: none, or a
//!   verified or unverified one from a mid-stream checkpoint;
//! - the replay cap, 12 or 4 operations;
//! - a checkpoint never, or every 8 operations;
//! - one `split_hottest` halfway, or none;
//! - which worker dies, and before or after which of its messages, or no
//!   death (the larger, ignored bound adds a third worker and a second
//!   death during the hand-off the first one causes).
//!
//! A dead link fails writes (broken pipe) and reads (end of file, once
//! the replies the worker sent before dying are read). A read from a live
//! worker with no reply pending is a deadlock, and more messages than any
//! schedule needs are a livelock; either is reported, never waited out.
//!
//! Each schedule is checked against a single-process [`StreamPipeline`]
//! on the same input and resume. Each invariant is a bad state no schedule
//! may reach:
//!
//! 1. any shard's NO makes the fleet NO, and every key the fleet calls NO
//!    is NO single-process;
//! 2. every key the fleet calls YES is YES single-process;
//! 3. when the summary counts an uncertified hand-off or a dropped frame,
//!    the fleet verdict is not YES;
//! 4. with every hand-off certified (no death included), the merged
//!    output and every checkpoint equal the single-process ones byte for
//!    byte;
//! 5. every schedule returns: its fleet starts (a death at an initial
//!    assignment is a hand-off like any other), finishes, and never gives
//!    up while a worker is alive;
//! 6. every checkpoint counts the operations routed up to its record as
//!    the single process's does, whatever the hand-offs.
//!
//! A few workers stand in for many (Esparza, Ganty and Majumdar on
//! parameterized verification), and each invariant is a state-reachability
//! question (Bouajjani, Emmi, Enea and Hamza): both in PAPERS.md.

use k_atomicity::history::Operation;
use k_atomicity::verify::protocol::{tag, Worker, COORDINATOR_MAGIC, WORKER_MAGIC};
use k_atomicity::verify::{
    fleet_verdict, FleetConfig, FleetCoordinator, FleetSummary, Fzf, ModelId, PipelineConfig,
    PipelineOutput, PipelineSnapshot, StreamPipeline, WorkerLink,
};
use k_atomicity::workloads::{
    deep_stale_stream, streaming_workload, DeepStaleConfig, StreamingWorkloadConfig,
};
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard};

const WINDOW: usize = 3;
const BATCH: usize = 4;
/// Replay caps. At 12 a range's replay overflows only without
/// checkpoints, so hand-offs come both certified and uncertified; at 4 it
/// overflows between checkpoints too, so uncertified hand-offs meet
/// checkpoints and splits.
const REPLAY_CAPS: [usize; 2] = [12, 4];
/// Operations per input, about: split evenly over its keys.
const OPS: usize = 30;
/// Operations a mid-stream checkpoint covers.
const PREFIX: usize = 12;
/// Messages per worker past which a schedule counts as a livelock.
const MESSAGE_BUDGET: usize = 1000;

// ---------------------------------------------------------------------------
// The in-memory fleet.
// ---------------------------------------------------------------------------

/// When a worker dies, counted in the messages the coordinator writes it.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Death {
    /// Having handled messages `0..m`: writing message `m` fails.
    Before(usize),
    /// Message `m` is written, but the worker dies having handled only
    /// the messages before it.
    After(usize),
}

/// A death scheduled `offset` messages after the coordinator first sees a
/// peer die: the survivor dies during the hand-off.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Deferred {
    offset: usize,
    after: bool,
}

/// One worker and its pipe.
struct Pipe {
    worker: Worker<Fzf>,
    /// Preamble bytes received so far, until all eight arrive.
    preamble: Vec<u8>,
    /// Bytes of the message being written.
    partial: Vec<u8>,
    /// Complete messages not yet handled.
    queued: VecDeque<(u8, Vec<u8>)>,
    /// Messages written in full.
    written: usize,
    /// The tag of every message written, in order.
    tags: Vec<u8>,
    /// Reply bytes not yet read.
    outbox: VecDeque<u8>,
    death: Option<Death>,
    deferred: Option<Deferred>,
    dead: bool,
}

impl Pipe {
    fn new() -> Self {
        Pipe {
            worker: Worker::new(Fzf),
            preamble: Vec::new(),
            partial: Vec::new(),
            queued: VecDeque::new(),
            written: 0,
            tags: Vec::new(),
            outbox: VecDeque::new(),
            death: None,
            deferred: None,
            dead: false,
        }
    }

    /// Handles every queued message, as the worker process would have
    /// before it read anything further.
    fn handle_queued(&mut self, id: usize) {
        while let Some((tag, payload)) = self.queued.pop_front() {
            let mut reply = Vec::new();
            if let Err(e) = self.worker.handle(tag, payload, &mut reply) {
                panic!("worker {id} refused message {tag}: {e}");
            }
            self.outbox.extend(reply);
        }
    }

    /// Dies having handled every message queued before this point.
    fn die(&mut self, id: usize) {
        self.handle_queued(id);
        self.dead = true;
    }
}

/// Every pipe of one schedule, and when the coordinator first saw a death.
struct Fleet {
    pipes: Vec<Pipe>,
    first_death_seen: bool,
}

impl Fleet {
    /// Records that the coordinator saw a worker dead, arming every
    /// deferred death.
    fn saw_death(&mut self) {
        if std::mem::replace(&mut self.first_death_seen, true) {
            return;
        }
        for pipe in &mut self.pipes {
            if let Some(Deferred { offset, after }) = pipe.deferred.take() {
                let at = pipe.written + offset;
                pipe.death = Some(if after { Death::After(at) } else { Death::Before(at) });
            }
        }
    }
}

/// One end of worker `id`'s pipe.
struct End {
    fleet: Arc<Mutex<Fleet>>,
    id: usize,
}

impl End {
    fn lock(&self) -> MutexGuard<'_, Fleet> {
        self.fleet.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

fn broken_pipe() -> io::Error {
    io::Error::new(io::ErrorKind::BrokenPipe, "the worker is dead")
}

impl Write for End {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let id = self.id;
        let mut fleet = self.lock();
        let pipe = &mut fleet.pipes[id];
        if pipe.dead {
            fleet.saw_death();
            return Err(broken_pipe());
        }
        let mut bytes = buf;
        if pipe.preamble.len() < COORDINATOR_MAGIC.len() {
            let take = bytes.len().min(COORDINATOR_MAGIC.len() - pipe.preamble.len());
            pipe.preamble.extend_from_slice(&bytes[..take]);
            bytes = &bytes[take..];
            if pipe.preamble.len() == COORDINATOR_MAGIC.len() {
                assert_eq!(pipe.preamble, COORDINATOR_MAGIC, "worker {id}: bad preamble");
                pipe.outbox.extend(WORKER_MAGIC);
            }
        }
        if !bytes.is_empty() && pipe.partial.is_empty() {
            // These bytes open message number `written`.
            let dies = match pipe.death {
                Some(Death::Before(m)) => pipe.written == m,
                Some(Death::After(m)) => pipe.written == m + 1,
                None => false,
            };
            if dies {
                pipe.die(id);
                fleet.saw_death();
                return Err(broken_pipe());
            }
        }
        pipe.partial.extend_from_slice(bytes);
        while pipe.partial.len() >= 5 {
            let len = u32::from_le_bytes(pipe.partial[1..5].try_into().unwrap()) as usize;
            if pipe.partial.len() < 5 + len {
                break;
            }
            let message: Vec<u8> = pipe.partial.drain(..5 + len).collect();
            pipe.tags.push(message[0]);
            pipe.queued.push_back((message[0], message[5..].to_vec()));
            pipe.written += 1;
            assert!(
                pipe.written <= MESSAGE_BUDGET,
                "livelock: worker {id} was sent {} messages",
                pipe.written
            );
            if pipe.death == Some(Death::After(pipe.written - 1)) {
                // The message is in the pipe, but its reader is gone.
                pipe.queued.pop_back();
                pipe.die(id);
                break;
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Read for End {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let id = self.id;
        let mut fleet = self.lock();
        let pipe = &mut fleet.pipes[id];
        if pipe.outbox.is_empty() && !pipe.dead {
            pipe.handle_queued(id);
        }
        if pipe.outbox.is_empty() {
            assert!(pipe.dead, "deadlock: the coordinator reads worker {id}, which owes no reply");
            fleet.saw_death();
            return Ok(0);
        }
        let n = buf.len().min(pipe.outbox.len());
        for (slot, byte) in buf.iter_mut().zip(pipe.outbox.drain(..n)) {
            *slot = byte;
        }
        Ok(n)
    }
}

// ---------------------------------------------------------------------------
// Schedules.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq)]
enum Resume {
    Fresh,
    Verified,
    Unverified,
}

/// One point of the enumeration.
#[derive(Clone, Debug)]
struct Schedule {
    workers: usize,
    keys: u64,
    resume: Resume,
    replay_cap: usize,
    checkpoint_every: u64,
    split: bool,
    /// A worker's death, at a message of its own.
    death: Option<(usize, Death)>,
    /// A second worker's death, during the hand-off of the first.
    second: Option<(usize, Deferred)>,
}

/// What one schedule's fleet did.
struct Outcome {
    output: PipelineOutput,
    summary: FleetSummary,
    checkpoints: Vec<String>,
    /// The index of the push after which the first hand-off, and the
    /// first checkpoint, had happened.
    first_hand_off: Option<usize>,
    first_probe: Option<usize>,
    /// Whether any scheduled death happened.
    died: bool,
    /// Each worker's message tags.
    tags: Vec<Vec<u8>>,
}

/// The input of a schedule: its records, the checkpoint a resume starts
/// from, and the records fed after it.
struct Input {
    records: Vec<(u64, Operation)>,
    base: Option<(PipelineSnapshot, bool)>,
}

impl Input {
    /// Key 0 is 3-atomic but not 2-atomic (NO); the others are 2-atomic,
    /// and at window 3 one of three keys loses a read past the horizon
    /// (UNKNOWN), so a fresh audit reaches all three verdicts.
    fn new(keys: u64, resume: Resume) -> Self {
        let ops_per_key = OPS / keys as usize;
        let stale = deep_stale_stream(DeepStaleConfig {
            keys: 1,
            ops_per_key,
            k: 3,
            seed: 1,
            ..Default::default()
        });
        let fresh = streaming_workload(StreamingWorkloadConfig {
            keys: keys - 1,
            ops_per_key,
            k: 2,
            seed: 1,
            ..Default::default()
        });
        let mut records: Vec<(u64, Operation)> = stale
            .iter()
            .map(|record| (0, record.op()))
            .chain(fresh.iter().map(|record| (record.key + 1, record.op())))
            .collect();
        records.sort_by_key(|(key, op)| (op.finish, *key));
        let base = (resume != Resume::Fresh).then(|| {
            let mut first = StreamPipeline::new(Fzf, pipeline_config(0));
            for (key, op) in &records[..PREFIX] {
                first.push(*key, *op);
            }
            let snapshot = first.snapshot();
            first.finish();
            (snapshot, resume == Resume::Verified)
        });
        Input { records, base }
    }

    /// The records fed after the start (after the checkpoint on a resume).
    fn feed(&self) -> &[(u64, Operation)] {
        &self.records[if self.base.is_some() { PREFIX } else { 0 }..]
    }
}

fn pipeline_config(checkpoint_every: u64) -> PipelineConfig {
    PipelineConfig { shards: 2, window: WINDOW, horizon: None, batch: BATCH, checkpoint_every }
}

fn fleet_config(checkpoint_every: u64, replay_cap: usize) -> FleetConfig {
    FleetConfig {
        algo: "fzf".to_owned(),
        model: ModelId::KAtomic,
        k: 2,
        window: WINDOW,
        horizon: None,
        batch: BATCH,
        checkpoint_every,
        replay_cap,
    }
}

/// Every report and error, one line each.
fn render(output: &PipelineOutput) -> Vec<String> {
    let reports = output.keys.iter().map(|(key, report)| {
        format!("{key} {}", serde_json::to_string(report).expect("reports serialize"))
    });
    let errors = output.errors.iter().map(|(key, error)| format!("{key} error {error}"));
    reports.chain(errors).collect()
}

/// The single-process audit of an input: its output and checkpoints.
struct Reference {
    output: PipelineOutput,
    checkpoints: Vec<String>,
}

impl Reference {
    fn new(input: &Input, checkpoint_every: u64) -> Self {
        let config = pipeline_config(checkpoint_every);
        let mut pipeline = match &input.base {
            Some((base, verified)) => StreamPipeline::resume(Fzf, config, base, *verified)
                .expect("the checkpoint resumes"),
            None => StreamPipeline::new(Fzf, config),
        };
        let mut checkpoints = Vec::new();
        for (key, op) in input.feed() {
            pipeline.push(*key, *op);
            if pipeline.checkpoint_due() {
                checkpoints.push(serde_json::to_string(&pipeline.snapshot()).unwrap());
            }
        }
        Reference { output: pipeline.finish(), checkpoints }
    }
}

/// Runs one schedule. A panic (a deadlock, a livelock, a worker refusing
/// a message) and a fleet that refuses to start or gives up are returned
/// as the violation.
fn run(schedule: &Schedule, input: &Input) -> Result<Outcome, String> {
    let fleet = Arc::new(Mutex::new(Fleet {
        pipes: (0..schedule.workers).map(|_| Pipe::new()).collect(),
        first_death_seen: false,
    }));
    {
        let mut state = fleet.lock().unwrap();
        if let Some((worker, death)) = schedule.death {
            state.pipes[worker].death = Some(death);
        }
        if let Some((worker, deferred)) = schedule.second {
            state.pipes[worker].deferred = Some(deferred);
        }
    }
    let links = (0..schedule.workers)
        .map(|id| WorkerLink {
            writer: Box::new(End { fleet: Arc::clone(&fleet), id }),
            reader: Box::new(End { fleet: Arc::clone(&fleet), id }),
        })
        .collect();
    let result = panic::catch_unwind(AssertUnwindSafe(|| {
        let config = fleet_config(schedule.checkpoint_every, schedule.replay_cap);
        let coordinator = match &input.base {
            Some((base, verified)) => FleetCoordinator::resume(config, links, base, *verified),
            None => FleetCoordinator::new(config, links),
        };
        let mut coordinator =
            coordinator.map_err(|e| format!("the fleet refused to start: {e}"))?;
        let (mut checkpoints, mut first_hand_off, mut first_probe) = (Vec::new(), None, None);
        let feed = input.feed();
        let gave_up = |e| format!("the fleet gave up with a worker alive: {e}");
        for (at, (key, op)) in feed.iter().enumerate() {
            coordinator.push(*key, *op).map_err(gave_up)?;
            if schedule.split && at + 1 == feed.len() / 2 {
                coordinator.split_hottest().map_err(gave_up)?;
            }
            if coordinator.checkpoint_due() {
                let mut json = Vec::new();
                coordinator.snapshot_fleet().map_err(gave_up)?.write_json(&mut json).unwrap();
                checkpoints.push(String::from_utf8(json).unwrap());
                first_probe.get_or_insert(at);
            }
            if coordinator.summary().hand_offs > 0 {
                first_hand_off.get_or_insert(at);
            }
        }
        let (output, summary) = coordinator.finish().map_err(gave_up)?;
        Ok((output, summary, checkpoints, first_hand_off, first_probe))
    }));
    let state = fleet.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    match result {
        Err(panic) => Err(panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "a panic".to_owned())),
        Ok(Err(violation)) => Err(violation),
        Ok(Ok((output, summary, checkpoints, first_hand_off, first_probe))) => Ok(Outcome {
            output,
            summary,
            checkpoints,
            first_hand_off,
            first_probe,
            died: state.pipes.iter().any(|pipe| pipe.dead),
            tags: state.pipes.iter().map(|pipe| pipe.tags.clone()).collect(),
        }),
    }
}

/// A verdict as `kav` prints it.
fn name(verdict: Option<bool>) -> &'static str {
    match verdict {
        Some(true) => "YES",
        Some(false) => "NO",
        None => "UNKNOWN",
    }
}

/// The `ops_routed` a checkpoint records.
fn ops_routed(checkpoint: &str) -> u64 {
    serde_json::from_str::<PipelineSnapshot>(checkpoint).expect("checkpoints parse").ops_routed
}

/// Checks invariants 1–4 and 6 of a finished schedule against its
/// reference.
fn check(outcome: &Outcome, reference: &Reference) -> Result<(), String> {
    let Outcome { output, summary, checkpoints, .. } = outcome;
    let fleet_counts: Vec<u64> = checkpoints.iter().map(|c| ops_routed(c)).collect();
    let single_counts: Vec<u64> = reference.checkpoints.iter().map(|c| ops_routed(c)).collect();
    if fleet_counts != single_counts {
        return Err(format!(
            "checkpoints count routed operations {fleet_counts:?}, the single process's \
             {single_counts:?}"
        ));
    }
    let verdict = fleet_verdict(output, summary);
    let single: BTreeMap<u64, Option<bool>> =
        reference.output.keys.iter().map(|(key, report)| (*key, report.k_atomic())).collect();
    for (key, report) in &output.keys {
        let fleet = report.k_atomic();
        if fleet == Some(false) && verdict != Some(false) {
            return Err(format!("key {key} is NO, the fleet verdict {}", name(verdict)));
        }
        if fleet.is_some() && single.get(key) != Some(&fleet) {
            return Err(format!(
                "key {key}: the fleet says {}, the single process {}",
                name(fleet),
                single.get(key).map_or("nothing", |verdict| name(*verdict))
            ));
        }
    }
    let single_errors: BTreeMap<u64, &String> =
        reference.output.errors.iter().map(|(key, error)| (*key, error)).collect();
    if let Some((key, error)) =
        output.errors.iter().find(|(key, _)| !single_errors.contains_key(key))
    {
        return Err(format!("key {key} fails in the fleet only: {error}"));
    }
    if (summary.uncertified_hand_offs > 0 || summary.frames_dropped > 0) && verdict == Some(true) {
        return Err(format!("YES despite {summary:?}"));
    }
    // A certified hand-off is invisible: the survivor resumes the last
    // acked snapshot and is re-sent everything routed since.
    if summary.uncertified_hand_offs == 0 {
        if render(output) != render(&reference.output) {
            return Err(format!(
                "every hand-off certified, yet the output differs:\n  fleet  {:?}\n  single {:?}",
                render(output),
                render(&reference.output)
            ));
        }
        if *checkpoints != reference.checkpoints {
            return Err("every hand-off certified, yet a checkpoint differs".to_owned());
        }
    }
    Ok(())
}

/// Coverage of one exploration, printed with its verdict.
#[derive(Default)]
struct Tally {
    schedules: usize,
    with_death: usize,
    hand_offs: usize,
    uncertified: usize,
    splits: usize,
    checkpoints: usize,
    /// Fleet key verdicts reached: NO, YES, UNKNOWN.
    verdicts: [usize; 3],
    violations: Vec<String>,
}

fn describe(schedule: &Schedule, outcome: Option<&Outcome>, tags: &[Vec<u8>]) -> String {
    let tag_name = |tag: u8| match tag {
        tag::ASSIGN => "ASSIGN",
        tag::BATCH => "BATCH",
        tag::SNAPSHOT => "SNAPSHOT",
        tag::RETIRE => "RETIRE",
        tag::FINISH => "FINISH",
        _ => "?",
    };
    let mut text = format!(
        "{} workers, {} keys, resume {:?}, replay cap {}, checkpoint every {}, split {}",
        schedule.workers,
        schedule.keys,
        schedule.resume,
        schedule.replay_cap,
        schedule.checkpoint_every,
        schedule.split
    );
    if let Some((worker, death)) = schedule.death {
        let (Death::Before(m) | Death::After(m)) = death;
        let tag = tags.get(worker).and_then(|tags| tags.get(m)).map_or("?", |t| tag_name(*t));
        text += &format!(", worker {worker} dies {death:?} ({tag})");
    }
    if let Some((worker, deferred)) = schedule.second {
        text += &format!(", then worker {worker} {deferred:?}");
    }
    if let Some(Outcome { first_hand_off, first_probe, summary, .. }) = outcome {
        text += &format!(
            "; first hand-off after push {first_hand_off:?}, first probe after push \
             {first_probe:?}, {} hand-offs ({} uncertified), {} frames dropped",
            summary.hand_offs, summary.uncertified_hand_offs, summary.frames_dropped
        );
    }
    text
}

/// Explores every schedule up to the bound: `workers` workers, a replay
/// cap of `replay_cap`, and with `second_deaths` a second death during
/// each first death's hand-off.
fn explore(workers: usize, second_deaths: bool, replay_cap: usize) -> Tally {
    let mut tally = Tally::default();
    for keys in [2, 3] {
        for resume in [Resume::Fresh, Resume::Verified, Resume::Unverified] {
            let input = Input::new(keys, resume);
            for checkpoint_every in [0, 8] {
                let reference = Reference::new(&input, checkpoint_every);
                for split in [false, true] {
                    let base = Schedule {
                        workers,
                        keys,
                        resume,
                        replay_cap,
                        checkpoint_every,
                        split,
                        death: None,
                        second: None,
                    };
                    // The undisturbed run fixes every worker's messages: a
                    // death changes nothing before it.
                    let tags = match run(&base, &input) {
                        Ok(Outcome { tags, .. }) => tags,
                        Err(_) => vec![Vec::new(); workers],
                    };
                    let mut schedules = vec![base.clone()];
                    for (worker, messages) in tags.iter().enumerate() {
                        for m in 0..messages.len() {
                            for death in [Death::Before(m), Death::After(m)] {
                                let first =
                                    Schedule { death: Some((worker, death)), ..base.clone() };
                                schedules.push(first.clone());
                                if !second_deaths {
                                    continue;
                                }
                                for other in (0..workers).filter(|w| *w != worker) {
                                    for offset in 0..3 {
                                        for after in [false, true] {
                                            let second = Some((other, Deferred { offset, after }));
                                            schedules.push(Schedule { second, ..first.clone() });
                                        }
                                    }
                                }
                            }
                        }
                    }
                    for schedule in schedules {
                        tally.schedules += 1;
                        let outcome = run(&schedule, &input);
                        let verdict = outcome
                            .as_ref()
                            .map_err(Clone::clone)
                            .and_then(|outcome| check(outcome, &reference).map(|()| outcome));
                        match verdict {
                            Ok(Outcome { output, summary, checkpoints, died, .. }) => {
                                for (_, report) in &output.keys {
                                    let slot = match report.k_atomic() {
                                        Some(false) => 0,
                                        Some(true) => 1,
                                        None => 2,
                                    };
                                    tally.verdicts[slot] += 1;
                                }
                                tally.with_death += usize::from(*died);
                                tally.hand_offs += summary.hand_offs;
                                tally.uncertified += summary.uncertified_hand_offs;
                                tally.splits += summary.splits;
                                tally.checkpoints += checkpoints.len();
                            }
                            Err(violation) => {
                                let outcome = outcome.as_ref().ok();
                                tally.violations.push(format!(
                                    "{}\n    {violation}",
                                    describe(&schedule, outcome, &tags)
                                ));
                            }
                        }
                    }
                }
            }
        }
    }
    tally
}

fn report(replay_cap: usize, tally: &Tally) {
    println!(
        "replay cap {replay_cap}: explored {} fleet schedules: {} with a death, {} hand-offs ({} \
         uncertified), {} splits, {} checkpoints; key verdicts {} NO, {} YES, {} UNKNOWN; {} \
         violations",
        tally.schedules,
        tally.with_death,
        tally.hand_offs,
        tally.uncertified,
        tally.splits,
        tally.checkpoints,
        tally.verdicts[0],
        tally.verdicts[1],
        tally.verdicts[2],
        tally.violations.len()
    );
    for violation in tally.violations.iter().take(5) {
        println!("  counterexample: {violation}");
    }
    assert!(
        tally.violations.is_empty(),
        "{} schedules violate an invariant",
        tally.violations.len()
    );
}

#[test]
fn every_schedule_of_two_workers_keeps_every_invariant() {
    for replay_cap in REPLAY_CAPS {
        let tally = explore(2, false, replay_cap);
        report(replay_cap, &tally);
        // The bound reaches what the invariants are about.
        assert!(tally.uncertified > 0 && tally.hand_offs > tally.uncertified && tally.splits > 0);
    }
}

#[test]
#[ignore = "the larger bound: run with --release -- --ignored"]
fn every_schedule_of_three_workers_and_two_deaths_keeps_every_invariant() {
    for replay_cap in REPLAY_CAPS {
        let tally = explore(3, true, replay_cap);
        report(replay_cap, &tally);
        assert!(tally.uncertified > 0 && tally.hand_offs > tally.uncertified && tally.splits > 0);
    }
}
