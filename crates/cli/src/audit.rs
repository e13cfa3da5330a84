//! The one audit driver behind `kav stream`, `kav serve` and `kav work`.
//!
//! Verification is per key (§II-B locality), so spreading keys over
//! threads or over worker processes changes only where verified
//! operations go, never the audit itself. An [`AuditSession`] therefore
//! runs every audit the same way: resolve the run once, open the input and
//! prove any resumed prefix, build a [`Sink`] (an in-process
//! [`StreamPipeline`] or a [`FleetCoordinator`] over spawned `kav work`
//! processes), feed it in one ingest loop, and report once.

use crate::args::{ArgError, Args};
use crate::commands::{
    bad_algo_k, bad_input, canonical_algo, default_algo, format_flag, gap_budget_flag, model_flag,
    parse_model, reject_model_flags, CmdResult, ExitWith, EXIT_VIOLATION,
};
use kav_core::{
    fleet_verdict, read_checkpoint, worker_loop, CausalVerifier, Checkpoint, CheckpointWriter,
    DepthStats, DepthWindow, FleetConfig, FleetCoordinator, FleetSummary, Fzf, GenK, GkOneAv, Lbt,
    ModelId, PipelineConfig, PipelineOutput, PipelineSnapshot, ProtocolError, RegularVerifier,
    SafeVerifier, ShardProgress, SnapshotFragments, SourcePosition, StreamPipeline, Verdict,
    Verifier, WorkerLink, DEFAULT_CAUSAL_BUDGET, DEFAULT_CHECKPOINT_EVERY, DEFAULT_GAP_BUDGET,
    DEFAULT_REPLAY_CAP,
};
use kav_history::fxhash::Fingerprint;
use kav_history::ndjson::{self, NdjsonError};
use kav_history::{frame, History};
use serde::Serialize;
use std::error::Error;
use std::fs::File;
use std::io::{self, BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;

/// Read buffer of a file input; stdin reads through its own lock's buffer.
const INPUT_BUFFER_BYTES: usize = 64 * 1024;

/// Upper bound on `--workers` and `--shards`: each worker is a process and
/// each shard a thread, all started before the first record is read.
const MAX_PARALLELISM: usize = 1024;

/// A verifier, resolved once from `(model, algo, k, budget)`: flags on a
/// fresh run, the checkpoint on a resumed one.
#[derive(Clone, Copy, Debug)]
pub(crate) enum VerifierSpec {
    Gk,
    Fzf,
    Lbt,
    /// The general-k sandwich; `budget` caps gap-escalation search nodes
    /// (`None` = unbounded).
    GenK {
        k: u64,
        budget: Option<u64>,
    },
    Regular,
    Safe,
    /// `budget` caps the transitive-closure work (`None` = unbounded).
    Causal {
        budget: Option<u64>,
    },
}

/// Evaluates `$body` with `$v` bound to the concrete verifier `$spec`
/// names: a generic closure, instantiated once per verifier type, so what
/// it builds (pipelines, worker loops) keeps static dispatch per record.
#[rustfmt::skip]
macro_rules! with_verifier {
    ($spec:expr, |$v:ident| $body:expr) => {
        match $spec {
            VerifierSpec::Gk => { let $v = GkOneAv; $body }
            VerifierSpec::Fzf => { let $v = Fzf; $body }
            VerifierSpec::Lbt => { let $v = Lbt::new(); $body }
            VerifierSpec::GenK { k, budget } => { let $v = GenK::with_gap_budget(k, budget); $body }
            VerifierSpec::Regular => { let $v = RegularVerifier; $body }
            VerifierSpec::Safe => { let $v = SafeVerifier; $body }
            VerifierSpec::Causal { budget } => {
                let $v = CausalVerifier::with_budget(budget.unwrap_or(u64::MAX));
                $body
            }
        }
    };
}

impl VerifierSpec {
    /// Resolves `--model` / `--algo` / `--k` / `--gap-budget` for a fresh
    /// run. Also returns the algorithm as spelled, which reports echo.
    pub(crate) fn from_flags(args: &Args) -> CmdResult<(Self, String)> {
        let model = model_flag(args)?;
        reject_model_flags(args, model)?;
        let (k, algo) = if model.is_k_atomic() {
            let k: u64 = args.get_parsed("k", 2)?;
            (k, args.get("algo").unwrap_or(default_algo(k)))
        } else {
            // Model verifiers have no staleness parameter (they report
            // k = 1) and the algo slot carries the model's own name.
            (1, model.as_str())
        };
        let spec = Self::resolve(model, algo, k, gap_budget_flag(args, default_budget(model))?)?;
        Ok((spec, algo.to_string()))
    }

    /// Unusable `(algo, k)` pairs get the bad-input exit code.
    pub(crate) fn resolve(
        model: ModelId,
        algo: &str,
        k: u64,
        budget: Option<u64>,
    ) -> CmdResult<Self> {
        Ok(match model {
            ModelId::KAtomic => match (canonical_algo(algo), k) {
                ("gk", 1) => VerifierSpec::Gk,
                ("fzf", 2) => VerifierSpec::Fzf,
                ("lbt", 2) => VerifierSpec::Lbt,
                ("genk", k) if k >= 1 => VerifierSpec::GenK { k, budget },
                (a, k) => return Err(bad_algo_k(a, k)),
            },
            ModelId::Regular => VerifierSpec::Regular,
            ModelId::Safe => VerifierSpec::Safe,
            ModelId::Causal => VerifierSpec::Causal { budget },
        })
    }

    /// Decides a whole history offline.
    pub(crate) fn decide(self, history: &History) -> Verdict {
        with_verifier!(self, |v| v.verify(history))
    }

    /// [`Verifier::name`] (what checkpoints record and the fleet wire
    /// carries), model and `k`.
    fn identity(self) -> (&'static str, ModelId, u64) {
        with_verifier!(self, |v| (v.name(), v.model(), v.k()))
    }

    /// The `kav work` arguments that run this verifier. `kav work` rejects
    /// `--algo`/`--k` alongside a non-default `--model`, so each spawn
    /// passes exactly one vocabulary.
    fn work_args(self) -> Vec<String> {
        let (name, model, k) = self.identity();
        let mut args: Vec<String> = if model.is_k_atomic() {
            vec!["--algo".into(), canonical_algo(name).into(), "--k".into(), k.to_string()]
        } else {
            vec!["--model".into(), model.as_str().into()]
        };
        if let VerifierSpec::GenK { budget, .. } | VerifierSpec::Causal { budget } = self {
            args.push("--gap-budget".into());
            args.push(budget.map_or_else(|| "unbounded".into(), |nodes| nodes.to_string()));
        }
        args
    }
}

/// The causal closure budget and the k-atomic gap budget share
/// `--gap-budget`, but each model keeps its own default.
fn default_budget(model: ModelId) -> u64 {
    if model == ModelId::Causal {
        DEFAULT_CAUSAL_BUDGET
    } else {
        DEFAULT_GAP_BUDGET
    }
}

/// `kav work` — one fleet worker: speaks the coordinator↔worker protocol
/// on stdin/stdout until stdin closes. Exit 0 when it closes after the
/// worker has answered a FINISH and while it owns no range (a worker
/// keeps serving after FINISH, to adopt the ranges of a peer that dies at
/// the finish line); exit 2, with the diagnostic on stderr, on a protocol
/// fault or any other close — a fault is unusable input, never a verdict.
/// Spawned by `kav serve`.
pub fn work(args: &Args) -> CmdResult {
    let (spec, _) = VerifierSpec::from_flags(args)?;
    with_verifier!(spec, |v| worker_loop(v, std::io::stdin().lock(), std::io::stdout().lock()))
        .map_err(|e| bad_input(format!("worker: {e}")))
}

/// `kav stream` — online sliding-window verification in this process.
///
/// Exit codes: `0` when every key verifies (or no violation was found but
/// certification was lost to breaches/orphans — `UNKNOWN`),
/// [`EXIT_VIOLATION`] when some key is provably not k-atomic, and `2`
/// (bad input) for everything that prevented or degraded verification
/// (malformed lines, a key breaking the stream schema, unreadable files,
/// bad flags) — so `1` *always* means "store is inconsistent" and never
/// "tap is broken".
pub fn stream(args: &Args) -> CmdResult {
    audit(args, false)
}

/// `kav serve` — the same audit over `--workers` spawned `kav work`
/// processes, keys partitioned by hash. Exit codes, checkpoints and the
/// report table interchange with `kav stream`; worker death is absorbed
/// by checkpoint hand-off (docs/OPERATIONS.md, "Running a fleet").
pub fn serve(args: &Args) -> CmdResult {
    audit(args, true)
}

fn audit(args: &Args, fleet: bool) -> CmdResult {
    AuditSession::resolve(args, fleet).and_then(AuditSession::run).map_err(|e| {
        if e.is::<ExitWith>() {
            e
        } else {
            // Any other failure (I/O, arg parsing, transport) verified
            // nothing: give it the bad-input code rather than the generic
            // 1, which auditing scripts read as a proven violation.
            bad_input(e.to_string())
        }
    })
}

/// Everything one audit needs, resolved before any input is read or any
/// worker is spawned.
struct AuditSession<'a> {
    spec: VerifierSpec,
    /// The algorithm as spelled by the flag or the checkpoint.
    algo: String,
    window: usize,
    horizon: Option<usize>,
    /// Pipeline shards of `kav stream`.
    shards: usize,
    batch: usize,
    checkpoint_every: u64,
    strict: bool,
    progress_every: u64,
    checkpoint_path: Option<&'a str>,
    resume: Option<Checkpoint>,
    /// Input path, or `-` for stdin.
    input: &'a str,
    binary: bool,
    /// `None` for `kav stream`.
    fleet: Option<FleetPlan>,
}

/// `kav serve`'s fleet flags.
struct FleetPlan {
    workers: usize,
    replay_cap: usize,
    /// `--kill-worker idx:records`, the fault-injection hook.
    kill: Option<(usize, u64)>,
    /// `--split-hottest records` (0 = never).
    split_at: u64,
}

impl<'a> AuditSession<'a> {
    /// Step 1: resolve the run. Verification parameters come from the
    /// flags on a fresh audit, and from the checkpoint on a resumed one,
    /// where contradicting flags are rejected (shards, workers and batch
    /// stay free: keys re-shard safely).
    fn resolve(args: &'a Args, fleet: bool) -> CmdResult<Self> {
        // Parallelism is bounded before anything is read or started.
        if fleet && args.get("shards").is_some() {
            return Err(bad_input("--shards is `kav stream`-only: size a fleet with --workers"));
        }
        let (flag, default) = if fleet { ("workers", 2) } else { ("shards", 4) };
        let parallelism: usize = args.get_parsed(flag, default)?;
        if parallelism > MAX_PARALLELISM {
            let n = parallelism;
            return Err(bad_input(format!("--{flag} {n} is above the bound of {MAX_PARALLELISM}")));
        }
        let resume = match args.get("resume") {
            Some(path) => Some(
                read_checkpoint(path).map_err(|e| bad_input(format!("--resume {path}: {e}")))?,
            ),
            None => None,
        };
        let (spec, algo, window, horizon) = match &resume {
            Some(checkpoint) => {
                let p = &checkpoint.pipeline;
                // Switching parameters mid-chain would change what the
                // resumed counters mean (for --model, they are verdicts
                // under that model's semantics).
                for (name, recorded) in [
                    ("model", p.model.to_string()),
                    ("k", p.k.to_string()),
                    ("algo", p.algo.clone()),
                    ("window", p.window.to_string()),
                    ("horizon", p.horizon.to_string()),
                ] {
                    let Some(given) = args.get(name) else { continue };
                    let same = match name {
                        "model" => parse_model(given)? == p.model,
                        // `--algo gk` matches the recorded name "gk-zones".
                        _ => canonical_algo(given) == canonical_algo(&recorded),
                    };
                    if !same {
                        return Err(bad_input(format!(
                            "--{name} {given} conflicts with the checkpoint's {name} = \
                             {recorded}; drop the flag to continue the audit, or start a \
                             fresh one"
                        )));
                    }
                }
                // The budget is not pinned by checkpoints: it trades
                // UNKNOWNs for latency but never changes what a counted
                // verdict means (docs/OPERATIONS.md).
                let budget = gap_budget_flag(args, default_budget(p.model))?;
                let spec = VerifierSpec::resolve(p.model, &p.algo, p.k, budget)?;
                (spec, p.algo.clone(), p.window, Some(p.horizon))
            }
            None => {
                let (spec, algo) = VerifierSpec::from_flags(args)?;
                // No --horizon: DEFAULT_HORIZON_WINDOWS x window.
                let horizon = args.get("horizon").map(|_| args.get_parsed("horizon", 0));
                let horizon = horizon.transpose()?;
                (spec, algo, args.get_parsed("window", 1024)?, horizon)
            }
        };
        let progress_every = args.get_parsed("progress-every", 0)?;
        let fleet = match fleet {
            true if progress_every > 0 => {
                return Err(bad_input(
                    "--progress-every: progress records are `kav stream`-only \
                     (the fleet coordinator has no progress probe)",
                ));
            }
            true => {
                if parallelism == 0 {
                    return Err(bad_input("--workers 0: a fleet needs at least one worker"));
                }
                let kill = args.get("kill-worker").map(|v| {
                    v.split_once(':')
                        .and_then(|(idx, at)| Some((idx.parse().ok()?, at.parse().ok()?)))
                        .ok_or_else(|| {
                            ArgError(format!("--kill-worker: expected idx:records, got {v:?}"))
                        })
                });
                let kill: Option<(usize, u64)> = kill.transpose()?;
                if let Some((idx, _)) = kill.filter(|&(idx, _)| idx >= parallelism) {
                    return Err(bad_input(format!(
                        "--kill-worker {idx}: the fleet has workers 0..{parallelism}"
                    )));
                }
                Some(FleetPlan {
                    workers: parallelism,
                    replay_cap: args.get_parsed("replay-cap", DEFAULT_REPLAY_CAP)?,
                    kill,
                    split_at: args.get_parsed("split-hottest", 0)?,
                })
            }
            false => None,
        };
        let command = if fleet.is_some() { "serve" } else { "stream" };
        Ok(AuditSession {
            spec,
            algo,
            window,
            horizon,
            shards: if fleet.is_some() { 1 } else { parallelism },
            batch: args.get_parsed("batch", PipelineConfig::default().batch)?,
            checkpoint_every: args.get_parsed("checkpoint-every", DEFAULT_CHECKPOINT_EVERY)?,
            strict: args.flag("strict"),
            progress_every,
            checkpoint_path: args.get("checkpoint"),
            resume,
            input: args.positional(1).ok_or_else(|| {
                ArgError(format!("{command} requires an NDJSON file argument (or -)"))
            })?,
            binary: format_flag(args)?,
            fleet,
        })
    }

    /// Steps 2–5: open the input and prove any resumed prefix, build the
    /// sink, feed it, report. Malformed records are skipped and counted —
    /// unless `strict`, which aborts on the first one. Genuine I/O
    /// failures abort.
    fn run(self) -> CmdResult {
        const MALFORMED_SAMPLES: usize = 10;
        // Started first, so an unusable path fails before any record is
        // read or any worker is spawned.
        let mut checkpoints = match self.checkpoint_path {
            Some(path) => {
                let last = self.resume.as_ref().map_or(0, |checkpoint| checkpoint.version);
                Some(CheckpointThread::start(path, last)?)
            }
            None => None,
        };
        // Fingerprint whenever checkpoints are written (so they can later
        // be verified) or verified (a resume).
        let fingerprinted = self.checkpoint_path.is_some() || self.resume.is_some();
        // Stdin through a reader of its own rather than its lock, which
        // cannot move to the NDJSON reader thread.
        let input: Box<dyn BufRead + Send> = if self.input == "-" {
            Box::new(BufReader::with_capacity(INPUT_BUFFER_BYTES, io::stdin()))
        } else {
            let file = File::open(self.input).map_err(|e| format!("{}: {e}", self.input))?;
            Box::new(BufReader::with_capacity(INPUT_BUFFER_BYTES, file))
        };
        // A resumed prefix is skipped on this thread; the rest of an NDJSON
        // input is decoded ahead on every core.
        let (mut source, prefix_verified) = if self.binary {
            let mut reader = if fingerprinted {
                frame::Reader::with_fingerprint(input, Fingerprint::new())
            } else {
                frame::Reader::new(input)
            }
            .map_err(|e| bad_input(format!("{}: {e}", self.input)))?;
            let verified = self.verify_prefix(|n| {
                Ok((reader.skip_raw_frames(n).map_err(NdjsonError::Io)?, reader.fingerprint()))
            })?;
            (IngestSource::Binary(reader), verified)
        } else {
            let mut reader = if fingerprinted {
                ndjson::Reader::with_fingerprint(input, Fingerprint::new())
            } else {
                ndjson::Reader::new(input)
            };
            let verified =
                self.verify_prefix(|n| Ok((reader.skip_raw_lines(n)?, reader.fingerprint())))?;
            (IngestSource::Ndjson(reader.decode_ahead()), verified)
        };
        let (mut total_malformed, mut malformed) = match &self.resume {
            Some(checkpoint) => {
                (checkpoint.source.malformed, checkpoint.source.malformed_samples.clone())
            }
            None => (0, Vec::new()),
        };

        let mut sink = self.open_sink(prefix_verified)?;
        if let Some(checkpoint) = &self.resume {
            println!(
                "resumed {}from checkpoint v{} ({} ops, {} records{})",
                if self.fleet.is_some() { "fleet " } else { "" },
                checkpoint.version,
                checkpoint.pipeline.ops_routed,
                checkpoint.source.lines,
                if prefix_verified { ", prefix verified" } else { ", prefix unverified" },
            );
        }

        let mut records: u64 = 0;
        let mut depth_window = DepthWindow::default();
        // `while let` rather than `for`: the loop body needs the source
        // back each iteration (unit counts, fingerprints) for checkpoints.
        while let Some(record) = source.next_record() {
            match record {
                Ok(record) => match &mut sink {
                    Sink::Pipeline(pipeline) => pipeline.push(record.key, record.op()),
                    Sink::Fleet { coordinator, .. } => coordinator.push(record.key, record.op())?,
                },
                Err(e @ NdjsonError::Parse { .. }) => {
                    if self.strict {
                        return Err(bad_input(format!("--strict: {e}")));
                    }
                    total_malformed += 1;
                    if malformed.len() < MALFORMED_SAMPLES {
                        malformed.push(e.to_string());
                    }
                }
                Err(e) => return Err(input_failure(self.input, e)),
            }
            records += 1;
            if let (Sink::Fleet { workers, coordinator }, Some(plan)) = (&mut sink, &self.fleet) {
                if let Some((idx, _)) = plan.kill.filter(|&(_, at)| at == records) {
                    // Fault injection: SIGKILL the worker mid-stream; the
                    // coordinator must absorb it by checkpoint hand-off.
                    workers.0[idx].kill()?;
                    workers.0[idx].wait()?;
                }
                if plan.split_at == records {
                    coordinator.split_hottest()?;
                }
            }
            if let Some(checkpoints) = &mut checkpoints {
                match sink.snapshot_if_due()? {
                    // Still probed at cadence, so acks keep replays bounded.
                    Some(_) if sink.gapped() => checkpoints.halt(),
                    Some(snapshot) => {
                        let position = SourcePosition {
                            lines: source.units_read(),
                            fingerprint: source
                                .fingerprint()
                                .expect("checkpointing sessions always fingerprint"),
                            malformed: total_malformed,
                            malformed_samples: malformed.clone(),
                        };
                        checkpoints.write(position, snapshot)?;
                    }
                    None => {}
                }
            }
            if self.progress_every > 0 && records.is_multiple_of(self.progress_every) {
                if let Sink::Pipeline(pipeline) = &mut sink {
                    let progress = pipeline.progress();
                    let line = ProgressLine {
                        record: "progress",
                        lines: source.units_read(),
                        checkpoint_version: checkpoints.as_ref().map_or(0, |c| c.handed),
                        ops_routed: progress.ops_routed,
                        ops: progress.ops,
                        malformed: total_malformed,
                        keys: progress.keys,
                        segments: progress.segments,
                        violating_keys: progress.violating_keys,
                        errored_keys: progress.errored_keys,
                        horizon_breaches: progress.horizon_breaches,
                        orphaned_reads: progress.orphaned_reads,
                        resident: progress.resident,
                        peak_retired: progress.peak_retired,
                        window_depth: depth_window.observe(&progress.depth_hist),
                        depth_hist: progress.depth_hist,
                        shards: progress.shards,
                    };
                    eprintln!("{}", serde_json::to_string(&line).expect("progress serializes"));
                }
            }
        }
        let (output, summary) = sink.finish()?;
        if let Some(checkpoints) = checkpoints {
            checkpoints.finish()?;
        }
        self.report(&output, &summary, total_malformed, &malformed)
    }

    /// Step 2's resume check: re-reads the prefix the checkpoint
    /// summarised with `skip` (which skips up to `n` raw units and returns
    /// how many it skipped and the fingerprint after them) and proves it
    /// byte-identical before its verdicts are trusted. Returns whether the
    /// prefix was verified — stdin cannot be; a fresh audit has none.
    fn verify_prefix(
        &self,
        skip: impl FnOnce(u64) -> Result<(u64, Option<u64>), NdjsonError>,
    ) -> CmdResult<bool> {
        let Some(checkpoint) = &self.resume else { return Ok(true) };
        let input = self.input;
        if input == "-" {
            // The operator feeds the remaining records, the audit continues,
            // and YES degrades to UNKNOWN (NO stays sound). Lines and
            // fingerprint restart with this run's input, consistent with any
            // checkpoint written from it.
            eprintln!(
                "warning: resuming from stdin skips prefix verification — \
                 a YES verdict will degrade to UNKNOWN"
            );
            return Ok(false);
        }
        let lines = checkpoint.source.lines;
        let (skipped, fingerprint) = skip(lines).map_err(|e| input_failure(input, e))?;
        let problem = if skipped < lines {
            format!(
                "input ends after {skipped} records but the checkpoint covers {lines}; \
                 wrong input file?"
            )
        } else if fingerprint != Some(checkpoint.source.fingerprint) {
            format!(
                "the first {lines} input records differ from the ones the checkpoint \
                 summarised (fingerprint mismatch — wrong file, or a different --format?); \
                 resuming would silently corrupt the audit"
            )
        } else {
            return Ok(true);
        };
        Err(bad_input(format!("--resume: {problem}")))
    }

    /// Step 3: where verified operations go. A fleet spawns its workers
    /// only here, once every flag, the input and any resumed prefix have
    /// been checked.
    fn open_sink(&self, prefix_verified: bool) -> CmdResult<Sink> {
        let base = self.resume.as_ref().map(|checkpoint| &checkpoint.pipeline);
        let bad_resume = |e: &dyn Error| bad_input(e.to_string());
        let Some(plan) = &self.fleet else {
            let config = PipelineConfig {
                window: self.window,
                shards: self.shards,
                horizon: self.horizon,
                batch: self.batch,
                checkpoint_every: self.checkpoint_every,
            };
            return Ok(Sink::Pipeline(match base {
                Some(base) => with_verifier!(self.spec, |v| {
                    StreamPipeline::resume(v, config, base, prefix_verified)
                })
                .map_err(|e| bad_resume(&e))?,
                None => with_verifier!(self.spec, |v| StreamPipeline::new(v, config)),
            }));
        };
        let (name, model, k) = self.spec.identity();
        let config = FleetConfig {
            algo: name.to_string(),
            model,
            k,
            window: self.window,
            horizon: self.horizon,
            batch: self.batch,
            checkpoint_every: self.checkpoint_every,
            replay_cap: plan.replay_cap,
        };
        let (exe, work_args) = (std::env::current_exe()?, self.spec.work_args());
        let mut workers = Workers(Vec::with_capacity(plan.workers));
        let mut links = Vec::with_capacity(plan.workers);
        for _ in 0..plan.workers {
            // Children speak the protocol on their stdin/stdout; stderr
            // passes through for diagnostics.
            let mut child = Command::new(&exe)
                .arg("work")
                .args(&work_args)
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .spawn()?;
            links.push(WorkerLink {
                writer: Box::new(std::io::BufWriter::new(child.stdin.take().expect("piped"))),
                reader: Box::new(std::io::BufReader::new(child.stdout.take().expect("piped"))),
            });
            workers.0.push(child);
        }
        let coordinator = match base {
            Some(base) => FleetCoordinator::resume(config, links, base, prefix_verified)
                .map_err(|e| bad_resume(&e))?,
            None => FleetCoordinator::new(config, links)?,
        };
        Ok(Sink::Fleet { workers, coordinator })
    }

    /// Step 5: the report and the exit code. A proven violation outranks
    /// input trouble (which is printed first); bad input without a
    /// violation exits with its own code — "the tap is broken" is not
    /// "the store is inconsistent".
    fn report(
        &self,
        output: &PipelineOutput,
        summary: &FleetSummary,
        total_malformed: u64,
        malformed: &[String],
    ) -> CmdResult {
        let (_, model, k) = self.spec.identity();
        let (semantics, violation, certified) = if model.is_k_atomic() {
            let certified = format!("every key is {k}-atomic");
            (format!("{}, k={k}", self.algo), format!("are not {k}-atomic"), certified)
        } else {
            let certified = format!("every key satisfies the {model} model");
            (format!("model {model}"), format!("violate the {model} model"), certified)
        };
        let topology = match &self.fleet {
            Some(plan) => {
                println!(
                    "fleet: {} workers ({} alive at the end), {} ranges, {} hand-offs \
                     ({} uncertified), {} splits, {} frames dropped",
                    summary.workers,
                    summary.workers_alive,
                    summary.ranges,
                    summary.hand_offs,
                    summary.uncertified_hand_offs,
                    summary.splits,
                    summary.frames_dropped,
                );
                format!("{} workers", plan.workers)
            }
            None => format!("{} shards", self.shards.max(1)),
        };
        println!(
            "verified {} ops across {} keys ({semantics}, window {}, {topology})",
            output.total_ops(),
            output.keys.len(),
            self.window.max(1),
        );
        println!("key | ops | segments | reads | depth mean/max | breach/orphan | verdict");
        for (key, report) in &output.keys {
            let verdict = match report.k_atomic() {
                Some(true) => "YES",
                Some(false) => "NO",
                None => "UNKNOWN",
            };
            println!(
                "{key:>3} | {:>5} | {:>8} | {:>5} | {:>7.2}/{:<4} | {:>6}/{:<6} | {verdict}",
                report.ops,
                report.segments,
                report.reads,
                report.mean_read_depth,
                report.max_read_depth,
                report.horizon_breaches,
                report.orphaned_reads,
            );
        }
        for line in malformed {
            eprintln!("{line}");
        }
        if total_malformed > malformed.len() as u64 {
            let more = total_malformed - malformed.len() as u64;
            eprintln!("... and {more} more malformed records");
        }
        for (key, error) in &output.errors {
            eprintln!("key {key}: {error}");
        }

        let violating = output.keys.iter().filter(|(_, r)| r.k_atomic() == Some(false)).count();
        if violating > 0 {
            let message = format!("NO: {violating} keys {violation}");
            return Err(ExitWith::new(EXIT_VIOLATION, message));
        }
        if !output.errors.is_empty() {
            return Err(bad_input(format!("{} keys had unusable streams", output.errors.len())));
        }
        if total_malformed > 0 {
            return Err(bad_input(format!("{total_malformed} malformed records were skipped")));
        }
        match fleet_verdict(output, summary) {
            Some(true) => {
                let fleet = if self.fleet.is_some() { " (fleet certified)" } else { "" };
                println!("YES: {certified}{fleet}")
            }
            Some(false) => unreachable!("violations and errors are handled above"),
            None if summary.uncertified_hand_offs > 0 || summary.frames_dropped > 0 => println!(
                "UNKNOWN: no violation found, but {} hand-off(s) lost their replay \
                 and {} frames were dropped past the break; checkpoint at least \
                 every --replay-cap records (or rerun end to end) to certify",
                summary.uncertified_hand_offs, summary.frames_dropped,
            ),
            None if output.keys.iter().any(|(_, r)| r.resumed_uncertified) => println!(
                "UNKNOWN: no violation found, but the resume chain could not be \
                 verified (non-seekable input); re-run the audit end to end, or \
                 resume from a file, to certify"
            ),
            None => println!(
                "UNKNOWN: no violation found, but some reads outlived the window or \
                 the retirement horizon; rerun with a larger --window / --horizon \
                 to certify"
            ),
        }
        Ok(())
    }
}

/// Where verified operations go: this process's shard threads, or a
/// fleet of `kav work` processes.
enum Sink {
    Pipeline(StreamPipeline),
    /// `workers` is declared first so it drops first: on an error exit the
    /// workers die before the coordinator closes their pipes, so none of
    /// them reports a broken transport.
    Fleet {
        workers: Workers,
        coordinator: FleetCoordinator,
    },
}

impl Sink {
    /// Whether an uncertified hand-off stopped a fleet range's audit, so no
    /// snapshot from here on resumes soundly: its keys skip a gap.
    fn gapped(&self) -> bool {
        matches!(self, Sink::Fleet { coordinator, .. }
            if coordinator.summary().uncertified_hand_offs > 0)
    }

    /// A snapshot when the checkpoint cadence is due.
    fn snapshot_if_due(&mut self) -> Result<Option<Snapshot>, ProtocolError> {
        Ok(match self {
            Sink::Pipeline(p) => p.checkpoint_due().then(|| Snapshot::Pipeline(p.snapshot())),
            Sink::Fleet { coordinator: c, .. } => {
                c.checkpoint_due().then(|| c.snapshot_fleet().map(Snapshot::Fleet)).transpose()?
            }
        })
    }

    /// The merged output. A single process reports an empty fleet
    /// summary, under which [`fleet_verdict`] reduces to
    /// [`PipelineOutput::all_k_atomic`].
    fn finish(self) -> Result<(PipelineOutput, FleetSummary), ProtocolError> {
        match self {
            Sink::Pipeline(pipeline) => Ok((pipeline.finish(), FleetSummary::default())),
            // Every worker has answered FINISH, and `finish` closes its
            // link, so it exits cleanly; dropping the guard reaps it.
            Sink::Fleet { coordinator, .. } => coordinator.finish(),
        }
    }
}

/// What the ingest thread hands the checkpoint writer: a pipeline's
/// snapshot, which the writer thread serialises, or a fleet's, which
/// arrives serialised.
enum Snapshot {
    Pipeline(PipelineSnapshot),
    Fleet(SnapshotFragments),
}

/// Durability off the ingest path: one thread owns the
/// [`CheckpointWriter`], so ingest goes on while a checkpoint is
/// serialised, written and synced. At most one write is in flight: the
/// next checkpoint and the end of the audit wait for it, and a failed
/// write surfaces there as exit 2, naming the path. A crash mid-write
/// still leaves the previous checkpoint intact (the writer replaces the
/// file atomically).
struct CheckpointThread<'a> {
    path: &'a str,
    /// The version the chain continued after at start.
    started: u64,
    /// The version of the last checkpoint handed to the writer, which
    /// progress records report.
    handed: u64,
    /// Set once [`halt`](Self::halt) stopped the writes.
    halted: bool,
    in_flight: bool,
    jobs: Option<mpsc::Sender<(SourcePosition, Snapshot)>>,
    results: mpsc::Receiver<io::Result<u64>>,
    thread: Option<JoinHandle<()>>,
}

impl<'a> CheckpointThread<'a> {
    /// Checks the checkpoint's directory, then starts the writer thread
    /// continuing the chain after version `last`.
    fn start(path: &'a str, last: u64) -> CmdResult<Self> {
        let mut writer = CheckpointWriter::starting_at(path, last);
        writer.check_directory().map_err(|e| bad_input(format!("--checkpoint {path}: {e}")))?;
        let (jobs, queue) = mpsc::channel::<(SourcePosition, Snapshot)>();
        let (done, results) = mpsc::channel();
        let thread = std::thread::spawn(move || {
            for (source, snapshot) in queue {
                let written = match snapshot {
                    Snapshot::Pipeline(snapshot) => writer.write(source, snapshot),
                    Snapshot::Fleet(snapshot) => writer.write(source, snapshot),
                };
                if done.send(written).is_err() {
                    return;
                }
            }
        });
        Ok(CheckpointThread {
            path,
            started: last,
            handed: last,
            halted: false,
            in_flight: false,
            jobs: Some(jobs),
            results,
            thread: Some(thread),
        })
    }

    /// Waits for the write in flight, if any.
    fn wait(&mut self) -> CmdResult {
        if !std::mem::take(&mut self.in_flight) {
            return Ok(());
        }
        let path = self.path;
        match self.results.recv() {
            Ok(written) => {
                written.map(drop).map_err(|e| bad_input(format!("--checkpoint {path}: {e}")))
            }
            Err(_) => Err(bad_input(format!("--checkpoint {path}: the writer thread died"))),
        }
    }

    /// Hands one checkpoint to the writer, once the previous one is
    /// durable.
    fn write(&mut self, source: SourcePosition, snapshot: Snapshot) -> CmdResult {
        self.wait()?;
        let jobs = self.jobs.as_ref().expect("the queue closes only on drop");
        if jobs.send((source, snapshot)).is_err() {
            return Err(bad_input(format!("--checkpoint {}: the writer thread died", self.path)));
        }
        self.in_flight = true;
        self.handed += 1;
        Ok(())
    }

    /// Writes no further checkpoint once a gap opened: a later one would
    /// resume across it, and the last one written predates it. Warns once.
    fn halt(&mut self) {
        if std::mem::replace(&mut self.halted, true) {
            return;
        }
        let kept = if self.handed > self.started {
            format!("{} keeps checkpoint v{}", self.path, self.handed)
        } else {
            format!("this run wrote no checkpoint to {}", self.path)
        };
        eprintln!(
            "warning: an uncertified hand-off stopped a range's audit, so no later \
             checkpoint is written (it would resume across the gap); {kept}"
        );
    }

    /// Waits for the last write.
    fn finish(mut self) -> CmdResult {
        self.wait()
    }
}

impl Drop for CheckpointThread<'_> {
    /// Closes the queue and lets a write in flight complete, so an audit
    /// that fails mid-run leaves no temp file behind.
    fn drop(&mut self) {
        self.jobs = None;
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// The spawned `kav work` processes. Dropping the guard kills and reaps
/// them, so an audit that fails mid-run leaves no orphan.
struct Workers(Vec<Child>);

impl Drop for Workers {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// An input failure that ends the audit, after the input's name: an I/O
/// error as the system words it, or a line over the cap.
fn input_failure(input: &str, e: NdjsonError) -> Box<dyn Error> {
    match e {
        NdjsonError::Io(e) => format!("{input}: {e}"),
        e => format!("{input}: {e}"),
    }
    .into()
}

/// One NDJSON progress record, written to stderr every `--progress-every`
/// records (schema documented in docs/OPERATIONS.md).
#[derive(Serialize)]
struct ProgressLine {
    /// Always `"progress"`: tells these records apart on a shared stderr.
    record: &'static str,
    /// Raw input units (lines or frames) consumed so far.
    lines: u64,
    checkpoint_version: u64,
    ops_routed: u64,
    ops: u64,
    malformed: u64,
    keys: usize,
    segments: u64,
    violating_keys: usize,
    errored_keys: usize,
    horizon_breaches: u64,
    orphaned_reads: u64,
    resident: u64,
    peak_retired: usize,
    depth_hist: Vec<u64>,
    /// Depth distribution of the reads of the last
    /// [`kav_core::DEFAULT_DEPTH_WINDOW`] progress intervals only, so a
    /// staleness regression hours into an audit is not averaged away.
    window_depth: DepthStats,
    shards: Vec<ShardProgress>,
}

/// The two input formats behind one cursor. Positions count raw lines for
/// NDJSON and frames for binary; checkpoints store whichever the run used,
/// so a resume must keep the format (the fingerprint enforces it).
enum IngestSource {
    /// Decoded ahead on every core.
    Ndjson(ndjson::DecodeAhead),
    /// `--format binary`: frames decode inline, for less than a hand-off
    /// to another thread would cost.
    Binary(frame::Reader<Box<dyn BufRead + Send>>),
}

impl IngestSource {
    fn next_record(&mut self) -> Option<Result<ndjson::StreamRecord, NdjsonError>> {
        match self {
            IngestSource::Ndjson(r) => r.next(),
            IngestSource::Binary(r) => r.next(),
        }
    }

    fn units_read(&self) -> u64 {
        match self {
            IngestSource::Ndjson(r) => r.lines_read(),
            IngestSource::Binary(r) => r.frames_read(),
        }
    }

    fn fingerprint(&self) -> Option<u64> {
        match self {
            IngestSource::Ndjson(r) => r.fingerprint(),
            IngestSource::Binary(r) => r.fingerprint(),
        }
    }
}
