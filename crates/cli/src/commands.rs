use crate::args::{ArgError, Args};
use crate::audit::VerifierSpec;
use kav_core::{
    check_witness, diagnose, smallest_k, ConstrainedSearch, ModelId, Staleness, UnknownModel,
    Verdict, Verifier, DEFAULT_GAP_BUDGET,
};
use kav_history::{
    csv, frame, json, ndjson, render_timeline, repair, History, HistoryStats, RawHistory,
};
use kav_sim::{scenario_matrix, LatencyModel, Manifest, Scenario, SimConfig, Simulation};
use kav_weighted::{reduce_bin_packing, BinPacking};
use kav_workloads as workloads;
use std::error::Error;

pub(crate) type CmdResult<T = ()> = Result<T, Box<dyn Error>>;

/// Exit code for a verified k-atomicity violation (`kav stream`).
pub const EXIT_VIOLATION: u8 = 1;
/// Exit code for unusable input: malformed records were skipped (or, with
/// `--strict`, aborted on) or a key's stream broke the schema rules. The
/// history's k-atomicity was *not* refuted.
pub const EXIT_BAD_INPUT: u8 = 2;

/// An error that carries a specific process exit code, so `main` can
/// distinguish "the history is bad" from "the input is bad".
#[derive(Debug)]
pub struct ExitWith {
    /// The process exit code to use.
    pub code: u8,
    message: String,
}

impl ExitWith {
    pub(crate) fn new(code: u8, message: impl Into<String>) -> Box<Self> {
        Box::new(ExitWith { code, message: message.into() })
    }
}

impl std::fmt::Display for ExitWith {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl Error for ExitWith {}

/// An error with the bad-input exit code, [`EXIT_BAD_INPUT`].
pub(crate) fn bad_input(message: impl Into<String>) -> Box<dyn Error> {
    ExitWith::new(EXIT_BAD_INPUT, message)
}

pub fn usage() -> &'static str {
    "kav — k-atomicity verification toolbox\n\
     \n\
     USAGE:\n\
     \x20 kav verify --k <1|2|N> [--algo gk|lbt|fzf|genk|constrained] [--witness]\n\
     \x20        [--model k-atomic|regular|safe|causal] [--gap-budget <nodes|unbounded>]\n\
     \x20        <history.json>\n\
     \x20        (genk: any k, bound-sandwich + budgeted constrained escalation;\n\
     \x20         non-default --model picks its own verifier — no --algo/--k;\n\
     \x20         see docs/OPERATIONS.md, \"Choosing a consistency model\")\n\
     \x20 kav smallest-k [--gap-budget <nodes|unbounded>] <history.json>\n\
     \x20 kav stats <history.json>\n\
     \x20 kav diagnose [--budget <nodes>] <history.json>\n\
     \x20 kav render [--width <cols>] <history.json>\n\
     \x20 kav repair <dirty.json> --out <clean.json>\n\
     \x20 kav gen --workload <staircase|serial|ladder|random|figure3|stream|deep-stale\n\
     \x20                     |zone-conflict|safe-only|causal-violation|causal-cycle\n\
     \x20                     |causal-stream|causal-clean>\n\
     \x20        [--n <ops>] [--k <bound>] [--seed <s>] [--spread <w>] [--out <file>]\n\
     \x20        [--keys <K>] [--format ndjson|binary]\n\
     \x20                                 (stream/deep-stale/causal-*: --n ops per key,\n\
     \x20                                  NDJSON or binary frames; deep-stale: staleness\n\
     \x20                                  exactly --k; zone-conflict/safe-only/causal-*:\n\
     \x20                                  forced-apart consistency-model gadgets)\n\
     \x20 kav stream [--k <1|2|N>] [--algo gk|lbt|fzf|genk] [--window <ops>] [--shards <N>]\n\
     \x20        [--model k-atomic|regular|safe|causal]\n\
     \x20        [--horizon <writes>] [--batch <ops>] [--strict]\n\
     \x20        [--gap-budget <nodes|unbounded>] [--format ndjson|binary]\n\
     \x20        [--checkpoint <file>] [--checkpoint-every <ops>]\n\
     \x20        [--resume <file>] [--progress-every <records>]\n\
     \x20        <ops.ndjson | ->      (- reads stdin; stdin, files and pipes are all\n\
     \x20                               streamed in the chosen --format)\n\
     \x20        exit codes: 0 = verified, 1 = violation, 2 = unusable input\n\
     \x20        (see docs/OPERATIONS.md for the checkpoint/resume lifecycle)\n\
     \x20 kav serve --workers <N> [same verification flags as stream,\n\
     \x20        except --progress-every, which is stream-only]\n\
     \x20        [--replay-cap <frames>] [--split-hottest <records>]\n\
     \x20        [--kill-worker <idx:records>]   (fault-injection test hook)\n\
     \x20        <ops.ndjson | ->\n\
     \x20        multi-process fleet: partitions the key space over N spawned\n\
     \x20        `kav work` processes, merges their checkpoints and reports;\n\
     \x20        exit codes and checkpoint files interchange with `kav stream`\n\
     \x20        (see docs/OPERATIONS.md, \"Running a fleet\")\n\
     \x20 kav work [--algo gk|lbt|fzf|genk] [--k <N>] [--model <model>]\n\
     \x20        [--gap-budget <nodes|unbounded>]\n\
     \x20        fleet worker: speaks the coordinator protocol on stdin/stdout\n\
     \x20        (spawned by `kav serve`; not for interactive use)\n\
     \x20 kav sim [--replicas N] [--read-quorum R] [--write-quorum W] [--fanout F]\n\
     \x20        [--clients C] [--ops N] [--keys K] [--lag lo:hi] [--net lo:hi]\n\
     \x20        [--drop p] [--seed s] [--budget nodes] [--out-prefix path]\n\
     \x20 kav simulate --faults <scenario|all> [--seed s] [--out <file|prefix>]\n\
     \x20        [--manifest <file>] | --list\n\
     \x20        (adversarial fault schedules: crash-recovery, partition/heal,\n\
     \x20         quorum reconfig, clocks beyond the skew bound; emits a tagged\n\
     \x20         NDJSON stream for `kav stream` plus a ground-truth manifest)\n\
     \x20 kav reduce --sizes 3,2,2 --bins 2 --capacity 5 [--out <file>] [--decide true]\n"
}

/// Reads a raw history, dispatching on the file extension (.csv or JSON).
fn load_raw(path: &str) -> Result<RawHistory, Box<dyn Error>> {
    if path.ends_with(".csv") {
        Ok(csv::read_history(path)?)
    } else {
        Ok(json::read_history(path)?)
    }
}

fn load(args: &Args, position: usize) -> Result<History, Box<dyn Error>> {
    let path = args
        .positional(position)
        .ok_or_else(|| ArgError("missing history file argument".into()))?;
    Ok(load_raw(path)?.into_history()?)
}

/// The `(algo, k)` grid the CLI supports, spelled out for error messages.
const ALGO_RANGES: &str = "supported: --algo gk (k = 1), --algo fzf or lbt (k = 2), \
     --algo genk (any k >= 1), and for `kav verify` --algo constrained (any k >= 1, exact)";

/// The algorithm `--k` selects when `--algo` is absent.
pub(crate) fn default_algo(k: u64) -> &'static str {
    match k {
        1 => "gk",
        2 => "fzf",
        _ => "genk",
    }
}

/// `--algo` aliases: a resumed checkpoint records [`Verifier::name`],
/// which for the GK baseline (`"gk-zones"`) differs from the flag
/// spelling (`"gk"`). Both spellings mean the same verifier.
pub(crate) fn canonical_algo(algo: &str) -> &str {
    match algo {
        "gk-zones" => "gk",
        other => other,
    }
}

/// An unusable `(algo, k)` combination: a clear message naming the
/// supported range per algorithm, with the bad-input exit code — never a
/// panic, never a silent clamp to a default.
pub(crate) fn bad_algo_k(algo: &str, k: u64) -> Box<dyn Error> {
    let message = match canonical_algo(algo) {
        _ if k == 0 => format!("--k 0 is out of range: k must be at least 1; {ALGO_RANGES}"),
        "gk" => format!(
            "--k {k} is out of range for algorithm \"gk\", which decides k = 1 only; \
             {ALGO_RANGES}"
        ),
        "fzf" | "lbt" => format!(
            "--k {k} is out of range for algorithm {algo:?}, which decides k = 2 only; \
             {ALGO_RANGES}"
        ),
        // Only the streaming commands reach this arm: `kav verify`
        // dispatches constrained itself for every k >= 1.
        "constrained" => format!(
            "algorithm \"constrained\" is offline-only (`kav verify`); for streaming use \
             --algo genk, which escalates bound-gap windows to the same constrained \
             search; {ALGO_RANGES}"
        ),
        other => format!("unknown algorithm {other:?}; {ALGO_RANGES}"),
    };
    bad_input(message)
}

/// Resolves the gap-escalation budget from `--gap-budget`.
/// `"unbounded"` lifts the budget entirely (`None`); `0` is rejected with
/// exit 2 — it would mark every escalated window UNKNOWN without
/// searching, which is never what an operator wants. The removed
/// `--budget` alias is rejected by name rather than silently ignored
/// like other unknown flags.
pub(crate) fn gap_budget_flag(args: &Args, default: u64) -> CmdResult<Option<u64>> {
    if args.get("budget").is_some() {
        return Err(bad_input(
            "--budget is not a flag of this command; the search budget is --gap-budget",
        ));
    }
    let Some(value) = args.get("gap-budget") else {
        return Ok(Some(default));
    };
    if value == "unbounded" {
        return Ok(None);
    }
    let nodes: u64 = value.parse().map_err(|_| {
        ArgError(format!(
            "--gap-budget: cannot parse {value:?} (expected a node count or \"unbounded\")"
        ))
    })?;
    if nodes == 0 {
        return Err(bad_input(format!(
            "--gap-budget 0 would mark every bound-gap window UNKNOWN without \
             searching; pass a positive node budget (default {DEFAULT_GAP_BUDGET}) \
             or \"unbounded\""
        )));
    }
    Ok(Some(nodes))
}

/// Resolves `--format`, shared by `kav gen` and `kav stream`: `ndjson`
/// (the default, one JSON record per line) or `binary` (the fixed-width
/// frame format of `kav_history::frame`). Returns whether binary was
/// requested; unknown values get the bad-input exit code.
pub(crate) fn format_flag(args: &Args) -> CmdResult<bool> {
    match args.get("format") {
        None | Some("ndjson") => Ok(false),
        Some("binary") => Ok(true),
        Some(other) => {
            Err(bad_input(format!("--format {other:?}: expected \"ndjson\" or \"binary\"")))
        }
    }
}

/// Resolves `--model`: which consistency model the command decides
/// (default: k-atomic, the paper's native model). Unknown names get the
/// bad-input exit code, never a silent fallback.
pub(crate) fn model_flag(args: &Args) -> CmdResult<ModelId> {
    args.get("model").map_or(Ok(ModelId::KAtomic), parse_model)
}

pub(crate) fn parse_model(v: &str) -> CmdResult<ModelId> {
    v.parse().map_err(|e: UnknownModel| bad_input(format!("--model: {e}")))
}

/// Non-k-atomic models pick their own verifier and have no staleness
/// parameter: a `--algo` or `--k` alongside them is a contradiction, not
/// a preference, and gets the bad-input exit code.
pub(crate) fn reject_model_flags(args: &Args, model: ModelId) -> CmdResult {
    if model.is_k_atomic() {
        return Ok(());
    }
    if let Some(algo) = args.get("algo") {
        return Err(bad_input(format!(
            "--algo {algo} applies to the k-atomic model only; \
             --model {model} selects its own verifier"
        )));
    }
    if let Some(k) = args.get("k") {
        return Err(bad_input(format!(
            "--k {k} applies to the k-atomic model only; \
             the {model} model has no staleness parameter"
        )));
    }
    Ok(())
}

/// Streams records to stdout through one buffered, allocation-free
/// writer — NDJSON by default, binary frames on request.
fn emit_records_to_stdout(records: &[ndjson::StreamRecord], binary: bool) -> CmdResult {
    let stdout = std::io::stdout().lock();
    if binary {
        let _ = frame::write_frames_to(stdout, records)?;
    } else {
        let mut writer = ndjson::StreamWriter::new(stdout);
        for record in records {
            writer.write_record(record)?;
        }
        let _ = writer.finish()?;
    }
    Ok(())
}

/// `kav verify` — decide the chosen consistency model (k-atomicity with
/// a chosen algorithm by default; `--model` swaps in the regular, safe
/// or causal verifier).
pub fn verify(args: &Args) -> CmdResult {
    let model = model_flag(args)?;
    if !model.is_k_atomic() {
        // The causal model reads `--gap-budget` as its closure budget.
        let (spec, _) = VerifierSpec::from_flags(args)?;
        let history = load(args, 1)?;
        match spec.decide(&history) {
            Verdict::Consistent => println!("YES: history satisfies the {model} model"),
            Verdict::NotKAtomic => println!("NO: history violates the {model} model"),
            Verdict::Inconclusive => println!("UNKNOWN: verification budget exhausted ({model})"),
            Verdict::KAtomic { .. } => unreachable!("model verifiers return witness-less verdicts"),
        }
        return Ok(());
    }
    let k: u64 = args.get_parsed("k", 2)?;
    let history = load(args, 1)?;
    let algo = args.get("algo").unwrap_or(default_algo(k));
    let gap_budget = gap_budget_flag(args, 10_000_000)?;
    let verdict = match (algo, gap_budget) {
        ("constrained", Some(budget)) if k >= 1 => {
            ConstrainedSearch::with_node_budget(k, budget).verify(&history)
        }
        ("constrained", None) if k >= 1 => ConstrainedSearch::new(k).verify(&history),
        _ => VerifierSpec::resolve(ModelId::KAtomic, algo, k, gap_budget)?.decide(&history),
    };
    match &verdict {
        Verdict::KAtomic { witness } => {
            check_witness(&history, witness, k)?;
            println!("YES: history is {k}-atomic ({algo}, witness checked)");
            if args.flag("witness") {
                let ids: Vec<String> =
                    witness.iter().map(|id| history.op(*id).to_string()).collect();
                println!("witness order:\n  {}", ids.join("\n  "));
            }
        }
        Verdict::Consistent => println!("YES: history is {algo}-consistent"),
        Verdict::NotKAtomic => println!("NO: history is not {k}-atomic ({algo})"),
        Verdict::Inconclusive => println!("UNKNOWN: search budget exhausted ({algo})"),
    }
    Ok(())
}

/// `kav smallest-k` — the §II-B exact staleness bound.
pub fn smallest_k_cmd(args: &Args) -> CmdResult {
    let history = load(args, 1)?;
    let budget = gap_budget_flag(args, 10_000_000)?;
    match smallest_k(&history, budget) {
        Staleness::Exact(k) => println!("smallest k = {k}"),
        Staleness::AtLeast(k) => println!("smallest k >= {k} (budget exhausted)"),
    }
    Ok(())
}

/// `kav stats` — the census of a history.
pub fn stats(args: &Args) -> CmdResult {
    let history = load(args, 1)?;
    println!("{}", HistoryStats::of(&history));
    Ok(())
}

fn emit(raw: &RawHistory, args: &Args) -> CmdResult {
    match args.get("out") {
        Some(path) if path.ends_with(".csv") => {
            csv::write_history(path, raw)?;
            println!("wrote {} operations to {path}", raw.len());
        }
        Some(path) => {
            json::write_history(path, raw)?;
            println!("wrote {} operations to {path}", raw.len());
        }
        None => println!("{}", json::to_json_string(raw)),
    }
    Ok(())
}

/// `kav render` — ASCII timeline of a history.
pub fn render(args: &Args) -> CmdResult {
    let history = load(args, 1)?;
    let width: usize = args.get_parsed("width", 100)?;
    print!("{}", render_timeline(&history, width));
    Ok(())
}

/// `kav diagnose` — why is this history inconsistent?
pub fn diagnose_cmd(args: &Args) -> CmdResult {
    let history = load(args, 1)?;
    let budget: u64 = args.get_parsed("budget", 2_000_000u64)?;
    println!("{}", diagnose(&history, Some(budget)));
    Ok(())
}

/// `kav repair` — salvage a dirty capture into a verifiable history.
pub fn repair_cmd(args: &Args) -> CmdResult {
    let path = args
        .positional(1)
        .ok_or_else(|| ArgError("repair requires a history file".into()))?;
    let raw = load_raw(path)?;
    let (history, log) = repair(raw)?;
    println!("{log}");
    println!("{} operations survive", history.len());
    if args.get("out").is_some() {
        emit(&history.to_raw(), args)?;
    }
    Ok(())
}

/// `kav gen` — synthetic workloads.
pub fn gen(args: &Args) -> CmdResult {
    let workload = args
        .get("workload")
        .ok_or_else(|| ArgError("gen requires --workload".into()))?;
    let n: usize = args.get_parsed("n", 100)?;
    let k: u64 = args.get_parsed("k", 2)?;
    let seed: u64 = args.get_parsed("seed", 0)?;
    let spread: u64 = args.get_parsed("spread", 3)?;
    let stream_workloads = ["stream", "deep-stale", "causal-stream", "causal-clean"];
    if stream_workloads.contains(&workload) {
        let keys = args.get_parsed::<u64>("keys", 4)?.max(1);
        let records = match workload {
            "stream" => workloads::streaming_workload(workloads::StreamingWorkloadConfig {
                keys,
                ops_per_key: n.max(1),
                k,
                spread,
                seed,
                ..Default::default()
            }),
            "deep-stale" => {
                if k == 0 {
                    return Err(ArgError("deep-stale requires --k >= 1".into()).into());
                }
                workloads::deep_stale_stream(workloads::DeepStaleConfig {
                    keys,
                    ops_per_key: n.max(1),
                    k,
                    spread,
                    seed,
                    ..Default::default()
                })
            }
            // Session-tagged gadget streams: --n counts operations per
            // key, rounded up to whole 4-operation gadgets.
            "causal-stream" => workloads::causal_violation_stream(
                workloads::CausalStreamConfig {
                    keys,
                    gadgets_per_key: n.max(1).div_ceil(4),
                    seed,
                },
            ),
            "causal-clean" => workloads::causal_clean_stream(workloads::CausalStreamConfig {
                keys,
                gadgets_per_key: n.max(1).div_ceil(4),
                seed,
            }),
            _ => unreachable!("gated by stream_workloads"),
        };
        match (args.get("out"), format_flag(args)?) {
            (Some(path), true) => {
                frame::write_frames(path, &records)?;
                println!("wrote {} stream records to {path} (binary frames)", records.len());
            }
            (Some(path), false) => {
                ndjson::write_stream(path, &records)?;
                println!("wrote {} stream records to {path}", records.len());
            }
            (None, binary) => emit_records_to_stdout(&records, binary)?,
        }
        return Ok(());
    }
    if format_flag(args)? {
        return Err(bad_input(format!(
            "--format binary applies to the stream workloads only \
             (--workload {workload} emits a history file, not a record stream)"
        )));
    }
    let history = match workload {
        "staircase" => workloads::staircase(n.max(1) / 2),
        "serial" => workloads::serial(n),
        "ladder" => workloads::ladder(k),
        "figure3" => workloads::figure3(),
        "random" => workloads::random_k_atomic(workloads::RandomHistoryConfig {
            ops: n,
            k,
            spread,
            seed,
            ..Default::default()
        }),
        // Forced-apart model gadgets: fixed geometries that separate the
        // consistency models (see docs/OPERATIONS.md).
        "zone-conflict" => workloads::zone_conflict(),
        "safe-only" => workloads::safe_not_regular(),
        "causal-violation" => workloads::causal_violation(),
        "causal-cycle" => workloads::causal_cycle(),
        other => return Err(ArgError(format!("unknown workload {other:?}")).into()),
    };
    emit(&history.to_raw(), args)
}

/// `kav sim` — run the quorum-store simulator and verify each key.
pub fn sim(args: &Args) -> CmdResult {
    let (net_lo, net_hi) = args.get_range("net", (50, 500))?;
    let (lag_lo, lag_hi) = args.get_range("lag", (0, 0))?;
    let config = SimConfig {
        replicas: args.get_parsed("replicas", 3)?,
        read_quorum: args.get_parsed("read-quorum", 2)?,
        write_quorum: args.get_parsed("write-quorum", 2)?,
        write_fanout: args.get("fanout").map(|v| v.parse()).transpose().map_err(|_| {
            ArgError("--fanout: expected an integer".into())
        })?,
        clients: args.get_parsed("clients", 4)?,
        ops_per_client: args.get_parsed("ops", 50)?,
        keys: args.get_parsed("keys", 1)?,
        read_fraction: args.get_parsed("read-fraction", 0.5)?,
        network: LatencyModel::Uniform { lo: net_lo, hi: net_hi },
        apply_lag: if (lag_lo, lag_hi) == (0, 0) {
            LatencyModel::Fixed(0)
        } else {
            LatencyModel::Uniform { lo: lag_lo, hi: lag_hi }
        },
        drop_probability: args.get_parsed("drop", 0.0)?,
        seed: args.get_parsed("seed", 0)?,
        ..SimConfig::default()
    };
    let budget: u64 = args.get_parsed("budget", 2_000_000u64)?;
    let output = Simulation::new(config)?.run();
    println!(
        "simulated {} reads / {} writes (mean latency {:.0} / {:.0} us)",
        output.stats.reads,
        output.stats.writes,
        output.stats.mean_read_latency(),
        output.stats.mean_write_latency(),
    );
    let prefix = args.get("out-prefix").map(str::to_owned);
    println!("key | ops | c | smallest k");
    for (key, raw) in &output.histories {
        if let Some(prefix) = &prefix {
            json::write_history(format!("{prefix}-key{key}.json"), raw)?;
        }
        let history = raw.clone().into_history()?;
        let k = smallest_k(&history, Some(budget));
        println!(
            "{key:>3} | {:>4} | {} | {k}",
            history.len(),
            history.max_concurrent_writes()
        );
    }
    Ok(())
}

/// Runs one scenario and writes its stream and ground-truth manifest —
/// to files when `out` is given, else stream to stdout and manifest to
/// stderr.
fn emit_scenario(
    scenario: &Scenario,
    out: Option<&str>,
    manifest_path: Option<&str>,
) -> Result<Manifest, Box<dyn Error>> {
    let run = scenario.run()?;
    match out {
        Some(path) => {
            ndjson::write_stream(path, &run.records)?;
            let manifest_path =
                manifest_path.map(str::to_owned).unwrap_or_else(|| format!("{path}.manifest.json"));
            std::fs::write(
                &manifest_path,
                serde_json::to_string(&run.manifest).expect("manifests serialize") + "\n",
            )?;
            println!(
                "{}: {} records ({} reads / {} writes, {} timeouts, {} lost write copies, \
                 {} reconfigs) -> {path}; manifest ({}, k_bound {}) -> {manifest_path}",
                scenario.name,
                run.records.len(),
                run.manifest.reads,
                run.manifest.writes,
                run.manifest.timeouts,
                run.manifest.lost_writes,
                run.manifest.reconfigs,
                run.manifest.expected.name(),
                run.manifest.k_bound,
            );
        }
        None => {
            // Keep stdout pure NDJSON (pipeable straight into `kav
            // stream -`); the ground truth goes to stderr as one JSON line.
            eprintln!("{}", serde_json::to_string(&run.manifest).expect("manifests serialize"));
            emit_records_to_stdout(&run.records, false)?;
        }
    }
    Ok(run.manifest)
}

/// `kav simulate` — record adversarial fault-schedule scenarios as tagged
/// NDJSON streams plus ground-truth manifests.
///
/// Scenarios come from the `kav_sim` adversarial matrix: crash-recovery
/// with write loss, partition/heal cycles, mid-run quorum reconfiguration
/// and clocks beyond the declared skew bound (plus a clean control). The
/// manifest records the seed, the full schedule and the expected-verdict
/// class, so downstream audits can be judged against ground truth.
pub fn simulate(args: &Args) -> CmdResult {
    if args.flag("list") {
        println!("scenario | expected | k_bound | faults");
        for s in scenario_matrix(0) {
            println!(
                "{:<17} | {:<14} | {:>7} | {}",
                s.name,
                s.expected.name(),
                s.k_bound,
                s.faults.faults.len(),
            );
        }
        return Ok(());
    }
    let name = args.get("faults").ok_or_else(|| {
        ArgError("simulate requires --faults <scenario|all> (use --list to see them)".into())
    })?;
    let seed: u64 = args.get_parsed("seed", 0)?;
    if name == "all" {
        let prefix = args.get("out").ok_or_else(|| {
            ArgError("--faults all requires --out <prefix> (one stream per scenario)".into())
        })?;
        for scenario in scenario_matrix(seed) {
            let stream = format!("{prefix}-{}.ndjson", scenario.name);
            emit_scenario(&scenario, Some(&stream), None)?;
        }
        return Ok(());
    }
    let Some(scenario) = kav_sim::scenario(name, seed) else {
        let known: Vec<String> = scenario_matrix(0).into_iter().map(|s| s.name).collect();
        let known = known.join(", ");
        let message = format!("unknown fault scenario {name:?}; known: {known}, or \"all\"");
        return Err(bad_input(message));
    };
    emit_scenario(&scenario, args.get("out"), args.get("manifest"))?;
    Ok(())
}

/// `kav reduce` — the Figure-5 bin-packing reduction.
pub fn reduce(args: &Args) -> CmdResult {
    let sizes: Vec<u64> = args
        .get("sizes")
        .ok_or_else(|| ArgError("reduce requires --sizes a,b,c".into()))?
        .split(',')
        .map(|s| s.trim().parse::<u64>())
        .collect::<Result<_, _>>()
        .map_err(|_| ArgError("--sizes: expected comma-separated integers".into()))?;
    let bins: usize = args.get_parsed("bins", 2)?;
    let capacity: u64 = args.get_parsed("capacity", 10)?;
    let bp = BinPacking::new(sizes, bins, capacity)?;
    let instance = reduce_bin_packing(&bp);
    println!(
        "reduced {} items / {} bins / capacity {} -> {} ops, k = {}",
        bp.sizes().len(),
        bp.bins(),
        bp.capacity(),
        instance.history.len(),
        instance.k
    );
    if args.get_parsed("decide", true)? {
        let budget: u64 = args.get_parsed("budget", 10_000_000u64)?;
        let verdict = instance.decide(Some(budget));
        let exact = bp.solve_exact().is_some();
        println!("k-WAV verdict: {verdict}; exact bin packing: {}", if exact { "YES" } else { "NO" });
    }
    if args.get("out").is_some() {
        emit(&instance.history.to_raw(), args)?;
    }
    Ok(())
}
