//! `kav_benchmark` — the repository's fixed-seed benchmark of the `kav`
//! audit binary. See README.md in this directory for the workloads, the
//! metrics and how to run, trace and compare.
//!
//! ```text
//! kav_benchmark [--workload <name>|all] [--seed N] [--seconds S] [--trace 0|1]
//!               [--kav PATH] [--work-dir DIR] [--out FILE] [--spans FILE]
//! kav_benchmark compare [--benchmark BENCHMARK.json] PARENT... -- CHANGE...
//! kav_benchmark summary RUNS...
//! ```

mod bench;
mod compare;
mod drive;
mod layers;
mod report;
mod stats;
mod trace;
mod workloads;

use serde::Value;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Workload;

const USAGE: &str = "usage: kav_benchmark [--workload <name>|all] [--seed N] [--seconds S] \
    [--trace 0|1] [--kav PATH] [--work-dir DIR] [--out FILE] [--spans FILE]\n\
    \x20      kav_benchmark compare [--benchmark BENCHMARK.json] PARENT... -- CHANGE...\n\
    \x20      kav_benchmark summary RUNS...";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare::compare(&args[1..]),
        Some("summary") => compare::summary(&args[1..]),
        _ => run(&args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("kav_benchmark: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}

/// The value following `flag`, if present.
fn flag<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .map(|v| Some(v.as_str()))
            .ok_or(format!("{flag} needs a value")),
    }
}

fn number(args: &[String], name: &str, default: u64) -> Result<u64, String> {
    flag(args, name)?.map_or(Ok(default), |v| {
        v.parse()
            .map_err(|_| format!("{name}: {v:?} is not a number"))
    })
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    const FLAGS: [&str; 8] = [
        "--workload",
        "--seed",
        "--seconds",
        "--trace",
        "--kav",
        "--work-dir",
        "--out",
        "--spans",
    ];
    for pair in args.chunks(2) {
        if !FLAGS.contains(&pair[0].as_str()) {
            return Err(format!("unknown argument {:?}", pair[0]));
        }
    }
    let selected = match flag(args, "--workload")?.unwrap_or("all") {
        "all" => Workload::ALL.to_vec(),
        name => vec![Workload::from_name(name).ok_or(format!("unknown workload {name:?}"))?],
    };
    let trace = match number(args, "--trace", 0)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace {other}: expected 0 or 1")),
    };
    let kav = match flag(args, "--kav")? {
        Some(path) => PathBuf::from(path),
        None => std::env::current_exe()
            .map_err(|e| e.to_string())?
            .with_file_name("kav"),
    };
    if !kav.is_file() {
        return Err(format!(
            "no kav binary at {} (build it, or pass --kav)",
            kav.display()
        ));
    }
    let settings = bench::Settings {
        seed: number(args, "--seed", 42)?,
        seconds: number(args, "--seconds", 10)?,
        trace,
        kav,
        work: PathBuf::from(flag(args, "--work-dir")?.unwrap_or(".bench_work")),
    };

    let mut all_correct = true;
    for workload in selected {
        let outcome = bench::run(workload, &settings)?;
        for (name, value, unit) in &outcome.metrics {
            eprintln!("{:<14} {name:<26} {value:>16.4} {unit}", workload.name());
        }
        for problem in &outcome.problems {
            eprintln!("{}: {problem}", workload.name());
        }
        if settings.trace {
            let default =
                settings
                    .work
                    .join(format!("spans-{}-{}.json", workload.name(), settings.seed));
            let path = flag(args, "--spans")?.map_or(default, PathBuf::from);
            let json = serde_json::to_string(&Value::Array(outcome.spans.clone()))
                .map_err(|e| e.to_string())?;
            std::fs::write(&path, json + "\n")
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            eprintln!("{}: spans written to {}", workload.name(), path.display());
        }
        let result = result_json(&outcome);
        if let Some(out) = flag(args, "--out")? {
            let floats = |v: &[f64]| Value::Array(v.iter().map(|x| Value::Float(*x)).collect());
            let record = Value::Object(vec![
                ("workload".into(), Value::Str(workload.name().into())),
                ("seed".into(), Value::UInt(settings.seed)),
                ("seconds".into(), Value::UInt(settings.seconds)),
                ("trace".into(), Value::UInt(u64::from(settings.trace))),
                ("result".into(), result.clone()),
                (
                    "samples".into(),
                    Value::Object(vec![
                        ("wall_s".into(), floats(&outcome.walls)),
                        ("latency_ms".into(), floats(&outcome.latencies)),
                        ("cycle_worst_ms".into(), floats(&outcome.cycle_worst)),
                    ]),
                ),
            ]);
            append_line(out, &record)?;
        }
        all_correct &= outcome.correct;
        println!(
            "{}",
            serde_json::to_string(&result).map_err(|e| e.to_string())?
        );
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The result object, printed as the last line of stdout.
fn result_json(outcome: &bench::Outcome) -> Value {
    let metrics = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            // Non-finite values cannot be written as JSON; the run is
            // already marked incorrect for them.
            let value = if value.is_finite() { *value } else { 0.0 };
            let entry = Value::Object(vec![
                ("value".into(), Value::Float(value)),
                ("unit".into(), Value::Str((*unit).into())),
            ]);
            (name.to_string(), entry)
        })
        .collect();
    Value::Object(vec![
        ("correct".into(), Value::Bool(outcome.correct)),
        ("attempted".into(), Value::UInt(outcome.attempted)),
        ("failed".into(), Value::UInt(outcome.failed)),
        ("metrics".into(), Value::Object(metrics)),
    ])
}

fn append_line(path: &str, record: &Value) -> Result<(), String> {
    let line = serde_json::to_string(record).map_err(|e| e.to_string())?;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("opening {path}: {e}"))?;
    writeln!(file, "{line}").map_err(|e| format!("writing {path}: {e}"))
}
