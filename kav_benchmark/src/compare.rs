//! `compare` and `summary`: reading the JSON-lines records `--out` appends
//! and judging a change against its parent.
//!
//! A change *improves* a metric on a workload only when it wins at least
//! nine in ten pairs of ten or more (ties count for neither side) and the
//! medians differ by more than the parent's interquartile range. It is
//! *worse* when its median is worse than the parent's by more than the
//! metric's bound in BENCHMARK.json (per-layer metrics have no bound: there
//! the improvement rule applies in reverse). A metric whose parent spread
//! exceeds its bound, or with fewer than ten pairs, is *unresolved*;
//! anything else is *unchanged*.

use crate::stats::{median, quartiles};
use serde::Value;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Pairs needed before a metric can be judged improved.
const MIN_PAIRS: usize = 10;

/// A metric as BENCHMARK.json declares it.
struct Spec {
    higher_is_better: bool,
    /// End-to-end metrics only.
    bound: Option<f64>,
    end_to_end: bool,
}

/// Values per `(workload, metric)`, in file and line order.
type Samples = BTreeMap<(String, String), Vec<f64>>;

fn read_records(paths: &[String]) -> Result<Samples, String> {
    let mut samples = Samples::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        for (i, line) in text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
        {
            let record: Value =
                serde_json::from_str(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
            let bad = || format!("{path}:{}: not a kav_benchmark --out record", i + 1);
            let Some(Value::Str(workload)) = record.get("workload") else {
                return Err(bad());
            };
            let metrics = record
                .get("result")
                .and_then(|r| r.get("metrics"))
                .and_then(Value::as_object);
            for (name, entry) in metrics.ok_or_else(bad)? {
                let value = match entry.get("value") {
                    Some(Value::Float(v)) => *v,
                    Some(Value::UInt(v)) => *v as f64,
                    Some(Value::Int(v)) => *v as f64,
                    _ => return Err(bad()),
                };
                samples
                    .entry((workload.clone(), name.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(samples)
}

fn read_specs(path: &str) -> Result<BTreeMap<String, Spec>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut specs = BTreeMap::new();
    for (section, end_to_end) in [("end_to_end", true), ("per_layer", false)] {
        let Some(Value::Array(entries)) = doc.get(section) else {
            return Err(format!("{path}: no {section} list"));
        };
        for entry in entries {
            let (Some(Value::Str(name)), Some(Value::Str(better))) =
                (entry.get("name"), entry.get("better"))
            else {
                return Err(format!("{path}: a {section} entry lacks name or better"));
            };
            let bound = match entry.get("bound") {
                Some(Value::Float(b)) => Some(*b),
                Some(Value::UInt(b)) => Some(*b as f64),
                _ => None,
            };
            specs.insert(
                name.clone(),
                Spec {
                    higher_is_better: better == "higher",
                    bound,
                    end_to_end,
                },
            );
        }
    }
    Ok(specs)
}

/// The judgement of one metric on one workload.
#[derive(Debug, PartialEq, Eq)]
enum Verdict {
    Improved,
    Unchanged,
    Worse,
    Unresolved,
}

fn judge(parent: &[f64], change: &[f64], spec: &Spec) -> Verdict {
    let better = |a: f64, b: f64| if spec.higher_is_better { a > b } else { a < b };
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| better(**c, **p))
        .count();
    let losses = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| better(**p, **c))
        .count();
    let (Some(p_med), Some(c_med)) = (median(parent), median(change)) else {
        return Verdict::Unresolved;
    };
    let iqr = quartiles(parent).map_or(f64::INFINITY, |(q1, q3)| q3 - q1);
    let decisive =
        |count: usize| pairs >= MIN_PAIRS && count * 10 >= pairs * 9 && (c_med - p_med).abs() > iqr;
    let worse = match spec.bound {
        Some(bound) if spec.higher_is_better => c_med < p_med * (1.0 - bound),
        Some(bound) => c_med > p_med * (1.0 + bound),
        None => decisive(losses),
    };
    let all_better = parent.iter().all(|p| change.iter().all(|c| better(*c, *p)));
    let too_noisy = spec.bound.is_some_and(|bound| iqr > bound * p_med.abs()) && !all_better;
    if worse {
        Verdict::Worse
    } else if decisive(wins) && better(c_med, p_med) {
        Verdict::Improved
    } else if too_noisy || pairs < MIN_PAIRS {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

/// `compare [--benchmark FILE] PARENT... -- CHANGE...`
pub fn compare(args: &[String]) -> Result<ExitCode, String> {
    let (benchmark, args) = match args {
        [flag, path, rest @ ..] if flag == "--benchmark" => (path.as_str(), rest),
        _ => ("BENCHMARK.json", args),
    };
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("compare needs PARENT... -- CHANGE...")?;
    let specs = read_specs(benchmark)?;
    let parent = read_records(&args[..split])?;
    let change = read_records(&args[split + 1..])?;
    println!(
        "{:<14} {:<26} {:>5} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "pairs", "parent p50", "change p50", "delta"
    );
    let mut regressed = false;
    for ((workload, metric), p) in &parent {
        let (Some(c), Some(spec)) = (
            change.get(&(workload.clone(), metric.clone())),
            specs.get(metric),
        ) else {
            continue;
        };
        let verdict = judge(p, c, spec);
        regressed |= spec.end_to_end && verdict == Verdict::Worse;
        let (p_med, c_med) = (median(p).unwrap_or(0.0), median(c).unwrap_or(0.0));
        let delta = if p_med == 0.0 {
            0.0
        } else {
            100.0 * (c_med - p_med) / p_med
        };
        println!(
            "{workload:<14} {metric:<26} {:>5} {p_med:>14.4} {c_med:>14.4} {delta:>+7.2}%  {}",
            p.len().min(c.len()),
            format!("{verdict:?}").to_lowercase()
        );
    }
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// `summary RUNS...`: per workload and metric, the spread of the runs —
/// the form the ledger under `baseline/` is kept in.
pub fn summary(args: &[String]) -> Result<ExitCode, String> {
    let samples = read_records(args)?;
    let mut workloads: BTreeMap<String, Vec<(String, Value)>> = BTreeMap::new();
    for ((workload, metric), values) in samples {
        let med = median(&values).unwrap_or(0.0);
        let (q1, q3) = quartiles(&values).unwrap_or((med, med));
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let share = |x: f64| if med == 0.0 { 0.0 } else { x / med.abs() };
        let row = Value::Object(vec![
            ("n".into(), Value::UInt(values.len() as u64)),
            ("min".into(), Value::Float(min)),
            ("median".into(), Value::Float(med)),
            ("max".into(), Value::Float(max)),
            ("iqr".into(), Value::Float(q3 - q1)),
            ("iqr_share".into(), Value::Float(share(q3 - q1))),
            ("range_share".into(), Value::Float(share(max - min))),
        ]);
        workloads.entry(workload).or_default().push((metric, row));
    }
    let doc = Value::Object(
        workloads
            .into_iter()
            .map(|(w, rows)| (w, Value::Object(rows)))
            .collect(),
    );
    println!(
        "{}",
        serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?
    );
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Spec = Spec {
        higher_is_better: false,
        bound: Some(0.1),
        end_to_end: true,
    };

    #[test]
    fn a_clear_win_on_ten_pairs_is_an_improvement() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 3)).collect();
        let change: Vec<f64> = (0..10).map(|i| 90.0 + f64::from(i % 3)).collect();
        assert_eq!(judge(&parent, &change, &LOWER), Verdict::Improved);
        assert_eq!(
            judge(&parent[..9], &change[..9], &LOWER),
            Verdict::Unresolved
        );
    }

    #[test]
    fn a_median_past_the_bound_is_worse_and_noise_is_unresolved() {
        let parent = vec![100.0; 10];
        assert_eq!(judge(&parent, &[111.0; 10], &LOWER), Verdict::Worse);
        assert_eq!(judge(&parent, &[105.0; 10], &LOWER), Verdict::Unchanged);
        let noisy: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 70.0 } else { 130.0 })
            .collect();
        assert_eq!(judge(&noisy, &noisy, &LOWER), Verdict::Unresolved);
    }
}
