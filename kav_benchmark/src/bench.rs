//! One benchmark run of one workload: set-up, the end-to-end loop against
//! the real `kav` binary with every output checked, its metrics, and with
//! tracing on the per-layer pass.

use crate::drive::{self, Run, TICK};
use crate::layers::{self, Metric};
use crate::report::{parse_report, KeyRow, Verdict};
use crate::stats::{mean, median};
use crate::workloads::{Format, Workload, LIVE_RATE, SEAL_CYCLE};
use kav_history::ndjson::StreamRecord;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Timed batch runs at least: the fastest is the best of ten or more.
const MIN_BATCH_RUNS: usize = 10;
/// Problems quoted in a failing run's report.
const MAX_PROBLEMS: usize = 8;

pub struct Settings {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub kav: PathBuf,
    /// Working directory for inputs, `kav` output and checkpoints.
    pub work: PathBuf,
}

/// The result of one run.
pub struct Outcome {
    pub correct: bool,
    /// Key verdicts checked, plus progress records expected.
    pub attempted: u64,
    /// Keys left undecided (UNKNOWN) or progress records missing.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Why the run is not correct.
    pub problems: Vec<String>,
    /// Wall time of every timed `kav` run, in seconds.
    pub walls: Vec<f64>,
    /// Every latency sample, in milliseconds: one per batch run, one per
    /// progress record of a live run.
    pub latencies: Vec<f64>,
    /// Live runs: the largest lag of each seal cycle of each run, in ms.
    pub cycle_worst: Vec<f64>,
    /// The traced pass's spans.
    pub spans: Vec<serde::Value>,
}

/// Checks every `kav` run of a workload against the ground truth and
/// against the first run.
struct Checks {
    workload: Workload,
    /// Ground truth: records per key.
    ops: BTreeMap<u64, u64>,
    records: u64,
    table: Option<Vec<KeyRow>>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Checks {
    fn problem(&mut self, problem: String) {
        if self.problems.len() < MAX_PROBLEMS {
            self.problems.push(problem);
        }
    }

    fn check(&mut self, run: &Run, checkpoint: &Path) {
        let workload = self.workload;
        if run.exit != Some(workload.expected_exit()) {
            self.problem(format!(
                "kav exited with {:?}, expected {}; stderr: {}",
                run.exit,
                workload.expected_exit(),
                run.stderr.trim()
            ));
        }
        let report = match parse_report(&run.stdout) {
            Ok(report) => report,
            Err(e) => return self.problem(e),
        };
        let keys: Vec<u64> = report.rows.iter().map(|row| row.key).collect();
        if keys.iter().ne(self.ops.keys()) {
            self.problem(format!(
                "kav reported keys {keys:?}, the input has {:?}",
                self.ops.keys()
            ));
        }
        let mut undecided = 0;
        for row in &report.rows {
            self.attempted += 1;
            if self.ops.get(&row.key) != Some(&row.ops) {
                self.problem(format!("key {}: kav counted {} ops", row.key, row.ops));
            }
            match (row.verdict, workload.expected(row.key)) {
                (got, want) if got == want => {}
                (Verdict::Unknown, _) => undecided += 1,
                (got, want) => {
                    self.problem(format!("key {}: kav said {got}, truth is {want}", row.key))
                }
            }
        }
        self.failed += undecided;
        if workload == Workload::FleetCkpt {
            if undecided == 0 && !report.fleet_certified {
                self.problem("kav serve did not certify the fleet".into());
            }
            self.check_checkpoint_version(checkpoint);
        }
        match &self.table {
            None => self.table = Some(report.rows),
            Some(first) if *first != report.rows => {
                self.problem("the per-key table differs between runs".into())
            }
            Some(_) => {}
        }
    }

    /// Every run: the checkpoint file's header names the expected version.
    /// Parsing the whole file takes about half a run, so that is done once,
    /// on the last run's file ([`Checks::check_checkpoint`]).
    fn check_checkpoint_version(&mut self, path: &Path) {
        let (version, _) = Workload::expected_checkpoint(self.records);
        let header = format!(
            "{{\"format\":{},\"version\":{version},",
            kav_core::CHECKPOINT_FORMAT
        );
        let mut head = vec![0; header.len()];
        let read = std::fs::File::open(path)
            .and_then(|mut f| std::io::Read::read_exact(&mut f, &mut head));
        if read.is_err() || head != header.as_bytes() {
            self.problem(format!(
                "checkpoint {} does not start with {header}",
                path.display()
            ));
        }
    }

    fn check_checkpoint(&mut self, path: &Path) {
        let want = Workload::expected_checkpoint(self.records);
        match kav_core::read_checkpoint(path) {
            Ok(ck) if (ck.version, ck.pipeline.ops_routed) == want => {}
            Ok(ck) => self.problem(format!(
                "checkpoint at (version, ops_routed) = {:?}, expected {want:?}",
                (ck.version, ck.pipeline.ops_routed)
            )),
            Err(e) => self.problem(format!("checkpoint {}: {e}", path.display())),
        }
    }

    /// The traced pass's per-key counts must match what `kav` printed
    /// and the ground truth.
    fn check_trace(&mut self, keys: &BTreeMap<u64, layers::KeyCounts>) {
        let Some(table) = self.table.clone() else {
            return;
        };
        // live-stdin's pass covers a prefix, so only full-input passes must
        // agree with kav's segment counts.
        let full = keys.values().map(|c| c.ops).sum::<u64>() == self.records;
        for row in table.iter().filter(|row| keys.contains_key(&row.key)) {
            let counts = &keys[&row.key];
            let verdict = if counts.violations > 0 {
                Verdict::No
            } else if counts.inconclusive > 0 {
                Verdict::Unknown
            } else {
                Verdict::Yes
            };
            if full && (counts.segments, verdict) != (row.segments, row.verdict) {
                self.problem(format!(
                    "key {}: the traced pass found {} segments ({verdict}), kav {} ({})",
                    row.key, counts.segments, row.segments, row.verdict
                ));
            }
            if verdict != Verdict::Unknown && verdict != self.workload.expected(row.key) {
                self.problem(format!("key {}: the traced pass said {verdict}", row.key));
            }
        }
    }
}

/// Byte offset just past each line of an NDJSON input.
fn line_ends(bytes: &[u8]) -> Vec<usize> {
    bytes
        .iter()
        .enumerate()
        .filter(|(_, b)| **b == b'\n')
        .map(|(i, _)| i + 1)
        .collect()
}

/// The largest lag of each seal cycle of one live run, from its
/// `(lines, lag)` samples. Cycle `c` holds records
/// `c * cycle + 1 ..= (c + 1) * cycle`.
fn cycle_worst(samples: &[(u64, f64)], cycle: u64) -> Vec<f64> {
    let mut worst: BTreeMap<u64, f64> = BTreeMap::new();
    for &(lines, lag) in samples {
        let slot = worst.entry(lines.saturating_sub(1) / cycle).or_insert(lag);
        *slot = slot.max(lag);
    }
    worst.into_values().collect()
}

pub fn remove_if_present(path: &Path) -> Result<(), String> {
    match std::fs::remove_file(path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("removing {}: {e}", path.display()))
        }
        _ => Ok(()),
    }
}

pub fn run(workload: Workload, settings: &Settings) -> Result<Outcome, String> {
    let work = settings.work.join(workload.name());
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let input = work.join(match workload.format() {
        Format::Ndjson => "input.ndjson",
        Format::Binary => "input.bin",
    });
    let checkpoint = work.join("fleet.ckpt");

    let mut setup = Vec::with_capacity(SETUPS);
    let mut records: Vec<StreamRecord> = Vec::new();
    for _ in 0..SETUPS {
        drop(std::mem::take(&mut records)); // free the previous set-up's input first
        let start = Instant::now();
        records = workload.records(settings.seed);
        workload.write(&input, &records)?;
        setup.push(start.elapsed().as_secs_f64());
    }
    // Flush the input to disk before timing anything: writeback of the
    // set-ups' dirty pages would otherwise compete with the timed runs.
    std::fs::File::open(&input)
        .and_then(|file| file.sync_all())
        .map_err(|e| format!("syncing {}: {e}", input.display()))?;
    let mut ops = BTreeMap::new();
    for record in &records {
        *ops.entry(record.key).or_insert(0) += 1;
    }
    let mut checks = Checks {
        workload,
        ops,
        records: records.len() as u64,
        table: None,
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
    };
    let bytes = std::fs::read(&input).map_err(|e| format!("reading {}: {e}", input.display()))?;
    let args = workload.kav_args(&input, &checkpoint);
    let records_per_run = records.len() as f64;

    let mut walls = Vec::new();
    let mut peaks = Vec::new();
    let mut latencies = Vec::new(); // ms
    let mut worst_lags = Vec::new(); // ms, one per seal cycle of a live run
    let mut lateness = Vec::new(); // load generator lateness, ms
    let deadline = Duration::from_secs(settings.seconds);
    let live = workload == Workload::LiveStdin;
    let min_runs = if live { 1 } else { MIN_BATCH_RUNS };
    let ends = if live { line_ends(&bytes) } else { Vec::new() };
    let expected_progress = records.len() as u64 / crate::workloads::PROGRESS_EVERY;
    let mut start = None;
    let mut previous_end: Option<Instant> = None;
    // One untimed warm-up run, then runs until the deadline.
    for measured in std::iter::once(false).chain(std::iter::repeat(true)) {
        if measured
            && walls.len() >= min_runs
            && start.is_some_and(|s: Instant| s.elapsed() >= deadline)
        {
            break;
        }
        if measured && start.is_none() {
            start = Some(Instant::now());
        }
        remove_if_present(&checkpoint)?;
        let began = Instant::now();
        if let (true, Some(end)) = (measured && !live, previous_end) {
            // A closed loop's lateness: its own gap between two runs.
            lateness.push((began - end).as_secs_f64() * 1e3);
        }
        let (run, lags) = if live {
            let live = drive::live(&settings.kav, &args, &work, &bytes, &ends, LIVE_RATE)
                .map_err(|e| format!("running kav: {e}"))?;
            let missing = expected_progress.saturating_sub(live.progress.len() as u64);
            checks.attempted += expected_progress;
            checks.failed += missing;
            if missing > 0 {
                checks.problem(format!("{missing} progress records never arrived"));
            }
            let lags: Vec<(u64, f64)> = live
                .progress
                .iter()
                .map(|(n, at)| (*n, drive::lag(*n, *at, LIVE_RATE).as_secs_f64() * 1e3))
                .collect();
            if measured {
                lateness.extend(live.tick_lateness.iter().map(|d| d.as_secs_f64() * 1e3));
                worst_lags.extend(cycle_worst(&lags, SEAL_CYCLE));
            }
            (live.run, lags.into_iter().map(|(_, lag)| lag).collect())
        } else {
            let run = drive::batch(&settings.kav, &args, &work)
                .map_err(|e| format!("running kav: {e}"))?;
            let lags = vec![run.wall.as_secs_f64() * 1e3];
            (run, lags)
        };
        previous_end = Some(began + run.wall);
        checks.check(&run, &checkpoint);
        if measured {
            walls.push(run.wall.as_secs_f64());
            peaks.push(run.peak_rss_kb as f64);
            latencies.extend(lags);
        }
    }
    if workload == Workload::FleetCkpt {
        checks.check_checkpoint(&checkpoint);
    }
    remove_if_present(&checkpoint)?;

    // Co-tenants of the reference machine slow whole stretches of runs by
    // up to 40%, and interference only ever adds time, so the fastest of
    // many runs tracks the code best.
    let fastest = walls.iter().copied().fold(f64::INFINITY, f64::min);
    let (p50, latency_tail) = if live {
        // The tail is each seal burst's stall, averaged over every cycle
        // of every run: the 99th percentile of the pooled lags rests on
        // the few worst bursts, and spread wider from run to run.
        (median(&latencies), mean(&worst_lags))
    } else {
        // Every record of a batch audit waits for the whole run: a run has
        // one latency, its wall time, and the fastest run's is reported.
        (Some(fastest * 1e3), Some(fastest * 1e3))
    };
    if latency_tail.is_none() {
        checks.problem("no progress record arrived, so there is no lag".into());
    }
    let mut metrics: Vec<Metric> = vec![
        ("setup_s", median(&setup).unwrap_or(0.0), "s"),
        ("ops_s", records_per_run / fastest, "records/s"),
        ("latency_ms_p50", p50.unwrap_or(0.0), "ms"),
        ("latency_ms_tail", latency_tail.unwrap_or(0.0), "ms"),
        ("peak_rss_mb", median(&peaks).unwrap_or(0.0) / 1024.0, "MB"),
    ];

    let mut spans = Vec::new();
    if settings.trace {
        let traced = layers::run(workload, &bytes, &records, &work)?;
        checks.check_trace(&traced.keys);
        metrics = traced.metrics;
        let late_limit = TICK.as_secs_f64() * 1e3;
        let late_ticks = lateness.iter().filter(|ms| **ms > late_limit).count() as f64;
        metrics.push((
            "loadgen.late_ms_max",
            lateness.iter().copied().fold(0.0, f64::max),
            "ms",
        ));
        metrics.push((
            "loadgen.late_tick_share",
            late_ticks / lateness.len().max(1) as f64,
            "ratio",
        ));
        spans = traced.spans;
    }
    remove_if_present(&input)?;

    for (name, value, _) in &metrics {
        if !value.is_finite() {
            checks.problem(format!("metric {name} is not a finite number"));
        }
    }
    Ok(Outcome {
        correct: checks.problems.is_empty(),
        attempted: checks.attempted,
        failed: checks.failed,
        metrics,
        problems: checks.problems,
        walls,
        latencies,
        cycle_worst: worst_lags,
        spans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_worst_keeps_the_largest_lag_of_each_cycle() {
        // Cycles of 4 records; progress every 2 records.
        let samples = [(2, 1.0), (4, 7.0), (6, 3.0), (8, 2.0), (10, 5.0)];
        assert_eq!(cycle_worst(&samples, 4), vec![7.0, 3.0, 5.0]);
        assert!(cycle_worst(&[], 4).is_empty());
    }
}
