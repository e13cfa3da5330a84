//! Driving the real `kav` binary as a child process: one closed-loop batch
//! run, or one open-loop live run on stdin. The load generator is this
//! process with two threads: one drives the child, the other waits on it
//! (batch) or reads its stderr (live).

use crate::report::{progress_lines, rss_anon_kb};
use std::fs::{self, File};
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

/// How often the child's memory is sampled.
pub const RSS_POLL: Duration = Duration::from_millis(10);
/// The live sender's schedule tick: each tick sends every record due by
/// then. A tick that starts more than one tick late counts as late.
pub const TICK: Duration = Duration::from_millis(1);

/// One finished `kav` run.
pub struct Run {
    /// From just before spawn to the return of `wait()`.
    pub wall: Duration,
    /// `None` when a signal ended the child.
    pub exit: Option<i32>,
    pub stdout: String,
    pub stderr: String,
    /// Largest `RssAnon` of `kav` plus its `kav work` children seen by
    /// the [`RSS_POLL`] sampler, in kB.
    pub peak_rss_kb: u64,
}

/// `RssAnon` of a process, 0 once it has exited.
fn rss_kb(pid: u32) -> u64 {
    fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| rss_anon_kb(&s))
        .unwrap_or(0)
}

/// `RssAnon` summed over a process and its direct children (the workers
/// `kav serve` spawns from its main thread).
fn tree_rss_kb(pid: u32) -> u64 {
    let children =
        fs::read_to_string(format!("/proc/{pid}/task/{pid}/children")).unwrap_or_default();
    rss_kb(pid)
        + children
            .split_whitespace()
            .filter_map(|c| c.parse().ok())
            .map(rss_kb)
            .sum::<u64>()
}

fn spawn(
    kav: &Path,
    args: &[String],
    work: &Path,
    stdin: Stdio,
    stderr: Stdio,
) -> std::io::Result<Child> {
    Command::new(kav)
        .args(args)
        .stdin(stdin)
        .stdout(File::create(work.join("kav.stdout"))?)
        .stderr(stderr)
        .spawn()
}

fn finish(
    work: &Path,
    wall: Duration,
    status: ExitStatus,
    stderr: String,
    peak_rss_kb: u64,
) -> std::io::Result<Run> {
    let stdout = fs::read_to_string(work.join("kav.stdout"))?;
    Ok(Run {
        wall,
        exit: status.code(),
        stdout,
        stderr,
        peak_rss_kb,
    })
}

/// Runs `kav args` to completion on a file input.
pub fn batch(kav: &Path, args: &[String], work: &Path) -> std::io::Result<Run> {
    let stderr_path = work.join("kav.stderr");
    let stderr = File::create(&stderr_path)?;
    let start = Instant::now();
    let mut child = spawn(kav, args, work, Stdio::null(), stderr.into())?;
    let pid = child.id();
    let (tx, rx) = mpsc::channel();
    let (status, end, peak) = std::thread::scope(|scope| {
        scope.spawn(move || {
            let status = child.wait();
            // The receiver outlives this thread inside the scope.
            let _ = tx.send((status, Instant::now()));
        });
        let mut peak = 0;
        loop {
            peak = peak.max(tree_rss_kb(pid));
            match rx.recv_timeout(RSS_POLL) {
                Ok((status, end)) => break (status, end, peak),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    unreachable!("the waiter sends before exiting")
                }
            }
        }
    });
    finish(
        work,
        end - start,
        status?,
        fs::read_to_string(stderr_path)?,
        peak,
    )
}

/// One finished live run.
pub struct LiveRun {
    pub run: Run,
    /// `(lines, arrival since the schedule's start)` of every progress
    /// record `kav` printed.
    pub progress: Vec<(u64, Duration)>,
    /// How late each schedule tick woke.
    pub tick_lateness: Vec<Duration>,
}

/// Runs `kav args` reading `input` on stdin, sending line `i` at `i / rate`
/// seconds into the schedule whether or not `kav` keeps up. `line_ends[i]`
/// is the byte offset just past line `i`.
pub fn live(
    kav: &Path,
    args: &[String],
    work: &Path,
    input: &[u8],
    line_ends: &[usize],
    rate: f64,
) -> std::io::Result<LiveRun> {
    let start = Instant::now();
    let mut child = spawn(kav, args, work, Stdio::piped(), Stdio::piped())?;
    let pid = child.id();
    let mut stdin = child.stdin.take().expect("stdin is piped");
    let stderr = child.stderr.take().expect("stderr is piped");
    std::thread::scope(|scope| {
        let reader = scope.spawn(move || {
            let mut progress = Vec::new();
            let mut other = String::new();
            for line in BufReader::new(stderr).lines() {
                let line = line?;
                match progress_lines(&line) {
                    Some(lines) => progress.push((lines, start.elapsed())),
                    None => {
                        other.push_str(&line);
                        other.push('\n');
                    }
                }
            }
            Ok::<_, std::io::Error>((progress, other))
        });

        let mut peak = 0;
        let mut tick_lateness = Vec::new();
        let mut sent = 0;
        let mut tick = 0u32;
        let total = line_ends.len();
        let sending = (|| {
            while sent < total {
                let due_at = TICK * tick;
                let now = start.elapsed();
                if now < due_at {
                    std::thread::sleep(due_at - now);
                }
                let woke = start.elapsed();
                tick_lateness.push(woke.saturating_sub(due_at));
                let due = ((woke.as_secs_f64() * rate) as usize + 1).min(total);
                if due > sent {
                    let from = if sent == 0 { 0 } else { line_ends[sent - 1] };
                    stdin.write_all(&input[from..line_ends[due - 1]])?;
                    sent = due;
                }
                if tick.is_multiple_of(10) {
                    // Every RSS_POLL: ten ticks.
                    peak = peak.max(tree_rss_kb(pid));
                }
                tick += 1;
            }
            Ok::<_, std::io::Error>(())
        })();
        drop(stdin); // end of input: kav drains and reports
        let status = loop {
            peak = peak.max(tree_rss_kb(pid));
            if let Some(status) = child.try_wait()? {
                break status;
            }
            std::thread::sleep(TICK);
        };
        let wall = start.elapsed();
        let (progress, stderr) = reader.join().expect("the stderr reader does not panic")?;
        sending?;
        let run = finish(work, wall, status, stderr, peak)?;
        Ok(LiveRun {
            run,
            progress,
            tick_lateness,
        })
    })
}

/// Lag of a progress record: from the scheduled send of record `lines`
/// (1-based, sent at `(lines - 1) / rate`) to the record's `arrival`.
pub fn lag(lines: u64, arrival: Duration, rate: f64) -> Duration {
    let scheduled = Duration::from_secs_f64(lines.saturating_sub(1) as f64 / rate);
    arrival.saturating_sub(scheduled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::progress_lines;

    #[test]
    fn lag_runs_from_the_scheduled_send_of_the_reported_record() {
        let line = r#"{"record":"progress","lines":1025,"checkpoint_version":0}"#;
        let lines = progress_lines(line).unwrap();
        // Record 1025 is due 1024 / 1024 s = 1 s into the schedule.
        let arrival = Duration::from_millis(1003);
        assert_eq!(lag(lines, arrival, 1024.0), Duration::from_millis(3));
        // The first record is due at the schedule's start.
        assert_eq!(
            lag(1, Duration::from_millis(7), 1024.0),
            Duration::from_millis(7)
        );
    }
}
