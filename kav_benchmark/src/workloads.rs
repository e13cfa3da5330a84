//! The four audit workloads: how each input is generated from the seed,
//! the `kav` command that audits it, and the verdicts it must produce.
//!
//! Every input comes from the `kav_workloads` generators `kav gen` uses and
//! is written by the same `ndjson` / `frame` writers, so it is exactly what
//! an operator would feed `kav`. Sizes are fixed constants: the benchmark's
//! seed is the only input to the generators.

use crate::report::Verdict;
use kav_history::frame;
use kav_history::ndjson::{self, StreamRecord};
use kav_workloads::{
    deep_stale_stream, streaming_workload, DeepStaleConfig, StreamingWorkloadConfig,
};
use std::path::Path;

/// Shard threads of `kav stream`, and worker processes of `kav serve`:
/// one per core of the 2-core reference machine.
pub const PARALLELISM: usize = 2;
/// `kav`'s default per-key window, which every workload audits with.
pub const WINDOW: usize = 1024;
/// Offered rate of the live-stdin open loop, in records per second:
/// about a third of the ~760 k/s closed-loop stdin capacity measured on
/// the reference machine, so the audit keeps up with room to spare and
/// lag measures freshness, not a growing backlog.
pub const LIVE_RATE: f64 = 250_000.0;
/// `--progress-every` of the live-stdin runs: one lag sample per this
/// many records.
pub const PROGRESS_EVERY: u64 = 1024;
/// `--checkpoint-every` of the fleet-ckpt runs: five checkpoints a run.
pub const CHECKPOINT_EVERY: u64 = 32_000;

// Keys and operations per key of each input. Runs last well under a
// second (live-stdin: 2.56 s at LIVE_RATE), so every run of the benchmark
// holds tens of them on the 2-core reference machine.
const REPLAY: (u64, usize) = (64, 5_000);
const LIVE: (u64, usize) = (64, 10_000);
const WIDE: (u64, usize) = (32, 5_000);
const FLEET: (u64, usize) = (16, 10_000);
/// Records of the live-stdin input from one seal burst to the next: its
/// keys interleave evenly, so each fills a window in that span, and from
/// the third cycle on all of them seal together once per cycle. Those
/// bursts stall `kav` and set the lag's tail.
pub const SEAL_CYCLE: u64 = LIVE.0 * WINDOW as u64;
/// Replay keys (the last 8 of 64) that carry deep-stale gadgets with true
/// staleness 3, so `--k 2` must answer NO for them.
const STALE_KEYS: u64 = 8;
/// wide-genk's histories are 4-atomic with intervals widened by up to 8
/// commit gaps: every sealed window's bounds disagree, so each one
/// escalates to the constrained search.
const WIDE_K: u64 = 4;
const WIDE_SPREAD: u64 = 8;

/// On-disk (or on-pipe) input format.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    Ndjson,
    Binary,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Batch audit of a recorded NDJSON trace: mmap, zero-copy decoder,
    /// seal-scan and FZF, with 8 violating keys among 64.
    ReplayNdjson,
    /// An operator tailing a live store: NDJSON on stdin through the serde
    /// decoder at a fixed offered rate, with progress probes.
    LiveStdin,
    /// Verification-bound general-k audit of binary frames: genk whose
    /// bound gaps escalate to the constrained search.
    WideGenk,
    /// The process fleet with checkpoints: `kav serve`, two `kav work`
    /// children, snapshot merges and checkpoint writes.
    FleetCkpt,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ReplayNdjson,
        Workload::LiveStdin,
        Workload::WideGenk,
        Workload::FleetCkpt,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReplayNdjson => "replay-ndjson",
            Workload::LiveStdin => "live-stdin",
            Workload::WideGenk => "wide-genk",
            Workload::FleetCkpt => "fleet-ckpt",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn format(self) -> Format {
        match self {
            Workload::ReplayNdjson | Workload::LiveStdin => Format::Ndjson,
            Workload::WideGenk | Workload::FleetCkpt => Format::Binary,
        }
    }

    /// The `k` the audit decides (FZF at 2, genk at 4).
    pub fn k(self) -> u64 {
        match self {
            Workload::WideGenk => WIDE_K,
            _ => 2,
        }
    }

    /// The input's records, in completion order.
    pub fn records(self, seed: u64) -> Vec<StreamRecord> {
        let fresh = |(keys, ops_per_key): (u64, usize), k, spread| {
            streaming_workload(StreamingWorkloadConfig {
                keys,
                ops_per_key,
                k,
                spread,
                seed,
                ..Default::default()
            })
        };
        match self {
            Workload::ReplayNdjson => {
                let (keys, ops_per_key) = REPLAY;
                let first_stale = keys - STALE_KEYS;
                let mut records = fresh((first_stale, ops_per_key), 2, 3);
                let stale = deep_stale_stream(DeepStaleConfig {
                    keys: STALE_KEYS,
                    ops_per_key,
                    k: 3,
                    spread: 3,
                    seed: seed ^ 0x5EED_0000_5EED,
                    ..Default::default()
                });
                records.extend(stale.into_iter().map(|r| StreamRecord {
                    key: r.key + first_stale,
                    ..r
                }));
                // Merge by completion time; keys break ties, as in the
                // generators, so every key keeps its own order.
                records.sort_by_key(|r| (r.finish, r.key));
                records
            }
            Workload::LiveStdin => fresh(LIVE, 2, 3),
            Workload::FleetCkpt => fresh(FLEET, 2, 3),
            Workload::WideGenk => fresh(WIDE, WIDE_K, WIDE_SPREAD),
        }
    }

    /// Writes `records` to `path` in the workload's format, through the
    /// writers `kav gen --out` uses.
    pub fn write(self, path: &Path, records: &[StreamRecord]) -> Result<(), String> {
        match self.format() {
            Format::Ndjson => ndjson::write_stream(path, records),
            Format::Binary => frame::write_frames(path, records),
        }
        .map_err(|e| format!("writing {}: {e}", path.display()))
    }

    /// Ground truth: the verdict `kav` must print for `key`.
    pub fn expected(self, key: u64) -> Verdict {
        match self {
            Workload::ReplayNdjson if key >= REPLAY.0 - STALE_KEYS => Verdict::No,
            _ => Verdict::Yes,
        }
    }

    /// The exit code `kav` must end with: 1 when a key is proven NO.
    pub fn expected_exit(self) -> i32 {
        match self {
            Workload::ReplayNdjson => 1,
            _ => 0,
        }
    }

    /// `(version, ops_routed)` of the last checkpoint a fleet-ckpt run
    /// over `records` input records writes.
    pub fn expected_checkpoint(records: u64) -> (u64, u64) {
        let version = records / CHECKPOINT_EVERY;
        (version, version * CHECKPOINT_EVERY)
    }

    /// The `kav` command line auditing `input` (`-` for stdin), with
    /// fleet checkpoints going to `checkpoint`.
    pub fn kav_args(self, input: &Path, checkpoint: &Path) -> Vec<String> {
        let input = input.display().to_string();
        let parallelism = PARALLELISM.to_string();
        let mut args: Vec<String> = match self {
            Workload::FleetCkpt => vec!["serve".into(), "--workers".into(), parallelism],
            _ => vec!["stream".into(), "--shards".into(), parallelism],
        };
        let k = self.k().to_string();
        match self {
            Workload::WideGenk => args.extend(["--k", &k, "--algo", "genk"].map(String::from)),
            _ => args.extend(["--k", &k, "--algo", "fzf"].map(String::from)),
        }
        if self.format() == Format::Binary {
            args.extend(["--format", "binary"].map(String::from));
        }
        match self {
            Workload::LiveStdin => {
                args.extend([
                    "--progress-every".into(),
                    PROGRESS_EVERY.to_string(),
                    "-".into(),
                ]);
            }
            Workload::FleetCkpt => {
                args.extend([
                    "--checkpoint".into(),
                    checkpoint.display().to_string(),
                    "--checkpoint-every".into(),
                    CHECKPOINT_EVERY.to_string(),
                    input,
                ]);
            }
            _ => args.push(input),
        }
        args
    }
}
