//! A discrete-event simulator of a Dynamo-style quorum-replicated
//! key-value store, producing per-register operation histories for
//! consistency verification.
//!
//! The paper motivates k-atomicity with Internet-scale stores that use
//! non-strict ("sloppy") quorums: reads may return stale values because
//! read and write quorums are not guaranteed to overlap. No public traces
//! of such systems exist, so this crate *is* the workload source for the
//! workspace's experiments (see DESIGN.md §5): it reproduces the phenomena
//! the paper describes —
//!
//! * with strict quorums (`R + W > N`) histories are close to atomic, with
//!   occasional new/old inversions (k = 2) from reads concurrent with
//!   in-flight writes;
//! * with sloppy quorums (`R + W ≤ N`, reduced write fanout, message drop,
//!   replica lag) reads miss committed writes and staleness grows without
//!   bound.
//!
//! # Quick start
//!
//! ```
//! use kav_core::{smallest_k, Staleness};
//! use kav_sim::{SimConfig, Simulation};
//!
//! let output = Simulation::new(SimConfig {
//!     ops_per_client: 20,
//!     ..SimConfig::default()
//! })?.run();
//!
//! for (key, history) in output.into_histories()? {
//!     let staleness = smallest_k(&history, Some(100_000));
//!     println!("key {key}: {staleness}");
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod engine;
mod faults;

pub use config::{
    ConfigError, FlakyReplica, KeyDistribution, LatencyModel, SimConfig, MAX_CLOCK_SKEW,
};
pub use faults::{
    scenario, scenario_matrix, ExpectedClass, Fault, FaultSchedule, Manifest, Scenario,
    ScenarioRun, DEFAULT_OP_TIMEOUT, MAX_DRIFT_PPM, MAX_FAULT_OFFSET,
};

use kav_history::ndjson::StreamRecord;
use kav_history::{repair, History, RawHistory, RepairLog, ValidationError};

/// A configured, runnable simulation.
#[derive(Clone, Debug)]
pub struct Simulation {
    config: SimConfig,
    faults: FaultSchedule,
}

impl Simulation {
    /// Validates `config` and prepares a fault-free simulation.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the configuration is contradictory
    /// (e.g. quorum larger than the replica group).
    pub fn new(config: SimConfig) -> Result<Self, ConfigError> {
        Simulation::with_faults(config, FaultSchedule::none())
    }

    /// Validates `config` and `faults` together and prepares an
    /// adversarial simulation. An empty schedule reproduces
    /// [`Simulation::new`] exactly — same events, same RNG stream, same
    /// recorded bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if either the configuration or the fault
    /// schedule is contradictory.
    pub fn with_faults(config: SimConfig, faults: FaultSchedule) -> Result<Self, ConfigError> {
        config.validate()?;
        faults.validate(&config)?;
        Ok(Simulation { config, faults })
    }

    /// The configuration this simulation runs.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Runs the simulation to completion and returns the recorded
    /// histories.
    pub fn run(&self) -> SimOutput {
        engine::run(&self.config, &self.faults)
    }
}

/// Aggregate counters of one simulation run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Completed reads.
    pub reads: u64,
    /// Completed writes (excluding the per-key seed writes).
    pub writes: u64,
    /// Sum of read latencies in microseconds.
    pub total_read_latency: u64,
    /// Sum of write latencies in microseconds.
    pub total_write_latency: u64,
    /// Read-repair pushes issued (0 unless `read_repair` is enabled).
    pub repairs: u64,
    /// Operations that hit the give-up timeout (0 without a fault
    /// schedule). Timed-out reads returned nothing and are not recorded;
    /// timed-out writes are recorded, conservatively closed at the give-up
    /// instant, but excluded from `writes`. For every run,
    /// `reads + writes + timeouts == clients * ops_per_client`.
    pub timeouts: u64,
    /// Write copies lost to crash-recovery or replica removal (each lost
    /// *message*, so one write can count several times).
    pub lost_writes: u64,
    /// Quorum reconfigurations applied.
    pub reconfigs: u64,
}

impl SimStats {
    /// Mean read latency in microseconds (0 if no reads completed).
    pub fn mean_read_latency(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.total_read_latency as f64 / self.reads as f64
        }
    }

    /// Mean write latency in microseconds (0 if no writes completed).
    pub fn mean_write_latency(&self) -> f64 {
        if self.writes == 0 {
            0.0
        } else {
            self.total_write_latency as f64 / self.writes as f64
        }
    }
}

/// The product of a simulation run: one history per key, plus counters.
#[derive(Clone, Debug)]
pub struct SimOutput {
    /// Recorded operations per key, in completion order.
    pub histories: Vec<(u64, RawHistory)>,
    /// Aggregate counters.
    pub stats: SimStats,
}

impl SimOutput {
    /// Validates and indexes every per-key history.
    ///
    /// k-atomicity is a local property (§II-B), so each key is verified
    /// independently.
    ///
    /// # Errors
    ///
    /// Returns the first [`ValidationError`] encountered; simulator output
    /// is anomaly-free by construction, so an error indicates a bug (this
    /// is exercised by the test suite).
    pub fn into_histories(self) -> Result<Vec<(u64, History)>, ValidationError> {
        let mut out = Vec::with_capacity(self.histories.len());
        for (key, raw) in self.histories {
            out.push((key, raw.into_history()?));
        }
        out.sort_by_key(|(key, _)| *key);
        Ok(out)
    }

    /// Like [`SimOutput::into_histories`], but repairs anomalies first —
    /// required when the run used a non-zero `clock_skew`, whose damaged
    /// timestamps can make recorded reads appear to precede their writes.
    /// The per-key [`RepairLog`] reports what had to be dropped.
    ///
    /// # Errors
    ///
    /// Propagates a [`ValidationError`] if repair cannot salvage a history
    /// (not observed in practice; asserted against in tests).
    pub fn into_repaired_histories(
        self,
    ) -> Result<Vec<(u64, History, RepairLog)>, ValidationError> {
        let mut out = Vec::with_capacity(self.histories.len());
        for (key, raw) in self.histories {
            let (history, log) = repair(raw)?;
            out.push((key, history, log));
        }
        out.sort_by_key(|(key, _, _)| *key);
        Ok(out)
    }

    /// Flattens the run into one NDJSON-ready multi-key stream, ordered by
    /// recorded finish stamp — the arrival order a streaming auditor
    /// tailing this store would observe. Deterministic: ties (impossible
    /// between recorded stamps, which are globally unique) would fall back
    /// to key order.
    pub fn stream_records(&self) -> Vec<StreamRecord> {
        let mut records: Vec<StreamRecord> = self
            .histories
            .iter()
            .flat_map(|(key, raw)| raw.ops.iter().map(|op| StreamRecord::new(*key, *op)))
            .collect();
        records.sort_by_key(|r| (r.finish, r.key, r.start));
        records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kav_core::{smallest_k, GkOneAv, Lbt, Staleness, Verifier};

    fn run(config: SimConfig) -> Vec<(u64, History)> {
        Simulation::new(config).unwrap().run().into_histories().expect("sim output validates")
    }

    #[test]
    fn output_is_always_anomaly_free() {
        for seed in 0..5 {
            let histories = run(SimConfig {
                seed,
                clients: 6,
                ops_per_client: 40,
                keys: 3,
                ..SimConfig::default()
            });
            assert_eq!(histories.len(), 3);
            for (_, h) in &histories {
                assert!(h.len() > 1);
            }
        }
    }

    #[test]
    fn op_counts_match_stats() {
        let output = Simulation::new(SimConfig {
            clients: 5,
            ops_per_client: 30,
            seed: 9,
            ..SimConfig::default()
        })
        .unwrap()
        .run();
        let recorded: usize = output.histories.iter().map(|(_, h)| h.len()).sum();
        // Every issued op completes (liveness), plus one seed write per key.
        assert_eq!(recorded as u64, output.stats.reads + output.stats.writes + 1);
        assert_eq!(output.stats.reads + output.stats.writes, 5 * 30);
        assert!(output.stats.mean_read_latency() > 0.0);
        assert!(output.stats.mean_write_latency() > 0.0);
    }

    #[test]
    fn strict_quorums_stay_within_k2() {
        // R + W > N with instant applies: only in-flight inversions are
        // possible, so every history is 2-atomic.
        for seed in 0..5 {
            let histories = run(SimConfig {
                replicas: 3,
                read_quorum: 2,
                write_quorum: 2,
                clients: 4,
                ops_per_client: 50,
                seed,
                ..SimConfig::default()
            });
            for (key, h) in histories {
                assert!(
                    Lbt::new().verify(&h).is_k_atomic(),
                    "strict-quorum history for key {key} (seed {seed}) not 2-atomic"
                );
            }
        }
    }

    #[test]
    fn single_client_single_replica_is_atomic() {
        let histories = run(SimConfig {
            replicas: 1,
            read_quorum: 1,
            write_quorum: 1,
            clients: 1,
            ops_per_client: 60,
            seed: 4,
            ..SimConfig::default()
        });
        for (_, h) in histories {
            assert!(GkOneAv.verify(&h).is_k_atomic(), "serial single-copy history must be atomic");
        }
    }

    #[test]
    fn sloppy_quorums_produce_staleness() {
        // R = W = 1 over 5 replicas with slow applies: reads routinely miss
        // recent writes. Expect at least one key needing k > 1.
        let mut worst = 1u64;
        for seed in 0..8 {
            let histories = run(SimConfig {
                replicas: 5,
                read_quorum: 1,
                write_quorum: 1,
                clients: 6,
                ops_per_client: 25,
                apply_lag: LatencyModel::Uniform { lo: 2_000, hi: 30_000 },
                seed,
                ..SimConfig::default()
            });
            for (_, h) in histories {
                match smallest_k(&h, Some(200_000)) {
                    Staleness::Exact(k) => worst = worst.max(k),
                    Staleness::AtLeast(k) => worst = worst.max(k),
                }
            }
        }
        assert!(worst > 1, "sloppy quorums with lag should violate atomicity somewhere");
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = SimConfig { seed: 123, ops_per_client: 20, ..SimConfig::default() };
        let a = Simulation::new(cfg).unwrap().run();
        let b = Simulation::new(cfg).unwrap().run();
        assert_eq!(a.histories, b.histories);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn rejects_invalid_config() {
        assert!(Simulation::new(SimConfig { read_quorum: 0, ..SimConfig::default() }).is_err());
    }
}

#[cfg(test)]
mod feature_tests {
    use super::*;
    use kav_core::{smallest_k, Staleness};

    fn total_staleness(config: SimConfig, seeds: std::ops::Range<u64>) -> u64 {
        let mut total = 0;
        for seed in seeds {
            let output = Simulation::new(SimConfig { seed, ..config }).unwrap().run();
            for (_, raw) in output.histories {
                let h = raw.into_history().unwrap();
                total += match smallest_k(&h, Some(300_000)) {
                    Staleness::Exact(k) | Staleness::AtLeast(k) => k,
                };
            }
        }
        total
    }

    fn sloppy_base() -> SimConfig {
        SimConfig {
            replicas: 5,
            read_quorum: 1,
            write_quorum: 1,
            clients: 6,
            ops_per_client: 25,
            apply_lag: LatencyModel::Uniform { lo: 2_000, hi: 30_000 },
            ..SimConfig::default()
        }
    }

    #[test]
    fn read_repair_reduces_staleness() {
        // Repair is a statistical win, not a per-execution invariant: the
        // repair writes perturb apply timing, so individual seeds can come
        // out worse. Aggregate over enough seeds that the tendency
        // dominates (exact smallest-k measurement makes small samples
        // noisier than the old budget-truncated bounds were).
        let without = total_staleness(sloppy_base(), 0..32);
        let with = total_staleness(SimConfig { read_repair: true, ..sloppy_base() }, 0..32);
        assert!(
            with <= without,
            "read repair should not increase staleness ({with} vs {without})"
        );
        // Repairs actually fire.
        let output = Simulation::new(SimConfig { read_repair: true, ..sloppy_base() })
            .unwrap()
            .run();
        assert!(output.stats.repairs > 0, "sloppy reads must trigger repairs");
    }

    #[test]
    fn zipf_skews_traffic_toward_hot_keys() {
        let output = Simulation::new(SimConfig {
            keys: 8,
            clients: 6,
            ops_per_client: 50,
            key_distribution: KeyDistribution::Zipf { exponent: 1.2 },
            seed: 5,
            ..SimConfig::default()
        })
        .unwrap()
        .run();
        let mut sizes: Vec<(u64, usize)> =
            output.histories.iter().map(|(k, h)| (*k, h.len())).collect();
        sizes.sort_unstable();
        let hottest = sizes.first().expect("key 0 exists").1;
        let coldest = sizes.last().expect("last key exists").1;
        assert!(
            hottest > 2 * coldest.max(1),
            "zipf should concentrate ops on key 0: {sizes:?}"
        );
    }

    #[test]
    fn flaky_replica_keeps_liveness_and_validates() {
        let output = Simulation::new(SimConfig {
            replicas: 3,
            read_quorum: 2,
            write_quorum: 2,
            clients: 5,
            ops_per_client: 40,
            flaky: Some(FlakyReplica { replica: 0, period: 200_000, downtime: 120_000 }),
            seed: 11,
            ..SimConfig::default()
        })
        .unwrap()
        .run();
        assert_eq!(output.stats.reads + output.stats.writes, 5 * 40, "all ops complete");
        for (_, raw) in output.histories {
            assert!(raw.validate().is_clean());
        }
    }

    #[test]
    fn flaky_config_validation() {
        assert!(Simulation::new(SimConfig {
            flaky: Some(FlakyReplica { replica: 9, period: 100, downtime: 10 }),
            ..SimConfig::default()
        })
        .is_err());
        assert!(Simulation::new(SimConfig {
            flaky: Some(FlakyReplica { replica: 0, period: 100, downtime: 100 }),
            ..SimConfig::default()
        })
        .is_err());
        assert!(Simulation::new(SimConfig {
            read_quorum: 3,
            write_quorum: 1,
            flaky: Some(FlakyReplica { replica: 0, period: 100, downtime: 10 }),
            ..SimConfig::default()
        })
        .is_err());
        assert!(Simulation::new(SimConfig {
            keys: 4,
            key_distribution: KeyDistribution::Zipf { exponent: 0.0 },
            ..SimConfig::default()
        })
        .is_err());
    }

    #[test]
    fn flaky_windows_compute_correctly() {
        let f = FlakyReplica { replica: 0, period: 100, downtime: 30 };
        assert!(!f.is_up(0));
        assert!(!f.is_up(29));
        assert!(f.is_up(30));
        assert!(f.is_up(99));
        assert!(!f.is_up(100));
        assert_eq!(f.next_up(0), 30);
        assert_eq!(f.next_up(45), 45);
        assert_eq!(f.next_up(110), 130);
    }
}

#[cfg(test)]
mod skew_tests {
    use super::*;
    use kav_core::{GkOneAv, Verifier};

    fn base(skew: u64, seed: u64) -> SimConfig {
        SimConfig {
            clients: 6,
            ops_per_client: 30,
            clock_skew: skew,
            seed,
            ..SimConfig::default()
        }
    }

    #[test]
    fn zero_skew_records_clean_histories() {
        for seed in 0..4 {
            let output = Simulation::new(base(0, seed)).unwrap().run();
            for (_, raw) in output.histories {
                assert!(raw.validate().is_clean());
            }
        }
    }

    #[test]
    fn heavy_skew_damages_recorded_histories() {
        // Offsets up to +-200ms against ~sub-ms operations: recorded
        // timestamps lie badly enough that some history shows anomalies or
        // a false atomicity violation.
        let mut any_damage = false;
        for seed in 0..8 {
            let output = Simulation::new(base(200_000, seed)).unwrap().run();
            for (_, raw) in output.histories {
                if !raw.validate().is_clean() {
                    any_damage = true;
                    continue;
                }
                let skewed = raw.clone().into_history().unwrap();
                // The run is strict-quorum and lag-free: with honest clocks
                // it verifies atomic (see zero-skew test); a NO here is a
                // clock artefact.
                if !GkOneAv.verify(&skewed).is_k_atomic() {
                    any_damage = true;
                }
            }
        }
        assert!(any_damage, "200ms skew should corrupt some recorded history");
    }

    #[test]
    fn repair_salvages_skewed_traces() {
        for seed in 0..6 {
            let output = Simulation::new(base(200_000, seed)).unwrap().run();
            let repaired = output.into_repaired_histories().expect("repair always salvages");
            for (_, history, _log) in repaired {
                assert!(!history.is_empty(), "seed write survives at minimum");
            }
        }
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;

    fn sorted(mut histories: Vec<(u64, RawHistory)>) -> Vec<(u64, RawHistory)> {
        histories.sort_by_key(|(key, _)| *key);
        histories
    }

    /// Every issued operation completes or times out — the liveness
    /// accounting contract of [`SimStats`].
    fn assert_liveness(config: &SimConfig, stats: &SimStats) {
        assert_eq!(
            stats.reads + stats.writes + stats.timeouts,
            (config.clients * config.ops_per_client) as u64,
            "issued ops must all complete or time out: {stats:?}"
        );
    }

    #[test]
    fn empty_schedule_is_bit_identical_to_no_schedule() {
        let config = SimConfig { seed: 7, ops_per_client: 25, keys: 2, ..SimConfig::default() };
        let plain = Simulation::new(config).unwrap().run();
        let empty = Simulation::with_faults(config, FaultSchedule::none()).unwrap().run();
        assert_eq!(sorted(plain.histories), sorted(empty.histories));
        assert_eq!(plain.stats, empty.stats);
        assert_eq!(empty.stats.timeouts, 0);
        assert_eq!(empty.stats.lost_writes, 0);
    }

    #[test]
    fn faulted_runs_are_deterministic_per_seed() {
        let scenario = scenario("fault-storm", 42).expect("known scenario");
        let a = scenario.run().unwrap();
        let b = scenario.run().unwrap();
        assert_eq!(sorted(a.output.histories), sorted(b.output.histories));
        assert_eq!(a.output.stats, b.output.stats);
        assert_eq!(a.records, b.records);
        assert_eq!(a.manifest, b.manifest);
    }

    #[test]
    fn crashes_lose_buffered_writes_but_record_cleanly() {
        let mut any_loss = false;
        for seed in 0..6 {
            let run = scenario("crash-recovery", seed).expect("known scenario").run().unwrap();
            any_loss |= run.output.stats.lost_writes > 0;
            assert_liveness(&run.manifest.config, &run.output.stats);
            for (_, raw) in &run.output.histories {
                assert!(raw.validate().is_clean(), "crash faults must not damage the record");
            }
        }
        assert!(any_loss, "staggered crashes should catch some write in the apply buffer");
    }

    #[test]
    fn partitions_buffer_writes_and_record_cleanly() {
        for seed in 0..6 {
            let run = scenario("partition-heal", seed).expect("known scenario").run().unwrap();
            assert_liveness(&run.manifest.config, &run.output.stats);
            for (_, raw) in &run.output.histories {
                assert!(raw.validate().is_clean(), "partitions must not damage the record");
            }
        }
    }

    #[test]
    fn reconfigurations_apply_and_keep_liveness() {
        for seed in 0..6 {
            let run = scenario("reconfig", seed).expect("known scenario").run().unwrap();
            assert_eq!(run.output.stats.reconfigs, 2, "both scheduled steps must fire");
            assert_liveness(&run.manifest.config, &run.output.stats);
            for (_, raw) in &run.output.histories {
                assert!(raw.validate().is_clean(), "reconfiguration must not damage the record");
            }
        }
    }

    #[test]
    fn skew_faults_never_perturb_the_execution() {
        // A lying clock changes what the probe *records*, not what the
        // store *does*: the faulted run must issue the identical operation
        // sequence as the fault-free run of the same seed, differing only
        // in recorded stamps. This is the bedrock under the within-bound
        // soundness property test.
        for seed in 0..4 {
            let scenario = scenario("skew-beyond-bound", seed).expect("known scenario");
            let skewed = sorted(scenario.run().unwrap().output.histories);
            let honest = sorted(Simulation::new(scenario.config).unwrap().run().histories);
            assert_eq!(skewed.len(), honest.len());
            for ((key_a, a), (key_b, b)) in skewed.iter().zip(&honest) {
                assert_eq!(key_a, key_b);
                assert_eq!(a.ops.len(), b.ops.len(), "key {key_a}: op counts diverged");
                for (x, y) in a.ops.iter().zip(&b.ops) {
                    assert_eq!((x.kind, x.value), (y.kind, y.value));
                }
            }
        }
    }

    #[test]
    fn fault_storm_emits_a_sorted_complete_stream() {
        let run = scenario("fault-storm", 3).expect("known scenario").run().unwrap();
        let total: usize = run.output.histories.iter().map(|(_, h)| h.ops.len()).sum();
        assert_eq!(run.records.len(), total, "every recorded op appears in the stream");
        for pair in run.records.windows(2) {
            assert!(pair[0].finish <= pair[1].finish, "stream must be finish-ordered");
        }
        assert_eq!(run.manifest.records, run.records.len() as u64);
    }

    #[test]
    fn with_faults_rejects_contradictory_schedules() {
        let schedule = FaultSchedule {
            faults: vec![Fault::Crash { replica: 99, at: 0, restart_at: 1 }],
            ..Default::default()
        };
        assert!(Simulation::with_faults(SimConfig::default(), schedule).is_err());
    }
}
