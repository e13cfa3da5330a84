//! Synthetic history generators for the k-atomicity workbench.
//!
//! Each generator targets a specific experiment from the paper (the
//! `exp_*` binaries of `kav_bench` print one table per experiment):
//!
//! * [`random_k_atomic`] — histories that are k-atomic **by construction**
//!   (a hidden commit order realises the bound), with tunable concurrency;
//!   the "common case" input of Theorem 3.2's practice claim.
//! * [`staircase`] — the adversarial input family on which LBT's candidate
//!   search degenerates to `Θ(n²)` while FZF stays quasilinear
//!   (`c = Θ(n)` concurrent writes, Theorem 3.2 worst case vs Theorem 4.6).
//! * [`figure3`] — a concrete history realising the zone/chunk structure of
//!   the paper's Figure 3 (three maximal chunks, three dangling clusters).
//! * [`ladder`] — the minimal exactly-k-atomic gadget (k sequential writes,
//!   then a read of the first), and [`inject_ladder`] to plant staleness
//!   violations inside larger histories.
//! * [`deep_stale`] / [`deep_stale_stream`] — histories and streams whose
//!   *true* staleness is a configurable `k` (forced-k gadgets inside
//!   benign traffic): the input family for the general-k (`k ≥ 3`)
//!   verification path.
//! * [`serial`] — trivially 1-atomic baselines.
//! * [`zone_twins`] — two histories with identical zone sets but different
//!   2-AV verdicts: the §IV-A proof that zones alone cannot decide 2-AV.
//! * [`streaming_workload`] — a multi-register op stream in global
//!   completion order, the input shape of the streaming pipeline.
//! * [`zone_conflict`] / [`safe_not_regular`] / [`causal_violation`] /
//!   [`causal_cycle`] and the causal stream generators — forced-apart
//!   inputs that separate the consistency models in the pluggable
//!   verdict layer (atomic ⟹ regular ⟹ safe, plus causal).
//! * [`fault_stream`] / [`fault_streams`] — streams recorded against a
//!   simulated store under injected faults (crashes, partitions,
//!   reconfiguration, clocks beyond the skew bound), each with a
//!   ground-truth manifest; the input family of the fault-matrix
//!   soundness harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod deep_stale;
mod faulty;
mod figure;
mod ladders;
mod models;
mod random;
mod staircase;
mod stream;
mod twins;

pub use deep_stale::{deep_stale, deep_stale_stream, DeepStaleConfig};
pub use faulty::{fault_scenario_names, fault_stream, fault_streams, FaultyStream};
pub use figure::figure3;
pub use ladders::{inject_ladder, ladder, serial};
pub use models::{
    causal_clean_stream, causal_cycle, causal_violation, causal_violation_stream,
    safe_not_regular, zone_conflict, CausalStreamConfig,
};
pub use random::{random_k_atomic, RandomHistoryConfig};
pub use staircase::staircase;
pub use stream::{streaming_workload, StreamingWorkloadConfig};
pub use twins::zone_twins;
