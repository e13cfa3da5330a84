//! Verifiers for the k-atomicity-verification (k-AV) problem.
//!
//! This crate implements the algorithmic contributions of *On the
//! k-Atomicity-Verification Problem* (Golab, Hurwitz & Li, ICDCS 2013):
//!
//! * [`Lbt`] — the Limited BackTracking 2-AV verifier (§III),
//!   `O(n log n + c·n)` with iterative deepening;
//! * [`Fzf`] — the Forward Zones First 2-AV verifier (§IV), `O(n log n)`
//!   worst case;
//! * [`GkOneAv`] — the Gibbons–Korach zone test for 1-atomicity
//!   (linearizability), the solved `k = 1` baseline;
//! * [`ExhaustiveSearch`] — an exact, exponential-time *test oracle* for
//!   any `k` (and the weighted rule of §V) on histories of at most
//!   [`MAX_SEARCH_OPS`] operations;
//! * [`ConstrainedSearch`] — the production exact search: a
//!   budget-honoring constrained-linearization engine over the
//!   interval-order frontier with forced-separation pruning, an
//!   admissible lower-bound cut-off and dominated-frontier memoisation —
//!   no op-count ceiling, the node budget is the only limiter;
//! * [`GenK`] — bound-and-certify verification for **general** `k`: a
//!   forced-separation lower bound and a constructive witness upper bound
//!   decide the common cases polynomially, and only the (rare) bound gap
//!   escalates to a budgeted [`ConstrainedSearch`] — `Inconclusive` past
//!   the budget, never an unsound YES/NO;
//! * [`smallest_k`] — the §II-B search for the exact staleness bound of a
//!   history, sandwiched by the [`GenK`] bounds from `k = 3` up;
//! * [`OnlineVerifier`] / [`StreamPipeline`] — the streaming path: online
//!   sliding-window adapters over the verifiers above, and a sharded
//!   multi-register pipeline for unbounded op streams, checkpointable
//!   mid-flight for crash-resumable audits ([`StreamPipeline::snapshot`],
//!   [`CheckpointWriter`]);
//! * [`models`] — the pluggable consistency-model layer: k-atomicity is
//!   one plugin among several over the same substrate. [`RegularVerifier`]
//!   and [`SafeVerifier`] decide Lamport's weaker register semantics by
//!   interval sweep, and [`CausalVerifier`] decides causal consistency
//!   over client sessions; every layer above threads a [`ModelId`] so a
//!   resumed or fleet-distributed audit keeps its semantics.
//!
//! Every YES verdict carries a [`TotalOrder`] witness that can be
//! re-validated independently with [`check_witness`].
//!
//! # Quick start
//!
//! ```
//! use kav_core::{check_witness, Fzf, Lbt, Verifier};
//! use kav_history::HistoryBuilder;
//!
//! // A read that is one write stale: 2-atomic, not atomic.
//! let history = HistoryBuilder::new()
//!     .write(1, 0, 10)
//!     .write(2, 12, 20)
//!     .read(1, 22, 30)
//!     .build()?;
//!
//! let verdict = Fzf.verify(&history);
//! assert!(verdict.is_k_atomic());
//! check_witness(&history, verdict.witness().unwrap(), 2)?;
//!
//! // LBT agrees.
//! assert!(Lbt::new().verify(&history).is_k_atomic());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod constrained;
mod diagnose;
mod fzf;
mod genk;
mod gk;
mod lbt;
pub mod models;
mod search;
mod smallest_k;
mod stream;
mod verdict;
mod witness;

pub use batch::verify_batch;
pub use constrained::{ConstrainedReport, ConstrainedSearch};
pub use diagnose::{diagnose, AtomicityViolation, Diagnosis};
pub use fzf::{Fzf, FzfReport};
pub use genk::{staleness_lower_bound, GenK, GenKReport, DEFAULT_GAP_BUDGET};
pub use gk::{GkAnalysis, GkOneAv};
pub use lbt::{CandidateOrder, Lbt, LbtConfig, LbtReport, SearchStrategy};
pub use models::{
    CausalVerifier, ModelId, RegularVerifier, SafeVerifier, UnknownModel, DEFAULT_CAUSAL_BUDGET,
};
pub use search::{ExhaustiveSearch, SearchReport, MAX_SEARCH_OPS};
pub use smallest_k::{smallest_k, staleness_upper_bound, Staleness};
pub use stream::protocol;
pub use stream::{
    fleet_verdict, merge_fragments, merge_reports, read_checkpoint,
    worker_loop, Checkpoint, CheckpointError, CheckpointWriter, DepthStats,
    DepthWindow, FleetConfig,
    FleetCoordinator, FleetSummary, Fragment, KeyError, KeyReport, KeySnapshot, LayoutError,
    MergeError, OnlineError, OnlineSnapshot, OnlineVerifier, PipelineConfig, PipelineOutput,
    PipelineProgress, PipelineSnapshot, ProtocolError, ShardProgress, SnapshotError,
    SnapshotFragments, SnapshotHeader, SourcePosition, StreamPipeline, StreamReport, WorkerLink,
    CHECKPOINT_FORMAT, DEFAULT_CHECKPOINT_EVERY, DEFAULT_DEPTH_WINDOW, DEFAULT_HORIZON_WINDOWS,
    DEFAULT_REPLAY_CAP,
};
pub use verdict::{Verdict, Verifier};
pub use witness::{check_witness, TotalOrder, WitnessError};
