//! Operation histories for k-atomicity verification.
//!
//! This crate is the data-model substrate of the `k-atomicity` workspace,
//! which reproduces *On the k-Atomicity-Verification Problem* (Golab,
//! Hurwitz & Li, ICDCS 2013). It provides:
//!
//! * the operation/history model of the paper's §II — [`Operation`],
//!   [`RawHistory`], and the validated, indexed [`History`];
//! * anomaly detection and the write-shortening normalisation (§II-C);
//! * the Gibbons–Korach *cluster*/*zone* machinery and FZF's Stage-1
//!   *chunk* decomposition (§IV) — [`clusters`], [`zones`], [`chunk_set`];
//! * a JSON on-disk format ([`json`]) and summary statistics
//!   ([`HistoryStats`]);
//! * the streaming substrate — incremental, windowed history construction
//!   ([`stream::StreamBuilder`]) and an NDJSON operation codec ([`ndjson`])
//!   for unbounded completion-order op streams.
//!
//! # Quick start
//!
//! ```
//! use kav_history::{HistoryBuilder, HistoryStats};
//!
//! // w(1) then w(2), then a stale read of 1 — fine for 2-atomicity.
//! let history = HistoryBuilder::new()
//!     .write(1, 0, 10)
//!     .write(2, 12, 20)
//!     .read(1, 22, 30)
//!     .build()?;
//!
//! let stats = HistoryStats::of(&history);
//! assert_eq!(stats.writes, 2);
//! assert_eq!(stats.forward_clusters, 1);
//! # Ok::<(), kav_history::ValidationError>(())
//! ```
//!
//! The verification algorithms themselves live in the `kav-core` crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod anomaly;
mod builder;
mod chunk;
mod cluster;
pub mod csv;
pub mod frame;
pub mod fxhash;
mod history;
pub mod json;
pub mod ndjson;
mod normalize;
mod op;
mod raw;
mod render;
mod repair;
mod stats;
pub mod stream;
mod time;
pub mod transform;
mod zone;

pub use anomaly::{Anomaly, ValidationError, ValidationReport};
pub use builder::HistoryBuilder;
pub use chunk::{chunk_set, Chunk, ChunkSet};
pub use cluster::{clusters, Cluster, ClusterId};
pub use history::History;
pub use op::{OpId, OpKind, Operation, Value, Weight, UNTAGGED_CLIENT};
pub use raw::RawHistory;
pub use render::render_timeline;
pub use repair::{repair, DropReason, RepairLog};
pub use stats::HistoryStats;
pub use time::Time;
pub use zone::{zones, Zone, ZoneKind};
