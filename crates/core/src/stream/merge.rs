//! Merging per-shard fleet state back into single-process shapes.
//!
//! The fleet's soundness story is that distribution must be *invisible*:
//! a coordinator splitting the key space over worker processes has to
//! produce byte-for-byte the report one [`StreamPipeline`] would have
//! produced on the same stream. §II-B makes that possible — per-key
//! verdicts depend only on that key's operation sequence plus the
//! window/horizon configuration, never on which process hosted the key —
//! so merging is concatenation plus the certification discipline:
//!
//! * any shard's **NO** is the fleet's NO (a violation of one register is
//!   a violation of the store);
//! * a fleet **YES** requires *every* shard's unbroken chain — each
//!   worker's reports certified, no shard missing;
//! * an uncertified shard (an unverifiable hand-off, a lost replay)
//!   degrades YES to UNKNOWN, and the taint is sticky exactly as it is
//!   for single-process resume chains.
//!
//! [`merge_fragments`] lays per-range snapshots out as one
//! whole-key-space snapshot without parsing them, stamped with the count
//! of routed operations the coordinator alone keeps — a *fleet
//! checkpoint* is therefore an ordinary checkpoint file, resumable by
//! `kav stream --resume` or re-partitionable by
//! [`SnapshotFragments::partition`] for a differently sized fleet.
//! [`merge_reports`] does the same for finished [`PipelineOutput`]s.
//!
//! [`StreamPipeline`]: super::StreamPipeline

use super::fragment::SnapshotFragments;
use super::pipeline::PipelineOutput;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Why per-shard snapshots cannot be merged (see [`merge_fragments`]).
/// Always a protocol/state fault, never a verdict: drivers surface these
/// as exit-2 diagnostics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MergeError {
    /// No snapshots were offered.
    Empty,
    /// Two snapshots disagree on algorithm, `k`, consistency model,
    /// window or horizon.
    ConfigMismatch(String),
    /// The same key appears in more than one shard's snapshot — the
    /// partition was not disjoint, so per-key state cannot be trusted.
    OverlappingKey(u64),
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::Empty => write!(f, "no shard snapshots to merge"),
            MergeError::ConfigMismatch(msg) => write!(f, "shard snapshots disagree: {msg}"),
            MergeError::OverlappingKey(key) => {
                write!(f, "key {key} is claimed by more than one shard")
            }
        }
    }
}

impl Error for MergeError {}

/// Folds disjoint per-range snapshots in [fragment
/// layout](crate::SnapshotFragments) into one whole-key-space snapshot: the
/// fragments laid out in key order, none of them parsed or copied. The
/// partition tag is cleared, `ops_routed` set to the caller's count of
/// every operation routed into the audit (the parts' own counts are not
/// read: a range's snapshot counts none, see
/// [`RangeSnapshot`](super::protocol::RangeSnapshot)), and the uncertified
/// taint OR-ed — one tainted shard taints the fleet, YES degrades to
/// UNKNOWN, NO is unaffected.
///
/// # Errors
///
/// [`MergeError`] when the parts disagree on configuration or claim
/// overlapping keys; nothing about a rejected merge is trusted.
pub fn merge_fragments<'a>(
    parts: impl IntoIterator<Item = &'a SnapshotFragments>,
    ops_routed: u64,
) -> Result<SnapshotFragments, MergeError> {
    let mut parts = parts.into_iter();
    let mut merged = parts.next().ok_or(MergeError::Empty)?.clone();
    merged.header.partition = None;
    merged.header.ops_routed = ops_routed;
    for part in parts {
        let (ours, theirs) = (&merged.header, &part.header);
        if (&ours.algo, ours.k, ours.model) != (&theirs.algo, theirs.k, theirs.model) {
            return Err(MergeError::ConfigMismatch(format!(
                "{}/k={}/model={} vs {}/k={}/model={}",
                ours.algo, ours.k, ours.model, theirs.algo, theirs.k, theirs.model
            )));
        }
        if (ours.window, ours.horizon) != (theirs.window, theirs.horizon) {
            return Err(MergeError::ConfigMismatch(format!(
                "window {}/horizon {} vs window {}/horizon {}",
                ours.window, ours.horizon, theirs.window, theirs.horizon
            )));
        }
        merged.header.uncertified |= theirs.uncertified;
        merged.states.extend_from_slice(&part.states);
        merged.reports.extend_from_slice(&part.reports);
        merged.errors.extend_from_slice(&part.errors);
    }
    for list in [&mut merged.states, &mut merged.reports, &mut merged.errors] {
        list.sort_by_key(|fragment| fragment.key);
    }
    // Each key is live or failed in exactly one part.
    let mut keys: Vec<u64> =
        merged.states.iter().chain(&merged.errors).map(|fragment| fragment.key).collect();
    keys.sort_unstable();
    if let Some(pair) = keys.windows(2).find(|pair| pair[0] == pair[1]) {
        return Err(MergeError::OverlappingKey(pair[0]));
    }
    Ok(merged)
}

/// Concatenates disjoint per-range finished outputs into the
/// single-process [`PipelineOutput`] shape (keys re-sorted). The caller
/// guarantees disjointness — the coordinator's routing does; merged
/// verdicts then follow from [`PipelineOutput::all_k_atomic`] unchanged.
pub fn merge_reports(parts: impl IntoIterator<Item = PipelineOutput>) -> PipelineOutput {
    let mut merged = PipelineOutput::default();
    for part in parts {
        merged.keys.extend(part.keys);
        merged.errors.extend(part.errors);
    }
    merged.keys.sort_by_key(|(key, _)| *key);
    merged.errors.sort_by_key(|(key, _)| *key);
    merged
}

/// What a fleet run did, beyond the verdict: topology and hand-off
/// counters for operators (`kav serve` prints it; serializable for
/// progress records).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FleetSummary {
    /// Worker processes the fleet started with.
    pub workers: usize,
    /// Workers still alive at the end.
    pub workers_alive: usize,
    /// Key ranges at the end (initial partition plus splits).
    pub ranges: usize,
    /// Ranges re-assigned after a worker death.
    pub hand_offs: usize,
    /// Hand-offs whose replay chain could not be verified — each stops
    /// its range's audit at the acked snapshot (proven violations
    /// survive, tainted) and bars the fleet from certifying.
    pub uncertified_hand_offs: usize,
    /// Hot-shard splits performed.
    pub splits: usize,
    /// Frames dropped after unverifiable hand-offs (auditing across the
    /// gap could invent violations, so the coordinator refuses). Never
    /// silent: any drop bars certification.
    #[serde(default)]
    pub frames_dropped: u64,
}

/// The fleet-level certification discipline applied to a merged report:
/// any shard's NO is the fleet's NO; YES additionally requires that every
/// hand-off was verified and no frame was dropped — otherwise YES
/// degrades to UNKNOWN (`None`), exactly as a single-process unverified
/// resume degrades it. NO is never weakened.
pub fn fleet_verdict(output: &PipelineOutput, summary: &FleetSummary) -> Option<bool> {
    match output.all_k_atomic() {
        Some(true) if summary.uncertified_hand_offs > 0 || summary.frames_dropped > 0 => None,
        verdict => verdict,
    }
}

#[cfg(test)]
mod tests {
    use super::super::pipeline::{PipelineConfig, PipelineSnapshot, StreamPipeline};
    use super::*;
    use crate::Fzf;
    use kav_history::frame::KeyRange;
    use kav_history::{Operation, Time, Value};

    fn pipeline_with(keys: &[u64]) -> StreamPipeline {
        let mut pipeline = StreamPipeline::new(
            Fzf,
            PipelineConfig { shards: 1, window: 4, ..Default::default() },
        );
        // Ops derive from the key alone, so a key's stream is identical
        // whether it is pushed into a whole-space or a partitioned
        // pipeline (per-key verification never sees other keys).
        for key in keys {
            let t = 20 * key;
            pipeline.push(*key, Operation::write(Value(key + 1), Time(t), Time(t + 5)));
            pipeline.push(*key, Operation::read(Value(key + 1), Time(t + 6), Time(t + 9)));
        }
        pipeline
    }

    fn fragments(snapshot: PipelineSnapshot) -> SnapshotFragments {
        snapshot.try_into().unwrap()
    }

    fn json(snapshot: &SnapshotFragments) -> String {
        let mut out = Vec::new();
        snapshot.write_json(&mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn merge_of_a_partition_equals_the_unpartitioned_snapshot() {
        let keys: Vec<u64> = (0..40).collect();
        let whole = pipeline_with(&keys).snapshot();
        let (left, right) = KeyRange::ALL.split();
        // Each part is tagged with its range, as a fleet worker's is.
        let parts = [left, right].map(|range| {
            let mut pipe = pipeline_with(
                &keys.iter().copied().filter(|k| range.contains(*k)).collect::<Vec<_>>(),
            );
            let mut part = pipe.snapshot();
            part.partition = Some(range);
            pipe.finish();
            fragments(part)
        });
        let merged = merge_fragments(&parts, whole.ops_routed).unwrap();
        assert_eq!(merged.parse().unwrap(), whole);
        assert_eq!(
            json(&merged),
            serde_json::to_string(&whole).unwrap(),
            "merged fleet checkpoints are byte-identical to single-process ones"
        );
    }

    #[test]
    fn partition_then_merge_roundtrips() {
        let keys: Vec<u64> = (0..64).collect();
        let whole = pipeline_with(&keys).snapshot();
        let (left, right) = KeyRange::ALL.split();
        let whole_fragments = fragments(whole.clone());
        let parts = [left, right].map(|range| whole_fragments.partition(range));
        assert_eq!(parts[0].header.partition, Some(left));
        assert_eq!(parts[0].header.ops_routed, 0, "a range's snapshot counts no operation");
        assert!(parts[0].states.iter().all(|fragment| left.contains(fragment.key)));
        let merged = merge_fragments(&parts, whole.ops_routed).unwrap();
        assert_eq!(merged.parse().unwrap(), whole);
        // Slices come out sorted even from a parent whose keys are not.
        let mut shuffled = whole.clone();
        shuffled.states.reverse();
        let shuffled = fragments(shuffled);
        let parts = [left, right].map(|range| shuffled.partition(range));
        assert!(parts.iter().all(|part| part.states.is_sorted_by_key(|fragment| fragment.key)));
    }

    #[test]
    fn merge_rejects_overlap_and_mismatch_and_ors_taint() {
        let snapshot = fragments(pipeline_with(&[1, 2, 3]).snapshot());
        assert_eq!(merge_fragments([], 0), Err(MergeError::Empty));
        assert!(matches!(
            merge_fragments([&snapshot, &snapshot], 0),
            Err(MergeError::OverlappingKey(_))
        ));
        let mut other_window = fragments(pipeline_with(&[9]).snapshot());
        other_window.header.window = snapshot.header.window + 1;
        assert!(matches!(
            merge_fragments([&snapshot, &other_window], 0),
            Err(MergeError::ConfigMismatch(_))
        ));
        let mut tainted = fragments(pipeline_with(&[100]).snapshot());
        tainted.header.uncertified = true;
        let merged = merge_fragments([&snapshot, &tainted], 7).unwrap();
        assert!(merged.header.uncertified, "one tainted shard taints the fleet");
        assert_eq!(merged.header.ops_routed, 7, "the count is the caller's");
    }

    #[test]
    fn merged_reports_match_single_process_output() {
        let keys: Vec<u64> = (0..32).collect();
        let whole = pipeline_with(&keys).finish();
        let (left, right) = KeyRange::ALL.split();
        let parts = [left, right].map(|range| {
            pipeline_with(
                &keys.iter().copied().filter(|k| range.contains(*k)).collect::<Vec<_>>(),
            )
            .finish()
        });
        let merged = merge_reports(parts);
        assert_eq!(merged.keys, whole.keys);
        assert_eq!(merged.errors, whole.errors);
        assert_eq!(merged.all_k_atomic(), whole.all_k_atomic());
    }
}
