//! Every seal decision of [`StreamBuilder`], pinned to a plain reference
//! builder kept in this file. The reference holds a `Vec` of operations
//! and recomputes everything from it at each step: which reads still wait
//! for their write, which cuts are valid, which reads expire as orphans
//! and which retired values are still retained.
//!
//! Both builders are driven over arbitrary completion-order streams on a
//! small value domain: reads arrive before their writes, writes go
//! missing, values repeat and reads fall beyond the horizon. Every push
//! outcome or error, every sealed or flushed segment and every occupancy
//! counter must agree after every step, across a JSON snapshot round
//! trip of the real builder.

use kav_history::stream::{BuilderSnapshot, Push, StreamBuilder, StreamConfig, StreamError};
use kav_history::{OpKind, Operation, Time, Value, Weight};
use proptest::prelude::*;

/// The builder's rules, written the obvious way.
struct Reference {
    horizon: Option<usize>,
    watermark: Option<Time>,
    /// Buffered operations in arrival order, each with its orphan mark.
    buffer: Vec<(Operation, bool)>,
    /// Values of every write ever retired, oldest first.
    retired: Vec<Value>,
    orphaned_reads: u64,
    peak_resident: usize,
    peak_retired: usize,
}

impl Reference {
    fn new(horizon: Option<usize>) -> Self {
        Reference {
            horizon,
            watermark: None,
            buffer: Vec::new(),
            retired: Vec::new(),
            orphaned_reads: 0,
            peak_resident: 0,
            peak_retired: 0,
        }
    }

    /// The retired values still retained: the newest `horizon` of them.
    fn retained(&self) -> &[Value] {
        let keep = self.horizon.unwrap_or(usize::MAX).min(self.retired.len());
        &self.retired[self.retired.len() - keep..]
    }

    /// Position of the buffered write of `value`, if one is buffered.
    fn buffered_write(&self, value: Value) -> Option<usize> {
        self.buffer.iter().position(|(op, _)| op.is_write() && op.value == value)
    }

    fn push(&mut self, op: Operation) -> Result<Push, StreamError> {
        if op.finish <= op.start {
            return Err(StreamError::EmptyInterval { op });
        }
        if op.weight.as_u32() == 0 {
            return Err(StreamError::ZeroWeight { op });
        }
        if let Some(watermark) = self.watermark.filter(|&mark| op.finish <= mark) {
            return Err(StreamError::OutOfOrder { op, watermark });
        }
        let known = self.buffered_write(op.value).is_some();
        if op.is_write() && (known || self.retained().contains(&op.value)) {
            return Err(StreamError::DuplicateWriteValue { value: op.value });
        }
        self.watermark = Some(op.finish);
        let forgotten = self.retained().len() < self.retired.len();
        if op.is_read() && !known && (forgotten || self.retained().contains(&op.value)) {
            return Ok(Push::BeyondHorizon);
        }
        self.buffer.push((op, false));
        self.peak_resident = self.peak_resident.max(self.buffer.len());
        Ok(Push::Buffered)
    }

    /// For each buffered non-orphan read: the position of its buffered
    /// write, or `None` while it still waits for one.
    fn reads(&self) -> Vec<(usize, Option<usize>)> {
        (0..self.buffer.len())
            .filter(|&j| self.buffer[j].0.is_read() && !self.buffer[j].1)
            .map(|j| (j, self.buffered_write(self.buffer[j].0.value)))
            .collect()
    }

    fn try_seal(&mut self, max_resident: usize) -> Option<Vec<Operation>> {
        let len = self.buffer.len();
        if len <= max_resident {
            return None;
        }
        let expiry = 4 * max_resident.max(1);
        for (j, write) in self.reads() {
            if write.is_none() && j + expiry < len {
                self.buffer[j].1 = true;
                self.orphaned_reads += 1;
            }
        }
        // A cut seals the first `cut` operations: it may not separate a
        // read from its buffered write, nor seal a read still waiting.
        let reads = self.reads();
        let valid: Vec<usize> = (1..=len)
            .filter(|&cut| {
                reads.iter().all(|&(j, write)| match write {
                    Some(i) => (i < cut) == (j < cut),
                    None => j >= cut,
                })
            })
            .collect();
        let target = len - max_resident;
        let cut = valid.iter().copied().find(|&cut| cut >= target).or(valid.last().copied())?;
        Some(self.drain(cut))
    }

    fn flush(&mut self) -> Vec<Operation> {
        self.drain(self.buffer.len())
    }

    /// Seals the first `cut` operations, orphans left out.
    fn drain(&mut self, cut: usize) -> Vec<Operation> {
        let sealed: Vec<Operation> =
            self.buffer.drain(..cut).filter(|&(_, orphan)| !orphan).map(|(op, _)| op).collect();
        self.retired.extend(sealed.iter().filter(|op| op.is_write()).map(|op| op.value));
        self.peak_retired = self.peak_retired.max(self.retained().len());
        sealed
    }
}

/// One step: an operation drawn near the step's position in the stream,
/// then a code: 0–8 seals at that window, 19 flushes, the rest do nothing.
fn arb_step() -> impl Strategy<Value = ((bool, u64, u64, u64, u32), u8)> {
    ((any::<bool>(), 0u64..6, 0u64..12, 0u64..40, 0u32..24), 0u8..20)
}

/// Compares every occupancy counter of the two builders.
fn same_counters(b: &StreamBuilder, r: &Reference, step: usize) -> Result<(), TestCaseError> {
    prop_assert_eq!(b.resident(), r.buffer.len(), "resident after step {}", step);
    prop_assert_eq!(b.peak_resident(), r.peak_resident, "peak_resident after step {}", step);
    prop_assert_eq!(b.orphaned_reads(), r.orphaned_reads, "orphaned_reads after step {}", step);
    prop_assert_eq!(b.retired_total(), r.retired.len() as u64, "retired_total after step {}", step);
    prop_assert_eq!(b.peak_retired(), r.peak_retired, "peak_retired after step {}", step);
    Ok(())
}

/// A builder resumed from a JSON round trip of `b`'s snapshot.
fn round_trip(b: &StreamBuilder) -> Result<StreamBuilder, TestCaseError> {
    let snapshot = b.snapshot();
    let json = serde_json::to_string(&snapshot).expect("snapshot serializes");
    let back: BuilderSnapshot = serde_json::from_str(&json).expect("snapshot parses");
    let resumed = StreamBuilder::resume(&back).map_err(|e| TestCaseError::fail(e.to_string()))?;
    prop_assert_eq!(resumed.snapshot(), snapshot);
    Ok(resumed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Push outcomes and errors, sealed and flushed segments, `resident`,
    /// `peak_resident`, `orphaned_reads`, `retired_total` and
    /// `peak_retired` match the reference after every step, at horizons
    /// 0–4 and unbounded, with one snapshot resume per case.
    #[test]
    fn seal_decisions_match_the_reference(
        horizon in 0usize..6,
        steps in prop::collection::vec(arb_step(), 0..80),
        resume_at in any::<prop::sample::Index>(),
    ) {
        let horizon = (horizon <= 4).then_some(horizon);
        let mut builder = StreamBuilder::with_config(StreamConfig { horizon });
        let mut reference = Reference::new(horizon);
        let resume_at = resume_at.index(steps.len() + 1);
        let mut t = 0u64;
        for (step, &((is_read, near, gap, span, weight), code)) in steps.iter().enumerate() {
            if step == resume_at {
                builder = round_trip(&builder)?;
            }
            // Finishes mostly rise (a zero gap repeats the last one), and
            // values stay near the step so reads find recent writes.
            t += gap;
            let op = Operation {
                kind: if is_read { OpKind::Read } else { OpKind::Write },
                value: Value(step as u64 / 2 + near),
                start: Time(t.saturating_sub(span)),
                finish: Time(t),
                weight: Weight(match weight { 0 => 0, 1 => 2, _ => 1 }),
                client: step as u64 % 3,
            };
            prop_assert_eq!(builder.push(op), reference.push(op), "push at step {}", step);
            match usize::from(code) {
                window @ 0..=8 => prop_assert_eq!(
                    builder.try_seal(window).map(|segment| segment.ops),
                    reference.try_seal(window),
                    "try_seal({}) at step {}", window, step
                ),
                19 => prop_assert_eq!(builder.flush().ops, reference.flush(), "flush at step {}", step),
                _ => {}
            }
            same_counters(&builder, &reference, step)?;
        }
        if resume_at == steps.len() {
            builder = round_trip(&builder)?;
        }
        prop_assert_eq!(builder.flush().ops, reference.flush(), "final flush");
        same_counters(&builder, &reference, steps.len())?;
    }
}
