//! Adversarial wire-protocol tests: a coordinator or worker fed a
//! malformed, truncated, misrouted or replayed stream must fail loudly
//! with a diagnostic ([`ProtocolError`] → exit 2 in the CLI) and **never**
//! produce a wrong verdict. Every rejection path of the framing layer is
//! exercised from outside, speaking raw bytes.
//!
//! [`ProtocolError`]: k_atomicity::verify::ProtocolError

use k_atomicity::history::frame::KeyRange;
use k_atomicity::history::{History, Operation, Time, Value, Weight};
use k_atomicity::verify::protocol::{
    expect_preamble, read_message, tag, write_message, Batch, FinishReply, RangeOutput,
    RangeSnapshot, SnapshotReply, Worker, COORDINATOR_MAGIC, WORKER_MAGIC,
};
use k_atomicity::verify::{
    worker_loop, FleetConfig, FleetCoordinator, FleetSummary, Fzf, LayoutError, ModelId,
    PipelineConfig, ProtocolError, SnapshotFragments, StreamPipeline, Verdict, Verifier,
    WorkerLink,
};
use k_atomicity::workloads::{streaming_workload, StreamingWorkloadConfig};
use std::borrow::Cow;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Worker-side rejections: a test driver plays coordinator over raw bytes.
// ---------------------------------------------------------------------------

/// Spawns one `worker_loop` (Fzf, k = 2) and returns the driver-side
/// socket plus the handle resolving to the loop's exit.
fn spawn_worker() -> (UnixStream, JoinHandle<Result<(), ProtocolError>>) {
    let (driver, worker) = UnixStream::pair().expect("socketpair");
    let handle = std::thread::spawn(move || {
        let input = worker.try_clone().expect("clone");
        worker_loop(Fzf, input, worker)
    });
    (driver, handle)
}

/// Completes the preamble exchange as a well-behaved coordinator would.
fn handshake(driver: &mut UnixStream) {
    driver.write_all(&COORDINATOR_MAGIC).unwrap();
    driver.flush().unwrap();
    expect_preamble(driver, WORKER_MAGIC).expect("worker announces itself");
}

/// Sends `assignment` to the worker.
fn send(socket: &mut UnixStream, assignment: &RangeSnapshot) {
    assignment.write_message(socket, tag::ASSIGN).unwrap();
    socket.flush().unwrap();
}

/// Sends a valid assignment of `range` to the worker: a fresh range,
/// which starts from an empty snapshot tagged with it.
fn assign(socket: &mut UnixStream, range: KeyRange) {
    send(socket, &RangeSnapshot { range, snapshot: tagged_snapshot(range) });
}

/// Drains the worker's ERROR reply (its best-effort diagnostic before
/// dying) and asserts the diagnostic mentions `needle`.
fn expect_error_reply(driver: &mut UnixStream, needle: &str) {
    let (got, payload) = read_message(driver).expect("a diagnostic, not silence");
    assert_eq!(got, tag::ERROR, "the worker must flag the fault");
    let text = String::from_utf8_lossy(&payload).into_owned();
    assert!(
        text.contains(needle),
        "diagnostic {text:?} should mention {needle:?}"
    );
}

fn one_frame_batch(key: u64) -> [(u64, Operation); 1] {
    [(key, Operation::write(Value(1), Time(0), Time(5)))]
}

/// The BATCH payload routing `ops` to `range`, as a coordinator sends it.
fn batch_payload(range: KeyRange, ops: &[(u64, Operation)]) -> Vec<u8> {
    let mut bytes = Vec::new();
    Batch { range, ops: Cow::Borrowed(ops) }.write_message(&mut bytes).unwrap();
    let (got, payload) = read_message(&mut bytes.as_slice()).unwrap();
    assert_eq!(got, tag::BATCH);
    payload
}

#[test]
fn worker_rejects_a_bad_preamble() {
    let (mut driver, handle) = spawn_worker();
    driver.write_all(b"KAVX9999").unwrap();
    driver.flush().unwrap();
    let exit = handle.join().unwrap();
    assert!(
        matches!(exit, Err(ProtocolError::BadPreamble { .. })),
        "got {exit:?}"
    );
    drop(driver);
}

#[test]
fn worker_rejects_a_batch_with_bad_magic() {
    let (mut driver, handle) = spawn_worker();
    handshake(&mut driver);
    assign(&mut driver, KeyRange::ALL);
    // Garbage where the range header was: `XXXX` reads as a range of
    // 0x5858_5858 bits, which no key range can be.
    let mut payload = batch_payload(KeyRange::ALL, &one_frame_batch(1));
    payload[..4].copy_from_slice(b"XXXX");
    write_message(&mut driver, tag::BATCH, &payload).unwrap();
    driver.flush().unwrap();
    expect_error_reply(&mut driver, "invalid key range");
    assert!(matches!(
        handle.join().unwrap(),
        Err(ProtocolError::Layout(LayoutError::BadRange(range))) if range.bits == 0x5858_5858
    ));
}

#[test]
fn worker_rejects_truncated_frames() {
    let (mut driver, handle) = spawn_worker();
    handshake(&mut driver);
    assign(&mut driver, KeyRange::ALL);
    // Chop the payload mid-frame: the frame is no longer whole.
    let full = batch_payload(KeyRange::ALL, &one_frame_batch(1));
    write_message(&mut driver, tag::BATCH, &full[..full.len() - 7]).unwrap();
    driver.flush().unwrap();
    expect_error_reply(&mut driver, "truncated");
    assert!(matches!(
        handle.join().unwrap(),
        Err(ProtocolError::Layout(LayoutError::Truncated { needed: 45, left: 38, .. }))
    ));
}

#[test]
fn worker_rejects_keys_routed_outside_the_range() {
    let (low, high) = KeyRange::ALL.split();
    let high_key = (0u64..).find(|k| high.contains(*k)).unwrap();

    let (mut driver, handle) = spawn_worker();
    handshake(&mut driver);
    assign(&mut driver, low);
    // A batch *tagged* with the assigned range but smuggling a foreign
    // key: the frame-level validation must catch the mismatch before
    // the key is ever audited under the wrong shard.
    let payload = batch_payload(low, &one_frame_batch(high_key));
    write_message(&mut driver, tag::BATCH, &payload).unwrap();
    driver.flush().unwrap();
    expect_error_reply(&mut driver, "outside");
    assert!(matches!(
        handle.join().unwrap(),
        Err(ProtocolError::Layout(LayoutError::ForeignKey { key, range }))
            if key == high_key && range == low
    ));
}

#[test]
fn worker_rejects_batches_for_unassigned_ranges() {
    let (low, high) = KeyRange::ALL.split();
    let high_key = (0u64..).find(|k| high.contains(*k)).unwrap();
    let (mut driver, handle) = spawn_worker();
    handshake(&mut driver);
    assign(&mut driver, low);
    // Correctly self-consistent batch, but for a range nobody gave us.
    let payload = batch_payload(high, &one_frame_batch(high_key));
    write_message(&mut driver, tag::BATCH, &payload).unwrap();
    driver.flush().unwrap();
    expect_error_reply(&mut driver, "does not own");
    assert!(matches!(
        handle.join().unwrap(),
        Err(ProtocolError::UnassignedRange(_))
    ));
}

#[test]
fn worker_rejects_duplicate_assignments() {
    let (mut driver, handle) = spawn_worker();
    handshake(&mut driver);
    assign(&mut driver, KeyRange::ALL);
    assign(&mut driver, KeyRange::ALL);
    expect_error_reply(&mut driver, "twice");
    assert!(matches!(
        handle.join().unwrap(),
        Err(ProtocolError::DuplicateAssignment(_))
    ));
}

#[test]
fn worker_rejects_a_mismatched_verifier() {
    let (mut socket, handle) = spawn_worker();
    handshake(&mut socket);
    let mut snapshot = tagged_snapshot(KeyRange::ALL);
    snapshot.header.algo = "genk".to_owned(); // the worker runs fzf
    send(&mut socket, &RangeSnapshot { range: KeyRange::ALL, snapshot });
    expect_error_reply(&mut socket, "genk");
    assert!(matches!(
        handle.join().unwrap(),
        Err(ProtocolError::VerifierMismatch(_))
    ));
}

#[test]
fn worker_rejects_an_assignment_tagged_for_another_range() {
    // Every range starts by resuming its snapshot, so every ASSIGN checks
    // the snapshot's tag against the range it hands out.
    let (mut socket, handle) = spawn_worker();
    handshake(&mut socket);
    let (low, high) = KeyRange::ALL.split();
    let snapshot = tagged_snapshot(high);
    send(&mut socket, &RangeSnapshot { range: low, snapshot });
    expect_error_reply(&mut socket, "different shard map");
    assert!(matches!(
        handle.join().unwrap(),
        Err(ProtocolError::PartitionMismatch { range, snapshot })
            if range == low && snapshot == Some(high)
    ));
}

#[test]
fn worker_refuses_out_of_range_key_ranges() {
    // A RETIRE for a range no key range can be: refused with an ERROR
    // before anything prints it.
    let (mut driver, handle) = spawn_worker();
    handshake(&mut driver);
    write_message(&mut driver, tag::RETIRE, br#"{"bits":4000000000,"prefix":0}"#).unwrap();
    driver.flush().unwrap();
    expect_error_reply(&mut driver, "invalid key range");
    assert!(matches!(handle.join().unwrap(), Err(ProtocolError::Json(_))));

    // An ASSIGN whose snapshot header is tagged with such a range.
    let (mut driver, handle) = spawn_worker();
    handshake(&mut driver);
    let (low, _) = KeyRange::ALL.split();
    let bad = KeyRange { bits: 70_000, prefix: 0 };
    let mut snapshot = tagged_snapshot(low);
    snapshot.header.partition = Some(bad);
    send(&mut driver, &RangeSnapshot { range: low, snapshot });
    expect_error_reply(&mut driver, "invalid key range");
    assert!(matches!(
        handle.join().unwrap(),
        Err(ProtocolError::Layout(LayoutError::BadRange(range))) if range == bad
    ));
}

#[test]
fn worker_rejects_unknown_tags_and_oversized_lengths() {
    let (mut driver, handle) = spawn_worker();
    handshake(&mut driver);
    write_message(&mut driver, 250, b"whatever").unwrap();
    driver.flush().unwrap();
    expect_error_reply(&mut driver, "tag");
    assert!(matches!(handle.join().unwrap(), Err(ProtocolError::UnknownTag(_))));

    // A corrupt length prefix must be refused before allocation.
    let (mut driver, handle) = spawn_worker();
    handshake(&mut driver);
    driver.write_all(&[tag::BATCH]).unwrap();
    driver.write_all(&u32::MAX.to_le_bytes()).unwrap();
    driver.flush().unwrap();
    let exit = handle.join().unwrap();
    assert!(matches!(exit, Err(ProtocolError::Oversized(_))), "got {exit:?}");
}

#[test]
fn worker_treats_a_torn_message_as_a_transport_fault() {
    let (mut driver, handle) = spawn_worker();
    handshake(&mut driver);
    // A message header promising more bytes than ever arrive.
    driver.write_all(&[tag::BATCH]).unwrap();
    driver.write_all(&100u32.to_le_bytes()).unwrap();
    driver.write_all(b"short").unwrap();
    driver.flush().unwrap();
    drop(driver); // EOF mid-message
    let exit = handle.join().unwrap();
    assert!(
        matches!(exit, Err(ProtocolError::Io(_))),
        "mid-message EOF is a torn transport, got {exit:?}"
    );
}

// ---------------------------------------------------------------------------
// Coordinator-side rejections: a fake worker plays back corrupt replies.
// ---------------------------------------------------------------------------

/// A scripted fake worker: answers the preamble, consumes assignments and
/// replies to every SNAPSHOT with the snapshots produced by `reply` —
/// allowing replayed versions and mis-tagged partitions.
fn scripted_worker(
    mut reply: impl FnMut(u64) -> SnapshotReply + Send + 'static,
) -> (WorkerLink, JoinHandle<()>) {
    let (coordinator_side, mut worker_side) = UnixStream::pair().expect("socketpair");
    let handle = std::thread::spawn(move || {
        let mut probes = 0u64;
        if expect_preamble(&mut worker_side, COORDINATOR_MAGIC).is_err() {
            return;
        }
        worker_side.write_all(&WORKER_MAGIC).unwrap();
        worker_side.flush().unwrap();
        loop {
            let Ok((got, _payload)) = read_message(&mut worker_side) else {
                return;
            };
            match got {
                tag::ASSIGN | tag::BATCH => {}
                tag::SNAPSHOT => {
                    probes += 1;
                    reply(probes).write_message(&mut worker_side).unwrap();
                    worker_side.flush().unwrap();
                }
                _ => return,
            }
        }
    });
    let link = WorkerLink {
        writer: Box::new(coordinator_side.try_clone().expect("clone")),
        reader: Box::new(coordinator_side),
    };
    (link, handle)
}

/// The decoded BATCH messages a [`recording_worker`] received, in order.
type Batches = Vec<Batch<'static>>;

/// A recording fake worker: answers the preamble, decodes every BATCH
/// through `Batch::decode` (which refuses an empty one) and records it,
/// and answers FINISH with
/// its owned ranges and no reports. With `die_after: Some(n)` it closes
/// its socket once it has received `n` batches.
fn recording_worker(die_after: Option<usize>) -> (WorkerLink, JoinHandle<Batches>) {
    let (coordinator_side, mut worker_side) = UnixStream::pair().expect("socketpair");
    let handle = std::thread::spawn(move || {
        let mut batches = Batches::new();
        let mut owned = Vec::new();
        expect_preamble(&mut worker_side, COORDINATOR_MAGIC).unwrap();
        worker_side.write_all(&WORKER_MAGIC).unwrap();
        worker_side.flush().unwrap();
        while die_after != Some(batches.len()) {
            let (got, payload) = read_message(&mut worker_side).unwrap();
            match got {
                tag::ASSIGN => owned.push(RangeSnapshot::decode(payload).unwrap().range),
                tag::BATCH => batches.push(Batch::decode(payload).unwrap()),
                tag::FINISH => {
                    let ranges = owned
                        .iter()
                        .map(|&range| RangeOutput { range, keys: vec![], errors: vec![] })
                        .collect();
                    let payload = serde_json::to_string(&FinishReply { ranges }).unwrap();
                    write_message(&mut worker_side, tag::FINISH_REPLY, payload.as_bytes()).unwrap();
                    worker_side.flush().unwrap();
                    break;
                }
                other => panic!("unexpected message tag {other}"),
            }
        }
        batches
    });
    let link = WorkerLink {
        writer: Box::new(coordinator_side.try_clone().expect("clone")),
        reader: Box::new(coordinator_side),
    };
    (link, handle)
}

fn fleet_config() -> FleetConfig {
    FleetConfig {
        algo: "fzf".to_owned(),
        model: ModelId::KAtomic,
        k: 2,
        window: 8,
        horizon: None,
        batch: 4,
        checkpoint_every: 0,
        replay_cap: 1 << 16,
    }
}

/// A well-formed snapshot of the Fzf (k = 2, window 8) fleet's range
/// `range`, tagged with it, holding each of `keys` after one write.
fn snapshot_with(range: KeyRange, keys: impl IntoIterator<Item = u64>) -> SnapshotFragments {
    let mut pipeline = StreamPipeline::new(
        Fzf,
        PipelineConfig { shards: 1, window: 8, ..Default::default() },
    );
    for key in keys {
        pipeline.push(key, Operation::write(Value(1), Time(0), Time(5)));
    }
    let mut snapshot = pipeline.snapshot();
    pipeline.finish();
    snapshot.partition = Some(range);
    snapshot.try_into().unwrap()
}

/// A well-formed, empty snapshot of the fleet's range `range`, tagged
/// with it.
fn tagged_snapshot(range: KeyRange) -> SnapshotFragments {
    snapshot_with(range, [])
}

#[test]
fn coordinator_rejects_replayed_snapshot_versions() {
    // The fake worker answers every probe with version 1: the second
    // probe's reply must be refused (a replayed cut cannot be trusted).
    let (link, handle) = scripted_worker(|_probes| SnapshotReply {
        version: 1,
        ranges: vec![RangeSnapshot {
            range: KeyRange::ALL,
            snapshot: tagged_snapshot(KeyRange::ALL),
        }],
    });
    let mut fleet = FleetCoordinator::new(fleet_config(), vec![link]).expect("fleet start");
    fleet.snapshot_fleet().expect("the first probe is fine");
    let err = fleet.snapshot_fleet().expect_err("a replayed version must be refused");
    assert!(
        matches!(err, ProtocolError::SnapshotVersion { got: 1, last: 1 }),
        "got {err:?}"
    );
    assert!(
        !err.to_string().is_empty(),
        "the refusal carries a diagnostic for exit 2"
    );
    drop(fleet);
    handle.join().unwrap();
}

#[test]
fn coordinator_rejects_mistagged_partition_snapshots() {
    // Replies are versioned correctly but the snapshot claims a foreign
    // partition: certification discipline must refuse the merge.
    let (link, handle) = scripted_worker(|probes| {
        let mut snapshot = tagged_snapshot(KeyRange::ALL);
        snapshot.header.partition = Some(KeyRange::ALL.split().1); // wrong tag
        SnapshotReply {
            version: probes,
            ranges: vec![RangeSnapshot { range: KeyRange::ALL, snapshot }],
        }
    });
    let mut fleet = FleetCoordinator::new(fleet_config(), vec![link]).expect("fleet start");
    let err = fleet.snapshot_fleet().expect_err("a mis-tagged snapshot must be refused");
    assert!(matches!(err, ProtocolError::PartitionMismatch { .. }), "got {err:?}");
    drop(fleet);
    handle.join().unwrap();
}

#[test]
fn coordinator_rejects_replies_for_unowned_ranges() {
    let (link, handle) = scripted_worker(|probes| {
        let (low, _high) = KeyRange::ALL.split();
        let mut snapshot = tagged_snapshot(KeyRange::ALL);
        snapshot.header.partition = Some(low);
        SnapshotReply {
            version: probes,
            ranges: vec![RangeSnapshot { range: low, snapshot }], // owns ALL, reports low
        }
    });
    let mut fleet = FleetCoordinator::new(fleet_config(), vec![link]).expect("fleet start");
    let err = fleet.snapshot_fleet().expect_err("reporting foreign ranges must be refused");
    assert!(matches!(err, ProtocolError::UnassignedRange(_)), "got {err:?}");
    drop(fleet);
    handle.join().unwrap();
}

#[test]
fn coordinator_refuses_a_bad_worker_preamble() {
    let (coordinator_side, mut worker_side) = UnixStream::pair().expect("socketpair");
    let handle = std::thread::spawn(move || {
        let mut preamble = [0u8; 8];
        worker_side.read_exact(&mut preamble).unwrap();
        worker_side.write_all(b"NOTMAGIC").unwrap();
        worker_side.flush().unwrap();
    });
    let link = WorkerLink {
        writer: Box::new(coordinator_side.try_clone().expect("clone")),
        reader: Box::new(coordinator_side),
    };
    let err = FleetCoordinator::new(fleet_config(), vec![link])
        .err()
        .expect("a fleet must not start over a bad preamble");
    assert!(matches!(err, ProtocolError::BadPreamble { .. }), "got {err:?}");
    handle.join().unwrap();
}

#[test]
fn a_worker_dead_before_its_preamble_is_buried() {
    // A link whose worker end closed before the preamble exchange.
    let dead_link = || {
        let (coordinator_side, worker_side) = UnixStream::pair().expect("socketpair");
        drop(worker_side);
        WorkerLink {
            writer: Box::new(coordinator_side.try_clone().expect("clone")),
            reader: Box::new(coordinator_side),
        }
    };
    let records = streaming_workload(StreamingWorkloadConfig {
        keys: 8,
        ops_per_key: 30,
        k: 2,
        seed: 11,
        ..Default::default()
    });
    let (live, live_handle) = worker_link(Fzf);
    let mut fleet = FleetCoordinator::new(fleet_config(), vec![dead_link(), live])
        .expect("the fleet starts on the live worker");
    let config = PipelineConfig { shards: 2, window: 8, ..Default::default() };
    let mut single = StreamPipeline::new(Fzf, config);
    for record in &records {
        fleet.push(record.key, record.op()).unwrap();
        single.push(record.key, record.op());
    }
    let (output, summary) = fleet.finish().expect("the live worker finishes the audit");
    live_handle.join().unwrap().expect("the live worker exits cleanly");
    let single = single.finish();
    assert_eq!(output.keys, single.keys);
    assert_eq!(output.errors, single.errors);
    assert_eq!((summary.workers, summary.workers_alive), (2, 1));

    // With no worker alive the fleet cannot start.
    let err = FleetCoordinator::new(fleet_config(), vec![dead_link(), dead_link()])
        .err()
        .expect("a fleet with no live worker must not start");
    assert!(matches!(err, ProtocolError::Disconnected), "got {err:?}");
}

// ---------------------------------------------------------------------------
// Hand-off delivery: what a survivor receives after its peer dies.
// ---------------------------------------------------------------------------

/// Runs a two-worker fleet at batch 4 whose worker 0 closes its socket
/// after `die_after` batches, routing `writes` writes to one key of worker
/// 0's range. The dying worker is joined right before the push whose flush
/// first meets its closed socket, so the failure is deterministic.
/// Returns the writes, the survivor's batches for that range, and the
/// fleet summary.
fn hand_off_run(
    replay_cap: usize,
    die_after: usize,
    writes: u64,
) -> (Vec<(u64, Operation)>, Batches, FleetSummary) {
    let range = KeyRange::partition(2)[0];
    let key = (0u64..).find(|k| range.contains(*k)).unwrap();
    let (dying, dying_handle) = recording_worker(Some(die_after));
    let (survivor, survivor_handle) = recording_worker(None);
    let config = FleetConfig { replay_cap, ..fleet_config() };
    let mut fleet = FleetCoordinator::new(config, vec![dying, survivor]).expect("fleet start");
    let ops: Vec<_> = (1..=writes)
        .map(|v| (key, Operation::write(Value(v), Time(10 * v), Time(10 * v + 5))))
        .collect();
    let mut dying_handle = Some(dying_handle);
    for (i, (key, op)) in ops.iter().enumerate() {
        // At batch 4 the range flushes on every fourth push, so push
        // 4n + 3 (0-based) sends the batch after the dying worker's n-th.
        if i == 4 * die_after + 3 {
            let received = dying_handle.take().unwrap().join().unwrap();
            assert_eq!(received.len(), die_after);
        }
        fleet.push(*key, *op).unwrap();
    }
    let (_, summary) = fleet.finish().expect("the survivor finishes the audit");
    let batches =
        survivor_handle.join().unwrap().into_iter().filter(|b| b.range == range).collect();
    (ops, batches, summary)
}

#[test]
fn an_intact_replay_is_re_sent_once() {
    let (ops, batches, summary) = hand_off_run(1 << 16, 1, 14);
    let received: Vec<_> = batches.into_iter().flat_map(|b| b.ops.into_owned()).collect();
    assert_eq!(received, ops, "the replay and the rest, each once, in routing order");
    assert_eq!((summary.hand_offs, summary.uncertified_hand_offs), (1, 0));
}

#[test]
fn an_overflowed_replay_drops_the_rest() {
    let (_, batches, summary) = hand_off_run(6, 2, 20);
    assert!(batches.is_empty(), "no write may reach the survivor across the gap: {batches:?}");
    assert_eq!(summary.frames_dropped, 8);
    assert_eq!((summary.hand_offs, summary.uncertified_hand_offs), (1, 1));
}

// ---------------------------------------------------------------------------
// Hostile bytes on the snapshot layout: every fault is a typed error.
// ---------------------------------------------------------------------------

/// The first `n` keys of `range`.
fn keys_in(range: KeyRange, n: usize) -> Vec<u64> {
    (0u64..).filter(|k| range.contains(*k)).take(n).collect()
}

/// A SNAPSHOT_REPLY payload covering `ranges` (each holding three keys of
/// its own), as a worker sends it.
fn reply_payload(entries: Vec<RangeSnapshot>) -> Vec<u8> {
    let mut bytes = Vec::new();
    SnapshotReply { version: 7, ranges: entries }.write_message(&mut bytes).unwrap();
    let (got, payload) = read_message(&mut bytes.as_slice()).unwrap();
    assert_eq!(got, tag::SNAPSHOT_REPLY);
    payload
}

fn entry(range: KeyRange, keys: Vec<u64>) -> RangeSnapshot {
    RangeSnapshot { range, snapshot: snapshot_with(range, keys) }
}

/// The layout fault `payload` decodes to, as a SNAPSHOT_REPLY.
fn reply_fault(payload: Vec<u8>) -> LayoutError {
    match SnapshotReply::decode(payload) {
        Err(ProtocolError::Layout(e)) => e,
        other => panic!("expected a layout fault, got {other:?}"),
    }
}

#[test]
fn hostile_snapshot_bytes_are_typed_errors() {
    let (low, high) = KeyRange::ALL.split();
    let valid = reply_payload(vec![entry(low, keys_in(low, 3)), entry(high, keys_in(high, 3))]);
    let decoded = SnapshotReply::decode(valid.clone()).expect("a worker's reply decodes");
    assert_eq!(decoded.version, 7);
    assert_eq!(decoded.ranges[1].snapshot.states.len(), 3);
    assert_eq!(decoded.ranges[1].snapshot, snapshot_with(high, keys_in(high, 3)));

    // Every truncation, of a reply and of a lone range snapshot.
    for cut in 0..valid.len() {
        assert!(
            matches!(reply_fault(valid[..cut].to_vec()), LayoutError::Truncated { .. }),
            "cut at {cut}"
        );
    }
    let mut single = Vec::new();
    entry(low, keys_in(low, 3)).write_message(&mut single, tag::ASSIGN).unwrap();
    let (_, single) = read_message(&mut single.as_slice()).unwrap();
    RangeSnapshot::decode(single.clone()).expect("a lone range snapshot decodes");
    for cut in 0..single.len() {
        assert!(
            matches!(
                RangeSnapshot::decode(single[..cut].to_vec()),
                Err(ProtocolError::Layout(LayoutError::Truncated { .. }))
            ),
            "cut at {cut}"
        );
    }

    // Length prefixes: u32::MAX, and one byte past the payload's end. The
    // reply header is 12 bytes, the range's fixed fields 28; the first
    // fragment's length follows its key.
    let (header_len, states, first_len) = (12 + 12, 12 + 16, 12 + 28 + 8);
    for at in [header_len, states, first_len] {
        for len in [u32::MAX, (valid.len() - at) as u32] {
            let mut bad = valid.clone();
            bad[at..at + 4].copy_from_slice(&len.to_le_bytes());
            assert!(
                matches!(reply_fault(bad), LayoutError::Truncated { .. }),
                "length {len} at offset {at}"
            );
        }
    }
    let mut bad = valid.clone();
    bad[8..12].copy_from_slice(&u32::MAX.to_le_bytes()); // the range count
    assert!(matches!(reply_fault(bad), LayoutError::Truncated { .. }));

    // Keys outside their range, and keys that do not strictly ascend.
    let foreign = reply_payload(vec![RangeSnapshot {
        range: low,
        snapshot: snapshot_with(low, keys_in(high, 1)),
    }]);
    assert!(matches!(reply_fault(foreign), LayoutError::ForeignKey { range, .. } if range == low));
    let mut descending = snapshot_with(low, keys_in(low, 3));
    descending.states.reverse();
    let descending = reply_payload(vec![RangeSnapshot { range: low, snapshot: descending }]);
    assert!(matches!(reply_fault(descending), LayoutError::KeyOrder { .. }));

    // One key in two ranges: the whole space and its low half both hold it.
    let key = keys_in(low, 1);
    let twice =
        reply_payload(vec![entry(KeyRange::ALL, key.clone()), entry(low, key)]);
    assert_eq!(reply_fault(twice), LayoutError::OverlappingRanges(KeyRange::ALL, low));

    // A header tagged with a partition no key range can be.
    let bad = KeyRange { bits: 70_000, prefix: 0 };
    let mut mistagged = snapshot_with(low, keys_in(low, 1));
    mistagged.header.partition = Some(bad);
    let mistagged = reply_payload(vec![RangeSnapshot { range: low, snapshot: mistagged }]);
    assert_eq!(reply_fault(mistagged), LayoutError::BadRange(bad));

    // Trailing bytes.
    let mut trailing = valid.clone();
    trailing.push(0);
    assert_eq!(reply_fault(trailing), LayoutError::TrailingBytes(1));
    let mut trailing = single.clone();
    trailing.extend_from_slice(b"{}");
    assert!(matches!(
        RangeSnapshot::decode(trailing),
        Err(ProtocolError::Layout(LayoutError::TrailingBytes(2)))
    ));

    // A fragment indexed under another key of the range than its own:
    // the third index entry's key, relabelled as the range's fourth key.
    let mut relabelled = valid.clone();
    let (third_key, fourth) = (first_len - 8 + 2 * 12, keys_in(low, 4)[3]);
    relabelled[third_key..third_key + 8].copy_from_slice(&fourth.to_le_bytes());
    assert_eq!(reply_fault(relabelled), LayoutError::Mislabelled { key: fourth });

    // BATCH payloads go through the same cursor: `bits u32 | prefix u64`,
    // then one 45-byte v2 frame per operation, its kind byte at offset 36.
    // Random operations round-trip, client tags and push order included.
    let mut seed = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    for len in 1..=64 {
        let range = [KeyRange::ALL, low, high][len % 3];
        let mut ops = Vec::with_capacity(len);
        while ops.len() < len {
            let (key, value, start) = (next(), next(), next());
            let client = [0, u64::MAX, next()][next() as usize % 3];
            let (start, finish) = (Time(start), Time(start.saturating_add(next() % 100)));
            let op = if value % 2 == 0 {
                Operation::weighted_write(Value(value), start, finish, Weight(next() as u32))
            } else {
                Operation::read(Value(value), start, finish)
            };
            if range.contains(key) {
                ops.push((key, op.with_client(client)));
            }
        }
        let decoded = Batch::decode(batch_payload(range, &ops)).expect("a valid batch decodes");
        assert_eq!((decoded.range, decoded.ops.as_ref()), (range, ops.as_slice()));
    }
    let range = low;
    let ops: Vec<_> = keys_in(range, 3).into_iter().flat_map(one_frame_batch).collect();
    let batch = batch_payload(range, &ops);
    let batch_fault = |payload: Vec<u8>| match Batch::decode(payload) {
        Err(ProtocolError::Layout(e)) => e,
        other => panic!("expected a layout fault, got {other:?}"),
    };
    // Every truncation: a cut at a frame boundary is a shorter batch (the
    // message framing, not the payload, says where a message ends); any
    // other cut, the range header alone included, is truncated.
    for cut in 0..batch.len() {
        let whole = cut.checked_sub(12).filter(|n| *n > 0 && n % 45 == 0).map(|n| n / 45);
        match whole {
            Some(frames) => assert_eq!(
                Batch::decode(batch[..cut].to_vec()).unwrap().ops.as_ref(),
                &ops[..frames]
            ),
            None => assert!(
                matches!(batch_fault(batch[..cut].to_vec()), LayoutError::Truncated { .. }),
                "cut at {cut}"
            ),
        }
    }
    let foreign_key = keys_in(high, 1)[0];
    let write = Operation::write(Value(1), Time(0), Time(5));
    let mut bad_kind = batch.clone();
    bad_kind[12 + 45 + 36] = 9;
    let mut bad_range = batch.clone();
    bad_range[..4].copy_from_slice(&200u32.to_le_bytes());
    // The first fault found wins: a foreign key in frame 1 before a bad
    // kind byte in frame 2.
    let mut foreign_first = batch_payload(range, &[(foreign_key, write), (ops[0].0, write)]);
    foreign_first[12 + 45 + 36] = 9;
    let truncated = |at, left| LayoutError::Truncated { at, needed: 45, left };
    let hostile: [(Vec<u8>, LayoutError); 6] = [
        (batch[..batch.len() - 20].to_vec(), truncated(102, 25)),
        ([&batch[..], &batch[12..22]].concat(), truncated(147, 10)),
        (batch[..12].to_vec(), truncated(12, 0)),
        (bad_kind, LayoutError::BadKind(9)),
        (bad_range, LayoutError::BadRange(KeyRange { bits: 200, prefix: range.prefix })),
        (foreign_first, LayoutError::ForeignKey { key: foreign_key, range }),
    ];
    // Each fault is typed, and a worker owning the range answers it with
    // an ERROR and stops, without a panic.
    for (payload, fault) in hostile {
        assert_eq!(batch_fault(payload.clone()), fault);
        let mut input = COORDINATOR_MAGIC.to_vec();
        RangeSnapshot { range, snapshot: tagged_snapshot(range) }
            .write_message(&mut input, tag::ASSIGN)
            .unwrap();
        write_message(&mut input, tag::BATCH, &payload).unwrap();
        let mut output = Vec::new();
        let exit = worker_loop(Fzf, input.as_slice(), &mut output);
        assert!(matches!(exit, Err(ProtocolError::Layout(ref e)) if *e == fault), "{exit:?}");
        let mut reply = output.strip_prefix(&WORKER_MAGIC).expect("the worker's preamble");
        let (got, text) = read_message(&mut reply).unwrap();
        assert_eq!(got, tag::ERROR);
        assert!(String::from_utf8_lossy(&text).starts_with("malformed fleet message: "));
    }
}

// ---------------------------------------------------------------------------
// A death during the fanned-out probe.
// ---------------------------------------------------------------------------

/// A writer that signals each flush: a worker flushes once after its
/// preamble and once after each reply.
struct SignalOnFlush {
    inner: UnixStream,
    flushed: mpsc::Sender<()>,
}

impl Write for SignalOnFlush {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.inner.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()?;
        let _ = self.flushed.send(());
        Ok(())
    }
}

/// A reader that keeps a copy of every byte read through it.
struct Recorded<R> {
    inner: R,
    bytes: Arc<Mutex<Vec<u8>>>,
}

impl<R: Read> Read for Recorded<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes.lock().unwrap().extend_from_slice(&buf[..n]);
        Ok(n)
    }
}

#[test]
fn a_death_mid_probe_drains_the_peer_hands_off_and_retries() {
    let records = streaming_workload(StreamingWorkloadConfig {
        keys: 8,
        ops_per_key: 30,
        k: 2,
        seed: 11,
        ..Default::default()
    });
    let half = records.len() / 2;

    // Worker 1 is a real worker; every flush of its output is signalled,
    // and the coordinator keeps what it reads from it.
    let (peer_side, peer_worker_side) = UnixStream::pair().expect("socketpair");
    let (flushed, peer_flushed) = mpsc::channel();
    let output = SignalOnFlush { inner: peer_worker_side.try_clone().unwrap(), flushed };
    let peer = std::thread::spawn(move || worker_loop(Fzf, peer_worker_side, output));
    let read_from_peer = Arc::new(Mutex::new(Vec::new()));
    let peer_link = WorkerLink {
        writer: Box::new(peer_side.try_clone().unwrap()),
        reader: Box::new(Recorded { inner: peer_side, bytes: read_from_peer.clone() }),
    };

    // Worker 0 takes everything it is sent, and dies on SNAPSHOT once its
    // peer has flushed its reply (its second flush, after the preamble's).
    let (dying_side, mut dying) = UnixStream::pair().expect("socketpair");
    let dying_handle = std::thread::spawn(move || {
        expect_preamble(&mut dying, COORDINATOR_MAGIC).unwrap();
        dying.write_all(&WORKER_MAGIC).unwrap();
        dying.flush().unwrap();
        while read_message(&mut dying).unwrap().0 != tag::SNAPSHOT {}
        peer_flushed.recv().unwrap();
        peer_flushed.recv().unwrap();
    });
    let dying_link = WorkerLink {
        writer: Box::new(dying_side.try_clone().unwrap()),
        reader: Box::new(dying_side),
    };

    let mut fleet =
        FleetCoordinator::new(fleet_config(), vec![dying_link, peer_link]).expect("fleet start");
    let config = PipelineConfig { shards: 2, window: 8, ..Default::default() };
    let mut single = StreamPipeline::new(Fzf, config);
    for record in &records[..half] {
        fleet.push(record.key, record.op()).unwrap();
        single.push(record.key, record.op());
    }
    let cut = fleet.snapshot_fleet().expect("the probe survives the death");
    dying_handle.join().unwrap();
    let mut json = Vec::new();
    cut.write_json(&mut json).unwrap();
    assert_eq!(
        String::from_utf8(json).unwrap(),
        serde_json::to_string(&single.snapshot()).unwrap(),
        "the retried cut is the single-process snapshot at the same record"
    );
    assert_eq!(fleet.summary().hand_offs, 1);

    for record in &records[half..] {
        fleet.push(record.key, record.op()).unwrap();
        single.push(record.key, record.op());
    }
    fleet.snapshot_fleet().expect("a later probe");
    let (output, summary) = fleet.finish().expect("the survivor finishes the audit");
    peer.join().unwrap().expect("the survivor exits cleanly");
    let single = single.finish();
    assert_eq!(output.keys, single.keys);
    assert_eq!((summary.hand_offs, summary.uncertified_hand_offs), (1, 0));

    // The survivor's replies: the drained one covers only its own range,
    // the retry both, and versions ascend.
    let recorded = read_from_peer.lock().unwrap().clone();
    let mut stream = &recorded[WORKER_MAGIC.len()..];
    let mut replies = Vec::new();
    while let Ok((got, payload)) = read_message(&mut stream) {
        if got == tag::SNAPSHOT_REPLY {
            let reply = SnapshotReply::decode(payload).unwrap();
            replies.push((reply.version, reply.ranges.len()));
        }
    }
    assert_eq!(replies, [(1, 1), (2, 2), (3, 2)]);
}

// ---------------------------------------------------------------------------
// The finish line: every worker finishes at once, and a death there is
// absorbed.
// ---------------------------------------------------------------------------

/// A verifier whose every call waits, for at most a few seconds, until
/// `calls` calls have arrived, and records whether it gave up waiting.
#[derive(Clone)]
struct RendezvousVerifier {
    calls: usize,
    /// Calls arrived so far, and whether any call gave up.
    state: Arc<(Mutex<(usize, bool)>, Condvar)>,
}

impl RendezvousVerifier {
    fn new(calls: usize) -> Self {
        RendezvousVerifier { calls, state: Arc::default() }
    }

    fn gave_up(&self) -> bool {
        self.state.0.lock().unwrap().1
    }
}

impl Verifier for RendezvousVerifier {
    fn k(&self) -> u64 {
        2
    }
    fn name(&self) -> &'static str {
        "rendezvous"
    }
    fn verify(&self, _: &History) -> Verdict {
        let (lock, arrived) = &*self.state;
        let mut state = lock.lock().unwrap();
        state.0 += 1;
        arrived.notify_all();
        let (mut state, wait) = arrived
            .wait_timeout_while(state, Duration::from_secs(5), |(n, _)| *n < self.calls)
            .unwrap();
        state.1 |= wait.timed_out();
        Verdict::Consistent
    }
}

/// Spawns one `worker_loop` running `verifier`, returning the
/// coordinator's link to it plus the handle resolving to the loop's exit.
fn worker_link<V: Verifier + Clone + Send + 'static>(
    verifier: V,
) -> (WorkerLink, JoinHandle<Result<(), ProtocolError>>) {
    let (coordinator_side, worker_side) = UnixStream::pair().expect("socketpair");
    let handle = std::thread::spawn(move || {
        let input = worker_side.try_clone().expect("clone");
        worker_loop(verifier, input, worker_side)
    });
    let link = WorkerLink {
        writer: Box::new(coordinator_side.try_clone().expect("clone")),
        reader: Box::new(coordinator_side),
    };
    (link, handle)
}

#[test]
fn finish_reaches_every_worker_before_any_reply() {
    let verifier = RendezvousVerifier::new(2);
    let (links, handles): (Vec<_>, Vec<_>) =
        (0..2).map(|_| worker_link(verifier.clone())).unzip();
    let config = FleetConfig { algo: "rendezvous".to_owned(), window: 64, ..fleet_config() };
    let mut fleet = FleetCoordinator::new(config, links).expect("fleet start");
    // One key per worker, in a window wider than the stream: each key's
    // only segment is verified at FINISH, and each worker's verify waits
    // for the other's.
    for range in KeyRange::partition(2) {
        let key = keys_in(range, 1)[0];
        fleet.push(key, Operation::write(Value(1), Time(0), Time(10))).unwrap();
        fleet.push(key, Operation::read(Value(1), Time(12), Time(20))).unwrap();
    }
    let (output, _) = fleet.finish().expect("fleet finish");
    for handle in handles {
        handle.join().unwrap().expect("a finished worker exits cleanly");
    }
    assert_eq!(output.keys.len(), 2);
    assert!(!verifier.gave_up(), "a worker verified before the other was sent FINISH");
}

#[test]
fn a_death_at_finish_is_absorbed_by_a_finished_survivor() {
    let records = streaming_workload(StreamingWorkloadConfig {
        keys: 8,
        ops_per_key: 30,
        k: 2,
        seed: 11,
        ..Default::default()
    });

    // Worker 1, the last asked, takes everything it is sent, reads FINISH
    // and closes its socket without replying: every other worker has
    // answered FINISH by the time its death is found.
    let (dying_side, mut dying) = UnixStream::pair().expect("socketpair");
    let dying_handle = std::thread::spawn(move || {
        expect_preamble(&mut dying, COORDINATOR_MAGIC).unwrap();
        dying.write_all(&WORKER_MAGIC).unwrap();
        dying.flush().unwrap();
        while read_message(&mut dying).unwrap().0 != tag::FINISH {}
    });
    let dying_link = WorkerLink {
        writer: Box::new(dying_side.try_clone().unwrap()),
        reader: Box::new(dying_side),
    };
    // Worker 0 is a real worker; the coordinator keeps what it reads from
    // it.
    let (survivor, survivor_handle) = worker_link(Fzf);
    let read_from_survivor = Arc::new(Mutex::new(Vec::new()));
    let survivor = WorkerLink {
        writer: survivor.writer,
        reader: Box::new(Recorded { inner: survivor.reader, bytes: read_from_survivor.clone() }),
    };

    let mut fleet =
        FleetCoordinator::new(fleet_config(), vec![survivor, dying_link]).expect("fleet start");
    let config = PipelineConfig { shards: 2, window: 8, ..Default::default() };
    let mut single = StreamPipeline::new(Fzf, config);
    for record in &records {
        fleet.push(record.key, record.op()).unwrap();
        single.push(record.key, record.op());
    }
    let (output, summary) = fleet.finish().expect("the survivor finishes the dead worker's range");
    dying_handle.join().unwrap();
    survivor_handle.join().unwrap().expect("the survivor exits cleanly once the fleet is gone");
    let single = single.finish();
    assert_eq!(output.keys, single.keys);
    assert_eq!(output.errors, single.errors);
    assert_eq!((summary.hand_offs, summary.uncertified_hand_offs), (1, 0));

    // The survivor answered FINISH for its own range, then adopted the
    // dead worker's and answered a second FINISH for that one.
    let recorded = read_from_survivor.lock().unwrap().clone();
    let mut stream = &recorded[WORKER_MAGIC.len()..];
    let mut finished = Vec::new();
    while let Ok((got, payload)) = read_message(&mut stream) {
        assert_eq!(got, tag::FINISH_REPLY);
        let text = String::from_utf8(payload).unwrap();
        let reply: FinishReply = serde_json::from_str(&text).unwrap();
        finished.push(reply.ranges.iter().map(|r| r.range).collect::<Vec<_>>());
    }
    let [low, high] = KeyRange::partition(2)[..] else { panic!("two ranges") };
    assert_eq!(finished, [vec![low], vec![high]]);
}

#[test]
fn a_worker_exits_cleanly_only_once_finished_and_rangeless() {
    let finish = |socket: &mut UnixStream| {
        write_message(socket, tag::FINISH, &[]).unwrap();
        socket.flush().unwrap();
        assert_eq!(read_message(socket).unwrap().0, tag::FINISH_REPLY);
    };
    let disconnected = |exit: Result<(), ProtocolError>| {
        assert!(matches!(exit, Err(ProtocolError::Disconnected)), "got {exit:?}");
    };

    // Closed before any FINISH, with a range and without.
    let (mut socket, handle) = spawn_worker();
    handshake(&mut socket);
    assign(&mut socket, KeyRange::ALL);
    drop(socket);
    disconnected(handle.join().unwrap());
    let (mut socket, handle) = spawn_worker();
    handshake(&mut socket);
    drop(socket);
    disconnected(handle.join().unwrap());

    // Closed after a FINISH, but holding a range adopted since.
    let (mut socket, handle) = spawn_worker();
    handshake(&mut socket);
    assign(&mut socket, KeyRange::ALL);
    finish(&mut socket);
    assign(&mut socket, KeyRange::ALL);
    drop(socket);
    disconnected(handle.join().unwrap());

    // Closed after a FINISH that left it no range: a clean exit.
    let (mut socket, handle) = spawn_worker();
    handshake(&mut socket);
    assign(&mut socket, KeyRange::ALL);
    finish(&mut socket);
    drop(socket);
    handle.join().unwrap().expect("a finished worker exits cleanly");
}

// ---------------------------------------------------------------------------
// The worker state machine, driven without a transport.
// ---------------------------------------------------------------------------

/// A verifier that counts its calls and otherwise runs FZF.
#[derive(Clone)]
struct CountingVerifier(Arc<AtomicUsize>);

impl Verifier for CountingVerifier {
    fn k(&self) -> u64 {
        2
    }
    fn name(&self) -> &'static str {
        "counting"
    }
    fn verify(&self, history: &History) -> Verdict {
        self.0.fetch_add(1, Ordering::SeqCst);
        Fzf.verify(history)
    }
}

/// Worker 0 of a two-worker fleet of `verifier` (window 8) after an
/// ASSIGN of its fresh range and a BATCH of three operations of one key,
/// fewer than a window: nothing has sealed. Returns the range too.
fn worker_holding_a_batch(verifier: CountingVerifier) -> (Worker<CountingVerifier>, KeyRange) {
    let range = KeyRange::partition(2)[0];
    let config = PipelineConfig { shards: 1, window: 8, ..Default::default() };
    let mut pipeline = StreamPipeline::new(verifier.clone(), config);
    let mut empty = pipeline.snapshot();
    pipeline.finish();
    empty.partition = Some(range);
    let mut assign = Vec::new();
    let assignment = RangeSnapshot { range, snapshot: empty.try_into().unwrap() };
    assignment.write_message(&mut assign, tag::ASSIGN).unwrap();
    let (_, assign) = read_message(&mut assign.as_slice()).unwrap();

    let mut worker = Worker::new(verifier);
    let mut reply = Vec::new();
    worker.handle(tag::ASSIGN, assign, &mut reply).unwrap();
    let key = keys_in(range, 1)[0];
    let ops = [
        (key, Operation::write(Value(1), Time(0), Time(5))),
        (key, Operation::read(Value(1), Time(6), Time(9))),
        (key, Operation::write(Value(2), Time(10), Time(15))),
    ];
    worker.handle(tag::BATCH, batch_payload(range, &ops), &mut reply).unwrap();
    assert!(reply.is_empty(), "ASSIGN and BATCH get no reply");
    (worker, range)
}

#[test]
fn a_retired_range_verifies_nothing() {
    let calls = Arc::new(AtomicUsize::new(0));
    let (mut worker, range) = worker_holding_a_batch(CountingVerifier(calls.clone()));
    let retire = serde_json::to_string(&range).unwrap().into_bytes();
    let mut reply = Vec::new();
    worker.handle(tag::RETIRE, retire, &mut reply).unwrap();
    drop(worker);
    assert_eq!(calls.load(Ordering::SeqCst), 0, "a retired range verified a segment");
    let (got, payload) = read_message(&mut reply.as_slice()).unwrap();
    assert_eq!(got, tag::RETIRE_REPLY);
    let retired = RangeSnapshot::decode(payload).unwrap();
    assert_eq!(retired.range, range);
    let snapshot = retired.snapshot.parse().unwrap();
    assert_eq!(snapshot.ops_routed, 0, "only the coordinator counts routed operations");
    assert_eq!(snapshot.states.len(), 1);
    assert_eq!(snapshot.states[0].state.ops, 3, "the reply holds the batch");

    // The same range finished instead of retired verifies its segment.
    let (mut worker, _) = worker_holding_a_batch(CountingVerifier(calls.clone()));
    let mut reply = Vec::new();
    worker.handle(tag::FINISH, Vec::new(), &mut reply).unwrap();
    assert_eq!(read_message(&mut reply.as_slice()).unwrap().0, tag::FINISH_REPLY);
    assert_eq!(calls.load(Ordering::SeqCst), 1);
    assert!(worker.done(), "a finished worker owning no range may exit");
}
