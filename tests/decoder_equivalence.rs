//! The one NDJSON decoder, checked against two references: serde's
//! `Value` tree and itself over differently chunked input.
//!
//! * On any line — well-formed in any field order, decorated with unknown
//!   fields and whitespace, or malformed anywhere — [`ndjson::parse_line`]
//!   (serde_json's direct reader) returns exactly what parsing a `Value`
//!   tree and converting it returns: the same record, or an error on both.
//! * Over a document mixing valid, blank, malformed and non-UTF-8 lines,
//!   an [`ndjson::Reader`] over the whole slice and one over the same
//!   bytes in small chunks (a pipe or stdin) yield the same records, the
//!   same 1-based errors, the same line counts and the same resume
//!   fingerprints, so checkpoints from either source interchange. So does
//!   an [`ndjson::DecodeAhead`] with one to four decode threads, fresh or
//!   after a [`ndjson::Reader`] has skipped a resumed prefix, and both
//!   readers end at the same line over the line cap.
//! * The binary frame format roundtrips the same records, and its
//!   [`frame::Reader`] agrees with itself over any chunking the same way.

use k_atomicity::history::frame::{self, FrameReader, FrameWriter, FRAME_LEN, FRAME_LEN_V2};
use k_atomicity::history::fxhash::Fingerprint;
use k_atomicity::history::ndjson::{self, NdjsonError, StreamRecord};
use k_atomicity::history::{OpKind, Time, Value, Weight};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Cursor};

/// Every item a reader yields (an error as its message, which names its
/// line), each with the line count and fingerprint right after it.
type Trace = Vec<(Result<StreamRecord, String>, u64, Option<u64>)>;

/// Where a reader stands: lines consumed and the fingerprint so far.
trait Position {
    fn position(&self) -> (u64, Option<u64>);
}

impl<R: BufRead> Position for ndjson::Reader<R> {
    fn position(&self) -> (u64, Option<u64>) {
        (self.lines_read(), self.fingerprint())
    }
}

impl Position for ndjson::DecodeAhead {
    fn position(&self) -> (u64, Option<u64>) {
        (self.lines_read(), self.fingerprint())
    }
}

/// Reads `reader` to its end; returns its trace and its final position.
fn trace(
    mut reader: impl Iterator<Item = Result<StreamRecord, NdjsonError>> + Position,
) -> (Trace, (u64, Option<u64>)) {
    let mut items = Vec::new();
    while let Some(item) = reader.next() {
        let (lines, fingerprint) = reader.position();
        items.push((item.map_err(|e| e.to_string()), lines, fingerprint));
    }
    (items, reader.position())
}

/// A fingerprinting reader over `doc` in `chunk`-byte reads.
fn chunked_reader(doc: &[u8], chunk: usize) -> ndjson::Reader<BufReader<Cursor<Vec<u8>>>> {
    let input = BufReader::with_capacity(chunk, Cursor::new(doc.to_vec()));
    ndjson::Reader::with_fingerprint(input, Fingerprint::new())
}

fn record_strategy() -> impl Strategy<Value = StreamRecord> {
    (
        any::<u64>(),
        any::<bool>(),
        any::<u64>(),
        any::<u64>(),
        0u64..1_000,
        (any::<u32>(), 0u64..4),
    )
        .prop_map(|(key, is_write, value, start, len, (weight, client))| StreamRecord {
            key,
            kind: if is_write { OpKind::Write } else { OpKind::Read },
            value: Value(value),
            start: Time(start),
            finish: Time(start.saturating_add(len)),
            weight: Weight(weight),
            client,
        })
}

/// Renders `record` as one JSON line in a chosen field order, optionally
/// dropping the defaultable fields, inserting an unknown field, and
/// sprinkling insignificant whitespace — every variant a compliant
/// decoder must accept.
fn render_line(
    record: &StreamRecord,
    rotation: usize,
    drop_defaults: bool,
    unknown: Option<&str>,
    pad: bool,
) -> String {
    let kind = match record.kind {
        OpKind::Read => "\"read\"",
        OpKind::Write => "\"write\"",
    };
    let mut fields = vec![
        format!("\"kind\":{kind}"),
        format!("\"value\":{}", record.value.0),
        format!("\"start\":{}", record.start.as_u64()),
        format!("\"finish\":{}", record.finish.as_u64()),
    ];
    // `key` and `weight` are #[serde(default)]: omitting them must decode
    // as 0 and as the unit weight.
    if !(drop_defaults && record.key == 0) {
        fields.push(format!("\"key\":{}", record.key));
    }
    if !(drop_defaults && record.weight == Weight::UNIT) {
        fields.push(format!("\"weight\":{}", record.weight.0));
    }
    // `client` is #[serde(default)] too: omitting it must decode as 0
    // (the untagged sentinel).
    if !(drop_defaults && record.client == 0) {
        fields.push(format!("\"client\":{}", record.client));
    }
    if let Some(extra) = unknown {
        fields.push(extra.to_owned());
    }
    let n = fields.len();
    fields.rotate_left(rotation % n);
    let sep = if pad { " ,\t" } else { "," };
    let body = fields.join(sep);
    if pad {
        format!(" {{ {body} }}\t")
    } else {
        format!("{{{body}}}")
    }
}

/// Picks `Some(UNKNOWN_FIELDS[i])` for in-range `i`, `None` past the end
/// (the vendored proptest has no option strategy, so the range carries
/// one extra slot meaning "no unknown field").
fn unknown_field(pick: usize) -> Option<&'static str> {
    UNKNOWN_FIELDS.get(pick).copied()
}

/// Unknown-field payloads the decoders must validate and skip: nested
/// containers, escapes (including surrogate pairs), floats, literals.
const UNKNOWN_FIELDS: &[&str] = &[
    "\"tag\":\"reconfig \\u0041\\n\\\"quoted\\\"\"",
    "\"emoji\":\"\\ud83d\\ude00\"",
    "\"nested\":{\"a\":[1,2,{\"b\":null}],\"c\":false}",
    "\"f\":-12.5e3",
    "\"deep\":[[[[\"x\"]]]]",
    "\"big\":18446744073709551615",
];

/// Hand-written malformed lines hitting failure modes a lazy scanner
/// might miss: truncation, trailing garbage, bad enum tags, sign and
/// overflow errors (including inside skipped fields), lone surrogates,
/// missing fields, doubled commas, non-object top level, fractional
/// weights.
const BREAKAGES: &[&str] = &[
    "{\"kind\":\"write\",\"value\":1,\"start\":0",
    "{\"kind\":\"write\",\"value\":1,\"start\":0,\"finish\":3}x",
    "{\"kind\":\"wrote\",\"value\":1,\"start\":0,\"finish\":3}",
    "{\"kind\":\"write\",\"value\":-1,\"start\":0,\"finish\":3}",
    "{\"kind\":\"write\",\"value\":1,\"start\":0,\"finish\":18446744073709551616}",
    "{\"kind\":\"write\",\"value\":1,\"start\":0,\"finish\":3,\"x\":\"\\ud800\"}",
    "{\"value\":1,\"start\":0,\"finish\":3}",
    "{\"kind\":\"write\",\"value\":1,,\"start\":0,\"finish\":3}",
    "[{\"kind\":\"write\",\"value\":1,\"start\":0,\"finish\":3}]",
    "{\"kind\":\"write\" \"value\":1,\"start\":0,\"finish\":3}",
    "{\"kind\":\"write\",\"value\":1,\"start\":0,\"finish\":3,\"weight\":0.5}",
    "null",
];

/// Lines that are not UTF-8: a stray byte inside a skipped string, a
/// truncated multi-byte sequence, an encoded surrogate, and a lone
/// continuation byte. Each is one malformed record.
const NOT_UTF8: &[&[u8]] = &[
    b"{\"kind\":\"write\",\"value\":1,\"start\":0,\"finish\":3,\"x\":\"\xff\"}",
    b"{\"kind\":\"write\",\"value\":1,\"start\":0,\"finish\":3,\"x\":\"\xe2\x82\"}",
    b"\xed\xa0\x80",
    b"\x80",
];

/// The reference path: parse a `Value` tree, then convert it.
fn via_tree(line: &str) -> Result<StreamRecord, serde_json::Error> {
    serde_json::from_str::<serde_json::Value>(line).and_then(serde_json::from_value)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any well-formed rendering — any field order, defaults dropped,
    /// unknown fields, whitespace — decodes to the record it renders.
    #[test]
    fn well_formed_lines_decode_identically(
        record in record_strategy(),
        rotation in 0usize..8,
        drop_defaults in any::<bool>(),
        unknown_pick in 0usize..=UNKNOWN_FIELDS.len(),
        pad in any::<bool>(),
    ) {
        let line =
            render_line(&record, rotation, drop_defaults, unknown_field(unknown_pick), pad);
        prop_assert_eq!(ndjson::parse_line(&line).expect("well-formed"), record);
    }

    /// On arbitrary printable input the decoder and the tree path agree:
    /// the same record, or an error on both.
    #[test]
    fn arbitrary_lines_get_the_same_verdict(
        bytes in prop::collection::vec(0x20u8..0x7f, 0..60),
    ) {
        let line = String::from_utf8(bytes).expect("printable ASCII");
        prop_assert_eq!(ndjson::parse_line(&line).ok(), via_tree(&line).ok(), "line: {:?}", line);
    }

    /// Truncating or corrupting a valid line at any byte keeps the
    /// decoder and the tree path in agreement.
    #[test]
    fn mutilated_lines_get_the_same_verdict(
        record in record_strategy(),
        unknown_pick in 0usize..=UNKNOWN_FIELDS.len(),
        cut_permille in 0usize..=1000,
        flip in (any::<bool>(), any::<usize>(), any::<u8>()),
    ) {
        let line = render_line(&record, 0, false, unknown_field(unknown_pick), false);
        let mut bytes = line.into_bytes();
        bytes.truncate(bytes.len() * cut_permille / 1000);
        let (flip_on, flip_at, flip_byte) = flip;
        if flip_on && !bytes.is_empty() {
            // Keep the mutation valid UTF-8: both paths take text (the
            // reader turns invalid UTF-8 into a malformed record, tested
            // below).
            let at = flip_at % bytes.len();
            bytes[at] = flip_byte & 0x7f;
        }
        let line = String::from_utf8(bytes).expect("ASCII stays ASCII");
        prop_assert_eq!(ndjson::parse_line(&line).ok(), via_tree(&line).ok(), "line: {:?}", line);
    }

    /// Document level: over a stream mixing valid, blank, malformed and
    /// non-UTF-8 lines, the reader over the whole slice and the reader over
    /// the same bytes in `chunk`-byte reads (how a pipe or stdin can
    /// arrive) yield the same record sequence, the
    /// same 1-based errors, the same line counts and the same resume
    /// fingerprints — which is what lets a checkpoint written from one
    /// source resume under the other. Every well-formed line decodes to
    /// its record and every other non-blank line is one error. The
    /// decode-ahead reader over the same chunked input, whose small reads
    /// cut its blocks after a line or mid-line, traces exactly what the
    /// chunked reader does with every decode thread count from one to
    /// four, and so does one built after a [`ndjson::Reader`] skipped the
    /// first `skip` raw lines, as a resumed audit does.
    #[test]
    fn readers_agree_on_records_errors_and_fingerprints(
        records in prop::collection::vec(record_strategy(), 0..12),
        breakage_picks in prop::collection::vec(0usize..BREAKAGES.len() + NOT_UTF8.len(), 0..4),
        blanks in 0usize..3,
        trailing_newline in any::<bool>(),
        shuffle_seed in any::<u64>(),
        chunk in 1usize..16,
        skip in 0u64..8,
    ) {
        let mut lines: Vec<(Vec<u8>, Option<StreamRecord>)> = records
            .iter()
            .enumerate()
            .map(|(i, r)| (render_line(r, i, i % 2 == 0, None, i % 3 == 0).into_bytes(), Some(*r)))
            .collect();
        lines.extend(breakage_picks.iter().map(|&i| {
            let line = match BREAKAGES.get(i) {
                Some(text) => text.as_bytes(),
                None => NOT_UTF8[i - BREAKAGES.len()],
            };
            (line.to_vec(), None)
        }));
        lines.extend((0..blanks).map(|_| (Vec::new(), None)));
        // Deterministic Fisher-Yates so malformed lines land anywhere.
        let mut state = shuffle_seed | 1;
        for i in (1..lines.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            lines.swap(i, (state >> 33) as usize % (i + 1));
        }
        let mut doc = lines.iter().map(|(line, _)| line.as_slice()).collect::<Vec<_>>().join(&b'\n');
        if trailing_newline && !doc.is_empty() {
            doc.push(b'\n');
        }

        let mut whole = ndjson::SliceReader::with_fingerprint(&doc, Fingerprint::new());
        let mut chunked = ndjson::Reader::with_fingerprint(
            std::io::BufReader::with_capacity(chunk, doc.as_slice()),
            Fingerprint::new(),
        );
        let (mut decoded, mut errors) = (Vec::new(), 0);
        loop {
            let (a, b) = (whole.next(), chunked.next());
            prop_assert_eq!(whole.lines_read(), chunked.lines_read(), "line counts diverge");
            prop_assert_eq!(
                whole.fingerprint(),
                chunked.fingerprint(),
                "fingerprints diverge at line {}",
                whole.lines_read()
            );
            match (a, b) {
                (None, None) => break,
                (Some(Ok(a)), Some(Ok(b))) => {
                    prop_assert_eq!(a, b);
                    decoded.push(a);
                }
                (
                    Some(Err(a @ NdjsonError::Parse { .. })),
                    Some(Err(b @ NdjsonError::Parse { .. })),
                ) => {
                    prop_assert_eq!(a.to_string(), b.to_string());
                    errors += 1;
                }
                (a, b) => prop_assert!(false, "readers diverge: {:?} vs {:?}", a, b),
            }
        }
        let expected: Vec<StreamRecord> = lines.iter().filter_map(|(_, r)| *r).collect();
        prop_assert_eq!(decoded, expected);
        prop_assert_eq!(errors, breakage_picks.len());

        let reference = trace(chunked_reader(&doc, chunk));
        for threads in 1..=4 {
            let ahead = chunked_reader(&doc, chunk).decode_ahead_with(threads);
            prop_assert_eq!(trace(ahead), reference.clone(), "{} decode threads", threads);
        }
        let mut sequential = chunked_reader(&doc, chunk);
        let mut resumed = chunked_reader(&doc, chunk);
        let skipped = sequential.skip_raw_lines(skip).unwrap();
        prop_assert_eq!(resumed.skip_raw_lines(skip).unwrap(), skipped);
        let threads = 1 + skip as usize % 4;
        prop_assert_eq!(
            trace(resumed.decode_ahead_with(threads)),
            trace(sequential),
            "{} decode threads after {} skipped lines",
            threads,
            skipped
        );
    }

    /// The buffered line writer is byte-identical to serde serialisation,
    /// and the decoder roundtrips its output.
    #[test]
    fn buffered_writer_matches_serde(record in record_strategy()) {
        let mut line = String::new();
        ndjson::write_line_into(&record, &mut line);
        prop_assert_eq!(&line, &serde_json::to_string(&record).unwrap());
        prop_assert_eq!(&line, &ndjson::to_line(&record));
        prop_assert_eq!(ndjson::parse_line(&line).unwrap(), record);
    }

    /// The binary frame format roundtrips the same records the NDJSON
    /// paths carry, frame counts play the role line counts play for
    /// NDJSON, and truncation is detected at the right frame.
    #[test]
    fn frames_roundtrip_and_truncate_cleanly(
        records in prop::collection::vec(record_strategy(), 0..12),
        cut in 0usize..=FRAME_LEN,
    ) {
        // Session-tagged records need the v2 layout (the v1 writer
        // rejects tags by contract), mirroring the CLI's auto-selection.
        let v2 = records.iter().any(|r| r.client != 0);
        let frame_len = if v2 { FRAME_LEN_V2 } else { FRAME_LEN };
        let mut writer =
            if v2 { FrameWriter::new_v2(Vec::new()) } else { FrameWriter::new(Vec::new()) };
        for record in &records {
            writer.write_record(record).unwrap();
        }
        let mut bytes = writer.finish().unwrap();

        let decoded: Vec<StreamRecord> = FrameReader::new(&bytes)
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        prop_assert_eq!(&decoded, &records);

        // Chop mid-frame (cut == FRAME_LEN appends nothing): every full
        // frame still decodes, then the partial frame errors with its
        // 1-based frame number.
        let extra: Vec<u8> = vec![0xABu8; cut % frame_len];
        bytes.extend_from_slice(&extra);
        let mut reader =
            FrameReader::with_fingerprint(&bytes, Fingerprint::new()).unwrap();
        for (i, expected) in records.iter().enumerate() {
            let got = reader.next().unwrap().unwrap();
            prop_assert_eq!(&got, expected, "frame {}", i);
        }
        match reader.next() {
            None => prop_assert!(extra.is_empty(), "only a clean boundary ends quietly"),
            Some(Err(NdjsonError::Parse { line, .. })) => {
                prop_assert!(!extra.is_empty(), "clean boundaries must end quietly");
                prop_assert_eq!(line, records.len() + 1);
            }
            other => prop_assert!(false, "unexpected tail: {:?}", other),
        }
        // A consumed truncated tail counts as one frame, exactly like a
        // malformed NDJSON line counts as one line.
        let consumed_tail = u64::from(!extra.is_empty());
        prop_assert_eq!(reader.frames_read(), records.len() as u64 + consumed_tail);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The frame twin of `readers_agree_on_records_errors_and_fingerprints`:
    /// over a v1 or v2 stream with flipped kind bytes and a truncated tail,
    /// the reader over the whole slice and the reader over the same bytes
    /// in `chunk`-byte reads, for every `chunk` up to 64, yield the same
    /// records, the same errors at the same frame numbers, the same frame
    /// counts and fingerprints, and the same state after skipping the
    /// first `skip` frames as a resume does.
    #[test]
    fn frame_readers_agree_on_records_errors_and_fingerprints(
        records in prop::collection::vec(record_strategy(), 0..12),
        v2 in any::<bool>(),
        flips in prop::collection::vec((any::<usize>(), 2u8..=255), 0..3),
        cut in 0usize..FRAME_LEN_V2,
        skip in 0u64..16,
    ) {
        let v2 = v2 || records.iter().any(|r| r.client != 0);
        let frame_len = if v2 { FRAME_LEN_V2 } else { FRAME_LEN };
        let mut writer =
            if v2 { FrameWriter::new_v2(Vec::new()) } else { FrameWriter::new(Vec::new()) };
        for record in &records {
            writer.write_record(record).unwrap();
        }
        let mut bytes = writer.finish().unwrap();
        // The kind byte sits at offset 36 of a frame in either layout.
        let mut flipped = std::collections::BTreeSet::new();
        for &(at, kind) in flips.iter().filter(|_| !records.is_empty()) {
            let frame = at % records.len();
            bytes[8 + frame * frame_len + 36] = kind;
            flipped.insert(frame);
        }
        let tail = cut % frame_len;
        bytes.extend(std::iter::repeat_n(0xAB, tail));

        let whole = || FrameReader::with_fingerprint(&bytes, Fingerprint::new()).unwrap();
        let chunked = |chunk| {
            let input = std::io::BufReader::with_capacity(chunk, bytes.as_slice());
            frame::Reader::with_fingerprint(input, Fingerprint::new()).unwrap()
        };
        let (mut decoded, mut errors) = (Vec::new(), 0);
        for item in whole() {
            match item {
                Ok(record) => decoded.push(record),
                Err(NdjsonError::Parse { .. }) => errors += 1,
                Err(e) => prop_assert!(false, "i/o error from a slice: {}", e),
            }
        }
        let expected: Vec<StreamRecord> = records
            .iter()
            .enumerate()
            .filter(|(i, _)| !flipped.contains(i))
            .map(|(_, r)| *r)
            .collect();
        prop_assert_eq!(decoded, expected);
        prop_assert_eq!(errors, flipped.len() + usize::from(tail > 0));

        let rest = |reader: &mut dyn Iterator<Item = Result<StreamRecord, NdjsonError>>| {
            reader.map(|item| item.map_err(|e| e.to_string())).collect::<Vec<_>>()
        };
        for chunk in 1..=64 {
            let (mut a, mut b) = (whole(), chunked(chunk));
            loop {
                let (x, y) = (a.next(), b.next());
                prop_assert_eq!(a.frames_read(), b.frames_read(), "chunk {}", chunk);
                prop_assert_eq!(a.fingerprint(), b.fingerprint(), "chunk {}", chunk);
                match (x, y) {
                    (None, None) => break,
                    (Some(Ok(x)), Some(Ok(y))) => prop_assert_eq!(x, y),
                    (
                        Some(Err(x @ NdjsonError::Parse { .. })),
                        Some(Err(y @ NdjsonError::Parse { .. })),
                    ) => prop_assert_eq!(x.to_string(), y.to_string()),
                    (x, y) => prop_assert!(false, "chunk {}: {:?} vs {:?}", chunk, x, y),
                }
            }

            let (mut a, mut b) = (whole(), chunked(chunk));
            prop_assert_eq!(a.skip_raw_frames(skip).unwrap(), b.skip_raw_frames(skip).unwrap());
            prop_assert_eq!(a.frames_read(), b.frames_read());
            prop_assert_eq!(a.fingerprint(), b.fingerprint());
            prop_assert_eq!(rest(&mut a), rest(&mut b), "chunk {} after skip {}", chunk, skip);
        }
    }
}

/// A raw line over [`ndjson::MAX_LINE_BYTES`] ends both readers at its
/// line number, whichever way the input is chunked, while a line at the cap
/// decodes: the line count and fingerprint stop before the long line, and
/// skipping across it fails the same way.
#[test]
fn a_line_over_the_cap_ends_both_readers_at_its_line() {
    let record = |value: u64, pad: usize| {
        let head = format!("{{\"kind\":\"write\",\"value\":{value},\"start\":0,\"finish\":1");
        // An unknown string field pads the record to `pad` bytes.
        let fill = pad.saturating_sub(head.len() + 8);
        format!("{head},\"x\":\"{}\"}}", "y".repeat(fill)).into_bytes()
    };
    let cap = ndjson::MAX_LINE_BYTES;
    assert_eq!(record(2, cap).len(), cap);
    for (long, newline) in [(cap + 1, true), (cap + 1, false), (2 * cap, true)] {
        let mut doc = [record(1, 0), Vec::new(), record(2, cap), record(3, long)].join(&b'\n');
        if newline {
            doc.extend_from_slice(b"\n{\"kind\":\"read\",\"value\":1,\"start\":2,\"finish\":3}\n");
        }
        for chunk in [7, 64 * 1024] {
            let reference = trace(chunked_reader(&doc, chunk));
            let (items, (lines, _)) = &reference;
            assert_eq!(*lines, 3, "{long} bytes, chunk {chunk}");
            assert_eq!(items.len(), 3, "{long} bytes, chunk {chunk}");
            let expected = format!("line 4: longer than the {cap}-byte line cap");
            assert_eq!(items[2].0, Err(expected), "{long} bytes, chunk {chunk}");
            for threads in 1..=2 {
                let ahead = chunked_reader(&doc, chunk).decode_ahead_with(threads);
                assert!(
                    trace(ahead) == reference,
                    "{long} bytes, chunk {chunk}, {threads} threads"
                );
            }
            let mut skip = chunked_reader(&doc, chunk);
            match skip.skip_raw_lines(5) {
                Err(NdjsonError::LineTooLong { line: 4 }) => {}
                other => panic!("skipping across the long line gave {other:?}"),
            }
            assert_eq!(skip.lines_read(), 3);
        }
    }
}

/// A frame file whose magic is missing or wrong must be rejected at
/// construction — NDJSON piped into `--format binary` fails fast instead
/// of decoding garbage frames.
#[test]
fn bad_magic_is_rejected_at_open() {
    assert!(FrameReader::new(b"{\"kind\":\"write\",\"value\":1}").is_err());
    assert!(FrameReader::new(b"KAVF9999").is_err());
    assert!(FrameReader::new(b"KAVF000").is_err(), "short magic");
}
