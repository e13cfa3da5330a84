//! Newline-delimited JSON (NDJSON) codec for operation streams.
//!
//! The streaming pipeline exchanges operations as one JSON object per
//! line, each tagging the register (`key`) it acts on:
//!
//! ```text
//! {"key":0,"kind":"write","value":1,"start":0,"finish":10,"weight":1}
//! {"key":0,"kind":"read","value":1,"start":12,"finish":20}
//! ```
//!
//! Field reference (see also the README's schema section):
//!
//! * `key` — register identifier; optional, defaults to `0`. Verification
//!   is per key (§II-B locality), so records of different keys are fully
//!   independent.
//! * `kind` — `"read"` or `"write"`.
//! * `value` — value written or returned. Every write of a key must store
//!   a distinct value.
//! * `start` / `finish` — invocation and response times, `start < finish`;
//!   dimensionless ticks (only their order matters).
//! * `weight` — positive k-WAV weight; optional, defaults to `1`.
//! * `client` — issuing client (session) id for session-aware consistency
//!   models; optional, defaults to `0` (untagged — no session
//!   information). Untagged records serialise without the field, so
//!   pre-session streams round-trip byte-identically.
//!
//! Records of the same key must appear in strictly increasing `finish`
//! order (completion order); different keys may interleave arbitrarily.
//! Blank lines are ignored.
//!
//! Every NDJSON byte is decoded the same way, whether it comes from a
//! file, a pipe or stdin: a [`Reader`] splits the input into raw lines
//! and decodes each with [`parse_line`], which is
//! `serde_json::from_str`. A raw line may hold at most [`MAX_LINE_BYTES`]
//! bytes before its newline; a longer one ends the stream with
//! [`NdjsonError::LineTooLong`], so no input makes a reader buffer more.
//! Records are written by [`StreamWriter`].
//!
//! [`DecodeAhead`] spreads the same decoding over threads: one thread
//! cuts the input into line-aligned blocks, a pool decodes them with the
//! function [`Reader`] uses, and the consuming thread takes them back in
//! input order, counting and fingerprinting each raw line as it yields
//! it. It yields what a [`Reader`] yields, item for item, with the same
//! line counts and fingerprints, and is built from one (say, after a
//! resumed audit has skipped its prefix), so `kav stream` and `kav serve`
//! read every NDJSON input through it.

mod ahead;

pub use ahead::DecodeAhead;

use crate::fxhash::Fingerprint;
use crate::{OpKind, Operation, Time, Value, Weight, UNTAGGED_CLIENT};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;
use std::fs;
use std::io::{BufRead, Read};
use std::path::Path;

/// The most bytes a raw line may hold before its newline. A record is 70
/// to 200 bytes, so this leaves ample room for unknown fields, and it
/// bounds what one line makes a reader buffer.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// One line of an NDJSON operation stream: an operation plus its register.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct StreamRecord {
    /// Register the operation acts on (defaults to `0`).
    #[serde(default)]
    pub key: u64,
    /// Read or write.
    pub kind: OpKind,
    /// Value written or returned.
    pub value: Value,
    /// Invocation time.
    pub start: Time,
    /// Response time; must be strictly greater than `start`.
    pub finish: Time,
    /// k-WAV weight (defaults to `1`).
    #[serde(default)]
    pub weight: Weight,
    /// Issuing client (session) id; `0` (untagged) when absent. Untagged
    /// records omit the field on the wire.
    #[serde(default, skip_serializing_if = "client_is_untagged")]
    pub client: u64,
}

/// Serialisation predicate: untagged records omit the `client` field.
fn client_is_untagged(client: &u64) -> bool {
    *client == UNTAGGED_CLIENT
}

impl StreamRecord {
    /// Tags `op` with the register `key`.
    pub fn new(key: u64, op: Operation) -> Self {
        StreamRecord {
            key,
            kind: op.kind,
            value: op.value,
            start: op.start,
            finish: op.finish,
            weight: op.weight,
            client: op.client,
        }
    }

    /// The record's operation, without the key tag.
    pub fn op(&self) -> Operation {
        Operation {
            kind: self.kind,
            value: self.value,
            start: self.start,
            finish: self.finish,
            weight: self.weight,
            client: self.client,
        }
    }
}

/// Error reading an NDJSON stream.
#[derive(Debug)]
pub enum NdjsonError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed record, with its 1-based line number.
    Parse {
        /// Line the record occupies in the input.
        line: usize,
        /// What was wrong with it.
        source: serde_json::Error,
    },
    /// A raw line longer than [`MAX_LINE_BYTES`], with its 1-based line
    /// number. The stream ends there: the line is neither counted nor
    /// fingerprinted.
    LineTooLong {
        /// Line the over-long line starts.
        line: usize,
    },
}

impl fmt::Display for NdjsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NdjsonError::Io(e) => write!(f, "i/o error: {e}"),
            NdjsonError::Parse { line, source } => {
                write!(f, "line {line}: invalid stream record: {source}")
            }
            NdjsonError::LineTooLong { line } => {
                write!(f, "line {line}: longer than the {MAX_LINE_BYTES}-byte line cap")
            }
        }
    }
}

impl Error for NdjsonError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NdjsonError::Io(e) => Some(e),
            NdjsonError::Parse { source, .. } => Some(source),
            NdjsonError::LineTooLong { .. } => None,
        }
    }
}

impl From<std::io::Error> for NdjsonError {
    fn from(e: std::io::Error) -> Self {
        NdjsonError::Io(e)
    }
}

/// Parses one NDJSON line.
///
/// # Errors
///
/// Returns the underlying JSON error on malformed input.
///
/// # Examples
///
/// ```
/// use kav_history::ndjson;
/// use kav_history::Value;
///
/// let record =
///     ndjson::parse_line(r#"{"kind":"write","value":7,"start":0,"finish":3}"#)?;
/// assert_eq!(record.key, 0);
/// assert_eq!(record.value, Value(7));
/// # Ok::<(), serde_json::Error>(())
/// ```
pub fn parse_line(line: &str) -> Result<StreamRecord, serde_json::Error> {
    serde_json::from_str(line)
}

/// Decodes one raw line, newline included: `None` when it is blank, and
/// a malformed record when it is not UTF-8. Both readers decode every
/// line with this.
fn decode_raw_line(raw: &[u8]) -> Option<Result<StreamRecord, serde_json::Error>> {
    match std::str::from_utf8(raw).map(str::trim) {
        Ok("") => None,
        Ok(text) => Some(parse_line(text)),
        Err(e) => Some(Err(serde::DeError::custom(e.to_string()).into())),
    }
}

/// Serialises one record as a single NDJSON line (no trailing newline).
///
/// Allocates a fresh `String` per call; the hot write path is
/// [`StreamWriter`], which reuses one buffer and produces byte-identical
/// lines.
pub fn to_line(record: &StreamRecord) -> String {
    serde_json::to_string(record).expect("StreamRecord serialisation is infallible")
}

/// Appends one record to `out` as a single NDJSON line (no trailing
/// newline), byte-identical to [`to_line`] without allocating.
pub fn write_line_into(record: &StreamRecord, out: &mut String) {
    out.push_str("{\"key\":");
    push_u64(out, record.key);
    out.push_str(",\"kind\":");
    out.push_str(match record.kind {
        OpKind::Read => "\"read\"",
        OpKind::Write => "\"write\"",
    });
    out.push_str(",\"value\":");
    push_u64(out, record.value.0);
    out.push_str(",\"start\":");
    push_u64(out, record.start.0);
    out.push_str(",\"finish\":");
    push_u64(out, record.finish.0);
    out.push_str(",\"weight\":");
    push_u64(out, u64::from(record.weight.0));
    if record.client != UNTAGGED_CLIENT {
        out.push_str(",\"client\":");
        push_u64(out, record.client);
    }
    out.push('}');
}

/// Appends the decimal form of `n` without going through `fmt`.
fn push_u64(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[i..]).expect("decimal digits are ASCII"));
}

/// Buffered NDJSON writer reusing one line buffer across records.
/// `kav gen --out`, `kav simulate --out` and [`write_stream`] route through
/// it; the output is byte-for-byte what writing [`to_line`] plus `\n` per
/// record yields.
pub struct StreamWriter<W: std::io::Write> {
    out: W,
    buf: String,
}

impl<W: std::io::Write> StreamWriter<W> {
    /// Wraps `out`; call [`finish`](StreamWriter::finish) when done to
    /// flush.
    pub fn new(out: W) -> Self {
        StreamWriter { out, buf: String::with_capacity(128) }
    }

    /// Writes one record plus the line terminator.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn write_record(&mut self, record: &StreamRecord) -> std::io::Result<()> {
        self.buf.clear();
        write_line_into(record, &mut self.buf);
        self.buf.push('\n');
        self.out.write_all(self.buf.as_bytes())
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn finish(mut self) -> std::io::Result<W> {
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Streaming reader over any [`BufRead`], yielding records with 1-based
/// line numbers attached to errors. Blank lines are skipped.
///
/// This is the one NDJSON decoder: a file, a pipe and stdin all arrive
/// through a chunked `BufRead`, and bytes already in memory are read as a
/// [`SliceReader`]. Each raw line is copied into one reused buffer and
/// decoded with [`parse_line`]; a line that is not valid UTF-8 is a
/// malformed record ([`NdjsonError::Parse`]), like any other line that
/// fails to decode. A line longer than [`MAX_LINE_BYTES`] ends the stream
/// ([`NdjsonError::LineTooLong`]). [`decode_ahead`](Reader::decode_ahead)
/// hands the rest of the input to a [`DecodeAhead`].
///
/// For checkpointable audits the reader can also maintain a running
/// [`Fingerprint`] of every *raw line* it consumes (including blank and
/// malformed ones): a resumed audit re-reads the already-processed prefix
/// with [`skip_raw_lines`](Reader::skip_raw_lines) and compares digests to
/// prove it is continuing the same input.
pub struct Reader<R> {
    input: R,
    line: u64,
    buf: Vec<u8>,
    fingerprint: Option<Fingerprint>,
    /// Set once a line over the cap ended the stream.
    ended: bool,
}

/// A [`Reader`] over bytes already in memory. `&[u8]` is a [`BufRead`],
/// so this is the decoder files and stdin go through too.
///
/// # Examples
///
/// ```
/// use kav_history::ndjson::SliceReader;
/// use kav_history::Value;
///
/// let bytes = b"{\"kind\":\"write\",\"value\":7,\"start\":0,\"finish\":3}\n\n";
/// let mut reader = SliceReader::new(bytes);
/// let record = reader.next().unwrap()?;
/// assert_eq!((record.key, record.value), (0, Value(7)));
/// assert!(reader.next().is_none());
/// assert_eq!(reader.lines_read(), 2);
/// # Ok::<(), kav_history::ndjson::NdjsonError>(())
/// ```
pub type SliceReader<'a> = Reader<&'a [u8]>;

impl<R: BufRead> Reader<R> {
    /// Wraps a buffered reader (no fingerprinting).
    pub fn new(input: R) -> Self {
        Reader { input, line: 0, buf: Vec::new(), fingerprint: None, ended: false }
    }

    /// Wraps a buffered reader and fingerprints every consumed line —
    /// pass [`Fingerprint::new`] for a fresh stream, or a digest carried
    /// over from a checkpoint to continue its chain.
    pub fn with_fingerprint(input: R, fingerprint: Fingerprint) -> Self {
        Reader { input, line: 0, buf: Vec::new(), fingerprint: Some(fingerprint), ended: false }
    }

    /// Lines consumed so far (blank and malformed lines included).
    pub fn lines_read(&self) -> u64 {
        self.line
    }

    /// The running digest of all consumed lines, when fingerprinting.
    pub fn fingerprint(&self) -> Option<u64> {
        self.fingerprint.as_ref().map(Fingerprint::value)
    }

    /// Consumes up to `n` raw lines without parsing them (they still count
    /// toward [`lines_read`](Reader::lines_read) and the fingerprint).
    /// Returns how many lines were actually available before end of input.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying reader, and a line over
    /// [`MAX_LINE_BYTES`] as [`NdjsonError::LineTooLong`].
    pub fn skip_raw_lines(&mut self, n: u64) -> Result<u64, NdjsonError> {
        let mut skipped = 0;
        while skipped < n && self.read_raw_line()? {
            skipped += 1;
        }
        Ok(skipped)
    }

    /// Reads the next raw line, with its `\n` if it has one, into `buf`,
    /// and counts and fingerprints it. `false` at end of input, and after
    /// a line over the cap.
    fn read_raw_line(&mut self) -> Result<bool, NdjsonError> {
        self.buf.clear();
        // One byte past the cap tells an over-long line from a full one.
        let limit = MAX_LINE_BYTES as u64 + 1;
        if self.ended || (&mut self.input).take(limit).read_until(b'\n', &mut self.buf)? == 0 {
            return Ok(false);
        }
        if self.buf.len() as u64 == limit && self.buf.last() != Some(&b'\n') {
            self.ended = true;
            return Err(NdjsonError::LineTooLong { line: self.line as usize + 1 });
        }
        self.line += 1;
        if let Some(fp) = &mut self.fingerprint {
            fp.update(&self.buf);
        }
        Ok(true)
    }
}

impl<R: BufRead> Iterator for Reader<R> {
    type Item = Result<StreamRecord, NdjsonError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            match self.read_raw_line() {
                Ok(true) => {}
                Ok(false) => return None,
                Err(e) => return Some(Err(e)),
            }
            if let Some(decoded) = decode_raw_line(&self.buf) {
                let line = self.line as usize;
                return Some(decoded.map_err(|source| NdjsonError::Parse { line, source }));
            }
        }
    }
}

/// Writes records as NDJSON, one per line.
///
/// # Errors
///
/// Returns [`NdjsonError::Io`] on I/O failure.
pub fn write_stream<'a>(
    path: impl AsRef<Path>,
    records: impl IntoIterator<Item = &'a StreamRecord>,
) -> Result<(), NdjsonError> {
    let mut writer = StreamWriter::new(std::io::BufWriter::new(fs::File::create(path)?));
    for record in records {
        writer.write_record(record)?;
    }
    writer.finish()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<StreamRecord> {
        vec![
            StreamRecord::new(0, Operation::write(Value(1), Time(0), Time(10))),
            StreamRecord::new(3, Operation::read(Value(1), Time(12), Time(20))),
            StreamRecord::new(
                0,
                Operation::weighted_write(Value(2), Time(14), Time(30), Weight(5)),
            ),
        ]
    }

    #[test]
    fn line_roundtrip_preserves_records() {
        for record in sample() {
            let line = to_line(&record);
            assert_eq!(parse_line(&line).unwrap(), record);
        }
    }

    #[test]
    fn key_and_weight_default_when_omitted() {
        let record =
            parse_line(r#"{"kind":"read","value":9,"start":1,"finish":4}"#).unwrap();
        assert_eq!(record.key, 0);
        assert_eq!(record.weight, Weight::UNIT);
        assert_eq!(record.op(), Operation::read(Value(9), Time(1), Time(4)));
    }

    #[test]
    fn reader_skips_blanks_and_numbers_errors() {
        let text = "\n{\"kind\":\"write\",\"value\":1,\"start\":0,\"finish\":2}\n\n{ bad\n";
        let mut reader = Reader::new(text.as_bytes());
        assert!(reader.next().unwrap().is_ok());
        let err = reader.next().unwrap().unwrap_err();
        match err {
            NdjsonError::Parse { line, .. } => assert_eq!(line, 4),
            other => panic!("expected parse error, got {other:?}"),
        }
        assert!(reader.next().is_none());
    }

    #[test]
    fn fingerprinted_skip_matches_fingerprinted_read() {
        let text = "\n{\"kind\":\"write\",\"value\":1,\"start\":0,\"finish\":2}\n{ bad\n";
        // Read everything, fingerprinting as we go.
        let mut full = Reader::with_fingerprint(text.as_bytes(), Fingerprint::new());
        assert!(full.next().unwrap().is_ok());
        assert!(full.next().unwrap().is_err());
        assert!(full.next().is_none());
        assert_eq!(full.lines_read(), 3);
        // Skipping the same three raw lines yields the same digest.
        let mut skip = Reader::with_fingerprint(text.as_bytes(), Fingerprint::new());
        assert_eq!(skip.skip_raw_lines(3).unwrap(), 3);
        assert_eq!(skip.lines_read(), 3);
        assert_eq!(skip.fingerprint(), full.fingerprint());
        assert!(skip.fingerprint().is_some());
        // A diverging prefix yields a different digest.
        let other = "\n{\"kind\":\"write\",\"value\":9,\"start\":0,\"finish\":2}\n{ bad\n";
        let mut diverged = Reader::with_fingerprint(other.as_bytes(), Fingerprint::new());
        diverged.skip_raw_lines(3).unwrap();
        assert_ne!(diverged.fingerprint(), full.fingerprint());
        // Skipping past the end reports the shortfall; plain readers have
        // no fingerprint at all.
        let mut short = Reader::with_fingerprint(text.as_bytes(), Fingerprint::new());
        assert_eq!(short.skip_raw_lines(10).unwrap(), 3);
        assert_eq!(Reader::new(text.as_bytes()).fingerprint(), None);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("kav_history_ndjson_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ops.ndjson");
        let records = sample();
        write_stream(&path, &records).unwrap();
        let file = std::io::BufReader::new(fs::File::open(&path).unwrap());
        let read: Vec<StreamRecord> = Reader::new(file).collect::<Result<_, _>>().unwrap();
        assert_eq!(read, records);
        fs::remove_file(path).ok();
    }

    #[test]
    fn missing_required_field_is_an_error() {
        assert!(parse_line(r#"{"kind":"write","value":1,"start":0}"#).is_err());
        assert!(parse_line("").is_err());
    }

    #[test]
    fn write_line_into_matches_the_reference_encoder() {
        let mut buf = String::new();
        for record in sample() {
            buf.clear();
            write_line_into(&record, &mut buf);
            assert_eq!(buf, to_line(&record));
        }
        // Extremes of every numeric field.
        let record = StreamRecord {
            key: u64::MAX,
            kind: OpKind::Read,
            value: Value(0),
            start: Time(u64::MAX - 1),
            finish: Time(u64::MAX),
            weight: Weight(u32::MAX),
            client: u64::MAX,
        };
        buf.clear();
        write_line_into(&record, &mut buf);
        assert_eq!(buf, to_line(&record));
        // Client-tagged records carry the field; untagged ones omit it.
        let tagged =
            StreamRecord::new(1, Operation::write(Value(3), Time(0), Time(5)).with_client(9));
        buf.clear();
        write_line_into(&tagged, &mut buf);
        assert_eq!(buf, to_line(&tagged));
        assert!(buf.contains("\"client\":9"), "missing client field: {buf}");
        let untagged = StreamRecord::new(1, Operation::write(Value(3), Time(0), Time(5)));
        buf.clear();
        write_line_into(&untagged, &mut buf);
        assert_eq!(buf, to_line(&untagged));
        assert!(!buf.contains("client"), "untagged record leaked a client field: {buf}");
    }

    #[test]
    fn stream_writer_output_is_byte_identical_to_to_line() {
        let mut writer = StreamWriter::new(Vec::new());
        let mut expected = String::new();
        for record in sample() {
            writer.write_record(&record).unwrap();
            expected.push_str(&to_line(&record));
            expected.push('\n');
        }
        assert_eq!(writer.finish().unwrap(), expected.into_bytes());
    }

    #[test]
    fn parse_line_accepts_well_formed_variants() {
        let record = |key, kind, value, finish, weight, client| StreamRecord {
            key,
            kind,
            value: Value(value),
            start: Time(0),
            finish: Time(finish),
            weight: Weight(weight),
            client,
        };
        let (read, write) = (OpKind::Read, OpKind::Write);
        for (line, expected) in [
            (r#"{"kind":"write","value":7,"start":0,"finish":3}"#, record(0, write, 7, 3, 1, 0)),
            (
                r#"{"key":9,"kind":"read","value":7,"start":0,"finish":3,"weight":2}"#,
                record(9, read, 7, 3, 2, 0),
            ),
            (
                r#"{"kind":"read","value":7,"start":0,"finish":3,"client":12}"#,
                record(0, read, 7, 3, 1, 12),
            ),
            (
                r#"{"kind":"read","value":7,"start":0,"finish":3,"client":5,"client":6}"#,
                record(0, read, 7, 3, 1, 5),
            ),
            // Escaped field names and tags decode before matching:
            // `\u006b` is `k`, so this sets `key` and a `kind` of "read".
            (
                "{\"\\u006bey\":5,\"kind\":\"re\\u0061d\",\"value\":1,\"start\":0,\"finish\":1}",
                record(5, read, 1, 1, 1, 0),
            ),
            // Unknown fields of any shape are skipped.
            (
                r#"{"kind":"read","value":1,"start":0,"finish":1,"x":[{"y":null},1.5,"s"]}"#,
                record(0, read, 1, 1, 1, 0),
            ),
            // Duplicate fields: first occurrence wins.
            (
                r#"{"kind":"read","kind":"write","value":1,"value":2,"start":0,"finish":1}"#,
                record(0, read, 1, 1, 1, 0),
            ),
            // `-0` is an in-range unsigned integer.
            (r#"{"kind":"read","value":-0,"start":0,"finish":1}"#, record(0, read, 0, 1, 1, 0)),
            (
                " {\t\"kind\" : \"read\", \"value\":1, \"start\":0, \"finish\":1 } ",
                record(0, read, 1, 1, 1, 0),
            ),
        ] {
            assert_eq!(parse_line(line).unwrap(), expected, "{line:?}");
        }
    }

    #[test]
    fn parse_line_rejects_malformed_lines() {
        for line in [
            "",
            "null",
            "[]",
            r#"{"kind":"write","value":1,"start":0}"#,
            r#"{"kind":"write","value":1,"start":0,"finish":2} extra"#,
            r#"{"kind":"writ","value":1,"start":0,"finish":2}"#,
            r#"{"kind":"write","value":1.5,"start":0,"finish":2}"#,
            r#"{"kind":"write","value":-1,"start":0,"finish":2}"#,
            r#"{"kind":"write","value":01,"start":0,"finish":2}"#,
            r#"{"kind":"write","value":18446744073709551616,"start":0,"finish":2}"#,
            r#"{"kind":"write","value":1,"start":0,"finish":2,"weight":4294967296}"#,
            // Range checks apply inside skipped fields too.
            r#"{"kind":"write","value":1,"start":0,"finish":2,"x":18446744073709551616}"#,
            r#"{"kind":"write","value":1,"start":0,"finish":2,"x":"\ud800"}"#,
            r#"{"kind":"write","value":1,"start":0,"finish":2,}"#,
            r#"{"kind":"write","value":1,"start":0,"finish":2"#,
        ] {
            assert!(parse_line(line).is_err(), "accepted {line:?}");
        }
        // The recursion limit is serde_json's 128: an unknown field's value
        // sits at depth 1, so 126 nested arrays in it pass, 127 reach the
        // limit and 200 are far past it.
        let nest = |n: usize| {
            format!(
                "{{\"kind\":\"read\",\"value\":1,\"start\":0,\"finish\":1,\"x\":{}0{}}}",
                "[".repeat(n),
                "]".repeat(n)
            )
        };
        assert!(parse_line(&nest(126)).is_ok());
        assert!(parse_line(&nest(127)).is_err());
        assert!(parse_line(&nest(200)).is_err());
    }

    #[test]
    fn slice_reader_matches_reader_on_records_errors_and_fingerprints() {
        // The whole slice at once against the same bytes in 3-byte
        // chunks (how a pipe or stdin can arrive).
        let text = "\n{\"kind\":\"write\",\"value\":1,\"start\":0,\"finish\":2}\n\n{ bad\n{\"kind\":\"read\",\"value\":1,\"start\":3,\"finish\":4}";
        let chunked = || std::io::BufReader::with_capacity(3, text.as_bytes());
        let mut by_io = Reader::with_fingerprint(chunked(), Fingerprint::new());
        let mut by_slice = SliceReader::with_fingerprint(text.as_bytes(), Fingerprint::new());
        loop {
            match (by_io.next(), by_slice.next()) {
                (None, None) => break,
                (Some(Ok(a)), Some(Ok(b))) => assert_eq!(a, b),
                (Some(Err(NdjsonError::Parse { line: a, .. })), Some(Err(NdjsonError::Parse { line: b, .. }))) => {
                    assert_eq!(a, b)
                }
                (a, b) => panic!("readers diverged: {a:?} vs {b:?}"),
            }
        }
        assert_eq!(by_io.lines_read(), by_slice.lines_read());
        assert_eq!(by_io.fingerprint(), by_slice.fingerprint());
        assert!(by_io.fingerprint().is_some());
        // Skipping the raw lines continues the same chain on either input.
        let mut skip_io = Reader::with_fingerprint(chunked(), Fingerprint::new());
        assert_eq!(skip_io.skip_raw_lines(5).unwrap(), 5);
        let mut skip_slice = SliceReader::with_fingerprint(text.as_bytes(), Fingerprint::new());
        assert_eq!(skip_slice.skip_raw_lines(5).unwrap(), 5);
        assert_eq!(skip_io.fingerprint(), skip_slice.fingerprint());
        assert_eq!(skip_io.fingerprint(), by_io.fingerprint());
    }

    #[test]
    fn invalid_utf8_is_a_malformed_line_that_is_counted_and_fingerprinted() {
        let good = "{\"kind\":\"write\",\"value\":1,\"start\":0,\"finish\":2}\n";
        let mut bytes = good.as_bytes().to_vec();
        // Well-formed but for one byte in an unknown field.
        let bad = b"{\"kind\":\"read\",\"value\":1,\"start\":3,\"finish\":4,\"x\":\"\xff\"}\n";
        bytes.extend_from_slice(bad);
        bytes.extend_from_slice(good.replace("\"value\":1", "\"value\":2").as_bytes());
        let mut reader = SliceReader::with_fingerprint(&bytes, Fingerprint::new());
        assert!(reader.next().unwrap().is_ok());
        match reader.next().unwrap() {
            Err(NdjsonError::Parse { line, source }) => {
                assert_eq!(line, 2);
                assert!(source.to_string().contains("utf-8"), "{source}");
            }
            other => panic!("expected a parse error, got {other:?}"),
        }
        // Decoding carries on past the bad line.
        assert_eq!(reader.next().unwrap().unwrap().value, Value(2));
        assert!(reader.next().is_none());
        assert_eq!(reader.lines_read(), 3);
        // The bad line's bytes are in the digest: skipping verifies the
        // prefix, and a different bad byte changes the digest.
        let mut skip = SliceReader::with_fingerprint(&bytes, Fingerprint::new());
        assert_eq!(skip.skip_raw_lines(3).unwrap(), 3);
        assert_eq!(skip.fingerprint(), reader.fingerprint());
        let mut other = bytes.clone();
        let at = other.iter().position(|&b| b == 0xff).unwrap();
        other[at] = 0xfe;
        let mut diverged = SliceReader::with_fingerprint(&other, Fingerprint::new());
        assert_eq!(diverged.skip_raw_lines(3).unwrap(), 3);
        assert_ne!(diverged.fingerprint(), reader.fingerprint());
    }
}
