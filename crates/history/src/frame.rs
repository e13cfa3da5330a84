//! Compact binary op frames: the fixed-width twin of the NDJSON codec.
//!
//! One operation is one little-endian frame. The v1 layout
//! ([`FRAME_MAGIC`], 37 bytes) has no session information; the v2 layout
//! ([`FRAME_MAGIC_V2`], 45 bytes) appends the issuing client id:
//!
//! ```text
//! offset  size  field
//!      0     8  key     (u64 LE)
//!      8     8  value   (u64 LE)
//!     16     8  start   (u64 LE)
//!     24     8  finish  (u64 LE)
//!     32     4  weight  (u32 LE)
//!     36     1  kind    (0 = read, 1 = write)
//!     37     8  client  (u64 LE, v2 only; 0 = untagged)
//! ```
//!
//! A [`Reader`] reads the leading magic and decodes either version;
//! writers pick one explicitly ([`FrameWriter::new`] for v1, which rejects
//! client-tagged records rather than silently dropping the tag, and
//! [`FrameWriter::new_v2`] for v2).
//!
//! Frames exist only where operations leave the process as bytes. In
//! memory, routed operations stay `(key, Operation)` pairs. A stream file
//! is the 8-byte magic [`FRAME_MAGIC`] followed by consecutive frames
//! (`kav gen --format binary`, `kav stream --format binary`). [`Reader`]
//! streams it through any `BufRead` and mirrors the NDJSON reader's
//! accounting: frames take the place of lines in checkpoint positions, and
//! the resume [`Fingerprint`] chain digests one chunk per frame — so a
//! checkpoint records which format produced it, and cross-format resume
//! fails the fingerprint check instead of silently mixing formats.
//!
//! The fleet wire carries v2 frames too; it lays them out with
//! [`encode_frame_v2`] and reads them with [`decode_frame_v2`].

use crate::fxhash::Fingerprint;
use crate::ndjson::{NdjsonError, StreamRecord};
use crate::{OpKind, Operation, Time, Value, Weight, UNTAGGED_CLIENT};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs;
use std::io::{BufRead, Read};
use std::path::Path;

/// Leading magic of a v1 binary stream file (37-byte frames, no client).
pub const FRAME_MAGIC: [u8; 8] = *b"KAVF0001";

/// Leading magic of a v2 binary stream file (45-byte frames with client).
pub const FRAME_MAGIC_V2: [u8; 8] = *b"KAVF0002";

/// Size of one encoded v1 frame in bytes.
pub const FRAME_LEN: usize = 37;

/// Size of one encoded v2 frame in bytes (v1 plus the client id).
pub const FRAME_LEN_V2: usize = 45;

const KIND_READ: u8 = 0;
const KIND_WRITE: u8 = 1;

/// Appends one operation as a 37-byte v1 frame. The client tag, if any,
/// is not representable in v1; a v1 [`FrameWriter`] rejects tagged records.
fn encode_frame(key: u64, op: &Operation, out: &mut Vec<u8>) {
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&op.value.0.to_le_bytes());
    out.extend_from_slice(&op.start.0.to_le_bytes());
    out.extend_from_slice(&op.finish.0.to_le_bytes());
    out.extend_from_slice(&op.weight.0.to_le_bytes());
    out.push(match op.kind {
        OpKind::Read => KIND_READ,
        OpKind::Write => KIND_WRITE,
    });
}

/// Appends one operation as a 45-byte v2 frame (v1 plus the client id).
pub fn encode_frame_v2(key: u64, op: &Operation, out: &mut Vec<u8>) {
    encode_frame(key, op, out);
    out.extend_from_slice(&op.client.to_le_bytes());
}

/// Decodes one 37-byte v1 frame; `Err` carries the offending kind byte.
fn decode_frame(frame: &[u8]) -> Result<(u64, Operation), u8> {
    let u64_at = |off: usize| {
        u64::from_le_bytes(frame[off..off + 8].try_into().expect("8-byte slice"))
    };
    let kind = match frame[36] {
        KIND_READ => OpKind::Read,
        KIND_WRITE => OpKind::Write,
        bad => return Err(bad),
    };
    Ok((
        u64_at(0),
        Operation {
            kind,
            value: Value(u64_at(8)),
            start: Time(u64_at(16)),
            finish: Time(u64_at(24)),
            weight: Weight(u32::from_le_bytes(frame[32..36].try_into().expect("4-byte slice"))),
            client: UNTAGGED_CLIENT,
        },
    ))
}

/// Decodes one 45-byte v2 frame; `Err` carries the offending kind byte.
///
/// # Errors
///
/// A kind byte that is neither read (0) nor write (1).
pub fn decode_frame_v2(frame: &[u8; FRAME_LEN_V2]) -> Result<(u64, Operation), u8> {
    let (key, mut op) = decode_frame(&frame[..FRAME_LEN])?;
    op.client = u64::from_le_bytes(frame[37..45].try_into().expect("8-byte slice"));
    Ok((key, op))
}

/// A bit-prefix slice of the hashed key space — the unit the fleet
/// coordinator assigns, hands off and splits.
///
/// A range covers every key whose multiplicative hash has `prefix` as its
/// top `bits` bits. Unlike `shard_of`'s modulus, prefixes **nest**:
/// [`split`](KeyRange::split) yields two children that exactly tile the
/// parent, so a hot shard can be split without re-hashing anything else in
/// the fleet, and any set of ranges produced by repeated splits of
/// [`KeyRange::ALL`] tiles the key space with no overlap.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct KeyRange {
    /// How many leading hash bits the prefix pins (0 = the whole space).
    pub bits: u32,
    /// The pinned leading bits, right-aligned (`prefix < 2^bits`).
    pub prefix: u64,
}

/// The multiplicative hash that places keys: a [`KeyRange`] pins its top
/// bits, and a pipeline's `shard_of` takes its high half modulo the shard
/// count, so clustered keys still spread.
pub fn key_hash(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

impl KeyRange {
    /// The whole key space (the one range a single-worker fleet owns).
    pub const ALL: KeyRange = KeyRange { bits: 0, prefix: 0 };

    /// Splits can nest at most this deep (far beyond any real fleet, but
    /// it keeps `prefix` shifts well-defined).
    pub const MAX_BITS: u32 = 32;

    /// Whether the pair is internally consistent: `bits` within
    /// [`MAX_BITS`](KeyRange::MAX_BITS) and `prefix` inside `2^bits`.
    /// Deserialized ranges must pass this before use.
    pub fn is_valid(&self) -> bool {
        self.bits <= Self::MAX_BITS && (self.bits == 0 || self.prefix >> self.bits == 0)
    }

    /// Whether `key` hashes into this range.
    pub fn contains(&self, key: u64) -> bool {
        if self.bits == 0 {
            return true;
        }
        key_hash(key) >> (64 - self.bits) == self.prefix
    }

    /// Whether some key hashes into both ranges: one range's prefix
    /// extends the other's.
    pub fn overlaps(&self, other: &KeyRange) -> bool {
        let bits = self.bits.min(other.bits);
        self.prefix >> (self.bits - bits) == other.prefix >> (other.bits - bits)
    }

    /// The two child ranges that exactly tile this one (next hash bit 0
    /// and 1) — the hot-shard split.
    ///
    /// # Panics
    ///
    /// Panics past [`MAX_BITS`](KeyRange::MAX_BITS) levels of nesting.
    pub fn split(&self) -> (KeyRange, KeyRange) {
        assert!(self.bits < Self::MAX_BITS, "key range split past {} bits", Self::MAX_BITS);
        let bits = self.bits + 1;
        (
            KeyRange { bits, prefix: self.prefix << 1 },
            KeyRange { bits, prefix: (self.prefix << 1) | 1 },
        )
    }

    /// The smallest uniform partition with at least `workers` ranges:
    /// `2^ceil(log2(workers))` ranges of equal width, in prefix order.
    /// Dealt round-robin they give every worker of a fresh fleet one or
    /// two ranges.
    pub fn partition(workers: usize) -> Vec<KeyRange> {
        let workers = workers.clamp(1, 1usize << Self::MAX_BITS);
        let bits = usize::BITS - (workers - 1).leading_zeros();
        (0..1u64 << bits).map(|prefix| KeyRange { bits, prefix }).collect()
    }
}

impl fmt::Display for KeyRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.bits == 0 {
            write!(f, "*/0")
        } else {
            write!(f, "{:0width$b}/{}", self.prefix, self.bits, width = self.bits as usize)
        }
    }
}

/// Streaming writer for the on-disk frame format: magic first, then one
/// frame per record, through a reused buffer.
///
/// [`new`](FrameWriter::new) writes the v1 layout and rejects
/// client-tagged records (the tag has no v1 encoding — dropping it
/// silently would change verdicts under session-aware models);
/// [`new_v2`](FrameWriter::new_v2) writes the v2 layout, which carries
/// the tag.
pub struct FrameWriter<W: std::io::Write> {
    out: W,
    buf: Vec<u8>,
    wrote_magic: bool,
    v2: bool,
}

impl<W: std::io::Write> FrameWriter<W> {
    /// Wraps `out` as a v1 stream; the magic goes out with the first
    /// record (or [`finish`](FrameWriter::finish), so empty streams are
    /// valid too).
    pub fn new(out: W) -> Self {
        FrameWriter { out, buf: Vec::with_capacity(FRAME_LEN_V2), wrote_magic: false, v2: false }
    }

    /// Wraps `out` as a v2 stream (45-byte frames carrying the client id).
    pub fn new_v2(out: W) -> Self {
        FrameWriter { out, buf: Vec::with_capacity(FRAME_LEN_V2), wrote_magic: false, v2: true }
    }

    fn magic(&mut self) -> std::io::Result<()> {
        if !self.wrote_magic {
            self.out.write_all(if self.v2 { &FRAME_MAGIC_V2 } else { &FRAME_MAGIC })?;
            self.wrote_magic = true;
        }
        Ok(())
    }

    /// Writes one record as a frame.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer; a v1 writer
    /// additionally rejects client-tagged records with
    /// [`std::io::ErrorKind::InvalidInput`].
    pub fn write_record(&mut self, record: &StreamRecord) -> std::io::Result<()> {
        if !self.v2 && record.client != UNTAGGED_CLIENT {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "client-tagged record (client {}) cannot be encoded as a v1 frame; \
                     use the v2 frame format",
                    record.client
                ),
            ));
        }
        self.magic()?;
        self.buf.clear();
        if self.v2 {
            encode_frame_v2(record.key, &record.op(), &mut self.buf);
        } else {
            encode_frame(record.key, &record.op(), &mut self.buf);
        }
        self.out.write_all(&self.buf)
    }

    /// Flushes (writing the magic if nothing else was) and returns the
    /// underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn finish(mut self) -> std::io::Result<W> {
        self.magic()?;
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Writes records as a binary frame stream, picking the layout by
/// content: v1 when no record carries a client tag (byte-identical to
/// pre-session streams), v2 as soon as any record does.
///
/// # Errors
///
/// Propagates I/O errors from `out`.
pub fn write_frames_to<'a, W: std::io::Write>(
    out: W,
    records: impl IntoIterator<Item = &'a StreamRecord> + Clone,
) -> std::io::Result<W> {
    let tagged = records.clone().into_iter().any(|r| r.client != UNTAGGED_CLIENT);
    let mut writer = if tagged { FrameWriter::new_v2(out) } else { FrameWriter::new(out) };
    for record in records {
        writer.write_record(record)?;
    }
    writer.finish()
}

/// Writes records as a binary frame stream file through
/// [`write_frames_to`].
///
/// # Errors
///
/// Returns [`NdjsonError::Io`] on I/O failure.
pub fn write_frames<'a>(
    path: impl AsRef<Path>,
    records: impl IntoIterator<Item = &'a StreamRecord> + Clone,
) -> Result<(), NdjsonError> {
    write_frames_to(std::io::BufWriter::new(fs::File::create(path)?), records)?;
    Ok(())
}

/// Streaming reader over a binary frame stream — the frame-format peer of
/// [`ndjson::Reader`](crate::ndjson::Reader), over any [`BufRead`]: a
/// buffered file, a pipe, stdin or bytes already in memory.
///
/// Frames take the place of lines: [`frames_read`](Reader::frames_read)
/// is the checkpoint position unit, errors carry the 1-based frame number,
/// and the resume [`Fingerprint`] chain digests one chunk per consumed
/// frame (malformed ones included, like malformed NDJSON lines). A frame
/// cut short by the end of the input is the truncated tail: it is counted,
/// fingerprinted and reported like any other malformed frame.
pub struct Reader<R> {
    input: R,
    frames: u64,
    frame_len: usize,
    buf: [u8; FRAME_LEN_V2],
    fingerprint: Option<Fingerprint>,
}

/// A [`Reader`] over frame bytes already in memory.
pub type FrameReader<'a> = Reader<&'a [u8]>;

impl<R: BufRead> Reader<R> {
    /// Wraps a frame stream (no fingerprinting), reading the leading magic
    /// to pick the v1 or v2 layout.
    ///
    /// # Errors
    ///
    /// Rejects input that begins with neither [`FRAME_MAGIC`] nor
    /// [`FRAME_MAGIC_V2`], and propagates I/O errors reading it.
    pub fn new(input: R) -> Result<Self, NdjsonError> {
        Self::build(input, None)
    }

    /// Wraps a frame stream and fingerprints every consumed frame.
    ///
    /// # Errors
    ///
    /// Rejects input that begins with neither [`FRAME_MAGIC`] nor
    /// [`FRAME_MAGIC_V2`], and propagates I/O errors reading it.
    pub fn with_fingerprint(input: R, fingerprint: Fingerprint) -> Result<Self, NdjsonError> {
        Self::build(input, Some(fingerprint))
    }

    fn build(mut input: R, fingerprint: Option<Fingerprint>) -> Result<Self, NdjsonError> {
        let mut magic = [0u8; 8];
        let frame_len = match (fill(&mut input, &mut magic)?, magic) {
            (8, FRAME_MAGIC) => FRAME_LEN,
            (8, FRAME_MAGIC_V2) => FRAME_LEN_V2,
            _ => {
                return Err(NdjsonError::Io(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "not a kav binary frame stream (bad magic; expected KAVF0001 or KAVF0002)",
                )))
            }
        };
        Ok(Reader { input, frames: 0, frame_len, buf: [0; FRAME_LEN_V2], fingerprint })
    }

    /// Frames consumed so far (malformed ones included) — the position
    /// unit checkpoints record for binary ingest, as `lines_read` is for
    /// NDJSON.
    pub fn frames_read(&self) -> u64 {
        self.frames
    }

    /// The running digest of all consumed frames, when fingerprinting.
    pub fn fingerprint(&self) -> Option<u64> {
        self.fingerprint.as_ref().map(Fingerprint::value)
    }

    /// Reads the next raw frame into `buf` and counts and fingerprints it.
    /// Returns its length: the layout width, less for the truncated tail,
    /// 0 at end of input.
    fn read_raw_frame(&mut self) -> std::io::Result<usize> {
        let len = fill(&mut self.input, &mut self.buf[..self.frame_len])?;
        if len > 0 {
            self.frames += 1;
            if let Some(fp) = &mut self.fingerprint {
                fp.update(&self.buf[..len]);
            }
        }
        Ok(len)
    }

    fn parse_error(&self, message: String) -> NdjsonError {
        NdjsonError::Parse {
            line: self.frames as usize,
            source: serde::DeError::custom(message).into(),
        }
    }

    /// Consumes up to `n` raw frames without decoding them (they still
    /// count toward [`frames_read`](Reader::frames_read) and the
    /// fingerprint; a truncated tail counts as one frame). Returns how
    /// many frames were actually available.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying reader.
    pub fn skip_raw_frames(&mut self, n: u64) -> std::io::Result<u64> {
        let mut skipped = 0;
        while skipped < n && self.read_raw_frame()? > 0 {
            skipped += 1;
        }
        Ok(skipped)
    }
}

/// Reads into `buf` until it is full or the input ends; returns how many
/// bytes arrived.
fn fill(input: &mut impl Read, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match input.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

impl<R: BufRead> Iterator for Reader<R> {
    type Item = Result<StreamRecord, NdjsonError>;

    fn next(&mut self) -> Option<Self::Item> {
        let len = match self.read_raw_frame() {
            Ok(0) => return None,
            Ok(len) => len,
            Err(e) => return Some(Err(e.into())),
        };
        if len < self.frame_len {
            return Some(Err(self.parse_error(format!(
                "truncated frame: {len} trailing bytes (frames are {} bytes)",
                self.frame_len
            ))));
        }
        let decoded = if self.frame_len == FRAME_LEN_V2 {
            decode_frame_v2(&self.buf)
        } else {
            decode_frame(&self.buf[..len])
        };
        match decoded {
            Ok((key, op)) => Some(Ok(StreamRecord::new(key, op))),
            Err(bad) => Some(Err(
                self.parse_error(format!("invalid kind byte {bad} (0 = read, 1 = write)"))
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<StreamRecord> {
        vec![
            StreamRecord::new(0, Operation::write(Value(1), Time(0), Time(10))),
            StreamRecord::new(3, Operation::read(Value(1), Time(12), Time(20))),
            StreamRecord::new(
                u64::MAX,
                Operation::weighted_write(Value(u64::MAX), Time(14), Time(30), Weight(u32::MAX)),
            ),
        ]
    }

    #[test]
    fn frame_roundtrip_preserves_records() {
        let mut writer = FrameWriter::new(Vec::new());
        for record in sample() {
            writer.write_record(&record).unwrap();
        }
        let bytes = writer.finish().unwrap();
        assert_eq!(bytes.len(), FRAME_MAGIC.len() + sample().len() * FRAME_LEN);
        let decoded: Vec<_> =
            FrameReader::new(&bytes).unwrap().collect::<Result<_, _>>().unwrap();
        assert_eq!(decoded, sample());
    }

    #[test]
    fn bad_magic_truncation_and_bad_kind_are_rejected() {
        assert!(matches!(FrameReader::new(b"NOPE"), Err(NdjsonError::Io(_))));
        assert!(matches!(FrameReader::new(b"KAVF9999AAAA"), Err(NdjsonError::Io(_))));

        // An empty stream is just the magic.
        let empty = FrameWriter::new(Vec::new()).finish().unwrap();
        assert_eq!(empty, FRAME_MAGIC);
        assert_eq!(FrameReader::new(&empty).unwrap().count(), 0);

        // Truncated tail: one good frame then half a frame.
        let mut writer = FrameWriter::new(Vec::new());
        writer.write_record(&sample()[0]).unwrap();
        writer.write_record(&sample()[1]).unwrap();
        let mut bytes = writer.finish().unwrap();
        bytes.truncate(FRAME_MAGIC.len() + FRAME_LEN + 10);
        let mut reader = FrameReader::new(&bytes).unwrap();
        assert_eq!(reader.next().unwrap().unwrap(), sample()[0]);
        match reader.next().unwrap().unwrap_err() {
            NdjsonError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
        assert!(reader.next().is_none());

        // A flipped kind byte errors with the frame number and skips on.
        let mut writer = FrameWriter::new(Vec::new());
        for record in sample() {
            writer.write_record(&record).unwrap();
        }
        let mut bytes = writer.finish().unwrap();
        bytes[FRAME_MAGIC.len() + FRAME_LEN + 36] = 7;
        let mut reader = FrameReader::new(&bytes).unwrap();
        assert!(reader.next().unwrap().is_ok());
        match reader.next().unwrap().unwrap_err() {
            NdjsonError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
        assert_eq!(reader.next().unwrap().unwrap(), sample()[2]);
    }

    #[test]
    fn v2_frames_carry_the_client_tag() {
        let records = vec![
            StreamRecord::new(0, Operation::write(Value(1), Time(0), Time(10)).with_client(3)),
            StreamRecord::new(1, Operation::read(Value(1), Time(12), Time(20))),
            StreamRecord::new(
                2,
                Operation::write(Value(2), Time(30), Time(40)).with_client(u64::MAX),
            ),
        ];
        let mut writer = FrameWriter::new_v2(Vec::new());
        for record in &records {
            writer.write_record(record).unwrap();
        }
        let bytes = writer.finish().unwrap();
        assert_eq!(&bytes[..8], &FRAME_MAGIC_V2);
        assert_eq!(bytes.len(), FRAME_MAGIC_V2.len() + records.len() * FRAME_LEN_V2);
        let decoded: Vec<_> =
            FrameReader::new(&bytes).unwrap().collect::<Result<_, _>>().unwrap();
        assert_eq!(decoded, records);

        // An empty v2 stream is just the v2 magic.
        let empty = FrameWriter::new_v2(Vec::<u8>::new()).finish().unwrap();
        assert_eq!(empty, FRAME_MAGIC_V2);
        assert_eq!(FrameReader::new(&empty).unwrap().count(), 0);

        // A v1 writer refuses to drop the tag.
        let mut v1 = FrameWriter::new(Vec::new());
        let err = v1.write_record(&records[0]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        // Untagged records still encode in v1 — byte-identical streams.
        v1.write_record(&records[1]).unwrap();
        assert_eq!(v1.finish().unwrap().len(), FRAME_MAGIC.len() + FRAME_LEN);
    }

    #[test]
    fn write_frames_picks_the_layout_by_content() {
        let dir = std::env::temp_dir().join("kav_history_frame_v2_test");
        fs::create_dir_all(&dir).unwrap();
        let untagged = sample();
        let path = dir.join("v1.bin");
        write_frames(&path, &untagged).unwrap();
        assert_eq!(&fs::read(&path).unwrap()[..8], &FRAME_MAGIC);
        let tagged = vec![StreamRecord::new(
            0,
            Operation::write(Value(1), Time(0), Time(10)).with_client(5),
        )];
        let path2 = dir.join("v2.bin");
        write_frames(&path2, &tagged).unwrap();
        let bytes = fs::read(&path2).unwrap();
        assert_eq!(&bytes[..8], &FRAME_MAGIC_V2);
        let decoded: Vec<_> =
            FrameReader::new(&bytes).unwrap().collect::<Result<_, _>>().unwrap();
        assert_eq!(decoded, tagged);
        fs::remove_file(path).ok();
        fs::remove_file(path2).ok();
    }

    #[test]
    fn key_ranges_nest_and_tile() {
        assert!(KeyRange::ALL.is_valid());
        for key in [0u64, 1, 7, 42, 0xDEAD_BEEF, u64::MAX] {
            assert!(KeyRange::ALL.contains(key));
        }
        // Children exactly tile the parent: every key lands in one child.
        let (zero, one) = KeyRange::ALL.split();
        let (zz, zo) = zero.split();
        for key in 0..10_000u64 {
            assert!(KeyRange::ALL.contains(key));
            assert_ne!(zero.contains(key), one.contains(key));
            if zero.contains(key) {
                assert_ne!(zz.contains(key), zo.contains(key));
            } else {
                assert!(!zz.contains(key) && !zo.contains(key));
            }
        }
        // Nested ranges overlap; disjoint ones share no key.
        for (a, b) in [(KeyRange::ALL, zz), (zero, zz), (zo, zero), (one, one)] {
            assert!(a.overlaps(&b) && b.overlaps(&a), "{a} and {b}");
        }
        for (a, b) in [(zero, one), (zz, zo), (one, zz)] {
            assert!(!a.overlaps(&b) && !b.overlaps(&a), "{a} and {b}");
        }
        // partition(n) tiles the space with the smallest power of two >= n.
        for workers in 1..=9usize {
            let ranges = KeyRange::partition(workers);
            assert!(ranges.len() >= workers && ranges.len() < workers * 2);
            assert!(ranges.len().is_power_of_two());
            for key in (0..50_000u64).step_by(97) {
                assert_eq!(ranges.iter().filter(|r| r.contains(key)).count(), 1);
            }
        }
        assert!(!KeyRange { bits: 2, prefix: 4 }.is_valid());
        assert!(!KeyRange { bits: KeyRange::MAX_BITS + 1, prefix: 0 }.is_valid());
        assert_eq!(KeyRange::ALL.to_string(), "*/0");
        assert_eq!(KeyRange { bits: 3, prefix: 0b010 }.to_string(), "010/3");
    }

    #[test]
    fn fingerprinted_skip_matches_fingerprinted_read() {
        let mut writer = FrameWriter::new(Vec::new());
        for record in sample() {
            writer.write_record(&record).unwrap();
        }
        let bytes = writer.finish().unwrap();

        let mut full = FrameReader::with_fingerprint(&bytes, Fingerprint::new()).unwrap();
        assert_eq!(full.by_ref().filter_map(Result::ok).count(), 3);
        assert_eq!(full.frames_read(), 3);

        let mut skip = FrameReader::with_fingerprint(&bytes, Fingerprint::new()).unwrap();
        assert_eq!(skip.skip_raw_frames(3).unwrap(), 3);
        assert_eq!(skip.fingerprint(), full.fingerprint());
        assert!(skip.fingerprint().is_some());

        // Different bytes, different digest; skipping past the end
        // reports the shortfall.
        let mut writer = FrameWriter::new(Vec::new());
        writer.write_record(&sample()[1]).unwrap();
        let other = writer.finish().unwrap();
        let mut diverged = FrameReader::with_fingerprint(&other, Fingerprint::new()).unwrap();
        assert_eq!(diverged.skip_raw_frames(10).unwrap(), 1);
        assert_ne!(diverged.fingerprint(), full.fingerprint());
    }
}
