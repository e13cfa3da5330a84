//! The fragment layout of a [`PipelineSnapshot`]: its header, plus one
//! serialised JSON fragment per key entry, each with its key in the clear.
//!
//! Per §II-B every key's state is independent, so a snapshot of many key
//! ranges is just the ranges' per-key entries laid out in key order. The
//! fleet coordinator never parses what it stores, forwards, splits and
//! writes: it checks the header and the keys, keeps the bytes it
//! received, [partitions](SnapshotFragments::partition) a snapshot by
//! filtering keys, and writes a checkpoint by laying the fragments out
//! inside the envelope. Only a worker parses fragments
//! ([`SnapshotFragments::parse`]), to resume a range it is assigned.
//!
//! A fragment is the compact JSON of one [`KeySnapshot`], [`KeyReport`] or
//! [`KeyError`], and the header serialises like the snapshot's leading
//! fields, so [`SnapshotFragments::write_json`] writes exactly the bytes
//! `serde_json::to_string` gives for the equivalent [`PipelineSnapshot`].
//!
//! # Wire layout
//!
//! On the fleet wire (ASSIGN, RETIRE_REPLY, and each entry of
//! SNAPSHOT_REPLY) a snapshot travels tagged with a key range, all
//! integers little-endian:
//!
//! ```text
//! bits u32 | prefix u64                          the range
//! header_len u32 | states u32 | reports u32 | errors u32
//! (states + reports + errors) × (key u64 | len u32)   the index
//! header JSON                                    header_len bytes
//! fragments, in index order                      the lens' sum of bytes
//! ```
//!
//! The decoder checks every length against the bytes that remain before
//! it allocates or slices, and checks that every key lies in the range,
//! ascends strictly within its list, and opens its own fragment.

use super::pipeline::{KeyEntries, KeyError, KeyReport, KeySnapshot, PipelineSnapshot};
use crate::models::ModelId;
use kav_history::frame::KeyRange;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::error::Error;
use std::fmt;
use std::io::{self, Write};
use std::sync::Arc;

/// The fields of a [`PipelineSnapshot`] that are not per key, declared in
/// the same order with the same attributes, so a header's JSON is the
/// snapshot's JSON up to its key lists.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SnapshotHeader {
    /// [`PipelineSnapshot::algo`].
    pub algo: String,
    /// [`PipelineSnapshot::model`].
    #[serde(default, skip_serializing_if = "ModelId::is_k_atomic")]
    pub model: ModelId,
    /// [`PipelineSnapshot::k`].
    pub k: u64,
    /// [`PipelineSnapshot::window`].
    pub window: usize,
    /// [`PipelineSnapshot::horizon`].
    pub horizon: usize,
    /// [`PipelineSnapshot::ops_routed`].
    pub ops_routed: u64,
    /// [`PipelineSnapshot::uncertified`]: the trust flag, which travels
    /// with the state through every hand-off.
    #[serde(default)]
    pub uncertified: bool,
    /// [`PipelineSnapshot::partition`].
    #[serde(default)]
    pub partition: Option<KeyRange>,
}

/// One key entry's serialised JSON, with its key in the clear. Clones
/// share the bytes.
#[derive(Clone)]
pub struct Fragment {
    /// The entry's key.
    pub key: u64,
    bytes: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Fragment {
    /// The entry's compact JSON.
    fn json(&self) -> &[u8] {
        &self.bytes[self.start..self.end]
    }
}

impl PartialEq for Fragment {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.json() == other.json()
    }
}

impl fmt::Debug for Fragment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fragment {{ key: {}, {} bytes }}", self.key, self.end - self.start)
    }
}

/// A [`PipelineSnapshot`] in fragment layout (see the module docs). Each
/// key list is sorted by key, as the snapshot's are.
#[derive(Clone, Debug, PartialEq)]
pub struct SnapshotFragments {
    /// Everything but the key lists.
    pub header: SnapshotHeader,
    /// [`PipelineSnapshot::states`], one fragment per [`KeySnapshot`].
    pub states: Vec<Fragment>,
    /// [`PipelineSnapshot::reports`], one fragment per [`KeyReport`].
    pub reports: Vec<Fragment>,
    /// [`PipelineSnapshot::errors`], one fragment per [`KeyError`].
    pub errors: Vec<Fragment>,
}

/// The snapshot's key lists by name, and the field that follows `key` in
/// each of their entries.
const LISTS: [(&str, &str); 3] = [("states", "state"), ("reports", "report"), ("errors", "error")];

/// Bytes of one index entry: key u64, len u32.
const INDEX_ENTRY: usize = 12;

impl PipelineSnapshot {
    /// The snapshot with `header`'s fields and these key lists.
    pub(super) fn from_parts(header: SnapshotHeader, entries: KeyEntries) -> Self {
        let SnapshotHeader { algo, model, k, window, horizon, ops_routed, uncertified, partition } =
            header;
        let (states, reports, errors) = entries;
        PipelineSnapshot {
            algo,
            model,
            k,
            window,
            horizon,
            ops_routed,
            uncertified,
            partition,
            states,
            reports,
            errors,
        }
    }

    /// Everything but the key lists.
    pub(super) fn header(&self) -> SnapshotHeader {
        SnapshotHeader {
            algo: self.algo.clone(),
            model: self.model,
            k: self.k,
            window: self.window,
            horizon: self.horizon,
            ops_routed: self.ops_routed,
            uncertified: self.uncertified,
            partition: self.partition,
        }
    }
}

impl TryFrom<PipelineSnapshot> for SnapshotFragments {
    type Error = serde_json::Error;

    /// Serialises each entry into a fragment of its own.
    fn try_from(snapshot: PipelineSnapshot) -> Result<Self, serde_json::Error> {
        fn fragments<T: Serialize>(
            entries: &[T],
            key: impl Fn(&T) -> u64,
        ) -> Result<Vec<Fragment>, serde_json::Error> {
            entries
                .iter()
                .map(|entry| {
                    let bytes = serde_json::to_string(entry)?.into_bytes();
                    let end = bytes.len();
                    Ok(Fragment { key: key(entry), bytes: Arc::new(bytes), start: 0, end })
                })
                .collect()
        }
        Ok(SnapshotFragments {
            header: snapshot.header(),
            states: fragments(&snapshot.states, |e: &KeySnapshot| e.key)?,
            reports: fragments(&snapshot.reports, |e: &KeyReport| e.key)?,
            errors: fragments(&snapshot.errors, |e: &KeyError| e.key)?,
        })
    }
}

impl SnapshotFragments {
    fn lists(&self) -> [&[Fragment]; 3] {
        [&self.states, &self.reports, &self.errors]
    }

    /// Parses every fragment back into the [`PipelineSnapshot`] it came
    /// from.
    ///
    /// # Errors
    ///
    /// [`LayoutError::Fragment`] for a fragment that is not the JSON of an
    /// entry carrying its key.
    pub fn parse(&self) -> Result<PipelineSnapshot, LayoutError> {
        fn entries<T: Deserialize>(
            list: &[Fragment],
            key: impl Fn(&T) -> u64,
        ) -> Result<Vec<T>, LayoutError> {
            list.iter()
                .map(|fragment| {
                    let bad = |error: String| LayoutError::Fragment { key: fragment.key, error };
                    let text =
                        std::str::from_utf8(fragment.json()).map_err(|e| bad(e.to_string()))?;
                    let entry: T = serde_json::from_str(text).map_err(|e| bad(e.to_string()))?;
                    if key(&entry) != fragment.key {
                        return Err(bad(format!("the entry is for key {}", key(&entry))));
                    }
                    Ok(entry)
                })
                .collect()
        }
        let states = entries(&self.states, |e: &KeySnapshot| e.key)?;
        let reports = entries(&self.reports, |e: &KeyReport| e.key)?;
        let errors = entries(&self.errors, |e: &KeyError| e.key)?;
        Ok(PipelineSnapshot::from_parts(self.header.clone(), (states, reports, errors)))
    }

    /// The slice of this snapshot that `range` covers, tagged with it, for
    /// a fleet range to resume: each key list filtered to the range and
    /// sorted by key (even when this snapshot's lists are not), the
    /// fragments' bytes shared. Like every range's snapshot it counts no
    /// routed operation (see [`merge_fragments`](super::merge_fragments)).
    pub fn partition(&self, range: KeyRange) -> SnapshotFragments {
        let slice = |list: &[Fragment]| {
            let mut slice: Vec<Fragment> =
                list.iter().filter(|fragment| range.contains(fragment.key)).cloned().collect();
            slice.sort_by_key(|fragment| fragment.key);
            slice
        };
        SnapshotFragments {
            header: SnapshotHeader { ops_routed: 0, partition: Some(range), ..self.header.clone() },
            states: slice(&self.states),
            reports: slice(&self.reports),
            errors: slice(&self.errors),
        }
    }

    /// Writes the snapshot as compact JSON: the bytes `serde_json::to_string`
    /// gives for the [`PipelineSnapshot`] it [parses](Self::parse) to.
    ///
    /// # Errors
    ///
    /// Propagates `out`'s I/O errors.
    pub fn write_json(&self, out: &mut impl Write) -> io::Result<()> {
        let header = to_json(&self.header)?;
        // The header is one compact object: drop its closing brace and
        // append the key lists.
        out.write_all(&header[..header.len() - 1])?;
        for ((name, _), list) in LISTS.iter().zip(self.lists()) {
            write!(out, ",\"{name}\":[")?;
            for (i, fragment) in list.iter().enumerate() {
                if i > 0 {
                    out.write_all(b",")?;
                }
                out.write_all(fragment.json())?;
            }
            out.write_all(b"]")?;
        }
        out.write_all(b"}")
    }

    /// Appends the wire encoding of this snapshot tagged with `range` to
    /// `parts` (see the module docs). The index and header are new bytes;
    /// the fragments are borrowed, so they go on the wire uncopied.
    ///
    /// # Errors
    ///
    /// A header or fragment too long for its `u32` length.
    pub(super) fn encode<'a>(
        &'a self,
        range: KeyRange,
        parts: &mut Vec<Cow<'a, [u8]>>,
    ) -> io::Result<()> {
        let header = to_json(&self.header)?;
        let lists = self.lists();
        let entries = lists.iter().map(|list| list.len()).sum::<usize>();
        let mut index = Vec::with_capacity(28 + INDEX_ENTRY * entries);
        put_range(range, &mut index);
        for n in [header.len(), lists[0].len(), lists[1].len(), lists[2].len()] {
            index.extend_from_slice(&wire_u32(n)?.to_le_bytes());
        }
        for fragment in lists.iter().copied().flatten() {
            index.extend_from_slice(&fragment.key.to_le_bytes());
            index.extend_from_slice(&wire_u32(fragment.json().len())?.to_le_bytes());
        }
        parts.push(Cow::Owned(index));
        parts.push(Cow::Owned(header));
        parts.extend(lists.into_iter().flatten().map(|fragment| Cow::Borrowed(fragment.json())));
        Ok(())
    }

    /// Decodes one snapshot at `cursor` (see the module docs), returning
    /// the range it is tagged with. Its fragments share the cursor's
    /// payload.
    ///
    /// # Errors
    ///
    /// A [`LayoutError`] for the first fault found.
    pub(super) fn decode(cursor: &mut Cursor) -> Result<(KeyRange, Self), LayoutError> {
        let range = cursor.range()?;
        let header_len = cursor.u32()?;
        let counts = [cursor.u32()?, cursor.u32()?, cursor.u32()?];
        // The whole index must be present before anything is sized by it.
        let entries = counts.iter().map(|&n| u64::from(n)).sum::<u64>();
        let (index, _) = cursor.take(entries * INDEX_ENTRY as u64)?;
        let (start, end) = cursor.take(u64::from(header_len))?;
        let payload = Arc::clone(&cursor.payload);
        let header: SnapshotHeader = std::str::from_utf8(&payload[start..end])
            .map_err(|e| e.to_string())
            .and_then(|text| serde_json::from_str(text).map_err(|e| e.to_string()))
            .map_err(LayoutError::Header)?;
        if let Some(partition) = header.partition.filter(|partition| !partition.is_valid()) {
            return Err(LayoutError::BadRange(partition));
        }
        let mut index = payload[index..].chunks_exact(INDEX_ENTRY);
        let mut lists: [Vec<Fragment>; 3] = Default::default();
        for ((list, count), (_, field)) in lists.iter_mut().zip(counts).zip(LISTS) {
            list.reserve_exact(count as usize);
            for _ in 0..count {
                let entry = index.next().expect("the index was taken whole");
                let key = u64::from_le_bytes(entry[..8].try_into().expect("8 bytes"));
                let len = u32::from_le_bytes(entry[8..].try_into().expect("4 bytes"));
                let (start, end) = cursor.take(u64::from(len))?;
                if !range.contains(key) {
                    return Err(LayoutError::ForeignKey { key, range });
                }
                if let Some(previous) = list.last().map(|f| f.key).filter(|&p| p >= key) {
                    return Err(LayoutError::KeyOrder { key, previous });
                }
                let opening = format!("{{\"key\":{key},\"{field}\":");
                if !payload[start..end].starts_with(opening.as_bytes()) {
                    return Err(LayoutError::Mislabelled { key });
                }
                list.push(Fragment { key, bytes: Arc::clone(&payload), start, end });
            }
        }
        let [states, reports, errors] = lists;
        Ok((range, SnapshotFragments { header, states, reports, errors }))
    }
}

/// Appends `range` as the wire lays out every key range: `bits u32 |
/// prefix u64`, read back by [`Cursor::range`].
pub(super) fn put_range(range: KeyRange, out: &mut Vec<u8>) {
    out.extend_from_slice(&range.bits.to_le_bytes());
    out.extend_from_slice(&range.prefix.to_le_bytes());
}

/// A read position in a received message payload. Fragments decoded from
/// it keep the payload alive and point into it, so no fragment is copied.
pub(super) struct Cursor {
    payload: Arc<Vec<u8>>,
    at: usize,
}

impl Cursor {
    /// A cursor at the start of `payload`.
    pub(super) fn new(payload: Vec<u8>) -> Self {
        Cursor { payload: Arc::new(payload), at: 0 }
    }

    /// Bytes not yet read.
    pub(super) fn left(&self) -> usize {
        self.payload.len() - self.at
    }

    /// Steps over the next `n` bytes, returning their span.
    fn take(&mut self, n: u64) -> Result<(usize, usize), LayoutError> {
        let left = self.left();
        if n > left as u64 {
            return Err(LayoutError::Truncated { at: self.at, needed: n, left });
        }
        let start = self.at;
        self.at += n as usize;
        Ok((start, self.at))
    }

    /// Reads the next `N` bytes.
    pub(super) fn array<const N: usize>(&mut self) -> Result<&[u8; N], LayoutError> {
        let (start, end) = self.take(N as u64)?;
        Ok(self.payload[start..end].try_into().expect("N bytes"))
    }

    /// Reads a little-endian `u32`.
    pub(super) fn u32(&mut self) -> Result<u32, LayoutError> {
        self.array().map(|bytes| u32::from_le_bytes(*bytes))
    }

    /// Reads a little-endian `u64`.
    pub(super) fn u64(&mut self) -> Result<u64, LayoutError> {
        self.array().map(|bytes| u64::from_le_bytes(*bytes))
    }

    /// Reads a key range laid out by [`put_range`], refusing one that
    /// fails [`KeyRange::is_valid`].
    pub(super) fn range(&mut self) -> Result<KeyRange, LayoutError> {
        let range = KeyRange { bits: self.u32()?, prefix: self.u64()? };
        range.is_valid().then_some(range).ok_or(LayoutError::BadRange(range))
    }

    /// Ends the decode: nothing may follow the last declared field.
    pub(super) fn finish(self) -> Result<(), LayoutError> {
        match self.payload.len() - self.at {
            0 => Ok(()),
            trailing => Err(LayoutError::TrailingBytes(trailing)),
        }
    }
}

/// Why a snapshot or batch payload cannot be used. The protocol surfaces
/// each as a [`ProtocolError`](super::ProtocolError), never a verdict.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LayoutError {
    /// A field, fragment or frame of `needed` bytes at offset `at`, where
    /// only `left` bytes remain.
    Truncated {
        /// Offset of the field in the payload.
        at: usize,
        /// Bytes the field declares.
        needed: u64,
        /// Bytes left in the payload.
        left: usize,
    },
    /// Bytes follow the last declared field.
    TrailingBytes(usize),
    /// A range, or a header's partition, that fails [`KeyRange::is_valid`].
    BadRange(KeyRange),
    /// A batch frame whose kind byte is neither read (0) nor write (1).
    BadKind(u8),
    /// Two ranges of one message overlap, so a key could belong to both.
    OverlappingRanges(KeyRange, KeyRange),
    /// The header is not the JSON of a [`SnapshotHeader`].
    Header(String),
    /// A key outside the range its snapshot or batch is tagged with.
    ForeignKey {
        /// The key.
        key: u64,
        /// The range.
        range: KeyRange,
    },
    /// A key that does not ascend past the one before it in its list.
    KeyOrder {
        /// The key.
        key: u64,
        /// The key before it.
        previous: u64,
    },
    /// A fragment that does not open with its key and its list's field.
    Mislabelled {
        /// The key the index gives it.
        key: u64,
    },
    /// A fragment that does not parse as an entry of its list.
    Fragment {
        /// The key the index gives it.
        key: u64,
        /// Why it does not parse.
        error: String,
    },
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutError::Truncated { at, needed, left } => {
                write!(f, "payload truncated: {needed} bytes needed at offset {at}, {left} left")
            }
            LayoutError::TrailingBytes(n) => write!(f, "{n} bytes follow the last snapshot"),
            LayoutError::BadRange(range) => write!(f, "invalid key range {range:?}"),
            LayoutError::BadKind(kind) => {
                write!(f, "invalid kind byte {kind} (0 = read, 1 = write)")
            }
            LayoutError::OverlappingRanges(a, b) => {
                write!(f, "snapshots for overlapping ranges {a} and {b}")
            }
            LayoutError::Header(e) => write!(f, "bad snapshot header: {e}"),
            LayoutError::ForeignKey { key, range } => {
                write!(f, "key {key} lies outside its range {range}")
            }
            LayoutError::KeyOrder { key, previous } => {
                write!(f, "snapshot key {key} does not ascend past {previous}")
            }
            LayoutError::Mislabelled { key } => {
                write!(f, "the fragment indexed under key {key} is not that key's entry")
            }
            LayoutError::Fragment { key, error } => {
                write!(f, "the fragment of key {key} does not parse: {error}")
            }
        }
    }
}

impl Error for LayoutError {}

/// A length as the `u32` the wire carries.
pub(super) fn wire_u32(n: usize) -> io::Result<u32> {
    u32::try_from(n).map_err(|_| {
        io::Error::new(io::ErrorKind::InvalidInput, format!("{n} bytes exceed a u32 length"))
    })
}

/// Serialises the header as compact JSON.
fn to_json(header: &SnapshotHeader) -> io::Result<Vec<u8>> {
    serde_json::to_string(header)
        .map(String::into_bytes)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}
