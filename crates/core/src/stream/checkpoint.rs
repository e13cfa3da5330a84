//! Atomic, versioned checkpoint files for long-running audits.
//!
//! A checkpoint is one JSON document: a [`PipelineSnapshot`] (the complete
//! verification state) wrapped in a [`Checkpoint`] envelope that records
//! *where in the input* the snapshot was taken — the number of consumed
//! lines, a running [fingerprint](kav_history::fxhash::Fingerprint) of
//! those lines, and the malformed-record tally. On resume the driver
//! re-reads the input prefix, recomputes the fingerprint and compares: a
//! match proves the resumed audit continues exactly the stream the
//! checkpoint summarised (the *unbroken chain* a certified YES requires —
//! see [`StreamReport::resumed_uncertified`](super::StreamReport::resumed_uncertified)).
//!
//! [`CheckpointWriter`] overwrites a single path **atomically** — the new
//! checkpoint is written to a sibling temp file, synced, then renamed over
//! the previous one, and the directory is synced so the rename survives a
//! power loss — so a crash mid-write leaves the last complete checkpoint
//! intact, never a torn file. Versions are monotone: every
//! write embeds a strictly increasing `version`, and resuming hands the
//! last version back to [`CheckpointWriter::starting_at`] so the chain
//! keeps counting across processes.
//!
//! # Full snapshots only
//!
//! Every write is one full snapshot: the serialized [`Checkpoint`] with an
//! empty [`deltas`](Checkpoint::deltas) list, plus a newline. A file with
//! older builds' delta hops is refused ([`CheckpointError::DeltaHops`]):
//! the reader skips unknown keys, so the always-empty key is what keeps an
//! old delta file from silently resuming its stale base.
//!
//! # Examples
//!
//! ```
//! use kav_core::{Checkpoint, CheckpointWriter, Fzf, PipelineConfig, SourcePosition,
//!                StreamPipeline};
//! use kav_history::{Operation, Time, Value};
//!
//! let dir = std::env::temp_dir().join("kav_checkpoint_doc");
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("audit.ckpt");
//!
//! let mut pipeline = StreamPipeline::new(Fzf, PipelineConfig::default());
//! pipeline.push(7, Operation::write(Value(1), Time(0), Time(10)));
//!
//! let mut writer = CheckpointWriter::new(&path);
//! let source = SourcePosition { lines: 1, fingerprint: 42, ..Default::default() };
//! let version = writer.write(source, pipeline.snapshot()).unwrap();
//! assert_eq!(version, 1);
//!
//! let checkpoint: Checkpoint = kav_core::read_checkpoint(&path).unwrap();
//! assert_eq!(checkpoint.version, 1);
//! assert_eq!(checkpoint.source.lines, 1);
//! assert_eq!(checkpoint.pipeline.ops_routed, 1);
//! # std::fs::remove_file(&path).ok();
//! ```

use super::fragment::SnapshotFragments;
use super::pipeline::{check_counts, PipelineSnapshot};
use super::{check_count, SnapshotError};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// Write buffer of a checkpoint file: the envelope's small pieces gather
/// in it, and fragments at least this long go to the file directly.
const WRITE_BUFFER_BYTES: usize = 64 * 1024;

/// Version of the checkpoint file format itself (not of any one file):
/// bumped when the schema changes incompatibly, so a reader can reject
/// files written by a different era instead of mis-parsing them.
pub const CHECKPOINT_FORMAT: u32 = 1;

/// Default checkpoint cadence, in ingested operations. Chosen so that at
/// typical single-core end-to-end throughput (~1-2M ops/s) the audit
/// checkpoints about every half second to a second, keeping the
/// stop-the-world snapshot cost well under 10% of ingest — see
/// `exp_stream_throughput`'s checkpoint axis and `docs/OPERATIONS.md`.
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 1_000_000;

/// Where in the input stream a checkpoint was taken.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SourcePosition {
    /// Raw input lines consumed (blank and malformed lines included).
    pub lines: u64,
    /// Running fingerprint of those lines
    /// ([`kav_history::fxhash::Fingerprint`], one chunk per line).
    pub fingerprint: u64,
    /// Malformed records skipped so far.
    pub malformed: u64,
    /// Sample messages for the first few malformed records.
    #[serde(default)]
    pub malformed_samples: Vec<String>,
}

/// One complete, self-describing checkpoint file.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Always [`CHECKPOINT_FORMAT`] for files this build writes.
    pub format: u32,
    /// Monotonically increasing version of this audit's checkpoint chain,
    /// starting at 1.
    pub version: u64,
    /// Input position `pipeline` corresponds to.
    pub source: SourcePosition,
    /// The full snapshot.
    pub pipeline: PipelineSnapshot,
    /// Delta hops older builds appended: written empty, refused when not
    /// (see the module docs). Absent in files from before deltas existed.
    #[serde(default)]
    pub deltas: Vec<serde_json::Value>,
}

/// A checkpoint file that cannot be used.
#[derive(Debug)]
pub enum CheckpointError {
    /// Reading the file failed.
    Io(io::Error),
    /// The file is not a checkpoint (or is torn despite atomic replace —
    /// e.g. copied while being written).
    Parse(String),
    /// The file was written by an incompatible format era.
    Format(u32),
    /// The file carries this many delta hops, which only older builds read.
    DeltaHops(usize),
    /// The file holds a count at or above 2^63 ([`SnapshotError::Count`]).
    Snapshot(SnapshotError),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "cannot read checkpoint: {e}"),
            CheckpointError::Parse(e) => write!(f, "not a valid checkpoint: {e}"),
            CheckpointError::Format(v) => write!(
                f,
                "checkpoint format {v} is not supported (this build reads format \
                 {CHECKPOINT_FORMAT})"
            ),
            CheckpointError::DeltaHops(hops) => write!(
                f,
                "checkpoint carries {hops} delta hop(s) from an older build, which this build \
                 cannot resume; resume with the build that wrote it, or restart the audit"
            ),
            CheckpointError::Snapshot(e) => write!(f, "{e}"),
        }
    }
}

impl Error for CheckpointError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            CheckpointError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Reads and validates a checkpoint file.
///
/// # Errors
///
/// [`CheckpointError`] when the file is unreadable, unparseable, from an
/// incompatible format era, carries version 0 (never written) or delta
/// hops, or holds a count at or above 2^63. That last check is the one
/// resume runs, so a fleet refuses the file before it spawns a worker.
pub fn read_checkpoint(path: impl AsRef<Path>) -> Result<Checkpoint, CheckpointError> {
    let text = fs::read_to_string(path)?;
    let checkpoint: Checkpoint =
        serde_json::from_str(&text).map_err(|e| CheckpointError::Parse(e.to_string()))?;
    if checkpoint.format != CHECKPOINT_FORMAT {
        return Err(CheckpointError::Format(checkpoint.format));
    }
    if checkpoint.version == 0 {
        return Err(CheckpointError::Parse("checkpoint version 0".into()));
    }
    if !checkpoint.deltas.is_empty() {
        return Err(CheckpointError::DeltaHops(checkpoint.deltas.len()));
    }
    check_count("malformed", checkpoint.source.malformed).map_err(CheckpointError::Snapshot)?;
    check_counts(&checkpoint.pipeline).map_err(CheckpointError::Snapshot)?;
    Ok(checkpoint)
}

/// Writes an audit's checkpoint chain to a single path, atomically and
/// with monotone versions, one full snapshot per write.
#[derive(Debug)]
pub struct CheckpointWriter {
    path: PathBuf,
    tmp: PathBuf,
    version: u64,
}

impl CheckpointWriter {
    /// A writer for a fresh audit: the first write produces version 1.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        CheckpointWriter::starting_at(path, 0)
    }

    /// A writer continuing an existing chain: the next write produces
    /// `last_version + 1`. Pass the version of the checkpoint the audit
    /// resumed from.
    pub fn starting_at(path: impl Into<PathBuf>, last_version: u64) -> Self {
        let path = path.into();
        let mut tmp = path.clone().into_os_string();
        tmp.push(".tmp");
        CheckpointWriter { path, tmp: PathBuf::from(tmp), version: last_version }
    }

    /// The version of the last checkpoint written (0 before the first).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The path checkpoints are written to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Checks that the directory checkpoints go to exists, so that a bad
    /// path fails before an audit starts rather than at its first
    /// checkpoint.
    ///
    /// # Errors
    ///
    /// The directory cannot be read, or is not a directory.
    pub fn check_directory(&self) -> io::Result<()> {
        let dir = parent_dir(&self.path);
        if fs::metadata(dir)?.is_dir() {
            Ok(())
        } else {
            Err(io::Error::other(format!("{} is not a directory", dir.display())))
        }
    }

    /// Persists one checkpoint: lay it out in the sibling temp file (a
    /// fleet's snapshot arrives in [fragment layout](crate::SnapshotFragments),
    /// whose fragments are written as they are; a pipeline's is
    /// serialised first), sync, rename over `path`, sync the directory.
    /// Returns the new version once the file is durable.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures. Up to the rename the previous checkpoint
    /// (if any) is still intact. A failure to sync the directory comes
    /// after the rename: the new version is in place but may not survive
    /// a power loss, and the next write still gets a fresh version.
    pub fn write<S>(&mut self, source: SourcePosition, snapshot: S) -> io::Result<u64>
    where
        S: TryInto<SnapshotFragments>,
        S::Error: fmt::Display,
    {
        let invalid =
            |e: &dyn fmt::Display| io::Error::new(io::ErrorKind::InvalidData, e.to_string());
        let snapshot = snapshot.try_into().map_err(|e| invalid(&e))?;
        let source = serde_json::to_string(&source).map_err(|e| invalid(&e))?;
        let version = self.version + 1;
        // The layout of a serialised `Checkpoint`, with no delta hops.
        let mut file =
            io::BufWriter::with_capacity(WRITE_BUFFER_BYTES, fs::File::create(&self.tmp)?);
        write!(file, "{{\"format\":{CHECKPOINT_FORMAT},\"version\":{version},\"source\":{source}")?;
        file.write_all(b",\"pipeline\":")?;
        snapshot.write_json(&mut file)?;
        file.write_all(b",\"deltas\":[]}\n")?;
        let file = file.into_inner().map_err(io::IntoInnerError::into_error)?;
        file.sync_all()?;
        drop(file);
        fs::rename(&self.tmp, &self.path)?;
        self.version = version;
        sync_parent_dir(&self.path)?;
        Ok(version)
    }
}

/// The directory holding `path`; a bare file name lives in the working
/// directory.
fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    }
}

/// Syncs the directory holding `path`, so that a rename into it survives
/// a power loss.
fn sync_parent_dir(path: &Path) -> io::Result<()> {
    if !cfg!(unix) {
        // Only Unix lets a directory be opened and synced like a file.
        return Ok(());
    }
    fs::File::open(parent_dir(path))?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{KeyError, KeyReport, PipelineConfig, StreamPipeline};
    use crate::Fzf;
    use kav_history::frame::KeyRange;
    use kav_history::{Operation, Time, Value};

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("kav_checkpoint_tests");
        fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn small_snapshot() -> PipelineSnapshot {
        let mut pipeline = StreamPipeline::new(
            Fzf,
            PipelineConfig { shards: 1, window: 4, ..Default::default() },
        );
        pipeline.push(1, Operation::write(Value(1), Time(0), Time(10)));
        pipeline.push(1, Operation::read(Value(1), Time(12), Time(20)));
        pipeline.snapshot()
    }

    /// A small checkpoint touching every serialization corner the
    /// checkpoint format has: a non-default model, a fleet partition, a
    /// client-tagged buffered op, an error message that needs escapes and
    /// a non-integral float.
    fn golden_checkpoint() -> Checkpoint {
        let config = PipelineConfig { shards: 1, window: 4, ..Default::default() };
        let mut pipeline = StreamPipeline::new(crate::RegularVerifier, config);
        pipeline.push(1, Operation::write(Value(1), Time(0), Time(10)).with_client(7));
        pipeline.push(1, Operation::read(Value(1), Time(12), Time(20)).with_client(8));
        let mut snapshot = pipeline.snapshot();
        pipeline.finish();
        snapshot.partition = Some(KeyRange::ALL.split().1);
        let mut online = crate::OnlineVerifier::new(crate::RegularVerifier, 4);
        online.push(Operation::write(Value(2), Time(0), Time(3))).unwrap();
        online.push(Operation::read(Value(2), Time(4), Time(6))).unwrap();
        let mut report = online.abort();
        report.mean_read_depth = 1.0 / 3.0;
        snapshot.reports.push(KeyReport { key: 2, report });
        snapshot.errors.push(KeyError { key: 3, error: "bad \"value\"\nat line 2".into() });
        Checkpoint {
            format: CHECKPOINT_FORMAT,
            version: 3,
            source: SourcePosition {
                lines: 5,
                fingerprint: 0xFEED_FACE_CAFE_BEEF,
                malformed: 1,
                malformed_samples: vec!["line 4: expected value".into()],
            },
            pipeline: snapshot,
            deltas: Vec::new(),
        }
    }

    #[test]
    fn checkpoint_bytes_match_the_golden_capture() {
        // Captured from the tree serializer; the direct writer must not
        // drift from it by a byte.
        let golden = r#"{"format":1,"version":3,"source":{"lines":5,"fingerprint":18369614221190020847,"malformed":1,"malformed_samples":["line 4: expected value"]},"pipeline":{"algo":"regular","model":"regular","k":1,"window":4,"horizon":64,"ops_routed":2,"uncertified":false,"partition":{"bits":1,"prefix":1},"states":[{"key":1,"state":{"algo":"regular","model":"regular","k":1,"window":4,"next_attempt":0,"ops":2,"segments":0,"violations":0,"inconclusive":0,"horizon_breaches":0,"resumed_uncertified":false,"builder":{"horizon":64,"base":0,"watermark":20,"buffer":[{"kind":"write","value":1,"start":0,"finish":10,"weight":1,"client":7},{"kind":"read","value":1,"start":12,"finish":20,"weight":1,"client":8}],"retired_recent":[],"retired_total":0,"peak_retired":0,"orphaned":[],"orphaned_reads":0,"writes_accepted":1,"reads_accepted":1,"depth_sum":0,"max_depth":0,"depth_count_reads":1,"depth_hist":[1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"segments_sealed":0,"peak_resident":2}}}],"reports":[{"key":2,"report":{"model":"regular","k":1,"ops":2,"segments":1,"violations":0,"inconclusive":1,"horizon_breaches":0,"orphaned_reads":0,"peak_resident":2,"peak_retired":0,"reads":1,"mean_read_depth":0.3333333333333333,"max_read_depth":0,"depth_hist":[1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"resumed_uncertified":false}}],"errors":[{"key":3,"error":"bad \"value\"\nat line 2"}]},"deltas":[]}"#;
        let checkpoint = golden_checkpoint();
        assert_eq!(serde_json::to_string(&checkpoint).unwrap(), golden);
        let back: Checkpoint = serde_json::from_str(golden).unwrap();
        assert_eq!(back, checkpoint);
        let path = temp_path("golden.ckpt");
        let mut writer = CheckpointWriter::starting_at(&path, 2);
        writer.write(checkpoint.source.clone(), checkpoint.pipeline.clone()).unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), format!("{golden}\n"));
        fs::remove_file(&path).ok();
    }

    #[test]
    fn versions_are_monotone_and_roundtrip() {
        let path = temp_path("monotone.ckpt");
        let mut writer = CheckpointWriter::new(&path);
        assert_eq!(writer.version(), 0);
        let snapshot = small_snapshot();
        assert_eq!(writer.write(SourcePosition::default(), snapshot.clone()).unwrap(), 1);
        assert_eq!(
            writer
                .write(SourcePosition { lines: 2, ..Default::default() }, snapshot.clone())
                .unwrap(),
            2
        );
        let read = read_checkpoint(&path).unwrap();
        assert_eq!(read.version, 2);
        assert_eq!(read.source.lines, 2);
        assert_eq!(read.pipeline, snapshot);
        // Continuing the chain after a resume keeps counting.
        let mut resumed = CheckpointWriter::starting_at(&path, read.version);
        assert_eq!(resumed.write(read.source, read.pipeline).unwrap(), 3);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn replace_is_atomic_no_temp_file_left_behind() {
        let path = temp_path("atomic.ckpt");
        let mut writer = CheckpointWriter::new(&path);
        writer.write(SourcePosition::default(), small_snapshot()).unwrap();
        assert!(path.exists());
        assert!(!writer.tmp.exists(), "temp file must be renamed away");
        fs::remove_file(&path).ok();
    }

    #[test]
    fn every_write_is_one_full_snapshot() {
        let path = temp_path("full.ckpt");
        let config = PipelineConfig { shards: 2, window: 4, batch: 1, ..Default::default() };
        let mut pipeline = StreamPipeline::new(Fzf, config);
        let mut writer = CheckpointWriter::new(&path);
        for v in 1..=12u64 {
            pipeline.push(v % 3, Operation::write(Value(v), Time(10 * v), Time(10 * v + 5)));
            let source = SourcePosition { lines: v, ..Default::default() };
            let snapshot = pipeline.snapshot();
            writer.write(source.clone(), snapshot.clone()).unwrap();
            let expected = Checkpoint {
                format: CHECKPOINT_FORMAT,
                version: v,
                source,
                pipeline: snapshot,
                deltas: vec![],
            };
            assert_eq!(
                fs::read_to_string(&path).unwrap(),
                serde_json::to_string(&expected).unwrap() + "\n",
                "write {v}"
            );
            assert_eq!(read_checkpoint(&path).unwrap(), expected, "write {v}");
        }
        pipeline.finish();
        fs::remove_file(&path).ok();
    }

    #[test]
    fn unusable_files_are_rejected() {
        assert!(matches!(
            read_checkpoint(temp_path("missing.ckpt")),
            Err(CheckpointError::Io(_))
        ));
        let garbled = temp_path("garbled.ckpt");
        fs::write(&garbled, "{ not a checkpoint").unwrap();
        assert!(matches!(read_checkpoint(&garbled), Err(CheckpointError::Parse(_))));
        let future = temp_path("future.ckpt");
        let mut writer = CheckpointWriter::new(&future);
        writer.write(SourcePosition::default(), small_snapshot()).unwrap();
        let bumped = fs::read_to_string(&future)
            .unwrap()
            .replacen("\"format\":1", "\"format\":999", 1);
        fs::write(&future, bumped).unwrap();
        assert!(matches!(read_checkpoint(&future), Err(CheckpointError::Format(999))));
        // A delta hop from an older build is refused, whatever it holds.
        let legacy = temp_path("legacy.ckpt");
        let mut writer = CheckpointWriter::new(&legacy);
        writer.write(SourcePosition::default(), small_snapshot()).unwrap();
        let spliced = fs::read_to_string(&legacy)
            .unwrap()
            .replacen("\"deltas\":[]", "\"deltas\":[{\"version\":2}]", 1);
        fs::write(&legacy, spliced).unwrap();
        assert!(matches!(read_checkpoint(&legacy), Err(CheckpointError::DeltaHops(1))));
        // A count no audit reaches is refused, naming its field.
        let mut huge = small_snapshot();
        huge.states[0].state.builder.segments_sealed = usize::MAX;
        writer.write(SourcePosition::default(), huge).unwrap();
        match read_checkpoint(&legacy) {
            Err(CheckpointError::Snapshot(SnapshotError::Count { field, value })) => {
                assert_eq!((field, value), ("segments_sealed", u64::MAX))
            }
            other => panic!("expected a count refusal, got {other:?}"),
        }
        let source = SourcePosition { malformed: u64::MAX, ..Default::default() };
        writer.write(source, small_snapshot()).unwrap();
        assert!(matches!(
            read_checkpoint(&legacy),
            Err(CheckpointError::Snapshot(SnapshotError::Count { field: "malformed", .. }))
        ));
        fs::remove_file(&garbled).ok();
        fs::remove_file(&future).ok();
        fs::remove_file(&legacy).ok();
    }
}
