//! The decode-ahead reader: NDJSON decoded on every core, yielded in
//! input order.
//!
//! Three kinds of thread share the work of one [`Reader`]:
//!
//! * the **reader thread** owns the input. It cuts it into line-aligned
//!   blocks: whatever the input has buffered, up to [`BLOCK_BYTES`], cut
//!   after the last newline (the partial line after it starts the next
//!   block). It never waits for input to fill a block, so a pipe's records
//!   go on as they arrive. It hands the blocks round-robin to the decode
//!   threads;
//! * each **decode thread** splits its blocks into raw lines and decodes
//!   each with the function [`Reader`]'s iterator uses, in place, into the
//!   block's own output buffer;
//! * the **consuming thread** (the iterator's caller) takes the blocks back
//!   in the same round-robin order and yields their items, counting and
//!   fingerprinting each raw line as it passes, exactly as [`Reader`]
//!   does. Error line numbers are attached here, so they are [`Reader`]'s.
//!
//! The consuming thread allocates every block, with its byte buffer and its
//! output buffer, when the pool starts, and recycles each to the reader
//! thread once yielded: the bytes in flight are a fixed handful of blocks,
//! and the decode threads allocate nothing while records are well formed.

use super::{decode_raw_line, NdjsonError, Reader, StreamRecord, MAX_LINE_BYTES};
use crate::fxhash::Fingerprint;
use std::any::Any;
use std::io::{self, BufRead};
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread::{self, JoinHandle};

/// Most bytes the reader thread puts in a block at once. A line longer than
/// this grows its block up to the line cap.
const BLOCK_BYTES: usize = 32 * 1024;

/// Output entries a block starts with room for: one per line of at least
/// 64 bytes, as every record `kav gen` writes is. Shorter lines grow it
/// once, and a recycled block keeps the room.
const BLOCK_LINES: usize = BLOCK_BYTES / 64;

/// Most decode threads a pool starts. Past a handful, the consuming
/// thread, which routes every record, is the serial stage, and each
/// thread keeps two blocks in flight.
const MAX_DECODE_THREADS: usize = 8;

/// A thread's panic payload, carried to the consuming thread.
type Panic = Box<dyn Any + Send>;

/// One raw line as a decode thread leaves it: where the line ends in its
/// block, and what [`decode_raw_line`] made of it.
type DecodedLine = (usize, Option<Result<StreamRecord, serde_json::Error>>);

/// A run of whole raw lines and their decodings.
struct Block {
    bytes: Vec<u8>,
    lines: Vec<DecodedLine>,
    /// Set on the last block: why the input ended after its lines.
    end: Option<End>,
}

impl Block {
    fn new() -> Self {
        Block {
            bytes: Vec::with_capacity(BLOCK_BYTES),
            lines: Vec::with_capacity(BLOCK_LINES),
            end: None,
        }
    }

    /// Splits the bytes into raw lines and decodes each.
    fn decode(&mut self) {
        let mut rest = self.bytes.as_slice();
        let mut start = 0;
        while !rest.is_empty() {
            let end = start + rest.skip_until(b'\n').expect("reading a slice never fails");
            self.lines.push((end, decode_raw_line(&self.bytes[start..end])));
            start = end;
        }
    }
}

/// How the input ended.
enum End {
    Eof,
    Io(io::Error),
    /// A line went past [`MAX_LINE_BYTES`] right after the block's lines.
    LineTooLong,
}

/// What a decode thread is sent.
enum Job {
    Decode(Block),
    /// The reader thread panicked: the payload goes on in block order.
    ReaderPanicked(Panic),
    /// The consumer is gone.
    Stop,
}

/// One decode thread, as the consuming thread sees it.
struct DecodeThread {
    jobs: Sender<Job>,
    blocks: Receiver<Result<Block, Panic>>,
    handle: Option<JoinHandle<()>>,
}

/// An NDJSON reader that decodes ahead of its caller on a pool of threads
/// (see the module docs of [`ndjson`](super)). It yields exactly what the
/// [`Reader`] it was built from would have yielded from there on, with the
/// same [`lines_read`](Self::lines_read) and
/// [`fingerprint`](Self::fingerprint) after every item. It differs only in
/// that it ends after an I/O error.
///
/// Dropping it stops the pool and re-raises a decode thread's panic. It
/// never waits for the reader thread, which may be blocked on input that
/// stays open (a terminal or a pipe): that thread ends at its next read,
/// or with the process.
///
/// # Examples
///
/// ```
/// use kav_history::fxhash::Fingerprint;
/// use kav_history::ndjson::{NdjsonError, Reader};
///
/// let text = "{\"kind\":\"write\",\"value\":7,\"start\":0,\"finish\":3}\n\nnot json\n";
/// let mut ahead =
///     Reader::with_fingerprint(text.as_bytes(), Fingerprint::new()).decode_ahead_with(2);
/// assert_eq!(ahead.next().unwrap()?.value.0, 7);
/// assert!(matches!(ahead.next(), Some(Err(NdjsonError::Parse { line: 3, .. }))));
/// assert!(ahead.next().is_none());
/// assert_eq!(ahead.lines_read(), 3);
///
/// let mut reader = Reader::with_fingerprint(text.as_bytes(), Fingerprint::new());
/// reader.skip_raw_lines(3)?;
/// assert_eq!(ahead.fingerprint(), reader.fingerprint());
/// # Ok::<(), NdjsonError>(())
/// ```
pub struct DecodeAhead {
    decoders: Vec<DecodeThread>,
    /// The decode thread holding the next block.
    turn: usize,
    /// Yielded blocks, back to the reader thread.
    recycle: Sender<Block>,
    /// The block being yielded, its next output entry, and where that
    /// entry's raw line starts.
    block: Option<Block>,
    at: usize,
    start: usize,
    line: u64,
    fingerprint: Option<Fingerprint>,
    ended: bool,
}

impl<R: BufRead + Send + 'static> Reader<R> {
    /// Hands the rest of the input to a [`DecodeAhead`] with one decode
    /// thread per core ([`std::thread::available_parallelism`]), up to a
    /// small cap. Line count and fingerprint carry on from this reader's.
    pub fn decode_ahead(self) -> DecodeAhead {
        let cores = thread::available_parallelism().map_or(1, usize::from);
        self.decode_ahead_with(cores.min(MAX_DECODE_THREADS))
    }

    /// [`decode_ahead`](Self::decode_ahead) with `threads` decode threads
    /// (at least one).
    pub fn decode_ahead_with(self, threads: usize) -> DecodeAhead {
        let threads = threads.max(1);
        let Reader { input, line, fingerprint, ended, .. } = self;
        let (recycle, free) = mpsc::channel();
        // Two blocks per decode thread keep each busy while the reader
        // fills one more and the consumer yields another.
        for _ in 0..2 * threads + 2 {
            recycle.send(Block::new()).expect("the receiver is in scope");
        }
        let mut decoders = Vec::with_capacity(threads);
        let mut jobs = Vec::with_capacity(threads);
        for _ in 0..threads {
            let (job, queue) = mpsc::channel();
            let (done, blocks) = mpsc::channel();
            let handle = thread::spawn(move || decode_blocks(queue, done));
            jobs.push(job.clone());
            decoders.push(DecodeThread { jobs: job, blocks, handle: Some(handle) });
        }
        // Never joined: it may be blocked on input that stays open. Its
        // panic reaches the consumer through the decode threads.
        thread::spawn(move || cut_blocks(input, free, jobs));
        DecodeAhead {
            decoders,
            turn: 0,
            recycle,
            block: None,
            at: 0,
            start: 0,
            line,
            fingerprint,
            ended,
        }
    }
}

impl DecodeAhead {
    /// Lines consumed so far (blank and malformed lines included), as
    /// [`Reader::lines_read`] counts them.
    pub fn lines_read(&self) -> u64 {
        self.line
    }

    /// The running digest of all consumed lines, when fingerprinting, as
    /// [`Reader::fingerprint`] computes it.
    pub fn fingerprint(&self) -> Option<u64> {
        self.fingerprint.as_ref().map(Fingerprint::value)
    }

    /// The next block, from the decode thread whose turn it is.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of a decode thread, or of the reader thread.
    fn receive(&mut self) -> Block {
        let turn = self.turn;
        self.turn = (turn + 1) % self.decoders.len();
        match self.decoders[turn].blocks.recv() {
            Ok(Ok(block)) => return block,
            Ok(Err(panic)) => {
                self.ended = true;
                panic::resume_unwind(panic)
            }
            Err(_) => self.ended = true,
        }
        // A decode thread only leaves early by panicking.
        let handle = self.decoders[turn].handle.take().expect("a dead thread is joined once");
        match handle.join() {
            Err(panic) => panic::resume_unwind(panic),
            Ok(()) => unreachable!("a decode thread left while its consumer was reading"),
        }
    }
}

impl Iterator for DecodeAhead {
    type Item = Result<StreamRecord, NdjsonError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let Some(block) = &mut self.block else {
                if self.ended {
                    return None;
                }
                self.block = Some(self.receive());
                continue;
            };
            if let Some((end, decoded)) = block.lines.get_mut(self.at) {
                self.at += 1;
                self.line += 1;
                if let Some(fingerprint) = &mut self.fingerprint {
                    fingerprint.update(&block.bytes[self.start..*end]);
                }
                self.start = *end;
                if let Some(decoded) = decoded.take() {
                    let line = self.line as usize;
                    return Some(decoded.map_err(|source| NdjsonError::Parse { line, source }));
                }
                continue;
            }
            let mut block = self.block.take().expect("matched above");
            (self.at, self.start) = (0, 0);
            let Some(end) = block.end.take() else {
                block.bytes.clear();
                block.lines.clear();
                // The reader thread is gone only after the last block.
                let _ = self.recycle.send(block);
                continue;
            };
            self.ended = true;
            return match end {
                End::Eof => None,
                End::Io(e) => Some(Err(NdjsonError::Io(e))),
                End::LineTooLong => {
                    Some(Err(NdjsonError::LineTooLong { line: self.line as usize + 1 }))
                }
            };
        }
    }
}

impl Drop for DecodeAhead {
    /// Stops every decode thread once it has finished the blocks it holds,
    /// joins it, and re-raises the first panic among them (unless this
    /// thread is already panicking).
    fn drop(&mut self) {
        for decoder in &self.decoders {
            let _ = decoder.jobs.send(Job::Stop);
        }
        for decoder in &mut self.decoders {
            if let Some(Err(panic)) = decoder.handle.take().map(JoinHandle::join) {
                if !thread::panicking() {
                    panic::resume_unwind(panic);
                }
            }
        }
    }
}

/// The reader thread: cuts `input` into blocks taken from `free` and hands
/// them round-robin to `decoders`, the last one marked with how the input
/// ended. Stops early once the consumer is gone. A panic is passed on, in
/// block order, to the consumer.
fn cut_blocks<R: BufRead>(mut input: R, free: Receiver<Block>, decoders: Vec<Sender<Job>>) {
    let mut turn = 0;
    let cut = panic::catch_unwind(AssertUnwindSafe(|| {
        let Ok(mut block) = free.recv() else { return };
        let end = loop {
            let cut = match fill(&mut input, &mut block.bytes) {
                Ok(cut) => cut,
                Err(end) => break end,
            };
            let Ok(mut next) = free.recv() else { return };
            next.bytes.extend_from_slice(&block.bytes[cut..]);
            block.bytes.truncate(cut);
            let full = std::mem::replace(&mut block, next);
            if decoders[turn].send(Job::Decode(full)).is_err() {
                return;
            }
            turn = (turn + 1) % decoders.len();
        };
        // Only the last line of the input may lack its newline.
        if !matches!(end, End::Eof) {
            block.bytes.clear();
        }
        block.end = Some(end);
        let _ = decoders[turn].send(Job::Decode(block));
    }));
    if let Err(panic) = cut {
        let _ = decoders[turn].send(Job::ReaderPanicked(panic));
    }
}

/// Appends to `bytes`, which holds at most the start of one line, what
/// `input` has buffered, up to the block size, reading again only while no
/// newline has come. Returns where the block's whole lines end, or how the
/// input ended first.
fn fill(input: &mut impl BufRead, bytes: &mut Vec<u8>) -> Result<usize, End> {
    loop {
        let available = match input.fill_buf() {
            Ok([]) => return Err(End::Eof),
            Ok(available) => available,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(End::Io(e)),
        };
        // A line longer than a block grows it to the cap and one byte past
        // it, which tells an over-long line from a full one.
        let limit = if bytes.len() < BLOCK_BYTES { BLOCK_BYTES } else { MAX_LINE_BYTES + 1 };
        let fresh = &available[..available.len().min(limit - bytes.len())];
        // Searched from the end: the last newline is usually a line away.
        let newline = fresh.iter().rposition(|&b| b == b'\n');
        let (old, taken) = (bytes.len(), fresh.len());
        bytes.extend_from_slice(fresh);
        input.consume(taken);
        if let Some(at) = newline {
            return Ok(old + at + 1);
        }
        if bytes.len() > MAX_LINE_BYTES {
            return Err(End::LineTooLong);
        }
    }
}

/// A decode thread: decodes each block it is sent and passes it on, until
/// told to stop or its consumer is gone.
fn decode_blocks(queue: Receiver<Job>, done: Sender<Result<Block, Panic>>) {
    for job in queue {
        let decoded = match job {
            Job::Decode(mut block) => {
                block.decode();
                Ok(block)
            }
            Job::ReaderPanicked(panic) => Err(panic),
            Job::Stop => return,
        };
        if done.send(decoded).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufReader, Read, Write};

    const RECORD: &str = "{\"kind\":\"write\",\"value\":1,\"start\":0,\"finish\":2}\n";

    #[test]
    fn dropping_it_never_waits_for_a_reader_blocked_on_open_input() {
        let (input, mut writer) = io::pipe().unwrap();
        writer.write_all(b"not json\n").unwrap();
        let mut ahead = Reader::new(BufReader::new(input)).decode_ahead_with(2);
        match ahead.next() {
            Some(Err(NdjsonError::Parse { line: 1, .. })) => {}
            other => panic!("expected line 1 to be malformed, got {other:?}"),
        }
        // The reader thread is now blocked reading the open pipe: the drop
        // returns anyway, and closing the pipe later ends that thread.
        drop(ahead);
        drop(writer);
    }

    /// Input that panics once `budget` bytes have been read.
    struct Exploding {
        bytes: &'static [u8],
        budget: usize,
    }

    impl Read for Exploding {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = self.fill_buf()?.len().min(out.len());
            out[..n].copy_from_slice(&self.bytes[..n]);
            self.consume(n);
            Ok(n)
        }
    }

    impl BufRead for Exploding {
        fn fill_buf(&mut self) -> io::Result<&[u8]> {
            assert!(self.budget > 0, "the input exploded");
            Ok(&self.bytes[..self.bytes.len().min(self.budget)])
        }

        fn consume(&mut self, n: usize) {
            self.bytes = &self.bytes[n..];
            self.budget -= n;
        }
    }

    #[test]
    fn a_reader_thread_panic_is_raised_after_the_lines_before_it() {
        let bytes: &'static [u8] = RECORD.repeat(3).leak().as_bytes();
        let input = Exploding { bytes, budget: 2 * RECORD.len() };
        let mut ahead = Reader::new(input).decode_ahead_with(2);
        assert!(ahead.next().unwrap().is_ok());
        assert!(ahead.next().unwrap().is_ok());
        let panic = panic::catch_unwind(AssertUnwindSafe(|| ahead.next())).unwrap_err();
        assert_eq!(panic.downcast_ref::<&str>(), Some(&"the input exploded"));
        assert_eq!(ahead.lines_read(), 2);
    }
}
