//! Binary trace recording and replay, so one instrumented run feeds many
//! offline analyses. A trace file is a recorded DPSV session
//! ([`dp_types::protocol`]): the preamble, a `Hello` carrying the
//! variable-name table, `Chunk` frames of [`DEFAULT_CHUNK_EVENTS`] events
//! and a closing `Finish`. It holds thread 0's events as packed records,
//! without their timestamps. The reader fails typed ([`TraceFileError`]) and
//! keeps every whole frame before the damage; a file without its `Finish`
//! is torn.

use crate::stream::{intern_names, FrameChunker, DEFAULT_CHUNK_EVENTS};
use crate::tracer::Tracer;
use dp_types::protocol::{self, ChunkView, Frame, FrameReader, Hello, ProtocolError};
use dp_types::protocol::{FRAME_OVERHEAD_BYTES, MAX_FRAME_BYTES, PROTOCOL_VERSION, TAG_CHUNK};
use dp_types::{Interner, Record, TraceEvent};
use std::fmt;
use std::io::{self, Read, Write};
use TraceFileError::{BadNameTable, Checksum, NotATrace, TornRecord, UnsupportedVersion};

/// Bytes of the preamble: the offset of the `Hello` frame.
const PREAMBLE: u64 = 5;

/// Why a trace file could not be read.
#[derive(Debug)]
pub enum TraceFileError {
    /// The underlying reader failed.
    Io(io::Error),
    /// The file does not start with a trace preamble.
    NotATrace,
    /// A trace version this build does not read (an old `DPTR` file's own).
    UnsupportedVersion(u8),
    /// The first frame is not a `Hello`, or its name table is malformed.
    BadNameTable(&'static str),
    /// The frame at `offset` fails its checksum, or is neither the `Chunk`
    /// at the reader's position nor the `Finish`: the file is corrupt.
    Checksum {
        /// Byte offset of the frame.
        offset: u64,
        /// Events read before it: the salvageable prefix.
        records_read: u64,
    },
    /// The file ends inside the frame at `offset`, before its `Finish`:
    /// the recording was cut off (crash, full disk, truncated copy).
    TornRecord {
        /// Byte offset of the incomplete frame.
        offset: u64,
        /// Events read before it: the salvageable prefix.
        records_read: u64,
    },
}

impl fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceFileError::Io(e) => write!(f, "trace i/o error: {e}"),
            NotATrace => write!(f, "not a depprof trace (bad magic)"),
            UnsupportedVersion(v) => {
                write!(f, "unsupported trace version {v} (this build reads {PROTOCOL_VERSION})")
            }
            BadNameTable(why) => write!(f, "bad variable-name table: {why}"),
            Checksum { offset, records_read: n } => {
                write!(f, "corrupted frame at byte {offset} ({n} records read cleanly before it)")
            }
            TornRecord { offset, records_read: n } => {
                write!(f, "trace truncated at byte {offset} ({n} records read cleanly before it)")
            }
        }
    }
}

impl std::error::Error for TraceFileError {}

impl From<io::Error> for TraceFileError {
    fn from(e: io::Error) -> Self {
        TraceFileError::Io(e)
    }
}

/// Streams trace events to a byte sink as a DPSV session. The events
/// must be thread 0's: [`TraceWriter::finish`] refuses a recording that
/// holds any other.
pub struct TraceWriter<W: Write> {
    sink: W,
    chunker: FrameChunker,
    error: Option<io::Error>,
    /// Each frame is encoded here, then written out whole.
    buf: Vec<u8>,
}

impl<W: Write> TraceWriter<W> {
    /// Creates a writer with no variable-name table (names resolve to ids).
    pub fn new(sink: W) -> io::Result<Self> {
        Self::with_names(sink, &Interner::new())
    }

    /// Creates a writer, embedding the interner's names for replayed reports.
    pub fn with_names(mut sink: W, interner: &Interner) -> io::Result<Self> {
        protocol::write_preamble(&mut sink)?;
        let chunker = FrameChunker::new(DEFAULT_CHUNK_EVENTS);
        let mut w = TraceWriter { sink, chunker, error: None, buf: Vec::new() };
        let names = (0..interner.len() as u32).map(|id| interner.resolve(id).into()).collect();
        w.write(&Frame::Hello(Hello { names, ..Hello::default() }))?;
        Ok(w)
    }

    /// Events written so far.
    pub fn events(&self) -> u64 {
        self.chunker.position()
    }

    /// Writes the last `Chunk` and the `Finish`, flushes and returns the
    /// sink; surfaces any deferred I/O error, and refuses a recording with
    /// an event off thread 0 as [`io::ErrorKind::InvalidInput`], naming
    /// the event; the chunk that would have held it, and all after it,
    /// were never written.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        if let Some(refused) = self.chunker.refused() {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, refused));
        }
        for frame in self.chunker.flush().into_iter().chain([Frame::Finish]) {
            self.write(&frame)?;
        }
        self.sink.flush()?;
        Ok(self.sink)
    }

    fn write(&mut self, frame: &Frame) -> io::Result<()> {
        self.buf.clear();
        frame.encode_into(&mut self.buf);
        self.sink.write_all(&self.buf)
    }
}

impl<W: Write> Tracer for TraceWriter<W> {
    fn event(&mut self, ev: TraceEvent) {
        if let Some(chunk) = self.chunker.push(ev).filter(|_| self.error.is_none()) {
            self.error = self.write(&chunk).err();
        }
    }
}

/// Replays a recorded trace as an iterator of events, each on thread 0
/// at timestamp 0.
pub struct TraceReader<R: Read> {
    input: R,
    frames: FrameReader,
    interner: Interner,
    /// Byte offset of the next frame.
    offset: u64,
    /// Events handed out or skipped so far.
    records: u64,
    /// The current chunk's records, and the next one to hand out.
    chunk: Vec<Record>,
    next: usize,
    /// The `Finish` was read, or reading failed.
    done: bool,
}

impl<R: Read> TraceReader<R> {
    /// Opens a trace, validating the preamble and loading the name table.
    pub fn new(mut input: R) -> Result<Self, TraceFileError> {
        let mut pre = [0u8; PREAMBLE as usize];
        match input.read_exact(&mut pre).map(|()| protocol::read_preamble(&mut &pre[..])) {
            Ok(Ok(())) => {}
            Ok(Err(ProtocolError::UnsupportedVersion(v))) => return Err(UnsupportedVersion(v)),
            Ok(Err(_)) if pre.starts_with(b"DPTR") => return Err(UnsupportedVersion(pre[4])),
            Err(e) if e.kind() != io::ErrorKind::UnexpectedEof => return Err(e.into()),
            _ => return Err(NotATrace),
        }
        let (frames, interner) = (FrameReader::new(MAX_FRAME_BYTES), Interner::new());
        let mut r = TraceReader {
            input,
            frames,
            interner,
            offset: PREAMBLE,
            records: 0,
            chunk: Vec::new(),
            next: 0,
            done: false,
        };
        match r.read_frame(0) {
            Err(TornRecord { .. }) => Err(BadNameTable("truncated name table")),
            read => read.map(|()| r),
        }
    }

    /// The variable names recorded in the trace.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Events handed out or skipped so far: the reader's position, and
    /// the salvageable prefix once iteration stopped on an error.
    pub fn records_read(&self) -> u64 {
        self.records
    }

    /// Moves the reader to event `n`, as a resume does: whole frames that
    /// end at or below `n` are dropped undecoded, and so are the first
    /// `n − base` events of the frame that straddles it. A trace that
    /// ends before `n` is [`TraceFileError::TornRecord`].
    pub fn skip_to(&mut self, n: u64) -> Result<(), TraceFileError> {
        while self.records < n {
            let held = (self.chunk.len() - self.next) as u64;
            if held > 0 {
                let skip = held.min(n - self.records);
                self.next += skip as usize;
                self.records += skip;
            } else if self.done {
                return Err(TornRecord { offset: self.offset, records_read: self.records });
            } else {
                self.read_frame(n)?;
            }
        }
        Ok(())
    }

    /// Reads the next frame: the `Hello` first, then `Chunk`s, each at
    /// the reader's position, up to the `Finish`. A `Chunk` that ends at
    /// or below `keep_from` only moves the position.
    fn read_frame(&mut self, keep_from: u64) -> Result<(), TraceFileError> {
        let (at, pos) = (self.offset, self.records);
        let corrupt = || Checksum { offset: at, records_read: pos };
        self.done = true;
        loop {
            let (tag, payload) = match self.frames.next_frame() {
                Ok(Some(frame)) => frame,
                Err(_) => return Err(corrupt()),
                Ok(None) => match self.frames.fill(&mut self.input) {
                    Ok(0) => return Err(TornRecord { offset: at, records_read: pos }),
                    Err(e) if e.kind() != io::ErrorKind::Interrupted => return Err(e.into()),
                    _ => continue,
                },
            };
            self.offset += (payload.len() + FRAME_OVERHEAD_BYTES) as u64;
            if tag == TAG_CHUNK && at > PREAMBLE {
                let chunk = ChunkView::parse(payload).ok().filter(|c| c.base() == pos);
                let chunk = chunk.ok_or_else(corrupt)?;
                self.chunk.clear();
                self.next = 0;
                match pos + chunk.len() as u64 {
                    end if end > keep_from => self.chunk.extend(chunk.records()),
                    end => self.records = end,
                }
                self.done = false;
                return Ok(());
            }
            match (Frame::decode(tag, payload), at == PREAMBLE) {
                (Ok(Frame::Hello(hello)), true) => {
                    self.interner = intern_names(&hello.names).map_err(BadNameTable)?;
                }
                (_, true) => return Err(BadNameTable("first frame is not a Hello")),
                (Ok(Frame::Finish), _) => return Ok(()),
                _ => return Err(corrupt()),
            }
            self.done = false;
            return Ok(());
        }
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = Result<TraceEvent, TraceFileError>;

    fn next(&mut self) -> Option<Result<TraceEvent, TraceFileError>> {
        loop {
            if let Some(&rec) = self.chunk.get(self.next) {
                self.next += 1;
                self.records += 1;
                return Some(Ok(rec.unpack(0, 0)));
            }
            if self.done {
                return None;
            }
            if let Err(e) = self.read_frame(self.records) {
                return Some(Err(e));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{c, ProgramBuilder};
    use crate::interp::Interp;
    use crate::tracer::CollectTracer;
    use dp_types::wire::xor_fold;
    use dp_types::{loc::loc, MemAccess};

    /// One event of every kind, as a reader hands it out: on thread 0,
    /// at timestamp 0.
    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::LoopBegin { loop_id: 3, loc: loc(1, 10), thread: 0, ts: 0 },
            TraceEvent::LoopIter { loop_id: 3, iter: 0, thread: 0, ts: 0 },
            TraceEvent::Access(MemAccess::write(0xdead_beef, 0, loc(2, 60), 7, 0)),
            TraceEvent::Access(MemAccess::read(0xdead_beef, 0, loc(2, 61), 7, 0)),
            TraceEvent::CallBegin { func: 9, thread: 0, ts: 0 },
            TraceEvent::CallEnd { func: 9, thread: 0, ts: 0 },
            TraceEvent::Dealloc { base: 0x100, len: 64, thread: 0, ts: 0 },
            TraceEvent::LoopEnd { loop_id: 3, loc: loc(1, 20), iters: 1, thread: 0, ts: 0 },
        ]
    }

    fn sample_records() -> Vec<Record> {
        sample_events().iter().map(Record::pack).collect()
    }

    fn record(events: &[TraceEvent]) -> Vec<u8> {
        let mut w = TraceWriter::new(Vec::new()).unwrap();
        for ev in events {
            w.event(*ev);
        }
        w.finish().unwrap()
    }

    /// Bytes of a recording before its first `Chunk`: preamble and `Hello`.
    fn header_len() -> usize {
        record(&[]).len() - FRAME_OVERHEAD_BYTES
    }

    /// A frame of `tag` around `payload`, checksum and all.
    fn frame(tag: u8, payload: &[u8]) -> Vec<u8> {
        let mut out = vec![tag];
        out.extend((payload.len() as u32).to_le_bytes());
        out.extend(payload);
        out.push(xor_fold(tag, payload));
        out
    }

    #[test]
    fn roundtrip_every_variant() {
        let bytes = record(&sample_events());
        let back: Vec<TraceEvent> =
            TraceReader::new(&bytes[..]).unwrap().map(Result::unwrap).collect();
        assert_eq!(back, sample_events());
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        assert!(matches!(TraceReader::new(&b"NOPE\x03rest"[..]), Err(NotATrace)));
        assert!(matches!(TraceReader::new(&b"DP"[..]), Err(NotATrace)));
        // An old DPTR file, or a DPSV stream of another version, is
        // refused by the version it names — never misread.
        let old =
            [(&b"DPTR\x01"[..], 1), (b"DPTR\x02\x00\x00", 2), (b"DPSV\x02", 2), (b"DPSV\x03", 3)];
        for (file, v) in old {
            assert!(
                matches!(TraceReader::new(file), Err(UnsupportedVersion(got)) if got == v),
                "{file:?}"
            );
        }
    }

    #[test]
    fn name_table_roundtrips() {
        let mut names = Interner::new();
        let a = names.intern("alpha");
        let b = names.intern("beta");
        let mut w = TraceWriter::with_names(Vec::new(), &names).unwrap();
        w.event(TraceEvent::Access(MemAccess::write(0x8, 1, loc(1, 1), a, 0)));
        let bytes = w.finish().unwrap();
        let r = TraceReader::new(&bytes[..]).unwrap();
        assert_eq!(r.interner().resolve(a), "alpha");
        assert_eq!(r.interner().resolve(b), "beta");
        let evs: Vec<_> = r.map(Result::unwrap).collect();
        assert_eq!(evs.len(), 1);
    }

    #[test]
    fn truncated_name_table_is_typed() {
        let full = record(&[]);
        // Any cut inside the `Hello` frame.
        for cut in PREAMBLE as usize..header_len() {
            assert!(
                matches!(TraceReader::new(&full[..cut]), Err(BadNameTable("truncated name table"))),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn duplicate_name_in_table_is_typed() {
        let table = |names: &[&str]| {
            let mut bytes = Vec::new();
            protocol::write_preamble(&mut bytes).unwrap();
            let names = names.iter().map(|&n| n.into()).collect();
            Frame::Hello(Hello { names, ..Hello::default() }).encode_into(&mut bytes);
            bytes
        };
        let good = table(&["*", "a", "b"]);
        assert_eq!(TraceReader::new(&good[..]).unwrap().interner().resolve(2), "b");
        assert!(matches!(
            TraceReader::new(&table(&["*", "a", "a", "b"])[..]),
            Err(BadNameTable("duplicate name"))
        ));
        assert!(matches!(
            TraceReader::new(&table(&["*", "a", "*"])[..]),
            Err(BadNameTable("duplicate name"))
        ));
        // The first frame must be the `Hello`.
        let mut chunk_first = table(&[])[..PREAMBLE as usize].to_vec();
        Frame::Chunk { base: 0, events: sample_records() }.encode_into(&mut chunk_first);
        assert!(matches!(
            TraceReader::new(&chunk_first[..]),
            Err(BadNameTable("first frame is not a Hello"))
        ));
    }

    /// A recording ends with its `Finish`: cut anywhere before that,
    /// even exactly between two frames, it is torn, never a clean end.
    #[test]
    fn torn_final_record_is_distinguished_from_clean_eof() {
        let bytes = record(&sample_events()[2..3]);
        // Whole file: one event, clean end.
        let items: Vec<_> = TraceReader::new(&bytes[..]).unwrap().collect();
        assert_eq!(items.len(), 1);
        assert!(items[0].is_ok());
        let header = header_len();
        let finish = bytes.len() - FRAME_OVERHEAD_BYTES;
        for cut in header..bytes.len() {
            let items: Vec<_> = TraceReader::new(&bytes[..cut]).unwrap().collect();
            // Inside the chunk nothing is kept; past it, its one event.
            let (kept, offset) = if cut < finish { (0, header) } else { (1, finish) };
            assert_eq!(items.len(), kept + 1, "cut at {cut}");
            assert!(
                matches!(
                    items[kept],
                    Err(TornRecord { offset: o, records_read: r })
                        if o == offset as u64 && r == kept as u64
                ),
                "cut at {cut}: {:?}",
                items[kept]
            );
        }
    }

    #[test]
    fn corrupted_record_fails_checksum_with_offset() {
        let (evs, offsets, clean) = long_recording();
        // Flip one payload bit in the *second* frame: the whole first
        // frame replays, the second not at all.
        let second = offsets[1];
        let mut bad = clean.clone();
        bad[second + 20] ^= 0x40;
        let items: Vec<_> = TraceReader::new(&bad[..]).unwrap().collect();
        let n = DEFAULT_CHUNK_EVENTS;
        assert_eq!(items.len(), n + 1, "iteration stops at the corrupt frame");
        assert!(items[..n].iter().zip(&evs).all(|(got, ev)| got.as_ref().ok() == Some(ev)));
        assert!(
            matches!(
                items[n],
                Err(Checksum { offset, records_read }) if offset == second as u64
                    && records_read == n as u64
            ),
            "{:?}",
            items[n]
        );

        // A flipped frame tag, or an event tag no event has under a
        // checksum that closes: the same corrupt frame.
        let mut retagged = clean.clone();
        retagged[second] = 0x77;
        let mut undefined = clean[..second].to_vec();
        let mut payload = clean[second + 5..offsets[2] - 1].to_vec();
        payload[12] = 0x77;
        undefined.extend(frame(TAG_CHUNK, &payload));
        for bad in [retagged, undefined] {
            let items: Vec<_> = TraceReader::new(&bad[..]).unwrap().collect();
            assert!(
                matches!(items[n], Err(Checksum { offset, .. }) if offset == second as u64),
                "{:?}",
                items[n]
            );
        }
    }

    /// A frame that checksums but is neither the `Chunk` at the reader's
    /// position nor an empty `Finish` is refused like a corrupted one.
    #[test]
    fn misplaced_and_foreign_frames_are_corrupt() {
        let bytes = record(&sample_events());
        let header = header_len();
        let with_frame = |f: Frame| {
            let mut out = bytes[..header].to_vec();
            f.encode_into(&mut out);
            out
        };
        let events = sample_records();
        for bad in [
            with_frame(Frame::Chunk { base: 1, events: events.clone() }),
            with_frame(Frame::Sync { nonce: 0 }),
            with_frame(Frame::Hello(Hello::default())),
            with_frame(Frame::Chunk { base: 0, events })
                .into_iter()
                .chain(frame(6, &[0]))
                .collect(),
        ] {
            let items: Vec<_> = TraceReader::new(&bad[..]).unwrap().collect();
            let kept = items.len() - 1;
            assert!(
                matches!(
                    items[kept],
                    Err(Checksum { records_read, .. }) if records_read == kept as u64
                ),
                "{:?}",
                items[kept]
            );
        }
    }

    /// A chunk whose checksum closes but whose `Dealloc` range runs past
    /// the end of the address space is refused like a corrupted one, with
    /// the clean prefix counted — an engine never sees any of it.
    #[test]
    fn dealloc_past_the_address_space_is_refused_like_a_corrupt_record() {
        let mut evs = sample_events();
        evs.insert(2, TraceEvent::Dealloc { base: u64::MAX - 7, len: 1, thread: 0, ts: 0 });
        let items: Vec<_> = TraceReader::new(&record(&evs)[..]).unwrap().collect();
        assert_eq!(items.len(), 1);
        let header = header_len() as u64;
        assert!(
            matches!(items[0], Err(Checksum { records_read: 0, offset }) if offset == header),
            "{:?}",
            items[0]
        );
        evs[2] = TraceEvent::Dealloc { base: u64::MAX - 15, len: 1, thread: 0, ts: 0 };
        let items: Vec<_> = TraceReader::new(&record(&evs)[..]).unwrap().collect();
        assert!(items.iter().all(Result::is_ok), "a range that ends at the top decodes");
    }

    #[test]
    fn error_messages_name_the_failure() {
        let torn = TornRecord { offset: 9, records_read: 4 };
        assert!(torn.to_string().contains("truncated"));
        assert!(torn.to_string().contains("4 records"), "{torn}");
        let bad = Checksum { offset: 9, records_read: 2 };
        assert!(bad.to_string().contains("corrupted"));
        assert!(bad.to_string().contains("2 records"), "{bad}");
        assert!(UnsupportedVersion(1).to_string().contains("version 1"));
        assert!(NotATrace.to_string().contains("not a depprof trace"));
    }

    /// Regression: errors carry the count of events read before the
    /// failure, and it matches both what the iterator yielded and the
    /// reader's own counter — so a caller salvaging the prefix of a
    /// damaged trace knows exactly how much it kept: every whole frame.
    #[test]
    fn damaged_trace_errors_report_salvageable_prefix() {
        let (evs, offsets, clean) = long_recording();
        // Torn mid-final-chunk: every earlier whole frame reads cleanly.
        let last = offsets.len() - 2;
        let cut = &clean[..offsets[last + 1] - 3];
        let mut r = TraceReader::new(cut).unwrap();
        let mut ok = 0u64;
        let mut torn_records = None;
        for item in &mut r {
            match item {
                Ok(_) => ok += 1,
                Err(TornRecord { records_read, .. }) => torn_records = Some(records_read),
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(ok, (last * DEFAULT_CHUNK_EVENTS) as u64);
        assert!(ok < evs.len() as u64);
        assert_eq!(torn_records, Some(ok), "error must carry the salvageable prefix");
        assert_eq!(r.records_read(), ok);

        // Corrupted third chunk: two chunks salvage.
        let mut bad = clean.clone();
        bad[offsets[2] + 30] ^= 0x10;
        let items: Vec<_> = TraceReader::new(&bad[..]).unwrap().collect();
        let salvaged = 2 * DEFAULT_CHUNK_EVENTS;
        assert_eq!(items.len(), salvaged + 1);
        assert!(matches!(
            items[salvaged],
            Err(Checksum { records_read, offset })
                if records_read == salvaged as u64 && offset == offsets[2] as u64
        ));
    }

    /// Hands out 1–7 bytes per call, so the frame reader almost never
    /// holds a whole frame after one read, and is interrupted (to be
    /// retried, as `read_exact` would) every fifth call.
    struct Dribble<'a> {
        data: &'a [u8],
        calls: usize,
    }

    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(5) {
                return Err(io::ErrorKind::Interrupted.into());
            }
            let n = (self.calls % 7 + 1).min(buf.len()).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    /// Every event kind in rotation, long enough that whole frames lie
    /// past the frame reader's 64 KiB buffer; returns the events, each frame's byte
    /// offset in the recording (the `Finish`'s last) and the recording.
    fn long_recording() -> (Vec<TraceEvent>, Vec<usize>, Vec<u8>) {
        let evs: Vec<TraceEvent> = (0..5000u64)
            .map(|i| {
                let mut ev = sample_events()[(i % 8) as usize];
                if let TraceEvent::Access(a) = &mut ev {
                    a.addr = 0x1000 + i * 8;
                }
                ev
            })
            .collect();
        let bytes = record(&evs);
        let mut offsets = vec![header_len()];
        while let Some(&at) = offsets.last().filter(|&&at| at < bytes.len()) {
            let len = u32::from_le_bytes(bytes[at + 1..at + 5].try_into().unwrap()) as usize;
            offsets.push(at + len + FRAME_OVERHEAD_BYTES);
        }
        offsets.pop();
        assert_eq!(offsets.len(), evs.len().div_ceil(DEFAULT_CHUNK_EVENTS) + 1);
        assert!(bytes.len() > 64 << 10);
        (evs, offsets, bytes)
    }

    #[test]
    fn dribbled_and_whole_reads_decode_the_same_events() {
        let (evs, _, bytes) = long_recording();
        let whole: Vec<TraceEvent> =
            TraceReader::new(&bytes[..]).unwrap().map(Result::unwrap).collect();
        let mut r = TraceReader::new(Dribble { data: &bytes, calls: 0 }).unwrap();
        let dribbled: Vec<TraceEvent> = (&mut r).map(Result::unwrap).collect();
        assert_eq!(whole, evs);
        assert_eq!(dribbled, evs);
        assert_eq!(r.records_read(), evs.len() as u64);
    }

    #[test]
    fn damage_reports_the_same_place_on_either_side_of_a_refill() {
        let (_, offsets, clean) = long_recording();
        let last_error = |bytes: &[u8], dribble: bool| {
            let items: Vec<_> = if dribble {
                TraceReader::new(Dribble { data: bytes, calls: 0 }).unwrap().collect()
            } else {
                TraceReader::new(bytes).unwrap().collect()
            };
            let ok = items.iter().filter(|i| i.is_ok()).count();
            assert_eq!(ok + 1, items.len(), "exactly one error, and it ends the iteration");
            (ok, format!("{:?}", items.last().unwrap().as_ref().unwrap_err()))
        };
        // The last frame wholly inside the reader's first 64 KiB, the one
        // lying across that edge, and the first wholly after it.
        let across = offsets.iter().rposition(|&o| o < 64 << 10).unwrap();
        assert!(offsets[across + 1] > 64 << 10, "no frame straddles the edge");
        for victim in [across - 1, across, across + 1] {
            let (at, before) = (offsets[victim], victim * DEFAULT_CHUNK_EVENTS);
            let mut flipped = clean.clone();
            flipped[at + 30] ^= 0x20;
            // Cut two bytes short of the frame's end: for the straddling
            // frame that is past the edge, so its head is buffered and its
            // tail is not.
            let torn = &clean[..offsets[victim + 1] - 2];
            let damaged: [(&[u8], String); 2] = [
                (&flipped, format!("Checksum {{ offset: {at}, records_read: {before} }}")),
                (torn, format!("TornRecord {{ offset: {at}, records_read: {before} }}")),
            ];
            for (bytes, want) in damaged {
                for dribble in [false, true] {
                    assert_eq!(
                        last_error(bytes, dribble),
                        (before, want.clone()),
                        "frame {victim} at byte {at}, dribble {dribble}"
                    );
                }
            }
        }
    }

    /// `skip_to` lands on the event it names wherever that lies: the
    /// start, a frame's first, middle or last event, the end; past the
    /// end is a torn trace.
    #[test]
    fn skip_to_lands_on_the_named_event() {
        fn rest_after(mut r: TraceReader<impl Read>, to: u64) -> Vec<TraceEvent> {
            r.skip_to(to).unwrap();
            assert_eq!(r.records_read(), to);
            r.map(Result::unwrap).collect()
        }
        let (evs, _, bytes) = long_recording();
        let n = DEFAULT_CHUNK_EVENTS as u64;
        for to in [0, n, n + 100, 2 * n - 1, evs.len() as u64] {
            let rest = &evs[to as usize..];
            assert_eq!(rest_after(TraceReader::new(&bytes[..]).unwrap(), to), rest, "to {to}");
            let dribble = TraceReader::new(Dribble { data: &bytes, calls: 0 }).unwrap();
            assert_eq!(rest_after(dribble, to), rest, "to {to}, dribbled");
        }
        // Skipping on from part-way through, and past the end.
        let mut r = TraceReader::new(&bytes[..]).unwrap();
        r.by_ref().take(10).for_each(drop);
        r.skip_to(n + 1).unwrap();
        assert_eq!(r.next().unwrap().unwrap(), evs[n as usize + 1]);
        let end = evs.len() as u64;
        assert!(
            matches!(r.skip_to(end + 1), Err(TornRecord { records_read, .. }) if records_read == end),
            "past the end"
        );
    }

    #[test]
    fn record_program_then_replay_matches_live() {
        let mut b = ProgramBuilder::new("t");
        let a = b.array("a", 32);
        let p = b.main(|f| {
            f.for_loop("l", false, c(0), c(32), |f, i| {
                let v = f.ld(a, i.clone()) + c(1);
                f.store(a, i, v);
            });
        });
        // live
        let vm = Interp::new(&p);
        let mut live = CollectTracer::new();
        vm.run_seq(&mut live);
        // recorded
        let vm = Interp::new(&p);
        let mut w = TraceWriter::new(Vec::new()).unwrap();
        vm.run_seq(&mut w);
        assert_eq!(w.events() as usize, live.events.len());
        let bytes = w.finish().unwrap();
        let replayed: Vec<TraceEvent> =
            TraceReader::new(&bytes[..]).unwrap().map(Result::unwrap).collect();
        let unstamped: Vec<_> =
            live.events.iter().map(|ev| Record::pack(ev).unpack(0, 0)).collect();
        assert_eq!(replayed, unstamped);
        // 17 bytes an event, and the frames around them
        assert!(bytes.len() < live.events.len() * 18);
    }

    /// A recording is of thread 0: an event on any other is refused when
    /// the recording finishes, naming its position, and nothing from it
    /// on is written.
    #[test]
    fn an_event_off_thread_zero_is_refused_at_finish() {
        let mut w = TraceWriter::new(Vec::new()).unwrap();
        for ev in sample_events().into_iter().take(2) {
            w.event(ev);
        }
        w.event(TraceEvent::CallBegin { func: 9, thread: 1, ts: 5 });
        w.event(sample_events()[3]);
        let err = w.finish().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("event 2 is off thread 0"), "{err}");
    }
}
