//! Binary trace recording and replay.
//!
//! The paper's toolchain separates instrumentation from analysis: the
//! instrumented run can write its event stream to disk and analyses run
//! offline (and repeatedly — e.g. one recording feeding the accuracy
//! comparison of Table I at several signature sizes without re-executing
//! the program). [`TraceWriter`] is a [`Tracer`] that streams events to
//! any `Write` sink in a compact fixed-width binary format;
//! [`TraceReader`] replays them as an iterator.
//!
//! Format (little-endian): magic `DPTR`, a version byte, a variable-name
//! table (so replayed reports resolve names without the original
//! program), then one record per event: a tag byte, the fixed-width
//! fields of that variant, and a checksum byte (XOR of tag and fields).
//! Accesses — the overwhelming majority — encode in 28 bytes.
//!
//! The reader fails typed, not loose: [`TraceFileError`] distinguishes a
//! file that isn't a trace, an unsupported version, a corrupted record
//! (checksum mismatch, with its byte offset), an unknown tag, and — the
//! case that matters for crashed recordings — a *torn final record*
//! (EOF mid-record) from a clean EOF at a record boundary.

use crate::tracer::Tracer;
use dp_types::event::BODY_LEN;
use dp_types::{Interner, TraceEvent};
use std::fmt;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};

const MAGIC: &[u8; 4] = b"DPTR";
const VERSION: u8 = 2;

/// Whole size of a record: the event body `dp_types::event` lays out
/// (tag byte, fixed-width fields) and the checksum byte after it.
fn record_len(tag: u8) -> Option<usize> {
    BODY_LEN.get(tag as usize).map(|&n| n as usize + 1)
}

const MAX_RECORD: usize = 28;

// The per-record checksum is the same XOR fold the checkpoint container
// uses (one shared definition in `dp_types::wire`), so a trace record
// and a checkpoint section corrupt and verify identically.
use dp_types::wire::xor_fold;

/// Why a trace file could not be read.
///
/// Replay is an offline workflow on files that may have been produced by
/// a run that crashed mid-recording, copied over a flaky link, or handed
/// in by mistake; each of those deserves a distinct, reportable error
/// rather than a generic `InvalidData`.
#[derive(Debug)]
pub enum TraceFileError {
    /// The underlying reader failed (not an EOF classified below).
    Io(io::Error),
    /// The file does not start with the `DPTR` magic (or is shorter than
    /// a header) — it is not a depprof trace at all.
    NotATrace,
    /// The file is a depprof trace of a format version this build does
    /// not understand.
    UnsupportedVersion(u8),
    /// The variable-name table in the header is malformed.
    BadNameTable(&'static str),
    /// A record starts with a tag byte the format does not define; the
    /// offset is where the record starts.
    UnknownTag {
        /// The undefined tag byte.
        tag: u8,
        /// Byte offset of the record.
        offset: u64,
    },
    /// A record's checksum byte does not match its contents, or its body
    /// does not decode (a `Dealloc` range past the end of the address
    /// space) — the file was corrupted in place or written by something
    /// else; the offset is where the record starts.
    Checksum {
        /// Byte offset of the record.
        offset: u64,
        /// Records that replayed cleanly before the corrupt one — the
        /// salvageable prefix a caller can keep.
        records_read: u64,
    },
    /// The file ends in the middle of a record — the recording was cut
    /// off (crash, full disk, truncated copy). Everything before the
    /// offset replayed cleanly.
    TornRecord {
        /// Byte offset of the incomplete final record.
        offset: u64,
        /// Records that replayed cleanly before the tear — the
        /// salvageable prefix a caller can keep.
        records_read: u64,
    },
}

impl fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceFileError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceFileError::NotATrace => write!(f, "not a depprof trace (bad magic)"),
            TraceFileError::UnsupportedVersion(v) => {
                write!(f, "unsupported trace version {v} (this build reads version {VERSION})")
            }
            TraceFileError::BadNameTable(why) => write!(f, "bad variable-name table: {why}"),
            TraceFileError::UnknownTag { tag, offset } => {
                write!(f, "unknown event tag {tag} at byte {offset}")
            }
            TraceFileError::Checksum { offset, records_read } => {
                write!(
                    f,
                    "checksum mismatch in record at byte {offset} (corrupted trace; \
                     {records_read} records read cleanly before it)"
                )
            }
            TraceFileError::TornRecord { offset, records_read } => {
                write!(
                    f,
                    "trace ends mid-record at byte {offset} (truncated recording; \
                     {records_read} records read cleanly before it)"
                )
            }
        }
    }
}

impl std::error::Error for TraceFileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceFileError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceFileError {
    fn from(e: io::Error) -> Self {
        TraceFileError::Io(e)
    }
}

/// Streams trace events to a byte sink.
pub struct TraceWriter<W: Write> {
    out: BufWriter<W>,
    rec: Vec<u8>,
    events: u64,
    error: Option<io::Error>,
}

impl<W: Write> TraceWriter<W> {
    /// Creates a writer with no variable-name table (names resolve to
    /// ids on replay).
    pub fn new(sink: W) -> io::Result<Self> {
        Self::with_names(sink, &Interner::new())
    }

    /// Creates a writer, embedding the interner's variable names so
    /// replayed reports are fully resolved.
    pub fn with_names(sink: W, interner: &Interner) -> io::Result<Self> {
        let mut out = BufWriter::new(sink);
        out.write_all(MAGIC)?;
        out.write_all(&[VERSION])?;
        let n = interner.len() as u32;
        out.write_all(&n.to_le_bytes())?;
        for id in 0..n {
            let name = interner.resolve(id).as_bytes();
            out.write_all(&(name.len() as u32).to_le_bytes())?;
            out.write_all(name)?;
        }
        Ok(TraceWriter { out, rec: Vec::with_capacity(MAX_RECORD), events: 0, error: None })
    }

    /// Events written so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Flushes and returns the sink; surfaces any deferred I/O error.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.out.flush()?;
        self.out.into_inner().map_err(|e| e.into_error())
    }

    fn emit(&mut self, ev: &TraceEvent) -> io::Result<()> {
        // Records are staged in a scratch buffer so the trailing checksum
        // byte covers exactly the bytes written.
        let r = &mut self.rec;
        r.clear();
        ev.encode_into(r);
        let ck = xor_fold(r[0], &r[1..]);
        r.push(ck);
        self.out.write_all(r)?;
        self.events += 1;
        Ok(())
    }
}

impl<W: Write> Tracer for TraceWriter<W> {
    fn event(&mut self, ev: TraceEvent) {
        if self.error.is_none() {
            if let Err(e) = self.emit(&ev) {
                self.error = Some(e);
            }
        }
    }
}

/// Replays a recorded trace as an iterator of events.
pub struct TraceReader<R: Read> {
    input: BufReader<R>,
    interner: Interner,
    /// Bytes consumed so far — the offset reported in record errors.
    offset: u64,
    /// Records decoded successfully so far — reported in record errors
    /// so callers know how much of a damaged trace is salvageable.
    records: u64,
    done: bool,
}

impl<R: Read> TraceReader<R> {
    /// Opens a trace, validating the header and loading the name table.
    pub fn new(source: R) -> Result<Self, TraceFileError> {
        let mut input = BufReader::new(source);
        let mut hdr = [0u8; 5];
        match input.read_exact(&mut hdr) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                return Err(TraceFileError::NotATrace)
            }
            Err(e) => return Err(e.into()),
        }
        if &hdr[..4] != MAGIC {
            return Err(TraceFileError::NotATrace);
        }
        if hdr[4] != VERSION {
            return Err(TraceFileError::UnsupportedVersion(hdr[4]));
        }
        let mut offset = 5u64;
        let mut cnt = [0u8; 4];
        input.read_exact(&mut cnt).map_err(Self::name_table_eof)?;
        offset += 4;
        let n = u32::from_le_bytes(cnt);
        let mut interner = Interner::new();
        for id in 0..n {
            let mut len = [0u8; 4];
            input.read_exact(&mut len).map_err(Self::name_table_eof)?;
            let len = u32::from_le_bytes(len) as usize;
            if len > 1 << 20 {
                return Err(TraceFileError::BadNameTable("name longer than 1 MiB"));
            }
            let mut buf = vec![0u8; len];
            input.read_exact(&mut buf).map_err(Self::name_table_eof)?;
            offset += 4 + len as u64;
            let name = String::from_utf8(buf)
                .map_err(|_| TraceFileError::BadNameTable("name is not valid UTF-8"))?;
            // Records name their variable by position in this table. A
            // repeated name would intern to its first position and shift
            // every later variable down by one; only the recorder's own
            // leading "*" is expected to be there already.
            let known = interner.len();
            interner.intern(&name);
            if interner.len() == known && !(id == 0 && name == "*") {
                return Err(TraceFileError::BadNameTable("duplicate name"));
            }
        }
        Ok(TraceReader { input, interner, offset, records: 0, done: false })
    }

    fn name_table_eof(e: io::Error) -> TraceFileError {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            TraceFileError::BadNameTable("truncated name table")
        } else {
            TraceFileError::Io(e)
        }
    }

    /// The variable names recorded in the trace.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Records decoded successfully so far (the salvageable prefix when
    /// iteration stopped on a [`TraceFileError::TornRecord`] or
    /// [`TraceFileError::Checksum`]).
    pub fn records_read(&self) -> u64 {
        self.records
    }

    fn read_event(&mut self) -> Result<Option<TraceEvent>, TraceFileError> {
        let rec_off = self.offset;
        let unknown = |tag| TraceFileError::UnknownTag { tag, offset: rec_off };
        // A record lying whole in the read-ahead buffer is decoded where it
        // lies; one that straddles a refill (or follows one) is assembled
        // in `scratch` by two exact reads, which is also where EOF is told
        // apart: at a record boundary the trace ends, inside one it is torn.
        let mut scratch = [0u8; MAX_RECORD];
        let buffered = self.input.buffer();
        let whole = match buffered.first() {
            Some(&tag) => {
                Some(record_len(tag).ok_or_else(|| unknown(tag))?).filter(|&n| n <= buffered.len())
            }
            None => None,
        };
        let (ev, n, in_place) = match whole {
            Some(n) => (decode_record(&buffered[..n]), n, true),
            None => {
                match self.input.read_exact(&mut scratch[..1]) {
                    Ok(()) => {}
                    Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
                    Err(e) => return Err(e.into()),
                }
                let tag = scratch[0];
                let n = record_len(tag).ok_or_else(|| unknown(tag))?;
                match self.input.read_exact(&mut scratch[1..n]) {
                    Ok(()) => {}
                    Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                        return Err(TraceFileError::TornRecord {
                            offset: rec_off,
                            records_read: self.records,
                        })
                    }
                    Err(e) => return Err(e.into()),
                }
                (decode_record(&scratch[..n]), n, false)
            }
        };
        let ev =
            ev.ok_or(TraceFileError::Checksum { offset: rec_off, records_read: self.records })?;
        if in_place {
            self.input.consume(n);
        }
        self.offset += n as u64;
        Ok(Some(ev))
    }
}

/// Verifies and decodes one whole record — event body, checksum byte,
/// exactly as long as its tag says. `None` when the checksum does not
/// match or the body does not decode (see [`TraceEvent::decode`]).
#[inline]
fn decode_record(rec: &[u8]) -> Option<TraceEvent> {
    /// The checksum byte closes the XOR of the whole record to zero.
    /// Every record length is a multiple of four, so the fold — what
    /// [`xor_fold`] computes a byte at a time — runs over the whole words
    /// of a fixed-size array.
    #[inline(always)]
    fn sound<const N: usize>(rec: &[u8]) -> bool {
        const { assert!(N.is_multiple_of(4)) };
        let rec: &[u8; N] = rec.try_into().expect("record length follows from its tag");
        let mut x = 0u32;
        for word in rec.chunks_exact(4) {
            x ^= u32::from_le_bytes(word.try_into().expect("chunks_exact(4)"));
        }
        x ^= x >> 16;
        x ^= x >> 8;
        x as u8 == 0
    }
    let closes = match rec.len() {
        16 => sound::<16>(rec),
        20 => sound::<20>(rec),
        24 => sound::<24>(rec),
        28 => sound::<28>(rec),
        n => unreachable!("no record is {n} bytes long"),
    };
    closes.then(|| TraceEvent::decode(&rec[..rec.len() - 1])).flatten()
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = Result<TraceEvent, TraceFileError>;

    fn next(&mut self) -> Option<Result<TraceEvent, TraceFileError>> {
        if self.done {
            return None;
        }
        match self.read_event() {
            Ok(Some(ev)) => {
                self.records += 1;
                Some(Ok(ev))
            }
            Ok(None) => {
                self.done = true;
                None
            }
            Err(e) => {
                self.done = true;
                Some(Err(e))
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
    use dp_types::{loc::loc, MemAccess};

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::LoopBegin { loop_id: 3, loc: loc(1, 10), thread: 0, ts: 1 },
            TraceEvent::LoopIter { loop_id: 3, iter: 0, thread: 0, ts: 2 },
            TraceEvent::Access(MemAccess::write(0xdead_beef, 3, loc(2, 60), 7, 1)),
            TraceEvent::Access(MemAccess::read(0xdead_beef, 4, loc(2, 61), 7, 2)),
            TraceEvent::CallBegin { func: 9, thread: 1, ts: 5 },
            TraceEvent::CallEnd { func: 9, thread: 1, ts: 6 },
            TraceEvent::Dealloc { base: 0x100, len: 64, thread: 0, ts: 7 },
            TraceEvent::LoopEnd { loop_id: 3, loc: loc(1, 20), iters: 1, thread: 0, ts: 8 },
        ]
    }

    fn record(events: &[TraceEvent]) -> Vec<u8> {
        let mut w = TraceWriter::new(Vec::new()).unwrap();
        for ev in events {
            w.event(*ev);
        }
        w.finish().unwrap()
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
        assert!(matches!(TraceReader::new(&b"NOPE\x02rest"[..]), Err(TraceFileError::NotATrace)));
        assert!(matches!(TraceReader::new(&b"DP"[..]), Err(TraceFileError::NotATrace)));
        assert!(matches!(
            TraceReader::new(&b"DPTR\x01"[..]),
            Err(TraceFileError::UnsupportedVersion(1))
        ));
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
        // Cut inside the header's name-table count.
        assert!(matches!(
            TraceReader::new(&full[..7]),
            Err(TraceFileError::BadNameTable("truncated name table"))
        ));
    }

    #[test]
    fn duplicate_name_in_table_is_typed() {
        let table = |names: &[&str]| {
            let mut bytes = b"DPTR\x02".to_vec();
            bytes.extend((names.len() as u32).to_le_bytes());
            for n in names {
                bytes.extend((n.len() as u32).to_le_bytes());
                bytes.extend(n.as_bytes());
            }
            bytes
        };
        let good = table(&["*", "a", "b"]);
        assert_eq!(TraceReader::new(&good[..]).unwrap().interner().resolve(2), "b");
        assert!(matches!(
            TraceReader::new(&table(&["*", "a", "a", "b"])[..]),
            Err(TraceFileError::BadNameTable("duplicate name"))
        ));
        assert!(matches!(
            TraceReader::new(&table(&["*", "a", "*"])[..]),
            Err(TraceFileError::BadNameTable("duplicate name"))
        ));
    }

    #[test]
    fn torn_final_record_is_distinguished_from_clean_eof() {
        let bytes = record(&sample_events()[2..3]);
        // Whole file: one event, clean end.
        let items: Vec<_> = TraceReader::new(&bytes[..]).unwrap().collect();
        assert_eq!(items.len(), 1);
        assert!(items[0].is_ok());
        // Any cut inside the record is a torn record, never a clean EOF.
        let header = bytes.len() - (1 + 26 + 1);
        for cut in header + 1..bytes.len() {
            let items: Vec<_> = TraceReader::new(&bytes[..cut]).unwrap().collect();
            assert_eq!(items.len(), 1, "cut at {cut}");
            assert!(
                matches!(
                    items[0],
                    Err(TraceFileError::TornRecord { offset, records_read: 0 })
                        if offset == header as u64
                ),
                "cut at {cut}: {:?}",
                items[0]
            );
        }
        // Cut exactly at the record boundary: zero events, no error.
        let items: Vec<_> = TraceReader::new(&bytes[..header]).unwrap().collect();
        assert!(items.is_empty());
    }

    #[test]
    fn corrupted_record_fails_checksum_with_offset() {
        let evs = sample_events();
        let clean = record(&evs);
        // Locate the first record by recording nothing.
        let header = record(&[]).len();
        // Flip one payload bit in the *second* record (the first — a
        // LoopBegin — is tag + 18-byte payload + checksum = 20 bytes).
        let second = header + 20;
        let mut bad = clean.clone();
        bad[second + 3] ^= 0x40;
        let items: Vec<_> = TraceReader::new(&bad[..]).unwrap().collect();
        assert!(items[0].is_ok(), "first record untouched");
        assert!(
            matches!(
                items[1],
                Err(TraceFileError::Checksum { offset, records_read: 1 })
                    if offset == second as u64
            ),
            "{:?}",
            items[1]
        );
        assert_eq!(items.len(), 2, "iteration stops at the corrupt record");

        // A flipped tag lands outside the defined tag range: UnknownTag.
        let mut bad = clean;
        bad[header] = 0x77;
        let items: Vec<_> = TraceReader::new(&bad[..]).unwrap().collect();
        assert!(
            matches!(
                items[0],
                Err(TraceFileError::UnknownTag { tag: 0x77, offset }) if offset == header as u64
            ),
            "{:?}",
            items[0]
        );
    }

    /// A record whose checksum closes but whose `Dealloc` range runs past
    /// the end of the address space is refused like a corrupted one, with
    /// the clean prefix counted — an engine never sees the range.
    #[test]
    fn dealloc_past_the_address_space_is_refused_like_a_corrupt_record() {
        let mut evs = sample_events();
        let header = record(&[]).len();
        // LoopBegin (20 B) + LoopIter (24 B) precede the third record.
        let third = header + 20 + 24;
        evs.insert(2, TraceEvent::Dealloc { base: u64::MAX - 7, len: 1, thread: 0, ts: 3 });
        let items: Vec<_> = TraceReader::new(&record(&evs)[..]).unwrap().collect();
        assert_eq!(items.len(), 3);
        assert!(
            matches!(
                items[2],
                Err(TraceFileError::Checksum { records_read: 2, offset }) if offset == third as u64
            ),
            "{:?}",
            items[2]
        );
        evs[2] = TraceEvent::Dealloc { base: u64::MAX - 15, len: 1, thread: 0, ts: 3 };
        let items: Vec<_> = TraceReader::new(&record(&evs)[..]).unwrap().collect();
        assert!(items.iter().all(Result::is_ok), "a range that ends at the top decodes");
    }

    #[test]
    fn error_messages_name_the_failure() {
        let torn = TraceFileError::TornRecord { offset: 9, records_read: 4 };
        assert!(torn.to_string().contains("truncated"));
        assert!(torn.to_string().contains("4 records"), "{torn}");
        let bad = TraceFileError::Checksum { offset: 9, records_read: 2 };
        assert!(bad.to_string().contains("corrupted"));
        assert!(bad.to_string().contains("2 records"), "{bad}");
        assert!(TraceFileError::UnsupportedVersion(1).to_string().contains("version 1"));
        assert!(TraceFileError::NotATrace.to_string().contains("not a depprof trace"));
    }

    /// Regression: record errors carry the count of records decoded
    /// before the failure, and it matches both what the iterator yielded
    /// and the reader's own counter — so a caller salvaging the prefix
    /// of a damaged trace knows exactly how much it kept.
    #[test]
    fn damaged_trace_errors_report_salvageable_prefix() {
        let evs = sample_events();
        let clean = record(&evs);
        // Torn mid-final-record: all 7 earlier records read cleanly.
        let cut = &clean[..clean.len() - 3];
        let mut r = TraceReader::new(cut).unwrap();
        let mut ok = 0u64;
        let mut torn_records = None;
        for item in &mut r {
            match item {
                Ok(_) => ok += 1,
                Err(TraceFileError::TornRecord { records_read, .. }) => {
                    torn_records = Some(records_read)
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(ok, evs.len() as u64 - 1);
        assert_eq!(torn_records, Some(ok), "error must carry the salvageable prefix");
        assert_eq!(r.records_read(), ok);

        // Corrupted third record: two records salvage.
        let header = record(&[]).len();
        let mut bad = clean.clone();
        // LoopBegin (20 B) + LoopIter (24 B) precede the first access.
        let third = header + 20 + 24;
        bad[third + 2] ^= 0x10;
        let items: Vec<_> = TraceReader::new(&bad[..]).unwrap().collect();
        assert_eq!(items.len(), 3);
        assert!(matches!(
            items[2],
            Err(TraceFileError::Checksum { records_read: 2, offset }) if offset == third as u64
        ));
    }

    /// Hands out 1–7 bytes per call, so the read-ahead buffer almost
    /// never holds a whole record and nearly every one is assembled by
    /// the exact-read path.
    struct Dribble<'a> {
        data: &'a [u8],
        calls: usize,
    }

    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.calls += 1;
            let n = (self.calls % 7 + 1).min(buf.len()).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    /// Every record kind in rotation, long enough to cross the reader's
    /// 8 KiB buffer three times; returns the events and each record's
    /// byte offset in the recording.
    fn long_recording() -> (Vec<TraceEvent>, Vec<usize>, Vec<u8>) {
        let evs: Vec<TraceEvent> = (0..1200u64)
            .map(|i| {
                let mut ev = sample_events()[(i % 8) as usize];
                if let TraceEvent::Access(a) = &mut ev {
                    a.addr = 0x1000 + i * 8;
                    a.ts = i;
                }
                ev
            })
            .collect();
        let mut at = record(&[]).len();
        let offsets = evs
            .iter()
            .map(|ev| {
                let start = at;
                let mut body = Vec::new();
                ev.encode_into(&mut body);
                at += body.len() + 1;
                start
            })
            .collect();
        let bytes = record(&evs);
        assert_eq!(bytes.len(), at);
        assert!(at > 3 * 8192);
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
        // The last record wholly before the first refill edge, the one
        // lying across it, and the first wholly after it.
        let across = offsets.iter().rposition(|&o| o < 8192).unwrap();
        assert!(offsets[across + 1] > 8192, "no record straddles the edge");
        for victim in [across - 1, across, across + 1] {
            let at = offsets[victim];
            let mut flipped = clean.clone();
            flipped[at + 3] ^= 0x20;
            let mut retagged = clean.clone();
            retagged[at] = 0x77;
            // Cut two bytes short of the record's end: for the straddling
            // record that is past the edge, so its head is buffered and
            // its tail is not.
            let torn = &clean[..offsets[victim + 1] - 2];
            let damaged: [(&[u8], String); 3] = [
                (&flipped, format!("Checksum {{ offset: {at}, records_read: {victim} }}")),
                (&retagged, format!("UnknownTag {{ tag: 119, offset: {at} }}")),
                (torn, format!("TornRecord {{ offset: {at}, records_read: {victim} }}")),
            ];
            for (bytes, want) in damaged {
                for dribble in [false, true] {
                    assert_eq!(
                        last_error(bytes, dribble),
                        (victim, want.clone()),
                        "record {victim} at byte {at}, dribble {dribble}"
                    );
                }
            }
        }
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
        assert_eq!(replayed, live.events);
        // ~28 bytes per access event on this workload
        assert!(bytes.len() < live.events.len() * 33);
    }
}
