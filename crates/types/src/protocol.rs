//! `DPSV` version 4 — the length-prefixed, checksummed frame protocol the
//! networked profiling service speaks.
//!
//! The paper's pipeline decouples event production from dependence
//! analysis; this protocol carries that decoupling across a socket. A
//! client (`depprof push`) streams the instrumentation event stream of a
//! recorded trace to a server (`depprof serve`), which feeds it into a
//! profiling engine and returns the dependence report.
//!
//! ## Wire layout
//!
//! Each direction of a connection starts with a [`PREAMBLE_BYTES`]-byte
//! preamble — the magic `DPSV` and a version byte — followed by a
//! sequence of frames. A frame is a unit of [`crate::wire`], the codec
//! a `DPCK` checkpoint section is written with too:
//!
//! ```text
//! preamble := "DPSV" version:u8
//! frame    := tag:u8 len:u32 payload[len] checksum:u8
//! chunk    := base:u64 count:u32 tag:u8[count] body:(u64 u64)[count]
//! ```
//!
//! every integer little-endian. [`Frame::encode_into`] writes a frame
//! with [`write_unit`]; [`read_frame`] and [`FrameReader`] take one off
//! with [`split_unit`], which verifies its checksum and here bounds its
//! payload at [`MAX_FRAME_BYTES`] (a checkpoint section has no bound). A
//! torn, bit-flipped or truncated frame so fails exactly like a damaged
//! checkpoint section. A `Chunk` carries its events as
//! [`Record`]s, the one layout an event has from the producer to the
//! worker: all the tags, then all the 16-byte bodies, so a chunk of
//! `count` events is exactly `12 + 17·count` bytes whatever its mix, and
//! no event names a thread or a timestamp.
//!
//! ## Frames
//!
//! | tag | frame        | direction | payload |
//! |-----|--------------|-----------|---------|
//! | 1   | `Hello`      | C → S     | session name, opaque engine spec, checkpoint interval, variable-name table |
//! | 2   | `HelloAck`   | S → C     | session id, resume position |
//! | 3   | `Chunk`      | C → S     | absolute stream position of the first event + batched events of every kind |
//! | 5   | `Sync`       | C → S     | client-chosen nonce; the server answers with `SyncAck` |
//! | 6   | `Finish`     | C → S     | empty; server finalizes and replies `Report` |
//! | 7   | `StatsRequest` | C → S   | empty; server replies `Stats` |
//! | 8   | `Stats`      | S → C     | per-session metrics as JSON |
//! | 9   | `Report`     | S → C     | the rendered dependence report |
//! | 10  | `Error`      | S → C     | numeric code + message; the connection closes after it |
//! | 11  | `SyncAck`    | S → C     | the `Sync` nonce plus the server's durable stream position (watermark) |
//! | 12  | `Busy`       | S → C     | typed backpressure: retry the `Hello` after `retry_after_ms` |
//! | 13  | `Query`      | C → S     | ask for a live analysis snapshot: correlation id + [`query_kind`] selector |
//! | 14  | `QueryResult`| S → C     | the snapshot: echoed id + kind, JSON report answered from incremental state |
//!
//! Tag 4 is unassigned: up to v2 it framed a single non-access event,
//! which a `Chunk` since v3 carries in line with the accesses around it.
//!
//! Versions: v2 added `Query`/`QueryResult`; v3 let a `Chunk` carry
//! events of every kind, each in a body of its own length with its thread
//! and timestamp; v4 carries [`Record`]s, 17 bytes an event, and no
//! thread. A peer or a trace file of another version is refused by the
//! version it names ([`ProtocolError::UnsupportedVersion`]).
//!
//! `Query` (new in v2) may arrive at any point between `HelloAck` and
//! `Finish`; the server answers from the online analysis state it folds
//! as chunks merge, so a query never stalls the feed behind a full
//! re-analysis. The first `Query` of a session lazily enables delta
//! tracking — sessions that never query pay nothing.
//!
//! `Chunk` frames are *positional*: event `i` of a chunk is event
//! `base + i` of the session's logical event stream. A server that
//! already profiled `N` events skips anything below `N` exactly — resend
//! overlap after a reconnect and wire-level duplicate delivery both
//! dedupe to exactly-once profiling.
//!
//! The engine spec inside `Hello` is an opaque blob by design: this crate
//! cannot see the profiler's configuration types, so the spec is encoded
//! and decoded by `dp-core` and merely carried here — the same pattern
//! the checkpoint container uses for its CONFIG section.

use crate::record::{EventKind, Record, RECORD_BYTES};
use crate::wire::{split_unit, write_unit, ByteReader, ByteWriter, Split, WireError};
use crate::wire::{UNIT_HEADER_BYTES, UNIT_OVERHEAD_BYTES};
use std::fmt;
use std::io::{self, Read, Write};

/// Connection preamble magic.
pub const PROTOCOL_MAGIC: [u8; 4] = *b"DPSV";
/// Current protocol version: v4, whose `Chunk` carries [`Record`]s.
pub const PROTOCOL_VERSION: u8 = 4;
/// Bytes of the preamble: the magic and the version.
pub const PREAMBLE_BYTES: usize = PROTOCOL_MAGIC.len() + 1;

/// Default upper bound on a frame's payload length. A frame header
/// announcing more than this is rejected before any allocation — the
/// bounded read buffer that keeps a malicious or corrupt length prefix
/// from ballooning server memory.
pub const MAX_FRAME_BYTES: usize = 4 << 20;

/// Most events one `Chunk` can carry and stay within [`MAX_FRAME_BYTES`]:
/// its base and count, then [`RECORD_BYTES`] an event.
pub const MAX_CHUNK_EVENTS: usize = (MAX_FRAME_BYTES - CHUNK_HEADER_BYTES) / RECORD_BYTES;

/// Bytes of a `Chunk` payload before its records: base and count.
const CHUNK_HEADER_BYTES: usize = 8 + 4;

const TAG_HELLO: u8 = 1;
const TAG_HELLO_ACK: u8 = 2;
/// Wire tag of [`Frame::Chunk`] — public so a receiver can route a raw
/// `(tag, payload)` pair to [`ChunkView`] without building a [`Frame`].
pub const TAG_CHUNK: u8 = 3;
/// Wire tag of [`Frame::Sync`].
pub const TAG_SYNC: u8 = 5;
const TAG_FINISH: u8 = 6;
const TAG_STATS_REQUEST: u8 = 7;
const TAG_STATS: u8 = 8;
const TAG_REPORT: u8 = 9;
const TAG_ERROR: u8 = 10;
const TAG_SYNC_ACK: u8 = 11;
const TAG_BUSY: u8 = 12;
const TAG_QUERY: u8 = 13;
const TAG_QUERY_RESULT: u8 = 14;

/// Selectors carried by [`Frame::Query`]: which live-analysis sections
/// the client wants in the [`Frame::QueryResult`] JSON.
pub mod query_kind {
    /// Loop classification, communication matrix and race hints.
    pub const ALL: u8 = 0;
    /// Table-II loop classification only.
    pub const LOOPS: u8 = 1;
    /// Communication matrix only.
    pub const COMM: u8 = 2;
    /// Race hints only.
    pub const RACES: u8 = 3;
}

/// Error codes carried by [`Frame::Error`]. Code 1 ("at capacity") is no
/// longer sent, since a server at its concurrent-session cap answers
/// `Busy`; it stays reserved so it is never reused.
pub mod error_code {
    /// A frame arrived malformed or out of protocol order.
    pub const BAD_FRAME: u16 = 2;
    /// The server is shutting down (signal); in-flight sessions were
    /// checkpointed and can be resumed by reconnecting.
    pub const SHUTDOWN: u16 = 3;
    /// The profiling engine rejected the session configuration or failed.
    pub const ENGINE: u16 = 4;
    /// The session was hibernated to the checkpoint store after sitting
    /// idle; reconnecting with the same `Hello` rehydrates it exactly.
    pub const HIBERNATED: u16 = 5;
}

/// Everything that can go wrong speaking DPSV.
#[derive(Debug)]
pub enum ProtocolError {
    /// The underlying stream failed.
    Io(io::Error),
    /// A frame or payload was structurally damaged (truncated mid-frame,
    /// checksum mismatch, impossible field value), or announced a payload
    /// over the reader's bound, after which the stream must close.
    Wire(WireError),
    /// The peer's preamble does not start with `DPSV`.
    BadMagic,
    /// The peer speaks a protocol version this build does not.
    UnsupportedVersion(u8),
    /// A frame carried a tag the protocol does not define.
    UnknownFrame {
        /// The undefined tag byte.
        tag: u8,
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "protocol i/o error: {e}"),
            ProtocolError::Wire(e) => write!(f, "malformed frame: {e}"),
            ProtocolError::BadMagic => write!(f, "peer is not speaking DPSV (bad magic)"),
            ProtocolError::UnsupportedVersion(v) => {
                write!(f, "unsupported DPSV version {v} (this build speaks {PROTOCOL_VERSION})")
            }
            ProtocolError::UnknownFrame { tag } => write!(f, "unknown frame tag {tag}"),
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ProtocolError {
    fn from(e: io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

impl From<WireError> for ProtocolError {
    fn from(e: WireError) -> Self {
        ProtocolError::Wire(e)
    }
}

/// The `Hello` frame a client opens its session with.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Hello {
    /// Session name. Identifies the session for resume: reconnecting
    /// with the name of a checkpointed session continues it.
    pub session: String,
    /// Opaque engine specification (encoded/decoded by `dp-core`).
    pub spec: Vec<u8>,
    /// Checkpoint the session every this many events (0 = the server's
    /// default policy).
    pub checkpoint_every: u64,
    /// Variable-name table, in id order, so the served report resolves
    /// names exactly like an offline replay of the same trace.
    pub names: Vec<String>,
}

/// One DPSV frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Session opening (client → server).
    Hello(Hello),
    /// Session accepted (server → client).
    HelloAck {
        /// Server-assigned session id (unique within the server run).
        session_id: u64,
        /// Events the server has already profiled for this session name
        /// (restored from a checkpoint); the client skips this many.
        resume_from: u64,
    },
    /// A batch of consecutive events of every kind — the whole stream.
    Chunk {
        /// Absolute index of the first event in the session's logical
        /// event stream. The server skips any prefix it has already
        /// profiled, so resends and duplicates dedupe exactly.
        base: u64,
        /// The batched events, packed, in stream order.
        events: Vec<Record>,
    },
    /// Watermark probe: the server answers with [`Frame::SyncAck`] once
    /// every frame before it has been consumed.
    Sync {
        /// Caller-chosen correlation value.
        nonce: u64,
    },
    /// End of stream; the server finalizes the session and replies with
    /// [`Frame::Report`].
    Finish,
    /// Ask the server for the session's metrics snapshot.
    StatsRequest,
    /// Per-session metrics, JSON-encoded (server → client).
    Stats {
        /// Stable-keyed JSON object.
        json: String,
    },
    /// The rendered dependence report (server → client, after `Finish`).
    Report {
        /// Report text, byte-identical to an offline replay's output.
        text: String,
    },
    /// Terminal failure notice (server → client).
    Error {
        /// One of [`error_code`]'s constants.
        code: u16,
        /// Human-readable description.
        message: String,
    },
    /// Answer to [`Frame::Sync`]: the nonce plus the server's event
    /// position — the durable watermark a retrying client can trust.
    SyncAck {
        /// The `Sync` frame's nonce, for correlation.
        nonce: u64,
        /// Events the server has consumed for this session so far.
        position: u64,
    },
    /// Typed backpressure (server → client): the server is at its
    /// live-session cap; retry the same `Hello` after the hint elapses.
    /// The connection closes after this frame.
    Busy {
        /// Suggested delay before reconnecting, in milliseconds.
        retry_after_ms: u64,
    },
    /// Mid-session analysis snapshot request (client → server, v2).
    /// Answered from the server's incremental analysis state with a
    /// [`Frame::QueryResult`]; never stalls the event feed.
    Query {
        /// Caller-chosen correlation value, echoed in the result.
        id: u64,
        /// One of [`query_kind`]'s selectors.
        kind: u8,
    },
    /// Live analysis snapshot (server → client, v2).
    QueryResult {
        /// The `Query` frame's correlation id.
        id: u64,
        /// The selector the snapshot answers (echoed).
        kind: u8,
        /// The requested report sections as a JSON object.
        json: String,
    },
}

/// A `Chunk` payload validated in place, whole, before any of it is
/// read: it is exactly as long as its count says, and every record
/// passes [`Record::from_wire`]. A receiver so either feeds the whole
/// chunk, straight from the borrowed bytes, or refuses it untouched.
#[derive(Debug, Clone, Copy)]
pub struct ChunkView<'a> {
    base: u64,
    tags: &'a [u8],
    bodies: &'a [u8],
}

impl<'a> ChunkView<'a> {
    /// Validates a `Chunk` frame's payload without copying it.
    pub fn parse(payload: &'a [u8]) -> Result<Self, WireError> {
        let mut r = ByteReader::new(payload);
        let base = r.u64()?;
        let len = r.u32()? as usize;
        if r.remaining() as u64 != len as u64 * RECORD_BYTES as u64 {
            return Err(WireError::Invalid("event count does not match payload size"));
        }
        let (tags, bodies) = r.take(r.remaining())?.split_at(len);
        let view = ChunkView { base, tags, bodies };
        if !(0..len).all(|i| Record::from_wire(tags[i], view.body(i)).is_some()) {
            return Err(WireError::Invalid("event record does not decode"));
        }
        Ok(view)
    }

    /// Absolute stream index of the first event.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Number of events in the chunk.
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// True for a chunk carrying no events.
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// Record `i`'s body words.
    #[inline]
    fn body(&self, i: usize) -> [u64; 2] {
        let word = |at: usize| u64::from_le_bytes(self.bodies[at..at + 8].try_into().expect("8"));
        [word(16 * i), word(16 * i + 8)]
    }

    /// The chunk's records, in stream order.
    pub fn records(&self) -> impl ExactSizeIterator<Item = Record> + 'a {
        let view = *self;
        (0..self.len()).map(move |i| Record {
            kind: EventKind::from_tag(view.tags[i]).expect("parse checked every tag"),
            body: view.body(i),
        })
    }
}

fn get_string(r: &mut ByteReader<'_>) -> Result<String, WireError> {
    String::from_utf8(r.blob()?.to_vec()).map_err(|_| WireError::Invalid("string is not UTF-8"))
}

impl Frame {
    /// The frame's wire tag.
    pub fn tag(&self) -> u8 {
        match self {
            Frame::Hello(_) => TAG_HELLO,
            Frame::HelloAck { .. } => TAG_HELLO_ACK,
            Frame::Chunk { .. } => TAG_CHUNK,
            Frame::Sync { .. } => TAG_SYNC,
            Frame::Finish => TAG_FINISH,
            Frame::StatsRequest => TAG_STATS_REQUEST,
            Frame::Stats { .. } => TAG_STATS,
            Frame::Report { .. } => TAG_REPORT,
            Frame::Error { .. } => TAG_ERROR,
            Frame::SyncAck { .. } => TAG_SYNC_ACK,
            Frame::Busy { .. } => TAG_BUSY,
            Frame::Query { .. } => TAG_QUERY,
            Frame::QueryResult { .. } => TAG_QUERY_RESULT,
        }
    }

    /// Appends the frame's wire form — `tag | len | payload | checksum` —
    /// to `out` in place ([`write_unit`]), so encoding into a buffer with
    /// spare capacity allocates nothing.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        if let Frame::Chunk { events, .. } = self {
            // header + base + count + records + checksum, in one growth
            out.reserve(UNIT_OVERHEAD_BYTES + CHUNK_HEADER_BYTES + events.len() * RECORD_BYTES);
        }
        let mut w = ByteWriter::from_bytes(std::mem::take(out));
        write_unit(&mut w, self.tag(), |w| self.put_payload(w));
        *out = w.into_bytes();
    }

    fn put_payload(&self, w: &mut ByteWriter) {
        match self {
            Frame::Hello(h) => {
                w.blob(h.session.as_bytes());
                w.blob(&h.spec);
                w.u64(h.checkpoint_every);
                w.u32(h.names.len() as u32);
                for n in &h.names {
                    w.blob(n.as_bytes());
                }
            }
            Frame::HelloAck { session_id, resume_from } => {
                w.u64(*session_id);
                w.u64(*resume_from);
            }
            Frame::Chunk { base, events } => {
                w.u64(*base);
                w.u32(events.len() as u32);
                let out = w.buf();
                out.extend(events.iter().map(|r| r.kind as u8));
                for r in events {
                    out.extend_from_slice(&r.body[0].to_le_bytes());
                    out.extend_from_slice(&r.body[1].to_le_bytes());
                }
            }
            Frame::Sync { nonce } => w.u64(*nonce),
            Frame::Finish | Frame::StatsRequest => {}
            Frame::Stats { json } => w.blob(json.as_bytes()),
            Frame::Report { text } => w.blob(text.as_bytes()),
            Frame::Error { code, message } => {
                w.u16(*code);
                w.blob(message.as_bytes());
            }
            Frame::SyncAck { nonce, position } => {
                w.u64(*nonce);
                w.u64(*position);
            }
            Frame::Busy { retry_after_ms } => w.u64(*retry_after_ms),
            Frame::Query { id, kind } => {
                w.u64(*id);
                w.u8(*kind);
            }
            Frame::QueryResult { id, kind, json } => {
                w.u64(*id);
                w.u8(*kind);
                w.blob(json.as_bytes());
            }
        }
    }

    /// Decodes a frame from its tag and payload. Every malformation is a
    /// typed error; trailing bytes after a well-formed payload are
    /// rejected (a frame is exactly its announced content).
    pub fn decode(tag: u8, payload: &[u8]) -> Result<Frame, ProtocolError> {
        let mut r = ByteReader::new(payload);
        let frame = match tag {
            TAG_HELLO => {
                let session = get_string(&mut r)?;
                let spec = r.blob()?.to_vec();
                let checkpoint_every = r.u64()?;
                let n = r.count()?;
                let mut names = Vec::with_capacity(n);
                for _ in 0..n {
                    names.push(get_string(&mut r)?);
                }
                Frame::Hello(Hello { session, spec, checkpoint_every, names })
            }
            TAG_HELLO_ACK => Frame::HelloAck { session_id: r.u64()?, resume_from: r.u64()? },
            TAG_CHUNK => {
                let chunk = ChunkView::parse(payload)?;
                return Ok(Frame::Chunk { base: chunk.base(), events: chunk.records().collect() });
            }
            TAG_SYNC => Frame::Sync { nonce: r.u64()? },
            TAG_FINISH => Frame::Finish,
            TAG_STATS_REQUEST => Frame::StatsRequest,
            TAG_STATS => Frame::Stats { json: get_string(&mut r)? },
            TAG_REPORT => Frame::Report { text: get_string(&mut r)? },
            TAG_ERROR => Frame::Error { code: r.u16()?, message: get_string(&mut r)? },
            TAG_SYNC_ACK => Frame::SyncAck { nonce: r.u64()?, position: r.u64()? },
            TAG_BUSY => Frame::Busy { retry_after_ms: r.u64()? },
            TAG_QUERY => Frame::Query { id: r.u64()?, kind: r.u8()? },
            TAG_QUERY_RESULT => {
                Frame::QueryResult { id: r.u64()?, kind: r.u8()?, json: get_string(&mut r)? }
            }
            tag => return Err(ProtocolError::UnknownFrame { tag }),
        };
        if !r.is_done() {
            return Err(WireError::Invalid("trailing bytes after frame payload").into());
        }
        Ok(frame)
    }
}

/// Writes the connection preamble (`DPSV` + version).
pub fn write_preamble(w: &mut impl Write) -> io::Result<()> {
    w.write_all(&PROTOCOL_MAGIC)?;
    w.write_all(&[PROTOCOL_VERSION])
}

/// EOF inside a preamble or frame is a torn stream, not an I/O failure.
fn eof_is_torn(e: io::Error) -> ProtocolError {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        ProtocolError::Wire(WireError::Truncated)
    } else {
        ProtocolError::Io(e)
    }
}

/// Reads and validates the peer's preamble.
pub fn read_preamble(r: &mut impl Read) -> Result<(), ProtocolError> {
    let mut hdr = [0u8; PREAMBLE_BYTES];
    r.read_exact(&mut hdr).map_err(eof_is_torn)?;
    if hdr[..4] != PROTOCOL_MAGIC {
        return Err(ProtocolError::BadMagic);
    }
    if hdr[4] != PROTOCOL_VERSION {
        return Err(ProtocolError::UnsupportedVersion(hdr[4]));
    }
    Ok(())
}

/// Writes one frame to the stream: a [`FrameSender`] of one frame.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<(), ProtocolError> {
    Ok(FrameSender::new().send(w, [frame])?)
}

/// The reader's effective payload bound for a configured `max_bytes`.
fn payload_bound(max_bytes: usize) -> usize {
    MAX_FRAME_BYTES.min(max_bytes.max(1))
}

/// Reads exactly one frame from the stream, bounding the payload at
/// `max_bytes`, and consumes nothing past it — for the low-rate reply
/// path, where the next bytes may belong to someone else. A receiver of
/// a frame *stream* reads ahead with a [`FrameReader`] instead.
///
/// Returns `Ok(None)` on a clean end-of-stream (EOF at a frame
/// boundary); EOF inside a frame is a typed
/// [`WireError::Truncated`]. (A trace file, which must end with its
/// `Finish`, reads any earlier end as torn.)
pub fn read_frame(r: &mut impl Read, max_bytes: usize) -> Result<Option<Frame>, ProtocolError> {
    // Room for a small reply; a larger frame grows it once its header is in.
    let mut buf = Vec::with_capacity(64);
    buf.resize(1, 0);
    match r.read_exact(&mut buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    loop {
        match split_unit(&buf, payload_bound(max_bytes))? {
            Split::Unit(tag, payload, _) => return Frame::decode(tag, payload).map(Some),
            Split::Need(total) => {
                let have = buf.len();
                buf.resize(total, 0);
                r.read_exact(&mut buf[have..]).map_err(eof_is_torn)?;
            }
        }
    }
}

/// The sending end of a frame stream, and the one frame writer: frames
/// are encoded into one reused buffer and written out with one
/// `write_all` a batch, unflushed.
#[derive(Debug, Default)]
pub struct FrameSender {
    buf: Vec<u8>,
    events_written: u64,
}

impl FrameSender {
    /// A sender with nothing written.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes `frames` out with one `write_all`.
    pub fn send<'f>(
        &mut self,
        w: &mut impl Write,
        frames: impl IntoIterator<Item = &'f Frame>,
    ) -> io::Result<()> {
        self.buf.clear();
        // A small frame encodes without regrowing the buffer.
        self.buf.reserve(64);
        let mut events = 0;
        for frame in frames {
            frame.encode_into(&mut self.buf);
            if let Frame::Chunk { events: chunk, .. } = frame {
                events += chunk.len() as u64;
            }
        }
        w.write_all(&self.buf)?;
        self.events_written += events;
        Ok(())
    }

    /// Events carried by `Chunk` frames the transport accepted whole —
    /// what a retry loop may count as sent.
    pub fn events_written(&self) -> u64 {
        self.events_written
    }
}

/// Initial size of a [`FrameReader`]'s buffer: what one `read` can bring
/// in. Several full 512-event chunks, or ~1 200 two-event ones.
const READ_AHEAD_BYTES: usize = 64 << 10;

/// The receiving end of a frame stream: one read-ahead buffer, filled
/// with one `read` per [`fill`](FrameReader::fill), handing out whole
/// checksum-verified frames as slices borrowed from it.
///
/// Reading and parsing are separate calls so the owner decides when to
/// block: drain [`next_frame`](FrameReader::next_frame) until it returns
/// `None`, then `fill`. A transport error — including a read timeout —
/// comes back from `fill` with every buffered byte kept, so a frame that
/// arrives in pieces across timeouts is never torn.
#[derive(Debug)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// First unconsumed byte.
    start: usize,
    /// One past the last byte read.
    end: usize,
    /// Bytes from `start` the next parse step needs; `fill` makes room
    /// for them, growing the buffer only past its initial size for a
    /// single frame larger than that.
    need: usize,
    max: usize,
}

impl FrameReader {
    /// A reader rejecting frames whose payload exceeds `max_frame_bytes`
    /// (itself capped at [`MAX_FRAME_BYTES`]).
    pub fn new(max_frame_bytes: usize) -> Self {
        FrameReader {
            buf: vec![0; READ_AHEAD_BYTES],
            start: 0,
            end: 0,
            need: UNIT_HEADER_BYTES,
            max: payload_bound(max_frame_bytes),
        }
    }

    /// Bytes read but not yet handed out (a partial frame, after
    /// [`next_frame`](FrameReader::next_frame) returned `None`).
    pub fn buffered(&self) -> usize {
        self.end - self.start
    }

    /// Issues one `read` into the buffer's free space and returns its
    /// result: `Ok(0)` is end-of-stream, an error leaves the buffer as it
    /// was. Call only after the parse step returned "need more bytes".
    pub fn fill(&mut self, r: &mut impl Read) -> io::Result<usize> {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        } else if self.start + self.need > self.buf.len() {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.need > self.buf.len() {
            self.buf.resize(self.need, 0);
        }
        let n = r.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// Consumes the connection preamble once it is buffered. `Ok(false)`
    /// means more bytes are needed.
    pub fn preamble(&mut self) -> Result<bool, ProtocolError> {
        let avail = &self.buf[self.start..self.end];
        if avail.len() < PREAMBLE_BYTES {
            self.need = PREAMBLE_BYTES;
            return Ok(false);
        }
        read_preamble(&mut &avail[..])?;
        self.start += PREAMBLE_BYTES;
        self.need = UNIT_HEADER_BYTES;
        Ok(true)
    }

    /// Hands out the next whole frame as `(tag, payload)`, checksum
    /// verified; `Ok(None)` means the buffer ends inside the frame (or is
    /// empty) and wants a [`fill`](FrameReader::fill). An oversized
    /// length prefix is rejected as soon as the header is in, before any
    /// room is made for the payload.
    pub fn next_frame(&mut self) -> Result<Option<(u8, &[u8])>, ProtocolError> {
        match split_unit(&self.buf[self.start..self.end], self.max)? {
            Split::Unit(tag, payload, total) => {
                self.start += total;
                self.need = UNIT_HEADER_BYTES;
                Ok(Some((tag, payload)))
            }
            Split::Need(total) => {
                self.need = total;
                Ok(None)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::MemAccess;
    use crate::event::TraceEvent;
    use crate::loc::loc;

    fn access(i: u64) -> Record {
        Record::pack(&TraceEvent::Access(MemAccess::read(8 * i, i, loc(1, 1), 0, 0)))
    }

    /// One event of every kind, accesses between them.
    fn mixed_events() -> Vec<Record> {
        [
            TraceEvent::Access(MemAccess::write(0xdead_beef, 3, loc(2, 60), 7, 1)),
            TraceEvent::LoopBegin { loop_id: 3, loc: loc(1, 10), thread: 0, ts: 1 },
            TraceEvent::LoopIter { loop_id: 3, iter: 9, thread: 0, ts: 2 },
            TraceEvent::Access(MemAccess::read(0xdead_beef, 4, loc(2, 61), 7, 2)),
            TraceEvent::LoopEnd { loop_id: 3, loc: loc(1, 20), iters: 10, thread: 0, ts: 3 },
            TraceEvent::CallBegin { func: 5, thread: 1, ts: 4 },
            TraceEvent::CallEnd { func: 5, thread: 1, ts: 5 },
            TraceEvent::Dealloc { base: 0x100, len: 64, thread: 0, ts: 6 },
        ]
        .iter()
        .map(Record::pack)
        .chain([access(7)])
        .collect()
    }

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello(Hello {
                session: "sess-1".into(),
                spec: vec![1, 2, 3],
                checkpoint_every: 1000,
                names: vec!["*".into(), "alpha".into()],
            }),
            Frame::HelloAck { session_id: 42, resume_from: 12_345 },
            Frame::Chunk { base: 1_000_000, events: (0..3).map(access).collect() },
            Frame::Chunk { base: 11, events: mixed_events() },
            Frame::Chunk { base: 20, events: Vec::new() },
            Frame::Sync { nonce: 7 },
            Frame::Finish,
            Frame::StatsRequest,
            Frame::Stats { json: "{\"events\":1}".into() },
            Frame::Report { text: "BGN loop ...".into() },
            Frame::Error { code: error_code::ENGINE, message: "engine failed".into() },
            Frame::SyncAck { nonce: 7, position: 1_000_002 },
            Frame::Busy { retry_after_ms: 250 },
            Frame::Query { id: 9, kind: query_kind::ALL },
            Frame::QueryResult { id: 9, kind: query_kind::LOOPS, json: "{\"loops\":[]}".into() },
        ]
    }

    /// The payload of `frame`'s wire form.
    fn payload(frame: &Frame) -> Vec<u8> {
        let mut wire = Vec::new();
        frame.encode_into(&mut wire);
        wire[UNIT_HEADER_BYTES..wire.len() - 1].to_vec()
    }

    #[test]
    fn every_frame_roundtrips() {
        let mut buf = Vec::new();
        write_preamble(&mut buf).unwrap();
        for f in sample_frames() {
            write_frame(&mut buf, &f).unwrap();
        }
        let mut r = &buf[..];
        read_preamble(&mut r).unwrap();
        for expect in sample_frames() {
            let got = read_frame(&mut r, MAX_FRAME_BYTES).unwrap().unwrap();
            assert_eq!(got, expect);
        }
        assert!(read_frame(&mut r, MAX_FRAME_BYTES).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn preamble_rejects_wrong_magic_and_version() {
        assert!(matches!(read_preamble(&mut &b"DPCK\x01"[..]), Err(ProtocolError::BadMagic)));
        // A v2 peer would send its loop events in frames v3 no longer has,
        // a v3 peer its events in bodies of another layout.
        for v in [2, 3, 9] {
            assert!(matches!(
                read_preamble(&mut &[b'D', b'P', b'S', b'V', v][..]),
                Err(ProtocolError::UnsupportedVersion(got)) if got == v
            ));
        }
        assert!(matches!(
            read_preamble(&mut &b"DP"[..]),
            Err(ProtocolError::Wire(WireError::Truncated))
        ));
    }

    #[test]
    fn oversized_frame_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.push(TAG_CHUNK);
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let got = read_frame(&mut &buf[..], 1024);
        assert!(matches!(got, Err(ProtocolError::Wire(WireError::TooLarge(_, 1024)))), "{got:?}");
    }

    /// The largest chunk is exactly as long as its count says, whatever
    /// its mix: `MAX_CHUNK_EVENTS` events fit the frame bound, one more
    /// does not.
    #[test]
    fn the_largest_chunk_fits_the_frame_bound() {
        let events = vec![access(1); MAX_CHUNK_EVENTS];
        let fits = payload(&Frame::Chunk { base: 0, events });
        assert!(fits.len() <= MAX_FRAME_BYTES && fits.len() + RECORD_BYTES > MAX_FRAME_BYTES);
        assert_eq!(MAX_CHUNK_EVENTS, 246_723);
    }

    #[test]
    fn truncation_inside_a_frame_is_typed() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::Sync { nonce: 1 }).unwrap();
        for cut in 1..buf.len() {
            let got = read_frame(&mut &buf[..cut], MAX_FRAME_BYTES);
            assert!(
                matches!(got, Err(ProtocolError::Wire(WireError::Truncated))),
                "cut at {cut}: {got:?}"
            );
        }
    }

    #[test]
    fn bit_flips_fail_checksum_or_typed() {
        let mut clean = Vec::new();
        let chunk = Frame::Chunk { base: 0, events: mixed_events() };
        write_frame(&mut clean, &chunk).unwrap();
        for i in 0..clean.len() {
            let mut bad = clean.clone();
            bad[i] ^= 0x20;
            // Never a panic; always a typed error or (for a tag flip that
            // still checksums, impossible here) a different frame.
            let _ = read_frame(&mut &bad[..], MAX_FRAME_BYTES);
        }
        // Payload flips specifically must be caught by the checksum.
        let mut bad = clean.clone();
        bad[6] ^= 0x01;
        assert!(matches!(
            read_frame(&mut &bad[..], MAX_FRAME_BYTES),
            Err(ProtocolError::Wire(WireError::Checksum { .. }))
        ));
    }

    #[test]
    fn reader_compacts_and_grows_only_for_a_single_large_frame() {
        let chunk = |base: u64, n: u64| Frame::Chunk { base, events: (0..n).map(access).collect() };
        // ~17 KB frames straddle the 64 KiB buffer's end (compaction); the
        // ~68 KB one exceeds it (growth); the Sync after it must survive.
        let mut frames: Vec<Frame> = (0..10).map(|i| chunk(i * 1000, 1000)).collect();
        frames.push(chunk(10_000, 4000));
        frames.push(Frame::Sync { nonce: 1 });
        let mut wire = Vec::new();
        for f in &frames {
            f.encode_into(&mut wire);
        }
        let mut src = &wire[..];
        let mut reader = FrameReader::new(MAX_FRAME_BYTES);
        let mut got = Vec::new();
        loop {
            while let Some((tag, payload)) = reader.next_frame().unwrap() {
                got.push(Frame::decode(tag, payload).unwrap());
            }
            if reader.fill(&mut src).unwrap() == 0 {
                break;
            }
        }
        assert_eq!(got, frames);
        assert_eq!(reader.buffered(), 0);

        // The payload bound is checked as soon as the header is in.
        let mut small = FrameReader::new(1024);
        small.fill(&mut &wire[..]).unwrap();
        assert!(matches!(
            small.next_frame(),
            Err(ProtocolError::Wire(WireError::TooLarge(17_012, 1024)))
        ));
    }

    /// Record `i` of a chunk payload with its tag set to `tag` and `flip`
    /// XORed into its body.
    fn tampered(payload: &[u8], i: usize, tag: u8, flip: [u64; 2]) -> Vec<u8> {
        let mut bad = payload.to_vec();
        let n = u32::from_le_bytes(bad[8..12].try_into().unwrap()) as usize;
        bad[CHUNK_HEADER_BYTES + i] = tag;
        let body = CHUNK_HEADER_BYTES + n + 16 * i;
        for (w, f) in flip.iter().enumerate() {
            let at = body + 8 * w;
            let word = u64::from_le_bytes(bad[at..at + 8].try_into().unwrap()) ^ f;
            bad[at..at + 8].copy_from_slice(&word.to_le_bytes());
        }
        bad
    }

    /// A `Dealloc` whose range runs past the end of the address space is
    /// refused like any other malformed record, never handed to an engine
    /// that would wrap around while clearing it; so is a record whose tag
    /// no event has.
    #[test]
    fn dealloc_past_the_address_space_is_a_malformed_body() {
        let wire = |base, len| {
            let dealloc = TraceEvent::Dealloc { base, len, thread: 0, ts: 9 };
            payload(&Frame::Chunk { base: 3, events: vec![access(1), Record::pack(&dealloc)] })
        };
        let fits = wire(u64::MAX - 15, 1);
        assert!(ChunkView::parse(&fits).is_ok());
        for bad in
            [wire(u64::MAX - 7, 1), wire(0x100, u64::MAX / 8), tampered(&fits, 1, 0x77, [0; 2])]
        {
            let got = Frame::decode(TAG_CHUNK, &bad);
            assert!(matches!(got, Err(ProtocolError::Wire(WireError::Invalid(_)))), "{got:?}");
        }
    }

    /// Every tag past 7, and every body bit a kind leaves unused, makes a
    /// chunk no reader accepts; what it does accept re-encodes byte for
    /// byte.
    #[test]
    fn a_record_outside_the_layout_is_refused_whole() {
        let clean = payload(&Frame::Chunk { base: 0, events: mixed_events() });
        for tag in 8..=u8::MAX {
            assert!(ChunkView::parse(&tampered(&clean, 4, tag, [0; 2])).is_err(), "tag {tag}");
        }
        // The first bit each kind leaves 0: word 1 of a loop begin or a
        // call, the high half of word 0 of a loop iteration or a call.
        for (i, flip) in [(1, [0, 1]), (2, [1 << 32, 0]), (5, [1 << 63, 0]), (6, [0, 1 << 40])] {
            assert!(ChunkView::parse(&tampered(&clean, i, clean[12 + i], flip)).is_err(), "{i}");
        }
        let view = ChunkView::parse(&clean).unwrap();
        let again = Frame::Chunk { base: view.base(), events: view.records().collect() };
        assert_eq!(payload(&again), clean);
    }

    #[test]
    fn chunk_count_must_match_its_bodies() {
        let payload = payload(&Frame::Chunk { base: 0, events: mixed_events() });
        let n = mixed_events().len() as u32;
        for count in [0, n - 1, n + 1, u32::MAX] {
            let mut bad = payload.clone();
            bad[8..12].copy_from_slice(&count.to_le_bytes());
            assert!(ChunkView::parse(&bad).is_err(), "count {count}");
        }
        // One byte short, or one byte over: the records no longer fill it.
        assert!(ChunkView::parse(&payload[..payload.len() - 1]).is_err());
        assert!(ChunkView::parse(&[&payload[..], &[0]].concat()).is_err());
        assert_eq!(payload.len(), CHUNK_HEADER_BYTES + n as usize * RECORD_BYTES);
        let view = ChunkView::parse(&payload).unwrap();
        assert_eq!((view.len(), view.records().collect::<Vec<_>>()), (n as usize, mixed_events()));
    }

    #[test]
    fn unknown_tag_is_typed() {
        // Tag 4 is the retired one-event frame.
        for tag in [4, 200] {
            let mut out = ByteWriter::new();
            crate::wire::write_section(&mut out, tag, b"whatever");
            let got = read_frame(&mut &out.into_bytes()[..], MAX_FRAME_BYTES);
            assert!(
                matches!(got, Err(ProtocolError::UnknownFrame { tag: t }) if t == tag),
                "{got:?}"
            );
        }
    }

    #[test]
    fn trailing_payload_bytes_are_rejected() {
        let mut payload = 3u64.to_le_bytes().to_vec();
        payload.push(0);
        assert!(matches!(
            Frame::decode(TAG_SYNC, &payload),
            Err(ProtocolError::Wire(WireError::Invalid(_)))
        ));
    }
}
