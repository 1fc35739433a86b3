//! Robustness property tests for the one frame codec, the unit
//! `tag | len | payload | checksum` of `dp_types::wire`, in the formats
//! built on it: the DPSV network frame protocol (and so the trace file,
//! a DPSV session on disk) and the DPCK checkpoint container.
//!
//! The contract under test: **malformed bytes produce typed errors,
//! never a panic, a hang, or an unbounded allocation.** Truncations,
//! bit flips, oversized length prefixes and unknown tags are each
//! driven through both parsers. One suite covers both formats because
//! both write a unit with `wire::write_unit` and take one off with
//! `wire::split_unit`, which checks its checksum: one corruption model.
//! What differs is the bound: a DPSV reader refuses a payload over
//! `MAX_FRAME_BYTES`, while a DPCK section has none.

use depprof::core::checkpoint::CheckpointData;
use depprof::server::{push_events, ClientError, PushOptions};
use depprof::trace::stream::DEFAULT_CHUNK_EVENTS;
use depprof::trace::{FrameChunker, OffThread, TraceReader, TraceWriter};
use depprof::types::protocol::{self, ChunkView, Frame, FrameReader, Hello, ProtocolError};
use depprof::types::protocol::{MAX_FRAME_BYTES, TAG_CHUNK};
use depprof::types::{loc::loc, AccessKind, Interner, MemAccess, Record, TraceEvent, Tracer};
use dp_bench::chaos::{ChaosStream, NetFaultPlan};
use proptest::prelude::*;
use std::io::{self, Read, Write};

// ---------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------

/// The vendored proptest subset has no string strategies; arbitrary
/// bytes through a lossy UTF-8 decode cover ASCII, multibyte sequences
/// and replacement characters alike.
fn arb_string(max: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u8>(), 0..max)
        .prop_map(|v| String::from_utf8_lossy(&v).into_owned())
}

/// An access of thread 0: a stream holds no other.
fn arb_access() -> impl Strategy<Value = MemAccess> {
    ((any::<bool>(), 0u64..1 << 20, 0u64..1 << 16), (1u32..200, 0u32..64)).prop_map(
        |((w, addr, ts), (line, var))| MemAccess {
            addr: 0x1000 + addr,
            ts,
            loc: loc(1, line),
            var,
            thread: 0,
            kind: if w { AccessKind::Write } else { AccessKind::Read },
        },
    )
}

fn packed(events: &[TraceEvent]) -> Vec<Record> {
    events.iter().map(Record::pack).collect()
}

/// `ev` on `thread` at `ts`.
fn restamped(ev: TraceEvent, thread: u16, ts: u64) -> TraceEvent {
    match ev {
        TraceEvent::Access(a) => TraceEvent::Access(MemAccess { thread, ts, ..a }),
        TraceEvent::LoopBegin { loop_id, loc, .. } => {
            TraceEvent::LoopBegin { loop_id, loc, thread, ts }
        }
        TraceEvent::LoopIter { loop_id, iter, .. } => {
            TraceEvent::LoopIter { loop_id, iter, thread, ts }
        }
        TraceEvent::LoopEnd { loop_id, loc, iters, .. } => {
            TraceEvent::LoopEnd { loop_id, loc, iters, thread, ts }
        }
        TraceEvent::CallBegin { func, .. } => TraceEvent::CallBegin { func, thread, ts },
        TraceEvent::CallEnd { func, .. } => TraceEvent::CallEnd { func, thread, ts },
        TraceEvent::Dealloc { base, len, .. } => TraceEvent::Dealloc { base, len, thread, ts },
    }
}

/// What a reader hands back of `ev`: the event at timestamp 0.
fn unstamped(ev: &TraceEvent) -> TraceEvent {
    restamped(*ev, 0, 0)
}

/// Every frame kind the protocol defines, with arbitrary payloads:
/// all-access chunks, and chunks mixing events of every kind.
fn arb_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        (arb_string(12), prop::collection::vec(arb_string(8), 0..4), 0u64..1 << 16).prop_map(
            |(session, names, every)| {
                Frame::Hello(Hello {
                    session,
                    spec: depprof::core::SessionSpec::default().encode(),
                    checkpoint_every: every,
                    names,
                })
            }
        ),
        (any::<u64>(), any::<u64>())
            .prop_map(|(session_id, resume_from)| Frame::HelloAck { session_id, resume_from }),
        (0u64..1 << 40, prop::collection::vec(arb_access(), 0..32)).prop_map(|(base, accesses)| {
            let events = accesses.into_iter().map(TraceEvent::Access).collect::<Vec<_>>();
            Frame::Chunk { base, events: packed(&events) }
        }),
        (0u64..1 << 40, prop::collection::vec(arb_event(), 0..32))
            .prop_map(|(base, events)| Frame::Chunk { base, events: packed(&events) }),
        any::<u64>().prop_map(|nonce| Frame::Sync { nonce }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(nonce, position)| Frame::SyncAck { nonce, position }),
        any::<u64>().prop_map(|retry_after_ms| Frame::Busy { retry_after_ms }),
        Just(Frame::Finish),
        Just(Frame::StatsRequest),
        arb_string(40).prop_map(|json| Frame::Stats { json }),
        arb_string(60).prop_map(|text| Frame::Report { text }),
        (1u16..6, arb_string(30)).prop_map(|(code, message)| Frame::Error { code, message }),
        (any::<u64>(), 0u8..8).prop_map(|(id, kind)| Frame::Query { id, kind }),
        (any::<u64>(), 0u8..8, arb_string(60)).prop_map(|(id, kind, json)| Frame::QueryResult {
            id,
            kind,
            json
        }),
    ]
}

fn encode_frame(f: &Frame) -> Vec<u8> {
    let mut buf = Vec::new();
    protocol::write_frame(&mut buf, f).expect("well-formed frame encodes");
    buf
}

// ---------------------------------------------------------------------
// Two readers, one answer
// ---------------------------------------------------------------------

/// A transport that delivers `data` the way a socket with a read timeout
/// may: in pieces of seeded random size, with a timeout (`WouldBlock`)
/// possible before any byte. `piece` bounds the piece size; 0 disables
/// fragmenting and timeouts.
struct Fragmented<'a> {
    data: &'a [u8],
    piece: usize,
    rng: u64,
}

impl Read for Fragmented<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut want = buf.len();
        if self.piece > 0 {
            self.rng ^= self.rng << 13;
            self.rng ^= self.rng >> 7;
            self.rng ^= self.rng << 17;
            if self.rng.is_multiple_of(3) {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            want = want.min((self.rng >> 8) as usize % self.piece + 1);
        }
        let n = want.min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

/// What a reader made of a byte stream: the frames it yielded, then how
/// the stream ended (`None` = clean end at a frame boundary).
type Outcome = (Vec<Frame>, Option<String>);

fn read_by_frame(mut bytes: &[u8], max: usize) -> Outcome {
    let mut frames = Vec::new();
    loop {
        match protocol::read_frame(&mut bytes, max) {
            Ok(Some(f)) => frames.push(f),
            Ok(None) => return (frames, None),
            Err(e) => return (frames, Some(format!("{e:?}"))),
        }
    }
}

/// Drives a [`FrameReader`] the way the connection handler does: drain
/// every buffered frame, then one `fill`; a timeout goes round again.
fn read_ahead(src: &mut impl Read, max: usize) -> Outcome {
    let mut reader = FrameReader::new(max);
    let mut frames = Vec::new();
    loop {
        loop {
            match reader.next_frame().and_then(|f| match f {
                Some((tag, payload)) => Frame::decode(tag, payload).map(Some),
                None => Ok(None),
            }) {
                Ok(Some(f)) => frames.push(f),
                Ok(None) => break,
                Err(e) => return (frames, Some(format!("{e:?}"))),
            }
        }
        match reader.fill(src) {
            Ok(0) if reader.buffered() == 0 => return (frames, None),
            Ok(0) => {
                let torn = ProtocolError::Wire(depprof::types::WireError::Truncated);
                return (frames, Some(format!("{torn:?}")));
            }
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
            Err(e) => return (frames, Some(format!("{e:?}"))),
        }
    }
}

/// Reads `bytes` frame by frame with `read_frame`, and with a
/// `FrameReader` fed whole, byte by byte, and in random short reads with
/// timeouts between them. All four must yield the same frames and end
/// the same way — same error, after the same frame. Returns that answer.
fn read_all_ways(bytes: &[u8], max: usize) -> Outcome {
    let expect = read_by_frame(bytes, max);
    let seed = bytes.iter().fold(0x9e37_79b9_7f4a_7c15u64, |h, b| h.rotate_left(5) ^ u64::from(*b));
    for piece in [0, 1, 24] {
        let got = read_ahead(&mut Fragmented { data: bytes, piece, rng: seed | 1 }, max);
        assert_eq!(
            got, expect,
            "FrameReader fed in pieces of <= {piece} disagrees with read_frame"
        );
    }
    expect
}

/// `write_frame`'s output for one frame of every kind. The frames other
/// than `Chunk` are as recorded at the commit before `encode_into`
/// existed; the `Chunk`s are v4's, laid out as the table of
/// `depprof::types::record` says: the wire format is pinned, not merely
/// self-consistent.
#[test]
fn encoding_matches_the_recorded_wire_bytes() {
    let golden: Vec<(Frame, &str)> = vec![
        (
            Frame::Hello(Hello {
                session: "s1".into(),
                spec: vec![1, 2, 3],
                checkpoint_every: 1000,
                names: vec!["*".into(), "alpha".into()],
            }),
            "012700000002000000733103000000010203e80300000000000002000000010000002a05000000616c706861f1",
        ),
        (Frame::HelloAck { session_id: 42, resume_from: 12_345 }, "02100000002a00000000000000393000000000000021"),
        (
            Frame::Chunk {
                base: 1_000_000,
                events: packed(&[
                    TraceEvent::Access(MemAccess::write(0xdead_beef, 3, loc(2, 60), 7, 0)),
                    TraceEvent::Access(MemAccess::read(0xdead_beef, 4, loc(2, 61), 7, 0)),
                ]),
            },
            "032e00000040420f0000000000020000000100efbeadde000000003c00000207000000efbeadde000000003d000002070000000c",
        ),
        (Frame::Chunk { base: 5, events: vec![] }, "030c00000005000000000000000000000006"),
        // Every kind in one chunk: all the tags, then all the bodies.
        (Frame::Chunk { base: 11, events: packed(&mixed_events()) }, "03940000000b00000000000000080000000001020304050607efbeadde000000003d00000201000000efbeadde000000003c00000201000000030000000a00000100000000000000000300000000000000090000000000000003000000140000010a000000000000000500000000000000000000000000000005000000000000000000000000000000000100000000000040000000000000005e"),
        (Frame::Sync { nonce: 7 }, "0508000000070000000000000002"),
        (Frame::Finish, "060000000006"),
        (Frame::StatsRequest, "070000000007"),
        (Frame::Stats { json: "{\"events\":1}".into() }, "08100000000c0000007b226576656e7473223a317d16"),
        (Frame::Report { text: "BGN loop".into() }, "090c0000000800000042474e206c6f6f7076"),
        (Frame::Error { code: 2, message: "bad".into() }, "0a090000000200030000006261646c"),
        (Frame::SyncAck { nonce: 7, position: 1_000_002 }, "0b10000000070000000000000042420f000000000003"),
        (Frame::Busy { retry_after_ms: 250 }, "0c08000000fa00000000000000f6"),
        (Frame::Query { id: 9, kind: 0 }, "0d0900000009000000000000000004"),
        (Frame::QueryResult { id: 9, kind: 1, json: "{}".into() }, "0e0f000000090000000000000001020000007b7d02"),
    ];
    let hex = |bytes: &[u8]| bytes.iter().map(|b| format!("{b:02x}")).collect::<String>();
    // One shared buffer: every frame is appended after the ones before.
    let mut stream = Vec::new();
    let mut expect = String::new();
    for (frame, want) in &golden {
        assert_eq!(hex(&encode_frame(frame)), *want, "write_frame({frame:?})");
        frame.encode_into(&mut stream);
        expect.push_str(want);
        assert_eq!(hex(&stream), expect, "encode_into appended {frame:?}");
    }
    let (frames, end) = read_all_ways(&stream, MAX_FRAME_BYTES);
    assert_eq!(frames, golden.into_iter().map(|(f, _)| f).collect::<Vec<_>>());
    assert_eq!(end, None);
}

/// One event of every kind, on thread 0.
fn mixed_events() -> Vec<TraceEvent> {
    vec![
        TraceEvent::Access(MemAccess::read(0xdead_beef, 4, loc(2, 61), 1, 0)),
        TraceEvent::Access(MemAccess::write(0xdead_beef, 3, loc(2, 60), 1, 0)),
        TraceEvent::LoopBegin { loop_id: 3, loc: loc(1, 10), thread: 0, ts: 1 },
        TraceEvent::LoopIter { loop_id: 3, iter: 9, thread: 0, ts: 2 },
        TraceEvent::LoopEnd { loop_id: 3, loc: loc(1, 20), iters: 10, thread: 0, ts: 3 },
        TraceEvent::CallBegin { func: 5, thread: 0, ts: 4 },
        TraceEvent::CallEnd { func: 5, thread: 0, ts: 5 },
        TraceEvent::Dealloc { base: 0x100, len: 64, thread: 0, ts: 6 },
    ]
}

// ---------------------------------------------------------------------
// A stream is a sequential target's
// ---------------------------------------------------------------------

/// `mixed_events` with the event at `at` moved to `thread`.
fn off_thread(at: usize, thread: u16) -> Vec<TraceEvent> {
    let mut evs = mixed_events();
    evs[at] = restamped(evs[at], thread, evs[at].ts());
    evs
}

/// A record names no thread, so the chunker — where every event becomes
/// one — refuses an event of any kind off thread 0, naming its stream
/// position, and makes no frame from it on: neither the one it would
/// have joined nor any later one.
#[test]
fn a_chunker_refuses_every_event_kind_off_thread_zero() {
    for at in 0..mixed_events().len() {
        let evs = off_thread(at, 3);
        let mut chunker = FrameChunker::with_base(3, 100);
        let frames: Vec<Frame> = evs.iter().filter_map(|ev| chunker.push(*ev)).collect();
        let refused = OffThread { position: 100 + at as u64, thread: 3 };
        assert_eq!(chunker.refused(), Some(refused), "{:?}", evs[at]);
        assert!(chunker.flush().is_none(), "{:?}", evs[at]);
        let sent: Vec<Record> = frames
            .into_iter()
            .flat_map(|f| match f {
                Frame::Chunk { events, .. } => events,
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(sent, packed(&evs[..at / 3 * 3]), "only whole chunks before it");
        assert!(refused.to_string().contains(&format!("event {} is off thread 0", 100 + at)));
    }
}

/// A connection that answers with `replies` and keeps what is written.
struct Scripted {
    replies: io::Cursor<Vec<u8>>,
    written: Vec<u8>,
}

impl Scripted {
    /// A server's preamble and `HelloAck`, resuming at `resume_from`.
    fn resuming_at(resume_from: u64) -> Self {
        let mut replies = Vec::new();
        protocol::write_preamble(&mut replies).unwrap();
        Frame::HelloAck { session_id: 1, resume_from }.encode_into(&mut replies);
        Scripted { replies: io::Cursor::new(replies), written: Vec::new() }
    }

    /// The `Chunk` frames written.
    fn chunks(&self) -> Vec<Frame> {
        let (frames, _) = read_by_frame(&self.written[5..], MAX_FRAME_BYTES);
        frames.into_iter().filter(|f| matches!(f, Frame::Chunk { .. })).collect()
    }
}

impl Read for Scripted {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.replies.read(buf)
    }
}

impl io::Write for Scripted {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.written.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// `push_events` refuses a stream with an event of any kind off thread 0
/// before it sends the chunk that would carry it, naming the event's
/// position in the session, and is not to be retried.
#[test]
fn push_events_refuses_every_event_kind_off_thread_zero() {
    let opts = PushOptions { chunk_events: 3, ..PushOptions::default() };
    // A resumed session: the first event sent is stream position 1.
    for at in 1..mixed_events().len() {
        let mut conn = Scripted::resuming_at(1);
        let evs = off_thread(at, 7);
        match push_events(&mut conn, vec![], evs.iter().copied(), &opts) {
            Err(e @ ClientError::OffThread(OffThread { position, thread: 7 })) => {
                assert_eq!(position, at as u64, "{:?}", evs[at]);
                assert!(!e.is_retryable());
                assert!(e.to_string().contains(&format!("event {at} is off thread 0")), "{e}");
            }
            other => panic!("{:?}: {other:?}", evs[at]),
        }
        let whole = (at - 1) / 3 * 3;
        let want: Vec<Frame> = (1..1 + whole)
            .step_by(3)
            .map(|b| Frame::Chunk { base: b as u64, events: packed(&evs[b..b + 3]) })
            .collect();
        assert_eq!(conn.chunks(), want, "{:?}", evs[at]);
    }
}

/// A peer of protocol v3, whose chunks carry another layout, is refused
/// by the version it names: on a socket and in a file.
#[test]
fn a_v3_peer_or_file_is_refused_by_its_version() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let peer = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        io::Write::write_all(&mut conn, b"DPSV\x03").unwrap();
        let mut rest = Vec::new();
        let _ = conn.read_to_end(&mut rest);
    });
    let mut conn = std::net::TcpStream::connect(addr).unwrap();
    let pushed = push_events(&mut conn, vec![], mixed_events(), &PushOptions::default());
    assert!(
        matches!(pushed, Err(ClientError::Protocol(ProtocolError::UnsupportedVersion(3)))),
        "{pushed:?}"
    );
    drop(conn);
    peer.join().unwrap();

    let mut v3 = record_trace(&Interner::new(), &mixed_events());
    v3[4] = 3;
    let read = TraceReader::new(&v3[..]);
    assert!(
        matches!(read, Err(depprof::trace::TraceFileError::UnsupportedVersion(3))),
        "{:?}",
        read.err()
    );
}

// ---------------------------------------------------------------------
// Trace files: a recorded DPSV session
// ---------------------------------------------------------------------

fn record_trace(names: &Interner, events: &[TraceEvent]) -> Vec<u8> {
    let mut w = TraceWriter::with_names(Vec::new(), names).expect("in-memory sink");
    for ev in events {
        w.event(*ev);
    }
    w.finish().expect("in-memory sink")
}

/// A recording of a two-name table and one event of every kind: the
/// preamble, the `Hello`, one `Chunk` of the events' records — their
/// tags, then their bodies, 17 bytes an event — and the `Finish`.
#[test]
fn trace_file_matches_the_recorded_bytes() {
    let golden = "4450535604\
        01220000000000000000000000000000000000000002000000010000002a05000000616c70686159\
        0394000000000000000000000008000000\
        0001020304050607\
        efbeadde000000003d00000201000000\
        efbeadde000000003c00000201000000\
        030000000a0000010000000000000000\
        03000000000000000900000000000000\
        03000000140000010a00000000000000\
        05000000000000000000000000000000\
        05000000000000000000000000000000\
        00010000000000004000000000000000\
        55\
        060000000006";
    let bytes: Vec<u8> = (0..golden.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&golden[i..i + 2], 16).expect("hex"))
        .collect();
    let reader = TraceReader::new(&bytes[..]).expect("golden header");
    let names = reader.interner().clone();
    assert_eq!((names.len(), names.resolve(1)), (2, "alpha"));
    let events: Vec<TraceEvent> = reader.map(|ev| ev.expect("golden record")).collect();
    assert_eq!(events, mixed_events().iter().map(unstamped).collect::<Vec<_>>());
    assert_eq!(record_trace(&names, &mixed_events()), bytes);
}

/// An event of thread 0, of any kind.
fn arb_event() -> impl Strategy<Value = TraceEvent> {
    let (fields, thread) = ((any::<u32>(), 1u32..1 << 20, any::<u64>(), any::<u64>()), 0);
    (0u8..7, arb_access(), fields).prop_map(move |(kind, a, (id, line, n, ts))| match kind {
        0 => TraceEvent::Access(a),
        1 => TraceEvent::LoopBegin { loop_id: id, loc: loc(1, line), thread, ts },
        2 => TraceEvent::LoopIter { loop_id: id, iter: n, thread, ts },
        3 => TraceEvent::LoopEnd { loop_id: id, loc: loc(2, line), iters: n, thread, ts },
        4 => TraceEvent::CallBegin { func: id, thread, ts },
        5 => TraceEvent::CallEnd { func: id, thread, ts },
        // A range that fits the address space, as a chunk requires.
        _ => TraceEvent::Dealloc { base: n >> 4, len: u64::from(id), thread, ts },
    })
}

fn arb_checkpoint() -> impl Strategy<Value = CheckpointData> {
    (
        1u64..1 << 20,
        0u64..1 << 20,
        prop::collection::vec(any::<u8>(), 0..32),
        prop::collection::vec(any::<u8>(), 0..32),
        prop::collection::vec(prop::collection::vec(any::<u8>(), 0..24), 0..4),
    )
        .prop_map(|(generation, records_read, config, router, workers)| CheckpointData {
            generation,
            records_read,
            config,
            router: router.clone(),
            ledger: router,
            workers,
        })
}

/// Byte positions of the unchecksummed `len` prefixes in a buffer of
/// consecutive sections starting at `header` — the one region where a
/// single-byte checksum cannot promise detection (a shortened length
/// can land on a byte that happens to fold correctly). Everything else
/// (magic, tag, payload, checksum byte) is covered.
fn len_field_positions(bytes: &[u8], header: usize) -> Vec<usize> {
    let mut positions = Vec::new();
    let mut at = header;
    while at + 5 <= bytes.len() {
        positions.extend(at + 1..at + 5);
        let len = u32::from_le_bytes([bytes[at + 1], bytes[at + 2], bytes[at + 3], bytes[at + 4]])
            as usize;
        at += 1 + 4 + len + 1;
    }
    positions
}

// ---------------------------------------------------------------------
// DPSV frames
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Sanity anchor: every well-formed frame round-trips exactly.
    #[test]
    fn frames_roundtrip(f in arb_frame()) {
        let buf = encode_frame(&f);
        prop_assert_eq!(read_all_ways(&buf, MAX_FRAME_BYTES), (vec![f], None));
    }

    /// A trace file is a DPSV stream by construction: the preamble, a
    /// `Hello` carrying the name table, the `Chunk` frames a
    /// `FrameChunker` of the default size makes, and the `Finish`.
    #[test]
    fn a_trace_file_is_a_dpsv_stream(
        (names, events) in (
            prop::collection::vec(arb_string(12), 0..6),
            prop::collection::vec(arb_event(), 0..1200),
        )
    ) {
        let mut interner = Interner::new();
        for n in &names {
            interner.intern(n);
        }
        let mut expect = Vec::new();
        protocol::write_preamble(&mut expect).expect("in-memory sink");
        let names = (0..interner.len() as u32).map(|id| interner.resolve(id).into()).collect();
        let mut frames = vec![Frame::Hello(Hello { names, ..Hello::default() })];
        let mut chunker = FrameChunker::new(DEFAULT_CHUNK_EVENTS);
        frames.extend(events.iter().filter_map(|ev| chunker.push(*ev)));
        frames.extend(chunker.flush());
        frames.push(Frame::Finish);
        for f in &frames {
            f.encode_into(&mut expect);
        }
        prop_assert_eq!(record_trace(&interner, &events), expect);
    }

    /// A record keeps all of a thread-0 event but its timestamp: any such
    /// events, chunked, encoded and read back, are themselves once their
    /// timestamps are 0.
    #[test]
    fn thread_zero_events_round_trip_but_for_their_timestamps(
        events in prop::collection::vec(arb_event(), 0..64)
    ) {
        let mut chunker = FrameChunker::new(7);
        let mut frames: Vec<Frame> = events.iter().filter_map(|ev| chunker.push(*ev)).collect();
        frames.extend(chunker.flush());
        let mut wire = Vec::new();
        frames.iter().for_each(|f| f.encode_into(&mut wire));
        let (read, end) = read_all_ways(&wire, MAX_FRAME_BYTES);
        prop_assert_eq!(end, None);
        let back: Vec<TraceEvent> = read
            .into_iter()
            .flat_map(|f| match f {
                Frame::Chunk { events, .. } => events,
                _ => Vec::new(),
            })
            .map(|r| r.unpack(0, 0))
            .collect();
        prop_assert_eq!(back, events.iter().map(unstamped).collect::<Vec<_>>());
    }

    /// Whatever `Chunk` payload a reader accepts re-encodes to the same
    /// bytes, so no two payloads read as one chunk. Tags run past 7 and
    /// each body word is whole, its low half or 0, so most chunks hold
    /// records both kinds of reader decision meet.
    #[test]
    fn an_accepted_chunk_re_encodes_byte_for_byte(
        (base, records) in (
            any::<u64>(),
            prop::collection::vec((0u8..10, (any::<u64>(), 0u8..3), (any::<u64>(), 0u8..3)), 0..6),
        )
    ) {
        let word = |(w, keep): (u64, u8)| [w, w & u64::from(u32::MAX), 0][keep as usize];
        let mut payload = base.to_le_bytes().to_vec();
        payload.extend((records.len() as u32).to_le_bytes());
        payload.extend(records.iter().map(|r| r.0));
        for &(_, w0, w1) in &records {
            payload.extend(word(w0).to_le_bytes());
            payload.extend(word(w1).to_le_bytes());
        }
        let decoded = Frame::decode(TAG_CHUNK, &payload);
        prop_assert_eq!(decoded.is_ok(), ChunkView::parse(&payload).is_ok());
        if let Ok(chunk) = decoded {
            let mut wire = Vec::new();
            chunk.encode_into(&mut wire);
            prop_assert_eq!(&wire[5..wire.len() - 1], &payload[..]);
        }
    }

    /// A stream cut anywhere strictly inside a frame is a typed error;
    /// cut before the frame starts it is a clean end-of-stream.
    #[test]
    fn truncated_frames_are_typed((f, raw) in (arb_frame(), any::<u64>())) {
        let buf = encode_frame(&f);
        let cut = (raw as usize) % buf.len();
        let (frames, end) = read_all_ways(&buf[..cut], MAX_FRAME_BYTES);
        prop_assert!(frames.is_empty(), "cut at {cut}/{} yielded {frames:?}", buf.len());
        if cut == 0 {
            prop_assert!(end.is_none(), "empty stream is a clean EOF: {end:?}");
        } else {
            prop_assert!(end.is_some(), "cut at {cut}/{} must be a typed error", buf.len());
        }
    }

    /// A single bit flip anywhere outside the (unchecksummed) length
    /// prefix is always caught — checksum mismatch, undefined event tag,
    /// or a payload that no longer decodes. Flips inside the length prefix
    /// must still parse without panicking (typed error or, in the
    /// astronomically rare folding coincidence, a different frame) —
    /// the readers running to completion, in agreement, is the property.
    #[test]
    fn bit_flips_are_caught_or_typed((f, raw, bit) in (arb_frame(), any::<u64>(), 0u8..8)) {
        let mut buf = encode_frame(&f);
        let pos = (raw as usize) % buf.len();
        buf[pos] ^= 1 << bit;
        let (frames, end) = read_all_ways(&buf, MAX_FRAME_BYTES);
        if !len_field_positions(&buf, 0).contains(&pos) {
            prop_assert!(
                frames.is_empty() && end.is_some(),
                "flip at byte {pos} bit {bit} went undetected: {frames:?}"
            );
        }
    }

    /// An adversarial length prefix is rejected *before* any buffer of
    /// that size is allocated — the read-side memory bound.
    #[test]
    fn oversized_frames_are_rejected_up_front((tag, len) in (any::<u8>(), 1u64 << 20..u32::MAX as u64)) {
        let mut buf = vec![tag];
        buf.extend_from_slice(&(len as u32).to_le_bytes());
        // No payload follows: if the bound check were missing, the
        // parser would try to read (and first allocate) `len` bytes.
        let max = 64 * 1024;
        let want = ProtocolError::Wire(depprof::types::WireError::TooLarge(len as usize, max));
        prop_assert_eq!(read_all_ways(&buf, max), (vec![], Some(format!("{want:?}"))));
    }

    /// Unknown frame tags (the retired 4, and 15+ — v3 tops out at
    /// QueryResult = 14) are a typed protocol error, not a desync.
    #[test]
    fn unknown_tags_are_typed((tag, payload) in (14u8..=255, prop::collection::vec(any::<u8>(), 0..64))) {
        let tag = if tag == 14 { 4 } else { tag };
        let mut w = depprof::types::ByteWriter::new();
        depprof::types::write_section(&mut w, tag, &payload);
        let buf = w.into_bytes();
        let want = ProtocolError::UnknownFrame { tag };
        prop_assert_eq!(read_all_ways(&buf, MAX_FRAME_BYTES), (vec![], Some(format!("{want:?}"))));
    }

    /// A stream of frames reads the same however it is delivered, and a
    /// stream damaged anywhere — cut short, or one bit flipped — yields
    /// the same good frames and then the same typed error from both
    /// readers (`read_all_ways` holds them to each other).
    #[test]
    fn frame_streams_read_the_same_however_delivered(
        (frames, raw, bit) in (prop::collection::vec(arb_frame(), 1..8), any::<u64>(), 0u8..8)
    ) {
        let mut buf = Vec::new();
        for f in &frames {
            f.encode_into(&mut buf);
        }
        prop_assert_eq!(read_all_ways(&buf, MAX_FRAME_BYTES), (frames.clone(), None));

        let cut = (raw as usize) % buf.len();
        let (got, end) = read_all_ways(&buf[..cut], MAX_FRAME_BYTES);
        prop_assert!(frames.starts_with(&got), "a cut stream yields a prefix");
        let on_boundary = got.iter().map(|f| encode_frame(f).len()).sum::<usize>() == cut;
        prop_assert_eq!(end.is_none(), on_boundary, "cut at {}: {:?}", cut, end);

        buf[cut] ^= 1 << bit;
        read_all_ways(&buf, MAX_FRAME_BYTES);
    }
}

// ---------------------------------------------------------------------
// DPCK containers — same section codec, same corruption model
// ---------------------------------------------------------------------

/// Magic (4) + version (1) precede the first section in a container.
const DPCK_HEADER: usize = 5;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn checkpoints_roundtrip(d in arb_checkpoint()) {
        let back = CheckpointData::decode(&d.encode()).expect("well-formed container decodes");
        prop_assert_eq!(back, d);
    }

    /// A container cut anywhere strictly inside is a typed error (a
    /// torn checkpoint write must never be mistaken for a short one).
    #[test]
    fn truncated_checkpoints_are_typed((d, raw) in (arb_checkpoint(), any::<u64>())) {
        let buf = d.encode();
        let cut = (raw as usize) % buf.len();
        prop_assert!(CheckpointData::decode(&buf[..cut]).is_err(), "cut at {cut}");
    }

    /// Bit flips outside the length prefixes are always detected
    /// (magic, version and the META/worker-count cross-checks catch
    /// what the per-section checksums do not); length-prefix flips must
    /// decode without panicking.
    #[test]
    fn checkpoint_bit_flips_are_caught_or_typed((d, raw, bit) in (arb_checkpoint(), any::<u64>(), 0u8..8)) {
        let mut buf = d.encode();
        let pos = (raw as usize) % buf.len();
        buf[pos] ^= 1 << bit;
        let r = CheckpointData::decode(&buf);
        if !len_field_positions(&buf, DPCK_HEADER).contains(&pos) {
            match r {
                Err(_) => {}
                Ok(decoded) => prop_assert!(
                    false,
                    "flip at byte {pos} bit {bit} went undetected: {decoded:?}"
                ),
            }
        }
    }
}

// ---------------------------------------------------------------------
// The chaos wrapper splits a stream where the reader does
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `ChaosStream` finds frame boundaries by itself, to land its faults
    /// on them. Under a plan of short writes only, fed in writes of random
    /// sizes, it counts exactly the frames a `FrameReader` reads from what
    /// it passed on — a `Chunk` larger than the reader's 64 KiB buffer
    /// among them — and passes every one on intact.
    #[test]
    fn the_chaos_wrapper_counts_the_frames_the_reader_reads(
        (mut frames, at, seed, sizes) in (
            prop::collection::vec(arb_frame(), 0..8),
            any::<usize>(),
            any::<u64>(),
            prop::collection::vec(1usize..20_000, 1..16),
        )
    ) {
        let big = (0..4_000).map(|i| TraceEvent::Access(MemAccess::read(8 * i, 0, loc(1, 1), 0, 0)));
        let big = Frame::Chunk { base: 7, events: packed(&big.collect::<Vec<_>>()) };
        frames.insert(at % (frames.len() + 1), big);
        let mut wire = Vec::new();
        protocol::write_preamble(&mut wire).unwrap();
        frames.iter().for_each(|f| f.encode_into(&mut wire));

        let plan = NetFaultPlan::new().with_short_io().with_seed(seed);
        let mut chaos = ChaosStream::new(io::Cursor::new(Vec::new()), plan);
        let (mut written, mut sizes) = (0, sizes.iter().cycle());
        while written < wire.len() {
            let end = wire.len().min(written + sizes.next().unwrap());
            chaos.write_all(&wire[written..end]).unwrap();
            written = end;
        }
        let counted = chaos.frames_written();
        let passed = chaos.into_inner().into_inner();
        prop_assert_eq!(&passed, &wire);
        let mut src = &passed[..];
        protocol::read_preamble(&mut src).unwrap();
        let (got, end) = read_ahead(&mut src, MAX_FRAME_BYTES);
        prop_assert_eq!(end, None);
        prop_assert_eq!(counted, got.len() as u64);
        prop_assert_eq!(got, frames);
    }
}
