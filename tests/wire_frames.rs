//! Robustness property tests for the two on-the-wire framings that
//! share `wire::{write_section, read_section}`: the DPSV network frame
//! protocol and the DPCK checkpoint container — and the pin on the trace
//! file, which is a DPSV session on disk.
//!
//! The contract under test: **malformed bytes produce typed errors,
//! never a panic, a hang, or an unbounded allocation.** Truncations,
//! bit flips, oversized length prefixes and unknown tags are each
//! driven through both parsers. One suite covers both framings because
//! the framing (and thus the corruption model) is literally the same
//! code path.

use depprof::core::checkpoint::CheckpointData;
use depprof::trace::stream::DEFAULT_CHUNK_EVENTS;
use depprof::trace::{FrameChunker, TraceReader, TraceWriter};
use depprof::types::protocol::{self, Frame, FrameReader, Hello, ProtocolError, MAX_FRAME_BYTES};
use depprof::types::{loc::loc, AccessKind, Interner, MemAccess, TraceEvent, Tracer};
use proptest::prelude::*;
use std::io::{self, Read};

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

fn arb_access() -> impl Strategy<Value = MemAccess> {
    ((any::<bool>(), 0u64..1 << 20, 0u64..1 << 16), (1u32..200, 0u32..64, 0u16..8)).prop_map(
        |((w, addr, ts), (line, var, thread))| MemAccess {
            addr: 0x1000 + addr,
            ts,
            loc: loc(1, line),
            var,
            thread,
            kind: if w { AccessKind::Write } else { AccessKind::Read },
        },
    )
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
            Frame::Chunk { base, events: accesses.into_iter().map(TraceEvent::Access).collect() }
        }),
        (0u64..1 << 40, prop::collection::vec(arb_event(), 0..32))
            .prop_map(|(base, events)| Frame::Chunk { base, events }),
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

/// `write_frame`'s output for one frame of every kind, recorded at the
/// commit before `encode_into` existed: the wire format is pinned, not
/// merely self-consistent.
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
                events: vec![
                    TraceEvent::Access(MemAccess::write(0xdead_beef, 3, loc(2, 60), 7, 1)),
                    TraceEvent::Access(MemAccess::read(0xdead_beef, 4, loc(2, 61), 7, 2)),
                ],
            },
            "034200000040420f00000000000200000001efbeadde0000000003000000000000003c00000207000000010000efbeadde0000000004000000000000003d00000207000000020008",
        ),
        (Frame::Chunk { base: 5, events: vec![] }, "030c00000005000000000000000000000006"),
        // One-event chunks: each body is the one the retired tag-4 frame
        // carried after its position, now behind a count of 1.
        (
            Frame::Chunk {
                base: 11,
                events: vec![TraceEvent::LoopBegin { loop_id: 3, loc: loc(1, 10), thread: 0, ts: 1 }],
            },
            "031f0000000b000000000000000100000002030000000a0000010000010000000000000002",
        ),
        (
            Frame::Chunk {
                base: 12,
                events: vec![TraceEvent::LoopIter { loop_id: 3, iter: 9, thread: 0, ts: 2 }],
            },
            "03230000000c0000000000000001000000030300000009000000000000000000020000000000000005",
        ),
        (
            Frame::Chunk {
                base: 13,
                events: vec![TraceEvent::LoopEnd { loop_id: 3, loc: loc(1, 20), iters: 10, thread: 0, ts: 3 }],
            },
            "03270000000d00000000000000010000000403000000140000010a000000000000000000030000000000000014",
        ),
        (
            Frame::Chunk { base: 14, events: vec![TraceEvent::CallBegin { func: 5, thread: 1, ts: 4 }] },
            "031b0000000e000000000000000100000005050000000100040000000000000009",
        ),
        (
            Frame::Chunk { base: 15, events: vec![TraceEvent::CallEnd { func: 5, thread: 1, ts: 5 }] },
            "031b0000000f00000000000000010000000605000000010005000000000000000a",
        ),
        (
            Frame::Chunk {
                base: 16,
                events: vec![TraceEvent::Dealloc { base: 0x100, len: 64, thread: 0, ts: 6 }],
            },
            "032700000010000000000000000100000007000100000000000040000000000000000000060000000000000052",
        ),
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

// ---------------------------------------------------------------------
// A session profiles a sequential target
// ---------------------------------------------------------------------

/// A chunk holding an access off thread 0 is refused whole, decoded or
/// still on the wire, with the stream position of that access; the
/// session keeps what it had and goes on from there.
#[test]
fn a_session_refuses_a_chunk_with_an_access_off_thread_zero() {
    use depprof::core::SessionSpec;
    use depprof::server::{SessionEngine, SessionError};
    let spec = SessionSpec { slots: 1 << 12, ..SessionSpec::default() };
    let hello =
        Hello { session: "seq".into(), spec: spec.encode(), checkpoint_every: 0, names: vec![] };
    let (mut engine, _) = SessionEngine::open(&hello, 1, None, 0).expect("a serial session");
    let write = TraceEvent::Access(MemAccess::write(0x10, 1, loc(1, 1), 1, 0));
    let off_thread = TraceEvent::Access(MemAccess::read(0x10, 2, loc(1, 2), 1, 3));
    let position = |engine: &mut SessionEngine| match engine.handle(Frame::Sync { nonce: 7 }) {
        Ok(reply) => match reply[..] {
            [Frame::SyncAck { position, .. }] => position,
            _ => panic!("{reply:?}"),
        },
        Err(e) => panic!("{e}"),
    };
    engine.handle(Frame::Chunk { base: 0, events: vec![write; 2] }).expect("thread 0 is fed");
    let chunk = Frame::Chunk { base: 1, events: vec![write, write, off_thread, write] };
    let wire = encode_frame(&chunk);
    let refusals = [engine.handle(chunk), engine.handle_wire(wire[0], &wire[5..wire.len() - 1])];
    for refused in refusals {
        match refused {
            Err(e @ SessionError::ForeignThread(3)) => {
                let Frame::Error { message, .. } = e.to_frame() else { unreachable!() };
                assert!(message.contains("event 3"), "{message}");
            }
            other => panic!("{other:?}"),
        }
    }
    assert_eq!(position(&mut engine), 2, "a refused chunk feeds nothing");
    assert_eq!(
        engine.metrics().service.events_skipped_on_resume,
        0,
        "nor counts its overlap as skipped"
    );
    engine
        .handle(Frame::Chunk { base: 1, events: vec![write; 2] })
        .expect("and the stream goes on");
    assert_eq!(position(&mut engine), 3);
    assert_eq!(
        engine.metrics().service.events_skipped_on_resume,
        1,
        "the accepted resend's overlap, once"
    );
}

/// Every event kind off thread 0 is refused, not only an access, by a
/// serial session and a parallel one alike: the pipeline's queued records
/// keep no thread, so the two would disagree on such a stream.
#[test]
fn a_session_refuses_every_event_kind_off_thread_zero() {
    use depprof::core::SessionSpec;
    use depprof::server::{SessionEngine, SessionError};
    let write = TraceEvent::Access(MemAccess::write(0x10, 1, loc(1, 1), 1, 0));
    let foreign = [
        TraceEvent::LoopBegin { loop_id: 1, loc: loc(1, 3), thread: 2, ts: 2 },
        TraceEvent::LoopIter { loop_id: 1, iter: 0, thread: 2, ts: 2 },
        TraceEvent::LoopEnd { loop_id: 1, loc: loc(1, 4), iters: 1, thread: 2, ts: 2 },
        TraceEvent::CallBegin { func: 1, thread: 2, ts: 2 },
        TraceEvent::CallEnd { func: 1, thread: 2, ts: 2 },
        TraceEvent::Dealloc { base: 0x10, len: 1, thread: 2, ts: 2 },
    ];
    for parallel in [false, true] {
        let spec = SessionSpec { parallel, workers: 2, slots: 1 << 12, ..SessionSpec::default() };
        let hello = Hello {
            session: "seq".into(),
            spec: spec.encode(),
            checkpoint_every: 0,
            names: vec![],
        };
        let (mut engine, _) = SessionEngine::open(&hello, 1, None, 0).expect("a session");
        for ev in foreign {
            match engine.handle(Frame::Chunk { base: 0, events: vec![write, ev] }) {
                Err(SessionError::ForeignThread(1)) => {}
                other => panic!("parallel {parallel}, {ev:?}: {other:?}"),
            }
        }
        engine.handle(Frame::Chunk { base: 0, events: vec![write] }).expect("thread 0 is fed");
        let report = engine.handle(Frame::Finish).expect("the session finishes");
        assert!(matches!(report[..], [Frame::Report { .. }]), "{report:?}");
    }
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
/// preamble, the `Hello`, one `Chunk` whose bodies are byte for byte what
/// the DPTR records of the same events carried before their checksum
/// bytes, and the `Finish`.
#[test]
fn trace_file_matches_the_recorded_bytes() {
    let golden = "4450535603\
        01220000000000000000000000000000000000000002000000010000002a05000000616c70686159\
        03c0000000000000000000000008000000\
        00efbeadde0000000004000000000000003d000002010000000200\
        01efbeadde0000000003000000000000003c000002010000000100\
        02030000000a00000100000100000000000000\
        0303000000090000000000000000000200000000000000\
        0403000000140000010a0000000000000000000300000000000000\
        050500000001000400000000000000\
        060500000001000500000000000000\
        070001000000000000400000000000000000000600000000000000\
        56\
        060000000006";
    let bytes: Vec<u8> = (0..golden.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&golden[i..i + 2], 16).expect("hex"))
        .collect();
    let reader = TraceReader::new(&bytes[..]).expect("golden header");
    let names = reader.interner().clone();
    assert_eq!((names.len(), names.resolve(1)), (2, "alpha"));
    let events: Vec<TraceEvent> = reader.map(|ev| ev.expect("golden record")).collect();
    assert_eq!(
        events,
        [
            TraceEvent::Access(MemAccess::read(0xdead_beef, 4, loc(2, 61), 1, 2)),
            TraceEvent::Access(MemAccess::write(0xdead_beef, 3, loc(2, 60), 1, 1)),
            TraceEvent::LoopBegin { loop_id: 3, loc: loc(1, 10), thread: 0, ts: 1 },
            TraceEvent::LoopIter { loop_id: 3, iter: 9, thread: 0, ts: 2 },
            TraceEvent::LoopEnd { loop_id: 3, loc: loc(1, 20), iters: 10, thread: 0, ts: 3 },
            TraceEvent::CallBegin { func: 5, thread: 1, ts: 4 },
            TraceEvent::CallEnd { func: 5, thread: 1, ts: 5 },
            TraceEvent::Dealloc { base: 0x100, len: 64, thread: 0, ts: 6 },
        ]
    );
    assert_eq!(record_trace(&names, &events), bytes);
}

fn arb_event() -> impl Strategy<Value = TraceEvent> {
    let fields = (any::<u32>(), 1u32..1 << 20, any::<u64>(), any::<u16>(), any::<u64>());
    (0u8..7, arb_access(), fields).prop_map(|(kind, a, (id, line, n, thread, ts))| match kind {
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
        let want = ProtocolError::FrameTooLarge { len: len as usize, max };
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
