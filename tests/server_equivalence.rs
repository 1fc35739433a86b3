//! The service layer must not change a single dependence: a trace
//! streamed to `dp-server` over the DPSV protocol produces the same
//! profile as `depprof replay` on the same trace.
//!
//! Two layers of proof:
//!
//! 1. **In-process, every workload** — the socket-free [`SessionEngine`]
//!    is driven frame-by-frame (exactly what a connection handler does)
//!    and its [`ProfileResult`] is compared dependence-for-dependence
//!    against an offline [`ProfileSession`] replay of the same events.
//! 2. **Over a real socket, concurrently** — a loopback TCP server runs
//!    multiple sessions at once and every client's *report bytes* must
//!    equal the offline render, proving session isolation end to end.

use depprof::core::{report, ProfileResult, SessionSpec};
use depprof::server::{push_events, PushOptions, Server, ServerConfig, SessionEngine};
use depprof::trace::workloads::{nas_suite, starbench_suite, synth, Scale, Workload};

use depprof::trace::{FrameChunker, Interp, TraceReader, TraceWriter};
use depprof::types::protocol::{Frame, Hello};
use depprof::types::{Interner, TraceEvent};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};

type DepMap = BTreeMap<String, u64>;

fn dep_map(r: &ProfileResult) -> DepMap {
    r.deps
        .dependences()
        .map(|(d, v)| {
            (
                format!(
                    "{:?} {}|{} <- {}|{} var{}",
                    d.edge.dtype,
                    d.sink.loc,
                    d.sink.thread,
                    d.edge.source_loc,
                    d.edge.source_thread,
                    d.edge.var
                ),
                v.count,
            )
        })
        .collect()
}

/// Records a sequential workload into an in-memory trace and hands back
/// its events, interner and name table in id order — the exact inputs
/// both the offline replay and the network push start from.
fn record(w: &Workload) -> (Vec<TraceEvent>, Interner, Vec<String>) {
    let mut wtr = TraceWriter::with_names(Vec::new(), &w.program.interner).unwrap();
    Interp::new(&w.program).run_seq(&mut wtr);
    let bytes = wtr.finish().unwrap();
    let mut reader = TraceReader::new(bytes.as_slice()).unwrap();
    let interner = reader.interner().clone();
    let mut events = Vec::new();
    for rec in reader.by_ref() {
        events.push(rec.unwrap());
    }
    let names = (0..interner.len()).map(|id| interner.resolve(id as u32).to_owned()).collect();
    (events, interner, names)
}

fn offline(spec: &SessionSpec, events: &[TraceEvent]) -> ProfileResult {
    let mut session = spec.build();
    for ev in events {
        session.on_event(*ev);
    }
    session.finish()
}

/// Drives the socket-free engine exactly like a connection handler:
/// Hello, chunked event frames, then `finish_result` in place of the
/// Finish/Report exchange.
fn served(spec: &SessionSpec, events: &[TraceEvent], names: Vec<String>) -> ProfileResult {
    let hello = Hello { session: "equiv".into(), spec: spec.encode(), checkpoint_every: 0, names };
    let (mut engine, ack) = SessionEngine::open(&hello, 1, None, 0).unwrap();
    assert!(matches!(ack, Frame::HelloAck { resume_from: 0, .. }));
    let mut chunker = FrameChunker::new(64);
    for ev in events {
        if let Some(frame) = chunker.push(*ev) {
            engine.handle(frame).unwrap();
        }
    }
    if let Some(frame) = chunker.flush() {
        engine.handle(frame).unwrap();
    }
    engine.finish_result().expect("engine still live before Finish")
}

fn sequential_workloads() -> Vec<Workload> {
    let mut all = nas_suite(Scale(0.08));
    all.extend(starbench_suite(Scale(0.08)));
    all.push(synth::uniform(64, 4_000));
    all.retain(|w| !w.meta.parallel);
    all
}

/// Every sequential workload, serial engine: the served profile is the
/// offline profile, dependence for dependence.
#[test]
fn served_equals_offline_serial_all_workloads() {
    for w in sequential_workloads() {
        let (events, _, names) = record(&w);
        let spec = SessionSpec { slots: 1 << 16, ..SessionSpec::default() };
        let off = offline(&spec, &events);
        let srv = served(&spec, &events, names);
        assert_eq!(dep_map(&srv), dep_map(&off), "workload {}", w.meta.name);
        assert_eq!(srv.stats.accesses, off.stats.accesses, "workload {}", w.meta.name);
    }
}

/// Same equivalence through the parallel pipeline spec — the engine the
/// server builds from the Hello is the one replay would build.
#[test]
fn served_equals_offline_parallel() {
    for w in sequential_workloads().into_iter().take(3) {
        let (events, _, names) = record(&w);
        let spec =
            SessionSpec { parallel: true, workers: 3, slots: 3 << 14, ..SessionSpec::default() };
        let off = offline(&spec, &events);
        let srv = served(&spec, &events, names);
        assert_eq!(dep_map(&srv), dep_map(&off), "workload {}", w.meta.name);
    }
}

/// Loopback TCP, concurrent sessions: N clients push different
/// workloads at the same time; every returned report must be byte-
/// identical to the offline render of that workload.
#[test]
fn concurrent_tcp_sessions_match_offline_reports() {
    static STOP: AtomicBool = AtomicBool::new(false);

    let server = Server::bind_tcp(
        "127.0.0.1:0",
        ServerConfig { max_sessions: 8, ..ServerConfig::default() },
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run(&STOP).unwrap());

    let workloads: Vec<Workload> = sequential_workloads().into_iter().take(4).collect();
    let mut clients = Vec::new();
    for w in workloads {
        clients.push(std::thread::spawn(move || {
            let (events, interner, names) = record(&w);
            let spec = SessionSpec { slots: 1 << 16, ..SessionSpec::default() };
            let expected = {
                let r = offline(&spec, &events);
                report::render(&r, &interner, false)
            };
            let mut conn = std::net::TcpStream::connect(addr).unwrap();
            let opts = PushOptions {
                session: format!("conc-{}", w.meta.name),
                spec,
                chunk_events: 128,
                request_stats: true,
                ..PushOptions::default()
            };
            let out = push_events(&mut conn, names, events, &opts).unwrap();
            assert_eq!(out.report, expected, "report bytes differ for {}", w.meta.name);
            let stats = out.stats_json.expect("stats were requested");
            assert!(stats.contains("\"events\""), "stats json: {stats}");
        }));
    }
    for c in clients {
        c.join().unwrap();
    }

    STOP.store(true, Ordering::SeqCst);
    handle.join().unwrap();
}

/// The capacity cap is enforced with a typed error, not a hang: with
/// `max_sessions = 0` every client is turned away at Hello time.
#[test]
fn at_capacity_is_a_typed_refusal() {
    static STOP: AtomicBool = AtomicBool::new(false);

    let server = Server::bind_tcp(
        "127.0.0.1:0",
        ServerConfig { max_sessions: 0, ..ServerConfig::default() },
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run(&STOP).unwrap());

    let all = sequential_workloads();
    let (events, _, names) = record(&all[0]);
    let mut conn = std::net::TcpStream::connect(addr).unwrap();
    let err = push_events(&mut conn, names, events, &PushOptions::default()).unwrap_err();
    match err {
        depprof::server::ClientError::Busy { retry_after_ms } => {
            assert!(retry_after_ms > 0, "Busy must carry a concrete retry hint");
        }
        other => panic!("wanted Busy{{retry_after_ms}}, got {other:?}"),
    }

    STOP.store(true, Ordering::SeqCst);
    handle.join().unwrap();
}

/// A small stream with a loop event in the middle, its name table, and
/// the report an offline serial session renders for it.
fn two_chunk_stream(spec: &SessionSpec) -> (Vec<TraceEvent>, Vec<String>, String) {
    use depprof::types::{loc::loc, MemAccess};
    let access = |i: u64| {
        let addr = 0x100 + (i % 7) * 8;
        TraceEvent::Access(if i.is_multiple_of(3) {
            MemAccess::write(addr, i + 1, loc(1, 4), 1, 0)
        } else {
            MemAccess::read(addr, i + 1, loc(1, 5), 1, 0)
        })
    };
    let mut events: Vec<TraceEvent> = (0..40).map(access).collect();
    events.push(TraceEvent::LoopBegin { loop_id: 1, loc: loc(1, 3), thread: 0, ts: 41 });
    events.extend((41..80).map(access));
    let names = vec!["*".to_string(), "x".to_string()];
    let mut interner = Interner::new();
    for n in &names {
        interner.intern(n);
    }
    let expected = report::render(&offline(spec, &events), &interner, false);
    (events, names, expected)
}

/// The server reads ahead but acts frame by frame: a whole session
/// arriving in one write — preamble, `Hello`, a `Chunk` ending in a loop
/// event, `Sync`, `Chunk`, `Finish` in one TCP segment — is handled
/// completely, the replies come back in order, and the report is the
/// offline one byte for byte.
#[test]
fn one_segment_holding_a_whole_session_is_handled_in_order() {
    use depprof::types::protocol::{self, MAX_FRAME_BYTES};
    use std::io::Write;
    static STOP: AtomicBool = AtomicBool::new(false);

    let server = Server::bind_tcp("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run(&STOP).unwrap());

    let spec = SessionSpec { slots: 1 << 12, ..SessionSpec::default() };
    let (events, names, expected) = two_chunk_stream(&spec);
    let mut segment = Vec::new();
    protocol::write_preamble(&mut segment).unwrap();
    let hello =
        Hello { session: "one-seg".into(), spec: spec.encode(), checkpoint_every: 0, names };
    let mut chunker = FrameChunker::new(512);
    let mut frames = vec![Frame::Hello(hello)];
    for ev in &events[..41] {
        frames.extend(chunker.push(*ev));
    }
    frames.extend(chunker.flush());
    frames.push(Frame::Sync { nonce: 77 });
    for ev in &events[41..] {
        frames.extend(chunker.push(*ev));
    }
    frames.extend(chunker.flush());
    frames.push(Frame::Finish);
    let kinds: Vec<u8> = frames.iter().map(Frame::tag).collect();
    assert_eq!(kinds, [1, 3, 5, 3, 6], "Hello Chunk Sync Chunk Finish");
    for f in &frames {
        f.encode_into(&mut segment);
    }

    let mut conn = std::net::TcpStream::connect(addr).unwrap();
    conn.set_nodelay(true).unwrap();
    conn.write_all(&segment).unwrap();
    protocol::read_preamble(&mut conn).unwrap();
    let reply = || protocol::read_frame(&mut &conn, MAX_FRAME_BYTES).unwrap();
    assert!(matches!(reply(), Some(Frame::HelloAck { resume_from: 0, .. })));
    assert_eq!(reply(), Some(Frame::SyncAck { nonce: 77, position: 41 }));
    assert_eq!(reply(), Some(Frame::Report { text: expected }));
    assert_eq!(reply(), None, "the server closes after the report");

    STOP.store(true, Ordering::SeqCst);
    handle.join().unwrap();
}

/// A client that sends half a frame and goes silent must not pin its
/// connection thread: on shutdown the session is checkpointed at the
/// last whole frame, the partial one is dropped, and `Server::run`
/// returns.
#[test]
fn client_stalled_mid_frame_does_not_hang_shutdown() {
    use depprof::core::CheckpointStore;
    use depprof::types::protocol::{self, MAX_FRAME_BYTES};
    use std::io::Write;
    use std::time::Duration;
    static STOP: AtomicBool = AtomicBool::new(false);

    let dir = std::env::temp_dir().join(format!("dpsv-stall-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServerConfig {
        checkpoint_dir: Some(dir.clone()),
        poll_interval_ms: 5,
        ..ServerConfig::default()
    };
    let server = Server::bind_tcp("127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr().unwrap();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        server.run(&STOP).unwrap();
        let _ = done_tx.send(());
    });

    let spec = SessionSpec { slots: 1 << 12, ..SessionSpec::default() };
    let (events, names, _) = two_chunk_stream(&spec);
    // The second chunk opens with the loop event.
    let mut chunker = FrameChunker::new(40);
    let mut frames: Vec<Frame> = events.iter().flat_map(|ev| chunker.push(*ev)).collect();
    frames.extend(chunker.flush());
    let [first, second, ..] = &frames[..] else { panic!("at least two chunks") };
    let Frame::Chunk { events, .. } = first else { panic!("stream starts with a chunk") };
    let first_len = events.len() as u64;

    let mut conn = std::net::TcpStream::connect(addr).unwrap();
    conn.set_nodelay(true).unwrap();
    let mut out = Vec::new();
    protocol::write_preamble(&mut out).unwrap();
    // An interval longer than the stream: durable, but every checkpoint
    // written is an emergency one.
    let hello =
        Hello { session: "stall".into(), spec: spec.encode(), checkpoint_every: 1000, names };
    Frame::Hello(hello).encode_into(&mut out);
    first.encode_into(&mut out);
    // The Sync's ack proves the chunk was consumed before anything below.
    Frame::Sync { nonce: 1 }.encode_into(&mut out);
    conn.write_all(&out).unwrap();
    protocol::read_preamble(&mut conn).unwrap();
    let reply = || protocol::read_frame(&mut &conn, MAX_FRAME_BYTES).unwrap();
    assert!(matches!(reply(), Some(Frame::HelloAck { .. })));
    assert_eq!(reply(), Some(Frame::SyncAck { nonce: 1, position: first_len }));

    // Seven bytes of the next frame — its header and two of payload —
    // then silence.
    let mut next = Vec::new();
    second.encode_into(&mut next);
    (&conn).write_all(&next[..7]).unwrap();
    // Not needed to pass: it lets the server take the bytes in, the state
    // in which a handler that finishes frames with blocking reads hangs.
    std::thread::sleep(Duration::from_millis(50));

    STOP.store(true, Ordering::SeqCst);
    done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("Server::run must return while a client sits mid-frame");
    handle.join().unwrap();
    assert!(matches!(
        reply(),
        Some(Frame::Error { code: depprof::types::protocol::error_code::SHUTDOWN, .. })
    ));

    let checkpoint = CheckpointStore::open(dir.join("stall")).load_latest().unwrap();
    assert_eq!(checkpoint.records_read, first_len, "checkpointed at the last whole frame");
    let _ = std::fs::remove_dir_all(&dir);
}
