//! Kill-at-any-frame: the retry/resume client must deliver a profile
//! byte-identical to an uninterrupted push no matter where in the DPSV
//! stream the connection dies.
//!
//! The sweep first measures a clean push to learn the exact number of
//! frames the client writes, then replays the same push once per frame
//! boundary with a seeded [`ChaosStream`] that resets the connection at
//! that boundary. `push_with_retry` reconnects, resumes from the
//! server's `HelloAck` watermark, and the final report must equal the
//! clean run's — at-least-once delivery, exactly-once profiling.
//!
//! A proptest leg extends the sweep to byte-offset resets combined with
//! duplicate delivery and short reads/writes.

use depprof::core::SessionSpec;
use depprof::server::{push_with_retry, PushOptions, RetryPolicy, Server, ServerConfig};
use depprof::trace::workloads::synth;
use depprof::trace::{FrameChunker, Interp, TraceReader, TraceWriter};
use depprof::types::{protocol::Frame, TraceEvent};
use dp_bench::chaos::{ChaosStream, NetFaultPlan};
use proptest::prelude::*;
use std::cell::Cell;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Events per `Chunk` in every push below. Loop events ride in line with
/// the accesses, so only small chunks make the 182-event stream cross
/// over 100 frame boundaries (116: 91 chunks, 22 `Sync`s, `Hello`,
/// `StatsRequest` and `Finish`).
const CHUNK_EVENTS: usize = 2;

/// Records the synthetic workload both the clean and the interrupted
/// pushes stream: small enough that a per-frame sweep stays fast, big
/// enough to span many frames and several Sync probes.
fn record() -> (Vec<TraceEvent>, Vec<String>) {
    let w = synth::uniform(64, 120);
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
    (events, names)
}

/// A pass-through [`ChaosStream`] that publishes its written-frame count
/// on drop, so the sweep knows how many boundaries a clean push crosses.
struct FrameCounter {
    inner: ChaosStream<TcpStream>,
    total: Arc<AtomicU64>,
}

impl Read for FrameCounter {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.inner.read(buf)
    }
}

impl Write for FrameCounter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.inner.write(buf)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl Drop for FrameCounter {
    fn drop(&mut self) {
        self.total.store(self.inner.frames_written(), Ordering::SeqCst);
    }
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dp-chaos-push-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn start_server(
    ckpt: PathBuf,
    stop: &'static AtomicBool,
) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let server = Server::bind_tcp(
        "127.0.0.1:0",
        ServerConfig {
            max_sessions: 8,
            checkpoint_dir: Some(ckpt),
            checkpoint_every: 256,
            // The accept loop takes each of the sweep's constant
            // reconnects as it arrives; the 1 ms tick only makes the
            // server's stop prompt.
            poll_interval_ms: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind chaos test server");
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run(stop).unwrap());
    (addr, handle)
}

fn opts(session: &str, spec: &SessionSpec) -> PushOptions {
    PushOptions {
        session: session.to_string(),
        spec: *spec,
        chunk_events: CHUNK_EVENTS,
        sync_every_chunks: 4,
        request_stats: true,
        ..PushOptions::default()
    }
}

fn policy() -> RetryPolicy {
    // Tight backoff: the sweep injects exactly one fault per run, so the
    // budget is about latency, not survival under sustained loss. The
    // attempt headroom absorbs Busy waits while the server finishes the
    // dead connection's emergency checkpoint.
    RetryPolicy { max_attempts: 50, base_delay_ms: 1, max_delay_ms: 8, seed: 7 }
}

/// Kills the connection at every frame boundary `0..total` and asserts
/// every resumed run reproduces the clean report byte for byte.
fn kill_at_every_frame(tag: &str, spec: &SessionSpec, stop: &'static AtomicBool) {
    let (events, names) = record();
    // Some cut lands between a loop event and an access of one frame.
    let mut chunker = FrameChunker::new(CHUNK_EVENTS);
    let mixed = events.iter().filter_map(|ev| chunker.push(*ev)).any(|f| match f {
        Frame::Chunk { events, .. } => {
            events.iter().any(|e| e.as_access().is_some())
                && events.iter().any(|e| e.as_access().is_none())
        }
        _ => false,
    });
    assert!(mixed, "no frame mixes accesses with loop events");
    let dir = tmpdir(tag);
    let (addr, server) = start_server(dir.clone(), stop);

    // Clean run: the oracle report, plus the frame count of the stream.
    let total_frames = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&total_frames);
    let clean = push_with_retry(
        || {
            let c = TcpStream::connect(addr)?;
            c.set_nodelay(true).ok();
            Ok(FrameCounter {
                inner: ChaosStream::new(c, NetFaultPlan::new()),
                total: Arc::clone(&counter),
            })
        },
        &names,
        &events,
        &opts(&format!("{tag}-clean"), spec),
        &policy(),
    )
    .expect("clean push");
    assert_eq!(clean.reconnects, 0, "clean run must not retry");
    let total = total_frames.load(Ordering::SeqCst);
    assert!(total > 20, "workload too small to be a meaningful sweep: {total} frames");
    assert!(total >= 100, "{total} frame boundaries: fewer than the sweep is sized for");

    let mut resumed_runs = 0u64;
    for cut in 0..total {
        let attempts = Cell::new(0u32);
        let r = push_with_retry(
            || {
                let c = TcpStream::connect(addr)?;
                c.set_nodelay(true).ok();
                let n = attempts.get();
                attempts.set(n + 1);
                // First connection dies at the cut; retries run clean.
                let plan = if n == 0 {
                    NetFaultPlan::new().with_seed(cut | 1).with_reset_at_frames(cut)
                } else {
                    NetFaultPlan::new()
                };
                Ok(ChaosStream::new(c, plan))
            },
            &names,
            &events,
            &opts(&format!("{tag}-cut{cut}"), spec),
            &policy(),
        )
        .unwrap_or_else(|e| panic!("push killed at frame {cut} did not recover: {e}"));
        assert_eq!(
            r.outcome.report, clean.outcome.report,
            "report diverged after a reset at frame {cut}"
        );
        // Exactly one genuine fault; any extra attempts must be typed
        // Busy waits (the reconnect beating the old thread's teardown).
        assert_eq!(
            r.reconnects,
            1 + r.busy_waits,
            "one injected fault at frame {cut} (+{} busy waits)",
            r.busy_waits
        );
        if r.outcome.resumed_from > 0 {
            resumed_runs += 1;
            // The server's per-session snapshot must account the retry.
            let stats = r.outcome.stats_json.as_deref().unwrap_or("");
            assert!(
                stats.contains("\"reconnects\": 1"),
                "cut {cut}: session stats missing the reconnect:\n{stats}"
            );
        }
    }
    // Late cuts land after a checkpointed watermark, so a healthy sweep
    // must exercise genuine mid-stream resumes, not just fresh restarts.
    assert!(resumed_runs > 0, "no cut produced a non-zero resume watermark");

    stop.store(true, Ordering::SeqCst);
    // Nudge the accept loop so it observes the stop flag.
    let _ = TcpStream::connect(addr);
    server.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Watch mode across a chaos reconnect: a server that is not keeping
/// the session durable (no checkpoint dir) hands the retry a fresh
/// session, and the client must surface that as a counted warning
/// (`watch_resets`) instead of silently restarting the live counters.
/// A durable server recovering via its emergency checkpoint must not
/// trip the warning, and neither must a watch-less push.
#[test]
fn watch_reset_warns_on_non_durable_session() {
    static STOP: AtomicBool = AtomicBool::new(false);
    let (events, names) = record();
    let spec = SessionSpec { slots: 1 << 14, ..SessionSpec::default() };
    let watch_opts = |session: &str| PushOptions {
        // Query after every chunk so the watch path is active on both
        // sides of the cut.
        watch_ms: Some(0),
        ..opts(session, &spec)
    };
    // One reset mid-stream, well after the first chunks have landed.
    let cut_connect = |addr: SocketAddr, attempts: &Cell<u32>| {
        let c = TcpStream::connect(addr)?;
        c.set_nodelay(true).ok();
        let n = attempts.get();
        attempts.set(n + 1);
        let plan = if n == 0 {
            NetFaultPlan::new().with_seed(11).with_reset_at_frames(25)
        } else {
            NetFaultPlan::new()
        };
        Ok(ChaosStream::new(c, plan))
    };

    // Non-durable server: reconnect lands in a fresh session => warn.
    let dir = tmpdir("watch-volatile");
    let server = Server::bind_tcp(
        "127.0.0.1:0",
        ServerConfig { max_sessions: 8, poll_interval_ms: 1, ..ServerConfig::default() },
    )
    .expect("bind volatile server");
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run(&STOP).unwrap());

    let attempts = Cell::new(0u32);
    let r = push_with_retry(
        || cut_connect(addr, &attempts),
        &names,
        &events,
        &watch_opts("watch-volatile"),
        &policy(),
    )
    .expect("watched push recovers on the volatile server");
    assert!(r.reconnects >= 1, "the injected reset must force a retry");
    assert_eq!(r.outcome.resumed_from, 0, "volatile server cannot resume");
    assert_eq!(r.watch_resets, 1, "fresh-session reconnect must be counted as a watch reset");
    assert!(r.outcome.queries >= 1, "watch mode must issue live queries");
    let json = r.outcome.last_query_json.as_deref().expect("final watch snapshot");
    assert!(
        json.contains(&format!("\"position\":{}", events.len())),
        "final snapshot must cover the whole stream:\n{json}"
    );

    // Same cut without --watch: no watch state, no warning.
    let attempts = Cell::new(0u32);
    let quiet = push_with_retry(
        || cut_connect(addr, &attempts),
        &names,
        &events,
        &opts("watch-off", &spec),
        &policy(),
    )
    .expect("watch-less push recovers");
    assert!(quiet.reconnects >= 1);
    assert_eq!(quiet.watch_resets, 0, "watch_resets must stay 0 without --watch");
    assert!(quiet.outcome.last_query_json.is_none());
    stop_server(&STOP, addr, handle);

    // Durable server: the emergency checkpoint preserves the session,
    // so the same watched cut resumes mid-stream without a reset.
    let (addr, handle) = start_server(dir.clone(), &STOP);
    let attempts = Cell::new(0u32);
    let r = push_with_retry(
        || cut_connect(addr, &attempts),
        &names,
        &events,
        &watch_opts("watch-durable"),
        &policy(),
    )
    .expect("watched push recovers on the durable server");
    assert!(r.reconnects >= 1);
    assert!(r.outcome.resumed_from > 0, "durable server must resume from its checkpoint");
    assert_eq!(r.watch_resets, 0, "a checkpointed resume is not a watch reset");
    stop_server(&STOP, addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_at_every_frame_serial() {
    static STOP: AtomicBool = AtomicBool::new(false);
    let spec = SessionSpec { slots: 1 << 14, ..SessionSpec::default() };
    kill_at_every_frame("serial", &spec, &STOP);
}

#[test]
fn kill_at_every_frame_parallel() {
    static STOP: AtomicBool = AtomicBool::new(false);
    let spec = SessionSpec { parallel: true, workers: 2, slots: 1 << 14, ..SessionSpec::default() };
    kill_at_every_frame("parallel", &spec, &STOP);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12 })]

    /// Byte-offset resets (which can split a frame mid-header) combined
    /// with duplicate delivery and short I/O still converge on the clean
    /// report: the positional protocol dedupes every replay.
    #[test]
    fn random_byte_cuts_with_duplication_converge(
        cut_bytes in 6u64..40_000,
        dup_every in 0u64..6,
        short in any::<bool>(),
        seed in 1u64..u64::MAX,
    ) {
        static STOP: AtomicBool = AtomicBool::new(false);
        let (events, names) = record();
        let dir = tmpdir(&format!("prop-{cut_bytes}-{seed}"));
        let (addr, server) = start_server(dir.clone(), &STOP);

        let spec = SessionSpec { slots: 1 << 14, ..SessionSpec::default() };
        let clean = push_with_retry(
            || {
                let c = TcpStream::connect(addr)?;
                c.set_nodelay(true).ok();
                Ok(c)
            },
            &names,
            &events,
            &opts("prop-clean", &spec),
            &policy(),
        ).expect("clean push");

        let attempts = Cell::new(0u32);
        let r = push_with_retry(
            || {
                let c = TcpStream::connect(addr)?;
                c.set_nodelay(true).ok();
                let n = attempts.get();
                attempts.set(n + 1);
                let mut plan = NetFaultPlan::new().with_seed(seed);
                if dup_every >= 2 {
                    plan = plan.with_dup_every(dup_every);
                }
                if short {
                    plan = plan.with_short_io();
                }
                // Only the first connection is cut; duplication and
                // short I/O stay on for every retry.
                if n == 0 {
                    plan = plan.with_reset_at_bytes(cut_bytes);
                }
                Ok(ChaosStream::new(c, plan))
            },
            &names,
            &events,
            &opts(&format!("prop-{cut_bytes}-{seed}"), &spec),
            &policy(),
        ).expect("faulted push recovers");
        prop_assert_eq!(&r.outcome.report, &clean.outcome.report);

        stop_server(&STOP, addr, server);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

fn stop_server(stop: &'static AtomicBool, addr: SocketAddr, server: std::thread::JoinHandle<()>) {
    stop.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect(addr);
    server.join().unwrap();
    stop.store(false, Ordering::SeqCst);
}
