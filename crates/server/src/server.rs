//! The socket front-end: accept loop, per-connection threads, the
//! global session cap, and shutdown/disconnect handling.

use crate::chaos::{ChaosStream, NetFaultPlan};
use crate::engine::{SessionEngine, SessionError};
use dp_types::protocol::{
    self, error_code, Frame, FrameReader, ProtocolError, MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
use std::collections::{HashMap, HashSet};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Server-wide policy knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Concurrent-session cap; a client past it receives a typed
    /// `Busy{retry_after_ms}` instead of queueing invisibly.
    pub max_sessions: usize,
    /// Base directory for per-session checkpoints (`<dir>/<session>`,
    /// made at the session's first checkpoint). Every session of a
    /// server with one is durable; `None` makes none durable.
    pub checkpoint_dir: Option<PathBuf>,
    /// Default checkpoint interval (events) for sessions whose `Hello`
    /// leaves it at 0. 0 = no periodic checkpoints: a durable session
    /// still writes its emergency checkpoint when its connection ends
    /// unfinished or the server shuts down.
    pub checkpoint_every: u64,
    /// How often blocked reads wake up to observe the shutdown flag.
    pub poll_interval_ms: u64,
    /// The reconnect-delay hint handed to refused clients in `Busy`; also
    /// how long a `Hello` waits for a dying connection to release its
    /// session name before it is refused.
    pub busy_retry_ms: u64,
    /// Hibernate a durable session whose connection has been idle this
    /// long: checkpoint it, evict the engine, free the slot (0 = never).
    /// The client is told with `Error{HIBERNATED}` and a re-`Hello`
    /// rehydrates the session exactly where it stopped.
    pub hibernate_after_ms: u64,
    /// Seeded network-fault injection applied to every accepted
    /// connection (inactive by default; `depprof serve --chaos`).
    pub fault_plan: NetFaultPlan,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_sessions: 16,
            checkpoint_dir: None,
            checkpoint_every: 0,
            poll_interval_ms: 50,
            busy_retry_ms: 200,
            hibernate_after_ms: 0,
            fault_plan: NetFaultPlan::default(),
        }
    }
}

/// A socket stream the connection handler can drive: both `TcpStream`
/// and `UnixStream`, behind read timeouts so the handler can poll the
/// shutdown flag between frames.
pub(crate) trait Conn: Read + Write + Send {
    fn set_read_timeout_ms(&self, ms: Option<u64>) -> io::Result<()>;
}

impl Conn for TcpStream {
    fn set_read_timeout_ms(&self, ms: Option<u64>) -> io::Result<()> {
        self.set_read_timeout(ms.map(Duration::from_millis))
    }
}

#[cfg(unix)]
impl Conn for UnixStream {
    fn set_read_timeout_ms(&self, ms: Option<u64>) -> io::Result<()> {
        self.set_read_timeout(ms.map(Duration::from_millis))
    }
}

impl<S: Conn> Conn for ChaosStream<S> {
    fn set_read_timeout_ms(&self, ms: Option<u64>) -> io::Result<()> {
        self.get_ref().set_read_timeout_ms(ms)
    }
}

/// Why [`wait_for_bytes`] returned.
enum Wait {
    /// The reader holds new bytes.
    Data,
    Eof,
    Shutdown,
    /// The idle deadline passed with no traffic (hibernation trigger).
    Idle,
}

/// Blocks until one `read` brings bytes into `reader`, waking on every
/// read-timeout tick to observe the stop flag and the idle deadline. A
/// partial frame already buffered stays buffered across ticks, so a
/// peer that stalls mid-frame neither tears the frame nor pins the
/// thread: on `Shutdown`/`Idle` the caller drops it with the reader.
fn wait_for_bytes<S: Conn>(
    reader: &mut FrameReader,
    s: &mut S,
    stop: &AtomicBool,
    idle_after: Option<Duration>,
) -> io::Result<Wait> {
    let idle_deadline = idle_after.map(|d| Instant::now() + d);
    loop {
        if stop.load(Ordering::SeqCst) {
            return Ok(Wait::Shutdown);
        }
        if idle_deadline.is_some_and(|d| Instant::now() >= d) {
            return Ok(Wait::Idle);
        }
        match reader.fill(s) {
            Ok(0) => return Ok(Wait::Eof),
            Ok(_) => return Ok(Wait::Data),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(e),
        }
    }
}

/// Runs one parse `step` of the handshake against `reader`, reading
/// more bytes whenever it asks for them. `Ok(None)` means the connection
/// ended (or the server is stopping) first.
fn read_step<T, S: Conn>(
    reader: &mut FrameReader,
    s: &mut S,
    stop: &AtomicBool,
    mut step: impl FnMut(&mut FrameReader) -> Result<Option<T>, ProtocolError>,
) -> Result<Option<T>, ProtocolError> {
    loop {
        if let Some(v) = step(reader)? {
            return Ok(Some(v));
        }
        if !matches!(wait_for_bytes(reader, s, stop, None), Ok(Wait::Data)) {
            return Ok(None);
        }
    }
}

/// Decrements the active-session gauge when a session ends, however it
/// ends.
struct SessionSlot(Arc<AtomicUsize>);

impl Drop for SessionSlot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Exclusive claim on a session name for the lifetime of its
/// connection, released however the connection ends.
struct NameLease<'a> {
    shared: &'a Shared,
    name: String,
}

impl Drop for NameLease<'_> {
    fn drop(&mut self) {
        self.shared.live_names.lock().expect("name registry poisoned").remove(&self.name);
        self.shared.name_released.notify_all();
    }
}

struct Shared {
    cfg: ServerConfig,
    active: Arc<AtomicUsize>,
    next_id: AtomicU64,
    /// `Hello` count per unfinished session name — the second `Hello`
    /// under a name is the first reconnect. A name's entry goes when its
    /// session finishes ([`Shared::forget_name`]).
    hellos: Mutex<HashMap<String, u64>>,
    /// Session names with a live engine. A reconnect can land before
    /// the dead connection's thread has noticed the EOF and written its
    /// emergency checkpoint; admitting it would put two engines on one
    /// checkpoint store and lose the resume watermark. The second
    /// `Hello` waits for the name's release ([`Shared::claim_name`]).
    live_names: Mutex<HashSet<String>>,
    /// Signalled whenever a [`NameLease`] is dropped.
    name_released: Condvar,
}

impl Shared {
    fn new(cfg: ServerConfig) -> Arc<Shared> {
        Arc::new(Shared {
            cfg,
            active: Arc::new(AtomicUsize::new(0)),
            next_id: AtomicU64::new(1),
            hellos: Mutex::new(HashMap::new()),
            live_names: Mutex::new(HashSet::new()),
            name_released: Condvar::new(),
        })
    }

    /// Claims `session` for a new engine. While a dying connection still
    /// holds the name, waits for its lease to be released — a handoff,
    /// not a retry clock — for at most `busy_retry_ms`, waking every
    /// poll interval to observe `stop`. `None` means the name is still
    /// taken and the caller answers `Busy`.
    fn claim_name<'a>(&'a self, session: &str, stop: &AtomicBool) -> Option<NameLease<'a>> {
        let deadline = Instant::now() + Duration::from_millis(self.cfg.busy_retry_ms);
        let tick = Duration::from_millis(self.cfg.poll_interval_ms.max(1));
        let mut live = self.live_names.lock().expect("name registry poisoned");
        while live.contains(session) {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() || stop.load(Ordering::SeqCst) {
                return None;
            }
            live = self
                .name_released
                .wait_timeout(live, left.min(tick))
                .expect("name registry poisoned")
                .0;
        }
        live.insert(session.to_string());
        Some(NameLease { shared: self, name: session.to_string() })
    }

    /// Registers one more `Hello` for `session`, returning how many
    /// reconnects (re-`Hello`s after the first) the name has seen.
    fn count_hello(&self, session: &str) -> u64 {
        let mut map = self.hellos.lock().expect("hello registry poisoned");
        let n = map.entry(session.to_string()).or_insert(0);
        *n += 1;
        *n - 1
    }

    /// Drops a finished session's `Hello` count: a later push under the
    /// name is a new session, not a reconnect.
    fn forget_name(&self, session: &str) {
        self.hellos.lock().expect("hello registry poisoned").remove(session);
    }
}

/// The profiling service: accept loop + per-connection threads.
pub struct Server {
    shared: Arc<Shared>,
    tcp: Option<TcpListener>,
    #[cfg(unix)]
    unix: Option<UnixListener>,
}

impl Server {
    /// Binds a TCP listener (use port 0 for an ephemeral port, then
    /// [`Server::local_addr`]).
    pub fn bind_tcp(addr: impl ToSocketAddrs, cfg: ServerConfig) -> io::Result<Server> {
        let tcp = TcpListener::bind(addr)?;
        tcp.set_nonblocking(true)?;
        Ok(Server {
            shared: Shared::new(cfg),
            tcp: Some(tcp),
            #[cfg(unix)]
            unix: None,
        })
    }

    /// Binds a Unix-socket listener (unix only). An existing socket
    /// file at `path` is removed first.
    #[cfg(unix)]
    pub fn bind_unix(path: impl Into<PathBuf>, cfg: ServerConfig) -> io::Result<Server> {
        let path = path.into();
        let _ = std::fs::remove_file(&path);
        let unix = UnixListener::bind(&path)?;
        unix.set_nonblocking(true)?;
        Ok(Server { shared: Shared::new(cfg), tcp: None, unix: Some(unix) })
    }

    /// The bound TCP address, when TCP-bound.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.tcp.as_ref().and_then(|l| l.local_addr().ok())
    }

    /// Runs the accept loop until `stop` becomes true, then joins every
    /// connection thread (each of which writes its session's emergency
    /// checkpoint before exiting). Pass
    /// [`shutdown_flag()`](crate::shutdown::shutdown_flag) to tie the
    /// loop to SIGINT/SIGTERM.
    pub fn run(&self, stop: &'static AtomicBool) -> io::Result<()> {
        let mut threads = Vec::new();
        let poll = Duration::from_millis(self.shared.cfg.poll_interval_ms.max(1));
        while !stop.load(Ordering::SeqCst) {
            let mut accepted = false;
            if let Some(tcp) = &self.tcp {
                match tcp.accept() {
                    Ok((s, _)) => {
                        accepted = true;
                        // Replies are small frames (HelloAck, SyncAck);
                        // Nagle + delayed ACK would stall every sync
                        // roundtrip by tens of milliseconds.
                        let _ = s.set_nodelay(true);
                        let shared = Arc::clone(&self.shared);
                        threads.push(std::thread::spawn(move || {
                            if s.set_nonblocking(false).is_ok() {
                                dispatch_conn(s, &shared, stop);
                            }
                        }));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                    Err(e) => return Err(e),
                }
            }
            #[cfg(unix)]
            if let Some(unix) = &self.unix {
                match unix.accept() {
                    Ok((s, _)) => {
                        accepted = true;
                        let shared = Arc::clone(&self.shared);
                        threads.push(std::thread::spawn(move || {
                            if s.set_nonblocking(false).is_ok() {
                                dispatch_conn(s, &shared, stop);
                            }
                        }));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                    Err(e) => return Err(e),
                }
            }
            if !accepted {
                std::thread::sleep(poll);
            }
        }
        for t in threads {
            let _ = t.join();
        }
        Ok(())
    }
}

/// Routes an accepted connection through the chaos wrapper when a fault
/// plan is configured, otherwise serves it directly.
fn dispatch_conn<S: Conn>(s: S, shared: &Shared, stop: &AtomicBool) {
    if shared.cfg.fault_plan.is_active() {
        serve_conn(ChaosStream::new(s, shared.cfg.fault_plan.clone()), shared, stop);
    } else {
        serve_conn(s, shared, stop);
    }
}

/// Sends `frames` as one write.
fn send(s: &mut impl Write, frames: &[Frame]) -> Result<(), ProtocolError> {
    let mut buf = Vec::new();
    for f in frames {
        f.encode_into(&mut buf);
    }
    s.write_all(&buf)?;
    s.flush()?;
    Ok(())
}

fn send_error(s: &mut impl Write, code: u16, message: String) {
    let _ = send(s, &[Frame::Error { code, message }]);
}

/// Drives one connection to completion. Every exit path below either
/// completed the session (`Finish` handled) or wrote its emergency
/// checkpoint first.
///
/// The connection is read ahead — one `read` brings in as many frames as
/// the peer had in flight — but acted on frame by frame: every buffered
/// frame is handled, and its replies sent, before the next `read`.
fn serve_conn<S: Conn>(mut s: S, shared: &Shared, stop: &AtomicBool) {
    let _ = s.set_read_timeout_ms(Some(shared.cfg.poll_interval_ms.max(1)));
    // Preamble, both directions: we announce first (so clients can
    // fail fast on version skew), then validate theirs.
    if protocol::write_preamble(&mut s).is_err() || s.flush().is_err() {
        return;
    }
    let mut reader = FrameReader::new(MAX_FRAME_BYTES);
    match read_step(&mut reader, &mut s, stop, |r| Ok(r.preamble()?.then_some(()))) {
        Ok(Some(())) => {}
        Ok(None) => return,
        Err(_) => {
            let message = format!("bad preamble (expected DPSV v{PROTOCOL_VERSION})");
            send_error(&mut s, error_code::BAD_FRAME, message);
            return;
        }
    }

    // First frame must be Hello; the session slot is claimed before the
    // engine is built so the cap bounds real engine memory.
    let hello = match read_step(&mut reader, &mut s, stop, |r| {
        r.next_frame()?.map(|(tag, payload)| Frame::decode(tag, payload)).transpose()
    }) {
        Ok(Some(Frame::Hello(h))) => h,
        Ok(Some(_)) => {
            send_error(&mut s, error_code::BAD_FRAME, "first frame must be Hello".into());
            return;
        }
        _ => return,
    };
    let claimed = shared
        .active
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
            (n < shared.cfg.max_sessions).then_some(n + 1)
        })
        .is_ok();
    if !claimed {
        // Typed backpressure: the client gets a machine-readable retry
        // hint instead of a flat refusal, and `push_with_retry` honors
        // it — overload shows up as latency, not failure.
        let _ = send(&mut s, &[Frame::Busy { retry_after_ms: shared.cfg.busy_retry_ms }]);
        return;
    }
    let _slot = SessionSlot(Arc::clone(&shared.active));
    // One engine per name: a reconnect that beats the dead connection's
    // teardown would race it over the session's checkpoint store, so it
    // waits for that teardown, and past the wait falls back on the same
    // typed backpressure as capacity.
    let Some(_name) = shared.claim_name(&hello.session, stop) else {
        let _ = send(&mut s, &[Frame::Busy { retry_after_ms: shared.cfg.busy_retry_ms }]);
        return;
    };
    let session_id = shared.next_id.fetch_add(1, Ordering::SeqCst);
    let (mut engine, ack) = match SessionEngine::open(
        &hello,
        session_id,
        shared.cfg.checkpoint_dir.as_deref(),
        shared.cfg.checkpoint_every,
    ) {
        Ok(v) => v,
        Err(e) => {
            let _ = send(&mut s, &[e.to_frame()]);
            return;
        }
    };
    engine.set_reconnects(shared.count_hello(engine.name()));
    if send(&mut s, &[ack]).is_err() {
        checkpoint_on_exit(&mut engine, "client lost before HelloAck");
        return;
    }
    eprintln!(
        "session {} '{}' opened (resume_from={})",
        engine.session_id(),
        engine.name(),
        engine.position()
    );

    // A durable session idling past the hibernation deadline is
    // checkpointed and evicted so its slot can serve live traffic.
    let idle_after = (shared.cfg.hibernate_after_ms > 0 && engine.durable())
        .then(|| Duration::from_millis(shared.cfg.hibernate_after_ms));
    loop {
        loop {
            let handled = match reader.next_frame() {
                Ok(Some((tag, payload))) => engine.handle_wire(tag, payload),
                Ok(None) => break,
                Err(e) => Err(SessionError::Malformed(e)),
            };
            match handled {
                Ok(replies) => {
                    let done = engine.finished();
                    if !replies.is_empty() && send(&mut s, &replies).is_err() && !done {
                        checkpoint_on_exit(&mut engine, "client lost mid-reply");
                        return;
                    }
                    if done {
                        shared.forget_name(engine.name());
                        eprintln!(
                            "session {} '{}' finished ({} events)",
                            engine.session_id(),
                            engine.name(),
                            engine.metrics().events
                        );
                        return;
                    }
                }
                Err(e) => {
                    let why = match e {
                        SessionError::Malformed(_) => "malformed frame",
                        _ => "protocol misuse",
                    };
                    checkpoint_on_exit(&mut engine, why);
                    let _ = send(&mut s, &[e.to_frame()]);
                    return;
                }
            }
        }
        // The buffer ends on a frame boundary or inside a frame; either
        // way the engine stands at the last whole frame, which is where
        // every exit below checkpoints it. A partial trailing frame is
        // dropped with the reader and resent from the acked watermark.
        match wait_for_bytes(&mut reader, &mut s, stop, idle_after) {
            Ok(Wait::Data) => {}
            Ok(Wait::Idle) => {
                match engine.hibernate() {
                    Ok(()) => {
                        eprintln!(
                            "session {} '{}' hibernated at event {} (idle)",
                            engine.session_id(),
                            engine.name(),
                            engine.position()
                        );
                        let message = format!(
                            "session hibernated after {}ms idle; reconnect to resume",
                            shared.cfg.hibernate_after_ms
                        );
                        send_error(&mut s, error_code::HIBERNATED, message);
                    }
                    Err(e) => {
                        checkpoint_on_exit(&mut engine, "hibernate failed");
                        send_error(&mut s, error_code::ENGINE, e.to_string());
                    }
                }
                return;
            }
            Ok(Wait::Shutdown) => {
                let saved = checkpoint_on_exit(&mut engine, "shutdown");
                send_error(&mut s, error_code::SHUTDOWN, format!("server shutting down; {saved}"));
                return;
            }
            Ok(Wait::Eof) => {
                checkpoint_on_exit(&mut engine, "client disconnected");
                return;
            }
            Err(_) => {
                checkpoint_on_exit(&mut engine, "read error");
                return;
            }
        }
    }
}

/// Writes the emergency checkpoint of a session whose connection ends
/// unfinished, logs what became of it, and returns that in words.
fn checkpoint_on_exit(engine: &mut SessionEngine, why: &str) -> String {
    let saved = match engine.write_checkpoint() {
        Ok(true) => format!("emergency checkpoint at event {}", engine.position()),
        Ok(false) => "not durable, nothing saved".into(),
        Err(e) => format!("emergency checkpoint failed: {e}"),
    };
    eprintln!("session {} '{}': {why}; {saved}", engine.session_id(), engine.name());
    saved
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn shared(busy_retry_ms: u64) -> Arc<Shared> {
        Shared::new(ServerConfig { busy_retry_ms, ..ServerConfig::default() })
    }

    #[test]
    fn a_hello_waits_for_the_name_to_be_released() {
        let shared = shared(60_000);
        let stop = AtomicBool::new(false);
        let held = shared.claim_name("s", &stop).expect("a free name is claimed at once");
        let (about_to_claim, claiming) = mpsc::channel();
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                about_to_claim.send(()).expect("the test is listening");
                shared.claim_name("s", &stop).is_some()
            });
            claiming.recv().expect("the waiter runs");
            drop(held);
            assert!(waiter.join().expect("the waiter returns"), "handed over, not refused");
        });
        assert!(shared.claim_name("s", &stop).is_some(), "and released again by the waiter");
    }

    #[test]
    fn the_wait_is_bounded_and_honours_stop() {
        let stop = AtomicBool::new(false);
        let brief = shared(20);
        let _held = brief.claim_name("s", &stop).expect("free");
        assert!(brief.claim_name("s", &stop).is_none(), "Busy after busy_retry_ms");
        assert!(brief.claim_name("other", &stop).is_some(), "other names are not held up");

        let patient = shared(60_000);
        let _held = patient.claim_name("s", &stop).expect("free");
        stop.store(true, Ordering::SeqCst);
        assert!(patient.claim_name("s", &stop).is_none(), "a stopping server does not wait");
    }

    /// Serves one connection that sends the preamble and `frames`, then
    /// closes its sending half; returns once the server side has.
    #[cfg(unix)]
    fn converse(shared: &Shared, frames: &[Frame]) {
        let (mut client, conn) = UnixStream::pair().expect("a socket pair");
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| serve_conn(conn, shared, &stop));
            protocol::write_preamble(&mut client).expect("preamble");
            frames.iter().for_each(|f| protocol::write_frame(&mut client, f).expect("frame"));
            client.shutdown(std::net::Shutdown::Write).expect("half-close");
            io::copy(&mut client, &mut io::sink()).expect("the replies");
        });
    }

    #[cfg(unix)]
    #[test]
    fn a_finished_session_name_is_forgotten() {
        let shared = shared(20);
        let spec = dp_core::SessionSpec { slots: 1 << 12, ..Default::default() }.encode();
        let hello =
            Frame::Hello(protocol::Hello { session: "s".into(), spec, ..Default::default() });
        converse(&shared, std::slice::from_ref(&hello));
        converse(&shared, &[hello.clone(), Frame::Finish]);
        assert!(shared.hellos.lock().unwrap().is_empty(), "the finished name's count is gone");
        // Dropped unfinished (as a hibernated session is): the count stays.
        converse(&shared, &[hello]);
        assert_eq!(shared.count_hello("s"), 1, "the next Hello is the first reconnect");
    }
}
