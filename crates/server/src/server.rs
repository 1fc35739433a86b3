//! The socket front-end: accept loop, per-connection threads, the
//! global session cap, and shutdown/disconnect handling.

use crate::engine::{SessionEngine, SessionError};
use dp_types::protocol::{self, error_code, Frame, FrameReader, FrameSender, ProtocolError};
use dp_types::protocol::{MAX_FRAME_BYTES, PROTOCOL_VERSION};
use std::collections::{HashMap, HashSet};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
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
    /// How long the accept loop's wait and each read block before they
    /// look at the shutdown flag again; no client waits on it.
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
        }
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
fn wait_for_bytes<S: Read>(
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
fn read_step<T, S: Read>(
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

/// Every admission fact, behind one lock ([`Shared::registry`]).
#[derive(Default)]
struct Registry {
    /// Slots taken: live sessions, and reconnects waiting for their name.
    active: usize,
    /// The id of the last session admitted (ids start at 1).
    last_id: u64,
    /// Session names with a live engine. A reconnect can land before
    /// the dead connection's thread has noticed the EOF and written its
    /// emergency checkpoint; admitting it would put two engines on one
    /// checkpoint store and lose the resume watermark, so the second
    /// `Hello` waits for the name's release ([`Shared::admit`]).
    live: HashSet<String>,
    /// Opened-`Hello` count per unfinished session name — the second is
    /// the first reconnect. A name's entry goes when its session
    /// finishes ([`Lease::finish`]).
    hellos: HashMap<String, u64>,
}

/// An admitted session's slot, name and id, given back however its
/// connection ends.
struct Lease<'a> {
    shared: &'a Shared,
    name: String,
    id: u64,
}

impl Lease<'_> {
    /// Counts the `Hello` of a session whose engine opened, returning the
    /// name's reconnects: the opened `Hello`s before it.
    fn opened(&self) -> u64 {
        let mut reg = self.shared.registry.lock().expect("registry poisoned");
        let n = reg.hellos.entry(self.name.clone()).or_insert(0);
        *n += 1;
        *n - 1
    }

    /// Releases a finished session: a later push under the name is a new
    /// session, not a reconnect.
    fn finish(&self) {
        self.shared.registry.lock().expect("registry poisoned").hellos.remove(&self.name);
    }
}

impl Drop for Lease<'_> {
    fn drop(&mut self) {
        // No panic in drop: every registry update is one step, so it is whole.
        let mut reg = self.shared.registry.lock().unwrap_or_else(PoisonError::into_inner);
        reg.active -= 1;
        reg.live.remove(&self.name);
        drop(reg);
        self.shared.released.notify_all();
    }
}

struct Shared {
    cfg: ServerConfig,
    registry: Mutex<Registry>,
    /// Signalled whenever a [`Lease`] is dropped.
    released: Condvar,
}

impl Shared {
    fn new(cfg: ServerConfig) -> Arc<Shared> {
        Arc::new(Shared { cfg, registry: Mutex::default(), released: Condvar::new() })
    }

    /// Admits a `Hello` for `session`: a slot if one is free, then the
    /// name, then the next id. While a dying connection still holds the
    /// name, waits for its lease to be released — a handoff, not a retry
    /// clock — keeping the slot, for at most `busy_retry_ms`, waking
    /// every poll interval to observe `stop`. `None` means no slot or the
    /// name still taken, and the caller answers `Busy`.
    fn admit<'a>(&'a self, session: &str, stop: &AtomicBool) -> Option<Lease<'a>> {
        let deadline = Instant::now() + Duration::from_millis(self.cfg.busy_retry_ms);
        let tick = Duration::from_millis(self.cfg.poll_interval_ms.max(1));
        let mut reg = self.registry.lock().expect("registry poisoned");
        if reg.active >= self.cfg.max_sessions {
            return None;
        }
        reg.active += 1;
        while reg.live.contains(session) {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() || stop.load(Ordering::SeqCst) {
                reg.active -= 1;
                return None;
            }
            reg = self.released.wait_timeout(reg, left.min(tick)).expect("registry poisoned").0;
        }
        reg.live.insert(session.to_string());
        reg.last_id += 1;
        Some(Lease { shared: self, name: session.to_string(), id: reg.last_id })
    }
}

/// The one listener a [`Server`] was bound to.
enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
}

/// The profiling service: accept loop + per-connection threads.
pub struct Server {
    shared: Arc<Shared>,
    listener: Listener,
}

impl Server {
    /// Binds a TCP listener (use port 0 for an ephemeral port, then
    /// [`Server::local_addr`]).
    pub fn bind_tcp(addr: impl ToSocketAddrs, cfg: ServerConfig) -> io::Result<Server> {
        let tcp = TcpListener::bind(addr)?;
        tcp.set_nonblocking(true)?;
        Ok(Server { shared: Shared::new(cfg), listener: Listener::Tcp(tcp) })
    }

    /// Binds a Unix-socket listener (unix only). A socket left at `path`
    /// (by a server dropped without [`Server::run`]) is replaced; any
    /// other file there makes the bind fail and is left as it is.
    #[cfg(unix)]
    pub fn bind_unix(path: impl Into<PathBuf>, cfg: ServerConfig) -> io::Result<Server> {
        use std::os::unix::fs::FileTypeExt;
        let path = path.into();
        if std::fs::symlink_metadata(&path).is_ok_and(|m| m.file_type().is_socket()) {
            std::fs::remove_file(&path)?;
        }
        let unix = UnixListener::bind(&path)?;
        unix.set_nonblocking(true)?;
        Ok(Server { shared: Shared::new(cfg), listener: Listener::Unix(unix, path) })
    }

    /// The bound TCP address, when TCP-bound.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        match &self.listener {
            Listener::Tcp(l) => l.local_addr().ok(),
            #[cfg(unix)]
            Listener::Unix(..) => None,
        }
    }

    /// Runs the accept loop until `stop` becomes true, then removes a
    /// Unix socket's file and joins every connection thread (each of
    /// which writes its session's emergency checkpoint before exiting).
    /// Pass [`shutdown_flag()`](crate::shutdown::shutdown_flag) to tie
    /// the loop to SIGINT/SIGTERM. An `accept` error the loop does not
    /// retry stops the connections too, and is returned after the joins.
    pub fn run(&self, stop: &'static AtomicBool) -> io::Result<()> {
        use crate::shutdown::imp::wait_readable;
        let poll = Duration::from_millis(self.shared.cfg.poll_interval_ms.max(1));
        let spawn = |serve: Box<dyn FnOnce() + Send>| std::thread::Builder::new().spawn(serve);
        let (threads, ended) = match &self.listener {
            Listener::Tcp(l) => {
                let (accept, wait) = (|| l.accept(), || wait_readable(l, poll));
                self.accept_until(stop, poll, accept, wait, spawn, move |s| {
                    // Replies are small frames (HelloAck, SyncAck); Nagle
                    // + delayed ACK would stall every sync roundtrip by
                    // tens of milliseconds.
                    let _ = s.set_nodelay(true);
                    s.set_nonblocking(false).and_then(|()| s.set_read_timeout(Some(poll)))
                })
            }
            #[cfg(unix)]
            Listener::Unix(l, path) => {
                let (accept, wait) = (|| l.accept(), || wait_readable(l, poll));
                let accepted = self.accept_until(stop, poll, accept, wait, spawn, move |s| {
                    s.set_nonblocking(false).and_then(|()| s.set_read_timeout(Some(poll)))
                });
                let _ = std::fs::remove_file(path);
                accepted
            }
        };
        stop.store(true, Ordering::SeqCst); // set already, unless `accept` failed
        for t in threads {
            let _ = t.join();
        }
        ended
    }

    /// Accepts each client as it connects (`wait` blocks until one is
    /// waiting or `poll` passes) and serves it on a `spawn`ed thread once
    /// `prepare` has made its reads block for at most `poll`, until `stop`.
    /// [`TRANSIENT_ACCEPT`] errors are logged once until the next client
    /// and retried after `poll`: the listener stays readable meanwhile. A
    /// client no thread starts for is dropped; each accept joins ended threads.
    fn accept_until<S: Read + Write + Send + 'static, A>(
        &self,
        stop: &'static AtomicBool,
        poll: Duration,
        accept: impl Fn() -> io::Result<(S, A)>,
        wait: impl Fn(),
        spawn: impl Fn(Box<dyn FnOnce() + Send>) -> io::Result<JoinHandle<()>>,
        prepare: impl Fn(&S) -> io::Result<()> + Copy + Send + 'static,
    ) -> (Vec<JoinHandle<()>>, io::Result<()>) {
        let (mut threads, mut retrying) = (Vec::<JoinHandle<()>>::new(), false);
        while !stop.load(Ordering::SeqCst) {
            match accept() {
                Ok((s, _)) => {
                    retrying = false;
                    threads.extract_if(.., |t| t.is_finished()).for_each(|t| drop(t.join()));
                    let shared = Arc::clone(&self.shared);
                    match spawn(Box::new(move || {
                        if prepare(&s).is_ok() {
                            serve_conn(s, &shared, stop);
                        }
                    })) {
                        Ok(t) => threads.push(t),
                        Err(e) => eprintln!("cannot serve client: {e}"),
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => wait(),
                Err(e) if e.raw_os_error().is_some_and(|n| TRANSIENT_ACCEPT.contains(&n)) => {
                    if !std::mem::replace(&mut retrying, true) {
                        eprintln!("accept failed: {e}; retrying every {}ms", poll.as_millis());
                    }
                    std::thread::sleep(poll);
                }
                Err(e) => return (threads, Err(e)),
            }
        }
        (threads, Ok(()))
    }
}

/// `accept(2)` errors of one pending connection or a passing shortage,
/// which the server retries: EPERM, EINTR, ENOMEM, ENFILE, EMFILE and, as
/// Linux numbers them, ENONET, EPROTO, ENOPROTOOPT, EOPNOTSUPP, ENETDOWN,
/// ENETUNREACH, ECONNABORTED, ENOBUFS, EHOSTDOWN and EHOSTUNREACH.
#[cfg(target_os = "linux")]
const TRANSIENT_ACCEPT: &[i32] = &[1, 4, 12, 23, 24, 64, 71, 92, 95, 100, 101, 103, 105, 112, 113];
#[cfg(not(target_os = "linux"))]
const TRANSIENT_ACCEPT: &[i32] = &[1, 4, 12, 23, 24];

/// Drives one connection to completion. Every exit path below either
/// completed the session (`Finish` handled) or wrote its emergency
/// checkpoint first.
///
/// The connection is read ahead — one `read` brings in as many frames as
/// the peer had in flight — but acted on frame by frame: every buffered
/// frame is handled, and its replies sent with one write, before the
/// next `read`. The socket is unbuffered: a write needs no flush.
fn serve_conn<S: Read + Write>(mut s: S, shared: &Shared, stop: &AtomicBool) {
    // Preamble, both directions: we announce first (so clients can
    // fail fast on version skew), then validate theirs.
    if protocol::write_preamble(&mut s).is_err() {
        return;
    }
    let (mut reader, mut out) = (FrameReader::new(MAX_FRAME_BYTES), FrameSender::new());
    let error = |code, message| Frame::Error { code, message };
    match read_step(&mut reader, &mut s, stop, |r| Ok(r.preamble()?.then_some(()))) {
        Ok(Some(())) => {}
        Ok(None) => return,
        Err(_) => {
            let message = format!("bad preamble (expected DPSV v{PROTOCOL_VERSION})");
            let _ = out.send(&mut s, [&error(error_code::BAD_FRAME, message)]);
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
            let _ = out
                .send(&mut s, [&error(error_code::BAD_FRAME, "first frame must be Hello".into())]);
            return;
        }
        _ => return,
    };
    // Typed backpressure, past the cap or the name's wait: the client
    // gets a retry hint instead of a flat refusal, and `push_with_retry`
    // honors it — overload shows up as latency, not failure.
    let Some(lease) = shared.admit(&hello.session, stop) else {
        let _ = out.send(&mut s, [&Frame::Busy { retry_after_ms: shared.cfg.busy_retry_ms }]);
        return;
    };
    let (dir, every) = (shared.cfg.checkpoint_dir.as_deref(), shared.cfg.checkpoint_every);
    let (mut engine, ack) = match SessionEngine::open(&hello, lease.id, dir, every) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("session {} '{}': refused at Hello; {e}", lease.id, hello.session);
            let _ = out.send(&mut s, [&e.to_frame()]);
            return;
        }
    };
    engine.set_reconnects(lease.opened());
    if out.send(&mut s, [&ack]).is_err() {
        checkpoint_on_exit(&mut engine, "client lost before HelloAck");
        return;
    }
    eprintln!("{} opened (resume_from={})", who(&engine), engine.position());

    // A durable session idling past the hibernation deadline is
    // checkpointed and evicted so its slot can serve live traffic.
    let idle_after = (shared.cfg.hibernate_after_ms > 0 && shared.cfg.checkpoint_dir.is_some())
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
                    if !replies.is_empty() && out.send(&mut s, &replies).is_err() && !done {
                        checkpoint_on_exit(&mut engine, "client lost mid-reply");
                        return;
                    }
                    if done {
                        lease.finish();
                        eprintln!("{} finished ({} events)", who(&engine), engine.metrics().events);
                        return;
                    }
                }
                Err(e) => {
                    let why = match e {
                        SessionError::Malformed(_) => "malformed frame",
                        SessionError::Checkpoint(_) => "checkpoint failure",
                        _ => "protocol misuse",
                    };
                    checkpoint_on_exit(&mut engine, why);
                    let _ = out.send(&mut s, [&e.to_frame()]);
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
                        let at = engine.position();
                        eprintln!("{} hibernated at event {at} (idle)", who(&engine));
                        let message = format!(
                            "session hibernated after {}ms idle; reconnect to resume",
                            shared.cfg.hibernate_after_ms
                        );
                        let _ = out.send(&mut s, [&error(error_code::HIBERNATED, message)]);
                    }
                    Err(e) => {
                        checkpoint_on_exit(&mut engine, "hibernate failed");
                        let _ = out.send(&mut s, [&error(error_code::ENGINE, e.to_string())]);
                    }
                }
                return;
            }
            Ok(Wait::Shutdown) => {
                let saved = checkpoint_on_exit(&mut engine, "shutdown");
                let message = format!("server shutting down; {saved}");
                let _ = out.send(&mut s, [&error(error_code::SHUTDOWN, message)]);
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
        Ok(Some(_)) => format!("emergency checkpoint at event {}", engine.position()),
        Ok(None) => "not durable, nothing saved".into(),
        Err(e) => format!("emergency checkpoint failed: {e}"),
    };
    eprintln!("{}: {why}; {saved}", who(engine));
    saved
}

/// How the log names a session: `session <id> '<name>'`.
fn who(engine: &SessionEngine) -> String {
    format!("session {} '{}'", engine.session_id(), engine.name())
}

#[cfg(test)]
mod tests {
    use super::*;
    #[cfg(unix)]
    use std::os::unix::net::UnixStream;
    use std::sync::mpsc;

    fn shared(busy_retry_ms: u64) -> Arc<Shared> {
        Shared::new(ServerConfig { busy_retry_ms, ..ServerConfig::default() })
    }

    #[test]
    fn a_hello_waits_for_the_name_to_be_released() {
        let shared = shared(60_000);
        let stop = AtomicBool::new(false);
        let held = shared.admit("s", &stop).expect("a free name is claimed at once");
        let (about_to_claim, claiming) = mpsc::channel();
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                about_to_claim.send(()).expect("the test is listening");
                shared.admit("s", &stop).is_some()
            });
            claiming.recv().expect("the waiter runs");
            drop(held);
            assert!(waiter.join().expect("the waiter returns"), "handed over, not refused");
        });
        assert!(shared.admit("s", &stop).is_some(), "and released again by the waiter");
    }

    #[test]
    fn the_wait_is_bounded_and_honours_stop() {
        let stop = AtomicBool::new(false);
        let brief = shared(20);
        let _held = brief.admit("s", &stop).expect("free");
        assert!(brief.admit("s", &stop).is_none(), "Busy after busy_retry_ms");
        assert!(brief.admit("other", &stop).is_some(), "other names are not held up");

        let patient = shared(60_000);
        let _held = patient.admit("s", &stop).expect("free");
        stop.store(true, Ordering::SeqCst);
        assert!(patient.admit("s", &stop).is_none(), "a stopping server does not wait");
    }

    /// `bind_unix` replaces only a socket: a regular file at the path
    /// fails the bind and keeps its bytes, while the socket a dropped
    /// server left behind gives way to the new listener.
    #[cfg(unix)]
    #[test]
    fn bind_unix_replaces_a_left_socket_and_nothing_else() {
        let dir = std::env::temp_dir().join(format!("dpsv-bind-unix-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("a scratch directory");
        let notes = dir.join("notes.txt");
        std::fs::write(&notes, b"keep me").expect("a regular file");
        assert!(Server::bind_unix(&notes, ServerConfig::default()).is_err(), "not a socket");
        assert_eq!(std::fs::read(&notes).expect("still there"), b"keep me");

        let sock = dir.join("s.sock");
        drop(Server::bind_unix(&sock, ServerConfig::default()).expect("a fresh path binds"));
        assert!(sock.exists(), "a dropped server leaves its socket file");
        let _again = Server::bind_unix(&sock, ServerConfig::default()).expect("replaced");
        UnixStream::connect(&sock).expect("the new listener takes connections");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// Serves one connection that sends the preamble and `frames`, then
    /// closes its sending half; returns the server's replies once the
    /// server side has closed too.
    #[cfg(unix)]
    fn converse(shared: &Shared, frames: &[Frame]) -> Vec<Frame> {
        let (mut client, conn) = UnixStream::pair().expect("a socket pair");
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| serve_conn(conn, shared, &stop));
            protocol::write_preamble(&mut client).expect("preamble");
            frames.iter().for_each(|f| protocol::write_frame(&mut client, f).expect("frame"));
            client.shutdown(std::net::Shutdown::Write).expect("half-close");
            protocol::read_preamble(&mut client).expect("the server's preamble");
            let mut replies = Vec::new();
            while let Some(f) = protocol::read_frame(&mut client, MAX_FRAME_BYTES).expect("reply") {
                replies.push(f);
            }
            replies
        })
    }

    fn hello(spec: Vec<u8>) -> Frame {
        Frame::Hello(protocol::Hello { session: "s".into(), spec, ..Default::default() })
    }

    fn small_spec() -> Vec<u8> {
        dp_core::SessionSpec { slots: 1 << 12, ..Default::default() }.encode()
    }

    #[cfg(unix)]
    #[test]
    fn a_finished_session_name_is_forgotten() {
        let shared = shared(20);
        let hello = hello(small_spec());
        converse(&shared, std::slice::from_ref(&hello));
        converse(&shared, &[hello.clone(), Frame::Finish]);
        assert!(
            shared.registry.lock().unwrap().hellos.is_empty(),
            "the finished name's count is gone"
        );
        // Dropped unfinished (as a hibernated session is): the count stays.
        converse(&shared, &[hello]);
        let stop = AtomicBool::new(false);
        let next = shared.admit("s", &stop).expect("the name is free");
        assert_eq!(next.opened(), 1, "the next Hello is the first reconnect");
    }

    /// A `Hello` the engine refuses gives its slot and name back at once
    /// and is not a reconnect: the next `Hello` under the name is the first.
    #[cfg(unix)]
    #[test]
    fn a_refused_hello_frees_its_slot_and_is_not_counted() {
        let cfg = ServerConfig { max_sessions: 1, busy_retry_ms: 20, ..ServerConfig::default() };
        let shared = Shared::new(cfg);
        let refused = converse(&shared, &[hello(vec![0xff])]);
        let bad_spec = matches!(refused[..], [Frame::Error { code: error_code::BAD_FRAME, .. }]);
        assert!(bad_spec, "{refused:?}");
        let admitted = converse(&shared, &[hello(small_spec())]);
        assert!(matches!(admitted[..], [Frame::HelloAck { .. }]), "not Busy: {admitted:?}");
        let hellos = shared.registry.lock().unwrap().hellos.clone();
        assert_eq!(hellos.get("s"), Some(&1), "only the opened Hello is counted");
    }

    /// A `Chunk` whose `Dealloc` frees 2⁴⁰ words is refused as malformed
    /// before any of it is fed, not worked through one word at a time
    /// (which the `Finish` behind it would force).
    #[cfg(unix)]
    #[test]
    fn a_dealloc_past_the_bound_is_refused_at_once() {
        use dp_types::{Record, TraceEvent};
        let dealloc = TraceEvent::Dealloc { base: 0, len: 1 << 40, thread: 0, ts: 0 };
        let chunk = Frame::Chunk { base: 0, events: vec![Record::pack(&dealloc)] };
        let (shared, (replied, replies)) = (shared(20), mpsc::channel());
        let frames = [hello(small_spec()), chunk, Frame::Finish];
        let served = std::thread::spawn(move || replied.send(converse(&shared, &frames)));
        let replies = replies.recv_timeout(Duration::from_secs(10)).expect("answered in 10 s");
        served.join().expect("the connection ends").expect("the test is listening");
        let malformed = matches!(replies[..], [Frame::HelloAck { .. }, Frame::Error { code, .. }]
            if code == error_code::BAD_FRAME);
        assert!(malformed, "{replies:?}");
    }

    /// The accept loop over scripted clients: `clients` connections whose
    /// peer sends nothing, then `stop`. `spawn` stands in for the OS.
    fn accept_scripted(
        stop: &'static AtomicBool,
        clients: usize,
        spawn: impl Fn(Box<dyn FnOnce() + Send>) -> io::Result<JoinHandle<()>>,
    ) -> (Vec<JoinHandle<()>>, io::Result<()>, usize) {
        let server = Server::bind_tcp("127.0.0.1:0", ServerConfig::default()).expect("bind");
        let accepted = std::cell::Cell::new(0);
        let accept = || {
            if accepted.get() == clients {
                stop.store(true, Ordering::SeqCst);
                return Err(io::ErrorKind::WouldBlock.into());
            }
            accepted.set(accepted.get() + 1);
            Ok((io::Cursor::new(Vec::new()), ()))
        };
        let poll = Duration::from_millis(1);
        let (threads, ended) = server.accept_until(stop, poll, accept, || {}, spawn, |_| Ok(()));
        (threads, ended, accepted.get())
    }

    /// A client no thread can be started for is dropped and the loop
    /// accepts the next; no real thread is asked for.
    #[test]
    fn a_client_without_a_thread_is_dropped_and_accepting_goes_on() {
        static STOP: AtomicBool = AtomicBool::new(false);
        let refused = std::cell::Cell::new(0);
        let (threads, ended, accepted) = accept_scripted(&STOP, 3, |_serve| {
            refused.set(refused.get() + 1);
            Err(io::Error::other("no thread for you"))
        });
        assert!(ended.is_ok(), "{ended:?}");
        assert!(threads.is_empty());
        assert_eq!((accepted, refused.get()), (3, 3));
    }

    /// A long-lived accept loop holds the threads of live sessions only:
    /// each accept joins the sessions that have ended.
    #[test]
    fn ended_sessions_are_joined_at_the_next_accept() {
        static STOP: AtomicBool = AtomicBool::new(false);
        // Each session runs to its end before the next client connects.
        let (threads, ended, accepted) = accept_scripted(&STOP, 50, |serve| {
            let t = std::thread::Builder::new().spawn(serve)?;
            while !t.is_finished() {
                std::thread::yield_now();
            }
            Ok(t)
        });
        assert!(ended.is_ok(), "{ended:?}");
        assert_eq!(accepted, 50);
        assert!(threads.len() <= 2, "{} handles held", threads.len());
    }

    /// A client that connects while `run` waits on its listener is served
    /// then, not when the wait times out; a raised `stop` ends the wait
    /// within one poll interval. (Off unix the loop sleeps instead.)
    #[cfg(unix)]
    #[test]
    fn a_client_is_accepted_as_it_connects() {
        static STOP: AtomicBool = AtomicBool::new(false);
        let interval = Duration::from_millis(2_000);
        let cfg = ServerConfig { poll_interval_ms: 2_000, ..ServerConfig::default() };
        let server = Server::bind_tcp("127.0.0.1:0", cfg).expect("bind");
        let addr = server.local_addr().expect("a TCP address");
        let running = std::thread::spawn(move || server.run(&STOP));
        // Long enough for `run` to find no client and begin its wait.
        std::thread::sleep(Duration::from_millis(200));
        let connected = Instant::now();
        let mut client = std::net::TcpStream::connect(addr).expect("connect");
        protocol::write_preamble(&mut client).expect("preamble");
        protocol::write_frame(&mut client, &hello(small_spec())).expect("Hello");
        protocol::read_preamble(&mut client).expect("the server's preamble");
        let ack = protocol::read_frame(&mut client, MAX_FRAME_BYTES).expect("a reply");
        let waited = connected.elapsed();
        assert!(matches!(ack, Some(Frame::HelloAck { .. })), "{ack:?}");
        assert!(waited < Duration::from_millis(500), "HelloAck after {waited:?}");
        drop(client);
        let stopping = Instant::now();
        STOP.store(true, Ordering::SeqCst);
        running.join().expect("run returns").expect("run ends cleanly");
        let took = stopping.elapsed();
        assert!(took < interval + Duration::from_millis(500), "stopped after {took:?}");
    }
}
