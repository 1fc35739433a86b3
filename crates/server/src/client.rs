//! The client half of the protocol: open a session, stream events,
//! collect the report — what `depprof push` drives over a socket, and
//! what the in-process tests drive over a loopback connection.
//!
//! Two entry points: [`push_events`] runs one session over one
//! connection and fails on the first transport error; [`push_with_retry`]
//! wraps it in a reconnect loop with bounded jittered backoff, resuming
//! from the server's `HelloAck.resume_from` watermark after every
//! disconnect — the client half of the exactly-once contract.

use dp_core::SessionSpec;
use dp_trace::stream::{FrameChunker, OffThread, DEFAULT_CHUNK_EVENTS};
use dp_types::protocol::{self, error_code, Frame, FrameSender, Hello, ProtocolError};
use dp_types::protocol::{MAX_CHUNK_EVENTS, MAX_FRAME_BYTES};
use dp_types::TraceEvent;
use std::fmt;
use std::io::{self, Read, Write};
use std::time::Instant;

/// How a push streams its session.
#[derive(Debug, Clone)]
pub struct PushOptions {
    /// Session name (resume identity on the server).
    pub session: String,
    /// Engine the server should run.
    pub spec: SessionSpec,
    /// Ask the server to checkpoint every N events (0 = server default).
    pub checkpoint_every: u64,
    /// Events of every kind per `Chunk` frame, at most
    /// [`MAX_CHUNK_EVENTS`].
    pub chunk_events: usize,
    /// Sleep this long between chunk frames (throttles the stream so
    /// tests can interrupt a push mid-session deterministically).
    pub throttle_ms: u64,
    /// Request the per-session metrics snapshot before finishing.
    pub request_stats: bool,
    /// Send a `Sync` watermark probe every N chunks (0 = never), keeping
    /// one window in flight: after writing `Sync{n+1}` the push waits for
    /// `SyncAck{n}`, so the server works through one window while the
    /// next is built, and at most `2N` chunks are ever unacknowledged —
    /// applicative backpressure plus a durable high-water mark.
    pub sync_every_chunks: u64,
    /// Watch mode: issue a live-analysis `Query` whenever this many
    /// milliseconds have elapsed since the last one (0 = after every
    /// chunk), print each snapshot to stderr, and always issue one
    /// final query after the last event. `None` disables watching.
    pub watch_ms: Option<u64>,
}

impl Default for PushOptions {
    fn default() -> Self {
        PushOptions {
            session: "default".into(),
            spec: SessionSpec::default(),
            checkpoint_every: 0,
            chunk_events: DEFAULT_CHUNK_EVENTS,
            throttle_ms: 0,
            request_stats: false,
            sync_every_chunks: 0,
            watch_ms: None,
        }
    }
}

/// What a completed push produced.
#[derive(Debug, Clone)]
pub struct PushOutcome {
    /// The dependence report the server rendered on `Finish`.
    pub report: String,
    /// Events the server told us to skip (resumed from a checkpoint).
    pub resumed_from: u64,
    /// Events actually sent this connection.
    pub events_sent: u64,
    /// `Stats` payload, when requested.
    pub stats_json: Option<String>,
    /// Live-analysis queries answered this connection (watch mode).
    pub queries: u64,
    /// The last `QueryResult` JSON — in watch mode, the query issued
    /// after the final event, i.e. the complete live report.
    pub last_query_json: Option<String>,
}

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or framing failure.
    Protocol(ProtocolError),
    /// The server replied with an `Error` frame.
    Server {
        /// [`dp_types::protocol::error_code`] value.
        code: u16,
        /// Server-provided description.
        message: String,
    },
    /// The server refused the session with typed backpressure; retry
    /// after the hinted delay.
    Busy {
        /// The server's suggested reconnect delay, milliseconds.
        retry_after_ms: u64,
    },
    /// The server sent a well-formed frame the client did not expect
    /// in this state.
    Unexpected(&'static str),
    /// `chunk_events` over [`MAX_CHUNK_EVENTS`], refused before any I/O.
    ChunkTooLarge(usize),
    /// An event off thread 0, refused before the chunk that holds it.
    OffThread(OffThread),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Protocol(e) => write!(f, "{e}"),
            ClientError::Server { code, message } => {
                write!(f, "server error {code}: {message}")
            }
            ClientError::Busy { retry_after_ms } => {
                write!(f, "server busy (retry after {retry_after_ms}ms)")
            }
            ClientError::Unexpected(what) => write!(f, "unexpected server frame: {what}"),
            ClientError::ChunkTooLarge(n) => {
                write!(f, "{n} events per chunk, over {MAX_CHUNK_EVENTS}")
            }
            ClientError::OffThread(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        ClientError::Protocol(e)
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Protocol(ProtocolError::Io(e))
    }
}

impl ClientError {
    /// True for failures a reconnect can cure: transport errors, typed
    /// backpressure, and the server-side conditions (`SHUTDOWN`,
    /// `HIBERNATED`) that explicitly invite a resume. Spec rejections
    /// and protocol misuse are fatal — retrying cannot change them.
    pub fn is_retryable(&self) -> bool {
        match self {
            ClientError::Protocol(_) | ClientError::Busy { .. } => true,
            ClientError::Server { code, .. } => {
                *code == error_code::SHUTDOWN || *code == error_code::HIBERNATED
            }
            ClientError::Unexpected(_)
            | ClientError::ChunkTooLarge(_)
            | ClientError::OffThread(_) => false,
        }
    }
}

/// Reads replies up to the next one that is not a `SyncAck`, or until
/// `acked` reaches `until` (`None`). Every ack read raises `acked` to its
/// nonce: it counts toward the window wait wherever it is read, and a
/// duplicated one (a `Sync` a chaotic link delivered twice) is harmless.
fn read_reply(
    conn: &mut impl Read,
    acked: &mut u64,
    until: u64,
) -> Result<Option<Frame>, ClientError> {
    while *acked < until {
        let frame = protocol::read_frame(conn, MAX_FRAME_BYTES)?;
        match frame.ok_or(ProtocolError::Wire(dp_types::WireError::Truncated))? {
            Frame::SyncAck { nonce, .. } => *acked = nonce.max(*acked),
            Frame::Error { code, message } => return Err(ClientError::Server { code, message }),
            Frame::Busy { retry_after_ms } => return Err(ClientError::Busy { retry_after_ms }),
            f => return Ok(Some(f)),
        }
    }
    Ok(None)
}

/// In-flight progress of one connection attempt, visible to the retry
/// loop even when the attempt dies mid-stream — this is what makes the
/// duplicated-work accounting exact.
#[derive(Debug, Default)]
struct PushProgress {
    /// The attempt's sender; its
    /// [`events_written`](FrameSender::events_written) is the attempt's
    /// `events_sent`.
    out: FrameSender,
    /// `HelloAck.resume_from`, once received.
    resumed_from: Option<u64>,
}

/// Issues one `Query(ALL)` round-trip, counting the acks ahead of its
/// answer, and prints the snapshot to stderr (the watch stream).
fn watch_query(
    out: &mut FrameSender,
    conn: &mut (impl Read + Write),
    acked: &mut u64,
    session: &str,
    id: u64,
) -> Result<String, ClientError> {
    out.send(conn, [&Frame::Query { id, kind: protocol::query_kind::ALL }])?;
    conn.flush()?;
    match read_reply(conn, acked, u64::MAX)? {
        Some(Frame::QueryResult { json, .. }) => {
            eprintln!("[watch {session}] {json}");
            Ok(json)
        }
        _ => Err(ClientError::Unexpected("wanted QueryResult")),
    }
}

/// Runs one full push session over `conn`: preamble, `Hello` carrying
/// `names` (the trace's variable table, in id order), the event stream
/// (skipping whatever the server already profiled), `Finish`, report.
/// The events must be thread 0's.
pub fn push_events(
    conn: &mut (impl Read + Write),
    names: Vec<String>,
    events: impl IntoIterator<Item = TraceEvent>,
    opts: &PushOptions,
) -> Result<PushOutcome, ClientError> {
    push_once(conn, names, events, opts, &mut PushProgress::default())
}

/// [`push_session`], reporting the server's last word: a write that
/// finds the server gone may have crossed the `Error` it sent before
/// closing (a shutdown, say), and that, read from what is left of the
/// connection past any acks, is the failure to report, not the pipe.
fn push_once(
    conn: &mut (impl Read + Write),
    names: Vec<String>,
    events: impl IntoIterator<Item = TraceEvent>,
    opts: &PushOptions,
    progress: &mut PushProgress,
) -> Result<PushOutcome, ClientError> {
    use io::ErrorKind::{BrokenPipe, ConnectionAborted, ConnectionReset};
    let err = match push_session(conn, names, events, opts, progress) {
        Err(ClientError::Protocol(ProtocolError::Io(e)))
            if matches!(e.kind(), BrokenPipe | ConnectionReset | ConnectionAborted) =>
        {
            e
        }
        done => return done,
    };
    match read_reply(conn, &mut 0, u64::MAX) {
        Err(said @ ClientError::Server { .. }) => Err(said),
        _ => Err(err.into()),
    }
}

fn push_session(
    conn: &mut (impl Read + Write),
    names: Vec<String>,
    events: impl IntoIterator<Item = TraceEvent>,
    opts: &PushOptions,
    progress: &mut PushProgress,
) -> Result<PushOutcome, ClientError> {
    if opts.chunk_events > MAX_CHUNK_EVENTS {
        return Err(ClientError::ChunkTooLarge(opts.chunk_events));
    }
    let PushProgress { out, resumed_from: resume_seen } = progress;
    protocol::write_preamble(conn)?;
    conn.flush()?;
    protocol::read_preamble(conn)?;
    let hello = Hello {
        session: opts.session.clone(),
        spec: opts.spec.encode(),
        checkpoint_every: opts.checkpoint_every,
        names,
    };
    out.send(conn, [&Frame::Hello(hello)])?;
    conn.flush()?;
    // The highest `SyncAck` nonce read so far.
    let mut acked: u64 = 0;
    let resumed_from = match read_reply(conn, &mut acked, u64::MAX)? {
        Some(Frame::HelloAck { resume_from, .. }) => resume_from,
        _ => return Err(ClientError::Unexpected("wanted HelloAck")),
    };
    *resume_seen = Some(resumed_from);

    // Positions are absolute: the chunker starts at the server's
    // watermark so every frame says exactly where it belongs, and the
    // server can drop any overlap without double-counting.
    let mut chunker = FrameChunker::with_base(opts.chunk_events.max(1), resumed_from);
    let mut chunks: u64 = 0;
    let mut queries: u64 = 0;
    let mut last_query_json: Option<String> = None;
    let mut last_watch = Instant::now();
    for ev in events.into_iter().skip(resumed_from as usize) {
        let Some(frame) = chunker.push(ev) else {
            chunker.refused().map_or(Ok(()), |e| Err(ClientError::OffThread(e)))?;
            continue;
        };
        out.send(conn, [&frame])?;
        chunks += 1;
        if let Some(ms) = opts.watch_ms {
            if last_watch.elapsed().as_millis() as u64 >= ms {
                queries += 1;
                last_query_json = Some(watch_query(out, conn, &mut acked, &opts.session, queries)?);
                last_watch = Instant::now();
            }
        }
        if opts.throttle_ms > 0 {
            conn.flush()?;
            std::thread::sleep(std::time::Duration::from_millis(opts.throttle_ms));
        }
        if opts.sync_every_chunks > 0 && chunks.is_multiple_of(opts.sync_every_chunks) {
            let nonce = chunks / opts.sync_every_chunks;
            out.send(conn, [&Frame::Sync { nonce }])?;
            conn.flush()?;
            // One window in flight: wait for the previous probe's ack
            // (everything sent ahead of it is consumed), and let the
            // server work through this window while the next is built.
            if read_reply(conn, &mut acked, nonce - 1)?.is_some() {
                return Err(ClientError::Unexpected("wanted SyncAck"));
            }
        }
    }
    // End of stream: the trailing partial chunk goes out before the
    // stats/finish exchange.
    out.send(conn, chunker.flush().iter())?;
    conn.flush()?;

    // Watch mode always ends with one query after the last event: the
    // complete live report, which must equal the post-hoc passes.
    if opts.watch_ms.is_some() {
        queries += 1;
        last_query_json = Some(watch_query(out, conn, &mut acked, &opts.session, queries)?);
    }

    let stats_json = if opts.request_stats {
        out.send(conn, [&Frame::StatsRequest])?;
        conn.flush()?;
        match read_reply(conn, &mut acked, u64::MAX)? {
            Some(Frame::Stats { json }) => Some(json),
            _ => return Err(ClientError::Unexpected("wanted Stats")),
        }
    } else {
        None
    };

    out.send(conn, [&Frame::Finish])?;
    conn.flush()?;
    let report = match read_reply(conn, &mut acked, u64::MAX)? {
        Some(Frame::Report { text }) => text,
        _ => return Err(ClientError::Unexpected("wanted Report")),
    };
    Ok(PushOutcome {
        report,
        resumed_from,
        events_sent: out.events_written(),
        stats_json,
        queries,
        last_query_json,
    })
}

/// Reconnect policy for [`push_with_retry`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Connection attempts without watermark progress before giving up
    /// (minimum 1). Any reconnect that finds the server's resume
    /// position advanced refills the budget: a client that moves the
    /// stream forward on every connection keeps going no matter how
    /// often the link drops, while a stalled one stays bounded.
    pub max_attempts: u32,
    /// First backoff delay; doubles per consecutive failure.
    pub base_delay_ms: u64,
    /// Backoff ceiling (also caps a server `Busy` hint).
    pub max_delay_ms: u64,
    /// Jitter seed, so concurrent clients don't reconnect in lockstep.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 5, base_delay_ms: 100, max_delay_ms: 2_000, seed: 0 }
    }
}

/// What [`push_with_retry`] survived on the way to its outcome.
#[derive(Debug, Clone)]
pub struct RetryOutcome {
    /// The successful push.
    pub outcome: PushOutcome,
    /// Reconnects after a failure (connection attempts used, less one).
    pub reconnects: u32,
    /// `Busy` refusals honored (waited and retried).
    pub busy_waits: u32,
    /// Events sent more than once across attempts — the duplicated
    /// work the positional protocol discarded server-side.
    pub events_resent: u64,
    /// Wall-clock spent between the first failure and final success.
    pub recovery_ms_total: u64,
    /// Watch-mode reconnects that landed in a *fresh* session (the
    /// server held no checkpoint for this name): the live analysis
    /// state restarted from zero. Each occurrence is warned on stderr
    /// rather than silently producing reset counters.
    pub watch_resets: u32,
}

/// Bounded exponential backoff with deterministic downward jitter:
/// `base * 2^attempt`, capped at `max`, minus a seed-derived slice of
/// up to a quarter of the delay. Shared by the service client and the
/// CLI's connect loop.
pub fn backoff_delay_ms(base_ms: u64, max_ms: u64, attempt: u32, seed: u64) -> u64 {
    let exp = base_ms.max(1).saturating_mul(1u64 << attempt.min(20));
    let capped = exp.min(max_ms.max(base_ms.max(1)));
    let jitter = (seed ^ u64::from(attempt + 1).wrapping_mul(7919)) % (capped / 4 + 1);
    capped - jitter
}

/// Pushes `events` until the session completes, surviving disconnects,
/// server shutdowns/hibernations and `Busy` backpressure: each attempt
/// reconnects via `connect`, re-`Hello`s the same session, and resumes
/// from the watermark the server reports. Positional frames make the
/// resend overlap (and any wire-level duplication) land exactly once in
/// the profile.
pub fn push_with_retry<C: Read + Write>(
    mut connect: impl FnMut() -> std::io::Result<C>,
    names: &[String],
    events: &[TraceEvent],
    opts: &PushOptions,
    policy: &RetryPolicy,
) -> Result<RetryOutcome, ClientError> {
    let max_attempts = policy.max_attempts.max(1);
    let mut attempts = 0u32;
    let mut busy_waits = 0u32;
    let mut sent_total = 0u64;
    let mut first_resume: Option<u64> = None;
    let mut first_failure: Option<Instant> = None;
    let mut consecutive_failures = 0u32;
    let mut stalled_attempts = 0u32;
    let mut last_watermark = 0u64;
    let mut watch_resets = 0u32;
    // The last `Error` a server sent (a shutdown saying whether it saved
    // the session) outranks the refused connections after it.
    let mut last_word: Option<ClientError> = None;
    // A reconnect in watch mode that is handed `resume_from: 0` after
    // events were already delivered landed in a FRESH session: the
    // server was not keeping this session durable (no checkpoint dir,
    // or the name's checkpoints were lost), so the incremental analysis
    // state behind the watch stream restarted from zero. Warn instead
    // of letting the watcher silently see counters jump backwards.
    let note_watch_reset = |progress: &PushProgress, attempts: u32, delivered: bool| -> u32 {
        if opts.watch_ms.is_some() && attempts > 1 && delivered && progress.resumed_from == Some(0)
        {
            eprintln!(
                "depprof: warning: session '{}' was not durable on the server; the live \
                 analysis behind --watch restarted from zero after reconnect (serve with \
                 --checkpoint-dir to keep watch state across drops)",
                opts.session
            );
            1
        } else {
            0
        }
    };
    loop {
        attempts += 1;
        let mut progress = PushProgress::default();
        let err = match connect() {
            Ok(mut conn) => {
                match push_once(
                    &mut conn,
                    names.to_vec(),
                    events.iter().cloned(),
                    opts,
                    &mut progress,
                ) {
                    Ok(outcome) => {
                        watch_resets += note_watch_reset(&progress, attempts, sent_total > 0);
                        sent_total += progress.out.events_written();
                        let unique =
                            (events.len() as u64).saturating_sub(first_resume.unwrap_or(0));
                        return Ok(RetryOutcome {
                            outcome,
                            reconnects: attempts - 1,
                            busy_waits,
                            events_resent: sent_total.saturating_sub(unique),
                            recovery_ms_total: first_failure
                                .map(|t| t.elapsed().as_millis() as u64)
                                .unwrap_or(0),
                            watch_resets,
                        });
                    }
                    Err(e) => e,
                }
            }
            Err(e) => ClientError::Protocol(ProtocolError::Io(e)),
        };
        watch_resets += note_watch_reset(&progress, attempts, sent_total > 0);
        sent_total += progress.out.events_written();
        if first_resume.is_none() {
            first_resume = progress.resumed_from;
        }
        // The budget bounds attempts WITHOUT progress: a reconnect that
        // finds the watermark advanced proves the previous connection
        // delivered events durably, so the loop is converging.
        let watermark = progress.resumed_from.unwrap_or(0);
        if watermark > last_watermark {
            last_watermark = watermark;
            stalled_attempts = 0;
            consecutive_failures = 0;
        }
        stalled_attempts += 1;
        if !err.is_retryable() || stalled_attempts >= max_attempts {
            let transport = matches!(err, ClientError::Protocol(_));
            return Err(last_word.filter(|_| transport).unwrap_or(err));
        }
        first_failure.get_or_insert_with(Instant::now);
        let delay = match err {
            ClientError::Busy { retry_after_ms } => {
                busy_waits += 1;
                retry_after_ms.min(policy.max_delay_ms.max(1))
            }
            _ => {
                consecutive_failures += 1;
                backoff_delay_ms(
                    policy.base_delay_ms,
                    policy.max_delay_ms,
                    consecutive_failures - 1,
                    policy.seed,
                )
            }
        };
        if matches!(err, ClientError::Server { .. }) {
            last_word = Some(err);
        }
        std::thread::sleep(std::time::Duration::from_millis(delay));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io;

    /// A connection that fails the test on any I/O.
    struct Untouched;

    impl Read for Untouched {
        fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
            panic!("read before the options were checked")
        }
    }

    impl Write for Untouched {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            panic!("wrote before the options were checked")
        }

        fn flush(&mut self) -> io::Result<()> {
            panic!("flushed before the options were checked")
        }
    }

    /// A chunk larger than any reader takes is refused before the
    /// connection is used, for good: every reader would refuse the frame,
    /// and a retry would send it again.
    #[test]
    fn chunks_larger_than_a_frame_holds_are_refused_before_any_io() {
        let opts = PushOptions { chunk_events: MAX_CHUNK_EVENTS + 1, ..PushOptions::default() };
        let err = push_events(&mut Untouched, vec![], [], &opts).unwrap_err();
        assert!(matches!(err, ClientError::ChunkTooLarge(n) if n == MAX_CHUNK_EVENTS + 1));
        assert!(!err.is_retryable());
        assert!(err.to_string().contains(&MAX_CHUNK_EVENTS.to_string()), "{err}");
        let policy = RetryPolicy::default();
        let retried = push_with_retry(|| Ok(Untouched), &[], &[], &opts, &policy);
        assert!(matches!(retried, Err(ClientError::ChunkTooLarge(_))));
    }

    /// A server that answered the handshake, then sent its last word and
    /// closed: every write past the `Hello` breaks the pipe, and the read
    /// side holds what the server said.
    struct Hungup {
        replies: io::Cursor<Vec<u8>>,
        writes_left: usize,
    }

    impl Read for Hungup {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.replies.read(buf)
        }
    }

    impl Write for Hungup {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.writes_left == 0 {
                return Err(io::ErrorKind::BrokenPipe.into());
            }
            self.writes_left -= 1;
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A push whose write finds the server gone reports the `Error` the
    /// server sent before it closed, not the broken pipe; without one, the
    /// broken pipe it is.
    #[test]
    fn a_broken_pipe_reports_the_servers_last_word() {
        let push = |last: Option<Frame>| {
            let mut replies = Vec::new();
            protocol::write_preamble(&mut replies).unwrap();
            let ack = Frame::HelloAck { session_id: 1, resume_from: 0 };
            [ack].iter().chain(&last).for_each(|f| f.encode_into(&mut replies));
            // The preamble's magic and version, then the `Hello`.
            let mut conn = Hungup { replies: io::Cursor::new(replies), writes_left: 3 };
            let ev = TraceEvent::CallBegin { func: 1, thread: 0, ts: 0 };
            let opts = PushOptions { chunk_events: 1, ..PushOptions::default() };
            push_events(&mut conn, vec![], [ev], &opts).unwrap_err()
        };
        let message = "server shutting down; not durable, nothing saved";
        let said = push(Some(Frame::Error { code: error_code::SHUTDOWN, message: message.into() }));
        assert!(
            matches!(&said, ClientError::Server { code: error_code::SHUTDOWN, message: m } if m == message),
            "{said}"
        );
        let silent = push(None);
        assert!(
            matches!(&silent, ClientError::Protocol(ProtocolError::Io(e)) if e.kind() == io::ErrorKind::BrokenPipe),
            "{silent}"
        );
    }

    /// A server that holds every `SyncAck` back: `SyncAck{n}` goes out
    /// once it has read `Sync{n+1}`, or ahead of its answer to the next
    /// `Query`, `StatsRequest` or `Finish`. It notes, at every `Sync` the
    /// client writes, how many earlier `Sync`s the client has read no ack
    /// for.
    #[derive(Default)]
    struct Laggard {
        replies: Vec<u8>,
        /// Bytes of `replies` the client has read.
        read: usize,
        preamble_left: usize,
        held: Vec<u64>,
        /// Released acks: the nonce and where its frame ends in `replies`.
        released: Vec<(u64, usize)>,
        unacked_at_sync: Vec<u64>,
    }

    impl Laggard {
        fn new() -> Self {
            let mut replies = Vec::new();
            protocol::write_preamble(&mut replies).unwrap();
            Laggard { replies, preamble_left: protocol::PREAMBLE_BYTES, ..Laggard::default() }
        }

        fn reply(&mut self, frame: Frame) {
            frame.encode_into(&mut self.replies);
        }

        fn release_below(&mut self, bound: u64) {
            for nonce in std::mem::take(&mut self.held) {
                if nonce < bound {
                    self.reply(Frame::SyncAck { nonce, position: 0 });
                    self.released.push((nonce, self.replies.len()));
                } else {
                    self.held.push(nonce);
                }
            }
        }

        fn answer(&mut self, frame: Frame) {
            match frame {
                Frame::Hello(_) => self.reply(Frame::HelloAck { session_id: 1, resume_from: 0 }),
                Frame::Chunk { .. } => {}
                Frame::Sync { nonce } => {
                    let read = self.released.iter().filter(|&&(_, end)| end <= self.read);
                    let acks_read = read.map(|&(n, _)| n).max().unwrap_or(0);
                    self.unacked_at_sync.push(nonce - 1 - acks_read);
                    self.release_below(nonce);
                    self.held.push(nonce);
                }
                Frame::Query { id, kind } => {
                    self.release_below(u64::MAX);
                    self.reply(Frame::QueryResult { id, kind, json: "{}".into() });
                }
                Frame::StatsRequest => {
                    self.release_below(u64::MAX);
                    self.reply(Frame::Stats { json: "{}".into() });
                }
                Frame::Finish => {
                    self.release_below(u64::MAX);
                    self.reply(Frame::Report { text: "report".into() });
                }
                other => panic!("client sent {other:?}"),
            }
        }
    }

    impl Read for Laggard {
        /// Nothing left to read is the end of the stream: a client that
        /// waits for an ack the server holds back fails, not hangs.
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = (&self.replies[self.read..]).read(buf)?;
            self.read += n;
            Ok(n)
        }
    }

    impl Write for Laggard {
        /// Every write past the preamble is whole frames (one
        /// `FrameSender::send`).
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let skip = self.preamble_left.min(buf.len());
            self.preamble_left -= skip;
            let mut frames = &buf[skip..];
            while let Some(frame) = protocol::read_frame(&mut frames, MAX_FRAME_BYTES).unwrap() {
                self.answer(frame);
            }
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn calls(n: u32) -> Vec<TraceEvent> {
        (0..n).map(|func| TraceEvent::CallBegin { func, thread: 0, ts: 0 }).collect()
    }

    /// The push streams on past each `Sync` and waits only for the ack
    /// of the one before it: a server that acks a window once the next
    /// one has been announced is served, with one `Sync` unacknowledged
    /// whenever the client writes another.
    #[test]
    fn a_sync_window_stays_in_flight() {
        let mut conn = Laggard::new();
        let opts = PushOptions { chunk_events: 1, sync_every_chunks: 2, ..PushOptions::default() };
        let outcome = push_events(&mut conn, vec![], calls(13), &opts).expect("push completes");
        assert_eq!((outcome.report.as_str(), outcome.events_sent), ("report", 13));
        assert_eq!(conn.unacked_at_sync, [0, 1, 1, 1, 1, 1]);
    }

    /// Acks read ahead of a `QueryResult` or `Stats` count toward the
    /// window wait: a push that dropped them would wait for an ack the
    /// server already sent.
    #[test]
    fn acks_read_ahead_of_other_answers_count() {
        let mut conn = Laggard::new();
        let opts = PushOptions {
            chunk_events: 1,
            sync_every_chunks: 1,
            watch_ms: Some(0),
            request_stats: true,
            ..PushOptions::default()
        };
        let outcome = push_events(&mut conn, vec![], calls(6), &opts).expect("push completes");
        assert_eq!((outcome.queries, outcome.stats_json.as_deref()), (7, Some("{}")));
        assert_eq!(conn.unacked_at_sync, [0; 6]);
    }

    /// A server that says it is shutting down, then stays down: the push
    /// whose reconnects are all refused reports what the server last
    /// said, not the refusals.
    #[test]
    fn a_push_out_of_retries_reports_the_servers_last_word() {
        let message = "server shutting down; emergency checkpoint at event 3008";
        let mut attempts = 0;
        let connect = || {
            attempts += 1;
            if attempts > 1 {
                return Err(io::ErrorKind::ConnectionRefused.into());
            }
            let mut replies = Vec::new();
            protocol::write_preamble(&mut replies).unwrap();
            let shutdown = Frame::Error { code: error_code::SHUTDOWN, message: message.into() };
            shutdown.encode_into(&mut replies);
            Ok(Hungup { replies: io::Cursor::new(replies), writes_left: usize::MAX })
        };
        let ev = TraceEvent::CallBegin { func: 1, thread: 0, ts: 0 };
        let policy = RetryPolicy { max_attempts: 3, base_delay_ms: 1, max_delay_ms: 1, seed: 0 };
        let err = push_with_retry(connect, &[], &[ev], &PushOptions::default(), &policy)
            .expect_err("the server stays down");
        assert!(
            matches!(&err, ClientError::Server { code: error_code::SHUTDOWN, message: m } if m == message),
            "{err}"
        );
        assert_eq!(attempts, 3);
    }
}
