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
use dp_trace::stream::{FrameChunker, DEFAULT_CHUNK_EVENTS};
use dp_types::protocol::{self, error_code, Frame, Hello, ProtocolError, MAX_FRAME_BYTES};
use dp_types::TraceEvent;
use std::fmt;
use std::io::{Read, Write};
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
    /// Events of every kind per `Chunk` frame.
    pub chunk_events: usize,
    /// Sleep this long between chunk frames (throttles the stream so
    /// tests can interrupt a push mid-session deterministically).
    pub throttle_ms: u64,
    /// Request the per-session metrics snapshot before finishing.
    pub request_stats: bool,
    /// Send a `Sync` watermark probe every N chunks and wait for its
    /// `SyncAck` (0 = never) — applicative backpressure plus a durable
    /// high-water mark for duplicated-work accounting.
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
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        ClientError::Protocol(e)
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
            ClientError::Unexpected(_) => false,
        }
    }
}

fn read_reply(conn: &mut impl Read) -> Result<Frame, ClientError> {
    match protocol::read_frame(conn, MAX_FRAME_BYTES)? {
        Some(Frame::Error { code, message }) => Err(ClientError::Server { code, message }),
        Some(Frame::Busy { retry_after_ms }) => Err(ClientError::Busy { retry_after_ms }),
        Some(f) => Ok(f),
        None => Err(ClientError::Protocol(ProtocolError::Wire(dp_types::WireError::Truncated))),
    }
}

/// Like [`read_reply`], but skips stray `SyncAck` frames — a duplicated
/// `Sync` on a chaotic link produces an extra ack that would otherwise
/// land where `Stats` or `Report` is expected.
fn read_reply_skipping_acks(conn: &mut impl Read) -> Result<Frame, ClientError> {
    loop {
        match read_reply(conn)? {
            Frame::SyncAck { .. } => continue,
            f => return Ok(f),
        }
    }
}

/// The sending end of a frame stream: each frame is encoded into one
/// reused buffer and written out with one `write_all`.
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

    /// Writes `frame` out.
    pub fn send(&mut self, conn: &mut impl Write, frame: &Frame) -> Result<(), ProtocolError> {
        self.buf.clear();
        frame.encode_into(&mut self.buf);
        conn.write_all(&self.buf)?;
        if let Frame::Chunk { events, .. } = frame {
            self.events_written += events.len() as u64;
        }
        Ok(())
    }

    /// Flushes the transport.
    pub fn flush(&mut self, conn: &mut impl Write) -> Result<(), ProtocolError> {
        conn.flush()?;
        Ok(())
    }

    /// Events carried by `Chunk` frames the transport accepted whole —
    /// what a retry loop may count as sent.
    pub fn events_written(&self) -> u64 {
        self.events_written
    }
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

/// Issues one `Query(ALL)` round-trip, skipping stray `SyncAck`s, and
/// prints the snapshot to stderr (the watch stream).
fn watch_query(
    out: &mut FrameSender,
    conn: &mut (impl Read + Write),
    session: &str,
    id: u64,
) -> Result<String, ClientError> {
    out.send(conn, &Frame::Query { id, kind: protocol::query_kind::ALL })?;
    out.flush(conn)?;
    loop {
        match read_reply(conn)? {
            Frame::QueryResult { json, .. } => {
                eprintln!("[watch {session}] {json}");
                return Ok(json);
            }
            Frame::SyncAck { .. } => continue,
            _ => return Err(ClientError::Unexpected("wanted QueryResult")),
        }
    }
}

/// Runs one full push session over `conn`: preamble, `Hello` carrying
/// `names` (the trace's variable table, in id order), the event stream
/// (skipping whatever the server already profiled), `Finish`, report.
pub fn push_events(
    conn: &mut (impl Read + Write),
    names: Vec<String>,
    events: impl IntoIterator<Item = TraceEvent>,
    opts: &PushOptions,
) -> Result<PushOutcome, ClientError> {
    push_once(conn, names, events, opts, &mut PushProgress::default())
}

fn push_once(
    conn: &mut (impl Read + Write),
    names: Vec<String>,
    events: impl IntoIterator<Item = TraceEvent>,
    opts: &PushOptions,
    progress: &mut PushProgress,
) -> Result<PushOutcome, ClientError> {
    let PushProgress { out, resumed_from: resume_seen } = progress;
    protocol::write_preamble(conn).map_err(ProtocolError::Io)?;
    conn.flush().map_err(ProtocolError::Io)?;
    protocol::read_preamble(conn)?;
    out.send(
        conn,
        &Frame::Hello(Hello {
            session: opts.session.clone(),
            spec: opts.spec.encode(),
            checkpoint_every: opts.checkpoint_every,
            names,
        }),
    )?;
    out.flush(conn)?;
    let resumed_from = match read_reply(conn)? {
        Frame::HelloAck { resume_from, .. } => resume_from,
        _ => return Err(ClientError::Unexpected("wanted HelloAck")),
    };
    *resume_seen = Some(resumed_from);

    // Positions are absolute: the chunker starts at the server's
    // watermark so every frame says exactly where it belongs, and the
    // server can drop any overlap without double-counting.
    let mut chunker = FrameChunker::with_base(opts.chunk_events.max(1), resumed_from);
    let mut skipped: u64 = 0;
    let mut chunks_since_sync: u64 = 0;
    let mut sync_nonce: u64 = 0;
    let mut queries: u64 = 0;
    let mut last_query_json: Option<String> = None;
    let mut last_watch = Instant::now();
    for ev in events {
        if skipped < resumed_from {
            skipped += 1;
            continue;
        }
        let Some(frame) = chunker.push(ev) else { continue };
        out.send(conn, &frame)?;
        chunks_since_sync += 1;
        if let Some(ms) = opts.watch_ms {
            if last_watch.elapsed().as_millis() as u64 >= ms {
                queries += 1;
                last_query_json = Some(watch_query(out, conn, &opts.session, queries)?);
                last_watch = Instant::now();
            }
        }
        if opts.throttle_ms > 0 {
            out.flush(conn)?;
            std::thread::sleep(std::time::Duration::from_millis(opts.throttle_ms));
        }
        if opts.sync_every_chunks > 0 && chunks_since_sync >= opts.sync_every_chunks {
            chunks_since_sync = 0;
            sync_nonce += 1;
            out.send(conn, &Frame::Sync { nonce: sync_nonce })?;
            out.flush(conn)?;
            // Wait for this probe's ack (skipping acks of any duplicated
            // earlier probes): everything sent so far is consumed — a
            // durable watermark.
            loop {
                match read_reply(conn)? {
                    Frame::SyncAck { nonce, .. } if nonce == sync_nonce => break,
                    Frame::SyncAck { .. } => continue,
                    _ => return Err(ClientError::Unexpected("wanted SyncAck")),
                }
            }
        }
    }
    // End of stream: the trailing partial chunk goes out before the
    // stats/finish exchange.
    if let Some(frame) = chunker.flush() {
        out.send(conn, &frame)?;
    }
    out.flush(conn)?;

    // Watch mode always ends with one query after the last event: the
    // complete live report, which must equal the post-hoc passes.
    if opts.watch_ms.is_some() {
        queries += 1;
        last_query_json = Some(watch_query(out, conn, &opts.session, queries)?);
    }

    let stats_json = if opts.request_stats {
        out.send(conn, &Frame::StatsRequest)?;
        out.flush(conn)?;
        match read_reply_skipping_acks(conn)? {
            Frame::Stats { json } => Some(json),
            _ => return Err(ClientError::Unexpected("wanted Stats")),
        }
    } else {
        None
    };

    out.send(conn, &Frame::Finish)?;
    out.flush(conn)?;
    let report = match read_reply_skipping_acks(conn)? {
        Frame::Report { text } => text,
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
    /// Connection attempts used (1 = no faults encountered).
    pub attempts: u32,
    /// Reconnects after a mid-stream failure (`attempts - 1`).
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
                            attempts,
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
            return Err(err);
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
        std::thread::sleep(std::time::Duration::from_millis(delay));
    }
}
