//! The benchmark's own push client, used only by the traced pass of the
//! served workloads: the product client's exchange (`push_events`), built
//! from the same public pieces — `FrameChunker`, `write_frame`,
//! `read_frame` — with a span around each protocol step and counts of the
//! frames and bytes it writes. The untraced passes use the product client.

use crate::spans::Recorder;
use crate::workloads::Input;
use depprof::server::{PushOptions, PushOutcome};
use depprof::trace::FrameChunker;
use depprof::types::protocol::{self, query_kind, Frame, Hello, MAX_FRAME_BYTES};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// Counts the frames (one `write_all` each) and bytes written through it.
struct Counting<'a> {
    conn: &'a TcpStream,
    frames: u64,
    bytes: u64,
}

impl Write for Counting<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.conn.write(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }

    fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
        self.frames += 1;
        self.bytes += buf.len() as u64;
        self.conn.write_all(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.conn.flush()
    }
}

fn send(out: &mut Counting<'_>, frame: &Frame) -> Result<(), String> {
    protocol::write_frame(out, frame).map_err(|e| e.to_string())
}

/// Reads the next reply, skipping stray `SyncAck`s unless one is wanted.
fn reply(conn: &mut &TcpStream, want_ack: bool) -> Result<Frame, String> {
    loop {
        match protocol::read_frame(conn, MAX_FRAME_BYTES).map_err(|e| e.to_string())? {
            Some(Frame::Error { code, message }) => {
                return Err(format!("server error {code}: {message}"))
            }
            Some(Frame::Busy { retry_after_ms }) => {
                return Err(format!("server busy (retry after {retry_after_ms} ms)"))
            }
            Some(Frame::SyncAck { .. }) if !want_ack => continue,
            Some(f) => return Ok(f),
            None => return Err("server closed the connection".into()),
        }
    }
}

fn query(
    out: &mut Counting<'_>,
    conn: &mut &TcpStream,
    id: u64,
    rec: &mut Recorder,
) -> Result<String, String> {
    rec.within("query", || {
        send(out, &Frame::Query { id, kind: query_kind::ALL })?;
        match reply(conn, false)? {
            Frame::QueryResult { json, .. } => Ok(json),
            _ => Err("wanted QueryResult".into()),
        }
    })
}

/// Pushes `input` as one session the way `push_events` does for `opts`,
/// recording spans `session ⊃ {connect, stream ⊃ {sync, query}, finish}`.
pub fn traced_push(
    addr: SocketAddr,
    input: &Input,
    opts: &PushOptions,
    rec: &mut Recorder,
) -> Result<PushOutcome, String> {
    let session = rec.open("session");
    let outcome = push(addr, input, opts, rec);
    rec.close(session);
    outcome
}

fn push(
    addr: SocketAddr,
    input: &Input,
    opts: &PushOptions,
    rec: &mut Recorder,
) -> Result<PushOutcome, String> {
    let span = rec.open("connect");
    let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut conn = &stream;
    let mut out = Counting { conn: &stream, frames: 0, bytes: 0 };
    protocol::write_preamble(&mut out).map_err(|e| e.to_string())?;
    protocol::read_preamble(&mut conn).map_err(|e| e.to_string())?;
    send(
        &mut out,
        &Frame::Hello(Hello {
            session: opts.session.clone(),
            spec: opts.spec.encode(),
            checkpoint_every: opts.checkpoint_every,
            names: input.names.clone(),
        }),
    )?;
    let resumed_from = match reply(&mut conn, false)? {
        Frame::HelloAck { resume_from, .. } => resume_from,
        _ => return Err("wanted HelloAck".into()),
    };
    rec.close(span);
    if resumed_from != 0 {
        return Err(format!("fresh session resumed from {resumed_from}"));
    }

    let span = rec.open("stream");
    let mut chunker = FrameChunker::new(opts.chunk_events.max(1));
    let mut chunks_since_sync = 0u64;
    let mut sync_nonce = 0u64;
    let mut queries = 0u64;
    let mut last_query_json = None;
    let mut last_watch = Instant::now();
    let mut events_sent = 0u64;
    for ev in input.events().iter() {
        for frame in chunker.push(*ev) {
            send(&mut out, &frame)?;
            if !matches!(frame, Frame::Chunk { .. }) {
                continue;
            }
            chunks_since_sync += 1;
            if opts.watch_ms.is_some_and(|ms| last_watch.elapsed().as_millis() as u64 >= ms) {
                queries += 1;
                last_query_json = Some(query(&mut out, &mut conn, queries, rec)?);
                last_watch = Instant::now();
            }
            if opts.sync_every_chunks > 0 && chunks_since_sync >= opts.sync_every_chunks {
                chunks_since_sync = 0;
                sync_nonce += 1;
                rec.within("sync", || {
                    send(&mut out, &Frame::Sync { nonce: sync_nonce })?;
                    loop {
                        match reply(&mut conn, true)? {
                            Frame::SyncAck { nonce, .. } if nonce == sync_nonce => return Ok(()),
                            Frame::SyncAck { .. } => continue,
                            _ => return Err("wanted SyncAck".to_string()),
                        }
                    }
                })?;
            }
        }
        events_sent += 1;
    }
    if let Some(frame) = chunker.flush() {
        send(&mut out, &frame)?;
    }
    if opts.watch_ms.is_some() {
        queries += 1;
        last_query_json = Some(query(&mut out, &mut conn, queries, rec)?);
    }
    rec.close(span);

    let span = rec.open("finish");
    send(&mut out, &Frame::Finish)?;
    let report = match reply(&mut conn, false)? {
        Frame::Report { text } => text,
        _ => return Err("wanted Report".into()),
    };
    rec.close(span);
    rec.count("server.frames", out.frames);
    rec.count("server.bytes_sent", out.bytes);
    Ok(PushOutcome {
        report,
        resumed_from,
        events_sent,
        stats_json: None,
        queries,
        last_query_json,
    })
}
