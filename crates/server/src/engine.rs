//! The socket-free session state machine: frames in, frames out.
//!
//! One [`SessionEngine`] owns one profiling engine
//! ([`ProfileSession`]) and the session's durability state. Both
//! socket front-ends (TCP and Unix) and the in-process equivalence
//! tests drive it the same way: [`SessionEngine::open`] on the `Hello`
//! frame, [`SessionEngine::handle`] for everything after.

use dp_analysis::incremental::json_string;
use dp_analysis::OnlineAnalysis;
use dp_core::{
    report, CheckpointError, CheckpointMetrics, CheckpointStore, ProfileResult, ProfileSession,
    SessionSpec,
};
use dp_metrics::{ServiceMetrics, SessionMetrics};
use dp_trace::stream::intern_names;
use dp_types::protocol::{
    error_code, query_kind, ChunkView, Frame, Hello, ProtocolError, TAG_CHUNK,
};
use dp_types::{Interner, Record, WireError};
use std::fmt;
use std::path::Path;

/// Why a session could not be opened or continued. The server converts
/// these into `Error` frames; in-process drivers get them typed.
#[derive(Debug)]
pub enum SessionError {
    /// The `Hello` frame's engine spec did not decode.
    BadSpec(WireError),
    /// A frame's payload did not decode.
    Malformed(ProtocolError),
    /// A frame arrived that the session's state does not allow (a
    /// second `Hello`, events after `Finish`, ...).
    OutOfOrder(&'static str),
    /// The session's checkpoint could not be quiesced or written.
    Checkpoint(CheckpointError),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::BadSpec(e) => write!(f, "session spec is malformed: {e}"),
            SessionError::Malformed(e) => write!(f, "{e}"),
            SessionError::OutOfOrder(what) => write!(f, "frame out of protocol order: {what}"),
            SessionError::Checkpoint(e) => write!(f, "session checkpoint failed: {e}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl SessionError {
    /// The `Error` frame this failure maps to on the wire: a failed
    /// checkpoint is the server's storage at fault (`ENGINE`), anything
    /// else the client's frames (`BAD_FRAME`).
    pub fn to_frame(&self) -> Frame {
        let server = matches!(self, SessionError::Checkpoint(_));
        let code = if server { error_code::ENGINE } else { error_code::BAD_FRAME };
        Frame::Error { code, message: self.to_string() }
    }
}

/// Longest session name a `Hello` may carry, in bytes.
const MAX_SESSION_NAME: usize = 64;

/// Names a session's checkpoint subdirectory, one name to one directory:
/// `[a-z0-9-]` stay, every other byte (uppercase too, for filesystems
/// that ignore case) becomes `_` and two lowercase hex digits, and the
/// empty name is `_`.
fn dir_name(name: &str) -> String {
    if name.is_empty() {
        return "_".into();
    }
    let keep = |b: u8| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-';
    name.bytes().map(|b| if keep(b) { (b as char).into() } else { format!("_{b:02x}") }).collect()
}

/// One client session: engine + interner + checkpoint state + counters.
pub struct SessionEngine {
    name: String,
    session_id: u64,
    session: Option<ProfileSession>,
    spec: SessionSpec,
    interner: Interner,
    /// The session's checkpoint store: present exactly when the server
    /// has a checkpoint base, which is what makes it durable.
    store: Option<CheckpointStore>,
    /// Absolute stream position: events profiled across all incarnations
    /// of this session (restored + fed).
    events_fed: u64,
    metrics: SessionMetrics,
    /// Live analysis state of this incarnation, folded from engine
    /// deltas. `None` until the first `Query` frame, whose drain starts
    /// the engine's delta tracking: sessions that never query pay
    /// nothing for the subsystem.
    online: Option<OnlineAnalysis>,
}

impl SessionEngine {
    /// Opens a session from its `Hello` frame. When `checkpoint_base`
    /// is set and holds a valid checkpoint under this session's name,
    /// the engine is rebuilt from it and the returned `HelloAck` tells
    /// the client how many events to skip; otherwise a fresh engine is
    /// built from the `Hello`'s spec.
    pub fn open(
        hello: &Hello,
        session_id: u64,
        checkpoint_base: Option<&Path>,
        default_checkpoint_every: u64,
    ) -> Result<(SessionEngine, Frame), SessionError> {
        if hello.session.len() > MAX_SESSION_NAME {
            let why = "session name is longer than 64 bytes";
            return Err(SessionError::Malformed(WireError::Invalid(why).into()));
        }
        let interner = intern_names(&hello.names)
            .map_err(|why| SessionError::Malformed(WireError::Invalid(why).into()))?;
        let every = match hello.checkpoint_every {
            0 => default_checkpoint_every,
            every => every,
        };
        let dir = checkpoint_base.map(|b| b.join(dir_name(&hello.session)));

        // A valid checkpoint under this session's name wins over the
        // Hello's spec: the resumed engine must match the state it
        // restores, and the checkpoint's CONFIG section records exactly
        // that spec. Anything else opens a fresh run, whose store
        // discards what the directory held.
        let resumed = dir.as_deref().and_then(|dir| {
            let data = CheckpointStore::load_latest(dir).ok()?;
            let spec = SessionSpec::decode(&data.config).ok()?;
            Some((spec, spec.resume(&data).ok()?, data))
        });
        let (spec, session, data) = match resumed {
            Some((spec, session, data)) => (spec, session, Some(data)),
            None => {
                let spec = SessionSpec::decode(&hello.spec).map_err(SessionError::BadSpec)?;
                (spec, spec.build(), None)
            }
        };
        let open = |dir| CheckpointStore::open(dir, every, data.as_ref());
        let store = dir.map(open).transpose().map_err(|e| SessionError::Checkpoint(e.into()))?;
        let service = ServiceMetrics { rehydrated: data.is_some() as u64, ..Default::default() };
        let engine = SessionEngine {
            name: hello.session.clone(),
            session_id,
            session: Some(session),
            spec,
            interner,
            store,
            events_fed: data.map_or(0, |d| d.records_read),
            metrics: SessionMetrics { service, ..SessionMetrics::default() },
            online: None,
        };
        let ack = Frame::HelloAck { session_id, resume_from: engine.events_fed };
        Ok((engine, ack))
    }

    /// Handles one post-`Hello` frame, returning the reply frames to
    /// send (possibly none).
    pub fn handle(&mut self, frame: Frame) -> Result<Vec<Frame>, SessionError> {
        self.admit_frame()?;
        match frame {
            Frame::Hello(_) => Err(SessionError::OutOfOrder("second Hello on one connection")),
            Frame::HelloAck { .. }
            | Frame::Stats { .. }
            | Frame::Report { .. }
            | Frame::SyncAck { .. }
            | Frame::Busy { .. }
            | Frame::QueryResult { .. } => {
                Err(SessionError::OutOfOrder("server-to-client frame sent by client"))
            }
            Frame::Error { .. } => Err(SessionError::OutOfOrder("Error frame sent by client")),
            Frame::Chunk { base, events } => self.feed_chunk(base, events.into_iter()),
            Frame::Sync { nonce } => {
                // Handling is synchronous: every earlier frame on this
                // connection has been fed by the time we reply, so the
                // acked position is a durable watermark.
                self.metrics.syncs += 1;
                Ok(vec![Frame::SyncAck { nonce, position: self.events_fed }])
            }
            Frame::StatsRequest => Ok(vec![Frame::Stats { json: self.metrics().to_json() }]),
            Frame::Query { id, kind } => {
                self.metrics.queries += 1;
                let json = self.answer_query(kind);
                Ok(vec![Frame::QueryResult { id, kind, json }])
            }
            Frame::Finish => {
                let session = self.session.take().expect("unfinished session has an engine");
                let result = session.finish();
                let text = report::render(&result, &self.interner, false);
                // The session completed: its checkpoints are spent, and
                // a future session under this name starts fresh.
                if let Some(store) = &self.store {
                    let _ = std::fs::remove_dir_all(store.dir());
                }
                Ok(vec![Frame::Report { text }])
            }
        }
    }

    /// [`SessionEngine::handle`] for a frame still on the wire: the
    /// checksum-verified `(tag, payload)` a
    /// [`FrameReader`](dp_types::protocol::FrameReader) hands out, and the
    /// one place the payload counts into `bytes_in`. A `Chunk` is fed
    /// its records straight from the borrowed payload, validated whole
    /// first so a malformed one feeds nothing; every other frame is
    /// decoded and handled as usual.
    pub fn handle_wire(&mut self, tag: u8, payload: &[u8]) -> Result<Vec<Frame>, SessionError> {
        self.metrics.bytes_in += payload.len() as u64;
        if tag != TAG_CHUNK {
            return self.handle(Frame::decode(tag, payload).map_err(SessionError::Malformed)?);
        }
        let chunk = ChunkView::parse(payload).map_err(|e| SessionError::Malformed(e.into()))?;
        self.admit_frame()?;
        self.feed_chunk(chunk.base(), chunk.records())
    }

    fn admit_frame(&mut self) -> Result<(), SessionError> {
        if self.finished() {
            return Err(SessionError::OutOfOrder("frame after Finish"));
        }
        self.metrics.frames += 1;
        Ok(())
    }

    /// Feeds the records of a chunk starting at stream position `base`
    /// that lie at or past the watermark, cut only where the store has a
    /// periodic checkpoint fall due, so checkpoints land on the same
    /// positions however the stream was framed.
    fn feed_chunk(
        &mut self,
        base: u64,
        records: impl ExactSizeIterator<Item = Record>,
    ) -> Result<Vec<Frame>, SessionError> {
        self.metrics.chunks += 1;
        if base > self.events_fed {
            return Err(SessionError::OutOfOrder("chunk beyond the stream watermark"));
        }
        // Everything below the watermark was already profiled (resend
        // overlap after a reconnect, or a duplicated frame): skip it
        // exactly, feed only the new suffix.
        let skip = (self.events_fed - base).min(records.len() as u64) as usize;
        self.metrics.service.events_skipped_on_resume += skip as u64;
        let mut fresh = records.skip(skip);
        while fresh.len() > 0 {
            let until_due = self.store.as_ref().map_or(u64::MAX, |s| s.until_due(self.events_fed));
            let now = until_due.min(fresh.len() as u64);
            let session = self.session.as_mut().expect("unfinished session has an engine");
            fresh.by_ref().take(now as usize).for_each(|rec| session.on_record(rec));
            self.metrics.events += now;
            self.events_fed += now;
            if now == until_due {
                self.write_checkpoint()?;
            }
        }
        Ok(Vec::new())
    }

    /// Answers a `Query` frame from incremental state. The first query
    /// of a session (or of a rehydrated incarnation — delta tracking is
    /// not persisted) starts delta tracking on the engine: its drain is
    /// the catch-up, every edge the analyses read, however old, so a
    /// late start loses nothing. Unknown selector values answer like
    /// [`query_kind::ALL`], echoing the kind byte.
    fn answer_query(&mut self, kind: u8) -> String {
        let session = self.session.as_mut().expect("unfinished session has an engine");
        let online = self.online.get_or_insert_with(OnlineAnalysis::new);
        for delta in session.collect_deltas() {
            online.fold(&delta);
        }
        let report = online.report();
        let (loops, comm, races) = match kind {
            query_kind::LOOPS => (true, false, false),
            query_kind::COMM => (false, true, false),
            query_kind::RACES => (false, false, true),
            _ => (true, true, true),
        };
        let body = report.to_json(&self.interner, loops, comm, races);
        format!(
            "{{\"session\":{},\"position\":{},\"deltas\":{},{}",
            json_string(&self.name),
            self.events_fed,
            online.deltas_folded(),
            &body[1..]
        )
    }

    /// Writes a checkpoint at the current stream position (periodic or
    /// emergency); the store makes the session's directory on the first
    /// write. Returns whether a generation was written: none is for a
    /// session that is not durable or no longer holds an engine.
    pub fn write_checkpoint(&mut self) -> Result<bool, SessionError> {
        let (Some(store), Some(session)) = (self.store.as_mut(), self.session.as_mut()) else {
            return Ok(false);
        };
        let config = self.spec.encode();
        store.save(session, self.events_fed, config).map_err(SessionError::Checkpoint)?;
        Ok(true)
    }

    /// Hibernates an idle session: checkpoint the engine to the store
    /// and release it, so `max_sessions` bounds *live* engines rather
    /// than named sessions. A later `Hello` under the same name
    /// rehydrates from the checkpoint and resumes exactly. Only durable
    /// sessions (a checkpoint base was configured) can hibernate.
    pub fn hibernate(&mut self) -> Result<(), SessionError> {
        if !self.write_checkpoint()? {
            return Err(SessionError::OutOfOrder("hibernate of a finished or non-durable session"));
        }
        self.metrics.service.hibernated += 1;
        self.session = None;
        Ok(())
    }

    /// Records how many times a client re-`Hello`ed into this session
    /// name (tracked by the server across connections).
    pub fn set_reconnects(&mut self, reconnects: u64) {
        self.metrics.service.reconnects = reconnects;
    }

    /// Finishes the engine in-process and returns the raw result —
    /// the handle the equivalence tests compare dependence-for-
    /// dependence against an offline replay. The session's service
    /// resilience counters and its store's checkpoint counters are
    /// stamped into the result's snapshot.
    pub fn finish_result(mut self) -> Option<ProfileResult> {
        let metrics = self.metrics();
        self.session.take().map(|s| {
            let mut result = s.finish();
            result.metrics.service = metrics.service;
            result.metrics.checkpoints = metrics.checkpoints;
            result
        })
    }

    /// The session's name as the client sent it.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Server-assigned session id.
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    /// Absolute number of events profiled (restored + fed).
    pub fn position(&self) -> u64 {
        self.events_fed
    }

    /// True once the session let go of its engine: `Finish` was handled,
    /// or it hibernated.
    pub fn finished(&self) -> bool {
        self.session.is_none()
    }

    /// The session's counters, its store's among them.
    pub fn metrics(&self) -> SessionMetrics {
        let checkpoints =
            self.store.as_ref().map_or_else(CheckpointMetrics::default, |s| s.metrics());
        SessionMetrics { checkpoints, ..self.metrics }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_types::loc::loc;
    use dp_types::{MemAccess, TraceEvent};

    fn hello(session: &str, checkpoint_every: u64) -> Hello {
        Hello {
            session: session.into(),
            spec: SessionSpec { slots: 1 << 12, ..SessionSpec::default() }.encode(),
            checkpoint_every,
            names: vec!["*".into(), "x".into()],
        }
    }

    fn access(i: u64) -> Record {
        let a = 0x100 + (i % 9) * 8;
        Record::pack(&TraceEvent::Access(if i.is_multiple_of(4) {
            MemAccess::write(a, 0, loc(1, 1), 1, 0)
        } else {
            MemAccess::read(a, 0, loc(1, 2), 1, 0)
        }))
    }

    fn accesses(range: std::ops::Range<u64>) -> Vec<Record> {
        range.map(access).collect()
    }

    /// A six-iteration loop of five accesses an iteration: `LoopBegin` at
    /// position 0, the `LoopIter`s at 1, 7, 13, ..., `LoopEnd` last.
    fn looped() -> Vec<Record> {
        let mut evs = vec![TraceEvent::LoopBegin { loop_id: 1, loc: loc(1, 3), thread: 0, ts: 0 }];
        for iter in 0..6 {
            evs.push(TraceEvent::LoopIter { loop_id: 1, iter, thread: 0, ts: 0 });
            for _ in 0..5 {
                evs.push(access(evs.len() as u64).unpack(0, 0));
            }
        }
        evs.push(TraceEvent::LoopEnd { loop_id: 1, loc: loc(1, 9), iters: 6, thread: 0, ts: 0 });
        evs.iter().map(Record::pack).collect()
    }

    fn deps(r: &ProfileResult) -> Vec<String> {
        let mut v: Vec<String> =
            r.deps.dependences().map(|(d, val)| format!("{d:?}={val:?}")).collect();
        v.sort();
        v
    }

    #[test]
    fn session_profiles_and_reports() {
        let (mut s, ack) = SessionEngine::open(&hello("t", 0), 1, None, 0).unwrap();
        assert_eq!(ack, Frame::HelloAck { session_id: 1, resume_from: 0 });
        assert!(s.handle(Frame::Chunk { base: 0, events: accesses(0..50) }).unwrap().is_empty());
        let replies = s.handle(Frame::Sync { nonce: 99 }).unwrap();
        assert_eq!(replies, vec![Frame::SyncAck { nonce: 99, position: 50 }]);
        let replies = s.handle(Frame::StatsRequest).unwrap();
        assert!(matches!(&replies[..], [Frame::Stats { json }] if json.contains("\"events\": 50")));
        let replies = s.handle(Frame::Finish).unwrap();
        let [Frame::Report { text }] = &replies[..] else { panic!("expected Report") };
        assert!(text.contains("RAW"), "report should hold dependences:\n{text}");
        assert!(s.handle(Frame::Sync { nonce: 1 }).is_err(), "frames after Finish are rejected");
    }

    #[test]
    fn interrupted_session_resumes_from_checkpoint() {
        let base = std::env::temp_dir().join(format!("dpsv-engine-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let evs = accesses(0..100);

        // Reference: one uninterrupted session.
        let (mut all, _) = SessionEngine::open(&hello("ref", 0), 1, None, 0).unwrap();
        all.handle(Frame::Chunk { base: 0, events: evs.clone() }).unwrap();
        let reference = all.finish_result().unwrap();

        // Interrupted: feed 60, checkpoint (emergency), drop the engine.
        let (mut first, ack) = SessionEngine::open(&hello("job", 10), 2, Some(&base), 0).unwrap();
        assert_eq!(ack, Frame::HelloAck { session_id: 2, resume_from: 0 });
        first.handle(Frame::Chunk { base: 0, events: evs[..60].to_vec() }).unwrap();
        first.write_checkpoint().unwrap();
        drop(first);

        // Reconnect under the same name: resume position is handed back,
        // and an overlapping resend (a client that restarted from 40)
        // dedupes positionally instead of double-counting.
        let (mut second, ack) = SessionEngine::open(&hello("job", 10), 3, Some(&base), 0).unwrap();
        assert_eq!(ack, Frame::HelloAck { session_id: 3, resume_from: 60 });
        assert_eq!(second.metrics().checkpoints.resumed_from, 60);
        assert_eq!(second.metrics().service.rehydrated, 1);
        second.handle(Frame::Chunk { base: 40, events: evs[40..].to_vec() }).unwrap();
        assert_eq!(second.metrics().service.events_skipped_on_resume, 20);
        assert_eq!(second.position(), 100);
        let resumed = second.finish_result().unwrap();
        assert_eq!(resumed.metrics.service.events_skipped_on_resume, 20);

        assert_eq!(reference.stats.accesses, resumed.stats.accesses);
        assert_eq!(deps(&reference), deps(&resumed));
        let _ = std::fs::remove_dir_all(&base);
    }

    /// A resent mixed chunk whose overlap ends just after a loop event:
    /// the skip covers loop events and accesses alike, position for
    /// position, and the resumed session classifies the loop exactly as
    /// an uninterrupted one.
    #[test]
    fn resume_watermark_inside_a_mixed_chunk_skips_loop_events_exactly() {
        let base = std::env::temp_dir().join(format!("dpsv-engine-mixed-{}", std::process::id()));
        let evs = looped();
        let (mut all, _) = SessionEngine::open(&hello("ref", 0), 1, None, 0).unwrap();
        all.handle(Frame::Chunk { base: 0, events: evs.clone() }).unwrap();
        let reference = all.finish_result().unwrap();
        assert!(
            deps(&reference).iter().any(|d| d.contains("carrier: Some(1)")),
            "no carried dependence"
        );

        // Watermarks just after the LoopBegin and just after the second
        // LoopIter; the resend restarts up to three events before them.
        for (watermark, resend_from) in [(1u64, 0u64), (8, 5)] {
            let _ = std::fs::remove_dir_all(&base);
            let (mut first, _) = SessionEngine::open(&hello("job", 10), 2, Some(&base), 0).unwrap();
            let fed = evs[..watermark as usize].to_vec();
            first.handle(Frame::Chunk { base: 0, events: fed }).unwrap();
            first.write_checkpoint().unwrap();
            drop(first);

            let (mut second, ack) =
                SessionEngine::open(&hello("job", 10), 3, Some(&base), 0).unwrap();
            assert_eq!(ack, Frame::HelloAck { session_id: 3, resume_from: watermark });
            let resent = evs[resend_from as usize..].to_vec();
            second.handle(Frame::Chunk { base: resend_from, events: resent }).unwrap();
            let skipped = watermark - resend_from;
            assert_eq!(
                second.metrics().service.events_skipped_on_resume,
                skipped,
                "at {watermark}"
            );
            assert_eq!(second.position(), evs.len() as u64);
            let resumed = second.finish_result().unwrap();
            assert_eq!(deps(&reference), deps(&resumed), "resumed at {watermark}");
        }
        let _ = std::fs::remove_dir_all(&base);
    }

    /// A durable session with no periodic interval still writes its
    /// emergency checkpoint, and only then makes its directory.
    #[test]
    fn emergency_checkpoint_is_written_without_a_periodic_interval() {
        let base = std::env::temp_dir().join(format!("dpsv-engine-every0-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let (mut first, _) = SessionEngine::open(&hello("job", 0), 1, Some(&base), 0).unwrap();
        first.handle(Frame::Chunk { base: 0, events: accesses(0..50) }).unwrap();
        assert!(!base.join("job").exists(), "no directory before the first checkpoint");
        assert!(first.write_checkpoint().unwrap(), "a durable session writes a generation");
        assert_eq!(first.metrics().checkpoints.generations, 1);
        drop(first);
        let (_, ack) = SessionEngine::open(&hello("job", 0), 2, Some(&base), 0).unwrap();
        assert_eq!(ack, Frame::HelloAck { session_id: 2, resume_from: 50 });
        let _ = std::fs::remove_dir_all(&base);

        let (mut ephemeral, _) = SessionEngine::open(&hello("e", 0), 3, None, 0).unwrap();
        ephemeral.handle(Frame::Chunk { base: 0, events: accesses(0..50) }).unwrap();
        assert!(!ephemeral.write_checkpoint().unwrap(), "nothing is saved without a store");
    }

    /// A durable session numbers its generations from 0, writes them at
    /// multiples of its interval of the stream position, and its result
    /// counts them; a rehydrated one continues both.
    #[test]
    fn the_result_counts_the_generations_the_session_wrote() {
        let base = std::env::temp_dir().join(format!("dpsv-engine-count-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let (mut first, _) = SessionEngine::open(&hello("job", 10), 1, Some(&base), 0).unwrap();
        first.handle(Frame::Chunk { base: 0, events: accesses(0..25) }).unwrap();
        first.write_checkpoint().unwrap();
        let latest = CheckpointStore::load_latest(&base.join("job")).unwrap();
        assert_eq!((latest.generation, latest.records_read), (2, 25));
        let result = first.finish_result().unwrap();
        assert_eq!(result.metrics.checkpoints.generations, 3);

        let (mut second, _) = SessionEngine::open(&hello("job", 10), 2, Some(&base), 0).unwrap();
        second.handle(Frame::Chunk { base: 25, events: accesses(25..35) }).unwrap();
        let latest = CheckpointStore::load_latest(&base.join("job")).unwrap();
        assert_eq!((latest.generation, latest.records_read), (3, 30));
        let result = second.finish_result().unwrap();
        assert_eq!(result.metrics.checkpoints.generations, 1);
        assert_eq!(result.metrics.checkpoints.resumed_from, 25);
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn finish_clears_the_checkpoint_dir() {
        let base = std::env::temp_dir().join(format!("dpsv-engine-clear-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let (mut s, _) = SessionEngine::open(&hello("a b/c", 5), 1, Some(&base), 0).unwrap();
        s.handle(Frame::Chunk { base: 0, events: accesses(0..20) }).unwrap();
        assert!(base.join("a_20b_2fc").exists(), "escaped checkpoint dir");
        s.handle(Frame::Finish).unwrap();
        assert!(!base.join("a_20b_2fc").exists(), "spent checkpoints are removed");
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn names_that_differ_never_share_a_checkpoint_dir() {
        let base = std::env::temp_dir().join(format!("dpsv-engine-alias-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let (mut first, _) = SessionEngine::open(&hello("km.1", 10), 1, Some(&base), 0).unwrap();
        first.handle(Frame::Chunk { base: 0, events: accesses(0..30) }).unwrap();
        drop(first);
        for name in ["km_1", "KM.1", "km_2e1"] {
            let (_, ack) = SessionEngine::open(&hello(name, 10), 2, Some(&base), 0).unwrap();
            assert_eq!(ack, Frame::HelloAck { session_id: 2, resume_from: 0 }, "{name}");
        }
        let (_, ack) = SessionEngine::open(&hello("km.1", 10), 3, Some(&base), 0).unwrap();
        assert_eq!(ack, Frame::HelloAck { session_id: 3, resume_from: 30 });
        assert_eq!(dir_name(""), "_");
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn a_name_over_64_bytes_is_refused() {
        let longest = "k".repeat(MAX_SESSION_NAME);
        assert!(SessionEngine::open(&hello(&longest, 0), 1, None, 0).is_ok());
        let long = format!("{longest}!");
        let err = SessionEngine::open(&hello(&long, 0), 1, None, 0).err().expect("refused");
        assert!(matches!(err, SessionError::Malformed(_)), "{err}");
        let Frame::Error { code, message } = err.to_frame() else { panic!("an Error frame") };
        assert_eq!(code, error_code::BAD_FRAME);
        assert!(message.contains("64 bytes"), "{message}");
    }

    #[test]
    fn duplicate_and_gap_frames_are_handled_positionally() {
        let evs = accesses(0..30);
        let (mut s, _) = SessionEngine::open(&hello("dup", 0), 1, None, 0).unwrap();
        s.handle(Frame::Chunk { base: 0, events: evs[..20].to_vec() }).unwrap();
        // Exact duplicate delivery of the last frame: fully skipped.
        s.handle(Frame::Chunk { base: 0, events: evs[..20].to_vec() }).unwrap();
        assert_eq!(s.position(), 20);
        assert_eq!(s.metrics().service.events_skipped_on_resume, 20);
        // A gap is a protocol violation, not silent data loss, whatever
        // the chunk holds.
        let err = s.handle(Frame::Chunk { base: 25, events: evs[25..].to_vec() }).unwrap_err();
        assert!(matches!(err, SessionError::OutOfOrder(_)));
        let call = |func| Record::pack(&TraceEvent::CallBegin { func, thread: 0, ts: 0 });
        let end = Record::pack(&TraceEvent::CallEnd { func: 1, thread: 0, ts: 0 });
        let mixed = vec![call(1), evs[21], end];
        let err = s.handle(Frame::Chunk { base: 21, events: mixed }).unwrap_err();
        assert!(matches!(err, SessionError::OutOfOrder(_)));
        assert_eq!(s.position(), 20);
    }

    /// Events name their variable by position in the `Hello`'s table: a
    /// name listed twice would shift every later id, so the session is
    /// refused as a trace file's reader refuses it.
    #[test]
    fn a_hello_listing_a_name_twice_is_refused() {
        let names = |names: &[&str]| Hello {
            names: names.iter().map(|&n| n.into()).collect(),
            ..hello("names", 0)
        };
        assert!(SessionEngine::open(&names(&["*", "a", "b"]), 1, None, 0).is_ok());
        let Err(err) = SessionEngine::open(&names(&["*", "a", "a", "b"]), 1, None, 0) else {
            panic!("a duplicate name opened a session");
        };
        assert!(matches!(err, SessionError::Malformed(_)), "{err}");
        let Frame::Error { code, message } = err.to_frame() else { unreachable!() };
        assert_eq!(code, error_code::BAD_FRAME);
        assert!(message.contains("duplicate name"), "{message}");
    }

    #[test]
    fn malformed_wire_chunk_feeds_nothing() {
        let (mut s, _) = SessionEngine::open(&hello("atomic", 0), 1, None, 0).unwrap();
        let payload_of = |base: u64, events: Vec<Record>| {
            let mut wire = Vec::new();
            Frame::Chunk { base, events }.encode_into(&mut wire);
            wire[5..wire.len() - 1].to_vec()
        };
        s.handle_wire(TAG_CHUNK, &payload_of(0, accesses(0..10))).unwrap();
        assert_eq!(s.position(), 10);

        // Nine good accesses, then one whose kind byte is a loop begin's,
        // which leaves its body's second word 0.
        let mut bad = payload_of(10, accesses(10..20));
        bad[12 + 9] = 2;
        // Mixed chunks whose last record is a `Dealloc` past the address
        // space, or carries a tag no event has.
        let loop_begin = TraceEvent::LoopBegin { loop_id: 2, loc: loc(1, 7), thread: 0, ts: 0 };
        let dealloc = TraceEvent::Dealloc { base: u64::MAX - 7, len: 1, thread: 0, ts: 0 };
        let (loop_begin, dealloc) = (Record::pack(&loop_begin), Record::pack(&dealloc));
        let overflowing = payload_of(10, vec![loop_begin, access(11), dealloc]);
        let mut undefined = payload_of(10, vec![loop_begin, access(11), access(12)]);
        undefined[12 + 2] = 0x77;
        for bad in [bad, overflowing, undefined] {
            let err = s.handle_wire(TAG_CHUNK, &bad).unwrap_err();
            assert!(matches!(err, SessionError::Malformed(_)), "{err}");
            assert_eq!(s.position(), 10, "no event of a rejected chunk is fed");
            assert_eq!(s.metrics().events, 10);
        }

        // The wire entrance and the frame entrance are one feed body: the
        // same overlap is skipped, the same suffix fed.
        s.handle_wire(TAG_CHUNK, &payload_of(5, accesses(5..20))).unwrap();
        assert_eq!((s.position(), s.metrics().service.events_skipped_on_resume), (20, 5));
        s.handle(Frame::Chunk { base: 15, events: accesses(15..30) }).unwrap();
        assert_eq!((s.position(), s.metrics().service.events_skipped_on_resume), (30, 10));
    }

    #[test]
    fn hibernated_session_rehydrates_exactly() {
        let base = std::env::temp_dir().join(format!("dpsv-engine-hib-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let evs = accesses(0..80);

        let (mut all, _) = SessionEngine::open(&hello("ref", 0), 1, None, 0).unwrap();
        all.handle(Frame::Chunk { base: 0, events: evs.clone() }).unwrap();
        let reference = all.finish_result().unwrap();

        // Hibernate mid-stream, with no periodic checkpoint interval.
        let (mut idle, _) = SessionEngine::open(&hello("nap", 0), 2, Some(&base), 0).unwrap();
        idle.handle(Frame::Chunk { base: 0, events: evs[..50].to_vec() }).unwrap();
        idle.hibernate().unwrap();
        assert_eq!(idle.metrics().service.hibernated, 1);
        drop(idle);

        let (mut woken, ack) = SessionEngine::open(&hello("nap", 0), 3, Some(&base), 0).unwrap();
        assert_eq!(ack, Frame::HelloAck { session_id: 3, resume_from: 50 });
        assert_eq!(woken.metrics().service.rehydrated, 1);
        woken.handle(Frame::Chunk { base: 50, events: evs[50..].to_vec() }).unwrap();
        let resumed = woken.finish_result().unwrap();
        assert_eq!(reference.stats.accesses, resumed.stats.accesses);
        let _ = std::fs::remove_dir_all(&base);

        // Sessions without a checkpoint dir cannot hibernate.
        let (mut ephemeral, _) = SessionEngine::open(&hello("e", 0), 4, None, 0).unwrap();
        assert!(ephemeral.hibernate().is_err());
    }

    #[test]
    fn queries_answer_from_incremental_state() {
        // The live-analysis bar: a Query after the last chunk must match
        // the post-hoc passes over the finished result — for the serial
        // engine and the parallel pipeline alike.
        let specs = [
            SessionSpec { slots: 1 << 12, ..SessionSpec::default() },
            SessionSpec { parallel: true, workers: 2, slots: 1 << 12, ..SessionSpec::default() },
        ];
        for spec in specs {
            let h = Hello {
                session: "live".into(),
                spec: spec.encode(),
                checkpoint_every: 0,
                names: vec!["*".into(), "x".into()],
            };
            let (mut s, _) = SessionEngine::open(&h, 1, None, 0).unwrap();
            s.handle(Frame::Chunk { base: 0, events: accesses(0..30) }).unwrap();
            // Mid-stream query: answered without stalling or finishing.
            let replies =
                s.handle(Frame::Query { id: 5, kind: dp_types::protocol::query_kind::ALL });
            let [Frame::QueryResult { id: 5, json, .. }] = &replies.unwrap()[..] else {
                panic!("expected QueryResult")
            };
            assert!(json.contains("\"position\":30"), "{json}");
            assert!(json.contains("\"loops\":"), "{json}");
            s.handle(Frame::Chunk { base: 30, events: accesses(30..60) }).unwrap();
            // Section-selected query.
            let replies =
                s.handle(Frame::Query { id: 6, kind: dp_types::protocol::query_kind::COMM });
            let [Frame::QueryResult { kind, json, .. }] = &replies.unwrap()[..] else {
                panic!("expected QueryResult")
            };
            assert_eq!(*kind, dp_types::protocol::query_kind::COMM);
            assert!(json.contains("\"comm\":") && !json.contains("\"loops\":"), "{json}");
            // Final query after the last chunk: full report.
            let replies =
                s.handle(Frame::Query { id: 7, kind: dp_types::protocol::query_kind::ALL });
            let [Frame::QueryResult { json: final_json, .. }] = &replies.unwrap()[..] else {
                panic!("expected QueryResult")
            };
            assert_eq!(s.metrics().queries, 3);
            let result = s.finish_result().unwrap();
            let mut interner = Interner::new();
            interner.intern("*");
            interner.intern("x");
            let expected =
                dp_analysis::posthoc_report(&result).to_json(&interner, true, true, true);
            assert!(
                final_json.ends_with(&expected[1..]),
                "incremental answer diverged from post-hoc passes:\n got {final_json}\nwant \
                 ...{expected}"
            );
        }
    }

    /// A checkpoint the server cannot write is answered as the server's
    /// fault; malformed and out-of-order frames as the client's.
    #[test]
    fn a_checkpoint_fault_is_the_servers_and_a_bad_frame_the_clients() {
        let code = |err: SessionError| match err.to_frame() {
            Frame::Error { code, .. } => code,
            other => panic!("{other:?}"),
        };
        let file = std::env::temp_dir().join(format!("dpsv-engine-file-{}", std::process::id()));
        std::fs::write(&file, b"not a directory").unwrap();
        let Err(err) = SessionEngine::open(&hello("job", 10), 1, Some(&file.join("sub")), 0) else {
            panic!("a checkpoint directory under a file opened a session");
        };
        assert!(matches!(err, SessionError::Checkpoint(_)), "{err}");
        assert_eq!(code(err), error_code::ENGINE);
        let _ = std::fs::remove_file(&file);

        let (mut s, _) = SessionEngine::open(&hello("x", 0), 1, None, 0).unwrap();
        let malformed = s.handle_wire(TAG_CHUNK, &[1, 2, 3]).unwrap_err();
        assert!(matches!(malformed, SessionError::Malformed(_)), "{malformed}");
        assert_eq!(code(malformed), error_code::BAD_FRAME);
        let gap = s.handle(Frame::Chunk { base: 5, events: accesses(5..9) }).unwrap_err();
        assert!(matches!(gap, SessionError::OutOfOrder(_)), "{gap}");
        assert_eq!(code(gap), error_code::BAD_FRAME);
    }

    #[test]
    fn bad_spec_and_out_of_order_are_typed() {
        let mut h = hello("x", 0);
        h.spec = vec![9, 9];
        assert!(matches!(SessionEngine::open(&h, 1, None, 0), Err(SessionError::BadSpec(_))));
        // A well-formed spec sized to take the server down is refused
        // before any engine is built.
        for spec in [
            SessionSpec { slots: 1 << 40, ..SessionSpec::default() },
            SessionSpec { workers: u32::MAX as usize, parallel: true, ..SessionSpec::default() },
        ] {
            h.spec = spec.encode();
            let refused = SessionEngine::open(&h, 1, None, 0);
            assert!(matches!(refused, Err(SessionError::BadSpec(_))), "{spec:?}");
        }
        let (mut s, _) = SessionEngine::open(&hello("x", 0), 1, None, 0).unwrap();
        let err = s.handle(Frame::Hello(hello("x", 0))).unwrap_err();
        assert!(matches!(err, SessionError::OutOfOrder(_)));
        assert!(matches!(err.to_frame(), Frame::Error { code, .. }
            if code == error_code::BAD_FRAME));
    }
}
