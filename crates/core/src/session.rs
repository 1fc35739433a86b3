//! Session lifecycle: one engine serving one event stream, buildable
//! from a compact wire-encodable spec.
//!
//! Both consumers of a recorded or streamed trace — the CLI's offline
//! `replay` and the network server's per-client sessions — need the same
//! thing: pick an engine (serial in-line or the parallel pipeline),
//! configure it, feed it events, checkpoint it at barriers, and finish
//! it into a [`ProfileResult`]. [`SessionSpec`] is that choice in
//! serializable form (it travels in a `Hello` frame and in the
//! checkpoint CONFIG section), and [`ProfileSession`] is the running
//! engine behind a uniform event/heartbeat/checkpoint surface.

use crate::checkpoint::{CheckpointData, CheckpointError};
use crate::config::{OverflowPolicy, ProfilerConfig, TransportKind};
use crate::parallel::ParallelProfiler;
use crate::result::ProfileResult;
use crate::seq::SequentialProfiler;
use crate::DefaultSig;
use dp_types::{ByteReader, ByteWriter, TraceEvent, Tracer, WireError};

/// Which engine a session runs and how it is sized — everything needed
/// to rebuild an identically-configured engine elsewhere (on a server,
/// or in a resumed process).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionSpec {
    /// Parallel pipeline (`true`) or serial in-line engine (`false`).
    pub parallel: bool,
    /// Queue transport for the parallel pipeline.
    pub transport: TransportKind,
    /// Full-queue policy for the parallel pipeline.
    pub overflow: OverflowPolicy,
    /// Hot-address redistribution for the parallel pipeline.
    pub redistribution: bool,
    /// Worker count for the parallel pipeline.
    pub workers: usize,
    /// Total signature slots (split across workers when parallel).
    pub slots: usize,
}

impl Default for SessionSpec {
    /// Matches `depprof replay`'s defaults, so a default-spec session
    /// profiles a stream exactly like a flagless offline replay.
    fn default() -> Self {
        SessionSpec {
            parallel: false,
            transport: TransportKind::Spsc,
            overflow: OverflowPolicy::Block,
            redistribution: true,
            workers: 8,
            slots: 1 << 20,
        }
    }
}

/// Most workers a decoded spec may ask for: a spec arrives from outside
/// the process (a `Hello` frame, a checkpoint), and each worker is a
/// thread.
const MAX_SPEC_WORKERS: usize = 256;
/// Most signature slots a decoded spec may ask for (2 GiB of 8-byte slots
/// a signature; the paper's 10⁸ total fits). Slots are allocated as
/// regions fill, not up front; this is the ceiling a `Hello` may commit
/// the server to, and the directory that is allocated at once (56 bytes
/// per 4 096 slots) is then 3.5 MiB a signature.
const MAX_SPEC_SLOTS: u64 = 1 << 28;

impl SessionSpec {
    /// Serializes the spec (for a `Hello` frame or a checkpoint CONFIG
    /// blob).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u8(self.parallel as u8);
        w.u8(self.transport.code());
        w.u8(self.overflow.code());
        w.u8(self.redistribution as u8);
        w.u32(self.workers as u32);
        w.u64(self.slots as u64);
        w.into_bytes()
    }

    /// Decodes a spec, rejecting unknown codes, trailing bytes and sizes
    /// no engine should be built at.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = ByteReader::new(bytes);
        let parallel = r.u8()? != 0;
        let transport = TransportKind::from_code(r.u8()?)
            .ok_or(WireError::Invalid("unknown transport code in session spec"))?;
        let overflow = OverflowPolicy::from_code(r.u8()?)
            .ok_or(WireError::Invalid("unknown overflow code in session spec"))?;
        let redistribution = r.u8()? != 0;
        let workers = r.u32()? as usize;
        let slots = r.u64()? as usize;
        if !r.is_done() {
            return Err(WireError::Invalid("trailing bytes after session spec"));
        }
        SessionSpec { parallel, transport, overflow, redistribution, workers, slots }.checked()
    }

    /// The spec, if an engine should be built at its sizes: every decoder
    /// of a spec that arrived from outside the process passes it through
    /// here.
    pub fn checked(self) -> Result<Self, WireError> {
        if self.slots == 0 || (self.parallel && self.workers == 0) {
            return Err(WireError::Invalid("session spec with zero slots or workers"));
        }
        if self.workers > MAX_SPEC_WORKERS || self.slots as u64 > MAX_SPEC_SLOTS {
            return Err(WireError::Invalid("session spec asks for too many workers or slots"));
        }
        Ok(self)
    }

    /// The [`ProfilerConfig`] this spec describes (parallel engine only).
    pub fn config(&self) -> ProfilerConfig {
        ProfilerConfig::default()
            .with_workers(self.workers)
            .with_slots(self.slots)
            .with_transport(self.transport)
            .with_overflow(self.overflow)
            .with_redistribution(self.redistribution)
    }

    /// Builds a fresh engine for this spec.
    pub fn build(&self) -> ProfileSession {
        self.open(self.config(), None).expect("only restoring a checkpoint can fail")
    }

    /// Rebuilds an engine from a checkpoint taken by an engine of the
    /// same spec, restoring its full extraction state.
    pub fn resume(&self, data: &CheckpointData) -> Result<ProfileSession, CheckpointError> {
        self.open(self.config(), Some(data))
    }

    /// Builds this spec's engine — fresh, or restored from `data` — with
    /// the pipeline running under `cfg`: [`SessionSpec::config`], plus
    /// whatever a caller layers on that a spec does not carry (fault
    /// plan, deadlines).
    pub fn open(
        &self,
        cfg: ProfilerConfig,
        data: Option<&CheckpointData>,
    ) -> Result<ProfileSession, CheckpointError> {
        if self.parallel {
            let slots = cfg.slots_per_worker();
            let make = move || DefaultSig::new(slots);
            Ok(ProfileSession::Parallel(match data {
                Some(d) => ParallelProfiler::resume(cfg, make, d)?,
                None => ParallelProfiler::new(cfg, make),
            }))
        } else {
            let mut p = SequentialProfiler::with_signature(self.slots);
            if let Some(d) = data {
                p.restore(d)?;
            }
            Ok(ProfileSession::Serial(p))
        }
    }
}

/// A running engine — serial or parallel — behind the uniform surface a
/// stream feeder needs: events in, heartbeat out, checkpointable,
/// finishable.
#[allow(clippy::large_enum_variant)]
pub enum ProfileSession {
    /// The in-line serial profiler.
    Serial(SequentialProfiler<DefaultSig>),
    /// The parallel offload pipeline.
    Parallel(ParallelProfiler),
}

impl ProfileSession {
    /// Feeds one event.
    #[inline]
    pub fn on_event(&mut self, ev: TraceEvent) {
        match self {
            ProfileSession::Serial(p) => p.on_event(&ev),
            ProfileSession::Parallel(p) => p.event(ev),
        }
    }

    /// Monotone downstream-progress value. The serial engine consumes
    /// in-line, so the feed counter alone describes its progress.
    pub fn heartbeat(&self) -> u64 {
        match self {
            ProfileSession::Serial(_) => 0,
            ProfileSession::Parallel(p) => p.heartbeat(),
        }
    }

    /// Turns on online analysis: the engine's dependence stores start
    /// tracking movement so [`ProfileSession::collect_deltas`] can feed
    /// the live analysis state. Idempotent; a late enable catches up by
    /// shipping every edge an analysis reads on the first collection.
    pub fn enable_online(&mut self) {
        match self {
            ProfileSession::Serial(p) => p.enable_online(),
            ProfileSession::Parallel(p) => p.enable_online(),
        }
    }

    /// True once [`ProfileSession::enable_online`] has run.
    pub fn online_enabled(&self) -> bool {
        match self {
            ProfileSession::Serial(p) => p.online_enabled(),
            ProfileSession::Parallel(p) => p.online_enabled(),
        }
    }

    /// Drains the dependence-map movement since the previous drain (one
    /// delta per store that moved; empty when online analysis is off).
    pub fn collect_deltas(&mut self) -> Vec<crate::store::AnalysisDelta> {
        match self {
            ProfileSession::Serial(p) => {
                Vec::from_iter(Some(p.take_delta()).filter(|d| !d.is_empty()))
            }
            ProfileSession::Parallel(p) => p.collect_deltas(),
        }
    }

    /// Quiesces the engine and captures a checkpoint at the current
    /// stream position.
    pub fn checkpoint_data(
        &mut self,
        generation: u64,
        records_read: u64,
        config: Vec<u8>,
    ) -> Result<CheckpointData, CheckpointError> {
        match self {
            ProfileSession::Serial(p) => p.checkpoint_data(generation, records_read, config),
            ProfileSession::Parallel(p) => p.checkpoint_data(generation, records_read, config),
        }
    }

    /// Drains and finishes the engine.
    pub fn finish(self) -> ProfileResult {
        match self {
            ProfileSession::Serial(p) => p.finish(),
            ProfileSession::Parallel(p) => p.finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_types::{loc::loc, MemAccess};

    #[test]
    fn spec_roundtrips_and_rejects_junk() {
        let spec = SessionSpec {
            parallel: true,
            transport: TransportKind::Mpmc,
            overflow: OverflowPolicy::Drop,
            redistribution: false,
            workers: 4,
            slots: 1 << 14,
        };
        let bytes = spec.encode();
        assert_eq!(SessionSpec::decode(&bytes).unwrap(), spec);
        // A wire format (the DPSV `Hello` spec): these bytes must not change.
        let golden =
            SessionSpec { transport: TransportKind::Lock, workers: 5, slots: 65536, ..spec };
        assert_eq!(golden.encode(), [1, 2, 1, 0, 5, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0]);
        assert_eq!(
            SessionSpec::decode(&SessionSpec::default().encode()).unwrap(),
            SessionSpec::default()
        );
        assert!(SessionSpec::decode(&bytes[..bytes.len() - 1]).is_err(), "truncated");
        let mut long = bytes.clone();
        long.push(0);
        assert!(SessionSpec::decode(&long).is_err(), "trailing");
        let mut bad = bytes.clone();
        bad[1] = 9;
        assert!(SessionSpec::decode(&bad).is_err(), "bad transport code");
        // Sizes from outside are bounded before anything is allocated.
        let ok = SessionSpec { workers: 256, slots: 1 << 28, ..spec };
        assert_eq!(SessionSpec::decode(&ok.encode()).unwrap(), ok);
        let huge = SessionSpec { slots: 1 << 40, ..spec };
        assert!(SessionSpec::decode(&huge.encode()).is_err(), "16 TiB of slots");
        let many = SessionSpec { workers: u32::MAX as usize, parallel: false, ..spec };
        assert!(SessionSpec::decode(&many.encode()).is_err(), "4 billion threads");
    }

    #[test]
    fn serial_and_parallel_sessions_agree() {
        let evs: Vec<TraceEvent> = (0..200u64)
            .map(|i| {
                let a = 0x100 + (i % 7) * 8;
                if i % 3 == 0 {
                    TraceEvent::Access(MemAccess::write(a, i + 1, loc(1, 1), 0, 0))
                } else {
                    TraceEvent::Access(MemAccess::read(a, i + 1, loc(1, 2), 0, 0))
                }
            })
            .collect();
        let deps = |spec: SessionSpec| {
            let mut s = spec.build();
            for ev in &evs {
                s.on_event(*ev);
            }
            let r = s.finish();
            let mut v: Vec<String> = r.deps.dependences().map(|(d, _)| format!("{d:?}")).collect();
            v.sort();
            v
        };
        let serial = deps(SessionSpec::default());
        let parallel = deps(SessionSpec {
            parallel: true,
            workers: 2,
            slots: 1 << 12,
            ..SessionSpec::default()
        });
        assert_eq!(serial, parallel);
        assert!(!serial.is_empty());
    }

    #[test]
    fn checkpointed_session_resumes_identically() {
        let spec = SessionSpec { slots: 1 << 12, ..SessionSpec::default() };
        let evs: Vec<TraceEvent> = (0..100u64)
            .map(|i| {
                TraceEvent::Access(MemAccess::write(0x8 + (i % 5) * 8, i + 1, loc(1, 1), 0, 0))
            })
            .collect();
        let mut full = spec.build();
        for ev in &evs {
            full.on_event(*ev);
        }
        let reference = full.finish();

        let mut first = spec.build();
        for ev in &evs[..40] {
            first.on_event(*ev);
        }
        let data = first.checkpoint_data(1, 40, spec.encode()).unwrap();
        let respec = SessionSpec::decode(&data.config).unwrap();
        assert_eq!(respec, spec);
        let mut resumed = respec.resume(&data).unwrap();
        for ev in &evs[40..] {
            resumed.on_event(*ev);
        }
        let r2 = resumed.finish();
        assert_eq!(reference.stats.accesses, r2.stats.accesses);
        let deps = |r: &ProfileResult| {
            let mut v: Vec<String> =
                r.deps.dependences().map(|(d, val)| format!("{d:?}={val:?}")).collect();
            v.sort();
            v
        };
        assert_eq!(deps(&reference), deps(&r2));
    }
}
