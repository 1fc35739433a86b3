//! Seeded network-fault injection for the DPSV service: a stream
//! wrapper that kills, stutters, stalls and duplicates traffic at
//! *deterministic* points, so every recovery path the retry/resume
//! machinery claims to handle can be exercised on demand and replayed
//! from a seed.
//!
//! [`NetFaultPlan`] is the builder (mirroring `dp-queue`'s engine-level
//! `FaultPlan` style, but aimed at the socket rather than the worker
//! pool); [`ChaosStream`] wraps any `Read + Write` transport — a client
//! connection in `depprof push --chaos`, or an in-memory stream in tests
//! and E18. The harness is client-side only: the server serves every
//! accepted socket as it is, and a stream that nothing wrapped pays
//! nothing for it.
//!
//! The write side follows the DPSV stream's frame boundaries (the
//! preamble, then each frame's length as its header gives it,
//! [`wire::unit_len`]), which is what makes frame-offset kills and
//! last-frame duplication exact: a reset lands on a frame boundary, and
//! only completed client data frames (`Chunk`/`Sync`) are ever
//! re-delivered — the faults a real flaky network plus a naively
//! retrying middlebox would produce.

use dp_types::protocol::{PREAMBLE_BYTES, TAG_CHUNK, TAG_SYNC};
use dp_types::wire::{self, UNIT_HEADER_BYTES};
use std::io::{self, Read, Write};

/// Tags of the client data-plane frames `ChaosStream` may duplicate.
/// Control frames (`Hello`, replies) are never duplicated: a duplicated
/// `Hello` is a different session, not a transport fault.
const DUP_TAGS: [u8; 2] = [TAG_CHUNK, TAG_SYNC];

/// A deterministic network-fault schedule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetFaultPlan {
    /// Seed for short-read/short-write sizing (0 picks a fixed default).
    pub seed: u64,
    /// Reset the connection once this many payload bytes were written
    /// (the preamble does not count) — kills mid-frame.
    pub reset_at_bytes: Option<u64>,
    /// Reset the connection once this many complete frames were written
    /// — kills exactly on a frame boundary.
    pub reset_at_frames: Option<u64>,
    /// Fragment reads and writes into small random pieces.
    pub short_io: bool,
    /// Stall for [`NetFaultPlan::stall_ms`] every this many written
    /// frames (0 = never).
    pub stall_every: u64,
    /// Stall duration, milliseconds.
    pub stall_ms: u64,
    /// Re-deliver every Nth completed data frame (duplicate delivery of
    /// the last unacked frame, as a retransmitting network would).
    pub dup_every: Option<u64>,
}

impl NetFaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the RNG seed for short-I/O sizing.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Resets the connection after `n` written payload bytes.
    pub fn with_reset_at_bytes(mut self, n: u64) -> Self {
        self.reset_at_bytes = Some(n);
        self
    }

    /// Resets the connection after `n` complete written frames.
    pub fn with_reset_at_frames(mut self, n: u64) -> Self {
        self.reset_at_frames = Some(n);
        self
    }

    /// Fragments reads and writes into short pieces.
    pub fn with_short_io(mut self) -> Self {
        self.short_io = true;
        self
    }

    /// Stalls `ms` milliseconds every `every` written frames.
    pub fn with_stall(mut self, every: u64, ms: u64) -> Self {
        self.stall_every = every;
        self.stall_ms = ms;
        self
    }

    /// Duplicates every `n`th completed data frame.
    pub fn with_dup_every(mut self, n: u64) -> Self {
        self.dup_every = Some(n);
        self
    }

    /// True when any fault is scheduled.
    pub fn is_active(&self) -> bool {
        self.reset_at_bytes.is_some()
            || self.reset_at_frames.is_some()
            || self.short_io
            || (self.stall_every > 0 && self.stall_ms > 0)
            || self.dup_every.is_some()
    }

    /// Parses the CLI spec: comma-separated directives out of
    /// `seed=N`, `reset-bytes=N`, `reset-frames=N`, `short-io`,
    /// `stall=EVERYxMS`, `dup=N`. Example:
    /// `seed=7,reset-frames=12,short-io,stall=8x2,dup=5`.
    pub fn parse(spec: &str) -> Result<NetFaultPlan, String> {
        let mut plan = NetFaultPlan::default();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, val) = part.split_once('=').unwrap_or((part, ""));
            let num = |what: &str| -> Result<u64, String> {
                val.parse().map_err(|_| format!("--chaos {what}: not a number: '{val}'"))
            };
            match key {
                "seed" => plan.seed = num("seed")?,
                "reset-bytes" => plan.reset_at_bytes = Some(num("reset-bytes")?),
                "reset-frames" => plan.reset_at_frames = Some(num("reset-frames")?),
                "short-io" => plan.short_io = true,
                "dup" => plan.dup_every = Some(num("dup")?.max(1)),
                "stall" => {
                    let (every, ms) = val
                        .split_once('x')
                        .ok_or_else(|| format!("--chaos stall: expected EVERYxMS, got '{val}'"))?;
                    plan.stall_every = every
                        .parse()
                        .map_err(|_| format!("--chaos stall: not a number: '{every}'"))?;
                    plan.stall_ms =
                        ms.parse().map_err(|_| format!("--chaos stall: not a number: '{ms}'"))?;
                }
                other => return Err(format!("--chaos: unknown directive '{other}'")),
            }
        }
        Ok(plan)
    }
}

/// A `Read + Write` wrapper executing a [`NetFaultPlan`] against the
/// wrapped transport. Deterministic: the same plan over the same
/// traffic produces the same faults at the same offsets. It copies every
/// byte it writes to find frame boundaries, so a connection goes through
/// it only when a plan is given.
#[derive(Debug)]
pub struct ChaosStream<S> {
    inner: S,
    plan: NetFaultPlan,
    rng: u64,
    /// Payload bytes written so far (preamble excluded).
    out_bytes: u64,
    /// Complete frames written so far.
    out_frames: u64,
    /// Preamble bytes not yet written.
    pre_left: usize,
    /// Bytes of the frame in progress, for its length and duplication.
    cur: Vec<u8>,
    /// Once a reset fired every later operation fails the same way.
    tripped: bool,
}

impl<S> ChaosStream<S> {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: S, plan: NetFaultPlan) -> Self {
        let rng = if plan.seed == 0 { 0x9e37_79b9_7f4a_7c15 } else { plan.seed };
        ChaosStream {
            inner,
            plan,
            rng,
            out_bytes: 0,
            out_frames: 0,
            pre_left: PREAMBLE_BYTES,
            cur: Vec::new(),
            tripped: false,
        }
    }

    /// Complete frames written through this wrapper so far.
    pub fn frames_written(&self) -> u64 {
        self.out_frames
    }

    /// Consumes the wrapper, returning the transport.
    pub fn into_inner(self) -> S {
        self.inner
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64* — tiny, seedable, good enough to vary chop sizes.
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn reset_error(&mut self) -> io::Error {
        self.tripped = true;
        io::Error::new(io::ErrorKind::ConnectionReset, "chaos: injected connection reset")
    }
}

impl<S: Read + Write> ChaosStream<S> {
    /// Bytes to the end of the unit in progress: the preamble, else the
    /// frame in `cur` as its header gives it (the header, until it is in).
    fn unit_left(&self) -> usize {
        if self.pre_left > 0 {
            return self.pre_left;
        }
        wire::unit_len(&self.cur).unwrap_or(UNIT_HEADER_BYTES) - self.cur.len()
    }

    /// Follows the frame boundaries over `written` (bytes actually
    /// written), firing frame-boundary faults (duplication, stalls,
    /// frame-offset resets arm for the *next* write so the boundary frame
    /// itself is delivered intact).
    fn account_written(&mut self, mut written: &[u8]) -> io::Result<()> {
        while !written.is_empty() {
            let (unit, rest) = written.split_at(self.unit_left().min(written.len()));
            written = rest;
            if self.pre_left > 0 {
                self.pre_left -= unit.len();
                continue;
            }
            self.cur.extend_from_slice(unit);
            self.out_bytes += unit.len() as u64;
            if self.unit_left() == 0 {
                self.frame_complete()?;
            }
        }
        Ok(())
    }

    fn frame_complete(&mut self) -> io::Result<()> {
        self.out_frames += 1;
        let tag = self.cur[0];
        let frame = std::mem::take(&mut self.cur);
        if let Some(every) = self.plan.dup_every {
            if self.out_frames.is_multiple_of(every.max(1)) && DUP_TAGS.contains(&tag) {
                // Duplicate delivery of the frame that just completed —
                // the receiver must dedupe it positionally.
                self.inner.write_all(&frame)?;
            }
        }
        if self.plan.stall_every > 0
            && self.plan.stall_ms > 0
            && self.out_frames.is_multiple_of(self.plan.stall_every)
        {
            std::thread::sleep(std::time::Duration::from_millis(self.plan.stall_ms));
        }
        Ok(())
    }
}

impl<S: Read + Write> Read for ChaosStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.tripped {
            return Err(self.reset_error());
        }
        let cap = if self.plan.short_io && buf.len() > 1 {
            let n = (self.next_rand() % 16 + 1) as usize;
            n.min(buf.len())
        } else {
            buf.len()
        };
        self.inner.read(&mut buf[..cap])
    }
}

impl<S: Read + Write> Write for ChaosStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.tripped {
            return Err(self.reset_error());
        }
        if buf.is_empty() {
            return Ok(0);
        }
        let mut cap = buf.len();
        let pre_left = self.pre_left;
        // A sender may coalesce hundreds of frames into one write. Under
        // an active plan each inner write stops at the end of the unit in
        // progress, so every fault below lands on the exact frame it
        // names however the bytes were batched, and a duplicate follows
        // its original directly.
        if self.plan.is_active() {
            cap = cap.min(self.unit_left());
        }
        // A frame-offset reset arms once the boundary frame completed:
        // that frame is delivered intact, the next write dies. The
        // preamble is handshake, not a frame — it always goes through
        // (so a `reset-frames=0` plan still yields a recognizable DPSV
        // connection that dies before its first frame).
        if let Some(limit) = self.plan.reset_at_frames {
            if self.out_frames >= limit {
                if pre_left == 0 {
                    return Err(self.reset_error());
                }
                cap = cap.min(pre_left);
            }
        }
        // A byte-offset reset is exact: write up to the boundary, then
        // fail. Preamble bytes don't count toward the budget.
        if let Some(limit) = self.plan.reset_at_bytes {
            let left = limit.saturating_sub(self.out_bytes) as usize + pre_left;
            if left == 0 {
                return Err(self.reset_error());
            }
            cap = cap.min(left);
        }
        if self.plan.short_io && cap > 1 {
            cap = cap.min((self.next_rand() % 16 + 1) as usize);
        }
        let n = self.inner.write(&buf[..cap])?;
        self.account_written(&buf[..n])?;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.tripped {
            return Err(self.reset_error());
        }
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_types::protocol::{self, Frame, MAX_FRAME_BYTES};
    use dp_types::{loc::loc, MemAccess, Record, TraceEvent};
    use std::io::Cursor;

    fn chunk(base: u64, n: u64) -> Frame {
        Frame::Chunk {
            base,
            events: (0..n)
                .map(|i| TraceEvent::Access(MemAccess::read(0x100 + i * 8, 0, loc(1, 1), 0, 0)))
                .map(|ev| Record::pack(&ev))
                .collect(),
        }
    }

    fn push_frames(plan: NetFaultPlan, frames: &[Frame]) -> (Vec<u8>, Result<(), std::io::Error>) {
        let mut s = ChaosStream::new(Cursor::new(Vec::new()), plan);
        let run = (|| {
            protocol::write_preamble(&mut s)?;
            for f in frames {
                protocol::write_frame(&mut s, f).map_err(|e| match e {
                    protocol::ProtocolError::Io(io) => io,
                    other => std::io::Error::other(other),
                })?;
            }
            Ok(())
        })();
        (s.into_inner().into_inner(), run)
    }

    #[test]
    fn parse_round_trips_every_directive() {
        let plan =
            NetFaultPlan::parse("seed=7,reset-frames=12,reset-bytes=4096,short-io,stall=8x2,dup=5")
                .unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.reset_at_frames, Some(12));
        assert_eq!(plan.reset_at_bytes, Some(4096));
        assert!(plan.short_io);
        assert_eq!((plan.stall_every, plan.stall_ms), (8, 2));
        assert_eq!(plan.dup_every, Some(5));
        assert!(plan.is_active());
        assert!(!NetFaultPlan::parse("").unwrap().is_active());
        assert!(NetFaultPlan::parse("bogus=1").is_err());
        assert!(NetFaultPlan::parse("stall=8").is_err());
    }

    #[test]
    fn reset_at_frame_boundary_delivers_exactly_that_many_frames() {
        let frames = [chunk(0, 4), chunk(4, 4), chunk(8, 4)];
        for k in 0..=frames.len() as u64 {
            let (bytes, run) = push_frames(NetFaultPlan::new().with_reset_at_frames(k), &frames);
            if k < frames.len() as u64 {
                let e = run.unwrap_err();
                assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "k={k}");
            } else {
                run.unwrap();
            }
            // Whatever landed before the reset is intact and parseable.
            let mut r = &bytes[..];
            protocol::read_preamble(&mut r).unwrap();
            let mut got = 0;
            while let Ok(Some(f)) = protocol::read_frame(&mut r, MAX_FRAME_BYTES) {
                assert_eq!(f, frames[got]);
                got += 1;
            }
            assert_eq!(got as u64, k, "exactly k complete frames survive");
        }
    }

    #[test]
    fn faults_land_on_the_same_frames_under_one_coalesced_write() {
        let frames = [chunk(0, 4), Frame::Sync { nonce: 9 }, chunk(4, 4), chunk(8, 4)];
        let mut wire = Vec::new();
        protocol::write_preamble(&mut wire).unwrap();
        for f in &frames {
            f.encode_into(&mut wire);
        }
        let delivered = |plan: NetFaultPlan| {
            let mut s = ChaosStream::new(Cursor::new(Vec::new()), plan);
            let run = s.write_all(&wire);
            let bytes = s.into_inner().into_inner();
            let mut r = &bytes[..];
            protocol::read_preamble(&mut r).unwrap();
            let mut got = Vec::new();
            while let Ok(Some(f)) = protocol::read_frame(&mut r, MAX_FRAME_BYTES) {
                got.push(f);
            }
            (got, run)
        };
        for k in 0..=frames.len() {
            let (got, run) = delivered(NetFaultPlan::new().with_reset_at_frames(k as u64));
            assert_eq!(got, frames[..k], "exactly {k} frames survive a cut at frame {k}");
            assert_eq!(run.is_err(), k < frames.len(), "k={k}");
        }
        let (got, run) = delivered(NetFaultPlan::new().with_dup_every(2));
        run.unwrap();
        let [a, b, c, d] = frames.clone();
        assert_eq!(got, [a, b.clone(), b, c, d.clone(), d], "a duplicate follows its original");
    }

    #[test]
    fn reset_at_bytes_tears_mid_frame() {
        let frames = [chunk(0, 64)];
        let (bytes, run) = push_frames(NetFaultPlan::new().with_reset_at_bytes(100), &frames);
        assert_eq!(run.unwrap_err().kind(), std::io::ErrorKind::ConnectionReset);
        assert_eq!(bytes.len() as u64, 5 + 100, "preamble + exactly the byte budget");
        let mut r = &bytes[..];
        protocol::read_preamble(&mut r).unwrap();
        // The torn frame is detected, not silently accepted.
        assert!(protocol::read_frame(&mut r, MAX_FRAME_BYTES).is_err());
    }

    #[test]
    fn duplicated_data_frames_decode_twice_and_short_io_is_lossless() {
        let frames = [chunk(0, 3), Frame::Sync { nonce: 9 }, chunk(3, 2)];
        let plan = NetFaultPlan::new().with_dup_every(1).with_short_io().with_seed(42);
        let (bytes, run) = push_frames(plan, &frames);
        run.unwrap();
        let mut r = &bytes[..];
        protocol::read_preamble(&mut r).unwrap();
        let mut got = Vec::new();
        while let Some(f) = protocol::read_frame(&mut r, MAX_FRAME_BYTES).unwrap() {
            got.push(f);
        }
        let want: Vec<Frame> = frames.iter().flat_map(|f| [f.clone(), f.clone()]).collect();
        assert_eq!(got, want, "every data frame delivered exactly twice, in order");
    }

    #[test]
    fn hello_and_replies_are_never_duplicated() {
        let hello = Frame::Hello(dp_types::protocol::Hello {
            session: "s".into(),
            spec: vec![1],
            checkpoint_every: 0,
            names: vec![],
        });
        let (bytes, run) =
            push_frames(NetFaultPlan::new().with_dup_every(1), std::slice::from_ref(&hello));
        run.unwrap();
        let mut r = &bytes[..];
        protocol::read_preamble(&mut r).unwrap();
        assert_eq!(protocol::read_frame(&mut r, MAX_FRAME_BYTES).unwrap(), Some(hello));
        assert!(protocol::read_frame(&mut r, MAX_FRAME_BYTES).unwrap().is_none());
    }
}
