//! Event chunks and lock-free chunk recycling (Section IV).
//!
//! "The main thread ... collects memory accesses in chunks, whose size can
//! be configured in the interest of scalability. ... Once a chunk is full,
//! the main thread pushes it into the queue of the thread responsible for
//! the accesses recorded in it. ... Empty chunks are recycled and can be
//! reused."
//!
//! Chunking amortizes one queue operation over `capacity` events; the
//! chunk-size sweep is ablation E13 in DESIGN.md.
//!
//! ## Queued record
//!
//! A chunk holds its events as columns of [`Record`]s, the one event
//! layout of dp-types: a kind tag and a 16-byte body, no thread and no
//! timestamp — the serial engine's run and the parallel pipeline's chunks
//! hold thread-0 events only, and their engines keep the epoch clock, not
//! timestamps. A queued sequential event costs 17 bytes. A *stamped*
//! chunk — the multi-threaded engine's alone ([`ChunkPool::stamped`]) —
//! keeps a thread and a timestamp column beside the records
//! ([`Chunk::push_stamped`]), 27 bytes an event.

use crate::mpmc::MpmcQueue;
use dp_types::record::RECORD_BYTES;
use dp_types::{Address, EventKind, MemAccess, Record, ThreadId, Timestamp, TraceEvent};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A fixed-capacity buffer of trace events, held as [`Record`] columns
/// (see "Queued record" above). The default is a capacity-0 chunk that
/// owns no allocation: the placeholder a producer leaves where a chunk
/// it is sending used to be.
#[derive(Debug, Default)]
pub struct Chunk {
    kinds: Box<[EventKind]>,
    bodies: Box<[[u64; 2]]>,
    /// A stamped chunk's thread and timestamp columns; empty otherwise.
    threads: Box<[ThreadId]>,
    stamps: Box<[Timestamp]>,
    len: usize,
    rerouted: usize,
}

impl Chunk {
    /// Creates an empty chunk that holds up to `cap` events of thread 0,
    /// without their timestamps.
    pub fn new(cap: usize) -> Self {
        Self::with(cap, false)
    }

    fn with(cap: usize, stamped: bool) -> Self {
        let stamp_cap = if stamped { cap } else { 0 };
        Chunk {
            kinds: vec![EventKind::Read; cap].into(),
            bodies: vec![[0; 2]; cap].into(),
            threads: vec![0; stamp_cap].into(),
            stamps: vec![0; stamp_cap].into(),
            len: 0,
            rerouted: 0,
        }
    }

    /// Bytes the columns of a chunk hold per event of capacity.
    pub const fn event_bytes(stamped: bool) -> usize {
        if stamped {
            RECORD_BYTES + std::mem::size_of::<ThreadId>() + std::mem::size_of::<Timestamp>()
        } else {
            RECORD_BYTES
        }
    }

    /// Appends an event of thread 0 (debug-asserted) to an unstamped
    /// chunk. Callers check [`Chunk::is_full`] first; pushing past
    /// capacity is a logic error, and panics.
    #[inline]
    pub fn push(&mut self, ev: TraceEvent) {
        debug_assert_eq!(ev.thread(), 0, "an unstamped chunk holds thread 0's events");
        self.push_record(Record::pack(&ev));
    }

    /// Appends a packed event of thread 0.
    #[inline]
    pub fn push_record(&mut self, r: Record) {
        let n = self.len;
        self.kinds[n] = r.kind;
        self.bodies[n] = r.body;
        self.len = n + 1;
    }

    /// Appends a packed event with the thread and timestamp a stamped
    /// chunk keeps beside it.
    #[inline]
    pub fn push_stamped(&mut self, r: Record, thread: ThreadId, ts: Timestamp) {
        (self.threads[self.len], self.stamps[self.len]) = (thread, ts);
        self.push_record(r);
    }

    /// True once `capacity` events are buffered.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.len >= self.kinds.len()
    }

    /// Number of buffered events.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are buffered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Configured capacity.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.kinds.len()
    }

    /// Marks the most recently pushed event as *rerouted*: a copy
    /// diverted to this chunk's worker because the event's owner is dead.
    /// The observability ledger counts rerouted copies at routing time,
    /// so downstream enqueue/consume/drop taps use
    /// [`Chunk::rerouted`] to exclude them and keep the conservation
    /// law's columns disjoint.
    #[inline]
    pub fn mark_rerouted(&mut self) {
        self.rerouted += 1;
    }

    /// Number of events in this chunk marked rerouted.
    #[inline]
    pub fn rerouted(&self) -> usize {
        self.rerouted
    }

    /// Event `i`'s thread and timestamp: 0 and 0 in an unstamped chunk.
    #[inline]
    fn stamp(&self, i: usize) -> (ThreadId, Timestamp) {
        if self.threads.is_empty() {
            (0, 0)
        } else {
            (self.threads[i], self.stamps[i])
        }
    }

    /// Record `i`.
    #[inline]
    fn record(&self, i: usize) -> Record {
        Record { kind: self.kinds[i], body: self.bodies[i] }
    }

    /// Empties the chunk for reuse, keeping its allocation.
    pub fn reset(&mut self) {
        self.len = 0;
        self.rerouted = 0;
    }

    /// Event `i`, as a value on the caller's stack.
    #[inline]
    pub fn event(&self, i: usize) -> TraceEvent {
        let (thread, ts) = self.stamp(i);
        self.record(i).unpack(thread, ts)
    }

    /// The address event `i` accesses, if it is an access: what a
    /// consumer prefetches ahead of retiring it.
    #[inline]
    pub fn access_addr(&self, i: usize) -> Option<Address> {
        self.record(i).as_access().map(|a| a.addr)
    }

    /// Event `i`, if it is an access: the consumer's fast path, which
    /// builds no [`TraceEvent`].
    #[inline]
    pub fn access(&self, i: usize) -> Option<MemAccess> {
        self.record(i).as_access().map(|a| {
            let (thread, ts) = self.stamp(i);
            MemAccess { thread, ts, ..a }
        })
    }
}

/// A lock-free recycling pool of [`Chunk`]s shared between the producer(s)
/// and the workers.
///
/// `acquire` prefers a recycled chunk and falls back to allocation; the
/// pool is bounded, so a burst allocates and the excess is dropped on
/// `release` — bounding both allocation traffic and idle memory. The
/// allocation counter feeds the memory accounting of Figures 7/8, so
/// every acquired chunk must come back through `release` or a queue.
///
/// How many chunks are live is the producers' discipline, not the pool's:
/// a producer that sends a full chunk before it acquires the next, and
/// acquires none after its last send, holds one chunk per worker. A
/// worker of the parallel engine, fed by its one router, so holds at most
/// its queue's depth plus two (the chunk it works on and the one being
/// filled), the window that engine's pool retains; in the MT engine each
/// of `T` target threads fills its own chunk for every worker, so a
/// worker's window there is the depth plus `1 + T`.
///
/// Nobody waits on the pool: `acquire` never blocks. The wait that keeps
/// the window is the producer's, on its worker's full queue
/// ([`Backoff`](crate::Backoff)).
///
/// What is bounded is retention, not reuse: the free list may report
/// empty while a preempted `release` holds a slot it has not published
/// yet, and each such miss allocates. So with `t` threads each holding at
/// most one chunk, at most `pool_cap + t` chunks are ever live
/// ([`ChunkPool::high_water`]), and once every chunk is released at most
/// `pool_cap` remain (`pool_cap` as the free list rounds it, to a power of
/// two) — how few of those were fresh allocations depends on the
/// schedule.
pub struct ChunkPool {
    free: MpmcQueue<Chunk>,
    chunk_cap: usize,
    stamped: bool,
    allocated: AtomicUsize,
    high_water: AtomicUsize,
}

impl ChunkPool {
    /// Creates a pool recycling up to `pool_cap` unstamped chunks
    /// ([`Chunk::new`]) of `chunk_cap` events each.
    pub fn new(pool_cap: usize, chunk_cap: usize) -> Arc<Self> {
        Self::with(pool_cap, chunk_cap, false)
    }

    /// Creates a pool recycling up to `pool_cap` stamped chunks of
    /// `chunk_cap` events each, which keep every event's thread and
    /// timestamp: the one way to make such a chunk.
    pub fn stamped(pool_cap: usize, chunk_cap: usize) -> Arc<Self> {
        Self::with(pool_cap, chunk_cap, true)
    }

    fn with(pool_cap: usize, chunk_cap: usize, stamped: bool) -> Arc<Self> {
        Arc::new(ChunkPool {
            free: MpmcQueue::new(pool_cap),
            chunk_cap,
            stamped,
            allocated: AtomicUsize::new(0),
            high_water: AtomicUsize::new(0),
        })
    }

    /// Takes a recycled chunk or allocates a fresh one.
    pub fn acquire(&self) -> Chunk {
        if let Some(c) = self.free.pop() {
            return c;
        }
        let n = self.allocated.fetch_add(1, Ordering::Relaxed) + 1;
        self.high_water.fetch_max(n, Ordering::Relaxed);
        Chunk::with(self.chunk_cap, self.stamped)
    }

    /// `chunk`, first taken from the pool if it is a capacity-0
    /// placeholder: how a producer that flushes often (the MT engine's, at
    /// every lock release) holds a chunk only for a worker it has an event
    /// for.
    #[inline]
    pub fn ready<'a>(&self, chunk: &'a mut Chunk) -> &'a mut Chunk {
        if chunk.capacity() == 0 {
            *chunk = self.acquire();
        }
        chunk
    }

    /// Returns a consumed chunk to the pool (dropped if the pool is full).
    /// A capacity-0 placeholder was never acquired, and is dropped.
    pub fn release(&self, mut chunk: Chunk) {
        if chunk.capacity() == 0 {
            return;
        }
        chunk.reset();
        if self.free.push(chunk).is_err() {
            self.allocated.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Event capacity of chunks from this pool.
    pub fn chunk_capacity(&self) -> usize {
        self.chunk_cap
    }

    /// Peak number of simultaneously allocated chunks.
    pub fn high_water(&self) -> usize {
        self.high_water.load(Ordering::Relaxed)
    }

    /// Bytes the columns of one of this pool's chunks hold per event
    /// ([`Chunk::event_bytes`]).
    pub fn event_bytes(&self) -> usize {
        Chunk::event_bytes(self.stamped)
    }

    /// Bytes attributable to the pool at its high-water mark: its chunks'
    /// columns and the free list.
    pub fn memory_usage(&self) -> usize {
        self.high_water() * self.chunk_cap * self.event_bytes() + self.free.memory_usage()
    }
}

/// A queued sequential event costs 17 bytes: one record.
const _: () = assert!(Chunk::event_bytes(false) == 17 && Chunk::event_bytes(true) == 27);

#[cfg(test)]
mod tests {
    use super::*;
    use dp_types::loc::{loc, MAX_LINE};
    use dp_types::{AccessKind, SourceLoc};
    use proptest::prelude::*;

    fn ev(i: u64) -> TraceEvent {
        TraceEvent::Access(MemAccess::read(i, i, loc(1, 1), 0, 0))
    }

    #[test]
    fn chunk_fill_and_reset() {
        let mut c = Chunk::new(4);
        assert!(c.is_empty());
        for i in 0..4 {
            assert!(!c.is_full());
            c.push(ev(i));
        }
        assert!(c.is_full());
        assert_eq!(c.len(), 4);
        c.mark_rerouted();
        assert_eq!(c.rerouted(), 1);
        c.reset();
        assert!(c.is_empty());
        assert_eq!(c.capacity(), 4);
        assert_eq!(c.rerouted(), 0, "reset clears the rerouted marks");
    }

    /// Every event back as it went in: with its thread and timestamp in
    /// a stamped chunk, thread and timestamp 0 in another.
    fn round_trip(chunk: &mut Chunk, evs: &[TraceEvent]) -> Vec<TraceEvent> {
        chunk.reset();
        for &ev in evs {
            match chunk.threads.is_empty() {
                true => chunk.push(ev),
                false => chunk.push_stamped(Record::pack(&ev), ev.thread(), ev.ts()),
            }
        }
        (0..chunk.len()).map(|i| chunk.event(i)).collect()
    }

    #[test]
    fn every_kind_round_trips_at_field_extremes() {
        let (top, last_word) = (loc(u8::MAX, MAX_LINE), u64::MAX - 7);
        let access = |addr, loc, var, kind| MemAccess { addr, ts: 0, loc, var, thread: 0, kind };
        let evs = [
            TraceEvent::Access(access(0, SourceLoc::unpack(0), u32::MAX, AccessKind::Read)),
            TraceEvent::Access(access(u64::MAX, top, 0, AccessKind::Write)),
            TraceEvent::Access(access(u64::MAX, top, u32::MAX, AccessKind::Read)),
            TraceEvent::LoopBegin { loop_id: u32::MAX, loc: top, thread: 0, ts: 0 },
            TraceEvent::LoopBegin { loop_id: 0, loc: SourceLoc::unpack(0), thread: 0, ts: 0 },
            TraceEvent::LoopIter { loop_id: u32::MAX, iter: u64::MAX, thread: 0, ts: 0 },
            TraceEvent::LoopEnd { loop_id: u32::MAX, loc: top, iters: u64::MAX, thread: 0, ts: 0 },
            TraceEvent::CallBegin { func: u32::MAX, thread: 0, ts: 0 },
            TraceEvent::CallEnd { func: u32::MAX, thread: 0, ts: 0 },
            TraceEvent::Dealloc { base: last_word, len: 1, thread: 0, ts: 0 },
            TraceEvent::Dealloc { base: 0, len: u64::MAX / 8, thread: 0, ts: 0 },
        ];
        assert_eq!(round_trip(&mut Chunk::new(evs.len()), &evs), evs);
        let addrs: Vec<_> = evs.iter().filter_map(|ev| ev.as_access().map(|a| a.addr)).collect();
        let mut chunk = Chunk::new(evs.len());
        round_trip(&mut chunk, &evs);
        assert_eq!((0..evs.len()).filter_map(|i| chunk.access_addr(i)).collect::<Vec<_>>(), addrs);
        // A stamped chunk keeps the thread and the timestamp too.
        let stamped = evs.map(|ev| match ev {
            TraceEvent::Access(a) => {
                TraceEvent::Access(MemAccess { thread: u16::MAX, ts: !0, ..a })
            }
            TraceEvent::Dealloc { base, len, .. } => {
                TraceEvent::Dealloc { base, len, thread: u16::MAX, ts: u64::MAX }
            }
            other => other,
        });
        assert_eq!(round_trip(&mut Chunk::with(evs.len(), true), &stamped), stamped);
    }

    /// Any event a source could send: every field drawn from its whole
    /// range, locations as they arrive packed.
    fn arb_event(thread: impl Strategy<Value = ThreadId>) -> impl Strategy<Value = TraceEvent> {
        let words = (0u8..8, any::<u64>(), any::<u64>());
        let rest = (any::<u32>(), any::<u32>().prop_map(SourceLoc::unpack), thread, any::<u64>());
        (words, rest).prop_map(|((tag, a, b), (n, loc, thread, ts))| match tag {
            0 | 1 => TraceEvent::Access(MemAccess {
                addr: a,
                ts,
                loc,
                var: n,
                thread,
                kind: if tag == 0 { AccessKind::Read } else { AccessKind::Write },
            }),
            2 => TraceEvent::LoopBegin { loop_id: n, loc, thread, ts },
            3 => TraceEvent::LoopIter { loop_id: n, iter: a, thread, ts },
            4 => TraceEvent::LoopEnd { loop_id: n, loc, iters: a, thread, ts },
            5 => TraceEvent::CallBegin { func: n, thread, ts },
            6 => TraceEvent::CallEnd { func: n, thread, ts },
            _ => TraceEvent::Dealloc { base: a, len: b, thread, ts },
        })
    }

    proptest! {
        /// `unpack(pack(e)) == e` for every thread-0 event once its
        /// timestamp is 0, and for every event in a stamped chunk.
        #[test]
        fn records_are_total(
            seq in prop::collection::vec(arb_event(Just(0)), 1..64),
            mt in prop::collection::vec(arb_event(any::<ThreadId>()), 1..64),
        ) {
            let unstamped: Vec<_> = seq.iter().map(|&ev| match ev {
                TraceEvent::Access(a) => TraceEvent::Access(MemAccess { ts: 0, ..a }),
                TraceEvent::LoopBegin { loop_id, loc, thread, .. } => {
                    TraceEvent::LoopBegin { loop_id, loc, thread, ts: 0 }
                }
                TraceEvent::LoopIter { loop_id, iter, thread, .. } => {
                    TraceEvent::LoopIter { loop_id, iter, thread, ts: 0 }
                }
                TraceEvent::LoopEnd { loop_id, loc, iters, thread, .. } => {
                    TraceEvent::LoopEnd { loop_id, loc, iters, thread, ts: 0 }
                }
                TraceEvent::CallBegin { func, thread, .. } => {
                    TraceEvent::CallBegin { func, thread, ts: 0 }
                }
                TraceEvent::CallEnd { func, thread, .. } => TraceEvent::CallEnd { func, thread, ts: 0 },
                TraceEvent::Dealloc { base, len, thread, .. } => {
                    TraceEvent::Dealloc { base, len, thread, ts: 0 }
                }
            }).collect();
            prop_assert_eq!(round_trip(&mut Chunk::new(seq.len()), &seq), unstamped);
            prop_assert_eq!(round_trip(&mut Chunk::with(mt.len(), true), &mt), mt);
        }
    }

    #[test]
    fn pool_charges_the_columns_it_holds() {
        for (pool, per_event) in [(ChunkPool::new(4, 8), 17), (ChunkPool::stamped(4, 8), 27)] {
            assert_eq!(pool.event_bytes(), per_event);
            let held = pool.memory_usage();
            pool.release(pool.acquire());
            assert_eq!(pool.memory_usage() - held, 8 * per_event, "one chunk of 8 events");
        }
    }

    #[test]
    fn a_placeholder_is_readied_from_the_pool_and_never_pooled() {
        let pool = ChunkPool::stamped(4, 8);
        pool.release(Chunk::default());
        let mut pending = Chunk::default();
        assert_eq!(pool.ready(&mut pending).capacity(), 8);
        assert_eq!(pool.high_water(), 1, "the released placeholder was dropped, not pooled");
        pool.ready(&mut pending).push(ev(1));
        assert_eq!((pending.len(), pool.high_water()), (1, 1), "a real chunk is kept");
    }

    #[test]
    fn pool_recycles() {
        let pool = ChunkPool::new(8, 16);
        let mut a = pool.acquire();
        a.push(ev(1));
        pool.release(a);
        let b = pool.acquire();
        assert!(b.is_empty(), "recycled chunk must be reset");
        assert_eq!(pool.high_water(), 1, "second acquire reused the first chunk");
    }

    #[test]
    fn pool_bounds_retention() {
        let pool = ChunkPool::new(2, 4);
        let chunks: Vec<_> = (0..5).map(|_| pool.acquire()).collect();
        assert_eq!(pool.high_water(), 5);
        for c in chunks {
            pool.release(c);
        }
        // Only pool_cap (rounded to 2) chunks are retained; the rest are
        // dropped and the live count reflects that.
        assert!(pool.allocated.load(Ordering::Relaxed) <= 2);
    }

    #[test]
    fn pool_concurrent_use() {
        const POOL_CAP: usize = 32;
        const PRODUCERS: usize = 4;
        let pool = ChunkPool::new(POOL_CAP, 8);
        std::thread::scope(|s| {
            for _ in 0..PRODUCERS {
                let pool = pool.clone();
                s.spawn(move || {
                    for i in 0..1000 {
                        let mut c = pool.acquire();
                        c.push(ev(i));
                        pool.release(c);
                    }
                });
            }
        });
        // Not "≤ 2 per thread": a pop that misses a not-yet-published
        // release allocates, however many chunks are idle.
        assert!(pool.high_water() <= POOL_CAP + PRODUCERS, "{}", pool.high_water());
        assert!(pool.allocated.load(Ordering::Relaxed) <= POOL_CAP, "all released");
    }
}
