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

use crate::mpmc::MpmcQueue;
use dp_types::TraceEvent;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A fixed-capacity buffer of trace events. The default is a capacity-0
/// chunk that owns no allocation: the placeholder a producer leaves where
/// a chunk it is sending used to be.
#[derive(Debug, Default)]
pub struct Chunk {
    events: Vec<TraceEvent>,
    cap: usize,
    rerouted: usize,
}

impl Chunk {
    /// Creates an empty chunk that holds up to `cap` events.
    pub fn new(cap: usize) -> Self {
        Chunk { events: Vec::with_capacity(cap), cap, rerouted: 0 }
    }

    /// Appends an event. Callers check [`Chunk::is_full`] first; pushing
    /// past capacity is a logic error (debug-asserted) but only costs a
    /// reallocation in release builds.
    #[inline]
    pub fn push(&mut self, ev: TraceEvent) {
        debug_assert!(self.events.len() < self.cap, "chunk overfilled");
        self.events.push(ev);
    }

    /// True once `capacity` events are buffered.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.events.len() >= self.cap
    }

    /// Buffered events.
    #[inline]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of buffered events.
    #[inline]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no events are buffered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Configured capacity.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.cap
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

    /// Empties the chunk for reuse, keeping its allocation.
    pub fn reset(&mut self) {
        self.events.clear();
        self.rerouted = 0;
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
    allocated: AtomicUsize,
    high_water: AtomicUsize,
}

impl ChunkPool {
    /// Creates a pool recycling up to `pool_cap` chunks of `chunk_cap`
    /// events each.
    pub fn new(pool_cap: usize, chunk_cap: usize) -> Arc<Self> {
        Arc::new(ChunkPool {
            free: MpmcQueue::new(pool_cap),
            chunk_cap,
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
        Chunk::new(self.chunk_cap)
    }

    /// Returns a consumed chunk to the pool (dropped if the pool is full).
    pub fn release(&self, mut chunk: Chunk) {
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

    /// Bytes attributable to the pool at its high-water mark.
    pub fn memory_usage(&self) -> usize {
        self.high_water() * self.chunk_cap * std::mem::size_of::<TraceEvent>()
            + self.free.memory_usage()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_types::{loc::loc, MemAccess};

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
