//! Per-channel counters: the observability taps of the pipeline.
//!
//! The profiling engines count every push and pop on a worker's channel
//! into that channel's [`ChannelTap`] — the producers in their one
//! delivery routine, the worker in its loop — so the SPSC ring, the
//! lock-free MPMC queue and the lock-based comparator report identical
//! metrics without any queue touching a counter itself. The counters are
//! `dp-metrics` primitives: relaxed atomics, one per tap per event kind.

use dp_metrics::{Counter, MaxGauge};

/// Per-channel counters shared between a channel's producers, its worker
/// and the engine that snapshots them.
///
/// Counts are in *messages* (whatever `T` the channel carries — for the
/// profiling engines that is chunks and control messages, not events).
#[derive(Debug)]
pub struct ChannelTap {
    /// Messages successfully pushed.
    pub pushes: Counter,
    /// Push attempts bounced by a full queue (each is one backoff round
    /// on the producer side).
    pub push_fulls: Counter,
    /// Messages successfully popped.
    pub pops: Counter,
    /// Pop attempts that found the queue empty (consumer idle spins).
    pub empty_pops: Counter,
    /// Highest queue depth (messages) observed at any push, never above
    /// the channel's capacity.
    pub high_water: MaxGauge,
    /// Messages the channel holds at most.
    capacity: u64,
}

impl ChannelTap {
    /// The counters of a channel that holds at most `capacity` messages.
    pub fn new(capacity: usize) -> Self {
        ChannelTap {
            pushes: Counter::new(),
            push_fulls: Counter::new(),
            pops: Counter::new(),
            empty_pops: Counter::new(),
            high_water: MaxGauge::new(),
            capacity: capacity as u64,
        }
    }

    /// Approximate current depth: pushes minus pops. Exact once the
    /// channel is quiescent (the only time the engine reads it).
    pub fn depth(&self) -> u64 {
        self.pushes.get().saturating_sub(self.pops.get())
    }

    /// Counts one push attempt: a message in (`ok`), or a bounce off a
    /// full queue.
    pub fn on_push(&self, ok: bool) {
        if ok {
            // `inc` returns the new push total; depth at this instant is
            // that minus the pops so far. A pop is counted only after it
            // has freed its cell, so a push landing in between reads one
            // pop too few: the reading is capped at what the channel holds.
            let n = self.pushes.inc();
            self.high_water.record(n.saturating_sub(self.pops.get()).min(self.capacity));
        } else {
            self.push_fulls.inc();
        }
    }

    /// Counts one pop attempt: a message out (`got`), or an empty poll.
    pub fn on_pop(&self, got: bool) {
        if got {
            self.pops.inc();
        } else {
            self.empty_pops.inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{spsc_ring, LockQueue, MpmcQueue, TransportReceiver, TransportSender};
    use std::sync::Arc;

    fn exercise<S: TransportSender<u32>, R: TransportReceiver<u32>>((tx, rx): (S, R)) {
        let tap = ChannelTap::new(2);
        let push = |v| {
            let r = tx.push(v);
            tap.on_push(r.is_ok());
            r
        };
        let pop = || {
            let got = rx.pop();
            tap.on_pop(got.is_some());
            got
        };
        push(1).unwrap();
        push(2).unwrap();
        assert!(push(3).is_err(), "capacity-2 channel must bounce the third push");
        assert_eq!(pop(), Some(1));
        assert_eq!(pop(), Some(2));
        assert_eq!(pop(), None);

        assert_eq!(tap.pushes.get(), 2);
        assert_eq!(tap.push_fulls.get(), 1);
        assert_eq!(tap.pops.get(), 2);
        assert_eq!(tap.empty_pops.get(), 1);
        assert_eq!(tap.high_water.get(), 2);
        assert_eq!(tap.depth(), 0);
    }

    /// A worker frees a cell before it counts its pop; a push that lands
    /// in between reads one pop too few, but not a depth above capacity.
    #[test]
    fn a_push_racing_an_uncounted_pop_reads_at_most_the_capacity() {
        let tap = ChannelTap::new(2);
        for _ in 0..3 {
            tap.on_push(true);
        }
        assert_eq!(tap.high_water.get(), 2);
        tap.on_pop(true);
        assert_eq!(tap.depth(), 2);
    }

    #[test]
    fn every_transport_counts_identically() {
        let mpmc = Arc::new(MpmcQueue::new(2));
        let lock = Arc::new(LockQueue::new(2));
        exercise(spsc_ring(2));
        exercise((mpmc.clone(), mpmc));
        exercise((lock.clone(), lock));
    }
}
