//! The two endpoint traits a worker's channel is reached through.
//!
//! Every queue hands out a producing and a consuming end: the SPSC ring
//! its two `!Sync` halves ([`spsc_ring`](crate::spsc_ring)), the shared queues
//! ([`MpmcQueue`], [`LockQueue`]) one `Arc` on each side. The profiling
//! engines keep the senders and move each receiver into its worker
//! through these traits, so the SPSC, MPMC and lock-based pipelines share
//! every other line of code and a measured gap is attributable to the
//! queue alone — the claim of Section IV. For the SPSC ring the type
//! system itself enforces that one thread feeds each worker, which is
//! exactly the situation of Figure 2 (one instrumented thread, W
//! workers).

use crate::spsc::{SpscConsumer, SpscProducer};
use crate::{LockQueue, MpmcQueue};
use std::sync::Arc;

/// The producing endpoint of a per-worker channel, held by the router.
///
/// `Send` but deliberately **not** required to be `Sync`: a sender is
/// owned by exactly one routing thread. A shared queue's `Arc` sender
/// *is* shareable; the multi-threaded-target engine relies on that.
pub trait TransportSender<T>: Send {
    /// Attempts to enqueue; gives the value back when the channel is full
    /// (the caller backs off, applying backpressure to the instrumented
    /// program).
    fn push(&self, value: T) -> Result<(), T>;
    /// Bytes attributable to the channel (memory accounting, Figures
    /// 7/8). Counted on the sender side because the engine keeps senders
    /// alive until after the workers are joined.
    fn memory_usage(&self) -> usize;
    /// True once the receiving endpoint has been dropped — i.e. the
    /// worker thread holding it has exited, cleanly or by panic. A full
    /// queue whose sender is closed will never drain; producers check
    /// this in their backoff loops so a dead worker fails pushes fast
    /// instead of hanging the instrumented program forever.
    fn is_closed(&self) -> bool;
}

/// The consuming endpoint of a per-worker channel, moved into the worker.
pub trait TransportReceiver<T>: Send {
    /// Attempts to dequeue; `None` when currently empty.
    fn pop(&self) -> Option<T>;
    /// Messages the channel holds at most.
    fn capacity(&self) -> usize;
}

impl<T: Send> TransportSender<T> for SpscProducer<T> {
    fn push(&self, value: T) -> Result<(), T> {
        SpscProducer::push(self, value)
    }

    fn memory_usage(&self) -> usize {
        SpscProducer::memory_usage(self)
    }

    fn is_closed(&self) -> bool {
        SpscProducer::is_closed(self)
    }
}

impl<T: Send> TransportReceiver<T> for SpscConsumer<T> {
    fn pop(&self) -> Option<T> {
        SpscConsumer::pop(self)
    }

    fn capacity(&self) -> usize {
        SpscConsumer::capacity(self)
    }
}

/// Both ends of a shared queue's channel are clones of one `Arc`.
macro_rules! shared_endpoints {
    ($($queue:ident),*) => {$(
        impl<T: Send> TransportSender<T> for Arc<$queue<T>> {
            fn push(&self, value: T) -> Result<(), T> {
                $queue::push(self, value)
            }

            fn memory_usage(&self) -> usize {
                $queue::memory_usage(self)
            }

            fn is_closed(&self) -> bool {
                // One clone per side: when the worker thread ends, its
                // clone drops and only the sender's remains.
                Arc::strong_count(self) <= 1
            }
        }

        impl<T: Send> TransportReceiver<T> for Arc<$queue<T>> {
            fn pop(&self) -> Option<T> {
                $queue::pop(self)
            }

            fn capacity(&self) -> usize {
                $queue::capacity(self)
            }
        }
    )*};
}

shared_endpoints!(MpmcQueue, LockQueue);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spsc_ring;

    fn shared<Q>(queue: Q) -> (Arc<Q>, Arc<Q>) {
        let q = Arc::new(queue);
        (q.clone(), q)
    }

    fn exercise<S: TransportSender<u32>, R: TransportReceiver<u32> + 'static>((tx, rx): (S, R)) {
        tx.push(1).unwrap();
        tx.push(2).unwrap();
        assert_eq!(rx.capacity(), 4);
        assert_eq!(rx.pop(), Some(1));
        assert!(tx.memory_usage() > 0);
        assert!(!tx.is_closed(), "receiver is still alive");
        // The receiver works from another thread (the worker).
        let h = std::thread::spawn(move || rx.pop());
        assert_eq!(h.join().unwrap(), Some(2));
        // The worker thread exited and dropped its endpoint: the sender
        // must observe the closure (this is how dead workers are found).
        assert!(tx.is_closed(), "closed channel not detected");
    }

    #[test]
    fn all_transports_conform() {
        exercise(spsc_ring(4));
        exercise(shared(MpmcQueue::new(4)));
        exercise(shared(LockQueue::new(4)));
    }
}
