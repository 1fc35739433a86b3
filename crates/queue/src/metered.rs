//! Metered transport endpoints: the observability taps of the pipeline.
//!
//! Every [`Transport`](crate::Transport) implementation is covered by the
//! same mechanism — a decorator pair ([`MeteredSender`],
//! [`MeteredReceiver`]) wrapping the channel's endpoints and counting
//! into a shared [`ChannelTap`] — so the SPSC fast path, the lock-free
//! MPMC queue and the lock-based comparator report identical metrics
//! without any queue touching a counter itself. The counters are
//! `dp-metrics` primitives: relaxed atomics, one per tap per event kind.

use crate::traits::{TransportReceiver, TransportSender};
use dp_metrics::{Counter, MaxGauge};
use std::sync::Arc;

/// Per-channel counters shared between a channel's two metered endpoints
/// and the engine that snapshots them.
///
/// Counts are in *messages* (whatever `T` the channel carries — for the
/// profiling engines that is chunks and control messages, not events).
#[derive(Debug, Default)]
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
    /// Highest queue depth (messages) observed at any push.
    pub high_water: MaxGauge,
}

impl ChannelTap {
    /// A fresh tap behind an [`Arc`], ready to hand to both endpoints.
    pub fn shared() -> Arc<Self> {
        Arc::new(ChannelTap::default())
    }

    /// Approximate current depth: pushes minus pops. Exact once the
    /// channel is quiescent (the only time the engine reads it).
    pub fn depth(&self) -> u64 {
        self.pushes.get().saturating_sub(self.pops.get())
    }
}

/// A [`TransportSender`] decorator counting pushes, full-queue bounces
/// and the queue-depth high-water mark into a [`ChannelTap`].
///
/// Deliberately generic over the sender (not the transport), so it
/// preserves whatever thread-affinity the wrapped endpoint encodes — a
/// metered SPSC producer is still `!Sync`.
#[derive(Debug)]
pub struct MeteredSender<S> {
    inner: S,
    tap: Arc<ChannelTap>,
}

impl<S> MeteredSender<S> {
    /// Wraps `inner`, counting into `tap`.
    pub fn new(inner: S, tap: Arc<ChannelTap>) -> Self {
        MeteredSender { inner, tap }
    }

    /// The tap this endpoint counts into.
    pub fn tap(&self) -> &ChannelTap {
        &self.tap
    }
}

impl<T, S: TransportSender<T>> TransportSender<T> for MeteredSender<S> {
    fn push(&self, value: T) -> Result<(), T> {
        match self.inner.push(value) {
            Ok(()) => {
                // `inc` returns the new push total; depth at this instant
                // is that minus the pops so far. Racing pops can only
                // make the recorded depth an underestimate of the true
                // instantaneous peak, never an overestimate.
                let n = self.tap.pushes.inc();
                self.tap.high_water.record(n.saturating_sub(self.tap.pops.get()));
                Ok(())
            }
            Err(v) => {
                self.tap.push_fulls.inc();
                Err(v)
            }
        }
    }

    fn memory_usage(&self) -> usize {
        self.inner.memory_usage()
    }

    fn is_closed(&self) -> bool {
        self.inner.is_closed()
    }
}

/// A [`TransportReceiver`] decorator counting pops and empty polls into
/// a [`ChannelTap`].
#[derive(Debug)]
pub struct MeteredReceiver<R> {
    inner: R,
    tap: Arc<ChannelTap>,
}

impl<R> MeteredReceiver<R> {
    /// Wraps `inner`, counting into `tap`.
    pub fn new(inner: R, tap: Arc<ChannelTap>) -> Self {
        MeteredReceiver { inner, tap }
    }

    /// The tap this endpoint counts into.
    pub fn tap(&self) -> &ChannelTap {
        &self.tap
    }
}

impl<T, R: TransportReceiver<T>> TransportReceiver<T> for MeteredReceiver<R> {
    fn pop(&self) -> Option<T> {
        let got = self.inner.pop();
        if got.is_some() {
            self.tap.pops.inc();
        } else {
            self.tap.empty_pops.inc();
        }
        got
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{SpscTransport, Transport};
    use crate::{LockQueue, MpmcQueue, Shared};

    fn exercise<X: Transport<u32> + Default>() {
        let tap = ChannelTap::shared();
        let (tx, rx) = X::default().channel(0, 2);
        let tx = MeteredSender::new(tx, tap.clone());
        let rx = MeteredReceiver::new(rx, tap.clone());

        tx.push(1).unwrap();
        tx.push(2).unwrap();
        assert!(tx.push(3).is_err(), "capacity-2 channel must bounce the third push");
        assert_eq!(rx.pop(), Some(1));
        assert_eq!(rx.pop(), Some(2));
        assert_eq!(rx.pop(), None);
        assert!(tx.memory_usage() > 0);
        assert!(!tx.is_closed());

        assert_eq!(tap.pushes.get(), 2, "{}", X::kind());
        assert_eq!(tap.push_fulls.get(), 1);
        assert_eq!(tap.pops.get(), 2);
        assert_eq!(tap.empty_pops.get(), 1);
        assert_eq!(tap.high_water.get(), 2);
        assert_eq!(tap.depth(), 0);
    }

    #[test]
    fn every_transport_counts_identically() {
        exercise::<SpscTransport>();
        exercise::<Shared<MpmcQueue<u32>>>();
        exercise::<Shared<LockQueue<u32>>>();
    }

    #[test]
    fn closure_passes_through() {
        let tap = ChannelTap::shared();
        let (tx, rx) = Transport::<u32>::channel(&SpscTransport, 0, 4);
        let tx = MeteredSender::new(tx, tap.clone());
        let rx = MeteredReceiver::new(rx, tap);
        let h = std::thread::spawn(move || drop(rx));
        h.join().unwrap();
        assert!(tx.is_closed(), "metering must not hide receiver death");
    }
}
