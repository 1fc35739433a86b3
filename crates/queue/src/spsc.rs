//! Bounded lock-free single-producer single-consumer ring buffer.
//!
//! The sequential-target pipeline of Figure 2 has exactly one producer (the
//! main thread running the instrumented program) and one consumer per
//! queue (the owning worker), so an SPSC ring with cached indices is the
//! lowest-overhead transport possible: one relaxed load + one release store
//! per operation in the common case. The type system enforces the
//! single-producer/single-consumer contract by splitting the ring into a
//! [`SpscProducer`] and a [`SpscConsumer`] handle, neither of which is
//! `Clone`.

use crate::CachePadded;
use std::cell::{Cell as StdCell, UnsafeCell};
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

struct Inner<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: usize,
    /// Next slot the producer will write (written by producer only).
    tail: CachePadded<AtomicUsize>,
    /// Next slot the consumer will read (written by consumer only).
    head: CachePadded<AtomicUsize>,
}

unsafe impl<T: Send> Send for Inner<T> {}
unsafe impl<T: Send> Sync for Inner<T> {}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        // Only one thread can be dropping the last Arc; plain loads are fine.
        let mut head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Relaxed);
        while head != tail {
            unsafe { (*self.buf[head & self.mask].get()).assume_init_drop() };
            head = head.wrapping_add(1);
        }
    }
}

/// Producer half of an SPSC ring. `!Clone`; move it to the producing thread.
pub struct SpscProducer<T> {
    inner: Arc<Inner<T>>,
    cached_head: StdCell<usize>,
}

/// Consumer half of an SPSC ring. `!Clone`; move it to the consuming thread.
pub struct SpscConsumer<T> {
    inner: Arc<Inner<T>>,
    cached_tail: StdCell<usize>,
}

// The handles own their side's cached index; sending the handle to another
// thread is fine, sharing it is not (no Sync).
unsafe impl<T: Send> Send for SpscProducer<T> {}
unsafe impl<T: Send> Send for SpscConsumer<T> {}

/// Creates an SPSC ring with capacity `cap` (rounded up to a power of two,
/// minimum 2), returning the two endpoint handles.
pub fn spsc_ring<T>(cap: usize) -> (SpscProducer<T>, SpscConsumer<T>) {
    let cap = cap.max(2).next_power_of_two();
    let inner = Arc::new(Inner {
        buf: (0..cap).map(|_| UnsafeCell::new(MaybeUninit::uninit())).collect(),
        mask: cap - 1,
        tail: CachePadded(AtomicUsize::new(0)),
        head: CachePadded(AtomicUsize::new(0)),
    });
    (
        SpscProducer { inner: inner.clone(), cached_head: StdCell::new(0) },
        SpscConsumer { inner, cached_tail: StdCell::new(0) },
    )
}

impl<T> SpscProducer<T> {
    /// Attempts to enqueue; returns the value back if the ring is full.
    pub fn push(&self, value: T) -> Result<(), T> {
        let inner = &*self.inner;
        let tail = inner.tail.load(Ordering::Relaxed);
        // Fast path: trust the cached head; refresh only when it claims full.
        if tail.wrapping_sub(self.cached_head.get()) > inner.mask {
            self.cached_head.set(inner.head.load(Ordering::Acquire));
            if tail.wrapping_sub(self.cached_head.get()) > inner.mask {
                return Err(value);
            }
        }
        unsafe { (*inner.buf[tail & inner.mask].get()).write(value) };
        inner.tail.store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Capacity of the ring.
    pub fn capacity(&self) -> usize {
        self.inner.mask + 1
    }

    /// True once the [`SpscConsumer`] has been dropped (the worker thread
    /// holding it exited). A full ring with a closed consumer will never
    /// drain, so producers use this to fail fast instead of spinning.
    pub fn is_closed(&self) -> bool {
        Arc::strong_count(&self.inner) <= 1
    }

    /// Bytes attributable to this ring (counted once, on the producer
    /// side, which the profiling engine keeps alive for accounting after
    /// the consumer has moved into its worker thread).
    pub fn memory_usage(&self) -> usize {
        (self.inner.mask + 1) * std::mem::size_of::<T>() + std::mem::size_of::<Inner<T>>()
    }
}

impl<T> SpscConsumer<T> {
    /// Attempts to dequeue; `None` if empty.
    pub fn pop(&self) -> Option<T> {
        let inner = &*self.inner;
        let head = inner.head.load(Ordering::Relaxed);
        if head == self.cached_tail.get() {
            self.cached_tail.set(inner.tail.load(Ordering::Acquire));
            if head == self.cached_tail.get() {
                return None;
            }
        }
        let value = unsafe { (*inner.buf[head & inner.mask].get()).assume_init_read() };
        inner.head.store(head.wrapping_add(1), Ordering::Release);
        Some(value)
    }

    /// Capacity of the ring.
    pub fn capacity(&self) -> usize {
        self.inner.mask + 1
    }

    /// Bytes attributable to this ring (counted once, on the consumer side).
    pub fn memory_usage(&self) -> usize {
        (self.inner.mask + 1) * std::mem::size_of::<T>() + std::mem::size_of::<Inner<T>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_and_full_empty() {
        let (p, c) = spsc_ring::<u32>(4);
        assert_eq!(c.pop(), None);
        for i in 0..4 {
            p.push(i).unwrap();
        }
        assert!(p.push(9).is_err());
        for i in 0..4 {
            assert_eq!(c.pop(), Some(i));
        }
        assert_eq!(c.pop(), None);
    }

    #[test]
    fn wraparound() {
        let (p, c) = spsc_ring::<u64>(2);
        for i in 0..10_000u64 {
            p.push(i).unwrap();
            assert_eq!(c.pop(), Some(i));
        }
    }

    #[test]
    fn cross_thread_order() {
        const N: u64 = 100_000;
        let (p, c) = spsc_ring::<u64>(128);
        let h = std::thread::spawn(move || {
            for i in 0..N {
                let mut v = i;
                while let Err(back) = p.push(v) {
                    v = back;
                    std::thread::yield_now();
                }
            }
        });
        let mut expect = 0;
        while expect < N {
            if let Some(v) = c.pop() {
                assert_eq!(v, expect);
                expect += 1;
            } else {
                std::thread::yield_now();
            }
        }
        h.join().unwrap();
    }

    #[test]
    fn closed_consumer_is_observable() {
        let (p, c) = spsc_ring::<u32>(4);
        assert!(!p.is_closed());
        drop(c);
        assert!(p.is_closed());
    }

    #[test]
    fn drop_releases_remaining() {
        use std::sync::atomic::AtomicU64;
        struct D(Arc<AtomicU64>);
        impl Drop for D {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let drops = Arc::new(AtomicU64::new(0));
        {
            let (p, _c) = spsc_ring::<D>(8);
            for _ in 0..3 {
                assert!(p.push(D(drops.clone())).is_ok());
            }
        }
        assert_eq!(drops.load(Ordering::Relaxed), 3);
    }
}
