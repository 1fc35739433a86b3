//! The tracer contract between the instrumentation front end and the
//! profiling engines.
//!
//! The front end (the MiniVM interpreter) calls [`Tracer::event`] for
//! every instrumented action; engines (serial, parallel, multi-threaded)
//! implement it. The trait lives here, in the shared vocabulary crate, so
//! substrates and engines need not depend on each other.

use crate::event::TraceEvent;
use crate::ids::ThreadId;

/// Consumes the instrumentation event stream of one target thread.
pub trait Tracer {
    /// True if events should be generated at all. Front-ends skip event
    /// construction *and timestamp generation* when false, so a disabled
    /// tracer measures native (uninstrumented) execution — the denominator
    /// of every slowdown figure.
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    /// Delivers one event.
    fn event(&mut self, ev: TraceEvent);

    /// Flush hook invoked immediately *before* a target lock is released,
    /// at barriers, and at thread exit. Chunked tracers push their pending
    /// chunks to the worker queues here, which places the push inside the
    /// lock region — the access/push atomicity of Figure 4 of the paper.
    /// Default: no-op.
    #[inline]
    fn sync_point(&mut self) {}
}

/// Hands out per-target-thread tracers for multi-threaded runs and
/// collects them back at join time.
pub trait TracerFactory: Sync {
    /// Tracer type given to each target thread.
    type Tracer: Tracer + Send;

    /// Creates the tracer for target thread `tid`. Called once per thread,
    /// including `tid == 0` (the main thread).
    fn tracer(&self, tid: ThreadId) -> Self::Tracer;

    /// Returns a thread's tracer when the thread finishes (flush point).
    fn join(&self, tid: ThreadId, tracer: Self::Tracer);
}
