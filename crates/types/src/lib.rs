//! Shared types for the `depprof` data-dependence profiler.
//!
//! This crate defines the vocabulary every other crate speaks:
//!
//! - [`SourceLoc`] — a `file:line` source location, packable into a `u32`
//!   exactly like the slots of the paper's signature (Section III-B).
//! - [`MemAccess`] / [`AccessKind`] — one instrumented memory access.
//! - [`TraceEvent`] — the full instrumentation event stream (accesses plus
//!   the control-flow and lifetime events of Section III).
//! - [`Record`] — an event's one packed layout, from the producer to the
//!   worker: what the DPSV wire, a trace file and a queued chunk hold.
//! - [`DepType`] / [`Dependence`] — profiled data dependences in the
//!   `<sink, type, source>` triple representation of Section III-A.
//! - [`Interner`] — variable-name interning so accesses carry a cheap
//!   [`VarId`] instead of a string.
//! - [`fxhash`] — the fast non-cryptographic hasher used by all hot maps.

#![warn(missing_docs)]

pub mod access;
pub mod dep;
pub mod event;
pub mod fxhash;
pub mod ids;
pub mod interner;
pub mod loc;
pub mod protocol;
pub mod record;
pub mod sink;
pub mod wire;

pub use access::{AccessKind, MemAccess};
pub use dep::{DepEdge, DepFlags, DepType, Dependence, SinkKey};
pub use event::TraceEvent;
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use ids::{Address, LoopId, MutexId, ThreadId, Timestamp, VarId};
pub use interner::Interner;
pub use loc::SourceLoc;
pub use protocol::{Frame, Hello, ProtocolError};
pub use record::{EventKind, Record, MAX_DEALLOC_WORDS};
pub use sink::{Tracer, TracerFactory};
pub use wire::{atomic_write, read_section, write_section, ByteReader, ByteWriter, WireError};
