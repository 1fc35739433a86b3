//! `dp-server` — the profiler as a long-lived network service.
//!
//! The paper's pipeline (Section IV, Figure 2) decouples event
//! production from dependence analysis; this crate carries that
//! decoupling across a socket. A [`Server`] listens on TCP (and/or a
//! Unix socket), speaks the `DPSV` v1 frame protocol
//! ([`dp_types::protocol`]), and runs one profiling engine per client
//! session:
//!
//! - **Session manager** — each connection's `Hello` frame names a
//!   session and carries a [`SessionSpec`](dp_core::SessionSpec); the
//!   server builds the matching engine (serial in-line or the parallel
//!   pipeline) and feeds it the streamed events. A global concurrent-
//!   session cap bounds server load; clients past the cap receive a
//!   typed `Error` frame instead of a hang.
//! - **Durability** — long-running sessions are checkpointed through
//!   the two-generation [`CheckpointStore`](dp_core::CheckpointStore);
//!   a killed server resumes an in-flight session when its client
//!   reconnects under the same name, handing back the resume position
//!   in `HelloAck` so the client skips what was already profiled.
//! - **Graceful shutdown** — a SIGINT/SIGTERM sets a process-wide flag
//!   ([`shutdown`]); the accept loop and every connection thread
//!   observe it on every read tick, write a final emergency checkpoint per
//!   in-flight session, and notify clients with `Error{SHUTDOWN}`.
//! - **Backpressure** — frames are bounded (`MAX_FRAME_BYTES`) and the
//!   server reads a connection only as fast as its engine consumes, so
//!   a `Block`-policy session exerts natural TCP backpressure while a
//!   `Drop`-policy session sheds load inside the engine with the PR 2
//!   overflow accounting.
//!
//! - **Resilience** — the client side ships a [`push_with_retry`] loop
//!   that survives mid-stream disconnects: reconnect with bounded
//!   jittered backoff, re-`Hello` the same session, and skip the prefix
//!   the server reports in `HelloAck.resume_from`. Frames are
//!   positional, so resend overlap and duplicated delivery dedupe
//!   exactly — at-least-once transport, exactly-once profiling. A
//!   seeded [`ChaosStream`] fault injector ([`NetFaultPlan`]) proves
//!   the path under adversarial networks, and idle durable sessions
//!   hibernate to the checkpoint store so `max_sessions` bounds live
//!   engines rather than named sessions.
//!
//! The session state machine itself ([`SessionEngine`]) is socket-free:
//! it maps incoming frames to reply frames, which is what the
//! equivalence tests drive directly and both socket front-ends share.

#![warn(missing_docs)]

pub mod chaos;
pub mod client;
pub mod engine;
pub mod server;
pub mod shutdown;

pub use chaos::{ChaosStream, NetFaultPlan};
pub use client::{
    backoff_delay_ms, push_events, push_with_retry, ClientError, FrameSender, PushOptions,
    PushOutcome, RetryOutcome, RetryPolicy,
};
pub use engine::{SessionEngine, SessionError};
pub use server::{Server, ServerConfig};
pub use shutdown::{
    install_signal_handlers, request_shutdown, shutdown_flag, SIGINT_EXIT, SIGTERM_EXIT,
};
