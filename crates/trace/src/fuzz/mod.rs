//! Seeded MiniVM program fuzzing: generator, corpus format, minimizer.
//!
//! The differential oracle (the `dp-fuzz` crate) needs three things from
//! the trace layer, and they live here so any crate that can build a
//! [`Program`](crate::Program) can also generate, persist and shrink one:
//!
//! - [`gen`] — a *seeded, reproducible* random program generator. The same
//!   `(seed, FuzzConfig)` pair always yields the same program, so a failure
//!   reported by CI is reproducible from the seed in the log alone.
//!   Generated programs exercise the constructs hand-written workloads
//!   under-cover: deep loop nests, indirection `A[B[i]]`, reductions,
//!   conditional accesses, lock regions and fork-join thread sections.
//! - [`text`] — a printable/parsable corpus format. Failing programs are
//!   committed as *programs*, not as seeds, so a corpus repro keeps
//!   reproducing the original bug even after the generator itself evolves.
//! - [`minimize()`] — a predicate-driven shrinker that reduces a failing
//!   program to a minimal statement count while the predicate (usually
//!   "the differential oracle still diverges") keeps holding.
//!
//! The generator's own randomness is a self-contained xorshift64* stream
//! ([`rng`]) — no external RNG crates, mirroring the fault-injection
//! harness in `dp-queue`.

pub mod gen;
pub mod minimize;
pub mod rng;
pub mod text;

pub use gen::{generate, is_mt, FuzzConfig};
pub use minimize::{minimize, stmt_count};
pub use rng::FuzzRng;
pub use text::{parse_program, print_program};
