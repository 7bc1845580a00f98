//! The repository's benchmark: end-to-end host cost of the Lobster
//! cluster simulator on three workloads, and an outside-in split of that
//! cost across the simulator's layers. See `README.md` beside this crate
//! for the workloads, the metrics and what each metric should move.
//!
//! The harness drives the simulator only through its public API and is
//! single-threaded, so the counting allocator's high-water mark and every
//! simulated count repeat exactly for a seed.

#[allow(unsafe_code)]
pub mod alloc;
pub mod harness;
pub mod report;
pub mod trace;
pub mod workloads;
