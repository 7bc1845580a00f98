//! # lobster — data-intensive HEP workloads on non-dedicated clusters
//!
//! This crate is the paper's primary contribution: a *per-user* workload
//! management system that runs millions of analysis tasks on tens of
//! thousands of opportunistic cores, composing the substrates in the
//! sibling crates (`wqueue`, `batchsim`, `cvmfssim`, `gridstore`,
//! `simnet`) exactly as Figure 1 composes HTCondor, Work Queue, Parrot,
//! CVMFS, XrootD, Chirp and Hadoop.
//!
//! ## Module map
//!
//! * [`config`] — the user-provided configuration file (§3: "The user
//!   provides a configuration file which describes the input data sources
//!   and the analysis code").
//! * [`db`] — the Lobster DB: persistent tasklet→task bookkeeping with
//!   crash recovery (the paper uses SQLite; we use an embedded journal).
//! * [`workflow`] — work decomposition: dataset → tasklets → dynamically
//!   sized tasks (§4.1).
//! * [`tasksize`] — the paper's task-size Monte Carlo (Figure 3).
//! * [`access`] — the three data access methods and the staging-vs-
//!   streaming trade-off (§4.2, Figure 4).
//! * [`wrapper`] — the instrumented task wrapper: per-segment timings and
//!   failure codes (§3, §5).
//! * [`merge`] — sequential / Hadoop / interleaved output merging (§4.4,
//!   Figure 7), with a *real* threaded Map-Reduce path.
//! * [`monitor`] — monitoring, accounting (Figure 8) and the
//!   troubleshooting advisor of §5.
//! * [`adaptive`] — dynamic task sizing from observed eviction rates (the
//!   paper's future-work feature, §8).
//! * [`fault`] — fault-injection plans that degrade or black-hole a
//!   squid/Chirp/federation for a window (Figure 11-style bursts on
//!   demand).
//! * [`driver`] — the full-cluster discrete-event driver behind the §6
//!   production runs (Figures 9–11), including the live ops control
//!   surface (poll status mid-run, pause into a durable checkpoint).
//! * [`ops`] — the bridge into the `opsplane` crate: lower a finished
//!   run into a deterministic `metrics.json` snapshot.
//! * [`local`] — the laptop-scale driver that runs real closures through
//!   `wqueue::local` (quickstart path).

pub mod access;
pub mod adaptive;
pub mod config;
pub mod db;
pub mod driver;
pub mod fault;
pub mod local;
pub mod merge;
pub mod monitor;
pub mod ops;
pub mod tasksize;
pub mod workflow;
pub mod wrapper;

pub use config::LobsterConfig;
pub use db::LobsterDb;
pub use driver::{ClusterSim, OpsStatus, RunReport, Session, Step};
pub use workflow::Workflow;
