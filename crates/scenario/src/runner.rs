//! Scenario conformance: run a scenario and check the four global
//! robustness invariants.
//!
//! 1. **No hang** — the run drains strictly before the scenario's horizon
//!    (the sim-time watchdog cap).
//! 2. **Accounting conservation** — a cold journal replay accounts every
//!    tasklet exactly once: `done + dead-lettered == total`, with nothing
//!    left in flight.
//! 3. **Trace determinism** — the durable run and an independent in-memory
//!    run of the same scenario serialise to byte-identical traces (covering
//!    both same-seed determinism and journaling non-perturbation).
//! 4. **Crash/resume convergence** — killing the master halfway through the
//!    event stream and resuming from the journal converges to the
//!    uninterrupted run's accounting, via [`lobster::Session::crash`].

use crate::compile::{compile, compile_multitenant, Compiled};
use crate::spec::{Scenario, ScenarioError};
use lobster::db::LobsterDb;
use lobster::driver::{ClusterSim, RunReport, Session, Step};
use lobster::monitor::Accounting;
use opsplane::MetricsSnapshot;
use serde::{Deserialize, Serialize};
use simkit::fault::CrashSite;
use simkit::time::SimTime;
use simkit::trace::{fnv1a, Trace};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// Why a scenario failed conformance.
#[derive(Debug)]
pub enum ConformanceError {
    /// The scenario itself would not compile.
    Scenario(ScenarioError),
    /// Journal plumbing failed.
    Io(io::Error),
    /// One of the four invariants did not hold.
    Invariant {
        /// Which scenario.
        scenario: String,
        /// Which invariant (`no-hang`, `conservation`, `determinism`,
        /// `crash-resume`).
        invariant: &'static str,
        /// What went wrong.
        detail: String,
    },
}

impl fmt::Display for ConformanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConformanceError::Scenario(e) => write!(f, "scenario error: {e}"),
            ConformanceError::Io(e) => write!(f, "io error: {e}"),
            ConformanceError::Invariant {
                scenario,
                invariant,
                detail,
            } => write!(f, "{scenario}: invariant {invariant} violated: {detail}"),
        }
    }
}

impl std::error::Error for ConformanceError {}

impl From<ScenarioError> for ConformanceError {
    fn from(e: ScenarioError) -> Self {
        ConformanceError::Scenario(e)
    }
}

impl From<io::Error> for ConformanceError {
    fn from(e: io::Error) -> Self {
        ConformanceError::Io(e)
    }
}

/// What a conforming run looked like — committed as the chaos-sweep
/// baseline so drift in any scenario's outcome is visible in review.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ConformanceReport {
    /// Scenario name.
    pub scenario: String,
    /// Scenario seed.
    pub seed: u64,
    /// Tasklets across all workflows.
    pub total_tasklets: u64,
    /// Tasklets accounted done by the cold journal replay.
    pub done_tasklets: u64,
    /// Tasklets accounted dead-lettered by the cold journal replay.
    pub dead_tasklets: u64,
    /// Dead-letter ledger entries in the reference report.
    pub dead_letters: u64,
    /// Tasks completed in the reference run.
    pub tasks_completed: u64,
    /// Events the reference run delivered.
    pub events_delivered: u64,
    /// When the reference run drained, in sim microseconds.
    pub finished_at_us: u64,
    /// The horizon (no-hang cap), in sim microseconds.
    pub horizon_us: u64,
    /// FNV-1a digest of the serialised run trace, hex.
    pub trace_digest: String,
}

/// Everything observable about a run that is cheap to serialise — the
/// determinism invariant hashes this record's bytes.
#[derive(Serialize)]
struct RunTraceRecord {
    tasks_completed: u64,
    tasks_failed: u64,
    evictions: u64,
    merges_completed: u64,
    final_task_size: u32,
    peak_concurrency: f64,
    finished_at: Option<SimTime>,
    accounting: Accounting,
    merged_files: Vec<(String, u64)>,
    dashboard: Vec<(String, f64)>,
    dead_letter_units: u64,
    concurrency: Vec<f64>,
    completions: Vec<f64>,
    failures: Vec<f64>,
    efficiency: Vec<f64>,
}

/// Serialise the observable run state and digest it.
fn trace_bytes(report: &RunReport) -> io::Result<(Vec<u8>, u64)> {
    let record = RunTraceRecord {
        tasks_completed: report.tasks_completed,
        tasks_failed: report.tasks_failed,
        evictions: report.evictions,
        merges_completed: report.merges_completed,
        final_task_size: report.final_task_size,
        peak_concurrency: report.peak_concurrency,
        finished_at: report.finished_at,
        accounting: report.accounting.clone(),
        merged_files: report.merged_files.clone(),
        dashboard: report.dashboard.clone(),
        dead_letter_units: report.dead_letters.iter().map(|d| d.units).sum(),
        concurrency: report.timeline.concurrency(),
        completions: report.timeline.completions(),
        failures: report.timeline.failures(),
        efficiency: report.timeline.efficiency(),
    };
    let mut trace = Trace::new();
    trace.push(report.ended_at, record);
    let mut buf = Vec::new();
    trace.write_jsonl(&mut buf)?;
    let digest = fnv1a(&buf);
    Ok((buf, digest))
}

/// Runs scenarios and checks the four invariants. Owns a scratch
/// directory for journals; every conformance run cleans up after itself.
pub struct ScenarioRunner {
    root: PathBuf,
}

/// v3 journals are directories; clear both shapes.
fn cleanup(path: &Path) {
    std::fs::remove_file(path).ok();
    std::fs::remove_dir_all(path).ok();
}

/// A journal path under the runner's root: cleared when created, removed
/// again when dropped, whichever way the conformance run ends.
struct ScratchJournal(PathBuf);

impl ScratchJournal {
    fn new(path: PathBuf) -> Self {
        cleanup(&path);
        ScratchJournal(path)
    }
}

impl Drop for ScratchJournal {
    fn drop(&mut self) {
        cleanup(&self.0);
    }
}

/// What a cold replay of a drained journal accounts.
struct Ledger {
    done: u64,
    dead: u64,
    in_flight: usize,
    unmerged: usize,
}

impl Ledger {
    fn recover(dir: &Path) -> io::Result<Ledger> {
        let db = LobsterDb::recover(dir)?;
        Ok(Ledger {
            done: db.total_done_tasklets(),
            dead: db.total_dead_tasklets(),
            in_flight: db.running_tasks().len(),
            unmerged: db.unmerged_outputs().len(),
        })
    }

    /// Why the ledger fails conservation against `total` tasklets: every
    /// tasklet done or dead-lettered exactly once, nothing in flight.
    fn violation(&self, total: u64) -> Option<String> {
        let (done, dead, in_flight) = (self.done, self.dead, self.in_flight);
        (done + dead != total || in_flight != 0).then(|| {
            format!("done {done} + dead {dead} != total {total}, or {in_flight} task(s) in flight")
        })
    }
}

impl ScenarioRunner {
    /// A runner whose journals live under the system temp dir, namespaced
    /// by `tag` and the process id so concurrent test binaries don't
    /// collide.
    pub fn new(tag: &str) -> io::Result<Self> {
        let root = std::env::temp_dir()
            .join("lobster-scenarios")
            .join(format!("{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&root)?;
        Ok(ScenarioRunner { root })
    }

    fn invariant<T>(
        sc: &Scenario,
        invariant: &'static str,
        detail: String,
    ) -> Result<T, ConformanceError> {
        Err(ConformanceError::Invariant {
            scenario: sc.name.clone(),
            invariant,
            detail,
        })
    }

    /// Run `sc` and check all four invariants, returning the conformance
    /// record of the reference run.
    pub fn conformance(&self, sc: &Scenario) -> Result<ConformanceReport, ConformanceError> {
        self.conformance_with_snapshot(sc).map(|(report, _)| report)
    }

    /// [`conformance`](Self::conformance), but also lower the reference
    /// run into a deterministic ops-plane metrics snapshot — so every
    /// conformance run can emit `metrics.json` / render the dashboard.
    pub fn conformance_with_snapshot(
        &self,
        sc: &Scenario,
    ) -> Result<(ConformanceReport, MetricsSnapshot), ConformanceError> {
        let Compiled {
            cfg,
            params,
            workflows,
        } = compile(sc)?;
        let (snap_cfg, snap_params) = (cfg.clone(), params.clone());
        let total_tasklets: u64 = workflows.iter().map(|w| w.n_tasklets()).sum();
        let horizon_us = params.horizon.as_micros();

        // Reference durable run: invariants 1 (no hang) and 2
        // (conservation, via a cold journal replay).
        let ref_path = ScratchJournal::new(self.root.join(format!("{}-ref", sc.name)));
        let reference =
            Session::new(ClusterSim::durable(cfg, params, workflows, &ref_path.0)?).finish();
        let Some(finished_at) = reference.finished_at else {
            return Self::invariant(
                sc,
                "no-hang",
                format!(
                    "run did not drain within the {}h horizon ({} tasks completed, {} events)",
                    sc.horizon_hours, reference.tasks_completed, reference.events_delivered
                ),
            );
        };
        let ledger = Ledger::recover(&ref_path.0)?;
        drop(ref_path);
        if let Some(detail) = ledger.violation(total_tasklets) {
            return Self::invariant(sc, "conservation", detail);
        }
        if reference.dead_letters.is_empty() && ledger.unmerged != 0 {
            return Self::invariant(
                sc,
                "conservation",
                format!(
                    "{} output(s) outside any merged file in a dead-letter-free run",
                    ledger.unmerged
                ),
            );
        }

        // Invariant 3: an independent in-memory run serialises to the
        // byte-identical trace (same-seed determinism + journaling
        // non-perturbation in one comparison).
        let c = compile(sc)?;
        let memory = Session::new(ClusterSim::new(c.cfg, c.params, c.workflows)).finish();
        let (ref_bytes, ref_digest) = trace_bytes(&reference)?;
        let (mem_bytes, mem_digest) = trace_bytes(&memory)?;
        if ref_bytes != mem_bytes {
            return Self::invariant(
                sc,
                "determinism",
                format!("durable trace digest {ref_digest:016x} != in-memory {mem_digest:016x}"),
            );
        }

        // Invariant 4: crash halfway through the event stream, resume from
        // the journal, converge with the uninterrupted reference.
        let crash_path = ScratchJournal::new(self.root.join(format!("{}-crash", sc.name)));
        let budget = (reference.events_delivered / 2).max(1);
        let c = compile(sc)?;
        let horizon = SimTime::ZERO + c.params.horizon;
        let durable = ClusterSim::durable(c.cfg, c.params, c.workflows, &crash_path.0)?;
        let mut crashed = Session::new(durable);
        if crashed.step(horizon, budget) == Step::Quiescent {
            return Self::invariant(
                sc,
                "crash-resume",
                format!(
                    "crash budget {budget} of {} events did not land mid-run",
                    reference.events_delivered
                ),
            );
        }
        crashed.crash(CrashSite::CommitBoundary);
        let c = compile(sc)?;
        let resumed = Session::new(ClusterSim::resume(
            c.cfg,
            c.params,
            c.workflows,
            &crash_path.0,
        )?)
        .finish();
        if resumed.finished_at.is_none() {
            return Self::invariant(sc, "crash-resume", "resumed run never finished".to_string());
        }
        // A resumed run's *timing* legitimately diverges (the clock restarts
        // and the rng stream is re-seeded), so under active faults a task
        // that succeeded in the reference may exhaust its retry budget after
        // resume. Byte-for-byte merged equality is therefore only required
        // when neither timeline dead-lettered anything; conservation (below)
        // is the invariant that always holds.
        let merged = |r: &RunReport| -> u64 { r.merged_files.iter().map(|m| m.1).sum() };
        if reference.dead_letters.is_empty()
            && resumed.dead_letters.is_empty()
            && merged(&resumed) != merged(&reference)
        {
            return Self::invariant(
                sc,
                "crash-resume",
                format!(
                    "merged bytes diverged in a dead-letter-free run: \
                     resumed {} vs reference {}",
                    merged(&resumed),
                    merged(&reference)
                ),
            );
        }
        if let Some(detail) = Ledger::recover(&crash_path.0)?.violation(total_tasklets) {
            return Self::invariant(sc, "crash-resume", format!("post-resume audit: {detail}"));
        }

        let snapshot =
            lobster::ops::snapshot_from_run(&sc.name, &snap_cfg, &snap_params, &reference);
        Ok((
            ConformanceReport {
                scenario: sc.name.clone(),
                seed: sc.seed,
                total_tasklets,
                done_tasklets: ledger.done,
                dead_tasklets: ledger.dead,
                dead_letters: reference.dead_letters.len() as u64,
                tasks_completed: reference.tasks_completed,
                events_delivered: reference.events_delivered,
                finished_at_us: finished_at.as_micros(),
                horizon_us,
                trace_digest: format!("{ref_digest:016x}"),
            },
            snapshot,
        ))
    }

    /// The four invariants for a scenario that declares a tenant roster,
    /// adapted to the coordinated run:
    ///
    /// 1. **No hang** — every tenant drains before the wall-clock horizon.
    /// 2. **Conservation** — each tenant's cold journal replay accounts
    ///    every tasklet exactly once, nothing in flight.
    /// 3. **Determinism** — the durable coordinated run and an independent
    ///    in-memory run agree byte-for-byte: per-tenant trace digests,
    ///    arbiter cap sequences, and the federated snapshot JSON.
    /// 4. **Crash/resume** — crash tenant 0's master mid-run, resume from
    ///    its journal; the victim still drains and its ledger still
    ///    conserves, while the peers' traces match the uncrashed run.
    pub fn multi_conformance(
        &self,
        sc: &Scenario,
    ) -> Result<MultiTenantConformance, ConformanceError> {
        let (coord, roster) = compile_multitenant(sc)?;
        let per_tenant_tasklets: u64 = roster[0].workflows.iter().map(|w| w.n_tasklets()).sum();

        // Invariants 1 + 2 on the durable reference run.
        let ref_root = ScratchJournal::new(self.root.join(format!("{}-mt-ref", sc.name)));
        let reference = tenancy::MultiTenant::durable(coord, roster, &ref_root.0)
            .map_err(tenancy_err)?
            .run()
            .map_err(tenancy_err)?;
        for t in &reference.tenants {
            if t.report.finished_at.is_none() {
                return Self::invariant(
                    sc,
                    "no-hang",
                    format!(
                        "tenant {} did not drain within the {}h horizon \
                         ({} tasks completed)",
                        t.name, sc.horizon_hours, t.report.tasks_completed
                    ),
                );
            }
        }
        for (i, t) in reference.tenants.iter().enumerate() {
            let dir = tenancy::journal_dir(&ref_root.0, i, &t.name);
            if let Some(detail) = Ledger::recover(&dir)?.violation(per_tenant_tasklets) {
                let detail = format!("tenant {}: {detail}", t.name);
                return Self::invariant(sc, "conservation", detail);
            }
        }
        drop(ref_root);

        // Invariant 3: in-memory run, byte-identical observables.
        let (coord, roster) = compile_multitenant(sc)?;
        let memory = tenancy::MultiTenant::new(coord, roster)
            .map_err(tenancy_err)?
            .run()
            .map_err(tenancy_err)?;
        for (d, m) in reference.tenants.iter().zip(&memory.tenants) {
            if d.trace_digest != m.trace_digest || d.cap_history != m.cap_history {
                return Self::invariant(
                    sc,
                    "determinism",
                    format!(
                        "tenant {}: durable trace {:016x} / in-memory {:016x} \
                         (caps equal: {})",
                        d.name,
                        d.trace_digest,
                        m.trace_digest,
                        d.cap_history == m.cap_history
                    ),
                );
            }
        }
        if reference.federated.to_json() != memory.federated.to_json() {
            return Self::invariant(
                sc,
                "determinism",
                "federated snapshot JSON diverged between backends".to_string(),
            );
        }

        // Invariant 4: crash tenant 0 mid-run and resume from its journal.
        let crash_root = ScratchJournal::new(self.root.join(format!("{}-mt-crash", sc.name)));
        let budget = (reference.tenants[0].report.events_delivered / 2).max(1);
        let (coord, roster) = compile_multitenant(sc)?;
        let mut mt =
            tenancy::MultiTenant::durable(coord, roster, &crash_root.0).map_err(tenancy_err)?;
        mt.crash_tenant(0, budget).map_err(tenancy_err)?;
        let crashed = mt.run().map_err(tenancy_err)?;
        if crashed.crash_round.is_none() {
            return Self::invariant(
                sc,
                "crash-resume",
                format!("crash budget {budget} events did not land mid-run"),
            );
        }
        let victim = &crashed.tenants[0];
        if victim.report.finished_at.is_none() {
            return Self::invariant(
                sc,
                "crash-resume",
                "victim never drained after resume".to_string(),
            );
        }
        let dir = tenancy::journal_dir(&crash_root.0, 0, &victim.name);
        if let Some(detail) = Ledger::recover(&dir)?.violation(per_tenant_tasklets) {
            return Self::invariant(sc, "crash-resume", format!("post-resume audit: {detail}"));
        }

        let tenants = reference
            .tenants
            .iter()
            .map(|t| TenantConformance {
                name: t.name.clone(),
                weight: t.weight,
                tasks_completed: t.report.tasks_completed,
                trace_digest: format!("{:016x}", t.trace_digest),
            })
            .collect();
        Ok(MultiTenantConformance {
            scenario: sc.name.clone(),
            seed: sc.seed,
            jain_fairness: reference.jain_fairness,
            rounds: reference.rounds,
            per_tenant_tasklets,
            tenants,
        })
    }
}

fn tenancy_err(e: tenancy::TenancyError) -> ConformanceError {
    match e {
        tenancy::TenancyError::Io(e) => ConformanceError::Io(e),
        other => ConformanceError::Scenario(ScenarioError::Invalid(vec![other.to_string()])),
    }
}

/// One tenant's row in a conforming multi-tenant run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TenantConformance {
    /// Tenant label.
    pub name: String,
    /// Fair-share weight.
    pub weight: f64,
    /// Tasks the tenant completed in the reference run.
    pub tasks_completed: u64,
    /// FNV-1a digest of the tenant's serialised trace, hex.
    pub trace_digest: String,
}

/// What a conforming multi-tenant run looked like.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MultiTenantConformance {
    /// Scenario name.
    pub scenario: String,
    /// Coordinator seed.
    pub seed: u64,
    /// Jain's fairness index over weight-normalised delivered CPU.
    pub jain_fairness: f64,
    /// Arbitration rounds the reference run took.
    pub rounds: u64,
    /// Tasklets per tenant (every tenant runs the same re-seeded mix).
    pub per_tenant_tasklets: u64,
    /// Per-tenant outcomes.
    pub tenants: Vec<TenantConformance>,
}
