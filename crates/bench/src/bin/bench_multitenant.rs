//! Multi-tenant sweep — the `ci.sh` fairness and throughput gate.
//!
//! Sweeps the tenancy coordinator from 1 to 100 masters over one shared
//! opportunistic pool: every master runs the same fixed-seed simulation
//! campaign under equal fair-share weights, so Jain's index over
//! weight-normalised delivered CPU should stay near 1 at every point.
//!
//! Two gates:
//!
//! * **Fairness** — any contended point (≥2 tenants) whose Jain index
//!   falls below 0.9 fails the run (exit 1).
//! * **Baseline** — [`gate::check`] against the committed
//!   `BENCH_multitenant.json`: every counter (and the Jain index)
//!   exactly, aggregate events/sec over the best of [`gate::REPEATS`]
//!   runs within [`gate::MAX_SLOWDOWN`].

use batchsim::arbiter::ArbiterConfig;
use batchsim::pool::PoolConfig;
use lobster::config::{LobsterConfig, WorkflowConfig};
use lobster::driver::SimParams;
use lobster::workflow::Workflow;
use lobster_bench::gate::{self, Timed};
use serde::Serialize;
use simkit::time::SimDuration;
use tenancy::{MultiTenant, TenancyConfig, TenantSpec};

const SEED: u64 = 4097;
const TASKLETS_PER_TENANT: u64 = 200;
const SWEEP_TENANTS: [usize; 7] = [1, 2, 5, 10, 25, 50, 100];
/// Contended sweep points must keep Jain's index above this floor.
const JAIN_FLOOR: f64 = 0.9;

#[derive(Serialize)]
struct SweepPoint {
    tenants: usize,
    tasklets_per_tenant: u64,
    rounds: u64,
    jain_fairness: f64,
    tasks_completed: u64,
    events: u64,
    events_per_sec: f64,
}

#[derive(Serialize)]
struct MultiTenantBench {
    seed: u64,
    pool_cores: u32,
    points: Vec<SweepPoint>,
}

/// The one shared pool every sweep point contends for: 1024 cores with a
/// mean-reverting owner walk eating ~6% of them.
fn coordinator() -> TenancyConfig {
    TenancyConfig {
        pool: PoolConfig {
            total_cores: 1024,
            owner_mean: 64.0,
            reversion: 0.2,
            noise: 16.0,
            tick: SimDuration::from_mins(5),
        },
        round: SimDuration::from_mins(5),
        arbiter: ArbiterConfig::default(),
        horizon: SimDuration::from_hours(96),
        seed: SEED,
    }
}

/// One tenant's master: a fixed-size simulation campaign whose seed (and
/// therefore event stream) differs per tenant, with equal weights so the
/// arbiter's split should be even.
fn tenant(i: usize) -> TenantSpec {
    let mut cfg = LobsterConfig::default();
    cfg.workflows = vec![WorkflowConfig::simulation("mt-gen")];
    cfg.workers.target_cores = 64;
    cfg.workers.cores_per_worker = 4;
    cfg.seed = SEED ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let wf = Workflow::simulation(&cfg.workflows[0], TASKLETS_PER_TENANT, 0);
    TenantSpec {
        name: format!("tenant-{i:03}"),
        weight: 1.0,
        cfg,
        params: SimParams::default(),
        workflows: vec![wf],
    }
}

/// The `n`-tenant point, ready to run.
fn prepare(n: usize) -> MultiTenant {
    let roster: Vec<TenantSpec> = (0..n).map(tenant).collect();
    MultiTenant::new(coordinator(), roster).expect("valid roster")
}

/// Run the `n`-tenant point once and summarise it.
fn run_point(n: usize, mt: MultiTenant) -> SweepPoint {
    let report = mt.run().expect("in-memory run cannot fail on i/o");
    for t in &report.tenants {
        if t.report.finished_at.is_none() {
            eprintln!(
                "bench_multitenant: tenant {} of the {n}-tenant point did not finish",
                t.name
            );
            std::process::exit(1);
        }
    }
    SweepPoint {
        tenants: n,
        tasklets_per_tenant: TASKLETS_PER_TENANT,
        rounds: report.rounds,
        jain_fairness: report.jain_fairness,
        tasks_completed: report
            .tenants
            .iter()
            .map(|t| t.report.tasks_completed)
            .sum(),
        events: report
            .tenants
            .iter()
            .map(|t| t.report.events_delivered)
            .sum(),
        events_per_sec: 0.0,
    }
}

fn main() {
    let mut ok = true;
    let mut points = Vec::new();
    for &n in &SWEEP_TENANTS {
        let (wall_secs, mut point) = gate::best_of(|| prepare(n), |mt| run_point(n, mt));
        point.events_per_sec = point.events as f64 / wall_secs;
        eprintln!(
            "[{n:>3} tenants] {:>8} events in {wall_secs:>7.3}s  ({:>9.0} ev/s, jain {:.4}, {} rounds)",
            point.events, point.events_per_sec, point.jain_fairness, point.rounds,
        );
        // Equal weights must split the pool evenly wherever there is
        // actual contention.
        if n >= 2 && point.jain_fairness < JAIN_FLOOR {
            eprintln!(
                "bench_multitenant: FAIL unfair at {n} tenants: jain {:.4} < {JAIN_FLOOR}",
                point.jain_fairness
            );
            ok = false;
        }
        points.push(point);
    }

    let result = MultiTenantBench {
        seed: SEED,
        pool_cores: coordinator().pool.total_cores,
        points,
    };
    let json = serde_json::to_string_pretty(&result).expect("serialises");
    println!("== bench_multitenant (seed {SEED}, {TASKLETS_PER_TENANT} tasklets/tenant) ==");
    println!("{json}");
    ok &= gate::check("BENCH_multitenant", &json, &[Timed::Rate("events_per_sec")]);
    if !ok {
        std::process::exit(1);
    }
}
