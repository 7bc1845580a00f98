//! Ablation — Chirp connection-limit sweep.
//!
//! §5: "Increased stage-in and stage-out times suggest an overloaded
//! Chirp server, which can be corrected by adjusting the number of
//! concurrent connections permitted." A simulation workload (all I/O
//! through Chirp) is run with increasing connection limits.

use batchsim::availability::AvailabilityModel;
use batchsim::pool::PoolConfig;
use lobster::config::{LobsterConfig, WorkflowConfig};
use lobster::driver::{ClusterSim, Session, SimParams};
use lobster::workflow::Workflow;
use simkit::time::SimDuration;
use simnet::outage::OutageSchedule;

fn run_with_connections(conns: u32) -> (f64, f64) {
    let mut cfg = LobsterConfig::default();
    cfg.seed = 31;
    cfg.workers.target_cores = 1536;
    cfg.workers.cores_per_worker = 8;
    cfg.infra.chirp_connections = conns;
    cfg.workflows = vec![WorkflowConfig::simulation("gen")];
    let wf = Workflow::simulation(&cfg.workflows[0], 40_000, 25_000_000);
    let params = SimParams {
        availability: AvailabilityModel::Dedicated,
        outages: OutageSchedule::none(),
        pool: PoolConfig {
            total_cores: 3072,
            owner_mean: 0.0,
            reversion: 0.1,
            noise: 0.0,
            tick: SimDuration::from_mins(5),
        },
        horizon: SimDuration::from_hours(400),
        ..SimParams::default()
    };
    let report = Session::new(ClusterSim::new(cfg, params, vec![wf])).finish();
    let n = report.tasks_completed.max(1) as f64;
    let stage_mins = (report.accounting.io * 60.0) / n;
    let makespan = report
        .finished_at
        .map(|t| t.as_hours_f64())
        .unwrap_or(f64::NAN);
    (stage_mins, makespan)
}

fn main() {
    println!("== Ablation: Chirp concurrent-connection limit ==\n");
    println!(
        "{:>14} {:>24} {:>14}",
        "connections", "mean stage time (min)", "makespan (h)"
    );
    let mut rows = Vec::new();
    for conns in [8u32, 16, 32, 64, 128] {
        let (stage, mk) = run_with_connections(conns);
        rows.push((conns, stage, mk));
        println!("{conns:>14} {stage:>24.2} {mk:>14.2}");
    }
    println!("\n-- shape check: raising the limit relieves the stage-time pathology,");
    println!("   with diminishing returns once the server keeps up --");
    println!(
        "stage(8) > stage(64): {}   makespan(8) > makespan(64): {}",
        rows[0].1 > rows[3].1,
        rows[0].2 > rows[3].2
    );
}
