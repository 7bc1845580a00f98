//! Ablation — foreman fan-out.
//!
//! §5: "Long sandbox stage-in times or long wait times for finished task
//! collection suggest the usage of more foremen, to spread the load of
//! sending out the sandbox." This sweep varies the foreman rank under a
//! fixed fleet and reports the mean WQ stage-in time and makespan.

use batchsim::availability::AvailabilityModel;
use batchsim::pool::PoolConfig;
use gridstore::dbs::{DatasetSpec, Dbs};
use lobster::config::LobsterConfig;
use lobster::driver::{ClusterSim, Session, SimParams};
use lobster::workflow::Workflow;
use simkit::time::SimDuration;
use simnet::outage::OutageSchedule;

fn run_with_foremen(n_foremen: u32) -> (f64, f64) {
    let mut cfg = LobsterConfig::default();
    cfg.seed = 99;
    cfg.workers.target_cores = 2048;
    cfg.workers.cores_per_worker = 8;
    cfg.infra.n_foremen = n_foremen;
    cfg.infra.wan_gbits = 2.0;
    let mut dbs = Dbs::new();
    dbs.generate(
        "/TTJets/Spring14/AOD",
        DatasetSpec {
            n_files: 4_000,
            mean_file_bytes: 1_150_000_000,
            events_per_lumi: 300,
            lumis_per_file: 250,
        },
        3,
    );
    let wf = Workflow::from_dataset(
        &cfg.workflows[0],
        dbs.query("/TTJets/Spring14/AOD").unwrap(),
    );
    let params = SimParams {
        availability: AvailabilityModel::Dedicated,
        outages: OutageSchedule::none(),
        pool: PoolConfig {
            total_cores: 4096,
            owner_mean: 0.0,
            reversion: 0.1,
            noise: 0.0,
            tick: SimDuration::from_mins(5),
        },
        horizon: SimDuration::from_hours(200),
        sandbox_service: SimDuration::from_mins(5),
        foreman_capacity: 60,
        ..SimParams::default()
    };
    let report = Session::new(ClusterSim::new(cfg, params, vec![wf])).finish();
    let wq_in_mins = report.accounting.wq_stage_in * 60.0 / report.tasks_completed.max(1) as f64;
    let makespan = report
        .finished_at
        .map(|t| t.as_hours_f64())
        .unwrap_or(f64::NAN);
    (wq_in_mins, makespan)
}

fn main() {
    println!("== Ablation: foreman fan-out (paper runs 1 rank of 4 foremen) ==\n");
    println!(
        "{:>10} {:>22} {:>14}",
        "foremen", "mean wq stage-in (min)", "makespan (h)"
    );
    let mut rows = Vec::new();
    for n in [1u32, 2, 4, 8] {
        let (wq, mk) = run_with_foremen(n);
        rows.push((n, wq, mk));
        println!("{n:>10} {wq:>22.2} {mk:>14.2}");
    }
    println!("\n-- shape check: more foremen shorten sandbox stage-in --");
    println!(
        "stage-in(1 foreman) > stage-in(4 foremen): {}",
        rows[0].1 > rows[2].1
    );
}
