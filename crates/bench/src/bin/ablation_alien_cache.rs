//! Ablation — Parrot alien cache on/off at scale.
//!
//! §4.3: without the alien cache every task populates its own cache,
//! multiplying squid traffic by the tasks-per-worker factor; with it the
//! working set crosses the proxy once per worker and subsequent tasks run
//! hot. This compares total environment-setup cost and makespan for the
//! same workload.

use batchsim::availability::AvailabilityModel;
use batchsim::pool::PoolConfig;
use gridstore::dbs::{DatasetSpec, Dbs};
use lobster::config::LobsterConfig;
use lobster::driver::{ClusterSim, Session, SimParams};
use lobster::workflow::Workflow;
use simkit::time::SimDuration;
use simnet::outage::OutageSchedule;

fn run_alien(alien: bool) -> (f64, f64, u64) {
    let mut cfg = LobsterConfig::default();
    cfg.seed = 5;
    cfg.workers.target_cores = 1024;
    cfg.workers.cores_per_worker = 8;
    cfg.infra.alien_cache = alien;
    cfg.infra.n_squids = 1;
    cfg.infra.wan_gbits = 1.0;
    let mut dbs = Dbs::new();
    dbs.generate(
        "/TTJets/Spring14/AOD",
        DatasetSpec {
            n_files: 2_000,
            mean_file_bytes: 1_150_000_000,
            events_per_lumi: 300,
            lumis_per_file: 250,
        },
        4,
    );
    let wf = Workflow::from_dataset(
        &cfg.workflows[0],
        dbs.query("/TTJets/Spring14/AOD").unwrap(),
    );
    let params = SimParams {
        availability: AvailabilityModel::Dedicated,
        outages: OutageSchedule::none(),
        pool: PoolConfig {
            total_cores: 2048,
            owner_mean: 0.0,
            reversion: 0.1,
            noise: 0.0,
            tick: SimDuration::from_mins(5),
        },
        horizon: SimDuration::from_hours(300),
        ..SimParams::default()
    };
    let report = Session::new(ClusterSim::new(cfg, params, vec![wf])).finish();
    let setup_h = report.accounting.io; // includes env setup
    let makespan = report
        .finished_at
        .map(|t| t.as_hours_f64())
        .unwrap_or(f64::NAN);
    (setup_h, makespan, report.tasks_failed)
}

fn main() {
    println!("== Ablation: alien cache on/off (1024 cores, one squid) ==\n");
    println!(
        "{:>14} {:>16} {:>14} {:>10}",
        "alien cache", "task I/O (h)", "makespan (h)", "failures"
    );
    let on = run_alien(true);
    let off = run_alien(false);
    for (label, r) in [("on", on), ("off", off)] {
        println!("{label:>14} {:>16.0} {:>14.2} {:>10}", r.0, r.1, r.2);
    }
    println!("\n-- shape check (paper: alien cache activated 'with good results') --");
    println!("makespan(on) < makespan(off): {}", on.1 < off.1);
    println!("setup+I/O(on) < setup+I/O(off): {}", on.0 < off.0);
}
