//! A scaled-down version of the paper's §6 simulation (event generation)
//! run: negligible remote input, pile-up overlay staged through Chirp, an
//! undersized squid tier that struggles through the cold-cache stampede —
//! Figure 11's pathologies at 1/20 scale.
//!
//! ```sh
//! cargo run --release --example simulation_run
//! ```

use batchsim::availability::AvailabilityModel;
use batchsim::pool::PoolConfig;
use cvmfssim::squid::SquidConfig;
use lobster::config::{LobsterConfig, WorkflowConfig};
use lobster::driver::{ClusterSim, Session, SimParams};
use lobster::workflow::Workflow;
use simkit::plot::sparkline;
use simkit::time::SimDuration;
use simnet::outage::OutageSchedule;
use wqueue::task::FailureCode;

fn main() {
    let mut cfg = LobsterConfig::default();
    cfg.workflows = vec![WorkflowConfig::simulation("minbias-gen")];
    cfg.workers.target_cores = 1_000;
    cfg.workers.cores_per_worker = 8;
    cfg.infra.n_squids = 1;
    cfg.infra.chirp_connections = 24;
    cfg.seed = 11;

    let wf = Workflow::simulation(&cfg.workflows[0], 20_000, 15_000_000);
    println!(
        "simulation workflow: {} generation tasklets\n",
        wf.n_tasklets()
    );

    let params = SimParams {
        availability: AvailabilityModel::Mixture {
            short_frac: 0.25,
            short: (4.0, 1.0),
            long: (30.0, 1.2),
        },
        pool: PoolConfig {
            total_cores: 1_400,
            owner_mean: 100.0,
            reversion: 0.1,
            noise: 20.0,
            tick: SimDuration::from_mins(5),
        },
        outages: OutageSchedule::none(),
        horizon: SimDuration::from_hours(8),
        timeline_bin: SimDuration::from_mins(15),
        // One deliberately small squid: the fleet's cold fills overwhelm it.
        squid: SquidConfig {
            bandwidth: simnet::units::mbit_per_s(100.0),
            per_client_cap: 1.25e6,
            timeout: SimDuration::from_mins(240),
        },
        ..SimParams::default()
    };

    let report = Session::new(ClusterSim::new(cfg, params, vec![wf])).finish();
    println!(
        "concurrent tasks     {}",
        sparkline(&report.timeline.concurrency())
    );
    println!(
        "release setup (min)  {}",
        sparkline(&report.timeline.setup_minutes())
    );
    println!(
        "stage-out (min)      {}",
        sparkline(&report.timeline.stageout_minutes())
    );
    println!(
        "failures/bin         {}",
        sparkline(&report.timeline.failures())
    );
    println!();
    let setup = report.timeline.setup_minutes();
    let peak_setup = setup.iter().copied().fold(0.0_f64, f64::max);
    let squid_failures = report
        .timeline
        .failure_events()
        .iter()
        .filter(|(_, c)| *c == FailureCode::EnvSetup)
        .count();
    println!("peak concurrency    {:.0}", report.peak_concurrency);
    println!("peak setup time     {peak_setup:.0} min (cold-cache stampede)");
    println!("squid failures      {squid_failures}");
    println!("tasks completed     {}", report.tasks_completed);
    println!("advisor             {:?}", report.advice);
}
