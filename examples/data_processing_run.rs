//! A scaled-down version of the paper's §6 data-processing run.
//!
//! 512 opportunistic cores stream a multi-TB dataset over a proportionally
//! scaled uplink, with worker eviction and a transient wide-area outage —
//! the same physics as the 10k-core Figure 10 run, in under a second.
//!
//! ```sh
//! cargo run --release --example data_processing_run
//! ```

use batchsim::availability::AvailabilityModel;
use batchsim::pool::PoolConfig;
use gridstore::dbs::{DatasetSpec, Dbs};
use lobster::config::LobsterConfig;
use lobster::driver::{ClusterSim, Session, SimParams};
use lobster::workflow::Workflow;
use simkit::plot::sparkline;
use simkit::time::{SimDuration, SimTime};
use simnet::outage::{Outage, OutageSchedule};

fn main() {
    let mut cfg = LobsterConfig::default();
    cfg.workers.target_cores = 512;
    cfg.workers.cores_per_worker = 8;
    cfg.infra.wan_gbits = 0.5; // uplink scaled with the fleet
    cfg.seed = 42;

    // A ~6 TB dataset slice from the bookkeeping service.
    let mut dbs = Dbs::new();
    let name = dbs.generate(
        "/TTJets/Spring14/AOD",
        DatasetSpec {
            n_files: 5_000,
            mean_file_bytes: 1_250_000_000,
            events_per_lumi: 300,
            lumis_per_file: 250,
        },
        1,
    );
    let dataset = dbs.query(&name).expect("just published");
    println!(
        "dataset {name}: {} files, {:.1} TB, {} lumi sections",
        dataset.files.len(),
        dataset.total_bytes() as f64 / 1e12,
        dataset.total_lumis()
    );
    let wf = Workflow::from_dataset(&cfg.workflows[0], dataset);
    println!("decomposed into {} tasklets\n", wf.n_tasklets());

    let params = SimParams {
        availability: AvailabilityModel::notre_dame(),
        pool: PoolConfig {
            total_cores: 1_200,
            owner_mean: 300.0,
            reversion: 0.1,
            noise: 40.0,
            tick: SimDuration::from_mins(5),
        },
        outages: OutageSchedule::new(vec![Outage::brownout(
            SimTime::ZERO + SimDuration::from_hours(17),
            SimTime::ZERO + SimDuration::from_hours(19),
            0.15,
            0.85,
        )]),
        horizon: SimDuration::from_hours(72),
        ..SimParams::default()
    };

    let report = Session::new(ClusterSim::new(cfg, params, vec![wf])).finish();
    println!(
        "concurrent tasks  {}",
        sparkline(&report.timeline.concurrency())
    );
    println!(
        "completions/bin   {}",
        sparkline(&report.timeline.completions())
    );
    println!(
        "failures/bin      {}",
        sparkline(&report.timeline.failures())
    );
    println!(
        "efficiency        {}",
        sparkline(&report.timeline.efficiency())
    );
    println!();
    println!("peak concurrency  {:.0}", report.peak_concurrency);
    println!("tasks completed   {}", report.tasks_completed);
    println!(
        "tasks failed      {} ({} evictions)",
        report.tasks_failed, report.evictions
    );
    println!("merged files      {}", report.merged_files.len());
    println!(
        "finished at       {}",
        report
            .finished_at
            .map_or("ran out of horizon".into(), |t| t.to_string())
    );
    println!("\nruntime breakdown (Figure 8 shape):");
    for (phase, hours, frac) in report.accounting.table() {
        println!("  {phase:<14} {hours:>10.0} h   {:>5.1}%", frac * 100.0);
    }
    if !report.advice.is_empty() {
        println!("\nadvisor: {:?}", report.advice);
    }
}
