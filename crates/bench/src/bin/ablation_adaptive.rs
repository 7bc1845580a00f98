//! Ablation — adaptive task sizing under a shifting eviction regime.
//!
//! §8 (future work): "automatic performance optimization through dynamic
//! adjustment of task size in the face of changing eviction rates".
//! Here a hostile pool (short worker lifetimes) is processed twice: once
//! with the paper's static ~1 h tasks, once with the §8 controller
//! enabled. The controller should shrink tasks, losing less work per
//! eviction.

use batchsim::availability::AvailabilityModel;
use batchsim::pool::PoolConfig;
use gridstore::dbs::{DatasetSpec, Dbs};
use lobster::adaptive::AdaptiveConfig;
use lobster::config::LobsterConfig;
use lobster::driver::{ClusterSim, Session, SimParams};
use lobster::workflow::Workflow;
use simkit::time::SimDuration;
use simnet::outage::OutageSchedule;

fn run(adaptive: bool, mean_lifetime_h: u64) -> (f64, u64, f64, u32) {
    let mut cfg = LobsterConfig::default();
    cfg.seed = 77;
    cfg.workers.target_cores = 1024;
    cfg.workers.cores_per_worker = 8;
    cfg.infra.wan_gbits = 1.0;
    cfg.workflows[0].tasklets_per_task = 6; // static ~1 h tasks
    let mut dbs = Dbs::new();
    dbs.generate(
        "/TTJets/Spring14/AOD",
        DatasetSpec {
            n_files: 2_000,
            mean_file_bytes: 1_000_000_000,
            events_per_lumi: 300,
            lumis_per_file: 250,
        },
        6,
    );
    let wf = Workflow::from_dataset(
        &cfg.workflows[0],
        dbs.query("/TTJets/Spring14/AOD").unwrap(),
    );
    let params = SimParams {
        availability: AvailabilityModel::Exponential {
            mean: SimDuration::from_hours(mean_lifetime_h),
        },
        outages: OutageSchedule::none(),
        pool: PoolConfig {
            total_cores: 2048,
            owner_mean: 0.0,
            reversion: 0.1,
            noise: 0.0,
            tick: SimDuration::from_mins(5),
        },
        horizon: SimDuration::from_hours(500),
        adaptive,
        // Match the controller's overhead constant to this environment's
        // actual per-task overhead (sandbox + stream open + collection).
        adaptive_cfg: AdaptiveConfig {
            per_task_overhead: SimDuration::from_secs(90),
            ..AdaptiveConfig::default()
        },
        ..SimParams::default()
    };
    let report = Session::new(ClusterSim::new(cfg, params, vec![wf])).finish();
    let makespan = report
        .finished_at
        .map(|t| t.as_hours_f64())
        .unwrap_or(f64::NAN);
    let lost_frac = report.accounting.failed / report.accounting.total();
    (
        makespan,
        report.evictions,
        lost_frac,
        report.final_task_size,
    )
}

fn main() {
    println!("== Ablation: adaptive task sizing (§8) under heavy eviction ==\n");
    println!(
        "{:>12} {:>14} {:>12} {:>12} {:>12}",
        "sizing", "makespan (h)", "evictions", "lost frac", "final size"
    );
    let mut results = Vec::new();
    for lifetime in [2u64, 6] {
        println!("-- mean worker lifetime {lifetime} h --");
        let fixed = run(false, lifetime);
        let adapt = run(true, lifetime);
        for (label, r) in [("static 6", fixed), ("adaptive", adapt)] {
            println!(
                "{label:>12} {:>14.1} {:>12} {:>12.3} {:>12}",
                r.0, r.1, r.2, r.3
            );
        }
        results.push((lifetime, fixed, adapt));
    }
    println!("\n-- shape check: adaptive sizing wins clearly when the static choice");
    println!("   is wrong for the regime (2 h lifetimes), and stays within noise of");
    println!("   a static size that is already near-optimal (6 h lifetimes) --");
    let (_, fixed2, adapt2) = &results[0];
    let (_, fixed6, adapt6) = &results[1];
    println!(
        "hostile regime: adaptive lost {:.3} < static {:.3}: {}",
        adapt2.2,
        fixed2.2,
        adapt2.2 < fixed2.2
    );
    println!(
        "benign regime: |adaptive − static| lost ≤ 0.05: {}",
        (adapt6.2 - fixed6.2).abs() <= 0.05
    );
}
