//! Figure 7 — Merging modes compared.
//!
//! "Number of finished analysis and merge tasks as a function of time for
//! the sequential, hadoop, and interleaved merging modes. ... sequential
//! merging takes the longest, and suffers from a long-tail effect ...
//! Merging via Hadoop is more efficient and has a shorter tail.
//! Interleaved merging is less efficient in use of resources, but
//! completes faster overall because it can be done concurrently with
//! analysis. Lobster currently uses the latter."

use batchsim::availability::AvailabilityModel;
use batchsim::pool::PoolConfig;
use gridstore::dbs::{DatasetSpec, Dbs};
use lobster::config::LobsterConfig;
use lobster::driver::{ClusterSim, RunReport, Session, SimParams};
use lobster::merge::MergeMode;
use lobster::workflow::Workflow;
use lobster_bench::panel;
use simkit::time::SimDuration;
use simnet::outage::OutageSchedule;

fn run_mode(mode: MergeMode) -> RunReport {
    let mut cfg = LobsterConfig::default();
    cfg.merge = mode;
    cfg.seed = 7;
    cfg.workers.target_cores = 512;
    cfg.workers.cores_per_worker = 8;
    cfg.infra.wan_gbits = 0.5;
    cfg.merge_target_bytes = 3_500_000_000;
    // Merge-heavy outputs (40 MB/tasklet): the 320 GB of small files make
    // the merging strategy visible in the completion timeline, and the
    // WAN cost of re-reading them is what stretches the sequential tail.
    cfg.workflows[0].output_bytes_per_tasklet = 40_000_000;
    let mut dbs = Dbs::new();
    dbs.generate(
        "/SingleMu/Run2012A/AOD",
        DatasetSpec {
            n_files: 800,
            mean_file_bytes: 700_000_000,
            events_per_lumi: 300,
            lumis_per_file: 250,
        },
        11,
    );
    let wf = Workflow::from_dataset(
        &cfg.workflows[0],
        dbs.query("/SingleMu/Run2012A/AOD").unwrap(),
    );
    let params = SimParams {
        availability: AvailabilityModel::Dedicated,
        outages: OutageSchedule::none(),
        pool: PoolConfig {
            total_cores: 1024,
            owner_mean: 0.0,
            reversion: 0.1,
            noise: 0.0,
            tick: SimDuration::from_mins(5),
        },
        horizon: SimDuration::from_hours(400),
        timeline_bin: SimDuration::from_mins(30),
        // In-cluster Hadoop merge bandwidth per reducer.
        hadoop_rate: 30e6,
        ..SimParams::default()
    };
    Session::new(ClusterSim::new(cfg, params, vec![wf])).finish()
}

fn main() {
    println!("== Figure 7: merging modes compared ==");
    println!("(one column = 30 simulated minutes)\n");
    let mut totals = Vec::new();
    for mode in [
        MergeMode::Sequential,
        MergeMode::Hadoop,
        MergeMode::Interleaved,
    ] {
        let report = run_mode(mode);
        let done = report
            .finished_at
            .map(|t| t.as_hours_f64())
            .unwrap_or(f64::NAN);
        println!("--- {} ---", mode.label());
        println!(
            "{}",
            panel("analysis tasks / bin", &report.analysis_done.sums())
        );
        println!("{}", panel("merge tasks / bin", &report.merge_done.sums()));
        println!(
            "merges: {}   merged files: {}   all work done at: {done:.1} h\n",
            report.merges_completed,
            report.merged_files.len()
        );
        totals.push((mode, done));
    }
    println!("-- shape check (paper: sequential slowest with long tail; hadoop");
    println!("   shorter tail; interleaved completes fastest overall) --");
    for (mode, t) in &totals {
        println!("{:>12}: {t:.1} h", mode.label());
    }
    let seq = totals[0].1;
    let had = totals[1].1;
    let int = totals[2].1;
    println!(
        "interleaved < hadoop < sequential : {}",
        int < had && had < seq
    );
}
