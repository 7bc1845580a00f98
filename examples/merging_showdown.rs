//! The three merging modes of §4.4, both simulated and for real.
//!
//! Part 1 simulates the same workload under sequential, Hadoop, and
//! interleaved merging and compares completion times (the Figure 7
//! comparison). Part 2 performs an *actual* Hadoop-mode merge: small
//! files with real bytes in the in-process HDFS, concatenated by the
//! multithreaded Map-Reduce engine.
//!
//! ```sh
//! cargo run --release --example merging_showdown
//! ```

use batchsim::availability::AvailabilityModel;
use batchsim::pool::PoolConfig;
use gridstore::dbs::{DatasetSpec, Dbs};
use gridstore::hdfs::Hdfs;
use gridstore::mapreduce::MapReduce;
use lobster::config::LobsterConfig;
use lobster::driver::{ClusterSim, Session, SimParams};
use lobster::merge::{merge_in_hadoop, MergeMode, MergePlanner};
use lobster::workflow::Workflow;
use simkit::time::SimDuration;
use simnet::outage::OutageSchedule;
use wqueue::task::TaskId;

fn simulate(mode: MergeMode) -> f64 {
    let mut cfg = LobsterConfig::default();
    cfg.merge = mode;
    cfg.seed = 3;
    cfg.workers.target_cores = 256;
    cfg.workers.cores_per_worker = 8;
    cfg.infra.wan_gbits = 0.25;
    cfg.merge_target_bytes = 2_000_000_000;
    cfg.workflows[0].output_bytes_per_tasklet = 40_000_000;
    let mut dbs = Dbs::new();
    dbs.generate(
        "/SingleMu/Run2012A/AOD",
        DatasetSpec {
            n_files: 400,
            mean_file_bytes: 700_000_000,
            events_per_lumi: 300,
            lumis_per_file: 250,
        },
        5,
    );
    let wf = Workflow::from_dataset(
        &cfg.workflows[0],
        dbs.query("/SingleMu/Run2012A/AOD").unwrap(),
    );
    let params = SimParams {
        availability: AvailabilityModel::Dedicated,
        outages: OutageSchedule::none(),
        pool: PoolConfig {
            total_cores: 512,
            owner_mean: 0.0,
            reversion: 0.1,
            noise: 0.0,
            tick: SimDuration::from_mins(5),
        },
        horizon: SimDuration::from_hours(300),
        hadoop_rate: 30e6,
        ..SimParams::default()
    };
    Session::new(ClusterSim::new(cfg, params, vec![wf]))
        .finish()
        .finished_at
        .map(|t| t.as_hours_f64())
        .unwrap_or(f64::NAN)
}

fn main() {
    println!("== part 1: simulated merge-mode comparison ==");
    for mode in [
        MergeMode::Sequential,
        MergeMode::Hadoop,
        MergeMode::Interleaved,
    ] {
        println!(
            "  {:<12} completes in {:.1} h",
            mode.label(),
            simulate(mode)
        );
    }

    println!("\n== part 2: a real Hadoop-mode merge ==");
    let hdfs = Hdfs::new(4, 2);
    // 60 small "ROOT files" of 64 kB each.
    for i in 0..60u64 {
        hdfs.put_bytes(
            &format!("/store/user/out_{i}.root"),
            vec![(i % 251) as u8; 64 * 1024],
        );
    }
    let outputs: Vec<(TaskId, u64)> = (0..60).map(|i| (TaskId(i), 64 * 1024)).collect();
    let planner = MergePlanner::new(MergeMode::Hadoop, 1024 * 1024); // 1 MiB targets
    let groups = planner.plan_full(&outputs);
    println!(
        "  {} small files → {} merge groups",
        outputs.len(),
        groups.len()
    );
    let named: Vec<(String, Vec<String>)> = groups
        .iter()
        .enumerate()
        .map(|(gi, g)| {
            (
                format!("/store/user/merged_{gi}.root"),
                g.inputs
                    .iter()
                    .map(|(id, _)| format!("/store/user/out_{}.root", id.0))
                    .collect(),
            )
        })
        .collect();
    let merged = merge_in_hadoop(&hdfs, &MapReduce::new(8), &named);
    println!("  merged files written by the Map-Reduce engine:");
    for name in &merged {
        let meta = hdfs.stat(name).expect("merged file exists");
        println!(
            "    {name}  {} bytes, {} blocks",
            meta.size,
            meta.blocks.len()
        );
    }
    println!(
        "  storage now holds {} files (small inputs deleted)",
        hdfs.file_count()
    );
}
