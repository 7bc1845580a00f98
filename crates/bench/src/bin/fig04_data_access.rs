//! Figure 4 — Data access methods compared.
//!
//! "The overall runtime for two different data access methods split into
//! data processing and general overhead. Staging of files before and
//! after execution results in less CPU utilization but overall runtime
//! longer than streaming the data into the task as it runs."
//!
//! Two identical small runs differ only in `access`: streaming (XrootD)
//! vs staging (Chirp). Reported per mode: mean processing (CPU) time and
//! mean overhead (everything else) per successful task, plus total
//! runtime and CPU utilisation.

use batchsim::availability::AvailabilityModel;
use batchsim::pool::PoolConfig;
use gridstore::dbs::{DatasetSpec, Dbs};
use lobster::access::DataAccessMode;
use lobster::config::LobsterConfig;
use lobster::driver::{ClusterSim, Session, SimParams};
use lobster::workflow::Workflow;
use simkit::time::SimDuration;
use simnet::outage::OutageSchedule;

fn run_mode(access: DataAccessMode) -> (f64, f64, f64, f64) {
    let mut cfg = LobsterConfig::default();
    cfg.access = access;
    cfg.seed = 404;
    cfg.workers.target_cores = 256;
    cfg.workers.cores_per_worker = 8;
    cfg.merge_target_bytes = 3_500_000_000;
    let mut dbs = Dbs::new();
    dbs.generate(
        "/TTJets/Spring14/AOD",
        DatasetSpec {
            n_files: 400,
            mean_file_bytes: 1_400_000_000,
            events_per_lumi: 300,
            lumis_per_file: 250,
        },
        9,
    );
    let wf = Workflow::from_dataset(
        &cfg.workflows[0],
        dbs.query("/TTJets/Spring14/AOD").unwrap(),
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
        horizon: SimDuration::from_hours(200),
        ..SimParams::default()
    };
    // Scale the WAN with the small fleet, as in the Figure 10 scenario.
    cfg.infra.wan_gbits = 0.256;
    let report = Session::new(ClusterSim::new(cfg, params, vec![wf])).finish();
    let acc = &report.accounting;
    let n = report.tasks_completed as f64;
    let processing_h = acc.cpu / n;
    let overhead_h = (acc.io + acc.wq_stage_in + acc.wq_stage_out) / n;
    let runtime_h = report
        .finished_at
        .map(|t| t.as_hours_f64())
        .unwrap_or(f64::NAN);
    let util = acc.cpu / (acc.cpu + acc.io + acc.wq_stage_in + acc.wq_stage_out);
    (processing_h, overhead_h, runtime_h, util)
}

fn main() {
    println!("== Figure 4: data access methods compared ==\n");
    println!(
        "{:>22} {:>16} {:>16} {:>14} {:>10}",
        "mode", "processing (h)", "overhead (h)", "runtime (h)", "cpu util"
    );
    let stream = run_mode(DataAccessMode::Stream);
    let staged = run_mode(DataAccessMode::StageChirp);
    for (label, r) in [("streaming (xrootd)", stream), ("staging (chirp)", staged)] {
        println!(
            "{label:>22} {:>16.3} {:>16.3} {:>14.2} {:>10.3}",
            r.0, r.1, r.2, r.3
        );
    }
    println!("\n-- shape check (paper: staging has lower CPU utilisation and longer");
    println!("   overall runtime than streaming) --");
    println!(
        "staging runtime  > streaming runtime : {}",
        staged.2 > stream.2
    );
    println!(
        "staging cpu util < streaming cpu util: {}",
        staged.3 < stream.3
    );
}
