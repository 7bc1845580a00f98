//! Cluster-run smoke benchmark — the `ci.sh` ops-plane gate.
//!
//! Runs one fixed-seed, fixed-size cluster simulation (including a retry
//! policy and an injected WAN fault window, so the failure-handling paths
//! are part of the measured work), lowers it into the ops-plane metrics
//! snapshot and gates that through [`gate::check`] against the committed
//! `METRICS_cluster.json`: every value exactly. Throughput numbers are
//! printed, not committed.

use batchsim::availability::AvailabilityModel;
use batchsim::pool::PoolConfig;
use gridstore::dbs::{DatasetSpec, Dbs};
use lobster::config::{Backoff, LobsterConfig, WorkflowConfig};
use lobster::driver::{ClusterSim, Session, SimParams};
use lobster::fault::{Fault, FaultPlan, FaultTarget};
use lobster::merge::MergeMode;
use lobster::workflow::Workflow;
use lobster_bench::gate;
use simkit::time::{SimDuration, SimTime};
use simnet::outage::{Outage, OutageSchedule};

const SEED: u64 = 2025;

fn setup() -> (LobsterConfig, SimParams, Vec<Workflow>) {
    let mut cfg = LobsterConfig::default();
    cfg.seed = SEED;
    cfg.merge = MergeMode::Interleaved;
    // Several dispatch waves (960 tasks over 256 cores) so the fault
    // window below actually intersects in-flight stage-ins.
    cfg.workers.target_cores = 256;
    cfg.workers.cores_per_worker = 8;
    cfg.merge_target_bytes = 200_000_000;
    // Exercise the failure-policy machinery: bounded retries, a StageIn
    // watchdog, and exponential requeue backoff.
    cfg.retry.max_attempts = Some(10);
    cfg.retry.deadlines.stage_in = Some(SimDuration::from_mins(30));
    cfg.retry.requeue = Backoff {
        base: SimDuration::from_mins(5),
        factor: 2.0,
        max: SimDuration::from_mins(30),
        jitter: 0.1,
    };
    cfg.workflows = vec![WorkflowConfig::analysis("ttbar", "/TTJets/Bench/AOD")];

    let mut dbs = Dbs::new();
    dbs.generate(
        "/TTJets/Bench/AOD",
        DatasetSpec {
            n_files: 2880, // 5760 tasklets → ~960 six-tasklet tasks
            mean_file_bytes: 500_000_000,
            events_per_lumi: 100,
            lumis_per_file: 50,
        },
        SEED ^ 0xB5,
    );
    let ds = dbs.query("/TTJets/Bench/AOD").expect("generated");
    let wf = Workflow::from_dataset(&cfg.workflows[0], ds);

    let params = SimParams {
        availability: AvailabilityModel::Dedicated,
        pool: PoolConfig {
            total_cores: 2000,
            owner_mean: 20.0,
            reversion: 0.1,
            noise: 0.0,
            tick: SimDuration::from_mins(5),
        },
        horizon: SimDuration::from_hours(96),
        // A one-hour WAN blackout mid-run so watchdog aborts, retries and
        // backoff waits are part of the benchmarked event stream.
        faults: FaultPlan::new(vec![Fault::new(
            FaultTarget::Federation,
            OutageSchedule::new(vec![Outage::blackout(
                SimTime::ZERO + SimDuration::from_mins(60),
                SimTime::ZERO + SimDuration::from_mins(120),
            )]),
        )]),
        ..SimParams::default()
    };
    (cfg, params, vec![wf])
}

fn main() {
    let (cfg, params, wfs) = setup();
    let started = std::time::Instant::now();
    let report = Session::new(ClusterSim::new(cfg.clone(), params.clone(), wfs)).finish();
    let wall_secs = started.elapsed().as_secs_f64().max(1e-9);

    if report.finished_at.is_none() {
        eprintln!("bench_cluster: run did not finish: {report:?}");
        std::process::exit(1);
    }
    println!(
        "== bench_cluster (seed {SEED}) == {} tasks ({} failed, {} dead-lettered), {} merges, \
         {} events in {wall_secs:.3}s ({:.0} tasks/s, {:.0} events/s)",
        report.tasks_completed,
        report.tasks_failed,
        report.dead_letters.len(),
        report.merges_completed,
        report.events_delivered,
        report.tasks_completed as f64 / wall_secs,
        report.events_delivered as f64 / wall_secs,
    );

    let snap = lobster::ops::snapshot_from_run("bench_cluster", &cfg, &params, &report);
    if let Err(e) = snap.validate() {
        eprintln!("bench_cluster: snapshot failed validation: {e}");
        std::process::exit(1);
    }
    if !gate::check("METRICS_cluster", &snap.to_json(), &[]) {
        std::process::exit(1);
    }
}
