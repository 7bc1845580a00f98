//! Scale-campaign sweep — the `ci.sh` throughput regression gate.
//!
//! Sweeps the cluster driver from 2.5k to 20k cores (the paper's §6
//! operating point), each point a fixed-seed simulation-workflow campaign
//! of 50 tasklets per core — ≥1M tasklets at 20k cores — under the Notre
//! Dame availability mixture, opportunistic-owner pressure, and injected
//! squid/Chirp fault windows, so eviction storms and retry machinery are
//! part of the measured event stream.
//!
//! For every sweep point it records the exact work counters, events/sec
//! over the best of [`gate::REPEATS`] runs, and a peak-RSS proxy from a
//! counting global allocator. [`gate::check`] compares the result with
//! the committed `BENCH_scale.json`: every counter exactly, events/sec
//! within [`gate::MAX_SLOWDOWN`]. Wall times are printed, not committed.

// The counting allocator below must implement `GlobalAlloc`, which is an
// unsafe trait; the workspace otherwise denies unsafe code.
#![allow(unsafe_code)]

use batchsim::availability::AvailabilityModel;
use batchsim::pool::PoolConfig;
use lobster::config::{Backoff, LobsterConfig, WorkflowConfig};
use lobster::driver::{ClusterSim, Session, SimParams};
use lobster::fault::{Fault, FaultPlan, FaultTarget};
use lobster::merge::MergeMode;
use lobster::workflow::Workflow;
use lobster_bench::gate::{self, Timed};
use serde::Serialize;
use simkit::time::{SimDuration, SimTime};
use simnet::outage::{Outage, OutageSchedule};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

const SEED: u64 = 2025;
const TASKLETS_PER_CORE: u64 = 50;
const SWEEP_CORES: [u32; 4] = [2_500, 5_000, 10_000, 20_000];

/// Allocation-counting wrapper around the system allocator: `current`
/// tracks live bytes, `peak` the high-water mark. The peak is the
/// benchmark's RSS proxy — it moves with the same data structures
/// (event queue, worker table, task ledger) that drive resident memory,
/// without depending on the platform's RSS accounting.
struct CountingAlloc;

static CURRENT: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let now =
                CURRENT.fetch_add(layout.size() as u64, Ordering::Relaxed) + layout.size() as u64;
            PEAK.fetch_max(now, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        CURRENT.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Reset the high-water mark to the current live size (call before each
/// run so every run reports its own peak).
fn reset_peak() {
    PEAK.store(CURRENT.load(Ordering::Relaxed), Ordering::Relaxed);
}

#[derive(Serialize)]
struct SweepPoint {
    cores: u32,
    workers: u32,
    tasklets: u64,
    tasks_completed: u64,
    tasks_failed: u64,
    evictions: u64,
    dead_letters: u64,
    events: u64,
    events_per_sec: f64,
    peak_alloc_bytes: u64,
}

#[derive(Serialize)]
struct ScaleBench {
    seed: u64,
    tasklets_per_core: u64,
    points: Vec<SweepPoint>,
}

/// One sweep point: a simulation campaign sized to `cores`, with the
/// availability churn and fault windows fixed across the sweep so points
/// differ only in scale.
fn setup(cores: u32) -> (LobsterConfig, SimParams, Vec<Workflow>) {
    let mut cfg = LobsterConfig::default();
    cfg.seed = SEED ^ u64::from(cores);
    cfg.merge = MergeMode::Interleaved;
    cfg.workers.cores_per_worker = 8;
    cfg.workers.target_cores = cores;
    // Proxy tier sized to the fleet (one squid per ~1250 cores) so the
    // cold-cache stampede is survivable at every point; the fault window
    // below still knocks one proxy out mid-fill.
    cfg.infra.n_squids = (cores / 1_250).max(2);
    cfg.infra.n_foremen = 4;
    cfg.retry.max_attempts = Some(10);
    cfg.retry.deadlines.stage_in = Some(SimDuration::from_mins(30));
    cfg.retry.requeue = Backoff {
        base: SimDuration::from_mins(5),
        factor: 2.0,
        max: SimDuration::from_mins(30),
        jitter: 0.1,
    };
    cfg.workflows = vec![WorkflowConfig::simulation("scale-gen")];
    let tasklets = u64::from(cores) * TASKLETS_PER_CORE;
    let wf = Workflow::simulation(&cfg.workflows[0], tasklets, 5_000_000);

    let mins = |m: u64| SimTime::ZERO + SimDuration::from_mins(m);
    let params = SimParams {
        // Notre Dame churn: most slots are short-lived, so evictions come
        // in storms as cohorts age out together.
        availability: AvailabilityModel::notre_dame(),
        pool: PoolConfig {
            total_cores: cores + cores / 4,
            owner_mean: f64::from(cores) * 0.05,
            reversion: 0.1,
            noise: f64::from(cores) * 0.02,
            tick: SimDuration::from_mins(5),
        },
        horizon: SimDuration::from_hours(96),
        faults: FaultPlan::new(vec![
            // One proxy black-holed during the cold-fill stampede.
            Fault::new(
                FaultTarget::Squid { index: 0 },
                OutageSchedule::new(vec![Outage::blackout(mins(30), mins(90))]),
            ),
            // The stage-out server browns out mid-run.
            Fault::new(
                FaultTarget::Chirp,
                OutageSchedule::new(vec![Outage {
                    start: mins(3 * 60),
                    end: mins(4 * 60),
                    capacity_factor: 0.25,
                    failure_prob: 0.0,
                }]),
            ),
        ]),
        ..SimParams::default()
    };
    (cfg, params, vec![wf])
}

/// Run one sweep point and summarise it (the report is dropped here, so
/// the best-of-N loop holds no heap between runs).
fn run_point(
    cores: u32,
    (cfg, params, wfs): (LobsterConfig, SimParams, Vec<Workflow>),
) -> SweepPoint {
    let workers = cfg.workers.target_cores / cfg.workers.cores_per_worker;
    let tasklets: u64 = wfs.iter().map(|w| w.n_tasklets()).sum();
    reset_peak();
    let report = Session::new(ClusterSim::new(cfg, params, wfs)).finish();
    if report.finished_at.is_none() {
        eprintln!("bench_scale: {cores}-core sweep point did not finish: {report:?}");
        std::process::exit(1);
    }
    SweepPoint {
        cores,
        workers,
        tasklets,
        tasks_completed: report.tasks_completed,
        tasks_failed: report.tasks_failed,
        evictions: report.evictions,
        dead_letters: report.dead_letters.len() as u64,
        events: report.events_delivered,
        events_per_sec: 0.0,
        peak_alloc_bytes: PEAK.load(Ordering::Relaxed),
    }
}

fn main() {
    let mut points = Vec::new();
    for &cores in &SWEEP_CORES {
        let (wall_secs, mut point) = gate::best_of(|| setup(cores), |s| run_point(cores, s));
        point.events_per_sec = point.events as f64 / wall_secs;
        eprintln!(
            "[{cores:>6} cores] {:>9} events in {wall_secs:>7.3}s  ({:>10.0} ev/s, peak alloc {:.1} MiB, {} evictions)",
            point.events,
            point.events_per_sec,
            point.peak_alloc_bytes as f64 / (1024.0 * 1024.0),
            point.evictions,
        );
        points.push(point);
    }

    let result = ScaleBench {
        seed: SEED,
        tasklets_per_core: TASKLETS_PER_CORE,
        points,
    };
    let json = serde_json::to_string_pretty(&result).expect("serialises");
    println!("== bench_scale (seed {SEED}, {TASKLETS_PER_CORE} tasklets/core) ==");
    println!("{json}");
    if !gate::check("BENCH_scale", &json, &[Timed::Rate("events_per_sec")]) {
        std::process::exit(1);
    }
}
