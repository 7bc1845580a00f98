//! Recovery benchmark: full-WAL replay vs snapshot+tail, and the
//! operating journal's bytes per record.
//!
//! Runs the same fixed-seed cluster simulation twice behind two journal
//! policies — `JournalPolicy::never()` (write-through; every record since
//! the run began survives on disk) and the periodic-snapshot policy with
//! group commit (the operating configuration) — then times a cold
//! [`LobsterDb::recover`] of each journal *from disk only*: the recovery
//! legs never touch the in-memory state of the runs that wrote them.
//!
//! Reported sizes are honest on-disk journal bytes
//! ([`lobster::db::journal_bytes`] sums the shard directory), plus the
//! run's record count — every record the full-replay leg holds. Gates:
//!
//! 1. snapshot+tail must beat full replay, and resume in < 100 ms;
//! 2. the operating-policy journal must stay within
//!    [`MAX_OPERATING_BYTES_PER_RECORD`] on-disk bytes per record;
//! 3. [`gate::check`] against the committed `BENCH_recovery.json`: both
//!    legs' journal bytes and every other counter exactly (the run is
//!    seeded, so the journal is byte-deterministic), and the resume time
//!    within [`gate::MAX_SLOWDOWN`].
//!
//! The run wall time, the full-replay time and the speedup are printed,
//! not committed.

use batchsim::availability::AvailabilityModel;
use batchsim::pool::PoolConfig;
use gridstore::dbs::{DatasetSpec, Dbs};
use lobster::config::{Backoff, JournalPolicy, LobsterConfig, WorkflowConfig};
use lobster::db::{journal_bytes, LobsterDb};
use lobster::driver::{ClusterSim, Session, SimParams};
use lobster::merge::MergeMode;
use lobster::workflow::Workflow;
use lobster_bench::gate::{self, Timed};
use serde::Serialize;
use simkit::time::SimDuration;
use std::path::PathBuf;

const SEED: u64 = 2025;
const SNAPSHOT_EVERY: u64 = 2048;
/// Snapshot+tail resume must finish in under 100 ms.
const RESUME_BUDGET_SECS: f64 = 0.100;
/// Ceiling on the operating-policy journal's on-disk bytes per record
/// (467751 bytes over 60001 records, 7.80, when the gate was set).
const MAX_OPERATING_BYTES_PER_RECORD: f64 = 7.8;

#[derive(Serialize)]
struct ReplayLeg {
    journal_bytes: u64,
}

#[derive(Serialize)]
struct SnapshotLeg {
    journal_bytes: u64,
    recover_secs: f64,
}

#[derive(Serialize)]
struct BenchResult {
    seed: u64,
    snapshot_every_records: u64,
    events: u64,
    tasks_completed: u64,
    merges_completed: u64,
    /// Journal records the run wrote (all of them survive, uncompacted,
    /// in the full-replay leg).
    records: u64,
    /// snapshot_tail.journal_bytes / records.
    operating_bytes_per_record: f64,
    full_replay: ReplayLeg,
    snapshot_tail: SnapshotLeg,
}

fn setup(journal: JournalPolicy) -> (LobsterConfig, SimParams, Vec<Workflow>) {
    let mut cfg = LobsterConfig::default();
    cfg.seed = SEED;
    cfg.merge = MergeMode::Interleaved;
    cfg.workers.target_cores = 256;
    cfg.workers.cores_per_worker = 8;
    cfg.merge_target_bytes = 200_000_000;
    cfg.retry.max_attempts = Some(10);
    cfg.retry.requeue = Backoff {
        base: SimDuration::from_mins(5),
        factor: 2.0,
        max: SimDuration::from_mins(30),
        jitter: 0.1,
    };
    cfg.journal = journal;
    cfg.workflows = vec![WorkflowConfig::analysis("ttbar", "/TTJets/Bench/AOD")];

    let mut dbs = Dbs::new();
    dbs.generate(
        "/TTJets/Bench/AOD",
        DatasetSpec {
            // ~12000 six-tasklet tasks — a run of roughly 100k events,
            // leaving a six-figure record count for the replay leg.
            n_files: 36_000,
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
        ..SimParams::default()
    };
    (cfg, params, vec![wf])
}

fn journal_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("lobster-bench-recovery");
    std::fs::create_dir_all(&dir).expect("temp dir");
    // v3 journals are directories; clear both shapes from earlier runs.
    let path = dir.join(format!("{tag}-{}.wal", std::process::id()));
    std::fs::remove_file(&path).ok();
    std::fs::remove_dir_all(&path).ok();
    path
}

fn cleanup(path: &PathBuf) {
    std::fs::remove_file(path).ok();
    std::fs::remove_dir_all(path).ok();
}

/// Cold-recover `path` [`gate::REPEATS`] times; return the fastest pass
/// and its recovered db. Recovery reads only what is on disk — the
/// writing process's state is long dropped by the time this runs — so the
/// timing is an honest reopen-from-disk, with a warm page cache (the
/// steady-state restart case a master actually hits).
fn time_recover(path: &PathBuf) -> (f64, LobsterDb) {
    gate::best_of(
        || (),
        |()| LobsterDb::recover(path).expect("journal recovers"),
    )
}

fn main() {
    let replay_path = journal_path("full-replay");
    let snap_path = journal_path("snapshot-tail");

    let (cfg, params, wfs) = setup(JournalPolicy::never());
    let started = std::time::Instant::now();
    let full =
        Session::new(ClusterSim::durable(cfg, params, wfs, &replay_path).expect("durable run"))
            .finish();
    let run_wall_secs = started.elapsed().as_secs_f64();

    // The operating policy: periodic snapshots plus default group commit.
    let (cfg, params, wfs) = setup(JournalPolicy {
        snapshot_every_records: Some(SNAPSHOT_EVERY),
        ..JournalPolicy::default()
    });
    let snap =
        Session::new(ClusterSim::durable(cfg, params, wfs, &snap_path).expect("durable run"))
            .finish();

    if full.finished_at.is_none() || snap.finished_at.is_none() {
        eprintln!("bench_recovery: a run did not finish (full {full:?})");
        std::process::exit(1);
    }
    // Journaling policy must not perturb the simulation itself.
    if full.tasks_completed != snap.tasks_completed
        || full.merges_completed != snap.merges_completed
        || full.events_delivered != snap.events_delivered
    {
        eprintln!("bench_recovery: journal policy perturbed the run");
        std::process::exit(1);
    }

    let (replay_secs, replay_db) = time_recover(&replay_path);
    let (snap_secs, snap_db) = time_recover(&snap_path);

    // Both journals must recover to the same terminal state.
    if !replay_db.all_done()
        || !snap_db.all_done()
        || replay_db.counters() != snap_db.counters()
        || replay_db.merged_files() != snap_db.merged_files()
    {
        eprintln!("bench_recovery: recovered states disagree");
        std::process::exit(1);
    }

    // The full-replay leg holds every record the run wrote, uncompacted:
    // attaching to it counts them.
    let records = LobsterDb::open(&replay_path)
        .expect("journal reopens")
        .records_since_snapshot();
    let replay_bytes = journal_bytes(&replay_path).expect("journal size");
    let snap_bytes = journal_bytes(&snap_path).expect("journal size");
    let operating_bytes_per_record = snap_bytes as f64 / records.max(1) as f64;
    cleanup(&replay_path);
    cleanup(&snap_path);

    let result = BenchResult {
        seed: SEED,
        snapshot_every_records: SNAPSHOT_EVERY,
        events: full.events_delivered,
        tasks_completed: full.tasks_completed,
        merges_completed: full.merges_completed,
        records,
        operating_bytes_per_record,
        full_replay: ReplayLeg {
            journal_bytes: replay_bytes,
        },
        snapshot_tail: SnapshotLeg {
            journal_bytes: snap_bytes,
            recover_secs: snap_secs,
        },
    };
    let json = serde_json::to_string_pretty(&result).expect("serialises");
    println!("== bench_recovery (seed {SEED}) ==");
    println!("{json}");
    println!(
        "run {run_wall_secs:.3}s; full replay {replay_secs:.6}s, snapshot+tail \
         {snap_secs:.6}s ({:.2}x faster)",
        replay_secs / snap_secs.max(1e-9)
    );

    let mut ok = gate::check("BENCH_recovery", &json, &[Timed::Secs("recover_secs")]);
    if replay_secs <= snap_secs {
        eprintln!("bench_recovery: FAIL snapshot+tail did not beat full replay");
        ok = false;
    }
    if snap_secs >= RESUME_BUDGET_SECS {
        eprintln!(
            "bench_recovery: FAIL snapshot+tail resume {snap_secs:.6}s over the \
             {RESUME_BUDGET_SECS:.3}s budget"
        );
        ok = false;
    }
    if operating_bytes_per_record > MAX_OPERATING_BYTES_PER_RECORD {
        eprintln!(
            "bench_recovery: FAIL operating journal {operating_bytes_per_record:.2} \
             bytes/record over the {MAX_OPERATING_BYTES_PER_RECORD:.2} ceiling"
        );
        ok = false;
    }
    if !ok {
        std::process::exit(1);
    }
}
