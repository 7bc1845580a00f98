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
//! 3. against the committed `BENCH_recovery.json`, read and compared
//!    before anything is written: both legs' journal bytes and the record
//!    count must match it exactly (the run is seeded, so the journal is
//!    byte-deterministic), and resume may be at most 20% slower.
//!
//! Each run writes its result to `target/bench/BENCH_recovery.json`. The
//! committed baseline is rewritten only by `--bless`, which skips the
//! baseline comparison (the absolute gates still apply):
//!
//! ```sh
//! cargo run --release -p lobster-bench --bin bench_recovery [-- --bless]
//! ```

use batchsim::availability::AvailabilityModel;
use batchsim::pool::PoolConfig;
use gridstore::dbs::{DatasetSpec, Dbs};
use lobster::config::{Backoff, JournalPolicy, LobsterConfig, WorkflowConfig};
use lobster::db::{journal_bytes, LobsterDb};
use lobster::driver::{ClusterSim, Session, SimParams};
use lobster::merge::MergeMode;
use lobster::workflow::Workflow;
use serde::Serialize;
use simkit::time::SimDuration;
use std::path::PathBuf;

const SEED: u64 = 2025;
const SNAPSHOT_EVERY: u64 = 2048;
const RECOVER_REPS: u32 = 5;
/// Snapshot+tail resume must finish in under 100 ms.
const RESUME_BUDGET_SECS: f64 = 0.100;
/// Ceiling on the operating-policy journal's on-disk bytes per record
/// (467751 bytes over 60001 records, 7.80, when the gate was set).
const MAX_OPERATING_BYTES_PER_RECORD: f64 = 7.8;

#[derive(Serialize)]
struct RecoveryLeg {
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
    run_wall_secs: f64,
    /// Journal records the run wrote (all of them survive, uncompacted,
    /// in the full-replay leg).
    records: u64,
    /// snapshot_tail.journal_bytes / records.
    operating_bytes_per_record: f64,
    full_replay: RecoveryLeg,
    snapshot_tail: RecoveryLeg,
    speedup: f64,
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

/// Cold-recover `path` `RECOVER_REPS` times; return the fastest pass and
/// the last recovered db. Recovery reads only what is on disk — the
/// writing process's state is long dropped by the time this runs — so the
/// timing is an honest reopen-from-disk, with a warm page cache (the
/// steady-state restart case a master actually hits).
fn time_recover(path: &PathBuf) -> (f64, LobsterDb) {
    let mut best = f64::INFINITY;
    let mut db = None;
    for _ in 0..RECOVER_REPS {
        let started = std::time::Instant::now();
        let recovered = LobsterDb::recover(path).expect("journal recovers");
        best = best.min(started.elapsed().as_secs_f64());
        db = Some(recovered);
    }
    (best, db.expect("at least one rep"))
}

/// The gated fields of a committed BENCH_recovery.json.
struct Baseline {
    records: u64,
    replay_bytes: u64,
    snap_bytes: u64,
    snap_secs: f64,
}

/// Read the committed baseline at `path`; `None` when it is missing or
/// lacks a gated field.
fn read_baseline(path: &str) -> Option<Baseline> {
    use serde_json::Value;
    let text = std::fs::read_to_string(path).ok()?;
    let v: Value = serde_json::from_str(&text).ok()?;
    let root = v.as_object()?;
    let leg = |name: &str| Value::get_field(root, name)?.as_object();
    let count = |fields: &[(String, Value)], key: &str| match Value::get_field(fields, key)? {
        Value::U64(n) => Some(*n),
        _ => None,
    };
    let snap = leg("snapshot_tail")?;
    Some(Baseline {
        records: count(root, "records")?,
        replay_bytes: count(leg("full_replay")?, "journal_bytes")?,
        snap_bytes: count(snap, "journal_bytes")?,
        snap_secs: match Value::get_field(snap, "recover_secs")? {
            Value::F64(x) => *x,
            Value::U64(n) => *n as f64,
            _ => return None,
        },
    })
}

/// Compare a run with the committed baseline; one message per failed
/// gate.
fn baseline_failures(base: &Baseline, r: &BenchResult) -> Vec<String> {
    let mut out = Vec::new();
    let exact = [
        ("records", base.records, r.records),
        (
            "full_replay.journal_bytes",
            base.replay_bytes,
            r.full_replay.journal_bytes,
        ),
        (
            "snapshot_tail.journal_bytes",
            base.snap_bytes,
            r.snapshot_tail.journal_bytes,
        ),
    ];
    for (name, old, new) in exact {
        if old != new {
            out.push(format!("{name} is {new}, the baseline has {old}"));
        }
    }
    let ceiling = base.snap_secs * (1.0 + MAX_REGRESSION);
    if r.snapshot_tail.recover_secs > ceiling {
        out.push(format!(
            "resume {:.6}s > {ceiling:.6}s (baseline {:.6}s + {:.0}%)",
            r.snapshot_tail.recover_secs,
            base.snap_secs,
            MAX_REGRESSION * 100.0
        ));
    }
    out
}

/// >20% slower resume than the committed baseline fails the gate.
const MAX_REGRESSION: f64 = 0.20;

/// The committed baseline.
const BASELINE_PATH: &str = "BENCH_recovery.json";
/// Where every run writes its result.
const RESULT_PATH: &str = "target/bench/BENCH_recovery.json";

fn main() {
    let bless = match std::env::args().nth(1).as_deref() {
        None => false,
        Some("--bless") => true,
        Some(arg) => {
            eprintln!("bench_recovery: unknown argument {arg} (only --bless)");
            std::process::exit(2);
        }
    };
    let baseline = read_baseline(BASELINE_PATH);
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

    let result = BenchResult {
        seed: SEED,
        snapshot_every_records: SNAPSHOT_EVERY,
        events: full.events_delivered,
        tasks_completed: full.tasks_completed,
        merges_completed: full.merges_completed,
        run_wall_secs,
        records,
        operating_bytes_per_record,
        full_replay: RecoveryLeg {
            journal_bytes: replay_bytes,
            recover_secs: replay_secs,
        },
        snapshot_tail: RecoveryLeg {
            journal_bytes: snap_bytes,
            recover_secs: snap_secs,
        },
        speedup: replay_secs / snap_secs.max(1e-9),
    };
    let json = serde_json::to_string_pretty(&result).expect("serialises");
    println!("== bench_recovery (seed {SEED}) ==");
    println!("{json}");

    let mut failed = false;
    // The baseline gates run before anything is written, so a failing
    // run can never become the baseline a rerun compares against.
    match (&baseline, bless) {
        (_, true) => println!("bench_recovery: --bless: baseline comparison skipped"),
        (None, false) => {
            eprintln!(
                "bench_recovery: no readable baseline at {BASELINE_PATH}; \
                 run with --bless to create one"
            );
            failed = true;
        }
        (Some(base), false) => {
            for msg in baseline_failures(base, &result) {
                eprintln!("bench_recovery: REGRESSION: {msg}");
                failed = true;
            }
        }
    }
    if replay_secs <= snap_secs {
        eprintln!(
            "bench_recovery: snapshot+tail ({snap_secs:.6}s) did not beat \
             full replay ({replay_secs:.6}s)"
        );
        failed = true;
    }
    if snap_secs >= RESUME_BUDGET_SECS {
        eprintln!(
            "bench_recovery: snapshot+tail resume {snap_secs:.6}s over the \
             {RESUME_BUDGET_SECS:.3}s budget"
        );
        failed = true;
    }
    if operating_bytes_per_record > MAX_OPERATING_BYTES_PER_RECORD {
        eprintln!(
            "bench_recovery: operating journal {operating_bytes_per_record:.2} \
             bytes/record over the {MAX_OPERATING_BYTES_PER_RECORD:.2} ceiling"
        );
        failed = true;
    }
    std::fs::create_dir_all("target/bench").expect("writable target dir");
    std::fs::write(RESULT_PATH, &json).expect("writable target dir");
    println!("bench_recovery: wrote {RESULT_PATH}");
    if failed {
        std::process::exit(1);
    }
    if bless {
        std::fs::write(BASELINE_PATH, &json).expect("writable cwd");
        println!("bench_recovery: blessed {BASELINE_PATH}");
    }
    cleanup(&replay_path);
    cleanup(&snap_path);
}
