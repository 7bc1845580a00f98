//! The `lobster` command-line tool.
//!
//! "An execution begins with the main Lobster process that is invoked by
//! the user to initiate a workload. The user provides a configuration
//! file which describes the input data sources and the analysis code"
//! (§3). This binary is that entry point for the reproduction:
//!
//! ```text
//! lobster init <config.json>          write a default configuration
//! lobster validate <config.json>      check a configuration
//! lobster simulate <config.json>      run the cluster-scale simulation
//!     [--hours H] [--cores N] [--seed S]
//!     [--metrics metrics.json] [--dashboard out.html]
//! lobster tasksize [--hours ...]      the §4.1 task-size study
//! lobster dashboard <metrics.json>    render the ops dashboard from a
//!     [--out out.html] [--prom out.prom]   committed snapshot
//! ```

use batchsim::availability::{AvailabilityModel, EvictionScenario};
use gridstore::dbs::{DatasetSpec, Dbs};
use lobster::config::{LobsterConfig, WorkloadKind};
use lobster::driver::{ClusterSim, Session, SimParams};
use lobster::tasksize::{sweep, TaskSizeConfig};
use lobster::workflow::Workflow;
use simkit::plot::sparkline;
use simkit::time::SimDuration;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  lobster init <config.json>\n  lobster validate <config.json>\n  \
         lobster simulate <config.json> [--hours H] [--cores N] [--seed S] \
         [--metrics metrics.json] [--dashboard out.html]\n  \
         lobster tasksize [--task-hours H1,H2,...]\n  \
         lobster dashboard <metrics.json> [--out out.html] [--prom out.prom]"
    );
    ExitCode::from(2)
}

/// Pull `--key value` out of an argument list.
fn flag(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("init") => {
            let Some(path) = args.get(1) else {
                return usage();
            };
            let cfg = LobsterConfig::default();
            if let Err(e) = cfg.save(path) {
                eprintln!("lobster: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote default configuration to {path}");
            ExitCode::SUCCESS
        }
        Some("validate") => {
            let Some(path) = args.get(1) else {
                return usage();
            };
            match LobsterConfig::load(path) {
                Ok(cfg) => {
                    let problems = cfg.validate();
                    if problems.is_empty() {
                        println!("{path}: ok ({} workflow(s))", cfg.workflows.len());
                        ExitCode::SUCCESS
                    } else {
                        for p in problems {
                            eprintln!("{path}: {p}");
                        }
                        ExitCode::FAILURE
                    }
                }
                Err(e) => {
                    eprintln!("lobster: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("simulate") => {
            let Some(path) = args.get(1) else {
                return usage();
            };
            let mut cfg = match LobsterConfig::load(path) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("lobster: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if let Some(seed) = flag(&args, "--seed").and_then(|s| s.parse().ok()) {
                cfg.seed = seed;
            }
            if let Some(cores) = flag(&args, "--cores").and_then(|s| s.parse().ok()) {
                cfg.workers.target_cores = cores;
            }
            let hours: u64 = flag(&args, "--hours")
                .and_then(|s| s.parse().ok())
                .unwrap_or(48);
            let problems = cfg.validate();
            if !problems.is_empty() {
                for p in problems {
                    eprintln!("{path}: {p}");
                }
                return ExitCode::FAILURE;
            }
            let metrics_out = flag(&args, "--metrics");
            let dashboard_out = flag(&args, "--dashboard");
            run_simulation(cfg, hours, metrics_out, dashboard_out)
        }
        Some("dashboard") => {
            let Some(path) = args.get(1) else {
                return usage();
            };
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("lobster: cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let snap = match opsplane::MetricsSnapshot::from_json(&text) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("lobster: {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if let Err(e) = snap.validate() {
                eprintln!("lobster: {path}: invalid snapshot: {e}");
                return ExitCode::FAILURE;
            }
            let out = flag(&args, "--out").unwrap_or_else(|| "dashboard.html".to_string());
            if let Err(e) = std::fs::write(&out, opsplane::dashboard::render(&snap)) {
                eprintln!("lobster: cannot write {out}: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote dashboard for run {:?} to {out}", snap.run.name);
            if let Some(prom_out) = flag(&args, "--prom") {
                if let Err(e) = std::fs::write(&prom_out, opsplane::prom::render(&snap)) {
                    eprintln!("lobster: cannot write {prom_out}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("wrote Prometheus text exposition to {prom_out}");
            }
            ExitCode::SUCCESS
        }
        Some("tasksize") => {
            let hours: Vec<f64> = flag(&args, "--task-hours")
                .map(|s| s.split(',').filter_map(|x| x.parse().ok()).collect())
                .unwrap_or_else(|| vec![0.5, 1.0, 2.0, 4.0, 8.0]);
            let cfg = TaskSizeConfig::default();
            println!(
                "{:>10} {:>14} {:>14} {:>14}",
                "task (h)", "none", "constant", "observed"
            );
            let scenarios = [
                EvictionScenario::None,
                EvictionScenario::ConstantHazard { per_hour: 0.1 },
                EvictionScenario::Observed(AvailabilityModel::notre_dame()),
            ];
            let cols: Vec<Vec<f64>> = scenarios
                .iter()
                .map(|s| {
                    sweep(&cfg, s, &hours, 1)
                        .iter()
                        .map(|p| p.efficiency)
                        .collect()
                })
                .collect();
            for (i, h) in hours.iter().enumerate() {
                println!(
                    "{h:>10.2} {:>14.3} {:>14.3} {:>14.3}",
                    cols[0][i], cols[1][i], cols[2][i]
                );
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}

/// Decompose the configured workflows against synthetic DBS datasets and
/// run the cluster simulation, optionally emitting the ops-plane
/// snapshot and dashboard.
fn run_simulation(
    cfg: LobsterConfig,
    hours: u64,
    metrics_out: Option<String>,
    dashboard_out: Option<String>,
) -> ExitCode {
    let mut dbs = Dbs::new();
    let mut workflows = Vec::new();
    for w in &cfg.workflows {
        match w.kind {
            WorkloadKind::DataProcessing => {
                // Size the synthetic dataset to the fleet: ~12 tasklets
                // per target core, ~100 MB of input per tasklet.
                let files = ((cfg.workers.target_cores as usize * 12) / 10).max(10);
                dbs.generate(
                    &w.dataset,
                    DatasetSpec {
                        n_files: files,
                        mean_file_bytes: 1_150_000_000,
                        events_per_lumi: 300,
                        lumis_per_file: 250,
                    },
                    cfg.seed ^ 0xDB5,
                );
                let ds = dbs.query(&w.dataset).expect("just generated");
                println!(
                    "workflow {}: dataset {} ({:.1} TB, {} files)",
                    w.name,
                    w.dataset,
                    ds.total_bytes() as f64 / 1e12,
                    ds.files.len()
                );
                workflows.push(Workflow::from_dataset(w, ds));
            }
            WorkloadKind::Simulation => {
                let tasklets = cfg.workers.target_cores as u64 * 20;
                println!("workflow {}: {} generation tasklets", w.name, tasklets);
                workflows.push(Workflow::simulation(w, tasklets, 15_000_000));
            }
        }
    }
    let params = SimParams {
        horizon: SimDuration::from_hours(hours),
        ..SimParams::default()
    };
    let run_name = cfg
        .workflows
        .first()
        .map(|w| w.name.clone())
        .unwrap_or_else(|| "simulate".to_string());
    let report = Session::new(ClusterSim::new(cfg.clone(), params.clone(), workflows)).finish();

    if metrics_out.is_some() || dashboard_out.is_some() {
        let snap = lobster::ops::snapshot_from_run(&run_name, &cfg, &params, &report);
        if let Some(path) = &metrics_out {
            if let Err(e) = std::fs::write(path, snap.to_json()) {
                eprintln!("lobster: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote metrics snapshot to {path}");
        }
        if let Some(path) = &dashboard_out {
            if let Err(e) = std::fs::write(path, opsplane::dashboard::render(&snap)) {
                eprintln!("lobster: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote dashboard to {path}");
        }
    }

    println!(
        "\nconcurrent tasks  {}",
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
    println!("\npeak concurrency  {:.0}", report.peak_concurrency);
    println!("tasks completed   {}", report.tasks_completed);
    println!(
        "tasks failed      {} ({} lost to eviction)",
        report.tasks_failed, report.evictions
    );
    println!("merged files      {}", report.merged_files.len());
    println!(
        "finished at       {}",
        report
            .finished_at
            .map_or("ran out of horizon".to_string(), |t| t.to_string())
    );
    println!("\nruntime breakdown:");
    for (phase, h, frac) in report.accounting.table() {
        println!("  {phase:<14} {h:>10.0} h  {:>5.1}%", frac * 100.0);
    }
    if !report.advice.is_empty() {
        println!("\ntroubleshooting advisor:");
        for a in &report.advice {
            println!("  - {a:?}");
        }
    }
    ExitCode::SUCCESS
}
