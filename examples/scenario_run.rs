//! Load a library scenario file end to end: parse, validate, compile,
//! run, and print what happened.
//!
//!     cargo run --release -p scenario --example scenario_run
//!     cargo run --release -p scenario --example scenario_run -- scenarios/wan_brownout.json

use lobster::driver::{ClusterSim, Session};
use scenario::compile::{compile, Compiled};
use scenario::spec::Scenario;

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "scenarios/squid_blackout.json".to_string());
    let sc = Scenario::load(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    println!("scenario  : {}", sc.name);
    println!("  {}", sc.description);
    println!(
        "workloads : {}",
        sc.workloads
            .iter()
            .map(|w| w.name.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!("faults    : {}", sc.faults.len());

    let Compiled {
        cfg,
        params,
        workflows,
    } = compile(&sc).expect("library scenarios compile");
    let total_tasklets: u64 = workflows.iter().map(|w| w.n_tasklets()).sum();
    println!("tasklets  : {total_tasklets}");

    let report = Session::new(ClusterSim::new(cfg, params, workflows)).finish();
    match report.finished_at {
        Some(t) => println!("finished  : {:.1} h of sim time", t.as_hours_f64()),
        None => println!("finished  : DID NOT DRAIN within {} h", sc.horizon_hours),
    }
    println!(
        "tasks     : {} completed, {} failed attempts",
        report.tasks_completed, report.tasks_failed
    );
    println!("evictions : {}", report.evictions);
    println!("merges    : {}", report.merges_completed);
    let dead: u64 = report.dead_letters.iter().map(|d| d.units).sum();
    println!(
        "dead      : {} tasklets in {} letters",
        dead,
        report.dead_letters.len()
    );
    let merged: u64 = report.merged_files.iter().map(|m| m.1).sum();
    println!(
        "merged    : {:.2} GB in {} files",
        merged as f64 / 1e9,
        report.merged_files.len()
    );
}
