//! Chaos-sweep conformance gate — the `ci.sh` robustness check.
//!
//! Runs every shipped scenario under `scenarios/` plus a seeded sweep of
//! randomized chaos scenarios through the four global invariants
//! (no hang, accounting conservation, trace determinism, crash/resume
//! convergence). Any invariant violation fails the run (exit 1).
//!
//! [`gate::check`] then compares the reports with the committed
//! `CONFORMANCE_chaos.json`, every counter and trace digest exactly. A
//! digest that moves on purpose is re-baselined by copying
//! `target/bench/CONFORMANCE_chaos.json` over the committed file.

use lobster_bench::gate;
use scenario::chaos::chaos_scenario;
use scenario::runner::{ConformanceReport, MultiTenantConformance, ScenarioRunner};
use scenario::spec::Scenario;
use serde::Serialize;
use std::path::PathBuf;

/// Fixed chaos sweep: ten seeds, disjoint from the tier-1 sampled pair so
/// the release gate widens coverage instead of repeating it.
const CHAOS_SEEDS: [u64; 10] = [1, 2, 4, 5, 6, 7, 8, 9, 10, 12];

#[derive(Serialize)]
struct ChaosBench {
    chaos_seeds: Vec<u64>,
    library: Vec<ConformanceReport>,
    /// Library scenarios with a tenant roster, run through the
    /// coordinated multi-tenant conformance gate instead.
    multitenant: Vec<MultiTenantConformance>,
    chaos: Vec<ConformanceReport>,
}

fn library_files() -> Vec<PathBuf> {
    let dir = gate::repo_root().join("scenarios");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    files
}

fn main() {
    let runner = ScenarioRunner::new("bench-chaos").expect("temp dir is writable");
    let mut failed = false;

    let mut library = Vec::new();
    let mut multitenant = Vec::new();
    for path in library_files() {
        let sc = match Scenario::load(&path) {
            Ok(sc) => sc,
            Err(e) => {
                eprintln!("bench_chaos: {}: {e}", path.display());
                failed = true;
                continue;
            }
        };
        if !sc.tenants.is_empty() {
            match runner.multi_conformance(&sc) {
                Ok(report) => {
                    eprintln!(
                        "[library {:<18}] {:>2} tenants × {:>4} tasklets, jain {:.4}, {} rounds",
                        report.scenario,
                        report.tenants.len(),
                        report.per_tenant_tasklets,
                        report.jain_fairness,
                        report.rounds,
                    );
                    multitenant.push(report);
                }
                Err(e) => {
                    eprintln!("bench_chaos: FAIL {}: {e}", path.display());
                    failed = true;
                }
            }
            continue;
        }
        match runner.conformance(&sc) {
            Ok(report) => {
                eprintln!(
                    "[library {:<18}] {:>6} tasklets, {:>4} dead, drained at {:>6.1} h, digest {}",
                    report.scenario,
                    report.total_tasklets,
                    report.dead_tasklets,
                    report.finished_at_us as f64 / 3.6e9,
                    report.trace_digest,
                );
                library.push(report);
            }
            Err(e) => {
                eprintln!("bench_chaos: FAIL {}: {e}", path.display());
                failed = true;
            }
        }
    }

    let mut chaos = Vec::new();
    for seed in CHAOS_SEEDS {
        let sc = chaos_scenario(seed);
        match runner.conformance(&sc) {
            Ok(report) => {
                eprintln!(
                    "[chaos seed {seed:>3}     ] {:>6} tasklets, {:>4} dead, drained at {:>6.1} h, digest {}",
                    report.total_tasklets,
                    report.dead_tasklets,
                    report.finished_at_us as f64 / 3.6e9,
                    report.trace_digest,
                );
                chaos.push(report);
            }
            Err(e) => {
                eprintln!("bench_chaos: FAIL chaos seed {seed}: {e}");
                failed = true;
            }
        }
    }

    let result = ChaosBench {
        chaos_seeds: CHAOS_SEEDS.to_vec(),
        library,
        multitenant,
        chaos,
    };
    let json = serde_json::to_string_pretty(&result).expect("serialises");
    println!(
        "== bench_chaos ({} library + {} multi-tenant scenarios, {} chaos seeds) ==",
        result.library.len(),
        result.multitenant.len(),
        result.chaos.len()
    );
    if failed {
        eprintln!("bench_chaos: FAIL invariant violations above");
    }
    if !gate::check("CONFORMANCE_chaos", &json, &[]) || failed {
        std::process::exit(1);
    }
}
