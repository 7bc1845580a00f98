//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for `--seconds` of measured iterations and prints
//! two JSON lines on standard output: every deterministic count, then the
//! result (`correct`, `attempted`, `failed`, `metrics`). `--trace 0`
//! reports the end-to-end metrics, `--trace 1` the per-layer split.
//! Journals go under `.perfbench_tmp/` in the working directory and are
//! removed before exit.

use perfbench::harness::{self, Options};
use perfbench::report;
use perfbench::workloads::{Size, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Workload::parse(value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload {value}")),
            },
            "--seed" => match value.parse::<u64>() {
                Ok(n) => seed = Some(n),
                Err(_) => return usage(&format!("bad seed {value}")),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s.is_finite() && s >= 0.0 => seconds = s,
                _ => return usage(&format!("bad seconds {value}")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage(&format!("bad trace {value}")),
            },
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    let opts = Options {
        workload,
        seed: seed.unwrap_or(workload.default_seed()),
        seconds,
        trace,
        size: Size::FULL,
        scratch: PathBuf::from(".perfbench_tmp").join(format!("p{:010}", std::process::id())),
    };
    let outcome = harness::run(&opts);
    // Leave no empty parent behind; another run may still be using it.
    let _ = std::fs::remove_dir(".perfbench_tmp");
    println!("{}", report::detail_line(&opts, &outcome));
    println!("{}", report::result_line(&outcome));
    ExitCode::SUCCESS
}
