//! Every workload at toy size, through the untraced and the traced path:
//! each emits exactly the metrics `BENCHMARK.json` lists for its mode, and
//! passes every correctness check.
//!
//! One test function runs everything in sequence: the counting allocator
//! is process-wide, so a concurrent test would move another's peak.

use perfbench::harness::{run, Options, Outcome};
use perfbench::report;
use perfbench::trace::KINDS;
use perfbench::workloads::{Size, Workload};
use serde_json::Value;
use std::path::PathBuf;

/// Metric names of one section (`end_to_end` or `per_layer`) of the
/// repository's `BENCHMARK.json`.
fn listed(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let fields = doc.as_object().expect("an object");
    let Some(Value::Array(items)) = Value::get_field(fields, section) else {
        panic!("BENCHMARK.json has no {section} list");
    };
    items
        .iter()
        .map(|m| {
            let m = m.as_object().expect("metric object");
            let name = Value::get_field(m, "name").and_then(Value::as_str);
            name.expect("metric name").to_string()
        })
        .collect()
}

fn toy(workload: Workload, trace: bool) -> Outcome {
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "selftest-{}-{}",
        workload.name(),
        u8::from(trace)
    ));
    let opts = Options {
        workload,
        seed: workload.default_seed(),
        seconds: 0.0,
        trace,
        size: Size::TOY,
        scratch: scratch.clone(),
    };
    let out = run(&opts);
    assert!(!scratch.exists(), "journal scratch left behind");
    let last = report::result_line(&out);
    let parsed: Value = serde_json::from_str(&last).expect("result line is JSON");
    let keys: Vec<&str> = parsed
        .as_object()
        .expect("result object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    serde_json::from_str::<Value>(&report::detail_line(&opts, &out)).expect("detail line is JSON");
    out
}

fn sorted(mut v: Vec<String>) -> Vec<String> {
    v.sort();
    v
}

#[test]
fn every_workload_emits_every_metric_and_passes_its_checks() {
    let end_to_end = listed("end_to_end");
    let per_layer = listed("per_layer");
    let mut first_counts = Vec::new();
    for workload in Workload::ALL {
        let name = workload.name();
        let plain = toy(workload, false);
        let traced = toy(workload, true);
        for (out, expected) in [(&plain, &end_to_end), (&traced, &per_layer)] {
            assert!(out.correct(), "{name}: {:?}", out.failures);
            assert_eq!(out.failed, 0, "{name}: failed_checks");
            assert!(out.attempted >= 3, "{name}: {} runs", out.attempted);
            let got = out.metrics.iter().map(|m| m.name.clone()).collect();
            assert_eq!(sorted(got), sorted(expected.clone()), "{name}");
            for m in &out.metrics {
                assert!(m.value.is_finite(), "{name}: {} = {}", m.name, m.value);
            }
        }
        for m in &plain.metrics {
            assert!(
                m.value > 0.0,
                "{name}: end-to-end {} is {}",
                m.name,
                m.value
            );
        }

        // The wrapper must not perturb the simulation.
        let digest = |o: &Outcome| o.counts.get("sim.outcome_digest").copied();
        assert!(digest(&plain).is_some());
        assert_eq!(
            digest(&plain),
            digest(&traced),
            "{name}: traced run diverged"
        );
        for (k, v) in &plain.counts {
            assert_eq!(
                traced.counts.get(k).copied().unwrap_or(*v),
                *v,
                "{name}: {k}"
            );
        }

        let metric = |k: &str| traced.metric(k).expect(k);
        let handled: f64 = KINDS
            .iter()
            .map(|k| metric(&format!("handler.{k}.events")))
            .sum();
        assert_eq!(handled, metric("engine.events"), "{name}");
        if workload == Workload::Tenants100 {
            assert!(metric("tenancy.rounds") > 0.0);
            assert!(metric("jain_fairness") >= 0.9);
        } else {
            assert!(handled > 0.0, "{name}: no handled events");
            assert!(metric("engine.pending_hwm") > 0.0);
        }
        if workload == Workload::AnalysisDurable {
            assert!(metric("journal_bytes") > 0.0);
            assert!(metric("db.durable_leg_s") > 0.0 && metric("db.memory_leg_s") > 0.0);
            assert!(plain.counts["crash_after_events"] > 0.0);
        }
        first_counts.push((workload, plain.counts));
    }

    // A later run of the same seed repeats every count exactly.
    for (workload, counts) in first_counts {
        assert_eq!(toy(workload, false).counts, counts, "{}", workload.name());
    }
}
