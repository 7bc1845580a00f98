//! The benchmark's output: a detail line with every deterministic count,
//! then the result line the contract asks for, both single-line JSON.

use crate::harness::{Metric, Options, Outcome};
use std::fmt::Write;

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"name": {"value": v, "unit": "u"}, ...}`
fn metrics_object(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                escape(&m.name),
                m.value,
                escape(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Every deterministic count of the run, the iteration tallies and any
/// failed checks.
pub fn detail_line(opts: &Options, out: &Outcome) -> String {
    let counts: Vec<String> = out
        .counts
        .iter()
        .map(|(k, v)| format!("{}: {v}", escape(k)))
        .collect();
    let failures: Vec<String> = out.failures.iter().map(|f| escape(f)).collect();
    let (untraced, traced, setups) = out.iterations;
    let rates: Vec<String> = out.rates.iter().map(f64::to_string).collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"untraced_iterations\": {untraced}, \
         \"traced_iterations\": {traced}, \"setup_samples\": {setups}, \"tasklets_per_sec_samples\": [{}], \
         \"counts\": {{{}}}, \"failures\": [{}]}}",
        escape(opts.workload.name()),
        opts.seed,
        u8::from(opts.trace),
        rates.join(", "),
        counts.join(", "),
        failures.join(", ")
    )
}

/// The contract's last line: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(out: &Outcome) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.correct(),
        out.attempted,
        out.failed,
        metrics_object(&out.metrics)
    )
}
