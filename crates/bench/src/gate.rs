//! The one baseline gate every `bench_*` binary goes through.
//!
//! A binary serialises its result and hands the JSON to [`check`], which
//! compares it with the committed `<name>.json` at the repo root before
//! anything is written, then writes the result to
//! `target/bench/<name>.json`. The committed file is never written, so a
//! failing run cannot become the baseline a rerun compares against. To
//! re-baseline, copy the result over the committed file and log the copy
//! in CHANGES.md.
//!
//! One rule for every binary: each leaf must equal the baseline's
//! exactly, except the timing keys the binary names ([`Timed`]), which may
//! be at most [`MAX_SLOWDOWN`] worse. Timed work runs [`REPEATS`] times
//! through [`best_of`]; wall times that are not gated are printed, never
//! committed.

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Timed work runs this many times and the fastest run is the measurement.
pub const REPEATS: u32 = 5;

/// A timing leaf fails when it is more than this factor worse than the
/// baseline: seconds above `baseline × 1.2`, a rate below
/// `baseline / 1.2`.
pub const MAX_SLOWDOWN: f64 = 1.20;

/// A timing leaf, named by its key (the last component of its path).
#[derive(Clone, Copy, Debug)]
pub enum Timed {
    /// A duration in seconds: lower is better.
    Secs(&'static str),
    /// A rate per second: higher is better.
    Rate(&'static str),
}

impl Timed {
    fn key(self) -> &'static str {
        match self {
            Timed::Secs(k) | Timed::Rate(k) => k,
        }
    }

    /// How many times worse `new` is than `old`, as a slowdown factor.
    fn slowdown(self, old: f64, new: f64) -> f64 {
        match self {
            Timed::Secs(_) => new / old,
            Timed::Rate(_) => old / new,
        }
    }
}

/// Run `work` [`REPEATS`] times, each on a fresh input from `prepare`
/// (which is not timed); return the fastest wall time in seconds and that
/// run's output.
pub fn best_of<S, T>(mut prepare: impl FnMut() -> S, mut work: impl FnMut(S) -> T) -> (f64, T) {
    let mut run = || {
        let input = prepare();
        let started = Instant::now();
        let out = work(input);
        (started.elapsed().as_secs_f64().max(1e-9), out)
    };
    let mut best = run();
    for _ in 1..REPEATS {
        let next = run();
        if next.0 < best.0 {
            best = next;
        }
    }
    best
}

/// The repo root (two levels above this crate), where the committed
/// baselines live.
pub fn repo_root() -> PathBuf {
    let krate = Path::new(env!("CARGO_MANIFEST_DIR"));
    krate.ancestors().nth(2).unwrap_or(krate).to_path_buf()
}

/// Gate `json` against the committed `<name>.json` at the repo root and
/// write it to `target/bench/<name>.json`. Prints every failure; returns
/// whether the gate passed.
pub fn check(name: &str, json: &str, timed: &[Timed]) -> bool {
    let failures = check_at(&repo_root(), name, json, timed);
    for f in &failures {
        eprintln!("{name}: FAIL {f}");
    }
    failures.is_empty()
}

/// [`check`] against the baseline under `root`: compare, then write the
/// result. One message per failure.
fn check_at(root: &Path, name: &str, json: &str, timed: &[Timed]) -> Vec<String> {
    let mut failures = compare(&root.join(format!("{name}.json")), json, timed);
    let dir = root.join("target").join("bench");
    let out = dir.join(format!("{name}.json"));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&out, json)) {
        Ok(()) => println!("{name}: wrote {}", out.display()),
        Err(e) => failures.push(format!("cannot write {}: {e}", out.display())),
    }
    failures
}

fn compare(baseline: &Path, json: &str, timed: &[Timed]) -> Vec<String> {
    let text = match std::fs::read_to_string(baseline) {
        Ok(text) => text,
        Err(e) => return vec![format!("no baseline {}: {e}", baseline.display())],
    };
    let old: Value = match serde_json::from_str(&text) {
        Ok(v) => v,
        Err(e) => {
            return vec![format!(
                "baseline {} does not parse: {e}",
                baseline.display()
            )]
        }
    };
    let new: Value = match serde_json::from_str(json) {
        Ok(v) => v,
        Err(e) => return vec![format!("result does not parse: {e}")],
    };
    let mut failures = Vec::new();
    diff("", "", &old, &new, timed, &mut failures);
    failures
}

/// Walk `old` and `new` together, pushing one message per differing
/// leaf, missing or extra key, or changed array length. `key` is the
/// field the value sits under (array items inherit it).
fn diff(path: &str, key: &str, old: &Value, new: &Value, timed: &[Timed], out: &mut Vec<String>) {
    let field = |k: &str| {
        if path.is_empty() {
            k.to_string()
        } else {
            format!("{path}.{k}")
        }
    };
    match (old, new) {
        (Value::Object(old_fields), Value::Object(new_fields)) => {
            for (k, o) in old_fields {
                match Value::get_field(new_fields, k) {
                    Some(n) => diff(&field(k), k, o, n, timed, out),
                    None => out.push(format!("{} is missing (the baseline has it)", field(k))),
                }
            }
            for (k, _) in new_fields {
                if Value::get_field(old_fields, k).is_none() {
                    out.push(format!("{} is not in the baseline", field(k)));
                }
            }
        }
        (Value::Array(o), Value::Array(n)) if o.len() != n.len() => out.push(format!(
            "{path} has {} entries, the baseline has {}",
            n.len(),
            o.len()
        )),
        (Value::Array(o), Value::Array(n)) => {
            for (i, (o, n)) in o.iter().zip(n).enumerate() {
                diff(&format!("{path}[{i}]"), key, o, n, timed, out);
            }
        }
        _ => {
            let bound = timed.iter().find(|t| t.key() == key);
            match (bound, number(old), number(new)) {
                (Some(t), Some(o), Some(n)) => {
                    let slowdown = t.slowdown(o, n);
                    if slowdown > MAX_SLOWDOWN {
                        out.push(format!(
                            "{path} is {n}, {slowdown:.2}x worse than the baseline {o} \
                             (bound {MAX_SLOWDOWN:.2}x)"
                        ));
                    }
                }
                _ if old != new => out.push(format!(
                    "{path} is {}, the baseline has {}",
                    text(new),
                    text(old)
                )),
                _ => {}
            }
        }
    }
}

fn number(v: &Value) -> Option<f64> {
    match *v {
        Value::U64(n) => Some(n as f64),
        Value::I64(n) => Some(n as f64),
        Value::F64(x) => Some(x),
        _ => None,
    }
}

fn text(v: &Value) -> String {
    serde_json::to_string(v).unwrap_or_else(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh root holding `baseline` as the committed `BENCH_t.json`.
    fn root(tag: &str, baseline: Option<&str>) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lobster-gate-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("temp dir");
        if let Some(text) = baseline {
            std::fs::write(dir.join("BENCH_t.json"), text).expect("write baseline");
        }
        dir
    }

    const BASE: &str = r#"{"seed": 7, "points": [
        {"cores": 1, "events": 10, "wall": 2.0, "rate": 100.0},
        {"cores": 2, "events": 20, "wall": 4.0, "rate": 200.0}]}"#;
    const TIMED: [Timed; 2] = [Timed::Secs("wall"), Timed::Rate("rate")];

    fn gate(tag: &str, baseline: Option<&str>, result: &str) -> Vec<String> {
        gate_timed(tag, baseline, result, &TIMED)
    }

    fn gate_timed(tag: &str, baseline: Option<&str>, result: &str, timed: &[Timed]) -> Vec<String> {
        let dir = root(tag, baseline);
        let failures = check_at(&dir, "BENCH_t", result, timed);
        std::fs::remove_dir_all(&dir).ok();
        failures
    }

    #[test]
    fn identical_result_passes() {
        assert_eq!(gate("same", Some(BASE), BASE), Vec::<String>::new());
    }

    #[test]
    fn nested_mismatch_fails_and_names_the_path() {
        let result = BASE.replace(r#""events": 20"#, r#""events": 21"#);
        let failures = gate("nested", Some(BASE), &result);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(
            failures[0].starts_with("points[1].events is 21"),
            "{failures:?}"
        );
    }

    #[test]
    fn missing_key_or_changed_length_fails() {
        let result = BASE.replace(r#""seed": 7, "#, "");
        let failures = gate("missing", Some(BASE), &result);
        assert!(failures[0].starts_with("seed is missing"), "{failures:?}");

        let result = BASE.replace(r#""cores": 1,"#, r#""cores": 1, "extra": 0,"#);
        let failures = gate("extra", Some(BASE), &result);
        assert!(
            failures[0].starts_with("points[0].extra is not in"),
            "{failures:?}"
        );

        let result =
            r#"{"seed": 7, "points": [{"cores": 1, "events": 10, "wall": 2.0, "rate": 100.0}]}"#;
        let failures = gate("length", Some(BASE), result);
        assert!(
            failures[0].starts_with("points has 1 entries"),
            "{failures:?}"
        );
    }

    #[test]
    fn missing_or_unparseable_baseline_fails() {
        let failures = gate("nobase", None, BASE);
        assert!(failures[0].starts_with("no baseline"), "{failures:?}");
        let failures = gate("badbase", Some("{\"seed\": "), BASE);
        assert!(failures[0].contains("does not parse"), "{failures:?}");
    }

    #[test]
    fn timing_leaves_may_be_at_most_twenty_percent_worse() {
        for (factor, passes) in [(1.19, true), (1.21, false)] {
            let slower = BASE.replace(r#""wall": 4.0"#, &format!(r#""wall": {}"#, 4.0 * factor));
            assert_eq!(
                gate("secs", Some(BASE), &slower).is_empty(),
                passes,
                "{factor}"
            );
            let slower = BASE.replace(
                r#""rate": 200.0"#,
                &format!(r#""rate": {}"#, 200.0 / factor),
            );
            assert_eq!(
                gate("rate", Some(BASE), &slower).is_empty(),
                passes,
                "{factor}"
            );
        }
        // Faster is never a failure, and an untimed float stays exact.
        let faster = BASE.replace(r#""wall": 4.0"#, r#""wall": 0.5"#);
        assert!(gate("faster", Some(BASE), &faster).is_empty());
        assert!(gate_timed("untimed", Some(BASE), BASE, &[]).is_empty());
        let failures = gate_timed("untimed", Some(BASE), &faster, &[]);
        assert!(
            failures[0].starts_with("points[1].wall is 0.5"),
            "{failures:?}"
        );
    }

    #[test]
    fn failing_check_leaves_the_baseline_and_writes_the_result() {
        let dir = root("nowrite", Some(BASE));
        let result = BASE.replace(r#""seed": 7"#, r#""seed": 8"#);
        assert!(!check_at(&dir, "BENCH_t", &result, &TIMED).is_empty());
        let committed = std::fs::read_to_string(dir.join("BENCH_t.json")).expect("baseline");
        assert_eq!(committed, BASE);
        let written = std::fs::read_to_string(dir.join("target/bench/BENCH_t.json"));
        assert_eq!(written.expect("result"), result);
        std::fs::remove_dir_all(&dir).ok();
    }
}
