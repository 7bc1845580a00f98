//! simlint CLI.
//!
//! ```text
//! cargo run -p simlint                         # report, exit 0
//! cargo run -p simlint -- --check              # exit 1 on non-baselined findings
//! cargo run -p simlint -- --format json        # machine-readable report,
//!                                              # with non-test line counts
//! cargo run -p simlint -- --explain <rule>     # why a rule exists
//! cargo run -p simlint -- --write-baseline     # regenerate simlint.baseline
//! ```
//!
//! Exit codes, so CI failures are diagnosable from the status alone:
//!
//! | code | meaning |
//! |------|---------|
//! | 0 | clean (or findings without `--check`) |
//! | 1 | `--check` found non-baselined findings |
//! | 2 | command-line usage error |
//! | 3 | I/O or parse error (unreadable file, unbalanced source, bad baseline) |

use std::path::PathBuf;
use std::process::ExitCode;

use simlint::{
    apply_baseline, lint_workspace, non_test_lines, parse_baseline, render_baseline, render_human,
    render_json, ErrorKind, LintError, Rule,
};

const BASELINE_FILE: &str = "simlint.baseline";

fn usage() -> &'static str {
    "usage: simlint [--check] [--format human|json] [--explain <rule>]\n\
     \x20              [--write-baseline] [--root <dir>]\n\
     \n\
     --check           exit 1 when non-baselined violations exist (CI gate)\n\
     --format <fmt>    output format: human (default) or json\n\
     --json            alias for --format json\n\
     --explain <rule>  print the rationale for one rule and exit\n\
     --write-baseline  rewrite simlint.baseline from the current tree\n\
     --root <dir>      workspace root (default: this crate's ../..)\n\
     \n\
     exit codes: 0 clean · 1 new findings (--check) · 2 usage · 3 I/O or parse"
}

fn explain(rule_name: &str) -> Result<(), LintError> {
    let Some(rule) = Rule::from_name(rule_name) else {
        let known: Vec<&str> = Rule::ALL.iter().map(|r| r.name()).collect();
        return Err(LintError::usage(format!(
            "unknown rule `{rule_name}`; known rules: {}",
            known.join(", ")
        )));
    };
    println!("{}\n", rule.name());
    println!("  flags: {}\n", rule.message());
    // Reflow the rationale to a readable width.
    let mut line = String::from(" ");
    for word in rule.explain().split_whitespace() {
        if line.len() + word.len() + 1 > 78 {
            println!("{line}");
            line = String::from(" ");
        }
        line.push(' ');
        line.push_str(word);
    }
    println!("{line}");
    Ok(())
}

fn run() -> Result<bool, LintError> {
    let mut check = false;
    let mut json = false;
    let mut write_baseline = false;
    let mut root: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--json" => json = true,
            "--format" => match args.next().as_deref() {
                Some("json") => json = true,
                Some("human") => json = false,
                Some(other) => {
                    return Err(LintError::usage(format!(
                        "unknown format `{other}` (expected human or json)"
                    )))
                }
                None => {
                    return Err(LintError::usage("--format requires an argument"));
                }
            },
            "--explain" => {
                let Some(rule) = args.next() else {
                    return Err(LintError::usage("--explain requires a rule name"));
                };
                explain(&rule)?;
                return Ok(true);
            }
            "--write-baseline" => write_baseline = true,
            "--root" => {
                root = Some(PathBuf::from(args.next().ok_or_else(|| {
                    LintError::usage("--root requires a directory argument")
                })?));
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(true);
            }
            other => {
                return Err(LintError::usage(format!(
                    "unknown argument `{other}`\n{}",
                    usage()
                )))
            }
        }
    }

    // The linter is path-scoped, so anchor at the workspace root regardless
    // of the invoking directory.
    let root = root.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join("..")
    });
    let root = root.canonicalize().unwrap_or(root);

    let mut findings = lint_workspace(&root)?;

    let baseline_path = root.join(BASELINE_FILE);
    if write_baseline {
        std::fs::write(&baseline_path, render_baseline(&findings))?;
        println!(
            "simlint: wrote {} entries to {}",
            findings.len(),
            baseline_path.display()
        );
        return Ok(true);
    }

    if baseline_path.exists() {
        let baseline = parse_baseline(&std::fs::read_to_string(&baseline_path)?)?;
        apply_baseline(&mut findings, &baseline);
    }

    if json {
        print!("{}", render_json(&findings, &non_test_lines(&root)?));
    } else {
        print!("{}", render_human(&findings));
    }

    let fresh = findings.iter().filter(|f| !f.baselined).count();
    Ok(!check || fresh == 0)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            match e.kind {
                ErrorKind::Usage => ExitCode::from(2),
                ErrorKind::Data => ExitCode::from(3),
            }
        }
    }
}
