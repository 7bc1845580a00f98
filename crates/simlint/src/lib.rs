//! simlint — workspace determinism & robustness linter.
//!
//! A source-level static analysis pass for the simulation workspace,
//! built on a small hand-rolled Rust lexer ([`lexer`]) and token-tree
//! parser ([`tree`]) — no external dependencies, the workspace is
//! offline/vendored. Analysis is span-aware and nesting-aware: string and
//! comment contents can never trip a rule, every finding carries
//! line *and* column, and structural rules (call graphs, match arms, loop
//! bodies) see real nesting instead of raw lines.
//!
//! ## Rules
//!
//! | rule | what it flags | where |
//! |------|---------------|-------|
//! | `no-wall-clock` | `SystemTime::now`, `Instant::now` | sim-crate library code |
//! | `no-ambient-rng` | `thread_rng`, `from_entropy`, `StdRng::seed_from_u64` | everywhere except `simkit::rng` |
//! | `no-unordered-iteration` | `HashMap` / `HashSet` tokens | sim-crate library code |
//! | `no-panic-in-lib` | `.unwrap()`, `.expect(`, `panic!` | all library code |
//! | `wal-expect-confined` | `.expect("journal …")`-style fatal WAL allows | everywhere except `lobster::db` |
//! | `journal-coverage` | `LobsterDb` state mutation outside the `apply` replay path | `lobster::db` |
//! | `no-float-order` | order-sensitive float accumulation from unordered sources | sim-crate library code |
//! | `no-shared-mut-in-sim` | `Rc`, `RefCell`, `Cell`, `static mut`, `thread_local!` | sim-crate library code |
//! | `no-wildcard-event-match` | `_ =>` arms in `match`es over the `Ev` enum | sim-crate library code |
//!
//! `no-unordered-iteration` flags the unordered container *types* rather
//! than iteration sites: the type name is the reliable signal, and a
//! container that is never iterated is exactly the case the allow marker
//! exists to document.
//!
//! ## Escape hatches
//!
//! * `// simlint::allow(<rule>): <reason>` — in a comment on the offending
//!   line or the line directly above. The reason is mandatory.
//! * `// simlint::allow-file(<rule>): <reason>` — anywhere in the file;
//!   suppresses the rule for the whole file (e.g. a real-execution harness
//!   that legitimately reads wall-clock time).
//! * the baseline file (`simlint.baseline`) — a generated set of
//!   `(rule, file, content-hash, occurrence-index)` entries for
//!   pre-existing violations. Content hashing keeps the baseline stable
//!   under line drift; the occurrence index keeps identical lines from
//!   aliasing to one key.
//!
//! Scanned scope: `crates/*/src/**/*.rs`, excluding `main.rs`, `src/bin/`,
//! fixtures, and everything at or after a `#[cfg(test)]` marker (by
//! convention test modules sit at the end of a file in this workspace).

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

mod journal;
pub mod lexer;
mod rules;
pub mod tree;

use lexer::{Delim, TokKind, Token};

/// The nine lint rules.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Wall-clock time sources in simulation library code.
    WallClock,
    /// Ambient (OS- or thread-seeded) randomness outside `simkit::rng`.
    AmbientRng,
    /// Unordered containers in simulation state.
    UnorderedIteration,
    /// Panic paths in library code.
    PanicInLib,
    /// Fatal WAL-append `expect`s outside the journal layer.
    WalExpectConfined,
    /// `LobsterDb` journaled-state mutation bypassing `apply`.
    JournalCoverage,
    /// Order-sensitive float accumulation from unordered sources.
    FloatOrder,
    /// Shared-mutability primitives in simulation model code.
    SharedMutInSim,
    /// Catch-all arms in `match`es over the event enum.
    WildcardEventMatch,
}

impl Rule {
    /// All rules, in reporting order.
    pub const ALL: [Rule; 9] = [
        Rule::WallClock,
        Rule::AmbientRng,
        Rule::UnorderedIteration,
        Rule::PanicInLib,
        Rule::WalExpectConfined,
        Rule::JournalCoverage,
        Rule::FloatOrder,
        Rule::SharedMutInSim,
        Rule::WildcardEventMatch,
    ];

    /// The kebab-case name used in allow markers and the baseline file.
    pub fn name(self) -> &'static str {
        match self {
            Rule::WallClock => "no-wall-clock",
            Rule::AmbientRng => "no-ambient-rng",
            Rule::UnorderedIteration => "no-unordered-iteration",
            Rule::PanicInLib => "no-panic-in-lib",
            Rule::WalExpectConfined => "wal-expect-confined",
            Rule::JournalCoverage => "journal-coverage",
            Rule::FloatOrder => "no-float-order",
            Rule::SharedMutInSim => "no-shared-mut-in-sim",
            Rule::WildcardEventMatch => "no-wildcard-event-match",
        }
    }

    /// Parse a rule name (as written in allow markers / the baseline).
    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.name() == name)
    }

    /// One-line explanation attached to findings.
    pub fn message(self) -> &'static str {
        match self {
            Rule::WallClock => {
                "wall-clock time in simulation library code; use simkit::time::SimTime"
            }
            Rule::AmbientRng => {
                "ambient RNG outside simkit::rng; derive streams with SimRng::split"
            }
            Rule::UnorderedIteration => {
                "unordered container in simulation state; iteration order is \
                 nondeterministic — use BTreeMap/BTreeSet, or allow if never iterated"
            }
            Rule::PanicInLib => {
                "panic path in library code; return Result, or document the invariant \
                 with expect + an allow"
            }
            Rule::WalExpectConfined => {
                "fatal WAL expect outside lobster::db; crash-on-append-failure is the \
                 journal layer's contract — other layers must return Result"
            }
            Rule::JournalCoverage => {
                "journaled LobsterDb state mutated outside the apply replay path; \
                 route the mutation through a Record, or allow with the invariant"
            }
            Rule::FloatOrder => {
                "order-sensitive float accumulation from a source without proven \
                 order; iterate an ordered container, or allow naming the source"
            }
            Rule::SharedMutInSim => {
                "shared-mutability primitive in simulation model code; model state \
                 must stay Send-clean for the parallel engine — use plain ownership"
            }
            Rule::WildcardEventMatch => {
                "catch-all arm in a match over the event enum; enumerate every \
                 variant so new event kinds fail closed at compile time"
            }
        }
    }

    /// The long-form rationale shown by `--explain <rule>`.
    pub fn explain(self) -> &'static str {
        match self {
            Rule::WallClock => {
                "Simulated components must read time from the engine's clock \
                 (simkit::time::SimTime via Ctx::now()), never from \
                 std::time::{SystemTime, Instant}. A wall-clock read makes a run's \
                 behaviour depend on host speed and scheduling, so the same seed \
                 stops producing the same figure. The real threaded execution \
                 backend (wqueue::local) is the one sanctioned exception and \
                 carries a file-level allow."
            }
            Rule::AmbientRng => {
                "All randomness flows from an explicit u64 seed through \
                 simkit::rng::SimRng; streams are derived with SimRng::split. \
                 thread_rng(), from_entropy(), and StdRng::seed_from_u64 outside \
                 the rng module pull entropy the seed does not control, which \
                 makes runs unreproducible by construction."
            }
            Rule::UnorderedIteration => {
                "HashMap/HashSet iteration order depends on a per-process random \
                 hasher. Any simulation state held in a hash container can leak \
                 that nondeterminism into event ordering, reports, or logs. Sim \
                 state uses BTreeMap/BTreeSet; a hash container that is only ever \
                 membership-tested may stay, with an allow saying so."
            }
            Rule::PanicInLib => {
                "Library crates return Result. A bare .unwrap() hides the failure \
                 mode; .expect(...) with a documented invariant plus an allow \
                 marker (or a baseline entry) is the sanctioned form when the \
                 invariant genuinely cannot fail. panic! in a library is reserved \
                 for unreachable states."
            }
            Rule::WalExpectConfined => {
                "Crash-on-append-failure is the journal layer's contract: if the \
                 WAL cannot be written, lobster::db halts the process rather than \
                 diverge from its own journal. That idiom — .expect(\"journal \
                 ...\") and friends — must not leak into other layers, which are \
                 required to surface I/O errors as Result."
            }
            Rule::JournalCoverage => {
                "LobsterDb's crash-consistency guarantee is that WAL replay \
                 reconstructs the database exactly — 'replay is authoritative'. \
                 That only holds if every mutation of journaled state routes \
                 through the single apply(Record) mutator. This rule rebuilds the \
                 discipline statically: it computes the call-graph subtree rooted \
                 at apply, takes the fields that subtree writes as the journaled \
                 set, and flags any other &mut self method that writes one of \
                 those fields or calls into the subtree. Sanctioned wrappers (the \
                 log-then-apply path, the in-memory fast path, diagnostic-only \
                 counters) carry inline allows naming their invariant."
            }
            Rule::FloatOrder => {
                "Float addition is not associative, so the value of a .sum() or a \
                 += accumulation depends on iteration order. Cross-backend trace \
                 identity (tests/engine_diff.rs) requires every float reduction \
                 to have a proven order. Ranges (0..n) prove themselves; anything \
                 else — Vec, VecDeque, a const table — needs an allow naming the \
                 ordered source, which is the attestation this rule exists to \
                 collect. Reductions over hash containers are never allowable; \
                 restructure them onto ordered state instead."
            }
            Rule::SharedMutInSim => {
                "The parallel discrete-event engine (ROADMAP item 2) shards model \
                 state across threads, so model types must be Send and free of \
                 interior mutability. Rc, RefCell, Cell, static mut, and \
                 thread_local! each either break Send or smuggle hidden write \
                 channels that the engine cannot schedule deterministically. \
                 Keeping the sim crates clean now means the parallel engine \
                 starts from a provably shardable model layer."
            }
            Rule::WildcardEventMatch => {
                "A match over the event enum with a catch-all arm silently drops \
                 every event kind added later — the compiler cannot flag the \
                 omission. Enumerating all variants makes a new Ev variant a \
                 compile error at every dispatch site, which is exactly the \
                 fail-closed behaviour a growing event vocabulary needs."
            }
        }
    }
}

/// Crates whose library code is simulation state / simulation logic.
const SIM_CRATES: [&str; 10] = [
    "simkit",
    "simnet",
    "batchsim",
    "wqueue",
    "cvmfssim",
    "gridstore",
    "lobster",
    "opsplane",
    "scenario",
    "tenancy",
];

/// One lint violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Which rule fired.
    pub rule: Rule,
    /// Repo-relative path with forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based column (in characters).
    pub col: usize,
    /// The trimmed source line (hashes into the baseline key).
    pub content: String,
    /// Whether the baseline covers this finding.
    pub baselined: bool,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: {}: {}",
            self.file,
            self.line,
            self.col,
            self.rule.name(),
            self.rule.message()
        )
    }
}

/// What kind of failure a [`LintError`] is — drives the CLI exit code.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// Bad command line (exit 2).
    Usage,
    /// I/O failure or unparseable input — source or baseline (exit 3).
    Data,
}

/// Linter failure.
#[derive(Debug)]
pub struct LintError {
    /// Failure class.
    pub kind: ErrorKind,
    /// Human-readable description.
    pub msg: String,
}

impl LintError {
    /// A command-line usage error.
    pub fn usage(msg: impl Into<String>) -> Self {
        LintError {
            kind: ErrorKind::Usage,
            msg: msg.into(),
        }
    }

    /// An I/O or malformed-input error.
    pub fn data(msg: impl Into<String>) -> Self {
        LintError {
            kind: ErrorKind::Data,
            msg: msg.into(),
        }
    }
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "simlint: {}", self.msg)
    }
}

impl std::error::Error for LintError {}

impl From<io::Error> for LintError {
    fn from(e: io::Error) -> Self {
        LintError::data(e.to_string())
    }
}

// ---- allow markers ---------------------------------------------------------

/// Allow markers found in one comment token.
#[derive(Default, Clone)]
struct CommentAllows {
    line_rules: Vec<Rule>,
    file_rules: Vec<Rule>,
}

/// Parse `simlint::allow(<rule>): <reason>` / `simlint::allow-file(...)`
/// markers from a comment's text. Malformed markers — an unknown rule name
/// or a missing reason — suppress nothing.
fn parse_allows(comment: &str) -> CommentAllows {
    let mut allows = CommentAllows::default();
    let mut rest = comment;
    while let Some(pos) = rest.find("simlint::allow") {
        rest = &rest[pos + "simlint::allow".len()..];
        let file_scope = rest.starts_with("-file");
        let after = if file_scope {
            &rest["-file".len()..]
        } else {
            rest
        };
        let Some(open) = after.strip_prefix('(') else {
            continue;
        };
        let Some(close) = open.find(')') else {
            continue;
        };
        let rule_name = open[..close].trim();
        let tail = &open[close + 1..];
        let has_reason = tail
            .trim_start()
            .strip_prefix(':')
            .is_some_and(|r| !r.trim().is_empty());
        if !has_reason {
            continue;
        }
        if let Some(rule) = Rule::from_name(rule_name) {
            if file_scope {
                allows.file_rules.push(rule);
            } else {
                allows.line_rules.push(rule);
            }
        }
        rest = tail;
    }
    allows
}

/// The allow state of one file: file-wide rules plus `(rule, line)` pairs.
/// A marker suppresses its rule on the comment's last line and the line
/// after it — i.e. on the same line as the offence or the line above.
struct Allows {
    file_rules: Vec<Rule>,
    lines: BTreeSet<(Rule, usize)>,
}

fn collect_allows(tokens: &[Token]) -> Allows {
    let mut file_rules = Vec::new();
    let mut lines = BTreeSet::new();
    for tok in tokens {
        if tok.kind != TokKind::Comment {
            continue;
        }
        let parsed = parse_allows(&tok.text);
        file_rules.extend(parsed.file_rules);
        let end_line = tok.span.line as usize + tok.text.matches('\n').count();
        for rule in parsed.line_rules {
            lines.insert((rule, end_line));
            lines.insert((rule, end_line + 1));
        }
    }
    Allows { file_rules, lines }
}

// ---- test-code boundary ----------------------------------------------------

/// The line of the first `#[cfg(test)]` outer attribute, if any. By
/// workspace convention test modules sit at the end of a file; everything
/// at or after the marker is test code. Matched on tokens, so strings and
/// comments can never fake (or hide) the boundary. `#[cfg(not(test))]`
/// and `#[cfg_attr(test, …)]` do not match.
fn test_boundary_line(tokens: &[Token]) -> Option<usize> {
    let code: Vec<&Token> = tokens
        .iter()
        .filter(|t| t.kind != TokKind::Comment)
        .collect();
    code.windows(5).find_map(|w| {
        let shape = w[0].text == "#"
            && w[1].kind == TokKind::Open(Delim::Bracket)
            && w[2].text == "cfg"
            && w[3].kind == TokKind::Open(Delim::Paren)
            && w[4].text == "test";
        shape.then_some(w[0].span.line as usize)
    })
}

// ---- per-file linting ------------------------------------------------------

/// Which rules apply to a library file at `rel_path` (repo-relative).
fn applicable_rules(rel_path: &str) -> Vec<Rule> {
    let crate_name = rel_path
        .strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("");
    let is_sim_crate = SIM_CRATES.contains(&crate_name);
    let mut rules = Vec::new();
    if is_sim_crate {
        rules.push(Rule::WallClock);
    }
    if rel_path != "crates/simkit/src/rng.rs" {
        rules.push(Rule::AmbientRng);
    }
    if is_sim_crate {
        rules.push(Rule::UnorderedIteration);
    }
    rules.push(Rule::PanicInLib);
    if !rel_path.starts_with("crates/lobster/src/db/") {
        rules.push(Rule::WalExpectConfined);
    }
    if crate_name == "lobster" {
        rules.push(Rule::JournalCoverage);
    }
    if is_sim_crate {
        rules.push(Rule::FloatOrder);
        rules.push(Rule::SharedMutInSim);
        rules.push(Rule::WildcardEventMatch);
    }
    rules
}

/// Lint one file's source. `rel_path` determines rule scoping; findings
/// suppressed by allow markers or the `#[cfg(test)]` trailer are omitted.
/// Fails (does not panic) on source with unbalanced delimiters.
pub fn lint_source(rel_path: &str, source: &str) -> Result<Vec<Finding>, LintError> {
    let active = applicable_rules(rel_path);
    let tokens = lexer::lex(source);
    let allows = collect_allows(&tokens);
    let test_line = test_boundary_line(&tokens);
    let forest =
        tree::build(&tokens).map_err(|e| LintError::data(format!("{rel_path}: {}", e.msg)))?;

    let mut hits = rules::scan_patterns(&forest, &active);
    if active.contains(&Rule::FloatOrder) {
        hits.extend(rules::scan_float_order(&forest));
    }
    if active.contains(&Rule::WildcardEventMatch) {
        hits.extend(rules::scan_wildcard_event(&forest));
    }
    if active.contains(&Rule::JournalCoverage) {
        hits.extend(journal::scan_journal_coverage(&forest));
    }

    let raw_lines: Vec<&str> = source.lines().collect();
    let mut findings: Vec<Finding> = hits
        .into_iter()
        .filter(|h| {
            let line = h.span.line as usize;
            if test_line.is_some_and(|t| line >= t) {
                return false;
            }
            if allows.file_rules.contains(&h.rule) {
                return false;
            }
            !allows.lines.contains(&(h.rule, line))
        })
        .map(|h| Finding {
            rule: h.rule,
            file: rel_path.to_string(),
            line: h.span.line as usize,
            col: h.span.col as usize,
            content: raw_lines
                .get(h.span.line as usize - 1)
                .map(|l| l.trim())
                .unwrap_or("")
                .to_string(),
            baselined: false,
        })
        .collect();
    findings.sort_by_key(|f| (f.line, f.col, f.rule));
    findings.dedup();
    Ok(findings)
}

// ---- workspace walking -----------------------------------------------------

/// Is this repo-relative path library code in scope for linting?
fn in_scope(rel: &str) -> bool {
    rel.starts_with("crates/")
        && rel.ends_with(".rs")
        && rel.contains("/src/")
        && !rel.contains("/bin/")
        && !rel.contains("/fixtures/")
        && !rel.ends_with("/main.rs")
}

fn walk_dir(dir: &Path, files: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            walk_dir(&path, files)?;
        } else {
            files.push(path);
        }
    }
    Ok(())
}

/// Every file under `<root>/crates` whose `/`-joined repo-relative path
/// passes `keep`, sorted.
fn files_where(root: &Path, keep: fn(&str) -> bool) -> io::Result<Vec<(String, PathBuf)>> {
    let mut all = Vec::new();
    walk_dir(&root.join("crates"), &mut all)?;
    let mut files: Vec<(String, PathBuf)> = all
        .into_iter()
        .filter_map(|path| {
            let rel = path
                .strip_prefix(root)
                .ok()?
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            keep(&rel).then_some((rel, path))
        })
        .collect();
    files.sort();
    Ok(files)
}

/// All in-scope library files under `<root>/crates`, sorted.
pub fn collect_files(root: &Path) -> Result<Vec<(String, PathBuf)>, LintError> {
    Ok(files_where(root, in_scope)?)
}

/// Lint the whole workspace under `root`. Findings are sorted by
/// `(file, line, col, rule)` and not yet baseline-marked.
pub fn lint_workspace(root: &Path) -> Result<Vec<Finding>, LintError> {
    let mut findings = Vec::new();
    for (rel, path) in collect_files(root)? {
        let source = fs::read_to_string(&path)
            .map_err(|e| LintError::data(format!("reading {rel}: {e}")))?;
        findings.extend(lint_source(&rel, &source)?);
    }
    findings
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    Ok(findings)
}

// ---- code size ---------------------------------------------------------------

/// Lines of `source` before its first `#[cfg(test)]` — all of them when
/// it has none.
fn count_non_test_lines(source: &str) -> usize {
    source
        .lines()
        .take_while(|l| !l.trim_start().starts_with("#[cfg(test)]"))
        .count()
}

/// Non-test lines of every `crates/*/src/**/*.rs` file under `root` (bin
/// targets included), sorted by path.
pub fn non_test_lines(root: &Path) -> Result<Vec<(String, usize)>, LintError> {
    let crate_src = |rel: &str| rel.ends_with(".rs") && rel.split('/').nth(2) == Some("src");
    files_where(root, crate_src)?
        .into_iter()
        .map(|(rel, path)| {
            let source = fs::read_to_string(&path)
                .map_err(|e| LintError::data(format!("reading {rel}: {e}")))?;
            Ok((rel, count_non_test_lines(&source)))
        })
        .collect()
}

// ---- baseline --------------------------------------------------------------

/// FNV-1a 64-bit — the workspace's standard content hash.
fn fnv1a64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Baseline key: `(rule-name, file, content-hash, occurrence-index)`.
/// The occurrence index counts identical `(rule, file, hash)` findings in
/// file order, so N identical lines produce N distinct keys — removing
/// one of them un-baselines exactly one finding.
pub type Baseline = BTreeSet<(String, String, u64, usize)>;

/// Assign each finding its occurrence index: findings must already be in
/// workspace order (`lint_workspace` order). Returns keys parallel to
/// `findings`.
fn occurrence_keys(findings: &[Finding]) -> Vec<(String, String, u64, usize)> {
    let mut counts: std::collections::BTreeMap<(String, String, u64), usize> =
        std::collections::BTreeMap::new();
    findings
        .iter()
        .map(|f| {
            let base = (
                f.rule.name().to_string(),
                f.file.clone(),
                fnv1a64(&f.content),
            );
            let occ = counts.entry(base.clone()).or_insert(0);
            let key = (base.0, base.1, base.2, *occ);
            *occ += 1;
            key
        })
        .collect()
}

/// Parse a baseline file. Format (v2, tab-separated):
/// `rule<TAB>file<TAB><16-hex-hash>#<occurrence><TAB>content`.
/// Blank lines and `#` comments are skipped. v1 three-field lines are
/// rejected with a pointer to `--write-baseline`.
pub fn parse_baseline(text: &str) -> Result<Baseline, LintError> {
    let mut baseline = Baseline::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.splitn(4, '\t').collect();
        let bad = |why: &str| LintError::data(format!("baseline line {}: {}", idx + 1, why));
        if fields.len() == 3 {
            return Err(bad("v1 (rule, file, content) key — regenerate with \
                 `cargo run -p simlint -- --write-baseline`"));
        }
        let [rule, file, key, content] = fields[..] else {
            return Err(bad("expected rule<TAB>file<TAB>hash#occ<TAB>content"));
        };
        if Rule::from_name(rule).is_none() {
            return Err(bad(&format!("unknown rule `{rule}`")));
        }
        let Some((hash_hex, occ_str)) = key.split_once('#') else {
            return Err(bad("key is not <hash>#<occurrence>"));
        };
        let Ok(hash) = u64::from_str_radix(hash_hex, 16) else {
            return Err(bad("hash is not 16 hex digits"));
        };
        let Ok(occ) = occ_str.parse::<usize>() else {
            return Err(bad("occurrence index is not a number"));
        };
        if fnv1a64(content) != hash {
            return Err(bad("content does not match its hash — hand-edited?"));
        }
        baseline.insert((rule.to_string(), file.to_string(), hash, occ));
    }
    Ok(baseline)
}

/// Render findings as a baseline file (sorted, one entry per occurrence).
pub fn render_baseline(findings: &[Finding]) -> String {
    let keys = occurrence_keys(findings);
    let mut lines: Vec<String> = findings
        .iter()
        .zip(&keys)
        .map(|(f, (rule, file, hash, occ))| {
            format!("{rule}\t{file}\t{hash:016x}#{occ}\t{}", f.content)
        })
        .collect();
    lines.sort();
    let mut out = String::from(
        "# simlint baseline — accepted findings, keyed on\n\
         # (rule, file, fnv1a64(content), occurrence-index).\n\
         # v2 format: the content hash keeps keys stable under line drift; the\n\
         # occurrence index keeps identical lines from aliasing (v1 collapsed\n\
         # duplicates to one key). v1 three-field files no longer parse.\n\
         # Regenerate with: cargo run -p simlint -- --write-baseline\n",
    );
    for l in &lines {
        out.push_str(l);
        out.push('\n');
    }
    out
}

/// Mark findings covered by the baseline. Findings must be in workspace
/// order so occurrence indexes line up with `render_baseline`'s.
pub fn apply_baseline(findings: &mut [Finding], baseline: &Baseline) {
    let keys = occurrence_keys(findings);
    for (f, key) in findings.iter_mut().zip(&keys) {
        if baseline.contains(key) {
            f.baselined = true;
        }
    }
}

// ---- output ----------------------------------------------------------------

/// Escape a string for JSON output.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Render findings as a JSON report object (`--format json`), closed by
/// the non-test line counts from [`non_test_lines`] and their total.
pub fn render_json(findings: &[Finding], non_test: &[(String, usize)]) -> String {
    let items: Vec<String> = findings
        .iter()
        .map(|f| {
            format!(
                "  {{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"col\":{},\
                 \"content\":\"{}\",\"message\":\"{}\",\"baselined\":{}}}",
                f.rule.name(),
                json_escape(&f.file),
                f.line,
                f.col,
                json_escape(&f.content),
                json_escape(f.rule.message()),
                f.baselined
            )
        })
        .collect();
    let fresh = findings.iter().filter(|f| !f.baselined).count();
    let files: Vec<String> = non_test
        .iter()
        .map(|(file, lines)| format!("  {{\"file\":\"{}\",\"lines\":{lines}}}", json_escape(file)))
        .collect();
    let total: usize = non_test.iter().map(|f| f.1).sum();
    format!(
        "{{\"schema\":\"simlint/2\",\"findings\":[\n{}\n],\
         \"summary\":{{\"new\":{},\"baselined\":{}}},\
         \"non_test_lines\":{{\"total\":{total},\"files\":[\n{}\n]}}}}\n",
        items.join(",\n"),
        fresh,
        findings.len() - fresh,
        files.join(",\n")
    )
}

/// Render the human report: one `file:line:col: rule: message` per
/// non-baselined finding, then a per-rule summary.
pub fn render_human(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings.iter().filter(|f| !f.baselined) {
        out.push_str(&f.to_string());
        out.push('\n');
    }
    let mut fresh = std::collections::BTreeMap::new();
    let mut base = std::collections::BTreeMap::new();
    for f in findings {
        *if f.baselined { &mut base } else { &mut fresh }
            .entry(f.rule.name())
            .or_insert(0) += 1;
    }
    out.push_str("simlint summary:\n");
    for rule in Rule::ALL {
        out.push_str(&format!(
            "  {:<24} {:>4} new {:>4} baselined\n",
            rule.name(),
            fresh.get(rule.name()).copied().unwrap_or(0),
            base.get(rule.name()).copied().unwrap_or(0),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_ok(rel: &str, src: &str) -> Vec<Finding> {
        lint_source(rel, src).expect("source parses")
    }

    fn rules_hit(rel: &str, src: &str) -> Vec<Rule> {
        let mut rules: Vec<Rule> = lint_ok(rel, src).into_iter().map(|f| f.rule).collect();
        rules.dedup();
        rules
    }

    // ---- fixtures: each trips exactly its own rule ----

    #[test]
    fn fixture_wall_clock() {
        let src = include_str!("../fixtures/wall_clock.rs");
        assert_eq!(
            rules_hit("crates/simkit/src/fixture.rs", src),
            vec![Rule::WallClock]
        );
    }

    #[test]
    fn fixture_ambient_rng() {
        let src = include_str!("../fixtures/ambient_rng.rs");
        assert_eq!(
            rules_hit("crates/simkit/src/fixture.rs", src),
            vec![Rule::AmbientRng]
        );
    }

    #[test]
    fn fixture_unordered_iteration() {
        let src = include_str!("../fixtures/unordered_iteration.rs");
        assert_eq!(
            rules_hit("crates/simkit/src/fixture.rs", src),
            vec![Rule::UnorderedIteration]
        );
    }

    #[test]
    fn fixture_panic_in_lib() {
        let src = include_str!("../fixtures/panic_in_lib.rs");
        assert_eq!(
            rules_hit("crates/simkit/src/fixture.rs", src),
            vec![Rule::PanicInLib]
        );
    }

    #[test]
    fn fixture_wal_expect() {
        let src = include_str!("../fixtures/wal_expect.rs");
        assert_eq!(
            rules_hit("crates/simkit/src/fixture.rs", src),
            vec![Rule::WalExpectConfined]
        );
    }

    #[test]
    fn fixture_allowed_is_clean() {
        let src = include_str!("../fixtures/allowed.rs");
        assert_eq!(lint_ok("crates/simkit/src/fixture.rs", src), vec![]);
    }

    #[test]
    fn fixture_journal_coverage_pair() {
        let clean = include_str!("../fixtures/journal_coverage_clean.rs");
        assert_eq!(rules_hit("crates/lobster/src/db/mod.rs", clean), vec![]);
        let bad = include_str!("../fixtures/journal_coverage_violating.rs");
        let findings = lint_ok("crates/lobster/src/db/mod.rs", bad);
        let jc: Vec<&Finding> = findings
            .iter()
            .filter(|f| f.rule == Rule::JournalCoverage)
            .collect();
        // One direct field write, one unsanctioned call into the subtree.
        assert_eq!(jc.len(), 2);
    }

    #[test]
    fn fixture_float_order_pair() {
        let clean = include_str!("../fixtures/float_order_clean.rs");
        assert_eq!(rules_hit("crates/simkit/src/fixture.rs", clean), vec![]);
        let bad = include_str!("../fixtures/float_order_violating.rs");
        assert_eq!(
            rules_hit("crates/simkit/src/fixture.rs", bad),
            vec![Rule::FloatOrder]
        );
    }

    #[test]
    fn fixture_shared_mut_pair() {
        let clean = include_str!("../fixtures/shared_mut_clean.rs");
        assert_eq!(rules_hit("crates/simkit/src/fixture.rs", clean), vec![]);
        let bad = include_str!("../fixtures/shared_mut_violating.rs");
        assert_eq!(
            rules_hit("crates/simkit/src/fixture.rs", bad),
            vec![Rule::SharedMutInSim]
        );
    }

    #[test]
    fn fixture_wildcard_event_pair() {
        let clean = include_str!("../fixtures/wildcard_event_clean.rs");
        assert_eq!(rules_hit("crates/simkit/src/fixture.rs", clean), vec![]);
        let bad = include_str!("../fixtures/wildcard_event_violating.rs");
        assert_eq!(
            rules_hit("crates/simkit/src/fixture.rs", bad),
            vec![Rule::WildcardEventMatch]
        );
    }

    // ---- the acceptance check: a seeded LobsterDb bypass is caught ----

    #[test]
    fn journal_coverage_catches_seeded_bypass_in_real_db() {
        let real = include_str!("../../lobster/src/db/mod.rs");
        // The real journal layer is clean: every sanctioned exception
        // carries an inline allow.
        let findings = lint_ok("crates/lobster/src/db/mod.rs", real);
        assert!(
            findings.iter().all(|f| f.rule != Rule::JournalCoverage),
            "unexpected journal-coverage findings in db.rs: {:?}",
            findings
                .iter()
                .filter(|f| f.rule == Rule::JournalCoverage)
                .collect::<Vec<_>>()
        );
        // Seed a mutation that bypasses apply, spliced in before the test
        // trailer so it counts as library code.
        let marker = "#[cfg(test)]";
        let pos = real.find(marker).expect("db.rs has a test trailer");
        let seeded = format!(
            "{}impl LobsterDb {{\n    pub fn sneak_done(&mut self, id: TaskId) {{\n        \
             self.done_order.push(id);\n    }}\n}}\n\n{}",
            &real[..pos],
            &real[pos..]
        );
        let findings = lint_ok("crates/lobster/src/db/mod.rs", &seeded);
        assert!(
            findings.iter().any(|f| f.rule == Rule::JournalCoverage
                && (f.content.contains("sneak") || f.content.contains("done_order"))),
            "seeded bypass was not caught"
        );
    }

    // ---- scoping ----

    #[test]
    fn wall_clock_only_in_sim_crates() {
        let src = "fn f() { let t = Instant::now(); }\n";
        assert_eq!(rules_hit("crates/simlint/src/x.rs", src), vec![]);
        assert_eq!(
            rules_hit("crates/wqueue/src/x.rs", src),
            vec![Rule::WallClock]
        );
    }

    #[test]
    fn rng_module_is_exempt_from_rng_rule() {
        let src = "fn f() { let r = thread_rng(); }\n";
        assert_eq!(rules_hit("crates/simkit/src/rng.rs", src), vec![]);
        assert_eq!(
            rules_hit("crates/simkit/src/engine.rs", src),
            vec![Rule::AmbientRng]
        );
    }

    #[test]
    fn new_rules_scoped_to_sim_crates() {
        let src = "fn f() { let c = RefCell::new(0u32); }\n";
        assert_eq!(rules_hit("crates/simlint/src/x.rs", src), vec![]);
        assert_eq!(rules_hit("crates/bench/src/x.rs", src), vec![]);
        assert_eq!(
            rules_hit("crates/simkit/src/x.rs", src),
            vec![Rule::SharedMutInSim]
        );
    }

    #[test]
    fn journal_rule_dormant_outside_db_impls() {
        // lobster files without an `impl LobsterDb` are untouched.
        let src = "pub fn helper(db: &mut LobsterDb) { db.tick(); }\n";
        assert_eq!(rules_hit("crates/lobster/src/driver.rs", src), vec![]);
    }

    #[test]
    fn wal_expects_confined_to_db() {
        let src = include_str!("../fixtures/wal_expect.rs");
        // The journal layer itself owns the idiom…
        assert_eq!(rules_hit("crates/lobster/src/db/mod.rs", src), vec![]);
        // …every other library file trips the rule.
        assert_eq!(
            rules_hit("crates/lobster/src/driver.rs", src),
            vec![Rule::WalExpectConfined]
        );
        // A comment mentioning the idiom next to an unrelated expect does
        // not trip it.
        let src = "// .expect(\"journal write\") is db-only\n\
                   // simlint::allow(no-panic-in-lib): fixture\n\
                   let x = y.expect(\"present\");\n";
        assert_eq!(rules_hit("crates/lobster/src/driver.rs", src), vec![]);
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n fn f() { x.unwrap(); }\n}\n";
        assert_eq!(rules_hit("crates/simkit/src/x.rs", src), vec![]);
        // `#[cfg(not(test))]` is not a test boundary.
        let src = "#[cfg(not(test))]\nfn f() { x.unwrap(); }\n";
        assert_eq!(
            rules_hit("crates/simkit/src/x.rs", src),
            vec![Rule::PanicInLib]
        );
    }

    #[test]
    fn scope_filter() {
        assert!(in_scope("crates/simkit/src/engine.rs"));
        assert!(!in_scope("crates/simkit/src/main.rs"));
        assert!(!in_scope("crates/bench/src/bin/fig9.rs"));
        assert!(!in_scope("crates/simlint/fixtures/wall_clock.rs"));
        assert!(!in_scope("crates/simkit/tests/proptests.rs"));
        assert!(!in_scope("vendor/serde/src/lib.rs"));
    }

    // ---- lexical details ----

    #[test]
    fn spans_carry_columns() {
        let f = lint_ok("crates/simkit/src/x.rs", "fn f() {     x.unwrap(); }\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 1);
        assert_eq!(f[0].col, 15); // the `.` of `.unwrap()`
    }

    #[test]
    fn strings_and_comments_do_not_trip() {
        let src = "// HashMap in a comment\nfn f() { let s = \"Instant::now\"; }\n\
                   /* panic! in\n a block comment */\n";
        assert_eq!(rules_hit("crates/simkit/src/x.rs", src), vec![]);
        // Raw strings too — a v1 `strip_noise` blind spot.
        let src = "fn f() -> &'static str { r#\"x.unwrap() panic!\"# }\n";
        assert_eq!(rules_hit("crates/simkit/src/x.rs", src), vec![]);
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* outer /* panic! */ still comment .unwrap() */ fn f() {}\n";
        assert_eq!(rules_hit("crates/simkit/src/x.rs", src), vec![]);
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let src = "fn f<'a>(x: &'a str) -> char { '\"' }\n";
        assert_eq!(rules_hit("crates/simkit/src/x.rs", src), vec![]);
    }

    #[test]
    fn unwrap_ident_prefix_does_not_trip() {
        let src = "fn unwrap_all() { let x = unwrap_or(0); }\n";
        assert_eq!(rules_hit("crates/simkit/src/x.rs", src), vec![]);
    }

    #[test]
    fn unbalanced_source_is_an_error() {
        let e = lint_source("crates/simkit/src/x.rs", "fn f() {").unwrap_err();
        assert_eq!(e.kind, ErrorKind::Data);
    }

    // ---- allow markers ----

    #[test]
    fn allow_requires_reason() {
        let src = "x.unwrap(); // simlint::allow(no-panic-in-lib)\n";
        assert_eq!(
            rules_hit("crates/simkit/src/x.rs", src),
            vec![Rule::PanicInLib]
        );
        let src = "x.unwrap(); // simlint::allow(no-panic-in-lib): init-only\n";
        assert_eq!(rules_hit("crates/simkit/src/x.rs", src), vec![]);
    }

    #[test]
    fn allow_on_line_above() {
        let src = "// simlint::allow(no-panic-in-lib): invariant documented\nx.unwrap();\n";
        assert_eq!(rules_hit("crates/simkit/src/x.rs", src), vec![]);
    }

    #[test]
    fn allow_wrong_rule_does_not_suppress() {
        let src = "x.unwrap(); // simlint::allow(no-wall-clock): wrong rule\n";
        assert_eq!(
            rules_hit("crates/simkit/src/x.rs", src),
            vec![Rule::PanicInLib]
        );
    }

    #[test]
    fn allow_file_suppresses_everywhere() {
        let src = "// simlint::allow-file(no-wall-clock): real-time harness\n\
                   fn a() -> Instant { Instant::now() }\n\
                   fn b() -> Instant { Instant::now() }\n";
        assert_eq!(rules_hit("crates/wqueue/src/x.rs", src), vec![]);
    }

    #[test]
    fn allow_knows_new_rule_names() {
        let src = "// simlint::allow(no-float-order): VecDeque window, insertion-ordered\n\
                   let t: f64 = self.window.iter().map(|w| *w).sum();\n";
        assert_eq!(rules_hit("crates/lobster/src/x.rs", src), vec![]);
    }

    // ---- baseline ----

    #[test]
    fn baseline_roundtrip() {
        let src = "fn f() { a.unwrap(); }\nfn g() { b.unwrap(); }\n";
        let mut findings = lint_ok("crates/simkit/src/x.rs", src);
        assert_eq!(findings.len(), 2);
        let rendered = render_baseline(&findings);
        let parsed = parse_baseline(&rendered).expect("round-trips");
        apply_baseline(&mut findings, &parsed);
        assert!(findings.iter().all(|f| f.baselined));
    }

    #[test]
    fn baseline_duplicate_lines_do_not_alias() {
        // Three identical violating lines: v1 collapsed them to one key,
        // silently baselining all three. v2 keys each occurrence.
        let src = "a.unwrap();\na.unwrap();\na.unwrap();\n";
        let mut findings = lint_ok("crates/simkit/src/x.rs", src);
        assert_eq!(findings.len(), 3);
        let full = render_baseline(&findings);
        // Keep occurrences 0 and 1; drop 2.
        let partial: String = full
            .lines()
            .filter(|l| !l.contains("#2\t"))
            .map(|l| format!("{l}\n"))
            .collect();
        let baseline = parse_baseline(&partial).expect("parses");
        apply_baseline(&mut findings, &baseline);
        assert_eq!(findings.iter().filter(|f| f.baselined).count(), 2);
        assert_eq!(findings.iter().filter(|f| !f.baselined).count(), 1);
    }

    #[test]
    fn baseline_rejects_garbage_and_v1() {
        assert!(parse_baseline("not a baseline line").is_err());
        // v1 three-field format gets a migration pointer.
        let e = parse_baseline("no-panic-in-lib\tf.rs\tcontent").unwrap_err();
        assert!(e.msg.contains("--write-baseline"));
        assert!(parse_baseline("no-such-rule\tf.rs\t0#0\tx").is_err());
        // A tampered hash is rejected.
        let e =
            parse_baseline("no-panic-in-lib\tf.rs\t0000000000000000#0\tx.unwrap();").unwrap_err();
        assert!(e.msg.contains("hash"));
        assert!(parse_baseline("# comment\n\n").unwrap().is_empty());
    }

    // ---- output ----

    #[test]
    fn json_output_is_wellformed() {
        let findings = lint_ok(
            "crates/simkit/src/x.rs",
            "fn f(m: &HashMap<u64, u64>) { g(\"x\"); }\n",
        );
        let lines = [
            ("crates/a/src/lib.rs".to_string(), 30),
            ("crates/b/src/x.rs".to_string(), 12),
        ];
        let json = render_json(&findings, &lines);
        assert!(json.starts_with("{\"schema\":\"simlint/2\""));
        assert!(json.contains("\"rule\":\"no-unordered-iteration\""));
        assert!(json.contains("\"line\":1"));
        assert!(json.contains("\"col\":"));
        assert!(json.contains("\"summary\":{\"new\":1,\"baselined\":0}"));
        assert!(json.contains("\"non_test_lines\":{\"total\":42,"));
        assert!(json.contains("{\"file\":\"crates/b/src/x.rs\",\"lines\":12}"));
        assert!(json.ends_with("]}}\n"));
    }

    #[test]
    fn non_test_lines_stop_at_the_test_module() {
        assert_eq!(count_non_test_lines(""), 0);
        assert_eq!(count_non_test_lines("fn a() {}\nfn b() {}\n"), 2);
        let src = "fn a() {}\n\n#[cfg(test)]\nmod tests {}\n#[cfg(test)]\n";
        assert_eq!(count_non_test_lines(src), 2);
        assert_eq!(count_non_test_lines("    #[cfg(test)]\nfn a() {}\n"), 0);
    }

    #[test]
    fn human_output_has_location_and_summary() {
        let findings = lint_ok(
            "crates/simkit/src/x.rs",
            "fn f() { let t = Instant::now(); }\n",
        );
        let human = render_human(&findings);
        assert!(human.contains("crates/simkit/src/x.rs:1:18: no-wall-clock:"));
        assert!(human.contains("simlint summary:"));
        assert!(human.contains("journal-coverage"));
    }

    #[test]
    fn explain_covers_every_rule() {
        for rule in Rule::ALL {
            assert!(
                rule.explain().len() > 80,
                "{} explain too thin",
                rule.name()
            );
        }
    }
}
