//! Runs one workload for a time budget and turns its samples into
//! metrics.
//!
//! A run is a sequence of iterations of the whole workload. Each
//! iteration sets the simulation up from the seed, runs it from its first
//! event to the harvested report and emitted `lobster-metrics/v1` JSON,
//! then checks the outcome (untimed). An untraced run gives the
//! end-to-end metrics; a traced run alternates untraced and traced
//! iterations, so its tracing overhead compares iterations that ran side
//! by side. Every deterministic count of every iteration must equal the
//! first iteration's; a difference fails the iteration.

use crate::alloc::Peak;
use crate::trace::{self, fnv_bytes, run_leg, LayerStats, Leg, Traced, FNV_BASIS, KINDS};
use crate::workloads::{self, Inputs, Size, Workload};
use lobster::config::LobsterConfig;
use lobster::driver::{ClusterSim, SimParams};
use lobster::{LobsterDb, RunReport};
use simkit::{EngineKind, SimDuration};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use tenancy::MultiTenant;
use wqueue::task::Category;

/// Before each iteration, set-ups are timed on their own (built and
/// dropped) until this much time has passed, at least one. Spread over
/// the whole run like the iterations, they see the same host conditions,
/// and `setup_s` is a median of many samples whether one set-up takes
/// 0.3 ms or 50 ms.
const SETUP_SLICE_S: f64 = 0.025;
/// Untraced iterations a run makes at least, however short `seconds`.
const MIN_ITERATIONS: usize = 3;
/// Contended fair-share runs must keep Jain's index at or above this.
const JAIN_FLOOR: f64 = 0.9;
/// Digests are cut to 52 bits so they survive a JSON reader that parses
/// every number as a double.
const DIGEST_MASK: u64 = (1 << 52) - 1;

/// What to run.
#[derive(Clone, Debug)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Directory for journals; created and removed by [`run`].
    pub scratch: PathBuf,
}

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run reports.
#[derive(Debug)]
pub struct Outcome {
    /// Iterations run (untraced and traced).
    pub attempted: u64,
    /// Iterations that failed any correctness check.
    pub failed: u64,
    /// The end-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Every deterministic count, as the first iteration gave it.
    pub counts: BTreeMap<String, f64>,
    /// Untraced and traced iterations, and set-up samples.
    pub iterations: (usize, usize, usize),
    /// `tasklets_per_sec` of each untraced iteration, in run order.
    pub rates: Vec<f64>,
    /// Every failed check, with the iteration it failed in.
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Host-time spans of one iteration, in seconds. Zero where the workload
/// has no such phase.
#[derive(Clone, Copy, Debug, Default)]
struct Spans {
    setup: f64,
    /// First event to emitted JSON: the `tasklets_per_sec` window.
    window: f64,
    /// Inside engine loops (`MultiTenant::run` for tenants).
    engine: f64,
    crash: f64,
    resume: f64,
    harvest: f64,
    snapshot: f64,
    encode: f64,
    recover: f64,
    durable_leg: f64,
    memory_leg: f64,
}

#[derive(Debug, Default)]
struct Sample {
    traced: bool,
    tasklets: u64,
    spans: Spans,
    /// Deterministic facts of the iteration (all integers, or exact).
    counts: BTreeMap<String, f64>,
    layers: Option<LayerStats>,
    failures: Vec<String>,
}

impl Sample {
    fn count(&mut self, name: &str, value: f64) {
        self.counts.insert(name.to_string(), value);
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Once-per-process facts about the uninterrupted analysis run.
struct Reference {
    /// Crash the durable run after this many events: half the run.
    crash_after: u64,
    merged_bytes: u64,
    dead_letter_free: bool,
}

/// A workload set up and ready for its first event.
enum Prepared {
    Single {
        cfg: LobsterConfig,
        params: SimParams,
        total: u64,
        sim: ClusterSim,
    },
    Durable {
        resume: Inputs,
        dir: PathBuf,
        sim: ClusterSim,
    },
    Tenants {
        mt: MultiTenant,
        /// Per tenant: total tasklets and output bytes per tasklet.
        shape: Vec<(u64, u64)>,
    },
}

struct Bench {
    opts: Options,
    reference: Option<Reference>,
    next_dir: usize,
}

/// Run `opts.workload` for `opts.seconds` and report.
pub fn run(opts: &Options) -> Outcome {
    let mut failures = Vec::new();
    if let Err(e) = std::fs::create_dir_all(&opts.scratch) {
        failures.push(format!("scratch dir {}: {e}", opts.scratch.display()));
    }
    let mut bench = Bench {
        opts: opts.clone(),
        reference: None,
        next_dir: 0,
    };
    if opts.workload == Workload::AnalysisDurable {
        match bench.reference() {
            Ok(r) => bench.reference = Some(r),
            Err(e) => failures.push(format!("reference run: {e}")),
        }
    }

    let mut setups = Vec::new();
    let mut samples: Vec<Sample> = Vec::new();
    if failures.is_empty() {
        let started = Instant::now();
        loop {
            let slice = Instant::now();
            while setups.is_empty() || slice.elapsed().as_secs_f64() < SETUP_SLICE_S {
                let t = Instant::now();
                match bench.prepare() {
                    Ok(p) => {
                        setups.push(t.elapsed().as_secs_f64());
                        bench.discard(p);
                    }
                    Err(e) => {
                        failures.push(format!("set-up: {e}"));
                        break;
                    }
                }
            }
            samples.push(bench.iterate(false));
            if opts.trace {
                samples.push(bench.iterate(true));
            }
            let untraced = samples.iter().filter(|s| !s.traced).count();
            if untraced >= MIN_ITERATIONS && started.elapsed().as_secs_f64() >= opts.seconds {
                break;
            }
        }
    }
    let _ = std::fs::remove_dir_all(&opts.scratch);

    // A count that differs between iterations of one seed is a benchmark
    // error, not noise; traced and untraced iterations share every count
    // both report, `sim.outcome_digest` included.
    let mut counts: BTreeMap<String, f64> = BTreeMap::new();
    for (i, s) in samples.iter_mut().enumerate() {
        for (k, v) in &s.counts {
            match counts.get(k) {
                Some(first) if first != v => s
                    .failures
                    .push(format!("{k} = {v}, but the first iteration gave {first}")),
                Some(_) => {}
                None => {
                    counts.insert(k.clone(), *v);
                }
            }
        }
        for f in &s.failures {
            failures.push(format!("iteration {i}: {f}"));
        }
    }
    for f in &failures {
        eprintln!("perfbench: check failed: {f}");
    }
    setups.extend(samples.iter().map(|s| s.spans.setup).filter(|&t| t > 0.0));
    let untraced: Vec<&Sample> = samples.iter().filter(|s| !s.traced).collect();
    let traced: Vec<&Sample> = samples.iter().filter(|s| s.traced).collect();
    let metrics = if samples.is_empty() {
        Vec::new()
    } else if opts.trace {
        layer_metrics(&untraced, &traced, &counts)
    } else {
        end_to_end_metrics(&untraced, &setups, &counts)
    };
    // A run that failed before its first iteration still attempted one.
    let failed = samples.iter().filter(|s| !s.failures.is_empty()).count();
    Outcome {
        attempted: samples.len().max(1) as u64,
        failed: if samples.is_empty() { 1 } else { failed as u64 },
        metrics,
        counts,
        iterations: (untraced.len(), traced.len(), setups.len()),
        rates: untraced.iter().map(|s| rate(s)).collect(),
        failures,
    }
}

impl Bench {
    fn iterate(&mut self, traced: bool) -> Sample {
        let peak = Peak::start();
        let started = Instant::now();
        let prepared = match self.prepare() {
            Ok(p) => p,
            Err(e) => {
                return Sample {
                    traced,
                    failures: vec![format!("set-up: {e}")],
                    ..Sample::default()
                }
            }
        };
        let setup = started.elapsed().as_secs_f64();
        let mut s = Sample {
            traced,
            ..Sample::default()
        };
        match prepared {
            Prepared::Single {
                cfg,
                params,
                total,
                sim,
            } => self.single(&mut s, &peak, cfg, params, total, sim),
            Prepared::Durable { resume, dir, sim } => {
                if let Err(e) = self.durable(&mut s, &peak, resume, &dir, sim) {
                    s.failures.push(format!("durable run: {e}"));
                }
                let _ = std::fs::remove_dir_all(&dir);
            }
            Prepared::Tenants { mt, shape } => self.tenants(&mut s, &peak, mt, &shape),
        }
        s.spans.setup = setup;
        if traced {
            // The wrapper's own allocations would count against the peak.
            s.counts.remove("peak_alloc_bytes");
        }
        s
    }

    /// Generate the inputs from the seed and construct the simulation(s).
    fn prepare(&mut self) -> Result<Prepared, String> {
        let Options { seed, size, .. } = self.opts;
        match self.opts.workload {
            Workload::Scale20k => {
                let (cfg, params, wfs) =
                    workloads::scale(seed, size.scale_cores, size.tasklets_per_core);
                let total = wfs.iter().map(|w| w.n_tasklets()).sum();
                let sim = ClusterSim::new(cfg.clone(), params.clone(), wfs);
                Ok(Prepared::Single {
                    cfg,
                    params,
                    total,
                    sim,
                })
            }
            Workload::AnalysisDurable => {
                let (cfg, params, wfs) = workloads::analysis(seed, size.analysis_cores);
                let resume = (cfg.clone(), params.clone(), wfs.clone());
                let dir = self
                    .opts
                    .scratch
                    .join(format!("journal-{:06}", self.next_dir));
                self.next_dir += 1;
                let sim = ClusterSim::durable(cfg, params, wfs, &dir)
                    .map_err(|e| format!("open journal {}: {e}", dir.display()))?;
                Ok(Prepared::Durable { resume, dir, sim })
            }
            Workload::Tenants100 => {
                let (coordinator, roster) =
                    workloads::tenants(seed, size.tenants, size.tasklets_per_tenant);
                let shape = roster
                    .iter()
                    .map(|t| {
                        let total = t.workflows.iter().map(|w| w.n_tasklets()).sum();
                        (total, t.cfg.workflows[0].output_bytes_per_tasklet)
                    })
                    .collect();
                let mt = MultiTenant::new(coordinator, roster).map_err(|e| e.to_string())?;
                Ok(Prepared::Tenants { mt, shape })
            }
        }
    }

    fn discard(&self, p: Prepared) {
        if let Prepared::Durable { dir, sim, .. } = p {
            drop(sim);
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    /// The in-memory `scale_20k` campaign.
    fn single(
        &self,
        s: &mut Sample,
        peak: &Peak,
        cfg: LobsterConfig,
        params: SimParams,
        total: u64,
        sim: ClusterSim,
    ) {
        let started = Instant::now();
        let mut leg = drive(sim, s.traced, params.engine, params.horizon, None);
        s.spans.engine = leg.wall_s;
        let events = leg.delivered;
        let wan = leg.wan_bytes;
        let layers = leg.stats.take();
        let (report, json) = harvest(leg, self.opts.workload.name(), &cfg, &params, &mut s.spans);
        s.spans.window = started.elapsed().as_secs_f64();
        s.count("peak_alloc_bytes", peak.bytes() as f64);
        s.layers = layers;
        s.count("events", events as f64);
        report_counts(s, &report, &json, wan);
        check_drained(s, &report, params.horizon);
        s.tasklets = conserved_tasklets(s, &report, total, bytes_per_tasklet(&cfg));
    }

    /// `analysis_durable`: journal, crash at half the run, resume from
    /// disk, finish; then audit the journal cold.
    fn durable(
        &self,
        s: &mut Sample,
        peak: &Peak,
        resume: Inputs,
        dir: &Path,
        sim: ClusterSim,
    ) -> Result<(), String> {
        let reference = self.reference.as_ref().ok_or("no reference run")?;
        let (cfg, params, wfs) = resume;
        let (engine, horizon) = (params.engine, params.horizon);
        let total: u64 = wfs.iter().map(|w| w.n_tasklets()).sum();

        let started = Instant::now();
        let mut first = drive(sim, s.traced, engine, horizon, Some(reference.crash_after));
        let (first_wall, first_events) = (first.wall_s, first.delivered);
        let mut layers = first.stats.take();
        let (first_stream, first_state) = (layers.as_ref().map(|l| l.digest), first.state_digest);
        let cut = first.cut;
        let wan_first = first.wan_bytes;
        let t = Instant::now();
        first.sim.crash_now();
        s.spans.crash = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let sim = ClusterSim::resume(cfg.clone(), params.clone(), wfs.clone(), dir)
            .map_err(|e| format!("resume: {e}"))?;
        s.spans.resume = t.elapsed().as_secs_f64();
        let second = drive(sim, s.traced, engine, horizon, None);
        s.spans.engine = first_wall + second.wall_s;
        let events = first_events + second.delivered;
        let wan = wan_first + second.wan_bytes;
        if let (Some(l), Some(more)) = (&mut layers, &second.stats) {
            l.absorb(more);
        }
        let (report, json) = harvest(
            second,
            self.opts.workload.name(),
            &cfg,
            &params,
            &mut s.spans,
        );
        s.spans.window = started.elapsed().as_secs_f64();
        s.count("peak_alloc_bytes", peak.bytes() as f64);
        s.layers = layers;

        s.check(cut, || {
            format!("run drained before the crash point ({first_events} events)")
        });
        s.count("events", events as f64);
        s.count("crash_after_events", first_events as f64);
        report_counts(s, &report, &json, wan);
        check_drained(s, &report, horizon);
        let journal = lobster::db::journal_bytes(dir).map_err(|e| format!("journal size: {e}"))?;
        s.count("journal_bytes", journal as f64);

        // Cold audit of the final journal.
        let t = Instant::now();
        let db = LobsterDb::recover(dir).map_err(|e| format!("cold recover: {e}"))?;
        s.spans.recover = t.elapsed().as_secs_f64();
        let mut done = 0;
        for wf in &wfs {
            let (d, dead, all) = (
                db.done_tasklets(&wf.name),
                db.dead_tasklets(&wf.name),
                db.total_tasklets(&wf.name),
            );
            s.check(d + dead == all && all == wf.n_tasklets(), || {
                format!(
                    "{}: done {d} + dead {dead} != total {}",
                    wf.name,
                    wf.n_tasklets()
                )
            });
            done += d;
        }
        s.check(db.running_tasks().is_empty(), || {
            format!("{} task(s) in flight after drain", db.running_tasks().len())
        });
        let c = db.counters();
        let agree = (
            c.tasks_completed,
            c.tasks_failed,
            c.evictions,
            c.merges_completed,
        ) == (
            report.tasks_completed,
            report.tasks_failed,
            report.evictions,
            report.merges_completed,
        ) && db.merged_files() == report.merged_files;
        s.check(agree, || {
            format!("cold recover disagrees with the report: {c:?}")
        });
        let merged: u64 = report.merged_files.iter().map(|m| m.1).sum();
        if report.dead_letters.is_empty() && reference.dead_letter_free {
            s.check(merged == reference.merged_bytes, || {
                format!(
                    "merged {merged} B, the uninterrupted run merged {} B",
                    reference.merged_bytes
                )
            });
        }
        let merged_done = conserved_tasklets(s, &report, total, bytes_per_tasklet(&cfg));
        s.check(done == merged_done, || {
            format!("journal holds {done} done tasklets, the merged files {merged_done}")
        });
        s.tasklets = done;

        if s.traced {
            // The same seed in memory, stopped at the same event: the
            // journal's cost is the difference in engine time. Identical
            // event streams and master state prove the journal did not
            // perturb the run.
            let sim = ClusterSim::new(cfg, params, wfs);
            let mem = drive(sim, true, engine, horizon, Some(first_events));
            s.spans.durable_leg = first_wall;
            s.spans.memory_leg = mem.wall_s;
            let same = mem.stats.as_ref().map(|l| l.digest) == first_stream
                && mem.state_digest == first_state
                && mem.delivered == first_events;
            s.check(same, || {
                "in-memory and durable runs differ before the crash point".to_string()
            });
        }
        Ok(())
    }

    /// `tenants_100`: the coordinated multi-master run.
    fn tenants(&self, s: &mut Sample, peak: &Peak, mt: MultiTenant, shape: &[(u64, u64)]) {
        let started = Instant::now();
        let report = match mt.run() {
            Ok(r) => r,
            Err(e) => {
                s.failures.push(format!("multi-tenant run: {e}"));
                return;
            }
        };
        s.spans.engine = started.elapsed().as_secs_f64();
        let t = Instant::now();
        let json = report.federated.to_json();
        s.spans.encode = t.elapsed().as_secs_f64();
        s.spans.window = started.elapsed().as_secs_f64();
        s.count("peak_alloc_bytes", peak.bytes() as f64);

        let mut sim = BTreeMap::<&str, u64>::new();
        let mut events = 0;
        let mut traces = FNV_BASIS;
        let mut digest = fnv_bytes(FNV_BASIS, json.as_bytes());
        s.check(report.tenants.len() == shape.len(), || {
            format!(
                "{} of {} tenants reported",
                report.tenants.len(),
                shape.len()
            )
        });
        for (t, &(total, bpt)) in report.tenants.iter().zip(shape) {
            let r = &t.report;
            events += r.events_delivered;
            traces = trace::mix(traces, t.trace_digest);
            digest = merged_digest(digest, r);
            for (k, v) in sim_counts(r, t.wan_by_dataset.values().sum()) {
                *sim.entry(k).or_default() += v;
            }
            if r.finished_at.is_none() {
                s.failures
                    .push(format!("{} did not drain before its horizon", t.name));
            }
            let done = conserved_tasklets(s, r, total, bpt);
            s.tasklets += done;
        }
        for (k, v) in sim {
            s.count(k, v as f64);
        }
        s.count("sim.outcome_digest", (digest & DIGEST_MASK) as f64);
        s.count("tenancy.trace_digest", (traces & DIGEST_MASK) as f64);
        s.count("tenancy.rounds", report.rounds as f64);
        s.count("tenancy.events", events as f64);
        s.count("jain_fairness", report.jain_fairness);
        s.count("ops.json_bytes", json.len() as f64);
        s.check(report.jain_fairness >= JAIN_FLOOR, || {
            format!("Jain index {} < {JAIN_FLOOR}", report.jain_fairness)
        });

        if s.traced {
            // MultiTenant::run lowers each tenant's report itself; time the
            // same lowering again from outside so the ops layer shows.
            let (_, roster) = workloads::tenants(
                self.opts.seed,
                shape.len(),
                self.opts.size.tasklets_per_tenant,
            );
            let t = Instant::now();
            for (spec, o) in roster.iter().zip(&report.tenants) {
                let snap =
                    lobster::ops::snapshot_from_run(&spec.name, &spec.cfg, &spec.params, &o.report);
                std::hint::black_box(snap);
            }
            s.spans.snapshot = t.elapsed().as_secs_f64();
        }
    }

    /// The uninterrupted same-seed analysis run, in memory: its length
    /// places the crash point and its merged bytes are what the resumed
    /// run must reproduce.
    fn reference(&self) -> Result<Reference, String> {
        let (cfg, params, wfs) = workloads::analysis(self.opts.seed, self.opts.size.analysis_cores);
        let (engine, horizon) = (params.engine, params.horizon);
        let leg = drive(
            ClusterSim::new(cfg, params, wfs),
            false,
            engine,
            horizon,
            None,
        );
        let report = leg.into_report();
        if report.finished_at.is_none() {
            return Err("the uninterrupted run did not drain".into());
        }
        Ok(Reference {
            crash_after: report.events_delivered / 2,
            merged_bytes: report.merged_files.iter().map(|m| m.1).sum(),
            dead_letter_free: report.dead_letters.is_empty(),
        })
    }
}

/// One engine leg, traced or not.
fn drive(
    sim: ClusterSim,
    traced: bool,
    engine: EngineKind,
    horizon: SimDuration,
    max_events: Option<u64>,
) -> Leg {
    if traced {
        let model = Traced {
            sim,
            stats: LayerStats::default(),
        };
        run_leg(model, engine, horizon, max_events)
    } else {
        run_leg(sim, engine, horizon, max_events)
    }
}

/// Harvest the report and emit its `lobster-metrics/v1` JSON.
fn harvest(
    leg: Leg,
    name: &str,
    cfg: &LobsterConfig,
    params: &SimParams,
    spans: &mut Spans,
) -> (RunReport, String) {
    let t = Instant::now();
    let report = leg.into_report();
    spans.harvest = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let snap = lobster::ops::snapshot_from_run(name, cfg, params, &report);
    spans.snapshot = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let json = snap.to_json();
    spans.encode = t.elapsed().as_secs_f64();
    (report, json)
}

fn bytes_per_tasklet(cfg: &LobsterConfig) -> u64 {
    cfg.workflows[0].output_bytes_per_tasklet
}

fn sim_counts(r: &RunReport, wan: u64) -> [(&'static str, u64); 6] {
    [
        ("sim.tasks_completed", r.tasks_completed),
        ("sim.tasks_failed", r.tasks_failed),
        ("sim.evictions", r.evictions),
        ("sim.merges_completed", r.merges_completed),
        ("sim.dead_letters", r.dead_letters.len() as u64),
        ("sim.wan_bytes", wan),
    ]
}

fn merged_digest(mut h: u64, r: &RunReport) -> u64 {
    for (name, bytes) in &r.merged_files {
        h = trace::mix(fnv_bytes(h, name.as_bytes()), *bytes);
    }
    h
}

fn report_counts(s: &mut Sample, r: &RunReport, json: &str, wan: u64) {
    for (k, v) in sim_counts(r, wan) {
        s.count(k, v as f64);
    }
    let digest = merged_digest(fnv_bytes(FNV_BASIS, json.as_bytes()), r);
    s.count("sim.outcome_digest", (digest & DIGEST_MASK) as f64);
    s.count("ops.json_bytes", json.len() as f64);
}

fn check_drained(s: &mut Sample, r: &RunReport, horizon: SimDuration) {
    let end = simkit::SimTime::ZERO + horizon;
    s.check(r.finished_at.is_some_and(|t| t < end), || {
        format!(
            "run did not drain before its {}h horizon",
            horizon.as_secs_f64() / 3600.0
        )
    });
}

/// Tasklet conservation for one master with one workflow: every done
/// tasklet's output sits in exactly one merged file, so merged bytes over
/// bytes per tasklet plus dead-lettered tasklets must equal the total.
/// Returns the done tasklets.
fn conserved_tasklets(s: &mut Sample, r: &RunReport, total: u64, bpt: u64) -> u64 {
    let merged: u64 = r.merged_files.iter().map(|m| m.1).sum();
    let mut dead = 0;
    for d in &r.dead_letters {
        if d.category == Category::Merge {
            s.failures
                .push("a merge was dead-lettered, so merged bytes undercount done work".into());
        } else {
            dead += d.units;
        }
    }
    let done = merged / bpt;
    s.check(merged.is_multiple_of(bpt) && done + dead == total, || {
        format!("done {done} (merged {merged} B) + dead {dead} != total {total}")
    });
    total.saturating_sub(dead)
}

fn rate(s: &Sample) -> f64 {
    if s.spans.window > 0.0 {
        s.tasklets as f64 / s.spans.window
    } else {
        0.0
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

fn end_to_end_metrics(
    untraced: &[&Sample],
    setups: &[f64],
    counts: &BTreeMap<String, f64>,
) -> Vec<Metric> {
    // The run's throughput: every measured window together. On a shared
    // host whose speed shifts between levels for tens of seconds, this
    // weighs each level by the time spent in it, where a median of
    // iterations jumps between levels from run to run.
    let tasklets: u64 = untraced.iter().map(|s| s.tasklets).sum();
    let window: f64 = untraced.iter().map(|s| s.spans.window).sum();
    vec![
        metric("setup_s", median(setups.to_vec()), "s"),
        metric("tasklets_per_sec", tasklets as f64 / window, "1/s"),
        metric(
            "peak_alloc_bytes",
            counts.get("peak_alloc_bytes").copied().unwrap_or(0.0),
            "bytes",
        ),
    ]
}

fn layer_metrics(
    untraced: &[&Sample],
    traced: &[&Sample],
    counts: &BTreeMap<String, f64>,
) -> Vec<Metric> {
    let med = |f: &dyn Fn(&Sample) -> f64| median(traced.iter().map(|s| f(s)).collect());
    let count = |k: &str| counts.get(k).copied().unwrap_or(0.0);
    let mut out = Vec::new();

    // simkit engine and lobster::driver handlers, from the wrapper.
    let mut events = [0u64; 20];
    let mut ns = [0u64; 20];
    let mut window_ns = 0.0;
    for s in traced {
        window_ns += s.spans.window * 1e9;
        if let Some(l) = &s.layers {
            for k in 0..KINDS.len() {
                events[k] += l.events[k];
                ns[k] += l.ns[k];
            }
        }
    }
    let first = traced.iter().find_map(|s| s.layers.as_ref());
    let first_events = first.map_or(0, |l| l.total_events());
    out.push(metric("engine.events", first_events as f64, "count"));
    out.push(metric(
        "engine.pending_hwm",
        first.map_or(0, |l| l.pending_hwm) as f64,
        "count",
    ));
    out.push(metric(
        "engine.tombstones_hwm",
        first.map_or(0, |l| l.tombstones_hwm) as f64,
        "count",
    ));
    out.push(metric(
        "engine.queue_ns_per_event",
        med(&|s| match &s.layers {
            Some(l) if l.total_events() > 0 => {
                (s.spans.engine * 1e9 - l.total_ns() as f64) / l.total_events() as f64
            }
            _ => 0.0,
        }),
        "ns",
    ));
    for (k, kind) in KINDS.iter().enumerate() {
        let per_run = first.map_or(0, |l| l.events[k]);
        let per_event = if events[k] > 0 {
            ns[k] as f64 / events[k] as f64
        } else {
            0.0
        };
        let share = if window_ns > 0.0 {
            ns[k] as f64 / window_ns
        } else {
            0.0
        };
        out.push(metric(
            format!("handler.{kind}.events"),
            per_run as f64,
            "count",
        ));
        out.push(metric(
            format!("handler.{kind}.ns_per_event"),
            per_event,
            "ns",
        ));
        out.push(metric(format!("handler.{kind}.share"), share, "ratio"));
    }

    // lobster::db journal.
    out.push(metric(
        "db.journal_s",
        med(&|s| s.spans.durable_leg - s.spans.memory_leg),
        "s",
    ));
    out.push(metric(
        "db.journal_share",
        med(&|s| {
            if s.spans.durable_leg > 0.0 {
                (s.spans.durable_leg - s.spans.memory_leg) / s.spans.durable_leg
            } else {
                0.0
            }
        }),
        "ratio",
    ));
    out.push(metric(
        "db.durable_leg_s",
        med(&|s| s.spans.durable_leg),
        "s",
    ));
    out.push(metric("db.memory_leg_s", med(&|s| s.spans.memory_leg), "s"));
    out.push(metric("db.recover_s", med(&|s| s.spans.recover), "s"));
    let tasks = count("sim.tasks_completed");
    out.push(metric(
        "db.journal_bytes_per_task",
        if tasks > 0.0 {
            count("journal_bytes") / tasks
        } else {
            0.0
        },
        "bytes",
    ));
    out.push(metric("journal_bytes", count("journal_bytes"), "bytes"));
    out.push(metric(
        "resume_s",
        median(untraced.iter().map(|s| s.spans.resume).collect()),
        "s",
    ));

    // lobster::ops / opsplane.
    out.push(metric("ops.snapshot_s", med(&|s| s.spans.snapshot), "s"));
    out.push(metric("ops.encode_s", med(&|s| s.spans.encode), "s"));
    out.push(metric("ops.json_bytes", count("ops.json_bytes"), "bytes"));

    // tenancy.
    let rounds = count("tenancy.rounds");
    out.push(metric("tenancy.rounds", rounds, "count"));
    out.push(metric(
        "tenancy.ns_per_round",
        if rounds > 0.0 {
            med(&|s| s.spans.engine) * 1e9 / rounds
        } else {
            0.0
        },
        "ns",
    ));
    out.push(metric("tenancy.events", count("tenancy.events"), "count"));
    out.push(metric("jain_fairness", count("jain_fairness"), "ratio"));

    // Domain counts: identical for any speed-only change.
    for k in [
        "sim.tasks_completed",
        "sim.tasks_failed",
        "sim.evictions",
        "sim.merges_completed",
        "sim.dead_letters",
        "sim.wan_bytes",
    ] {
        out.push(metric(k, count(k), "count"));
    }
    out.push(metric(
        "sim.outcome_digest",
        count("sim.outcome_digest"),
        "hash",
    ));

    // Coarse spans of the traced iterations, and the tracing overhead.
    out.push(metric("span.setup_s", med(&|s| s.spans.setup), "s"));
    out.push(metric("span.run_s", med(&|s| s.spans.engine), "s"));
    out.push(metric("span.crash_s", med(&|s| s.spans.crash), "s"));
    out.push(metric("span.harvest_s", med(&|s| s.spans.harvest), "s"));
    let plain = median(untraced.iter().map(|s| s.spans.window).collect());
    out.push(metric(
        "trace.overhead",
        med(&|s| s.spans.window) / plain - 1.0,
        "ratio",
    ));
    out
}
