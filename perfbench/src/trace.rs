//! The traced run: a benchmark-side [`Model`] around [`ClusterSim`].
//!
//! [`Traced`] forwards every event to the simulator unchanged and, around
//! each `handle` call, records the handler's self time and count by
//! [`Ev`] kind, the engine's pending and tombstone high-water marks, and a
//! digest of the delivered event stream. Aggregates stay in memory until
//! the run reports. The untraced run drives [`ClusterSim`] directly, so
//! the difference in wall time between the two is the tracing overhead.

use lobster::driver::{ClusterSim, Ev};
use lobster::RunReport;
use simkit::{Ctx, Engine, Model, SimDuration, SimTime};
use std::time::Instant;

/// Every [`Ev`] kind, in declaration order; [`fold_event`] maps an event
/// to its index here.
pub const KINDS: [&str; 20] = [
    "Start",
    "PoolTick",
    "Replenish",
    "WorkerArrive",
    "WorkerEvict",
    "Dispatch",
    "SandboxDone",
    "SandboxBatch",
    "SquidWake",
    "FedWake",
    "OutageWake",
    "FaultWake",
    "DataStaged",
    "ExecDone",
    "StageOutDone",
    "CollectDone",
    "HadoopGroupDone",
    "SlotFree",
    "Deadline",
    "Requeue",
];

/// FNV-1a step over one 64-bit word.
pub fn mix(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(0x0000_0100_0000_01b3)
}

/// FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over bytes.
pub fn fnv_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fold one delivered event (its instant, kind and payload) into the
/// stream digest `h`; returns the kind index and the new digest.
fn fold_event(h: u64, now: SimTime, ev: &Ev) -> (usize, u64) {
    let task = |h: u64, id: &wqueue::task::TaskId, w: u64| mix(mix(h, id.0), w);
    let h = mix(h, now.as_micros());
    let (kind, h) = match ev {
        Ev::Start => (0, h),
        Ev::PoolTick => (1, h),
        Ev::Replenish => (2, h),
        Ev::WorkerArrive => (3, h),
        Ev::WorkerEvict(w) => (4, mix(h, *w)),
        Ev::Dispatch => (5, h),
        Ev::SandboxDone(id, a) => (6, task(h, id, u64::from(*a))),
        Ev::SandboxBatch(batch) => (
            7,
            batch
                .iter()
                .fold(h, |h, (id, a)| task(h, id, u64::from(*a))),
        ),
        Ev::SquidWake(s) => (8, mix(h, *s as u64)),
        Ev::FedWake => (9, h),
        Ev::OutageWake => (10, h),
        Ev::FaultWake => (11, h),
        Ev::DataStaged(id, a) => (12, task(h, id, u64::from(*a))),
        Ev::ExecDone(id, a) => (13, task(h, id, u64::from(*a))),
        Ev::StageOutDone(id, a) => (14, task(h, id, u64::from(*a))),
        Ev::CollectDone(id, a) => (15, task(h, id, u64::from(*a))),
        Ev::HadoopGroupDone(g) => (16, mix(h, *g as u64)),
        Ev::SlotFree(w) => (17, mix(h, *w)),
        Ev::Deadline(id, seq) => (18, task(h, id, *seq)),
        Ev::Requeue(id) => (19, mix(h, id.0)),
    };
    (kind, mix(h, kind as u64))
}

/// Per-kind handler counts and self time, queue high-water marks and the
/// event-stream digest of one traced engine leg (or several, merged).
#[derive(Clone, Debug)]
pub struct LayerStats {
    pub events: [u64; 20],
    pub ns: [u64; 20],
    pub pending_hwm: u64,
    pub tombstones_hwm: u64,
    pub digest: u64,
}

impl Default for LayerStats {
    fn default() -> Self {
        LayerStats {
            events: [0; 20],
            ns: [0; 20],
            pending_hwm: 0,
            tombstones_hwm: 0,
            digest: FNV_BASIS,
        }
    }
}

impl LayerStats {
    /// Fold a later leg of the same run into this one. The digest chains,
    /// so it still identifies the whole ordered event stream.
    pub fn absorb(&mut self, later: &LayerStats) {
        for k in 0..KINDS.len() {
            self.events[k] += later.events[k];
            self.ns[k] += later.ns[k];
        }
        self.pending_hwm = self.pending_hwm.max(later.pending_hwm);
        self.tombstones_hwm = self.tombstones_hwm.max(later.tombstones_hwm);
        self.digest = mix(self.digest, later.digest);
    }

    pub fn total_events(&self) -> u64 {
        self.events.iter().sum()
    }

    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }
}

/// [`ClusterSim`] with every `handle` call timed and counted.
pub struct Traced {
    pub sim: ClusterSim,
    pub stats: LayerStats,
}

impl Model for Traced {
    type Event = Ev;

    fn handle(&mut self, ev: Ev, ctx: &mut Ctx<Ev>) {
        let (kind, digest) = fold_event(self.stats.digest, ctx.now(), &ev);
        let started = Instant::now();
        self.sim.handle(ev, ctx);
        let ns = started.elapsed().as_nanos() as u64;
        let s = &mut self.stats;
        s.digest = digest;
        s.events[kind] += 1;
        s.ns[kind] += ns;
        s.pending_hwm = s.pending_hwm.max(ctx.pending() as u64);
        s.tombstones_hwm = s.tombstones_hwm.max(ctx.tombstones() as u64);
    }
}

/// A model the benchmark can drive: the bare simulator (untraced) or the
/// traced wrapper. Generic so the untraced path compiles to the plain
/// `Engine<ClusterSim>` with nothing in between.
pub trait Driven: Model<Event = Ev> + Sized {
    fn sim(&self) -> &ClusterSim;
    fn into_parts(self) -> (ClusterSim, Option<LayerStats>);
}

impl Driven for ClusterSim {
    fn sim(&self) -> &ClusterSim {
        self
    }
    fn into_parts(self) -> (ClusterSim, Option<LayerStats>) {
        (self, None)
    }
}

impl Driven for Traced {
    fn sim(&self) -> &ClusterSim {
        &self.sim
    }
    fn into_parts(self) -> (ClusterSim, Option<LayerStats>) {
        (self.sim, Some(self.stats))
    }
}

/// The end state of one engine leg.
pub struct Leg {
    pub sim: ClusterSim,
    pub stats: Option<LayerStats>,
    /// Host seconds inside the engine loop.
    pub wall_s: f64,
    pub delivered: u64,
    pub now: SimTime,
    /// Whether events were still due inside the horizon when the leg
    /// stopped (a crash point, not quiescence, ended it).
    pub cut: bool,
    /// WAN bytes the leg's master pulled, over all datasets.
    pub wan_bytes: u64,
    /// Digest of the master's externally visible state at the stop.
    pub state_digest: u64,
}

impl Leg {
    /// Harvest the report, as the driver's own run loop does.
    pub fn into_report(self) -> RunReport {
        self.sim.into_report(self.now, self.delivered)
    }
}

/// Start `model` at time zero and run it to `horizon`, or until
/// `max_events` events have been delivered.
pub fn run_leg<M: Driven>(
    model: M,
    engine: simkit::EngineKind,
    horizon: SimDuration,
    max_events: Option<u64>,
) -> Leg {
    let deadline = SimTime::ZERO + horizon;
    let mut e = Engine::with_kind(model, engine);
    e.prime(SimDuration::ZERO, Ev::Start);
    let started = Instant::now();
    let now = match max_events {
        Some(n) => e.run_until_events(deadline, n),
        None => e.run_until(deadline),
    };
    let wall_s = started.elapsed().as_secs_f64();
    let cut = e.ctx().peek_time().is_some_and(|t| t <= deadline);
    let delivered = e.ctx().delivered();
    let pending = e.ctx().pending() as u64;
    let sim = e.model().sim();
    let wan_bytes = sim.wan_bytes_by_dataset().values().sum();
    let state_digest = state_digest(sim, now, delivered, pending);
    let (sim, stats) = e.into_model().into_parts();
    Leg {
        sim,
        stats,
        wall_s,
        delivered,
        now,
        cut,
        wan_bytes,
        state_digest,
    }
}

fn state_digest(sim: &ClusterSim, now: SimTime, delivered: u64, pending: u64) -> u64 {
    let mut h = FNV_BASIS;
    for w in [
        now.as_micros(),
        delivered,
        pending,
        sim.work_remaining(),
        sim.merge_backlog(),
        u64::from(sim.held_cores()),
        u64::from(sim.is_finished()),
    ] {
        h = mix(h, w);
    }
    for (name, bytes) in sim.wan_bytes_by_dataset() {
        h = mix(fnv_bytes(h, name.as_bytes()), *bytes);
    }
    h
}
