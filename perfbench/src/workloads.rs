//! The three workload shapes, generated from a seed.
//!
//! Each mirrors an operating point the repository already runs, so the
//! benchmark measures the configurations the paper's claims rest on:
//! `bench_scale`'s 20k-core simulation campaign, the §6 data-processing
//! analysis run of `lobster_bench::data_processing_setup`, and
//! `bench_multitenant`'s 100-master point.

use batchsim::arbiter::ArbiterConfig;
use batchsim::availability::AvailabilityModel;
use batchsim::pool::PoolConfig;
use gridstore::dbs::{DatasetSpec, Dbs};
use lobster::config::{Backoff, LobsterConfig, WorkflowConfig};
use lobster::driver::SimParams;
use lobster::fault::{Fault, FaultPlan, FaultTarget};
use lobster::merge::MergeMode;
use lobster::Workflow;
use simkit::{SimDuration, SimTime};
use simnet::outage::{Outage, OutageSchedule};
use tenancy::{TenancyConfig, TenantSpec};

/// One simulated master's inputs.
pub type Inputs = (LobsterConfig, SimParams, Vec<Workflow>);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Scale20k,
    AnalysisDurable,
    Tenants100,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Scale20k,
        Workload::AnalysisDurable,
        Workload::Tenants100,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Scale20k => "scale_20k",
            Workload::AnalysisDurable => "analysis_durable",
            Workload::Tenants100 => "tenants_100",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed the existing bench binaries use for this shape.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::Scale20k | Workload::AnalysisDurable => 2025,
            Workload::Tenants100 => 4097,
        }
    }
}

/// How big each workload is. [`Size::FULL`] is what the command line
/// runs; [`Size::TOY`] keeps the self-tests fast.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    pub scale_cores: u32,
    pub tasklets_per_core: u64,
    pub analysis_cores: u32,
    pub tenants: usize,
    pub tasklets_per_tenant: u64,
}

impl Size {
    pub const FULL: Size = Size {
        scale_cores: 20_000,
        tasklets_per_core: 50,
        analysis_cores: 2_500,
        tenants: 100,
        tasklets_per_tenant: 1_000,
    };

    pub const TOY: Size = Size {
        scale_cores: 400,
        tasklets_per_core: 5,
        analysis_cores: 100,
        tenants: 4,
        tasklets_per_tenant: 60,
    };
}

/// `bench_scale`'s campaign at `cores`: simulation workflow of
/// `tasklets_per_core` tasklets per core, Notre Dame churn with owner
/// pressure, one squid black-holed during the cold fill and a Chirp
/// brownout mid-run. No WAN input; the db stays in memory.
pub fn scale(seed: u64, cores: u32, tasklets_per_core: u64) -> Inputs {
    let mut cfg = LobsterConfig::default();
    cfg.seed = seed ^ u64::from(cores);
    cfg.merge = MergeMode::Interleaved;
    cfg.workers.cores_per_worker = 8;
    cfg.workers.target_cores = cores;
    cfg.infra.n_squids = (cores / 1_250).max(2);
    cfg.infra.n_foremen = 4;
    cfg.retry.max_attempts = Some(10);
    cfg.retry.deadlines.stage_in = Some(SimDuration::from_mins(30));
    cfg.retry.requeue = Backoff {
        base: SimDuration::from_mins(5),
        factor: 2.0,
        max: SimDuration::from_mins(30),
        jitter: 0.1,
    };
    cfg.workflows = vec![WorkflowConfig::simulation("scale-gen")];
    let wf = Workflow::simulation(
        &cfg.workflows[0],
        u64::from(cores) * tasklets_per_core,
        5_000_000,
    );
    let mins = |m: u64| SimTime::ZERO + SimDuration::from_mins(m);
    let params = SimParams {
        availability: AvailabilityModel::notre_dame(),
        pool: PoolConfig {
            total_cores: cores + cores / 4,
            owner_mean: f64::from(cores) * 0.05,
            reversion: 0.1,
            noise: f64::from(cores) * 0.02,
            tick: SimDuration::from_mins(5),
        },
        horizon: SimDuration::from_hours(96),
        faults: FaultPlan::new(vec![
            Fault::new(
                FaultTarget::Squid { index: 0 },
                OutageSchedule::new(vec![Outage::blackout(mins(30), mins(90))]),
            ),
            Fault::new(
                FaultTarget::Chirp,
                OutageSchedule::new(vec![Outage {
                    start: mins(3 * 60),
                    end: mins(4 * 60),
                    capacity_factor: 0.25,
                    failure_prob: 0.0,
                }]),
            ),
        ]),
        ..SimParams::default()
    };
    (cfg, params, vec![wf])
}

/// The §6 data-processing run scaled to `cores` (the paper ran 10k):
/// XrootD streaming over a just-saturated WAN uplink sized with the
/// fleet, the hour-17 brownout, interleaved merges, and the default
/// journal policy.
pub fn analysis(seed: u64, cores: u32) -> Inputs {
    let s = f64::from(cores) / 10_000.0;
    let mut cfg = LobsterConfig::default();
    cfg.seed = seed;
    cfg.merge = MergeMode::Interleaved;
    cfg.workers.cores_per_worker = 8;
    cfg.workers.target_cores = cores.max(64);
    cfg.infra.wan_gbits = 10.0 * s;
    cfg.workflows = vec![WorkflowConfig::analysis("ttbar", "/TTJets/Spring14/AOD")];
    let mut dbs = Dbs::new();
    dbs.generate(
        "/TTJets/Spring14/AOD",
        DatasetSpec {
            n_files: ((100_000.0 * s) as usize).max(200),
            mean_file_bytes: 1_250_000_000,
            events_per_lumi: 300,
            lumis_per_file: 250,
        },
        seed ^ 0xD5,
    );
    let ds = dbs
        .query("/TTJets/Spring14/AOD")
        .expect("dataset registered above");
    let wf = Workflow::from_dataset(&cfg.workflows[0], ds);
    let hours = |h: u64| SimTime::ZERO + SimDuration::from_hours(h);
    let params = SimParams {
        availability: AvailabilityModel::notre_dame(),
        pool: PoolConfig {
            total_cores: ((24_000.0 * s) as u32).max(128),
            owner_mean: 6_000.0 * s,
            reversion: 0.1,
            noise: 800.0 * s,
            tick: SimDuration::from_mins(5),
        },
        outages: OutageSchedule::new(vec![Outage::brownout(hours(17), hours(19), 0.15, 0.85)]),
        horizon: SimDuration::from_hours(48),
        timeline_bin: SimDuration::from_mins(30),
        sandbox_service: SimDuration::from_mins(5),
        wq_collect: SimDuration::from_mins(2),
        foreman_capacity: 300,
        ..SimParams::default()
    };
    (cfg, params, vec![wf])
}

/// `bench_multitenant`'s shape: `n` equal-weight masters over one shared
/// 1024-core pool, each with a `tasklets` simulation campaign on 64 cores.
pub fn tenants(seed: u64, n: usize, tasklets: u64) -> (TenancyConfig, Vec<TenantSpec>) {
    let coordinator = TenancyConfig {
        pool: PoolConfig {
            total_cores: 1024,
            owner_mean: 64.0,
            reversion: 0.2,
            noise: 16.0,
            tick: SimDuration::from_mins(5),
        },
        round: SimDuration::from_mins(5),
        arbiter: ArbiterConfig::default(),
        horizon: SimDuration::from_hours(96),
        seed,
    };
    let roster = (0..n)
        .map(|i| {
            let mut cfg = LobsterConfig::default();
            cfg.workflows = vec![WorkflowConfig::simulation("mt-gen")];
            cfg.workers.target_cores = 64;
            cfg.workers.cores_per_worker = 4;
            cfg.seed = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let wf = Workflow::simulation(&cfg.workflows[0], tasklets, 0);
            TenantSpec {
                name: format!("tenant-{i:03}"),
                weight: 1.0,
                cfg,
                params: SimParams::default(),
                workflows: vec![wf],
            }
        })
        .collect();
    (coordinator, roster)
}
