//! Shared experiment scenarios for the figure-reproduction binaries.
//!
//! Each `fig*` binary in `src/bin/` regenerates one table or figure of the
//! paper. The two production scenarios of §6 — the ~10k-core data
//! processing run (Figures 8, 9, 10) and the ~20k-core simulation run
//! (Figure 11) — are defined here once so every figure of the same run is
//! produced from identical inputs. The `bench_*` binaries gate their
//! results against the committed baselines through [`gate`].

pub mod gate;

use batchsim::availability::AvailabilityModel;
use batchsim::pool::PoolConfig;
use cvmfssim::squid::SquidConfig;
use gridstore::dbs::{DatasetSpec, Dbs};
use lobster::config::{LobsterConfig, WorkflowConfig};
use lobster::driver::{ClusterSim, RunReport, Session, SimParams};
use lobster::merge::MergeMode;
use lobster::workflow::Workflow;
use simkit::time::{SimDuration, SimTime};
use simnet::outage::{Outage, OutageSchedule};

/// Scale factor for quick smoke runs (`LOBSTER_SCALE=0.02` etc.). 1.0
/// reproduces the paper-scale runs.
pub fn scale() -> f64 {
    std::env::var("LOBSTER_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}

/// The §6 data-processing scenario: ~10k cores over two days, streaming
/// input over a saturated 10 Gbit/s uplink, with a transient wide-area
/// outage mid-run (the Figure 10 failure burst).
pub fn data_processing_setup(seed: u64) -> (LobsterConfig, SimParams, Vec<Workflow>) {
    let s = scale();
    let mut cfg = LobsterConfig::default();
    cfg.seed = seed;
    cfg.merge = MergeMode::Interleaved;
    cfg.workers.cores_per_worker = 8;
    cfg.workers.target_cores = ((10_000.0 * s) as u32).max(64);
    // Scale the uplink with the fleet so smoke runs keep the same
    // contention shape as the paper-scale run.
    cfg.infra.wan_gbits = 10.0 * s;
    cfg.workflows = vec![WorkflowConfig::analysis("ttbar", "/TTJets/Spring14/AOD")];

    // ≈1 M tasklets × ~100 MB input each ⇒ ~100 TB dataset; 1 M × 10 CPU
    // minutes ≈ 170k CPU hours, the Figure 8 total.
    let n_files = ((100_000.0 * s) as usize).max(200);
    let mut dbs = Dbs::new();
    dbs.generate(
        "/TTJets/Spring14/AOD",
        DatasetSpec {
            n_files,
            // 1.25 GB per 10-tasklet file ⇒ aggregate streaming demand
            // ≈ 1.25× the uplink: just past saturation, which is what
            // caps efficiency near 70% and puts I/O time at ~2/5 of CPU
            // time, as in the paper's Figure 8.
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

    // Transient XrootD outage around hour 17 (the Figure 10 burst).
    let outages = OutageSchedule::new(vec![Outage::brownout(
        SimTime::ZERO + SimDuration::from_hours(17),
        SimTime::ZERO + SimDuration::from_hours(19),
        0.15,
        0.85,
    )]);

    let params = SimParams {
        availability: AvailabilityModel::notre_dame(),
        pool: PoolConfig {
            total_cores: ((24_000.0 * s) as u32).max(128),
            owner_mean: 6_000.0 * s,
            reversion: 0.1,
            noise: 800.0 * s,
            tick: SimDuration::from_mins(5),
        },
        outages,
        horizon: SimDuration::from_hours(48),
        timeline_bin: SimDuration::from_mins(30),
        // Sandbox distribution and result collection through the foreman
        // rank: sized so the WQ stage-in/out shares land near the paper's
        // 6.9 % / 2.8 % of total runtime.
        sandbox_service: SimDuration::from_mins(5),
        wq_collect: SimDuration::from_mins(2),
        foreman_capacity: 300,
        ..SimParams::default()
    };
    (cfg, params, vec![wf])
}

/// The §6 simulation scenario: ~20k cores over eight hours, negligible
/// input (pile-up via Chirp), a deliberately undersized squid tier (one
/// proxy) and a loaded Chirp server — Figure 11's pathologies.
pub fn simulation_setup(seed: u64) -> (LobsterConfig, SimParams, Vec<Workflow>) {
    let s = scale();
    let mut cfg = LobsterConfig::default();
    cfg.seed = seed;
    cfg.merge = MergeMode::Interleaved;
    cfg.workers.cores_per_worker = 8;
    cfg.workers.target_cores = ((20_000.0 * s) as u32).max(64);
    cfg.infra.n_squids = 1; // the paper's squid "had trouble serving"
    cfg.infra.chirp_connections = 48;
    cfg.workflows = vec![WorkflowConfig::simulation("minbias-gen")];

    let n_tasklets = ((400_000.0 * s) as u64).max(2_000);
    // Pile-up overlay staged from local storage per task (§6) — sized so
    // the Chirp server sits right at its capacity and serves finishing
    // waves periodically.
    let wf = Workflow::simulation(&cfg.workflows[0], n_tasklets, 15_000_000);

    let params = SimParams {
        // An overnight burst on a quiet pool: long-lived slots, so task
        // failures are a trickle rather than an eviction storm.
        availability: AvailabilityModel::Mixture {
            short_frac: 0.25,
            short: (4.0, 1.0),
            long: (30.0, 1.2),
        },
        pool: PoolConfig {
            total_cores: ((26_000.0 * s) as u32).max(128),
            owner_mean: 3_000.0 * s,
            reversion: 0.1,
            noise: 500.0 * s,
            tick: SimDuration::from_mins(5),
        },
        outages: OutageSchedule::none(),
        horizon: SimDuration::from_hours(8),
        timeline_bin: SimDuration::from_mins(15),
        // One 2 Gbit/s squid for 20k cores: the cold-cache stampede of
        // ~2500 workers × 1.5 GB floors per-client bandwidth, pushing
        // setup times toward the paper's ~400-minute peak; requests
        // projected past the timeout fail with squid-related codes.
        squid: SquidConfig {
            bandwidth: simnet::units::gbit_per_s(2.0),
            per_client_cap: 1.25e6,
            timeout: SimDuration::from_mins(240),
        },
        ..SimParams::default()
    };
    (cfg, params, vec![wf])
}

/// Run a scenario and return the report.
pub fn run(setup: (LobsterConfig, SimParams, Vec<Workflow>)) -> RunReport {
    let (cfg, params, wfs) = setup;
    Session::new(ClusterSim::new(cfg, params, wfs)).finish()
}

/// Render a series of panel rows as `label: sparkline (max=…)`.
pub fn panel(label: &str, series: &[f64]) -> String {
    let max = series.iter().copied().fold(0.0_f64, f64::max);
    format!(
        "{label:<28} {} (max {max:.1})",
        simkit::plot::sparkline(series)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setups_are_valid() {
        std::env::set_var("LOBSTER_SCALE", "0.01");
        let (cfg, _, wfs) = data_processing_setup(1);
        assert!(cfg.validate().is_empty());
        assert!(wfs[0].n_tasklets() > 0);
        let (cfg2, _, wfs2) = simulation_setup(1);
        assert!(cfg2.validate().is_empty());
        assert!(wfs2[0].n_tasklets() > 0);
        std::env::remove_var("LOBSTER_SCALE");
    }
}
