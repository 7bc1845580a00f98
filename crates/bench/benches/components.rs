//! Criterion micro-benchmarks for the substrate components.
//!
//! These quantify the costs that make whole-cluster simulation cheap:
//! event-queue throughput, O(log n) fair-link operations, queueing-station
//! offers, the concurrent worker cache, the Map-Reduce engine, and one
//! point of the §4.1 task-size Monte Carlo.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use simkit::prelude::*;

/// Raw engine throughput: schedule/deliver a chain of N events.
fn bench_engine(c: &mut Criterion) {
    struct Chain {
        left: u64,
    }
    impl Model for Chain {
        type Event = ();
        fn handle(&mut self, _ev: (), ctx: &mut Ctx<()>) {
            if self.left > 0 {
                self.left -= 1;
                ctx.schedule(SimDuration::from_micros(1), ());
            }
        }
    }
    c.bench_function("engine/100k_event_chain", |b| {
        b.iter(|| {
            let mut eng = Engine::new(Chain { left: 100_000 });
            eng.prime(SimDuration::ZERO, ());
            black_box(eng.run());
        })
    });
}

/// Fair link: admit/complete churn with many concurrent flows.
fn bench_fair_link(c: &mut Criterion) {
    let mut group = c.benchmark_group("fair_link");
    for &flows in &[100usize, 1_000, 10_000] {
        group.bench_with_input(BenchmarkId::new("churn", flows), &flows, |b, &n| {
            b.iter(|| {
                let mut link = simnet::FairLink::new(1.25e9);
                for i in 0..n {
                    link.admit_flow(SimTime::ZERO, 1_000_000 + i as u64);
                }
                while let Some((when, _)) = link.next_completion() {
                    black_box(link.completions(when));
                }
            })
        });
    }
    group.finish();
}

/// Multi-server queueing station offers.
fn bench_server(c: &mut Criterion) {
    c.bench_function("server/10k_offers_64_slots", |b| {
        b.iter(|| {
            let mut s = Server::new(64);
            for i in 0..10_000u64 {
                black_box(s.offer(SimTime::from_secs(i / 10), SimDuration::from_secs(3)));
            }
        })
    });
}

/// Concurrent worker cache under contention.
fn bench_worker_cache(c: &mut Criterion) {
    use std::sync::Arc;
    c.bench_function("worker_cache/8_threads_mixed_keys", |b| {
        b.iter(|| {
            let cache = Arc::new(wqueue::WorkerCache::new());
            std::thread::scope(|scope| {
                for t in 0..8 {
                    let cache = Arc::clone(&cache);
                    scope.spawn(move || {
                        for i in 0..200 {
                            let key = format!("k{}", (i + t) % 32);
                            black_box(cache.get_or_fetch(&key, || vec![0u8; 256]));
                        }
                    });
                }
            });
        })
    });
}

/// The real Map-Reduce engine on a word-count-shaped job.
fn bench_mapreduce(c: &mut Criterion) {
    let inputs: Vec<u32> = (0..20_000).collect();
    c.bench_function("mapreduce/20k_inputs_8_workers", |b| {
        b.iter(|| {
            let mr = gridstore::MapReduce::new(8);
            black_box(mr.run(
                inputs.clone(),
                |x| vec![(x % 257, x as u64)],
                |_k, vs| vs.into_iter().sum::<u64>(),
            ))
        })
    });
}

/// One point of the Figure 3 Monte Carlo at reduced scale.
fn bench_tasksize(c: &mut Criterion) {
    use batchsim::availability::EvictionScenario;
    use lobster::tasksize::{simulate, TaskSizeConfig};
    let cfg = TaskSizeConfig {
        total_tasklets: 10_000,
        workers: 800,
        ..TaskSizeConfig::default()
    };
    c.bench_function("tasksize/10k_tasklets_constant_hazard", |b| {
        b.iter(|| {
            black_box(simulate(
                &cfg,
                &EvictionScenario::ConstantHazard { per_hour: 0.1 },
                6,
                42,
            ))
        })
    });
}

/// A small end-to-end cluster simulation.
fn bench_cluster_sim(c: &mut Criterion) {
    use batchsim::availability::AvailabilityModel;
    use batchsim::pool::PoolConfig;
    use gridstore::dbs::{DatasetSpec, Dbs};
    use lobster::config::LobsterConfig;
    use lobster::driver::{ClusterSim, Session, SimParams};
    use lobster::workflow::Workflow;
    c.bench_function("cluster_sim/64_cores_1000_lumi_files", |b| {
        b.iter(|| {
            let mut cfg = LobsterConfig::default();
            cfg.workers.target_cores = 64;
            cfg.workers.cores_per_worker = 4;
            cfg.merge_target_bytes = 200_000_000;
            let mut dbs = Dbs::new();
            dbs.generate(
                "/TTJets/Spring14/AOD",
                DatasetSpec {
                    n_files: 20,
                    mean_file_bytes: 500_000_000,
                    events_per_lumi: 100,
                    lumis_per_file: 50,
                },
                7,
            );
            let wf = Workflow::from_dataset(
                &cfg.workflows[0],
                dbs.query("/TTJets/Spring14/AOD").unwrap(),
            );
            let params = SimParams {
                availability: AvailabilityModel::Dedicated,
                pool: PoolConfig {
                    total_cores: 200,
                    owner_mean: 20.0,
                    reversion: 0.1,
                    noise: 0.0,
                    tick: SimDuration::from_mins(5),
                },
                horizon: SimDuration::from_hours(72),
                ..SimParams::default()
            };
            black_box(Session::new(ClusterSim::new(cfg, params, vec![wf])).finish())
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_engine, bench_fair_link, bench_server, bench_worker_cache,
              bench_mapreduce, bench_tasksize, bench_cluster_sim
}
criterion_main!(benches);
