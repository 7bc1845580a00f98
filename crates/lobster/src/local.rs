//! Laptop-scale Lobster: real execution through `wqueue::local`.
//!
//! This driver runs an actual workload — Rust closures standing in for the
//! CMSSW application — through the same conceptual pipeline as the cluster
//! driver: workflow decomposition via the [`LobsterDb`], dispatch through
//! a genuine multithreaded Work Queue master (optionally behind foremen),
//! per-worker shared caches, output files landing in an in-process HDFS,
//! and a real Map-Reduce merge pass. The quickstart example is a thin
//! wrapper around [`LocalLobster`].

use crate::db::LobsterDb;
use crate::merge::{merge_in_hadoop, MergeMode, MergePlanner};
use gridstore::hdfs::Hdfs;
use gridstore::mapreduce::MapReduce;
use std::sync::Arc;
use std::time::Duration;
use wqueue::local::{payload, LocalMaster, Payload, TaskContext};
use wqueue::task::{TaskId, TaskSpec};

/// What to run for each tasklet: index → output bytes.
pub type TaskletFn = Arc<dyn Fn(u64, &TaskContext) -> Vec<u8> + Send + Sync>;

/// Configuration of a local run.
#[derive(Clone, Debug)]
pub struct LocalConfig {
    /// Worker processes to attach.
    pub workers: u32,
    /// Slots per worker.
    pub cores_per_worker: u32,
    /// Foremen to interpose (0 = direct connection).
    pub foremen: u32,
    /// Tasklets per task.
    pub tasklets_per_task: u32,
    /// Target merged-file size in bytes.
    pub merge_target_bytes: u64,
    /// Wall-clock budget for the whole run.
    pub timeout: Duration,
}

impl Default for LocalConfig {
    fn default() -> Self {
        LocalConfig {
            workers: 4,
            cores_per_worker: 2,
            foremen: 0,
            tasklets_per_task: 5,
            merge_target_bytes: 64 * 1024,
            timeout: Duration::from_secs(120),
        }
    }
}

/// Summary of a completed local run.
#[derive(Clone, Debug)]
pub struct LocalRunSummary {
    /// Analysis tasks completed.
    pub tasks_completed: u64,
    /// Analysis tasks that ultimately failed.
    pub tasks_failed: u64,
    /// Small output files produced.
    pub outputs: usize,
    /// Merged files written to storage, `(name, bytes)`.
    pub merged: Vec<(String, u64)>,
    /// Total output bytes before merging.
    pub output_bytes: u64,
}

/// The local (real-execution) Lobster driver.
pub struct LocalLobster {
    cfg: LocalConfig,
    master: LocalMaster,
    db: LobsterDb,
    hdfs: Arc<Hdfs>,
}

impl LocalLobster {
    /// Stand up a master with the configured worker fleet.
    pub fn new(cfg: LocalConfig) -> Self {
        assert!(cfg.workers >= 1 && cfg.cores_per_worker >= 1);
        let mut master = LocalMaster::new();
        if cfg.foremen > 0 {
            let foremen: Vec<_> = (0..cfg.foremen).map(|_| master.attach_foreman()).collect();
            for i in 0..cfg.workers {
                let f = foremen[(i % cfg.foremen) as usize];
                master.attach_worker_via(f, cfg.cores_per_worker);
            }
        } else {
            for _ in 0..cfg.workers {
                master.attach_worker(cfg.cores_per_worker);
            }
        }
        LocalLobster {
            cfg,
            master,
            db: LobsterDb::in_memory(),
            hdfs: Arc::new(Hdfs::new(4, 2)),
        }
    }

    /// The backing storage (outputs and merged files live here).
    pub fn storage(&self) -> &Arc<Hdfs> {
        &self.hdfs
    }

    /// Direct access to the Work Queue master (e.g. to inject evictions).
    pub fn master_mut(&mut self) -> &mut LocalMaster {
        &mut self.master
    }

    /// Run a workflow of `n_tasklets` tasklets: decompose into tasks, run
    /// every tasklet through `work` on the worker fleet, store each task's
    /// output in storage, then merge via a real Map-Reduce pass.
    pub fn run_workflow(
        &mut self,
        name: &str,
        n_tasklets: u64,
        work: TaskletFn,
    ) -> LocalRunSummary {
        self.db.register_workflow(name, n_tasklets);
        // Decompose completely up front (the tasklet list "is created at
        // the beginning of the workflow", §4.1).
        let mut specs: Vec<(TaskId, Vec<u64>)> = Vec::new();
        while let Some(id) = self.db.create_task(name, self.cfg.tasklets_per_task) {
            let tasklets = self.db.task_tasklets(id).expect("created").to_vec();
            specs.push((id, tasklets));
        }
        // Submit: each task runs its tasklets and returns the concatenated
        // output bytes.
        for (id, tasklets) in &specs {
            if let Err(e) = self.db.mark_running(*id) {
                debug_assert!(false, "fresh task rejected: {e}");
            }
            let spec = TaskSpec::new(*id, format!("{name}/{id}")).tasklets(tasklets.clone());
            let p = task_payload(tasklets.clone(), Arc::clone(&work));
            self.master.submit(spec, p);
        }
        // Collect.
        let mut completed = 0u64;
        let mut failed = 0u64;
        let mut output_bytes = 0u64;
        let results = self.master.wait_all(self.cfg.timeout);
        for r in &results {
            if r.is_success() {
                completed += 1;
                output_bytes += r.output_bytes;
                if let Err(e) = self.db.mark_done(r.id, r.output_bytes) {
                    debug_assert!(false, "collected task rejected: {e}");
                }
            } else {
                failed += 1;
                if let Err(e) = self.db.mark_lost(r.id) {
                    debug_assert!(false, "failed task rejected: {e}");
                }
            }
        }
        // Persist outputs as small files, mirroring the 10–100 MB files
        // the paper merges. (Contents are synthesized deterministically —
        // the Work Queue result carried only the size.)
        let unmerged = self.db.unmerged_outputs();
        for (id, bytes) in &unmerged {
            self.hdfs.put_bytes(
                &small_name(name, *id),
                vec![(id.0 % 251) as u8; *bytes as usize],
            );
        }
        // Real Hadoop-mode merge.
        let planner = MergePlanner::new(MergeMode::Hadoop, self.cfg.merge_target_bytes);
        let groups = planner.plan_full(&unmerged);
        let named: Vec<(String, Vec<String>)> = groups
            .iter()
            .enumerate()
            .map(|(gi, g)| {
                (
                    format!("/store/{name}/merged_{gi}.root"),
                    g.inputs
                        .iter()
                        .map(|(id, _)| small_name(name, *id))
                        .collect(),
                )
            })
            .collect();
        let engine = MapReduce::new((self.cfg.workers * self.cfg.cores_per_worker) as usize);
        let merged_names = merge_in_hadoop(&self.hdfs, &engine, &named);
        for (gi, g) in groups.iter().enumerate() {
            let ids: Vec<TaskId> = g.inputs.iter().map(|i| i.0).collect();
            let merged_name = format!("/store/{name}/merged_{gi}.root");
            if let Err(e) = self.db.mark_merged(None, &ids, &merged_name, g.bytes()) {
                debug_assert!(false, "hadoop-planned merge rejected: {e}");
            }
        }
        let merged = self
            .db
            .merged_files()
            .into_iter()
            .filter(|(n, _)| n.contains(name))
            .collect();
        let _ = merged_names;
        LocalRunSummary {
            tasks_completed: completed,
            tasks_failed: failed,
            outputs: unmerged.len(),
            merged,
            output_bytes,
        }
    }

    /// Shut the worker fleet down cleanly.
    pub fn shutdown(self) {
        self.master.shutdown();
    }
}

fn small_name(workflow: &str, id: TaskId) -> String {
    format!("/store/{workflow}/out_{}.root", id.0)
}

/// Build the Work Queue payload for one task.
fn task_payload(tasklets: Vec<u64>, work: TaskletFn) -> Payload {
    payload(move |ctx| {
        let mut out = Vec::new();
        for &t in &tasklets {
            if ctx.is_cancelled() {
                return Err(wqueue::task::FailureCode::Evicted);
            }
            out.extend(work(t, ctx));
        }
        Ok(out)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum_worker() -> TaskletFn {
        Arc::new(|t, _ctx| {
            // A tiny deterministic "analysis": reduce the tasklet index.
            let v = (t * 2654435761) % 97;
            vec![v as u8; 100]
        })
    }

    #[test]
    fn end_to_end_local_run() {
        let mut lob = LocalLobster::new(LocalConfig {
            workers: 3,
            cores_per_worker: 2,
            foremen: 0,
            tasklets_per_task: 4,
            merge_target_bytes: 1_000,
            timeout: Duration::from_secs(60),
        });
        let summary = lob.run_workflow("demo", 20, sum_worker());
        assert_eq!(summary.tasks_failed, 0);
        assert_eq!(summary.tasks_completed, 5, "20 tasklets / 4 per task");
        assert_eq!(summary.outputs, 5);
        assert_eq!(summary.output_bytes, 20 * 100);
        // Outputs merged into target-size files: 5 × 400 B → 2 merged.
        assert_eq!(summary.merged.len(), 2);
        let merged_total: u64 = summary.merged.iter().map(|m| m.1).sum();
        assert_eq!(merged_total, 2_000);
        // Storage holds exactly the merged files for this workflow.
        assert_eq!(lob.storage().file_count(), 2);
        lob.shutdown();
    }

    #[test]
    fn foremen_path_works() {
        let mut lob = LocalLobster::new(LocalConfig {
            workers: 4,
            cores_per_worker: 1,
            foremen: 2,
            tasklets_per_task: 3,
            merge_target_bytes: 10_000,
            timeout: Duration::from_secs(60),
        });
        let summary = lob.run_workflow("foreman-demo", 9, sum_worker());
        assert_eq!(summary.tasks_completed, 3);
        assert_eq!(summary.merged.len(), 1);
        lob.shutdown();
    }

    #[test]
    fn cache_is_visible_to_tasklets() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let fetches = Arc::new(AtomicUsize::new(0));
        let f2 = Arc::clone(&fetches);
        let work: TaskletFn = Arc::new(move |_t, ctx| {
            let f = Arc::clone(&f2);
            let data = ctx.cache.get_or_fetch("conditions-db", move || {
                f.fetch_add(1, Ordering::SeqCst);
                vec![9; 64]
            });
            data[..8].to_vec()
        });
        let mut lob = LocalLobster::new(LocalConfig {
            workers: 1,
            cores_per_worker: 2,
            ..LocalConfig::default()
        });
        let summary = lob.run_workflow("cached", 10, work);
        assert_eq!(summary.tasks_failed, 0);
        // One worker → the conditions payload was fetched exactly once.
        assert_eq!(fetches.load(Ordering::SeqCst), 1);
        lob.shutdown();
    }
}
