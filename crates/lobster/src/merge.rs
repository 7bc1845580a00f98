//! Output merging (§4.4, Figure 7).
//!
//! Tuning task sizes for eviction tolerance leaves "significantly more and
//! smaller output files" (10–100 MB) than regular CMS workflows want;
//! Lobster merges them into 3–4 GB files. Three modes:
//!
//! * **Sequential** — after all analysis tasks finish, group outputs by
//!   size and run merge tasks through the same queue. Slowest; long tail.
//! * **Hadoop** — run the merge inside the storage cluster as a
//!   Map-Reduce job (map groups file names; reducers concatenate).
//! * **Interleaved** — once a workflow is >10 % processed, create merge
//!   tasks as soon as enough finished outputs exist to fill one target-
//!   size file. Outputs merge exactly once. Less resource-efficient but
//!   fastest to completion; the mode Lobster uses in production.

use gridstore::hdfs::Hdfs;
use gridstore::mapreduce::MapReduce;
use serde::{Deserialize, Serialize};
use simkit::SimDuration;
use std::collections::VecDeque;
use wqueue::task::TaskId;

/// The three merging modes.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MergeMode {
    /// Merge after all processing completes, via merge tasks.
    Sequential,
    /// Merge inside the Hadoop cluster via Map-Reduce.
    Hadoop,
    /// Merge concurrently with processing.
    Interleaved,
}

impl MergeMode {
    /// Label for tables.
    pub fn label(self) -> &'static str {
        match self {
            MergeMode::Sequential => "sequential",
            MergeMode::Hadoop => "hadoop",
            MergeMode::Interleaved => "interleaved",
        }
    }
}

/// Merge-task CPU per GB of merged data.
const MERGE_CPU_PER_GB: SimDuration = SimDuration::from_mins(1);

/// Hadoop mode: parallel reducers in the storage cluster.
const HADOOP_REDUCERS: usize = 20;

/// Interleaved mode merges nothing until this fraction of the analysis
/// tasklets is done (paper: 10 %).
pub const INTERLEAVED_GATE: f64 = 0.10;

/// CPU a merge task of `bytes` needs.
pub(crate) fn merge_cpu(bytes: u64) -> SimDuration {
    MERGE_CPU_PER_GB.mul_f64(bytes as f64 / 1e9)
}

/// A planned merge: which outputs combine into one file.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MergeGroup {
    /// Inputs as `(producing task, bytes)`.
    pub inputs: Vec<(TaskId, u64)>,
}

impl MergeGroup {
    /// Total bytes of the merged file.
    pub fn bytes(&self) -> u64 {
        self.inputs.iter().map(|i| i.1).sum()
    }

    /// Number of input files.
    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    /// A group always holds at least one input.
    pub fn is_empty(&self) -> bool {
        self.inputs.is_empty()
    }
}

/// Where the analysis phase stands, in tasklets: the input of every
/// merge gate.
#[derive(Clone, Copy, Debug)]
pub struct Progress {
    /// Tasklets done.
    pub done: u64,
    /// Tasklets withdrawn to the dead-letter ledger.
    pub dead: u64,
    /// Tasklets across all workflows.
    pub total: u64,
}

impl Progress {
    /// No analysis work is left. Dead-lettered tasklets count against the
    /// total: a withdrawn task must not hold the merge flush (and the run)
    /// hostage. Per-workflow done + dead never exceeds the workflow's
    /// total, so the summed comparison is exact.
    pub fn exhausted(self) -> bool {
        self.done + self.dead >= self.total
    }
}

/// Decides how finished outputs group into merges: it holds the pending
/// outputs in finish order and releases target-size groups when the
/// mode's gate opens.
#[derive(Clone, Debug)]
pub struct MergePlanner {
    mode: MergeMode,
    target_bytes: u64,
    /// Finished outputs not yet claimed by any group, in finish order.
    pending: VecDeque<(TaskId, u64)>,
    pending_bytes: u64,
    /// Sequential and Hadoop modes plan once, when analysis is exhausted.
    end_planned: bool,
}

impl MergePlanner {
    /// Planner for `mode`, targeting `target_bytes` per merged file.
    pub fn new(mode: MergeMode, target_bytes: u64) -> Self {
        assert!(target_bytes > 0);
        MergePlanner {
            mode,
            target_bytes,
            pending: VecDeque::new(),
            pending_bytes: 0,
            end_planned: false,
        }
    }

    /// Queue a finished output behind the earlier ones.
    pub fn push(&mut self, id: TaskId, bytes: u64) {
        self.pending.push_back((id, bytes));
        self.pending_bytes += bytes;
    }

    /// Queue recovered outputs, already in finish order.
    pub fn extend(&mut self, outputs: impl IntoIterator<Item = (TaskId, u64)>) {
        for (id, bytes) in outputs {
            self.push(id, bytes);
        }
    }

    /// The next group to merge now, if the mode's gate is open:
    ///
    /// * **Interleaved** — nothing before [`INTERLEAVED_GATE`]; after it,
    ///   only full groups (≥ target); once analysis is exhausted, the
    ///   trailing partial group too.
    /// * **Sequential / Hadoop** — nothing until analysis is exhausted;
    ///   then every pending output, once.
    ///
    /// Call until it returns `None`.
    pub fn next_group(&mut self, progress: Progress) -> Option<MergeGroup> {
        let exhausted = progress.exhausted();
        match self.mode {
            MergeMode::Interleaved => {
                // "Merge tasks will only be created when enough processing
                // tasks have finished to create a sufficiently large merged
                // output file" (§4.4). `exhausted` covers `total == 0`, so
                // the fraction is finite.
                if !exhausted && (progress.done as f64 / progress.total as f64) < INTERLEAVED_GATE {
                    return None;
                }
                self.drain(exhausted)
            }
            MergeMode::Sequential | MergeMode::Hadoop => {
                if !exhausted || self.end_planned {
                    return None;
                }
                let group = self.drain(true);
                self.end_planned = group.is_none();
                group
            }
        }
    }

    /// Group *all* `outputs` at once (end-of-run): greedy accumulation to
    /// the target; the final group may be smaller.
    pub fn plan_full(&self, outputs: &[(TaskId, u64)]) -> Vec<MergeGroup> {
        let mut one_shot = MergePlanner::new(self.mode, self.target_bytes);
        one_shot.extend(outputs.iter().copied());
        std::iter::from_fn(|| one_shot.drain(true)).collect()
    }

    /// Pop one group off the pending queue: outputs in finish order until
    /// the group reaches the target. Without `flush` only a full group
    /// leaves; with it, the trailing partial group does too.
    fn drain(&mut self, flush: bool) -> Option<MergeGroup> {
        if !flush && self.pending_bytes < self.target_bytes {
            return None;
        }
        let mut group = MergeGroup::default();
        let mut acc = 0u64;
        while acc < self.target_bytes {
            let Some((id, bytes)) = self.pending.pop_front() else {
                break;
            };
            acc += bytes;
            self.pending_bytes -= bytes;
            group.inputs.push((id, bytes));
        }
        (!group.is_empty()).then_some(group)
    }
}

/// Hadoop mode's reducer schedule (LPT): the largest group goes to the
/// least-loaded of [`HADOOP_REDUCERS`] reducers, each of which reads and
/// writes its groups' data once at `rate` bytes/second. Equal-size groups
/// keep their order and a tie between reducers goes to the lowest index.
/// Returns the groups in assignment order, each with its finish time
/// measured from the start of the job.
pub(crate) fn hadoop_schedule(
    mut groups: Vec<MergeGroup>,
    rate: f64,
) -> Vec<(MergeGroup, SimDuration)> {
    groups.sort_by_key(|g| std::cmp::Reverse(g.bytes()));
    let mut reducer_free = [SimDuration::ZERO; HADOOP_REDUCERS];
    groups
        .into_iter()
        .map(|g| {
            let dur = SimDuration::from_secs_f64(2.0 * g.bytes() as f64 / rate);
            let r = (0..HADOOP_REDUCERS)
                .min_by_key(|&i| reducer_free[i])
                .unwrap_or(0);
            reducer_free[r] += dur;
            (g, reducer_free[r])
        })
        .collect()
}

/// Execute merges inside the storage cluster as a real Map-Reduce job
/// (the §4.4 Hadoop mode): inputs are HDFS file names; each reducer
/// concatenates its group's contents and writes the merged file back,
/// deleting the small inputs. Returns the merged file names.
pub fn merge_in_hadoop(
    hdfs: &Hdfs,
    engine: &MapReduce,
    groups: &[(String, Vec<String>)],
) -> Vec<String> {
    // Map: (target, input name) pairs; Reduce: concatenate in input order.
    let inputs: Vec<(String, String, usize)> = groups
        .iter()
        .flat_map(|(target, names)| {
            names
                .iter()
                .enumerate()
                .map(move |(i, n)| (target.clone(), n.clone(), i))
        })
        .collect();
    let merged = engine.run(
        inputs,
        |(target, name, order)| vec![(target, (order, name))],
        |_target, mut pieces: Vec<(usize, String)>| {
            pieces.sort_by_key(|p| p.0);
            let mut out = Vec::new();
            for (_, name) in &pieces {
                if let Some(data) = hdfs.read(name) {
                    out.extend_from_slice(&data);
                }
            }
            (out, pieces.into_iter().map(|p| p.1).collect::<Vec<_>>())
        },
    );
    let mut names = Vec::new();
    for (target, (data, consumed)) in merged {
        hdfs.put_bytes(&target, data);
        for name in consumed {
            hdfs.delete(&name);
        }
        names.push(target);
    }
    names.sort();
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outputs(sizes: &[u64]) -> Vec<(TaskId, u64)> {
        sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| (TaskId(i as u64), s))
            .collect()
    }

    /// A planner over outputs 0.. of `sizes`, targeting 100 bytes.
    fn planner(mode: MergeMode, sizes: &[u64]) -> MergePlanner {
        let mut p = MergePlanner::new(mode, 100);
        p.extend(outputs(sizes));
        p
    }

    fn progress(done: u64, total: u64) -> Progress {
        Progress {
            done,
            dead: 0,
            total,
        }
    }

    /// Every group the planner releases at `progress`, as task-id lists.
    fn drain_ids(p: &mut MergePlanner, progress: Progress) -> Vec<Vec<u64>> {
        std::iter::from_fn(|| p.next_group(progress))
            .map(|g| g.inputs.iter().map(|i| i.0 .0).collect())
            .collect()
    }

    #[test]
    fn plan_full_covers_everything_once() {
        let outs = outputs(&[40, 40, 40, 40, 25]);
        let groups = MergePlanner::new(MergeMode::Sequential, 100).plan_full(&outs);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].bytes(), 120);
        assert_eq!(groups[1].bytes(), 65, "trailing partial group kept");
        let total: usize = groups.iter().map(MergeGroup::len).sum();
        assert_eq!(total, 5);
        // No duplicates.
        let mut seen = std::collections::HashSet::new();
        for g in &groups {
            for (id, _) in &g.inputs {
                assert!(seen.insert(*id));
            }
        }
    }

    #[test]
    fn plan_full_empty_input() {
        assert!(MergePlanner::new(MergeMode::Hadoop, 100)
            .plan_full(&[])
            .is_empty());
    }

    #[test]
    fn interleaved_respects_progress_gate() {
        let mut p = planner(MergeMode::Interleaved, &[60, 60]);
        assert!(
            p.next_group(progress(9, 100)).is_none(),
            "below the 10 % gate"
        );
        assert_eq!(drain_ids(&mut p, progress(10, 100)), vec![vec![0, 1]]);
    }

    #[test]
    fn interleaved_holds_back_partial_groups() {
        // A group closes as soon as it reaches the target; the 40-byte
        // remainder is not a full file yet and waits.
        let mut p = planner(MergeMode::Interleaved, &[50, 50, 40]);
        assert_eq!(drain_ids(&mut p, progress(50, 100)), vec![vec![0, 1]]);
        p.push(TaskId(3), 30);
        assert!(p.next_group(progress(60, 100)).is_none(), "70 bytes held");
        p.push(TaskId(4), 30);
        assert_eq!(drain_ids(&mut p, progress(70, 100)), vec![vec![2, 3, 4]]);
    }

    #[test]
    fn final_flush_overrides_gate() {
        // Analysis exhausted by dead letters while below the gate: the
        // partial remainder still merges.
        let mut p = planner(MergeMode::Interleaved, &[10]);
        let exhausted = Progress {
            done: 0,
            dead: 100,
            total: 100,
        };
        assert_eq!(drain_ids(&mut p, exhausted), vec![vec![0]]);
    }

    #[test]
    fn end_of_run_modes_plan_once_when_analysis_is_exhausted() {
        for mode in [MergeMode::Sequential, MergeMode::Hadoop] {
            let mut p = planner(mode, &[60, 60, 30]);
            assert!(p.next_group(progress(99, 100)).is_none(), "{mode:?}");
            assert_eq!(
                drain_ids(&mut p, progress(100, 100)),
                vec![vec![0, 1], vec![2]]
            );
            p.push(TaskId(3), 500);
            assert!(p.next_group(progress(100, 100)).is_none(), "{mode:?}");
        }
    }

    #[test]
    fn single_oversize_output_is_its_own_group() {
        let mut p = planner(MergeMode::Interleaved, &[500, 10]);
        assert_eq!(drain_ids(&mut p, progress(50, 100)), vec![vec![0]]);
        let groups = MergePlanner::new(MergeMode::Sequential, 100).plan_full(&outputs(&[500]));
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].len(), 1);
    }

    #[test]
    fn interleaved_drain_places_every_output_in_one_group() {
        // Outputs arrive one at a time while progress rises, then the
        // last completion flushes: every output lands in exactly one
        // group, in finish order, grouped as the one-shot plan groups them.
        let sizes: Vec<u64> = (0..40u64).map(|i| 7 + (i * 37) % 90).collect();
        let outs = outputs(&sizes);
        let mut p = MergePlanner::new(MergeMode::Interleaved, 100);
        let mut groups = Vec::new();
        for (i, &(id, bytes)) in outs.iter().enumerate() {
            p.push(id, bytes);
            let done = i as u64 + 1;
            groups.extend(std::iter::from_fn(|| p.next_group(progress(done, 40))));
        }
        let merged: Vec<(TaskId, u64)> = groups.iter().flat_map(|g| g.inputs.clone()).collect();
        assert_eq!(merged, outs);
        assert_eq!(groups, p.plan_full(&outs));
        assert!(groups[..groups.len() - 1].iter().all(|g| g.bytes() >= 100));
    }

    #[test]
    fn hadoop_schedule_is_lpt_with_stable_ties() {
        // One 300-byte group among 21 of 100 bytes; at 2 bytes/s a group
        // takes as many seconds as it has bytes.
        let groups: Vec<MergeGroup> = (0..22u64)
            .map(|i| MergeGroup {
                inputs: vec![(TaskId(i), if i == 1 { 300 } else { 100 })],
            })
            .collect();
        let plan = hadoop_schedule(groups, 2.0);
        let order: Vec<u64> = plan.iter().map(|(g, _)| g.inputs[0].0 .0).collect();
        let mut expect: Vec<u64> = vec![1, 0];
        expect.extend(2..22);
        assert_eq!(order, expect, "largest first, equal sizes in drain order");
        let finish: Vec<u64> = plan
            .iter()
            .map(|(_, d)| d.as_micros() / 1_000_000)
            .collect();
        // The 300 takes reducer 0; the next 19 fill reducers 1..=19; the
        // last two queue behind the reducers that free up first (100 s).
        let mut want = vec![300];
        want.extend([100; 19]);
        want.extend([200, 200]);
        assert_eq!(finish, want);
    }

    #[test]
    fn hadoop_merge_concatenates_and_cleans_up() {
        let hdfs = Hdfs::new(4, 2);
        for i in 0..6u8 {
            hdfs.put_bytes(&format!("/out/small_{i}.root"), vec![i; 10]);
        }
        let groups = vec![
            (
                "/out/merged_0.root".to_string(),
                (0..3).map(|i| format!("/out/small_{i}.root")).collect(),
            ),
            (
                "/out/merged_1.root".to_string(),
                (3..6).map(|i| format!("/out/small_{i}.root")).collect(),
            ),
        ];
        let merged = merge_in_hadoop(&hdfs, &MapReduce::new(4), &groups);
        assert_eq!(merged, vec!["/out/merged_0.root", "/out/merged_1.root"]);
        let m0 = hdfs.read("/out/merged_0.root").unwrap();
        assert_eq!(m0.len(), 30);
        assert_eq!(&m0[0..10], &[0; 10]);
        assert_eq!(&m0[10..20], &[1; 10]);
        // Small files deleted; only merged files remain.
        assert_eq!(hdfs.file_count(), 2);
    }

    #[test]
    fn mode_labels() {
        assert_eq!(MergeMode::Sequential.label(), "sequential");
        assert_eq!(MergeMode::Hadoop.label(), "hadoop");
        assert_eq!(MergeMode::Interleaved.label(), "interleaved");
    }
}
