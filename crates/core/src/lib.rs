//! AMPS-Inf — the paper's primary contribution.
//!
//! Given a pre-trained model, AMPS-Inf jointly decides (1) how to split the
//! layer graph into contiguous partitions and (2) which Lambda memory block
//! to give each partition, minimizing monetary cost subject to a
//! response-time SLO and the platform's deployment/temporary-storage limits
//! (paper §3), then deploys and coordinates the chain (§4).
//!
//! * [`config`] — knobs: platform presets, SLO, constraint-(6) cap, QCR
//!   policy, time-preference ε;
//! * [`cuts`] — cut enumeration with constraint-(4)/(5)/(6) pruning (the
//!   Profiler's "all the possible ways for the partition", Fig. 4);
//! * [`colcache`] — the per-optimize segment memo: each span's memory
//!   grid under each object shape, with its presolved frontier, shared by
//!   both optimizer passes, the DAG search, the polish and pipelined
//!   planning;
//! * [`miqp_build`] — assembly of the per-cut 0-1 quadratic program
//!   (Eq. 12–14) with SOS-1 memory rows (Eq. 1) and the SLO row;
//! * [`optimizer`] — the Optimizer component: enumerate → solve → select;
//! * [`sweep`] — amortized multi-point planning over an SLO × batch grid
//!   with Pareto-frontier extraction: one [`SweepReport`] for chain and
//!   chain-vs-DAG grids, plus the pipelined grid's report;
//! * [`baselines`] — the paper's Baseline 1 (random), Baseline 2
//!   (greedy-from-last-layer + max memory), Baseline 3 (exhaustive
//!   optimum via DP over all boundaries), Baseline 4 (PipeServe's
//!   backward bucket scan, `b4_bucket_scan`);
//! * [`coordinator`] — the Coordinator component: package partitions,
//!   deploy, run every plan (chains lowered to DAGs) as invocations that
//!   hand tensors over through storage, return predictions;
//! * [`plan`] — serializable execution/provisioning plans.

#![warn(missing_docs)]

pub mod baselines;
pub mod colcache;
pub mod config;
pub mod coordinator;
pub mod cuts;
pub mod miqp_build;
pub mod optimizer;
pub mod plan;
mod polish;
pub mod sweep;
pub mod trace;

pub use config::AmpsConfig;
pub use coordinator::{
    BatchFailure, BatchReport, Coordinator, DagNodeStats, Deployment, JobReport, PipelineReport,
    PipelineStats, RequestSummary, RetryRecord, ServeError, TraceBase, TraceReport,
};
pub use optimizer::{DagReport, DagSearchStats, OptimizeError, Optimizer};
pub use plan::{DagNode, DagObject, DagPlan, ExecutionPlan, PartitionPlan, PipelinePlan};
pub use sweep::{PointStats, SweepGrid, SweepPoint, SweepReport};
pub use trace::Timeline;

/// A `HashMap` hashed with unkeyed SipHash instead of `RandomState`'s
/// per-process random keys. The planner's memo tables iterate and drop
/// their entries in hash order; with a fixed hasher that order, and so
/// the heap layout and timing it leaves behind, is the same in every
/// process instead of changing from one run to the next.
pub(crate) type FixedHashMap<K, V> = std::collections::HashMap<
    K,
    V,
    std::hash::BuildHasherDefault<std::collections::hash_map::DefaultHasher>,
>;

/// Maps `f` over `items` on up to `threads` scoped workers that claim
/// items in turn, and returns the results in item order, whichever worker
/// ran each. With at most one worker (`threads.min(items.len()) <= 1`) it
/// is the plain sequential iterator.
pub(crate) fn par_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let workers = threads.min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let parts: Vec<Vec<(usize, R)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        local.push((i, f(item)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel map worker panicked"))
            .collect()
    });
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for (i, r) in parts.into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|r| r.expect("every item ran exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::FixedHashMap;

    #[test]
    fn fixed_hash_maps_iterate_in_one_order() {
        // `RandomState` keys every map differently, so two maps filled
        // alike would almost surely iterate in different orders.
        let fill = || {
            (0..64usize)
                .map(|i| (i, 3 * i))
                .collect::<FixedHashMap<_, _>>()
        };
        let first: Vec<_> = fill().into_iter().collect();
        let second: Vec<_> = fill().into_iter().collect();
        assert_eq!(first, second);
    }
}
