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
//! * [`colcache`] — the per-optimize segment-column memo cache shared by
//!   both optimizer passes;
//! * [`miqp_build`] — assembly of the per-cut 0-1 quadratic program
//!   (Eq. 12–14) with SOS-1 memory rows (Eq. 1) and the SLO row;
//! * [`optimizer`] — the Optimizer component: enumerate → solve → select;
//! * [`sweep`] — amortized multi-point planning over an SLO × batch grid
//!   with Pareto-frontier extraction;
//! * [`baselines`] — the paper's Baseline 1 (random), Baseline 2
//!   (greedy-from-last-layer + max memory), Baseline 3 (exhaustive
//!   optimum via DP over all boundaries);
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
    PipelineStats, RequestSummary, RetryRecord, ServeError, TraceReport,
};
pub use optimizer::{DagReport, DagSearchStats, OptimizeError, Optimizer};
pub use plan::{DagNode, DagObject, DagPlan, ExecutionPlan, PartitionPlan, PipelinePlan};
pub use sweep::{
    DagSweepPoint, DagSweepReport, PipelinePoint, PipelineSweepReport, PointStats, SweepGrid,
    SweepPoint, SweepReport,
};
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
