//! AMPS-Inf configuration.

use ampsinf_faas::{FaultPlan, PerfModel, PriceSheet, Quotas, StoreKind, WarmPoolPolicy};
use ampsinf_solver::ConvexifyMethod;

/// All knobs of an AMPS-Inf run.
#[derive(Debug, Clone)]
pub struct AmpsConfig {
    /// Platform quotas (2020 preset by default; 2021 for the extension).
    pub quotas: Quotas,
    /// Price sheet.
    pub prices: PriceSheet,
    /// Lambda performance law.
    pub perf: PerfModel,
    /// Intermediate storage backend.
    pub store: StoreKind,
    /// Response-time SLO in seconds (`None` = no SLO row).
    pub slo_s: Option<f64>,
    /// Paper constraint (6): cap on layers per partition, as a fraction of
    /// the model's layer count (removes "intuitively unpromising"
    /// lopsided cuts). 1.0 disables the cap.
    pub max_partition_fraction: f64,
    /// Maximum number of partitions considered (the paper's `K`).
    pub max_partitions: usize,
    /// Reference-only: convexification policy for the branch-and-bound
    /// MIQP solver. The planner solves each cut exactly as a pick-one
    /// knapsack and never reads this; callers that replay
    /// [`crate::miqp_build::build`] through `ampsinf_solver::bb` do.
    pub convexify: ConvexifyMethod,
    /// Time preference: among plans within `(1 + cost_tolerance)` of the
    /// minimum cost, pick the fastest. This encodes the paper's
    /// "cost-efficiency *and* timely-response" double objective — AMPS-Inf
    /// lands within ~9–14% of Baseline 3's optimal cost while being
    /// slightly faster (paper §5.3).
    pub cost_tolerance: f64,
    /// Cap on candidate boundary positions for large models (the paper's
    /// search-space reduction); boundaries are chosen at the cheapest
    /// transfer points.
    pub max_candidate_boundaries: usize,
    /// Images per request the plan is optimized for (paper §5.4: the batch
    /// plans pick larger memory blocks, e.g. MobileNet 2048/2176 MB at
    /// batch 10).
    pub batch_size: u64,
    /// Worker threads for the DAG region search and for a sweep's batch
    /// chains (a chain plan's two passes run on one thread). `0` (the
    /// default) uses the machine's available parallelism; `1` runs fully
    /// sequentially. The selected plan is identical at every setting.
    pub threads: usize,
    /// Reference-only: warm-start branch-and-bound node relaxations from
    /// the parent node's solution. Like `convexify`, the planner never
    /// reads it; only callers of `ampsinf_solver::bb` do.
    pub bb_warm_start: bool,
    /// Retry budget per partition invocation: how many times a failed
    /// lambda is re-invoked before the chain gives up. Because
    /// intermediates live in S3, a retry resumes from the last
    /// checkpointed boundary — it never restarts the chain. `0` disables
    /// retries (a single failure aborts the request, the pre-fault-
    /// tolerance behaviour).
    pub invoke_retries: u32,
    /// Base of the exponential backoff before retry attempt `n`
    /// (`backoff_base_s * 2^(n-1)` seconds of simulated wall-clock).
    pub backoff_base_s: f64,
    /// Lambda-level fault injection plan (crashes, hangs, cold-start
    /// failures). Disabled by default; with the default plan, runs are
    /// bit-identical to a platform without fault injection.
    pub faults: FaultPlan,
    /// Warm-pool shards ("lanes") for the serving engine. This is a
    /// **model** parameter: request `i` is pinned to lane `i % serve_lanes`
    /// and only sees that lane's warm instances, so results depend on it
    /// (more lanes = less warm sharing) but never on thread count. `1`
    /// (the default) reproduces the single-pool serial engine exactly.
    pub serve_lanes: usize,
    /// Worker threads executing the serving lanes. This is an **execution**
    /// parameter: every value, including the auto default `0`, produces
    /// bit-identical reports — only wall-clock changes. Clamped to the
    /// lane count (one lane never splits across threads) and to the
    /// machine's available parallelism (extra workers would only contend
    /// for the lane queue).
    pub serve_threads: usize,
    /// Warm-pool provisioning policy for the serving engine (pre-warm
    /// count, keep-alive horizon, idle billing). This is a **model**
    /// parameter like `serve_lanes`: results depend on it, never on
    /// thread count — pre-warmed instances split deterministically across
    /// lanes. The default reproduces classic Lambda behavior exactly.
    pub warm_pool: WarmPoolPolicy,
    /// Pipeline stations per stage per lane for the pipelined serving
    /// engine (`0` disables pipelining — the default, which reproduces the
    /// strictly sequential per-request chain exactly). With `depth ≥ 1`,
    /// stage `i` of request `k+1` may start as soon as request `k+1`'s
    /// stage `i−1` has checkpointed its boundary tensor *and* one of the
    /// stage's `depth` stations is free — so stages overlap across
    /// requests and steady-state throughput is bound by the bottleneck
    /// stage, not the summed chain. Like `serve_lanes`, this is a
    /// **model** parameter: results depend on it, never on thread count
    /// (stations admit strictly in request-index order).
    pub pipeline_depth: usize,
}

impl Default for AmpsConfig {
    fn default() -> Self {
        AmpsConfig {
            quotas: Quotas::lambda_2020(),
            prices: PriceSheet::aws_2020(),
            perf: PerfModel::default(),
            store: StoreKind::s3(),
            slo_s: None,
            max_partition_fraction: 1.0,
            max_partitions: 10,
            convexify: ConvexifyMethod::DualRefine,
            cost_tolerance: 0.10,
            max_candidate_boundaries: 24,
            batch_size: 1,
            threads: 0,
            bb_warm_start: true,
            invoke_retries: 2,
            backoff_base_s: 0.1,
            faults: FaultPlan::none(),
            serve_lanes: 1,
            serve_threads: 0,
            warm_pool: WarmPoolPolicy::default(),
            pipeline_depth: 0,
        }
    }
}

impl AmpsConfig {
    /// Config with a response-time SLO.
    pub fn with_slo(mut self, slo_s: f64) -> Self {
        self.slo_s = Some(slo_s);
        self
    }

    /// Config on the post-2020 quota preset (paper §5.1 future work).
    pub fn lambda_2021(mut self) -> Self {
        self.quotas = Quotas::lambda_2021();
        self
    }

    /// Config optimized for batches of `batch` images per request (planning
    /// batch 0 is [`crate::OptimizeError::InvalidInput`]).
    pub fn with_batch(mut self, batch: u64) -> Self {
        self.batch_size = batch;
        self
    }

    /// Config with an explicit optimizer thread count (`0` = auto).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Config with an explicit per-partition retry budget.
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.invoke_retries = retries;
        self
    }

    /// Config with an explicit exponential-backoff base.
    pub fn with_backoff(mut self, base_s: f64) -> Self {
        assert!(base_s >= 0.0, "backoff base must be non-negative");
        self.backoff_base_s = base_s;
        self
    }

    /// Config with a lambda-level fault injection plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Config with an explicit warm-pool lane count (model parameter).
    pub fn with_serve_lanes(mut self, lanes: usize) -> Self {
        assert!(lanes >= 1, "at least one lane required");
        self.serve_lanes = lanes;
        self
    }

    /// Config with an explicit serving thread count (`0` = auto; never
    /// changes results, only wall-clock).
    pub fn with_serve_threads(mut self, threads: usize) -> Self {
        self.serve_threads = threads;
        self
    }

    /// Config with a warm-pool provisioning policy (model parameter:
    /// changes cold-start behavior and idle cost, never thread-dependence).
    pub fn with_warm_pool(mut self, policy: WarmPoolPolicy) -> Self {
        self.warm_pool = policy;
        self
    }

    /// Config with pipelined stage execution enabled: `depth` stations per
    /// stage per lane (model parameter; see [`AmpsConfig::pipeline_depth`]).
    pub fn with_pipeline(mut self, depth: usize) -> Self {
        assert!(depth >= 1, "pipeline depth must be at least 1");
        self.pipeline_depth = depth;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_2020_aws() {
        let c = AmpsConfig::default();
        assert_eq!(c.quotas.memory_max_mb, 3008);
        assert!(c.slo_s.is_none());
        assert!(c.cost_tolerance > 0.0);
    }

    #[test]
    fn builders_apply() {
        let c = AmpsConfig::default().with_slo(30.0).lambda_2021();
        assert_eq!(c.slo_s, Some(30.0));
        assert_eq!(c.quotas.memory_max_mb, 10_240);
    }

    #[test]
    fn default_faults_are_disabled() {
        let c = AmpsConfig::default();
        assert!(!c.faults.enabled());
        assert_eq!(c.invoke_retries, 2);
        assert!(c.backoff_base_s > 0.0);
    }

    #[test]
    fn reliability_builders_apply() {
        let c = AmpsConfig::default()
            .with_retries(5)
            .with_backoff(0.25)
            .with_faults(FaultPlan::uniform(0.1, 9));
        assert_eq!(c.invoke_retries, 5);
        assert_eq!(c.backoff_base_s, 0.25);
        assert!(c.faults.enabled());
    }

    #[test]
    fn serving_defaults_are_single_lane_auto_threads() {
        let c = AmpsConfig::default();
        assert_eq!(c.serve_lanes, 1);
        assert_eq!(c.serve_threads, 0);
        let c = c.with_serve_lanes(16).with_serve_threads(4);
        assert_eq!(c.serve_lanes, 16);
        assert_eq!(c.serve_threads, 4);
    }

    #[test]
    fn pipeline_defaults_off_and_builder_applies() {
        let c = AmpsConfig::default();
        assert_eq!(c.pipeline_depth, 0, "pipelining must default off");
        let c = c.with_pipeline(2);
        assert_eq!(c.pipeline_depth, 2);
    }

    #[test]
    #[should_panic(expected = "pipeline depth")]
    fn pipeline_rejects_zero_depth() {
        let _ = AmpsConfig::default().with_pipeline(0);
    }

    #[test]
    fn warm_pool_defaults_to_lambda_and_builder_applies() {
        let c = AmpsConfig::default();
        assert_eq!(c.warm_pool, WarmPoolPolicy::lambda_default());
        let c = c.with_warm_pool(WarmPoolPolicy::provisioned(8));
        assert_eq!(c.warm_pool.pre_warm, 8);
        assert!(c.warm_pool.bill_idle);
    }
}
