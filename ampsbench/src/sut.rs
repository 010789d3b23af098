//! Every call the benchmark makes into the system under test.
//!
//! The rest of the benchmark sees only the types and functions here, so
//! when a planning or serving API is renamed or merged, this file is the
//! only one that changes.

use ampsinf_core::baselines::{predict, predict_dag};
use ampsinf_core::colcache::SegmentColumnCache;
use ampsinf_core::coordinator::{DagDeployment, Deployment, TraceReport};
use ampsinf_core::cuts::enumerate_cuts;
use ampsinf_core::miqp_build::{self, separable_min_cost_cols};
use ampsinf_core::{Coordinator, Optimizer};
use ampsinf_faas::platform::Platform;
use ampsinf_faas::runtime::PartitionWork;
use ampsinf_faas::{CostLedger, FaultPlan, ObjectStore, StoreKind, WarmPoolPolicy};
use ampsinf_model::zoo;
use ampsinf_profiler::Profile;
use ampsinf_serving::{
    run_adaptive_loop_dag, run_open_loop, run_open_loop_dag, AdaptiveSpec, ArrivalShape, LoadSpec,
};
use ampsinf_solver::bb::{solve_miqp, BbOptions};

use crate::stats::Digest;

pub use ampsinf_core::plan::{DagPlan, ExecutionPlan};
pub use ampsinf_core::AmpsConfig;
pub use ampsinf_model::json::Json;
pub use ampsinf_model::LayerGraph;
pub use ampsinf_serving::LoadReport;

/// Builds a zoo model by the benchmark's name for it.
pub fn model(name: &str) -> Result<LayerGraph, String> {
    match name {
        // BERT-Base with int8 weights: the fp32 model's embedding tables
        // alone exceed the deployment package cap.
        "bert-w8" => Ok(zoo::bert_base().quantized(1)),
        _ => zoo::by_name(name).ok_or_else(|| format!("unknown model {name}")),
    }
}

/// The platform and planner configuration every workload starts from:
/// planning on `threads` workers (0 = all cores), serving on 64 warm-pool
/// lanes executed by `serve_threads` workers.
pub fn config(batch: u64, threads: usize, serve_threads: usize) -> AmpsConfig {
    AmpsConfig::default()
        .with_batch(batch)
        .with_threads(threads)
        .with_serve_lanes(64)
        .with_serve_threads(serve_threads)
}

/// `cfg` under an SLO (or none).
pub fn with_slo(cfg: &AmpsConfig, slo_s: Option<f64>) -> AmpsConfig {
    AmpsConfig {
        slo_s,
        ..cfg.clone()
    }
}

/// `cfg` with a different planner thread count.
pub fn with_threads(cfg: &AmpsConfig, threads: usize) -> AmpsConfig {
    cfg.clone().with_threads(threads)
}

/// `cfg` with a different serving thread count.
pub fn with_serve_threads(cfg: &AmpsConfig, threads: usize) -> AmpsConfig {
    cfg.clone().with_serve_threads(threads)
}

/// `cfg` under the failure regime of the adaptive workload: lambda
/// crashes and cold-start failures at `fault_rate` each, a storage
/// backend failing `store_failure_rate` of its requests, and `pre_warm`
/// instances per function warmed before the first arrival under the
/// default keep-alive. Hangs are left out: each bills and waits out the
/// whole 900-s timeout, so their count alone would set the run's dollars
/// and mean latency (measured: ±6% across fault seeds at a 0.5% rate).
pub fn with_failures(
    cfg: &AmpsConfig,
    fault_rate: f64,
    fault_seed: u64,
    store_failure_rate: f64,
    pre_warm: usize,
) -> AmpsConfig {
    AmpsConfig {
        store: StoreKind::flaky_s3(store_failure_rate),
        ..cfg.clone()
    }
    .with_faults(FaultPlan {
        timeout_rate: 0.0,
        ..FaultPlan::uniform(fault_rate, fault_seed)
    })
    .with_warm_pool(WarmPoolPolicy {
        pre_warm,
        ..WarmPoolPolicy::lambda_default()
    })
}

/// Planner counters of one planning call, chain and DAG alike.
#[derive(Debug, Clone, Default)]
pub struct PlanStats {
    pub cuts: usize,
    pub miqps_solved: usize,
    pub miqps_pruned: usize,
    pub bb_nodes: usize,
    pub qp_relaxations: usize,
    pub warm_start_hits: usize,
    pub column_hits: usize,
    pub column_misses: usize,
    pub pass1_s: f64,
    pub pass2_s: f64,
    pub dag_search_s: f64,
    pub dag_trials: usize,
    pub node_memo_hits: usize,
    pub node_memo_misses: usize,
    pub spine_span_hits: usize,
    pub spine_spans_solved: usize,
}

impl PlanStats {
    /// Adds `other`'s counters and times to these.
    pub fn add(&mut self, other: &PlanStats) {
        self.cuts += other.cuts;
        self.miqps_solved += other.miqps_solved;
        self.miqps_pruned += other.miqps_pruned;
        self.bb_nodes += other.bb_nodes;
        self.qp_relaxations += other.qp_relaxations;
        self.warm_start_hits += other.warm_start_hits;
        self.column_hits += other.column_hits;
        self.column_misses += other.column_misses;
        self.pass1_s += other.pass1_s;
        self.pass2_s += other.pass2_s;
        self.dag_search_s += other.dag_search_s;
        self.dag_trials += other.dag_trials;
        self.node_memo_hits += other.node_memo_hits;
        self.node_memo_misses += other.node_memo_misses;
        self.spine_span_hits += other.spine_span_hits;
        self.spine_spans_solved += other.spine_spans_solved;
    }
}

/// The outcome of one planning request: the chain incumbent, the
/// branch-parallel plan when it wins, and the planner's counters.
#[derive(Debug, Clone)]
pub struct Planned {
    pub chain: ExecutionPlan,
    pub dag: Option<DagPlan>,
    pub stats: PlanStats,
}

impl Planned {
    /// Predicted (seconds, dollars) of the plan that would be deployed.
    pub fn effective(&self) -> (f64, f64) {
        match &self.dag {
            Some(d) => (d.predicted_time_s, d.predicted_cost),
            None => (self.chain.predicted_time_s, self.chain.predicted_cost),
        }
    }
}

/// Plans `graph` under `cfg`: the chain optimizer, or the chain-vs-DAG
/// optimizer when `dag` is set.
pub fn plan(graph: &LayerGraph, cfg: &AmpsConfig, dag: bool) -> Result<Planned, String> {
    let opt = Optimizer::new(cfg.clone());
    let (chain, dag_plan, search) = if dag {
        let r = opt.optimize_dag(graph).map_err(|e| e.to_string())?;
        (r.chain, r.dag, Some(r.search))
    } else {
        (opt.optimize(graph).map_err(|e| e.to_string())?, None, None)
    };
    let search = search.unwrap_or_default();
    let stats = PlanStats {
        cuts: chain.cuts_considered,
        miqps_solved: chain.miqps_solved,
        miqps_pruned: chain.miqps_pruned,
        bb_nodes: chain.bb_nodes,
        qp_relaxations: chain.qp_relaxations,
        warm_start_hits: chain.warm_start_hits,
        column_hits: chain.column_cache_hits,
        column_misses: chain.column_cache_misses,
        pass1_s: chain.pass1_time.as_secs_f64(),
        pass2_s: chain.pass2_time.as_secs_f64(),
        dag_search_s: search.search_time.as_secs_f64(),
        dag_trials: search.trials_evaluated,
        node_memo_hits: search.node_memo_hits,
        node_memo_misses: search.node_memo_misses,
        spine_span_hits: search.spine_span_hits,
        spine_spans_solved: search.spine_spans_solved,
    };
    Ok(Planned {
        chain: chain.plan,
        dag: dag_plan,
        stats,
    })
}

/// Checks a planning outcome: both plans are structurally valid, the
/// planner's own predictor re-derives each plan's predicted time and cost
/// within 1e-9 relative, and the deployed plan meets the SLO.
pub fn check_plan(graph: &LayerGraph, cfg: &AmpsConfig, p: &Planned) -> Result<(), String> {
    let n = graph.num_layers();
    let profile = Profile::batched(graph, cfg.batch_size);
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs());
    p.chain.validate(n)?;
    let mut chain = p.chain.clone();
    if !predict(&profile, &mut chain, cfg)
        || !close(chain.predicted_time_s, p.chain.predicted_time_s)
        || !close(chain.predicted_cost, p.chain.predicted_cost)
    {
        return Err(format!(
            "{}: chain prediction does not re-derive",
            graph.name
        ));
    }
    if let Some(d) = &p.dag {
        d.validate(n)?;
        let mut dag = d.clone();
        if !predict_dag(&profile, &mut dag, cfg)
            || !close(dag.predicted_time_s, d.predicted_time_s)
            || !close(dag.predicted_cost, d.predicted_cost)
        {
            return Err(format!("{}: DAG prediction does not re-derive", graph.name));
        }
    }
    if let Some(slo) = cfg.slo_s {
        let (time, _) = p.effective();
        if time > slo * (1.0 + 1e-9) {
            return Err(format!(
                "{}: plan takes {time} s over SLO {slo} s",
                graph.name
            ));
        }
    }
    Ok(())
}

/// `plan` as a DAG: the branch-parallel plan, or the chain incumbent
/// wrapped as a chain-shaped DAG.
pub fn effective_dag(graph: &LayerGraph, p: &Planned) -> DagPlan {
    p.dag
        .clone()
        .unwrap_or_else(|| DagPlan::from_chain(&p.chain, |k| graph.cut_transfer_bytes(k)))
}

/// Arrival-process shapes the workloads use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Poisson,
    MultiTenant,
    FlashCrowd,
}

/// An open-loop arrival process: `requests` arrivals at mean `rate_rps`.
#[derive(Debug, Clone)]
pub struct Load(LoadSpec);

impl Load {
    pub fn new(shape: Shape, rate_rps: f64, requests: usize, seed: u64) -> Self {
        let spec = LoadSpec::poisson(rate_rps, requests, seed);
        Load(match shape {
            Shape::Poisson => spec,
            Shape::MultiTenant => spec.with_shape(ArrivalShape::multi_tenant()),
            Shape::FlashCrowd => spec.with_shape(ArrivalShape::flash_crowd()),
        })
    }

    pub fn requests(&self) -> usize {
        self.0.requests
    }

    /// Generates the arrival instants.
    pub fn arrivals(&self) -> Vec<f64> {
        self.0.arrivals()
    }
}

/// Digest of every field that defines a planning outcome's plans.
pub fn plan_digest(p: &Planned) -> Digest {
    let mut d = Digest::default()
        .f64(p.chain.predicted_time_s)
        .f64(p.chain.predicted_cost);
    for q in &p.chain.partitions {
        d = d
            .word(q.start as u64)
            .word(q.end as u64)
            .word(u64::from(q.memory_mb));
    }
    if let Some(dag) = &p.dag {
        d = d.f64(dag.predicted_time_s).f64(dag.predicted_cost);
        for v in &dag.nodes {
            d = d
                .word(v.start as u64)
                .word(v.end as u64)
                .word(u64::from(v.memory_mb));
        }
        for o in &dag.objects {
            d = d.word(o.producer as u64).word(o.bytes);
            for &c in &o.consumers {
                d = d.word(c as u64);
            }
        }
    }
    d
}

/// What the benchmark reads off one load report.
#[derive(Debug, Clone, Copy)]
pub struct Served {
    /// Digest of every simulated output of the run.
    pub digest: Digest,
    pub dollars: f64,
    pub latency_sum_s: f64,
    pub successes: usize,
    pub failures: usize,
    pub plan_misses: u64,
    pub replans: u64,
    /// Every latency is finite and non-negative.
    pub latencies_valid: bool,
}

/// Summarizes a load report.
pub fn served(r: &LoadReport) -> Served {
    let mut d = Digest::default()
        .f64(r.dollars)
        .f64(r.idle_dollars)
        .f64(r.makespan_s)
        .word(r.failures as u64)
        .word(r.cold_starts as u64)
        .word(r.invocations)
        .word(r.replans)
        .word(r.plan_hits)
        .word(r.plan_misses);
    for &l in &r.latencies_s {
        d = d.f64(l);
    }
    Served {
        digest: d,
        dollars: r.dollars,
        latency_sum_s: r.latencies_s.iter().sum(),
        successes: r.latencies_s.len(),
        failures: r.failures,
        plan_misses: r.plan_misses,
        replans: r.replans,
        latencies_valid: r.latencies_s.iter().all(|l| l.is_finite() && *l >= 0.0),
    }
}

/// Open-loop serving of a chain plan.
pub fn run_chain(
    graph: &LayerGraph,
    plan: &ExecutionPlan,
    cfg: &AmpsConfig,
    load: &Load,
) -> Result<LoadReport, String> {
    run_open_loop(graph, plan, cfg, &load.0)
}

/// Open-loop serving of a branch-parallel DAG plan.
pub fn run_dag(
    graph: &LayerGraph,
    plan: &DagPlan,
    cfg: &AmpsConfig,
    load: &Load,
) -> Result<LoadReport, String> {
    run_open_loop_dag(graph, plan, cfg, &load.0)
}

/// Open-loop serving with epoch re-planning over effective plans, the
/// plan cache seeded by one DAG sweep over `tiers`.
pub fn run_adaptive(
    graph: &LayerGraph,
    cfg: &AmpsConfig,
    load: &Load,
    epoch_requests: usize,
    tiers: &[f64],
) -> Result<LoadReport, String> {
    let spec = AdaptiveSpec::new(epoch_requests, tiers.to_vec());
    run_adaptive_loop_dag(graph, cfg, &load.0, &spec)
}

// ---- Layer replays: the public calls each planning and serving layer
// ---- makes, invoked one at a time from outside.

/// The per-layer profile `Profile::batched` builds.
pub struct LayerProfile(Profile);

/// Profiles `graph` at `batch`.
pub fn profile(graph: &LayerGraph, batch: u64) -> LayerProfile {
    LayerProfile(Profile::batched(graph, batch))
}

/// Enumerates the candidate cuts the planner considers.
pub fn cuts(profile: &LayerProfile, cfg: &AmpsConfig) -> Vec<Vec<usize>> {
    enumerate_cuts(&profile.0, cfg)
}

/// Evaluates every cut's memory columns through one fresh segment-column
/// cache, as the planner's pass 1 does. Returns `(cut index, separable
/// minimum cost)` of every feasible cut.
pub fn columns(profile: &LayerProfile, cuts: &[Vec<usize>], cfg: &AmpsConfig) -> Vec<(usize, f64)> {
    let cache = SegmentColumnCache::new();
    cuts.iter()
        .enumerate()
        .filter_map(|(i, cut)| {
            let cols = cache.columns_for_cut(&profile.0, cut, cfg)?;
            Some((i, separable_min_cost_cols(&cols).2))
        })
        .collect()
}

/// A cut's assembled MIQP.
pub struct Miqp(miqp_build::CutMiqp);

/// Assembles the MIQP of one cut (columns, presolve, SLO row).
pub fn build_miqp(profile: &LayerProfile, cut: &[usize], cfg: &AmpsConfig) -> Option<Miqp> {
    miqp_build::build(&profile.0, cut, cfg).map(Miqp)
}

/// Solves one MIQP by branch and bound under `cfg`'s solver settings.
/// Returns the nodes expanded.
pub fn solve_miqp_bb(m: &Miqp, cfg: &AmpsConfig) -> usize {
    let opts = BbOptions {
        convexify: cfg.convexify,
        warm_start: cfg.bb_warm_start,
        ..Default::default()
    };
    solve_miqp(&m.0.problem, opts).stats.nodes
}

/// What a serving replay deploys.
#[derive(Debug, Clone)]
pub enum Target {
    Chain(ExecutionPlan),
    Dag(DagPlan),
}

impl Target {
    /// `(first layer, last layer, memory MB)` of every function.
    pub fn functions(&self) -> Vec<(usize, usize, u32)> {
        match self {
            Target::Chain(p) => p
                .partitions
                .iter()
                .map(|q| (q.start, q.end, q.memory_mb))
                .collect(),
            Target::Dag(d) => d
                .nodes
                .iter()
                .map(|v| (v.start, v.end, v.memory_mb))
                .collect(),
        }
    }

    /// Bytes of every inter-function storage object one request writes.
    pub fn object_bytes(&self, graph: &LayerGraph) -> Vec<u64> {
        match self {
            Target::Chain(p) => p.partitions[..p.partitions.len() - 1]
                .iter()
                .map(|q| graph.cut_transfer_bytes(q.end))
                .collect(),
            Target::Dag(d) => d.objects.iter().map(|o| o.bytes).collect(),
        }
    }
}

/// A deployment on its own platform, ready to serve.
pub struct Deployed {
    coord: Coordinator,
    platform: Platform,
    dep: Dep,
}

enum Dep {
    Chain(Deployment),
    Dag(DagDeployment),
}

/// Deploys `target` on a fresh platform configured by `cfg`.
pub fn deploy(graph: &LayerGraph, target: &Target, cfg: &AmpsConfig) -> Result<Deployed, String> {
    let coord = Coordinator::new(cfg.clone());
    let mut platform = coord.platform();
    let dep = match target {
        Target::Chain(p) => Dep::Chain(
            coord
                .deploy(&mut platform, graph, p)
                .map_err(|e| e.to_string())?,
        ),
        Target::Dag(d) => Dep::Dag(
            coord
                .deploy_dag(&mut platform, graph, d)
                .map_err(|e| e.to_string())?,
        ),
    };
    Ok(Deployed {
        coord,
        platform,
        dep,
    })
}

/// What the benchmark reads off one served trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSummary {
    pub requests: usize,
    pub failures: usize,
    pub invocations: u64,
    pub retries: u64,
    pub cold_starts: usize,
    pub dollars: f64,
}

/// Serves `arrivals` on a deployment through the work-stealing engine
/// (chain or DAG, as deployed). The report stays alive in the returned
/// value so its memory can be measured.
pub fn serve_trace(d: &mut Deployed, arrivals: &[f64]) -> (TraceSummary, impl Sized) {
    let report: TraceReport = match &d.dep {
        Dep::Chain(dep) => d.coord.serve_trace(&mut d.platform, dep, arrivals),
        Dep::Dag(dep) => d.coord.serve_trace_dag(&mut d.platform, dep, arrivals),
    };
    let summary = TraceSummary {
        requests: report.requests.len(),
        failures: report.failures,
        invocations: report.invocations,
        retries: report.requests.iter().map(|r| u64::from(r.retries)).sum(),
        cold_starts: report.cold_starts,
        dollars: report.dollars,
    };
    (summary, report)
}

/// Mean nanoseconds of one `Platform::invoke` on `target`'s functions,
/// cycling through them `n` times: warm (each call starts after the
/// previous one on that function finished, inside the keep-alive) or
/// cold (each call starts after the keep-alive lapsed).
pub fn invoke_ns(
    graph: &LayerGraph,
    target: &Target,
    cfg: &AmpsConfig,
    n: usize,
    warm: bool,
) -> Result<f64, String> {
    let mut platform = Platform::new(cfg.quotas, cfg.prices, cfg.perf, cfg.store);
    let mut fns = Vec::new();
    for (i, (start, end, mem)) in target.functions().into_iter().enumerate() {
        let work = PartitionWork::from_segment(graph, start, end);
        let (fid, _) = platform
            .deploy(work.function_spec(format!("f{i}"), mem))
            .map_err(|e| e.to_string())?;
        fns.push((fid, work.invocation(None, None), 0.0f64));
    }
    // The platform runs the default keep-alive policy whatever `cfg`
    // provisions, so "cold" means a start past that horizon.
    let gap = if warm {
        1.0
    } else {
        2.0 * WarmPoolPolicy::lambda_default().keep_alive_s
    };
    let t0 = std::time::Instant::now();
    for i in 0..n {
        let k = i % fns.len();
        let (fid, work, next) = &mut fns[k];
        let out = platform
            .invoke(*fid, *next, work)
            .map_err(|e| e.reason.to_string())?;
        *next = out.end + gap;
    }
    Ok(t0.elapsed().as_nanos() as f64 / n as f64)
}

/// Mean nanoseconds of one storage put plus get at each of `sizes`,
/// cycling `n` times on `cfg`'s storage backend.
pub fn store_put_get_ns(cfg: &AmpsConfig, sizes: &[u64], n: usize) -> Result<f64, String> {
    let mut store = ObjectStore::new(StoreKind {
        failure_rate: 0.0,
        ..cfg.store
    });
    let mut ledger = CostLedger::new();
    let t0 = std::time::Instant::now();
    for i in 0..n {
        let key = store.fresh_key();
        let bytes = sizes[i % sizes.len()];
        store
            .put_id(key, bytes, i as f64, &cfg.prices, &mut ledger)
            .map_err(|e| e.to_string())?;
        store
            .get_id(key, &cfg.prices, &mut ledger)
            .map_err(|e| e.to_string())?;
    }
    Ok(t0.elapsed().as_nanos() as f64 / n as f64)
}
