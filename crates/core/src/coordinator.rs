//! The Coordinator component (paper §4): package each partition, deploy
//! the lambdas, run invocations that hand tensors to each other through
//! storage, return the prediction.
//!
//! # One engine (DESIGN.md §6c–§7)
//!
//! Every plan is served as a DAG of partition lambdas. A branch-parallel
//! [`DagPlan`] deploys as is ([`Coordinator::deploy_dag`]); the paper's
//! chain ([`ExecutionPlan`]) is lowered through [`DagPlan::from_chain`]
//! first ([`Coordinator::deploy`], or [`Coordinator::deploy_batch`] for
//! requests of several images), so a chain is simply a DAG whose every
//! node reads its predecessor's one object. Node `v` of a request starts
//! at its *checkpoint-ready* instant — the latest completion among the
//! producers of the objects it reads — and every batch, trace and
//! pipelined mode, and SerFer's transition-delayed requests, run on one
//! per-request body (that recurrence, one invoke/retry loop and one
//! dollar/waste accounting) and one lane runner.
//!
//! # Sharded serving
//!
//! The batch/trace engines split the platform into
//! [`AmpsConfig::serve_lanes`] warm-pool shards ("lanes"). Request `i` is
//! pinned to lane `i % serve_lanes` and only ever sees that lane's warm
//! instances — a would-be warm hit on another lane's container is simply a
//! cold start on its own lane (the reconciliation rule: shards are
//! disjoint by construction, so no cross-shard state ever needs merging
//! mid-run). Worker threads *steal whole chunks of a lane's request
//! sequence* from a shared queue: a lane's state (platform, scratch,
//! results) travels with its task, so which worker runs which chunk can
//! never change what the chunk computes. That keeps every report
//! bit-identical at every thread count: the lane a request runs on, the
//! per-request RNG streams ([`Platform::begin_request`]), the order of
//! requests within a lane, and the merge order (requests in global index
//! order, shards in lane order) are all functions of the request index
//! alone — workers only race for *which lane advances next*.
//!
//! A trace report is built from the base platform and the settled shards
//! directly. Whether the shards then merge into the base platform is the
//! caller's choice, made by ownership ([`TraceBase`]): a borrowed platform
//! absorbs them ([`Platform::absorb_shards`]) so it can serve again; an
//! owned one, such as the open loops build, drops them unmerged.

use crate::config::AmpsConfig;
use crate::plan::{DagPlan, ExecutionPlan};
use ampsinf_faas::platform::{
    DeployError, FailedInvocation, FunctionId, InvocationWork, InvokeError, Platform,
};
use ampsinf_faas::runtime::{PartitionWork, StationPool};
use ampsinf_faas::InvocationOutcome;
use ampsinf_model::LayerGraph;
use std::iter::StepBy;
use std::ops::Range;

/// One retried partition attempt: what failed, and the backoff the
/// coordinator waited before re-invoking. Because intermediates live in
/// S3, the retry resumed from the last checkpointed boundary — only the
/// failed partition re-ran.
#[derive(Debug, Clone)]
pub struct RetryRecord {
    /// Node index (chain position on a chain plan) of the partition that
    /// failed.
    pub lambda: usize,
    /// The failed attempt, with its billing.
    pub failed: FailedInvocation,
    /// Exponential backoff waited after the failure, seconds.
    pub backoff_s: f64,
}

/// Why a request could not be served, plus what finding out cost.
#[derive(Debug, Clone)]
pub struct ServeError {
    /// The final attempt's failure.
    pub reason: InvokeError,
    /// Node index (chain position on a chain plan) of the partition that
    /// exhausted its budget.
    pub lambda: usize,
    /// Attempts made on that partition (1 = no retries).
    pub attempts: u32,
    /// Wall-clock from the request trigger to giving up.
    pub elapsed_s: f64,
    /// Dollars the doomed request billed before giving up (successful
    /// upstream partitions plus every failed attempt).
    pub dollars: f64,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "lambda {} failed after {} attempt(s), {:.2} s, ${:.6}: {}",
            self.lambda, self.attempts, self.elapsed_s, self.dollars, self.reason
        )
    }
}

impl std::error::Error for ServeError {}

/// Measurements of one served request (the paper's per-figure metrics).
#[derive(Debug, Clone)]
pub struct JobReport {
    /// Job deployment time (once per job).
    pub deploy_s: f64,
    /// Sum of per-lambda model+weights loading time (paper Fig. 5).
    pub load_s: f64,
    /// Sum of per-lambda framework-import time (not part of Fig. 5's
    /// "loading", reported separately).
    pub import_s: f64,
    /// Sum of per-lambda compute time (paper Fig. 6 "prediction time").
    pub predict_s: f64,
    /// Wall-clock from trigger to prediction (excludes deployment): the
    /// critical path, which on a chain is the whole chain.
    pub inference_s: f64,
    /// End-to-end completion: deployment + inference (paper §2.2.1).
    pub e2e_s: f64,
    /// Dollars directly billed to this request (compute + requests +
    /// storage fees), including every failed attempt's bill.
    pub dollars: f64,
    /// Per-lambda successful outcomes in node order.
    pub outcomes: Vec<InvocationOutcome>,
    /// Failed attempts that were retried, in occurrence order.
    pub retries: Vec<RetryRecord>,
    /// Wall-clock lost to failures: retried attempts, their backoffs, and
    /// storage-retry stalls inside successful invocations. Zero on a
    /// clean run.
    pub wasted_s: f64,
    /// Dollars lost to failures: failed attempts' bills plus the marginal
    /// GB-seconds the storage stalls billed. Zero on a clean run; part of
    /// `dollars`.
    pub wasted_dollars: f64,
}

/// One image of a batch that exhausted its retry budget.
#[derive(Debug, Clone)]
pub struct BatchFailure {
    /// Batch position of the failed image.
    pub image: usize,
    /// How and at what cost it failed.
    pub error: ServeError,
}

/// A batch serving result (paper §5.4). Infallible: a dead image no
/// longer poisons the batch — it lands in `failures` while the rest of
/// the batch completes.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Wall-clock completion of the whole batch (excluding deployment).
    pub completion_s: f64,
    /// Completion including the one-off deployment.
    pub e2e_s: f64,
    /// Total dollars for the batch, failed images included.
    pub dollars: f64,
    /// Per-image reports of the successful images.
    pub jobs: Vec<JobReport>,
    /// Images that exhausted their retry budget.
    pub failures: Vec<BatchFailure>,
    /// Wall-clock lost to failures across the batch (successful images'
    /// retry/backoff/storage-stall time plus failed images' full elapsed
    /// time).
    pub wasted_s: f64,
    /// Dollars lost to failures across the batch (part of `dollars`).
    pub wasted_dollars: f64,
}

impl BatchReport {
    /// Number of images served successfully.
    pub fn succeeded(&self) -> usize {
        self.jobs.len()
    }

    /// Number of images that failed past their retry budget.
    pub fn failed(&self) -> usize {
        self.failures.len()
    }
}

/// Per-node invocation scalars of a deployed node, precomputed at deploy
/// time (by [`PartitionWork::batch_work`]) so the serving hot path only
/// patches storage keys. Kept to the four scalars rather than a keyless
/// [`InvocationWork`], which would carry two empty `Vec` headers per node.
#[derive(Debug, Clone, Copy)]
struct NodeWork {
    load_bytes: u64,
    flops: u64,
    resident_bytes: u64,
    tmp_bytes: u64,
}

/// A deployed plan: one partition lambda per DAG node, wired by the
/// storage objects between them ([`Coordinator::deploy_dag`], or
/// [`Coordinator::deploy`] for a chain). Node `v` becomes ready when
/// every object it reads has been written — fan-out nodes of a scatter
/// all read the same object and therefore start concurrently; the gather
/// node waits for the last branch; a chain node waits for its
/// predecessor.
#[derive(Debug, Clone)]
pub struct Deployment {
    /// Function ids in node (topological) order — chain order for a
    /// chain.
    pub functions: Vec<FunctionId>,
    /// Wall-clock deployment duration (uploads proceed in parallel; the
    /// paper counts this once per job in its end-to-end §2.2 times).
    pub deploy_s: f64,
    /// Per-node invocation scalars in node order.
    scalars: Vec<NodeWork>,
    /// CSR offsets into `reads_obj`/`read_producer`: node `v` reads the
    /// entries in `reads_off[v]..reads_off[v + 1]`.
    reads_off: Vec<u32>,
    /// Object index of every read, node-major, in object order within a
    /// node — the per-request invocation template the hot path patches
    /// keys into.
    reads_obj: Vec<u32>,
    /// Producer node of the matching `reads_obj` entry, so the ready-time
    /// recurrence folds over one flat slice with no per-object
    /// indirection.
    read_producer: Vec<u32>,
    /// CSR offsets into `writes`: node `v` writes the entries in
    /// `writes_off[v]..writes_off[v + 1]`.
    writes_off: Vec<u32>,
    /// `(object index, bytes)` of every write, node-major, in object
    /// order within a node.
    writes: Vec<(u32, u64)>,
    /// Number of inter-node storage objects.
    num_objects: usize,
}

/// The former name of [`Deployment`]. It exists only because the frozen
/// `ampsbench` harness still names it; the next benchmark change removes
/// it.
pub type DagDeployment = Deployment;

impl Deployment {
    /// Number of inter-node storage objects.
    pub fn num_objects(&self) -> usize {
        self.num_objects
    }

    /// Object indices node `v` reads, in object order.
    #[inline]
    fn reads_of(&self, v: usize) -> &[u32] {
        &self.reads_obj[self.reads_off[v] as usize..self.reads_off[v + 1] as usize]
    }

    /// Producer nodes of the objects node `v` reads (parallel to
    /// [`reads_of`](Self::reads_of)).
    #[inline]
    fn producers_of(&self, v: usize) -> &[u32] {
        &self.read_producer[self.reads_off[v] as usize..self.reads_off[v + 1] as usize]
    }

    /// `(object, bytes)` pairs node `v` writes, in object order.
    #[inline]
    fn writes_of(&self, v: usize) -> &[(u32, u64)] {
        &self.writes[self.writes_off[v] as usize..self.writes_off[v + 1] as usize]
    }
}

/// Per-node observability of a trace (DESIGN.md §7): how long every
/// node's sandboxes executed, how long ready work sat waiting in front of
/// each node, and how much of the requests' end-to-end latency each node
/// sat on. Accumulated per lane inside its serving scratch and summed in
/// lane order, so the values are bit-identical at every thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct DagNodeStats {
    /// Execution stations per node the occupancy is measured against:
    /// `pipeline_depth × lanes` for the pipelined engine, whose stations
    /// genuinely bound per-node concurrency. The sequential engine
    /// scales instances out on demand (no per-node capacity bound) and
    /// reports 0 — use [`DagNodeStats::mean_concurrency`] there.
    pub stations_per_node: usize,
    /// Successful-attempt execution seconds per node.
    pub busy_s: Vec<f64>,
    /// Seconds requests spent stalled in front of each node: the gap
    /// between its inputs being checkpointed and the successful attempt
    /// starting (retry backoff, and station waits when pipelined), plus
    /// storage-retry stalls inside the attempt.
    pub stall_s: Vec<f64>,
    /// Seconds each node contributed to the critical paths of successful
    /// requests: per request, the walk from the last-finishing node back
    /// through each node's latest-finishing input producer (first such
    /// producer on ties) accumulates the successful-attempt duration of
    /// every node on the path.
    pub crit_s: Vec<f64>,
    /// Wall-clock span of the run (first arrival → last completion).
    pub span_s: f64,
}

impl DagNodeStats {
    /// Fraction of the run each node's stations spent executing (0 when
    /// the engine has no station bound — see
    /// [`DagNodeStats::stations_per_node`]).
    pub fn occupancy(&self, node: usize) -> f64 {
        if self.span_s > 0.0 && self.stations_per_node > 0 {
            self.busy_s[node] / (self.span_s * self.stations_per_node as f64)
        } else {
            0.0
        }
    }

    /// Mean number of concurrently-executing instances of `node` over
    /// the run (busy seconds per wall-clock second) — the scale-out
    /// measure for the unbounded sequential engine.
    pub fn mean_concurrency(&self, node: usize) -> f64 {
        if self.span_s > 0.0 {
            self.busy_s[node] / self.span_s
        } else {
            0.0
        }
    }

    /// Fraction of all critical-path seconds attributed to `node`.
    pub fn critical_share(&self, node: usize) -> f64 {
        let total: f64 = self.crit_s.iter().sum();
        if total > 0.0 {
            self.crit_s[node] / total
        } else {
            0.0
        }
    }

    /// Total stall across all nodes.
    pub fn stall_s(&self) -> f64 {
        self.stall_s.iter().sum()
    }

    /// Total busy across all nodes.
    pub fn busy_s(&self) -> f64 {
        self.busy_s.iter().sum()
    }
}

/// One node's slot in [`ServeScratch`]: its times for the request in
/// flight next to its accumulators across the lane's requests, so the
/// hot loop touches one cache line per node.
#[derive(Debug, Clone, Copy, Default)]
struct NodeSlot {
    /// Completion time for the request in flight.
    finish: f64,
    /// Successful-attempt duration for the request in flight (the
    /// critical-path input).
    dur: f64,
    busy_s: f64,
    stall_s: f64,
    crit_s: f64,
}

/// Reusable per-request buffers for the serving hot path: one
/// [`InvocationWork`] per node whose storage-key slots are patched in
/// place each request, the per-node completion/duration times the ready
/// recurrence and critical-path walk fold over, and the per-node
/// busy/stall/critical accumulators the trace engines merge in lane
/// order. A scratch serves the deployment it was built for.
#[derive(Debug, Clone)]
struct ServeScratch {
    works: Vec<InvocationWork>,
    nodes: Vec<NodeSlot>,
    /// Whether `works` already holds the deployment's profiles, so a
    /// request only patches its keys in.
    primed: bool,
}

impl ServeScratch {
    /// Scratch sized for `dep`'s node count.
    fn for_deployment(dep: &Deployment) -> Self {
        let k = dep.functions.len();
        ServeScratch {
            works: vec![InvocationWork::default(); k],
            nodes: vec![NodeSlot::default(); k],
            primed: false,
        }
    }

    /// Draws this request's object keys — one fresh contiguous block in
    /// object order, so object `o` (boundary `o` on a chain) is
    /// `base.offset(o)` — and points every node's read/write slots at
    /// them. The first call builds the full work profiles from the
    /// deployment's scalars; the wiring is fixed per plan, so every later
    /// call only patches keys into the existing slots: one allocator call
    /// plus O(reads + writes) key stores per request, with no Vec growth
    /// or clearing.
    #[inline]
    fn prepare_keys(&mut self, platform: &mut Platform, dep: &Deployment) {
        let base = platform.store.fresh_block(dep.num_objects());
        if self.primed {
            for (v, w) in self.works.iter_mut().enumerate() {
                for (slot, &o) in dep.reads_of(v).iter().enumerate() {
                    w.reads[slot] = base.offset(o);
                }
                for (slot, &(o, _)) in dep.writes_of(v).iter().enumerate() {
                    w.writes[slot].0 = base.offset(o);
                }
            }
            return;
        }
        for (v, w) in self.works.iter_mut().enumerate() {
            let s = dep.scalars[v];
            w.load_bytes = s.load_bytes;
            w.flops = s.flops;
            w.resident_bytes = s.resident_bytes;
            w.tmp_bytes = s.tmp_bytes;
            w.reads
                .extend(dep.reads_of(v).iter().map(|&o| base.offset(o)));
            w.writes.extend(
                dep.writes_of(v)
                    .iter()
                    .map(|&(o, bytes)| (base.offset(o), bytes)),
            );
        }
        self.primed = true;
    }

    /// Drains this lane's per-node accumulators into `stats` (summed in
    /// lane order by the trace engines).
    fn drain_into(&mut self, stats: &mut DagNodeStats) {
        for (v, n) in self.nodes.iter().enumerate() {
            stats.busy_s[v] += n.busy_s;
            stats.stall_s[v] += n.stall_s;
            stats.crit_s[v] += n.crit_s;
        }
    }
}

/// Scalar per-request result of [`Coordinator::serve_trace`] — everything
/// the load generator aggregates, without the per-outcome detail of a
/// [`JobReport`] (which would dominate allocation on 100k-request runs).
#[derive(Debug, Clone, PartialEq)]
pub struct RequestSummary {
    /// Request arrival time.
    pub arrival_s: f64,
    /// Arrival → prediction (success) or arrival → gave-up (failure).
    pub latency_s: f64,
    /// Dollars this request billed, failed attempts included.
    pub dollars: f64,
    /// Failed attempts that were retried.
    pub retries: u32,
    /// Wall-clock lost to failures (see [`JobReport::wasted_s`]).
    pub wasted_s: f64,
    /// Dollars lost to failures (part of `dollars`).
    pub wasted_dollars: f64,
    /// Whether the request produced a prediction.
    pub ok: bool,
}

// `Coordinator::run_lanes` fills one `Option` slot per request and
// unwraps the slots into the report's vector in place, which needs the
// slot to be no larger than the summary (the `ok` flag's spare values
// hold `None`).
const _: () =
    assert!(std::mem::size_of::<Option<RequestSummary>>() <= std::mem::size_of::<RequestSummary>());

/// Aggregated pipeline-station measurements of a pipelined run
/// (DESIGN.md §6e): per-stage occupancy and stall, plus the span the
/// utilization is measured against. Summed over lanes in lane order, so
/// the values are bit-identical at every thread count.
///
/// This is a station's view, not a node's: a station stays occupied
/// through failed attempts and their backoffs, and its stall is the wait
/// for a free station only. [`DagNodeStats`] counts successful attempts
/// as busy and retry backoff as stall, so under faults the two differ.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineStats {
    /// Total stations per stage across all lanes
    /// (`pipeline_depth × lanes`).
    pub stations_per_stage: usize,
    /// Station-occupied seconds per stage (the utilization numerator),
    /// indexed by node.
    pub stage_busy_s: Vec<f64>,
    /// Ready-but-waiting seconds per stage: how long requests whose input
    /// tensor was already checkpointed sat queued for a free station.
    /// Stage 0's stall is admission queueing; later stages' stall is the
    /// cost of an imbalanced cut (the quantity PipeServe partitions to
    /// minimize).
    pub stage_stall_s: Vec<f64>,
    /// Wall-clock span of the run (first entry → last completion).
    pub span_s: f64,
}

impl PipelineStats {
    /// Folds station pools (lane-major, one per node) into stats over a
    /// run spanning `span_s`.
    fn from_pools<'a>(
        stations_per_stage: usize,
        nodes: usize,
        pools: impl IntoIterator<Item = &'a [StationPool]>,
        span_s: f64,
    ) -> Self {
        let mut stats = PipelineStats {
            stations_per_stage,
            stage_busy_s: vec![0.0; nodes],
            stage_stall_s: vec![0.0; nodes],
            span_s,
        };
        for lane in pools {
            for (i, st) in lane.iter().enumerate() {
                stats.stage_busy_s[i] += st.busy_s();
                stats.stage_stall_s[i] += st.stall_s();
            }
        }
        stats
    }

    /// Total stall across all stages.
    pub fn stall_s(&self) -> f64 {
        self.stage_stall_s.iter().sum()
    }

    /// Per-stage utilization: busy seconds over the stage's total
    /// station-seconds (`stations_per_stage × span`).
    pub fn stage_utilization(&self) -> Vec<f64> {
        let denom = self.stations_per_stage as f64 * self.span_s;
        self.stage_busy_s
            .iter()
            .map(|&b| if denom > 0.0 { b / denom } else { 0.0 })
            .collect()
    }

    /// Mean utilization across stages.
    pub fn utilization(&self) -> f64 {
        let u = self.stage_utilization();
        if u.is_empty() {
            0.0
        } else {
            u.iter().sum::<f64>() / u.len() as f64
        }
    }
}

/// Result of [`Coordinator::serve_pipelined`] — the closed-loop pipelined
/// counterpart of [`Coordinator::serve_sequential`]'s [`BatchReport`],
/// reduced to the scalars the throughput comparison needs plus the
/// pipeline-station measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineReport {
    /// Wall-clock completion of the whole batch (excluding deployment).
    pub completion_s: f64,
    /// Completion including the one-off deployment.
    pub e2e_s: f64,
    /// Total dollars, failed requests included.
    pub dollars: f64,
    /// Requests that exhausted their retry budget.
    pub failed: usize,
    /// Per-request summaries in submission order.
    pub requests: Vec<RequestSummary>,
    /// Station occupancy / stall measurements.
    pub stats: PipelineStats,
    /// Idle warm seconds the platform's containers accrued between
    /// reuses during this run ([`Platform::warm_idle_accrued`] delta) —
    /// the "warm instances sitting idle" the pipeline exists to shrink.
    pub warm_idle_s: f64,
}

/// Result of serving an arrival trace through the sharded engine.
///
/// Bit-identical at every [`AmpsConfig::serve_threads`] setting; depends
/// on [`AmpsConfig::serve_lanes`] (a model parameter) only.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceReport {
    /// Per-request summaries, in arrival (request-index) order.
    pub requests: Vec<RequestSummary>,
    /// Total invocation dollars across all requests (settlement excluded).
    pub dollars: f64,
    /// At-rest storage settlement, billed at the last completion.
    pub settled_dollars: f64,
    /// Completion time of the last request (absolute, same clock as the
    /// arrivals).
    pub last_completion_s: f64,
    /// Cold starts across all partitions and lanes.
    pub cold_starts: usize,
    /// The largest function's count of sandboxes ever created, lanes
    /// summed ([`Platform::instance_count`]: its cold starts plus its
    /// pre-warmed instances), not a peak of live instances.
    pub peak_instances: usize,
    /// Requests that exhausted their retry budget.
    pub failures: usize,
    /// Lambda invocations attempted across all lanes (successes and
    /// failed attempts).
    pub invocations: u64,
    /// Instances pre-warmed by the warm-pool policy across all lanes.
    pub pre_warmed: usize,
    /// Idle warm-pool seconds settled at the last completion (see
    /// [`Platform::settle_warm_pool`]).
    pub idle_s: f64,
    /// Dollars the warm-pool policy billed for that idle time (0 unless
    /// the policy bills idle capacity; part of no other total).
    pub idle_dollars: f64,
    /// Pipeline-station measurements when the trace ran in pipelined mode
    /// ([`Coordinator::serve_trace_pipelined`]); `None` on the scale-out
    /// engine.
    pub pipeline: Option<PipelineStats>,
    /// Per-node busy/stall/critical-path measurements when the trace ran
    /// a single deployment ([`Coordinator::serve_trace`] and
    /// [`Coordinator::serve_trace_pipelined`]); `None` on the
    /// multi-deployment engine ([`Coordinator::serve_trace_assigned`]),
    /// whose node indices mean different things across deployments.
    pub dag_nodes: Option<DagNodeStats>,
}

/// How a node's invocation is admitted once its inputs are checkpointed:
/// at once (`()`, the scale-out engine), through the node's bounded
/// station pool (one [`StationPool`] per node, the pipelined engine), or
/// a fixed delay later while keeping every attempt ([`Recorder`], the
/// named modes). A station stays occupied through every retry and
/// backoff until the node's attempt chain resolves.
trait Admission {
    /// Station and start instant for node `v`, ready at `ready`.
    fn admit(&mut self, v: usize, ready: f64) -> (usize, f64);
    /// Frees node `v`'s `station`, occupied from `start` to `end`.
    fn release(&mut self, v: usize, station: usize, start: f64, end: f64);
    /// Node `v` succeeded with `out`.
    #[inline(always)]
    fn succeeded(&mut self, _v: usize, _out: InvocationOutcome) {}
    /// Node `v` failed with `failed` and is retried after `backoff_s`.
    #[inline(always)]
    fn retried(&mut self, _v: usize, _failed: FailedInvocation, _backoff_s: f64) {}
    /// Node `v` exhausted its retry budget with `failed`.
    #[inline(always)]
    fn gave_up(&mut self, _v: usize, _failed: FailedInvocation) {}
}

impl Admission for () {
    #[inline(always)]
    fn admit(&mut self, _v: usize, ready: f64) -> (usize, f64) {
        (0, ready)
    }

    #[inline(always)]
    fn release(&mut self, _v: usize, _station: usize, _start: f64, _end: f64) {}
}

impl Admission for Vec<StationPool> {
    #[inline]
    fn admit(&mut self, v: usize, ready: f64) -> (usize, f64) {
        self[v].admit(ready)
    }

    #[inline]
    fn release(&mut self, v: usize, station: usize, start: f64, end: f64) {
        self[v].release(station, start, end);
    }
}

/// The named modes' admission: node `v` starts `delay_s` after its inputs
/// are checkpointed (0 for AMPS-Inf; a workflow's state transition for
/// SerFer), and every outcome and failed attempt is kept for the
/// [`JobReport`] or [`ServeError`].
struct Recorder {
    delay_s: f64,
    outcomes: Vec<InvocationOutcome>,
    retries: Vec<RetryRecord>,
    failure: Option<(usize, FailedInvocation)>,
}

impl Admission for Recorder {
    #[inline]
    fn admit(&mut self, _v: usize, ready: f64) -> (usize, f64) {
        (0, ready + self.delay_s)
    }

    #[inline]
    fn release(&mut self, _v: usize, _station: usize, _start: f64, _end: f64) {}

    fn succeeded(&mut self, _v: usize, out: InvocationOutcome) {
        self.outcomes.push(out);
    }

    fn retried(&mut self, lambda: usize, failed: FailedInvocation, backoff_s: f64) {
        self.retries.push(RetryRecord {
            lambda,
            failed,
            backoff_s,
        });
    }

    fn gave_up(&mut self, v: usize, failed: FailedInvocation) {
        self.failure = Some((v, failed));
    }
}

/// The platform a trace serves on ([`Coordinator::serve_trace`] and its
/// pipelined and assigned variants). Ownership decides what becomes of
/// the trace's lane shards once the report is built:
///
/// * `&mut Platform` keeps them: every shard merges into the caller's
///   platform ([`Platform::absorb_shards`]) — warm pools, stored objects,
///   ledger and counters — so serving on it again sees the trace.
/// * An owned `Platform` drops them unmerged, with itself: a caller that
///   builds a platform for one trace and reads only the report (the open
///   loops) pays for no merge.
///
/// The report is the same either way: it is built from the base platform
/// and the shards before they merge or drop.
pub trait TraceBase {
    /// The platform the lanes fork from; its storage settles with theirs.
    fn platform(&mut self) -> &mut Platform;
    /// Ends the trace with its settled lane shards, in lane order.
    fn end_trace(self, shards: Vec<Platform>);
}

impl TraceBase for &mut Platform {
    fn platform(&mut self) -> &mut Platform {
        self
    }

    fn end_trace(self, shards: Vec<Platform>) {
        self.absorb_shards(shards);
    }
}

impl TraceBase for Platform {
    fn platform(&mut self) -> &mut Platform {
        self
    }

    fn end_trace(self, _shards: Vec<Platform>) {}
}

/// One lane's collection slot in [`Coordinator::run_lanes`]: its shard
/// platform and lane-carried state, filled exactly once.
type LaneSlot<S> = Option<(Platform, S)>;

/// The Coordinator: executes plans on a platform.
#[derive(Debug, Clone)]
pub struct Coordinator {
    cfg: AmpsConfig,
}

impl Coordinator {
    /// Creates a coordinator.
    pub fn new(cfg: AmpsConfig) -> Self {
        Coordinator { cfg }
    }

    /// The configuration this coordinator serves under.
    pub fn config(&self) -> &AmpsConfig {
        &self.cfg
    }

    /// Builds a platform matching this coordinator's configuration,
    /// including its fault injection plan.
    pub fn platform(&self) -> Platform {
        Platform::new(
            self.cfg.quotas,
            self.cfg.prices,
            self.cfg.perf,
            self.cfg.store,
        )
        .with_fault_plan(self.cfg.faults.clone())
        .with_warm_pool(self.cfg.warm_pool)
    }

    /// Packages and deploys every partition of a chain `plan` for one
    /// image per request: [`deploy_batch`](Self::deploy_batch) at batch 1.
    pub fn deploy(
        &self,
        platform: &mut Platform,
        graph: &LayerGraph,
        plan: &ExecutionPlan,
    ) -> Result<Deployment, DeployError> {
        self.deploy_batch(platform, graph, plan, 1)
    }

    /// Packages and deploys every partition of a chain `plan` for
    /// requests of `batch` images each (paper §5.4): the chain lowers
    /// through [`DagPlan::from_chain`] (one object per boundary, carrying
    /// the cut's transfer bytes times `batch`) into the deploy path of
    /// [`deploy_dag`](Self::deploy_dag), which scales every node's FLOPs,
    /// activations and the root's input by `batch` while its weights stay
    /// fixed — the same scaling as `Profile::batched`, so a plan made for
    /// `batch` serves what it predicts. Every serving mode then runs
    /// batches as its requests. A zero `batch` is
    /// [`DeployError::InvalidPlan`].
    pub fn deploy_batch(
        &self,
        platform: &mut Platform,
        graph: &LayerGraph,
        plan: &ExecutionPlan,
        batch: u64,
    ) -> Result<Deployment, DeployError> {
        if batch == 0 {
            return Err(DeployError::InvalidPlan("batch must be at least 1".into()));
        }
        plan.validate(graph.num_layers())
            .map_err(DeployError::InvalidPlan)?;
        let boundary = graph.boundary_transfer_bytes();
        let dag = DagPlan::from_chain(plan, |k| boundary[k] * batch);
        self.deploy_dag_with(platform, graph, &dag, &boundary, batch)
    }

    /// Packages and deploys every node of a DAG `plan`.
    ///
    /// Each node gets its own lambda (`{model}-node{v}`); each
    /// [`DagObject`](crate::plan::DagObject) becomes one storage object
    /// per request, uploaded once by its producer and downloaded once per
    /// consumer — the scatter/gather request fees and lifetime-billed
    /// bytes ride on exactly those transfers. The staged input that feeds
    /// a node's `/tmp` and resident footprint is the sum of the objects it
    /// reads (the root's image arrives with the trigger).
    ///
    /// **Known batch fidelity gap.** `deploy_dag` and
    /// [`deploy`](Self::deploy) build node work (FLOPs, activations, the
    /// root's input) for one image and ignore `cfg.batch_size`, while the
    /// planner's predictions and a DAG plan's object bytes come from
    /// `Profile::batched`. At batch 1 served equals predicted; above it
    /// the served run is cheaper and faster than the plan says. At batch
    /// 64 ResNet-50's chain predicts 370.00 s / $0.01493 and `deploy`
    /// serves 31.70 s / $0.001184 (a chain deployed with
    /// [`deploy_batch`](Self::deploy_batch) at 64 serves 370.00 s /
    /// $0.01493); Inception-v3's DAG predicts 560.99 s / $0.02755 and
    /// serves 113.65 s / $0.005484.
    pub fn deploy_dag(
        &self,
        platform: &mut Platform,
        graph: &LayerGraph,
        plan: &DagPlan,
    ) -> Result<Deployment, DeployError> {
        self.deploy_dag_with(platform, graph, plan, &graph.boundary_transfer_bytes(), 1)
    }

    /// [`deploy_dag`](Self::deploy_dag) with the graph's
    /// [`boundary_transfer_bytes`](LayerGraph::boundary_transfer_bytes)
    /// table already built (every node's segment accounting reads it), for
    /// requests of `batch` images: each node's FLOPs, activation bytes and
    /// the root's input bytes scale by `batch`; object bytes come from
    /// `plan`.
    fn deploy_dag_with(
        &self,
        platform: &mut Platform,
        graph: &LayerGraph,
        plan: &DagPlan,
        boundary: &[u64],
        batch: u64,
    ) -> Result<Deployment, DeployError> {
        plan.validate(graph.num_layers())
            .map_err(DeployError::InvalidPlan)?;
        let n = plan.nodes.len();
        let mut functions = Vec::with_capacity(n);
        let mut scalars = Vec::with_capacity(n);
        let mut reads_off = Vec::with_capacity(n + 1);
        let mut reads_obj = Vec::new();
        let mut read_producer = Vec::new();
        let mut writes_off = Vec::with_capacity(n + 1);
        let mut writes = Vec::new();
        reads_off.push(0u32);
        writes_off.push(0u32);
        let mut deploy_s = 0.0f64;
        for (v, node) in plan.nodes.iter().enumerate() {
            let work = PartitionWork {
                seg: graph.segment_with(node.start, node.end, boundary),
            };
            let spec = work.function_spec(format!("{}-node{v}", plan.model), node.memory_mb);
            let (fid, d) = platform.deploy(spec)?;
            functions.push(fid);
            deploy_s = deploy_s.max(d); // parallel uploads
            let reads = plan.inputs_of(v);
            for &o in &reads {
                reads_obj.push(o as u32);
                read_producer.push(plan.objects[o].producer as u32);
            }
            reads_off.push(reads_obj.len() as u32);
            for o in plan.outputs_of(v) {
                writes.push((o as u32, plan.objects[o].bytes));
            }
            writes_off.push(writes.len() as u32);
            let input_bytes = if reads.is_empty() {
                work.seg.input_bytes * batch
            } else {
                reads.iter().map(|&o| plan.objects[o].bytes).sum()
            };
            let w = work.batch_work(batch, input_bytes);
            scalars.push(NodeWork {
                load_bytes: w.load_bytes,
                flops: w.flops,
                resident_bytes: w.resident_bytes,
                tmp_bytes: w.tmp_bytes,
            });
        }
        Ok(Deployment {
            functions,
            deploy_s,
            scalars,
            reads_off,
            reads_obj,
            read_producer,
            writes_off,
            writes,
            num_objects: plan.objects.len(),
        })
    }

    /// Serves one request through `dep`, starting at `t0`. Its
    /// intermediate objects get a fresh key block in the platform's store,
    /// so requests never share an object.
    ///
    /// Node `v` is invoked at its checkpoint-ready instant: the latest
    /// completion among the producers of the objects it reads, or `t0`
    /// for the root. Scatter siblings therefore run concurrently in
    /// simulated time; `inference_s` is the critical path (max node
    /// completion − `t0`) while `dollars` sums every sandbox.
    ///
    /// A failed invocation with a transient cause is retried up to
    /// [`AmpsConfig::invoke_retries`] times with exponential backoff
    /// (`backoff_base_s · 2^(n-1)`). Because every input object is
    /// already checkpointed in storage, a retry resumes from there: only
    /// the failed partition re-runs, never the request. Retried attempts
    /// are billed (real Lambda bills failures) and surfaced in
    /// [`JobReport::retries`]/`wasted_s`/`wasted_dollars`.
    pub fn serve_one(
        &self,
        platform: &mut Platform,
        dep: &Deployment,
        t0: f64,
    ) -> Result<JobReport, ServeError> {
        self.serve_one_delayed(platform, dep, t0, 0.0)
    }

    /// [`serve_one`](Self::serve_one) with every node started `delay_s`
    /// after its inputs are checkpointed — the root `delay_s` after `t0`.
    /// That is a workflow engine's state transition in front of each
    /// partition: SerFer's Step Functions take ~15 s per transition (paper
    /// footnote 2).
    pub fn serve_one_delayed(
        &self,
        platform: &mut Platform,
        dep: &Deployment,
        t0: f64,
        delay_s: f64,
    ) -> Result<JobReport, ServeError> {
        let mut scratch = ServeScratch::for_deployment(dep);
        self.serve_recorded(platform, dep, t0, delay_s, &mut scratch)
    }

    /// [`serve_one_delayed`](Self::serve_one_delayed) on `scratch`, which
    /// the closed-loop batch modes reuse across their images.
    fn serve_recorded(
        &self,
        platform: &mut Platform,
        dep: &Deployment,
        t0: f64,
        delay_s: f64,
        scratch: &mut ServeScratch,
    ) -> Result<JobReport, ServeError> {
        scratch.prepare_keys(platform, dep);
        let mut rec = Recorder {
            delay_s,
            outcomes: Vec::with_capacity(dep.functions.len()),
            retries: Vec::new(),
            failure: None,
        };
        let summary = self.serve_lite(platform, dep, t0, scratch, &mut rec);
        if let Some((lambda, failed)) = rec.failure {
            let retried = rec.retries.iter().filter(|r| r.lambda == lambda).count();
            let wasted = rec.retries.iter().map(|r| r.failed.dollars).sum::<f64>() + failed.dollars;
            return Err(ServeError {
                reason: failed.reason,
                lambda,
                attempts: retried as u32 + 1,
                elapsed_s: summary.latency_s,
                dollars: rec.outcomes.iter().map(|o| o.dollars).sum::<f64>() + wasted,
            });
        }
        let phase = |f: fn(&InvocationOutcome) -> f64| rec.outcomes.iter().map(f).sum();
        Ok(JobReport {
            deploy_s: dep.deploy_s,
            load_s: phase(|o| o.breakdown.load_s),
            import_s: phase(|o| o.breakdown.import_s),
            predict_s: phase(|o| o.breakdown.compute_s),
            // Critical path, not sum: concurrent branches overlap.
            inference_s: summary.latency_s,
            e2e_s: dep.deploy_s + summary.latency_s,
            dollars: summary.dollars,
            outcomes: rec.outcomes,
            retries: rec.retries,
            wasted_s: summary.wasted_s,
            wasted_dollars: summary.wasted_dollars,
        })
    }

    /// Invokes `fid` at `start` and retries transient failures up to
    /// [`AmpsConfig::invoke_retries`] times, re-invoking
    /// `backoff_base_s · 2^(n-1)` seconds after the `n`-th failure ends.
    /// Every retried failure goes to `on_retry` with its backoff. Returns
    /// the successful outcome, or the final failure. The engine's one
    /// invoke/retry/backoff loop.
    #[inline(always)]
    fn invoke_retrying(
        &self,
        platform: &mut Platform,
        fid: FunctionId,
        start: f64,
        work: &InvocationWork,
        mut on_retry: impl FnMut(FailedInvocation, f64),
    ) -> Result<InvocationOutcome, FailedInvocation> {
        let mut now = start;
        let mut attempt: u32 = 0;
        loop {
            match platform.invoke(fid, now, work) {
                Ok(out) => return Ok(out),
                Err(failed) => {
                    attempt += 1;
                    if attempt > self.cfg.invoke_retries || !failed.reason.is_transient() {
                        return Err(failed);
                    }
                    let backoff_s = self.cfg.backoff_base_s * 2f64.powi(attempt as i32 - 1);
                    now = failed.end + backoff_s;
                    on_retry(failed, backoff_s);
                }
            }
        }
    }

    /// Serves `images` requests in parallel (paper Table 5): all requests
    /// start at `t0`; completion is the slowest one. One dead image no
    /// longer poisons the batch — it degrades into
    /// [`BatchReport::failures`] while the rest complete.
    ///
    /// With [`AmpsConfig::serve_lanes`] > 1 the images run on disjoint
    /// warm-pool shards (executed by up to [`AmpsConfig::serve_threads`]
    /// workers) and the per-image results merge back in image order — the
    /// report is bit-identical at every thread count. At the default
    /// single lane the images run serially on `platform` itself.
    pub fn serve_parallel(
        &self,
        platform: &mut Platform,
        dep: &Deployment,
        images: usize,
        t0: f64,
    ) -> BatchReport {
        let results = if self.cfg.serve_lanes > 1 {
            let starts = vec![t0; images];
            let (results, shards) = self.run_lanes(
                platform,
                &starts,
                |_, _| ServeScratch::for_deployment(dep),
                |p, scratch: &mut ServeScratch, _, start| {
                    self.serve_recorded(p, dep, start, 0.0, scratch)
                },
            );
            platform.absorb_shards(shards.into_iter().map(|(shard, _)| shard).collect());
            results
        } else {
            let mut scratch = ServeScratch::for_deployment(dep);
            (0..images)
                .map(|_| self.serve_recorded(platform, dep, t0, 0.0, &mut scratch))
                .collect()
        };
        let mut batch = Self::empty_batch(dep, images);
        for (img, result) in results.into_iter().enumerate() {
            match result {
                Ok(r) => {
                    batch.completion_s = batch.completion_s.max(r.inference_s);
                    Self::absorb_job(&mut batch, r);
                }
                Err(e) => {
                    batch.completion_s = batch.completion_s.max(e.elapsed_s);
                    Self::absorb_failure(&mut batch, img, e);
                }
            }
        }
        batch.e2e_s = dep.deploy_s + batch.completion_s;
        batch
    }

    /// Serves `images` requests strictly one after another (the paper's
    /// AMPS-Inf-Seq mode in Fig. 13); later requests hit warm containers.
    /// A failed image consumes its elapsed wall-clock, then the next
    /// image proceeds.
    pub fn serve_sequential(
        &self,
        platform: &mut Platform,
        dep: &Deployment,
        images: usize,
        t0: f64,
    ) -> BatchReport {
        let mut batch = Self::empty_batch(dep, images);
        let mut scratch = ServeScratch::for_deployment(dep);
        let mut now = t0;
        for img in 0..images {
            match self.serve_recorded(platform, dep, now, 0.0, &mut scratch) {
                Ok(r) => {
                    now += r.inference_s;
                    Self::absorb_job(&mut batch, r);
                }
                Err(e) => {
                    now += e.elapsed_s;
                    Self::absorb_failure(&mut batch, img, e);
                }
            }
        }
        batch.completion_s = now - t0;
        batch.e2e_s = dep.deploy_s + batch.completion_s;
        batch
    }

    /// Serves `images` requests with pipelined stage execution — the
    /// closed-loop counterpart of [`serve_sequential`](Self::serve_sequential)
    /// (all requests ready at `t0`, single warm pool), but with stages
    /// overlapping across requests: every node owns
    /// [`AmpsConfig::pipeline_depth`] stations (defaulting to 1 when
    /// pipelining is not configured), and request `k+1` enters node `v`
    /// as soon as its inputs are checkpointed and a station frees. On a
    /// chain, completion is therefore bottleneck-stage-bound —
    /// `fill + (n−1)·max_i t_i` on a clean run — instead of
    /// [`serve_sequential`](Self::serve_sequential)'s `n·Σ_i t_i`.
    pub fn serve_pipelined(
        &self,
        platform: &mut Platform,
        dep: &Deployment,
        images: usize,
        t0: f64,
    ) -> PipelineReport {
        let depth = self.cfg.pipeline_depth.max(1);
        let k = dep.functions.len();
        let mut stations = vec![StationPool::new(depth); k];
        let mut scratch = ServeScratch::for_deployment(dep);
        let idle_before = platform.warm_idle_accrued();
        let mut requests = Vec::with_capacity(images);
        let mut dollars = 0.0f64;
        let mut completion = t0;
        let mut failed = 0usize;
        for _ in 0..images {
            scratch.prepare_keys(platform, dep);
            let r = self.serve_lite(platform, dep, t0, &mut scratch, &mut stations);
            completion = completion.max(r.arrival_s + r.latency_s);
            dollars += r.dollars;
            failed += usize::from(!r.ok);
            requests.push(r);
        }
        let span = completion - t0;
        PipelineReport {
            completion_s: span,
            e2e_s: dep.deploy_s + span,
            dollars,
            failed,
            requests,
            stats: PipelineStats::from_pools(depth, k, [stations.as_slice()], span),
            warm_idle_s: platform.warm_idle_accrued() - idle_before,
        }
    }

    /// Serves an arrival trace (one request per entry of `arrivals`, in
    /// seconds on the platform clock) through the sharded engine and
    /// returns scalar per-request summaries plus per-node stats — the
    /// open-loop load path. Instances scale out on demand: a node never
    /// waits for anything but its inputs.
    ///
    /// Requests never abort the run: one that exhausts its retry budget is
    /// recorded (`ok == false`, counted in [`TraceReport::failures`]) and
    /// the trace keeps serving. Storage is settled at the global last
    /// completion, per lane in lane order, so the settlement is
    /// deterministic and thread-count-independent too.
    ///
    /// Pass `&mut platform` to merge the lane shards into it afterwards
    /// (to serve on it again), or the platform itself to drop them
    /// unmerged ([`TraceBase`]); the report is the same.
    pub fn serve_trace(
        &self,
        platform: impl TraceBase,
        dep: &Deployment,
        arrivals: &[f64],
    ) -> TraceReport {
        self.serve_trace_on(platform, dep, arrivals, 0, || ()).0
    }

    /// [`serve_trace`](Self::serve_trace) under its former name. It
    /// exists only because the frozen `ampsbench` harness still calls it;
    /// the next benchmark change removes it.
    pub fn serve_trace_dag(
        &self,
        platform: &mut Platform,
        dep: &Deployment,
        arrivals: &[f64],
    ) -> TraceReport {
        self.serve_trace(platform, dep, arrivals)
    }

    /// [`serve_trace`](Self::serve_trace) over several deployments:
    /// request `i` runs `deps[assign(i)]` — the plan-cache engine's entry
    /// point, where an adaptive controller switches plans (chain or
    /// branch-parallel) between load epochs. `assign` must be a pure
    /// function of the request index (that is what keeps the report
    /// thread-invariant); every returned index must be `< deps.len()`,
    /// and all deployments must live on `platform`. Per-node stats are
    /// not folded here (node indices mean different things across
    /// deployments), so `dag_nodes` stays `None`. The shards merge into
    /// `platform` or drop with it as in `serve_trace`.
    pub fn serve_trace_assigned(
        &self,
        mut platform: impl TraceBase,
        deps: &[Deployment],
        assign: &(dyn Fn(usize) -> usize + Sync),
        arrivals: &[f64],
    ) -> TraceReport {
        let (requests, lanes) = self.run_lanes(
            platform.platform(),
            arrivals,
            |requests, p| -> Vec<ServeScratch> {
                // Every request draws its deployment's object keys.
                p.store
                    .reserve(requests.map(|i| deps[assign(i)].num_objects()).sum());
                deps.iter().map(ServeScratch::for_deployment).collect()
            },
            |p, scratches: &mut Vec<ServeScratch>, idx, t0| {
                let d = assign(idx);
                let scratch = &mut scratches[d];
                scratch.prepare_keys(p, &deps[d]);
                self.serve_lite(p, &deps[d], t0, scratch, &mut ())
            },
        );
        let shards = lanes.into_iter().map(|(p, _)| p).collect();
        let fids: Vec<FunctionId> = deps
            .iter()
            .flat_map(|d| d.functions.iter().copied())
            .collect();
        self.finish_trace(platform, &fids, requests, shards)
    }

    /// [`serve_trace`](Self::serve_trace) with pipelined stage execution
    /// (DESIGN.md §6e): inside each lane, every node owns
    /// [`AmpsConfig::pipeline_depth`] stations, and node `v` of request
    /// `k+1` starts as soon as its inputs are checkpointed *and* a
    /// station frees — so stages overlap across requests instead of a
    /// stage's warm instances idling while the rest of the request runs.
    ///
    /// Stations admit strictly in request-index order (FIFO by arrival
    /// index), and each lane's station state travels with its task, so
    /// the report stays bit-identical at every thread count, faults on or
    /// off. Per-request RNG streams are keyed identically
    /// ([`Platform::begin_request`]), so a given request draws the same
    /// fault/storage fates in both modes. The report carries both the
    /// stations' [`PipelineStats`] and the nodes' [`DagNodeStats`]. The
    /// shards merge into `platform` or drop with it as in `serve_trace`.
    pub fn serve_trace_pipelined(
        &self,
        platform: impl TraceBase,
        dep: &Deployment,
        arrivals: &[f64],
    ) -> TraceReport {
        let depth = self.cfg.pipeline_depth.max(1);
        let k = dep.functions.len();
        let lanes = self.cfg.serve_lanes.max(1).min(arrivals.len().max(1));
        let (mut report, pools) =
            self.serve_trace_on(platform, dep, arrivals, depth * lanes, || {
                vec![StationPool::new(depth); k]
            });
        let span = (report.last_completion_s - arrivals.first().copied().unwrap_or(0.0)).max(0.0);
        report.pipeline = Some(PipelineStats::from_pools(
            depth * lanes,
            k,
            pools.iter().map(Vec::as_slice),
            span,
        ));
        report
    }

    /// The single-deployment trace engine: serves `arrivals` on `dep`
    /// across the lanes, each lane carrying its own scratch and the
    /// admission state `admission()` builds, and returns the report with
    /// per-node stats plus every lane's admission state in lane order.
    fn serve_trace_on<A: Admission + Send>(
        &self,
        mut platform: impl TraceBase,
        dep: &Deployment,
        arrivals: &[f64],
        stations_per_node: usize,
        admission: impl Fn() -> A + Sync,
    ) -> (TraceReport, Vec<A>) {
        let k = dep.functions.len();
        let (requests, lanes) = self.run_lanes(
            platform.platform(),
            arrivals,
            |requests, p| {
                p.store.reserve(requests.len() * dep.num_objects());
                (ServeScratch::for_deployment(dep), admission())
            },
            |p, lane: &mut (ServeScratch, A), _idx, t0| {
                let (scratch, adm) = lane;
                scratch.prepare_keys(p, dep);
                self.serve_lite(p, dep, t0, scratch, adm)
            },
        );
        let first_arrival = arrivals.first().copied().unwrap_or(0.0);
        let mut stats = DagNodeStats {
            stations_per_node,
            busy_s: vec![0.0; k],
            stall_s: vec![0.0; k],
            crit_s: vec![0.0; k],
            span_s: 0.0,
        };
        let mut shards = Vec::with_capacity(lanes.len());
        let mut states = Vec::with_capacity(lanes.len());
        for (shard, (mut scratch, state)) in lanes {
            scratch.drain_into(&mut stats);
            shards.push(shard);
            states.push(state);
        }
        let mut report = self.finish_trace(platform, &dep.functions, requests, shards);
        stats.span_s = (report.last_completion_s - first_arrival).max(0.0);
        report.dag_nodes = Some(stats);
        (report, states)
    }

    /// Shared trace aggregation: settle storage and warm pools per shard
    /// in lane order, assemble the report, then end the trace on `base`
    /// ([`TraceBase::end_trace`]: merge the shards or drop them). Every
    /// counter is read across the base platform and the shards, summed as
    /// the merge would sum it, so the report never reads the merge.
    fn finish_trace(
        &self,
        mut base: impl TraceBase,
        functions: &[FunctionId],
        requests: Vec<RequestSummary>,
        mut shards: Vec<Platform>,
    ) -> TraceReport {
        let mut dollars = 0.0f64;
        let mut last_completion = 0.0f64;
        let mut failures = 0usize;
        for r in &requests {
            dollars += r.dollars;
            last_completion = last_completion.max(r.arrival_s + r.latency_s);
            failures += usize::from(!r.ok);
        }
        let platform = base.platform();
        let mut settled = platform.settle_storage(last_completion);
        let mut idle_s = 0.0f64;
        let mut idle_dollars = 0.0f64;
        let mut invocations = 0u64;
        for shard in &mut shards {
            settled += shard.settle_storage(last_completion);
            let (lane_idle, lane_idle_dollars) = shard.settle_warm_pool(last_completion);
            idle_s += lane_idle;
            idle_dollars += lane_idle_dollars;
            invocations += shard.invocation_count();
        }
        let platforms = || std::iter::once(&*platform).chain(&shards);
        let mut fids: Vec<FunctionId> = functions.to_vec();
        fids.sort_by_key(|f| f.0);
        fids.dedup();
        let cold_starts = fids
            .iter()
            .map(|&f| platforms().map(|p| p.cold_starts(f)).sum::<usize>())
            .sum();
        let peak_instances = fids
            .iter()
            .map(|&f| platforms().map(|p| p.instance_count(f)).sum::<usize>())
            .max()
            .unwrap_or(0);
        let pre_warmed = platforms().map(Platform::pre_warmed_total).sum();
        let report = TraceReport {
            requests,
            dollars,
            settled_dollars: settled,
            last_completion_s: last_completion,
            cold_starts,
            peak_instances,
            failures,
            invocations,
            pre_warmed,
            idle_s,
            idle_dollars,
            pipeline: None,
            dag_nodes: None,
        };
        base.end_trace(shards);
        report
    }

    /// The engine's one per-request body: the ready recurrence, the
    /// invoke/retry loop and the dollar and waste accounting of a
    /// [`RequestSummary`]. Each node is admitted through `admission` once
    /// ready, and its busy/stall seconds accumulate on `scratch`; a
    /// successful request's critical path accumulates too. The trace
    /// engines' admissions record nothing, so their hot path allocates
    /// nothing per outcome or retry; the named modes' [`Recorder`] keeps
    /// every attempt through the admission's hooks.
    #[inline(always)]
    fn serve_lite<A: Admission>(
        &self,
        platform: &mut Platform,
        dep: &Deployment,
        t0: f64,
        scratch: &mut ServeScratch,
        admission: &mut A,
    ) -> RequestSummary {
        let k = dep.functions.len();
        let mut dollars = 0.0f64;
        let mut retry_dollars = 0.0f64;
        let mut retry_s = 0.0f64;
        let mut stall_s = 0.0f64;
        let mut stall_dollars = 0.0f64;
        let mut n_retries: u32 = 0;
        let mut done = t0;
        // First node attaining the latest completion, where the
        // critical-path walk starts.
        let mut last = 0usize;
        let mut last_end = t0;
        let works = &scratch.works[..k];
        let nodes = &mut scratch.nodes[..k];
        for v in 0..k {
            // Checkpoint-ready: every object this node reads is written.
            let mut ready = t0;
            for &p in dep.producers_of(v) {
                ready = ready.max(nodes[p as usize].finish);
            }
            let (station, start) = admission.admit(v, ready);
            let on_retry = |failed: FailedInvocation, backoff_s: f64| {
                n_retries += 1;
                retry_dollars += failed.dollars;
                retry_s += failed.duration() + backoff_s;
                admission.retried(v, failed, backoff_s);
            };
            let fid = dep.functions[v];
            let out = match self.invoke_retrying(platform, fid, start, &works[v], on_retry) {
                Ok(out) => out,
                Err(failed) => {
                    // The doomed request's whole spend and elapsed time
                    // produced nothing; its station stayed occupied until
                    // the final attempt ended.
                    admission.release(v, station, start, failed.end);
                    let spent = dollars + retry_dollars + failed.dollars;
                    let latency_s = failed.end - t0;
                    admission.gave_up(v, failed);
                    return RequestSummary {
                        arrival_s: t0,
                        latency_s,
                        dollars: spent,
                        retries: n_retries,
                        wasted_s: latency_s,
                        wasted_dollars: spent,
                        ok: false,
                    };
                }
            };
            admission.release(v, station, start, out.end);
            let dur = out.end - out.start;
            let node = &mut nodes[v];
            node.finish = out.end;
            node.dur = dur;
            node.busy_s += dur;
            node.stall_s += (out.start - ready) + out.storage_retry_s;
            if v == 0 || out.end > last_end {
                last = v;
                last_end = out.end;
            }
            done = done.max(out.end);
            dollars += out.dollars;
            stall_s += out.storage_retry_s;
            if out.storage_retry_s > 0.0 {
                let mem = platform.spec(fid).map_or(0, |s| s.memory_mb);
                stall_dollars += self
                    .cfg
                    .prices
                    .lambda_compute_cost(out.storage_retry_s, mem);
            }
            admission.succeeded(v, out);
        }
        Self::accumulate_critical_path(dep, scratch, last);
        RequestSummary {
            arrival_s: t0,
            latency_s: done - t0,
            dollars: dollars + retry_dollars,
            retries: n_retries,
            wasted_s: retry_s + stall_s,
            wasted_dollars: retry_dollars + stall_dollars,
            ok: true,
        }
    }

    /// Walks one served request's critical path — from node `last` (the
    /// first to attain the latest completion) back through each node's
    /// latest-finishing input producer (first such producer on ties,
    /// making the walk deterministic) — and adds every visited node's
    /// successful-attempt duration to the lane's `crit_s` accumulator.
    #[inline(always)]
    fn accumulate_critical_path(dep: &Deployment, scratch: &mut ServeScratch, last: usize) {
        let nodes = &mut scratch.nodes;
        let mut v = last;
        loop {
            nodes[v].crit_s += nodes[v].dur;
            let producers = dep.producers_of(v);
            let Some(&first) = producers.first() else {
                break;
            };
            let mut best = first as usize;
            for &p in &producers[1..] {
                if nodes[p as usize].finish > nodes[best].finish {
                    best = p as usize;
                }
            }
            v = best;
        }
    }

    /// Number of requests lane `lane` owns when `n` requests round-robin
    /// over `lanes` lanes (lane `l` serves indices `l, l+lanes, …`).
    fn lane_len(n: usize, lanes: usize, lane: usize) -> usize {
        if lane >= n {
            0
        } else {
            (n - lane - 1) / lanes + 1
        }
    }

    /// The work-stealing core of the sharded serving engine (DESIGN.md
    /// §6d): runs `f(platform, state, request_index, start)` once per
    /// request across [`AmpsConfig::serve_lanes`] warm-pool shards,
    /// executed by up to [`AmpsConfig::serve_threads`] workers (0 =
    /// auto; never more than the machine's available parallelism, since
    /// surplus workers would only time-slice the same cores). Every lane is a
    /// self-contained task (shard platform, the caller-built per-lane
    /// state `init(requests, platform)` — given the lane's request indices
    /// and its shard platform: scratches, station pools, reserved key
    /// tables, anything —, progress cursor) on a shared queue; workers pop
    /// a task, advance it one *chunk* of requests, move the chunk's
    /// results into their request-index slots of the one `n`-slot output,
    /// and either requeue the task or deposit it in its lane slot when
    /// exhausted; a worker that finds the queue empty parks until a task
    /// is requeued or the last lane finishes. Chunking amortizes queue
    /// traffic while letting an idle worker steal a heavy lane's remainder
    /// — under skewed per-request cost no worker sits idle watching one
    /// lane grind.
    ///
    /// Thread-count invariance holds by construction: request `i` always
    /// runs on lane `i % lanes` (with [`Platform::begin_request`] keying
    /// its RNG streams), a lane's requests run in index order, and the
    /// lane's entire mutable state travels with its task — workers race
    /// only for *which lane advances next*, never for state inside one.
    /// Chunk boundaries therefore cannot affect any result: every result
    /// lands in its request's own slot, and shard platforms and lane
    /// states come back in lane order, at every worker count.
    ///
    /// Warm-pool pre-warming ([`AmpsConfig::warm_pool`]) happens here,
    /// per shard: lane `l` gets `⌈(pre_warm - l) / lanes⌉` of the policy's
    /// instances, so the split is deterministic and the sum exact.
    fn run_lanes<R, S, F, I>(
        &self,
        base: &Platform,
        starts: &[f64],
        init: I,
        f: F,
    ) -> (Vec<R>, Vec<(Platform, S)>)
    where
        R: Send,
        S: Send,
        I: Fn(StepBy<Range<usize>>, &mut Platform) -> S + Sync,
        F: Fn(&mut Platform, &mut S, usize, f64) -> R + Sync,
    {
        let n = starts.len();
        let lanes = self.cfg.serve_lanes.max(1).min(n.max(1));
        // More workers than cores only time-slice the same cores: an
        // explicit thread count is capped at the machine's parallelism.
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        let workers = match self.cfg.serve_threads {
            0 => cores,
            t => t.min(cores),
        }
        .clamp(1, lanes);
        let pre_warm = self.cfg.warm_pool.pre_warm;
        // ~4 chunks per lane bounds steal latency; the clamp keeps queue
        // traffic negligible on huge runs and chunks meaningful on small.
        let chunk = (n / (lanes * 4) + 1).clamp(32, 1024);

        use std::sync::Mutex;
        const POISONED: &str = "a lane worker panicked";

        struct LaneTask<S> {
            lane: usize,
            /// Requests of this lane already processed.
            done: usize,
            platform: Platform,
            state: S,
        }
        let new_task = |lane: usize| {
            let mut platform = base.fork_empty();
            platform.pre_warm(Self::lane_len(pre_warm, lanes, lane));
            let state = init((lane..n).step_by(lanes), &mut platform);
            LaneTask {
                lane,
                done: 0,
                platform,
                state,
            }
        };
        // Request `i`'s result, filled once by its lane. The lock is taken
        // once per chunk, so it is uncontended at one worker.
        let results: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
        // Advances `task` by one chunk, collecting in the worker's `buf`,
        // then moves the chunk's results into their slots; true when the
        // lane is exhausted.
        let run_chunk = |task: &mut LaneTask<S>, buf: &mut Vec<R>| -> bool {
            let total = Self::lane_len(n, lanes, task.lane);
            let first = task.lane + task.done * lanes;
            let stop = (task.done + chunk).min(total);
            while task.done < stop {
                let idx = task.lane + task.done * lanes;
                task.platform.begin_request(idx as u64);
                buf.push(f(&mut task.platform, &mut task.state, idx, starts[idx]));
                task.done += 1;
            }
            let mut results = results.lock().expect(POISONED);
            let slots = results[first..].iter_mut().step_by(lanes);
            for (slot, r) in slots.zip(buf.drain(..)) {
                *slot = Some(r);
            }
            task.done >= total
        };

        let lane_results: Vec<(Platform, S)> = if workers == 1 {
            let mut buf = Vec::with_capacity(chunk);
            (0..lanes)
                .map(|lane| {
                    let mut task = new_task(lane);
                    while !run_chunk(&mut task, &mut buf) {}
                    (task.platform, task.state)
                })
                .collect()
        } else {
            use std::collections::VecDeque;
            use std::sync::Condvar;
            // Pending tasks and the count of lanes not yet exhausted; an
            // idle worker parks on `ready` until a task is requeued or the
            // last lane finishes.
            let queue: Mutex<(VecDeque<LaneTask<S>>, usize)> =
                Mutex::new(((0..lanes).map(new_task).collect(), lanes));
            let ready = Condvar::new();
            let slots: Mutex<Vec<LaneSlot<S>>> = Mutex::new((0..lanes).map(|_| None).collect());
            std::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(|| {
                        let mut buf = Vec::with_capacity(chunk);
                        loop {
                            let mut q = queue.lock().expect(POISONED);
                            let mut task = loop {
                                if let Some(task) = q.0.pop_front() {
                                    break task;
                                }
                                if q.1 == 0 {
                                    return;
                                }
                                q = ready.wait(q).expect(POISONED);
                            };
                            drop(q);
                            if run_chunk(&mut task, &mut buf) {
                                slots.lock().expect(POISONED)[task.lane] =
                                    Some((task.platform, task.state));
                                let mut q = queue.lock().expect(POISONED);
                                q.1 -= 1;
                                if q.1 == 0 {
                                    ready.notify_all();
                                }
                            } else {
                                queue.lock().expect(POISONED).0.push_back(task);
                                ready.notify_one();
                            }
                        }
                    });
                }
            });
            slots
                .into_inner()
                .expect(POISONED)
                .into_iter()
                .map(|slot| slot.expect("every lane ran"))
                .collect()
        };
        // Collected in place: an `Option<R>` slot is no larger than `R`
        // for the engine's summaries (see `RequestSummary`).
        let results = results.into_inner().expect(POISONED);
        let results = results.into_iter().map(|r| r.expect("every request ran"));
        (results.collect(), lane_results)
    }

    fn empty_batch(dep: &Deployment, images: usize) -> BatchReport {
        BatchReport {
            completion_s: 0.0,
            e2e_s: dep.deploy_s,
            dollars: 0.0,
            jobs: Vec::with_capacity(images),
            failures: Vec::new(),
            wasted_s: 0.0,
            wasted_dollars: 0.0,
        }
    }

    fn absorb_job(batch: &mut BatchReport, job: JobReport) {
        batch.dollars += job.dollars;
        batch.wasted_s += job.wasted_s;
        batch.wasted_dollars += job.wasted_dollars;
        batch.jobs.push(job);
    }

    fn absorb_failure(batch: &mut BatchReport, image: usize, error: ServeError) {
        // A doomed image's entire spend and elapsed time produced nothing.
        batch.dollars += error.dollars;
        batch.wasted_s += error.elapsed_s;
        batch.wasted_dollars += error.dollars;
        batch.failures.push(BatchFailure { image, error });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::Optimizer;
    use ampsinf_model::zoo;

    fn optimized(graph: &ampsinf_model::LayerGraph) -> (Coordinator, ExecutionPlan) {
        let cfg = AmpsConfig::default();
        let plan = Optimizer::new(cfg.clone()).optimize(graph).unwrap().plan;
        (Coordinator::new(cfg), plan)
    }

    #[test]
    fn chain_node_work_is_the_partition_invocation() {
        // A batch-1 chain deployment's per-node scalars must equal what
        // `PartitionWork::invocation` builds for the same segments: both
        // come from `PartitionWork::batch_work`, and a chain node's staged
        // input (its one object) is its segment's input bytes.
        for g in [zoo::mobilenet_v1(), zoo::resnet50(), zoo::inception_v3()] {
            let (coord, optimal) = optimized(&g);
            let n = g.num_layers();
            let parts = 6;
            let even = ExecutionPlan {
                model: g.name.clone(),
                partitions: (0..parts)
                    .map(|i| crate::plan::PartitionPlan {
                        start: i * n / parts,
                        end: (i + 1) * n / parts - 1,
                        memory_mb: 1024,
                    })
                    .collect(),
                predicted_time_s: 0.0,
                predicted_cost: 0.0,
            };
            for plan in [optimal, even] {
                let mut platform = coord.platform();
                let dep = coord.deploy(&mut platform, &g, &plan).unwrap();
                assert_eq!(dep.scalars.len(), plan.partitions.len());
                for (node, p) in dep.scalars.iter().zip(&plan.partitions) {
                    let want =
                        PartitionWork::from_segment(&g, p.start, p.end).invocation(None, None);
                    assert_eq!(
                        (
                            node.load_bytes,
                            node.flops,
                            node.resident_bytes,
                            node.tmp_bytes
                        ),
                        (
                            want.load_bytes,
                            want.flops,
                            want.resident_bytes,
                            want.tmp_bytes
                        ),
                        "{} layers {}..={}",
                        g.name,
                        p.start,
                        p.end
                    );
                }
            }
        }
    }

    #[test]
    fn serve_one_matches_prediction() {
        // The optimizer's predicted (time, cost) must equal the platform's
        // measured cold-chain behaviour: prediction IS simulation.
        for g in [zoo::mobilenet_v1(), zoo::resnet50()] {
            let (coord, plan) = optimized(&g);
            let mut platform = coord.platform();
            let dep = coord.deploy(&mut platform, &g, &plan).unwrap();
            let report = coord.serve_one(&mut platform, &dep, 0.0).unwrap();
            assert!(
                (report.inference_s - plan.predicted_time_s).abs() < 1e-6,
                "{}: measured {} vs predicted {}",
                g.name,
                report.inference_s,
                plan.predicted_time_s
            );
            assert!(
                (report.dollars - plan.predicted_cost).abs() < 1e-9,
                "{}: measured {} vs predicted {}",
                g.name,
                report.dollars,
                plan.predicted_cost
            );
            // Clean run: nothing retried, nothing wasted.
            assert!(report.retries.is_empty());
            assert_eq!(report.wasted_s, 0.0);
            assert_eq!(report.wasted_dollars, 0.0);
        }
    }

    #[test]
    fn deployment_time_counted_once() {
        let g = zoo::mobilenet_v1();
        let (coord, plan) = optimized(&g);
        let mut platform = coord.platform();
        let dep = coord.deploy(&mut platform, &g, &plan).unwrap();
        assert!(dep.deploy_s > 0.0);
        let report = coord.serve_one(&mut platform, &dep, 0.0).unwrap();
        assert!((report.e2e_s - (dep.deploy_s + report.inference_s)).abs() < 1e-12);
    }

    #[test]
    fn sequential_batch_gets_warm_speedup() {
        let g = zoo::mobilenet_v1();
        let (coord, plan) = optimized(&g);
        let mut platform = coord.platform();
        let dep = coord.deploy(&mut platform, &g, &plan).unwrap();
        let batch = coord.serve_sequential(&mut platform, &dep, 3, 0.0);
        assert_eq!(batch.jobs.len(), 3);
        assert_eq!(batch.failed(), 0);
        // First request cold, later ones warm and faster.
        assert!(batch.jobs[1].inference_s < batch.jobs[0].inference_s);
        assert!(batch.jobs[1].outcomes.iter().all(|o| o.warm));
    }

    #[test]
    fn parallel_batch_completion_is_max_not_sum() {
        let g = zoo::mobilenet_v1();
        let (coord, plan) = optimized(&g);
        let mut platform = coord.platform();
        let dep = coord.deploy(&mut platform, &g, &plan).unwrap();
        let batch = coord.serve_parallel(&mut platform, &dep, 5, 0.0);
        let max_inf = batch
            .jobs
            .iter()
            .map(|j| j.inference_s)
            .fold(0.0f64, f64::max);
        let sum_inf: f64 = batch.jobs.iter().map(|j| j.inference_s).sum();
        assert!((batch.completion_s - max_inf).abs() < 1e-12);
        assert!(batch.completion_s < sum_inf);
        // Cost still sums over all images.
        assert!(batch.dollars > batch.jobs[0].dollars * 4.0);
    }

    #[test]
    fn pipelined_closed_loop_doubles_throughput_on_balanced_plan() {
        // The acceptance bar for DESIGN.md §6e: on a multi-stage plan with
        // balanced stage times, steady-state pipelined throughput is at
        // least 2× the sequential chain at equal cost accounting.
        let g = zoo::resnet50();
        let cfg = AmpsConfig::default();
        let opt = Optimizer::new(cfg.clone());
        let free = opt.optimize(&g).unwrap().plan;
        // The pipelined planner balances within the cost budget…
        let joint = Optimizer::new(cfg.clone().with_slo(free.predicted_time_s * 2.0))
            .optimize_pipelined(&g)
            .unwrap();
        assert!(
            joint.imbalance() < 1.25,
            "joint plan should balance stages: {joint}"
        );
        // …and the throughput bar uses a deeper balanced cut (the
        // bucket-scan baseline at 4 stages, unconstrained by cost).
        let plan = crate::baselines::b4_bucket_scan(&g, &cfg, 4).unwrap();
        assert!(plan.num_lambdas() >= 3, "need a multi-stage plan: {plan}");
        let profile = ampsinf_profiler::Profile::of(&g);
        let lowered = DagPlan::from_chain(&plan, |k| profile.output_bytes(k));
        let pp = crate::plan::PipelinePlan {
            stage_times_s: crate::baselines::dag_node_times(&profile, &lowered, &cfg).unwrap(),
            bottleneck_s: 0.0,
            plan,
        };
        let n = 40;

        let coord = Coordinator::new(cfg.clone());
        let mut p_seq = coord.platform();
        let dep = coord.deploy(&mut p_seq, &g, &pp.plan).unwrap();
        let seq = coord.serve_sequential(&mut p_seq, &dep, n, 0.0);
        assert_eq!(seq.failed(), 0);
        let seq_idle = p_seq.warm_idle_accrued();

        let coord_pipe = Coordinator::new(cfg.with_pipeline(1));
        let mut p_pipe = coord_pipe.platform();
        let dep_pipe = coord_pipe.deploy(&mut p_pipe, &g, &pp.plan).unwrap();
        let pipe = coord_pipe.serve_pipelined(&mut p_pipe, &dep_pipe, n, 0.0);
        assert_eq!(pipe.failed, 0);

        let seq_tp = n as f64 / seq.completion_s;
        let pipe_tp = n as f64 / pipe.completion_s;
        assert!(
            pipe_tp >= 2.0 * seq_tp,
            "pipelined {pipe_tp:.3} req/s vs sequential {seq_tp:.3} req/s"
        );
        // Equal cost accounting: same invocations, same warm/cold pattern,
        // only the clock positions differ.
        assert!(
            (pipe.dollars - seq.dollars).abs() < 1e-9,
            "pipelined ${} vs sequential ${}",
            pipe.dollars,
            seq.dollars
        );
        // Stations were measurably busy, and queueing showed up as stall.
        assert!(pipe.stats.utilization() > 0.0);
        assert!(pipe.stats.utilization() <= 1.0 + 1e-12);
        assert!(pipe.stats.stall_s() > 0.0);
        assert_eq!(pipe.stats.stage_busy_s.len(), pp.plan.num_lambdas());
        // Overlap keeps warm instances busier: strictly less idle-warm
        // time than the serialized chain.
        assert!(
            pipe.warm_idle_s < seq_idle,
            "pipelined idle {} vs sequential idle {}",
            pipe.warm_idle_s,
            seq_idle
        );
    }

    #[test]
    fn pipelined_depth_two_is_no_slower_than_depth_one() {
        let g = zoo::mobilenet_v1();
        let cfg = AmpsConfig::default();
        let plan = Optimizer::new(cfg.clone()).optimize(&g).unwrap().plan;
        let run = |depth: usize| {
            let coord = Coordinator::new(cfg.clone().with_pipeline(depth));
            let mut platform = coord.platform();
            let dep = coord.deploy(&mut platform, &g, &plan).unwrap();
            coord.serve_pipelined(&mut platform, &dep, 24, 0.0)
        };
        let d1 = run(1);
        let d2 = run(2);
        assert_eq!(d1.failed, 0);
        assert_eq!(d2.failed, 0);
        assert!(
            d2.completion_s <= d1.completion_s + 1e-9,
            "depth 2 {} vs depth 1 {}",
            d2.completion_s,
            d1.completion_s
        );
    }

    #[test]
    fn pipelined_trace_matches_sequential_on_sparse_arrivals() {
        // Arrivals so far apart that no two requests ever share the chain:
        // the pipelined engine must reproduce the sequential engine's
        // per-request numbers exactly (same RNG keying, no station waits).
        let g = zoo::mobilenet_v1();
        let cfg = AmpsConfig::default();
        let plan = Optimizer::new(cfg.clone()).optimize(&g).unwrap().plan;
        let arrivals: Vec<f64> = (0..8).map(|i| i as f64 * 100.0).collect();

        let coord = Coordinator::new(cfg.clone());
        let mut p_seq = coord.platform();
        let dep = coord.deploy(&mut p_seq, &g, &plan).unwrap();
        let seq = coord.serve_trace(&mut p_seq, &dep, &arrivals);

        let coord_pipe = Coordinator::new(cfg.with_pipeline(1));
        let mut p_pipe = coord_pipe.platform();
        let dep_pipe = coord_pipe.deploy(&mut p_pipe, &g, &plan).unwrap();
        let pipe = coord_pipe.serve_trace_pipelined(&mut p_pipe, &dep_pipe, &arrivals);

        assert_eq!(seq.requests.len(), pipe.requests.len());
        for (a, b) in seq.requests.iter().zip(&pipe.requests) {
            assert_eq!(a.latency_s.to_bits(), b.latency_s.to_bits());
            assert_eq!(a.dollars.to_bits(), b.dollars.to_bits());
            assert_eq!(a.ok, b.ok);
        }
        assert_eq!(seq.dollars.to_bits(), pipe.dollars.to_bits());
        let stats = pipe.pipeline.expect("pipelined trace carries stats");
        // No contention on sparse arrivals beyond the first admissions.
        assert_eq!(stats.stall_s(), 0.0);
        assert!(seq.pipeline.is_none());
    }

    /// A hand-built branch-parallel DAG plan over [`zoo::branchy_cnn`]'s
    /// single region: spine → {3×3 path, 5×5 path} → gather tail, with
    /// the scatter object read by both branches and one gather object per
    /// branch. Prediction stamped by [`crate::baselines::predict_dag`].
    fn branchy_dag(g: &ampsinf_model::LayerGraph, cfg: &AmpsConfig) -> crate::plan::DagPlan {
        use crate::plan::{DagNode, DagObject, DagPlan};
        let regions = g.branch_regions();
        let r = &regions[0];
        let n = g.num_layers();
        let mem = 512u32;
        let nodes = vec![
            DagNode {
                start: 0,
                end: r.entry,
                memory_mb: mem,
            },
            DagNode {
                start: r.branches[0].0,
                end: r.branches[0].1,
                memory_mb: mem,
            },
            DagNode {
                start: r.branches[1].0,
                end: r.branches[1].1,
                memory_mb: mem,
            },
            DagNode {
                start: r.merge,
                end: n - 1,
                memory_mb: mem,
            },
        ];
        let objects = vec![
            DagObject {
                producer: 0,
                consumers: vec![1, 2],
                bytes: g.cut_transfer_bytes(r.entry),
            },
            DagObject {
                producer: 1,
                consumers: vec![3],
                bytes: g.span_io_bytes(r.branches[0].0, r.branches[0].1).1,
            },
            DagObject {
                producer: 2,
                consumers: vec![3],
                bytes: g.span_io_bytes(r.branches[1].0, r.branches[1].1).1,
            },
        ];
        let mut plan = DagPlan {
            model: g.name.clone(),
            nodes,
            objects,
            predicted_time_s: 0.0,
            predicted_cost: 0.0,
        };
        plan.validate(n).unwrap();
        assert!(crate::baselines::predict_dag(
            &ampsinf_profiler::Profile::of(g),
            &mut plan,
            cfg
        ));
        plan
    }

    #[test]
    fn serve_one_dag_matches_prediction() {
        // The DAG twin of `serve_one_matches_prediction`: the critical
        // path and summed cost predicted by `predict_dag` must equal the
        // platform's measured cold behaviour, scatter/gather fees
        // included — prediction IS simulation on branches too.
        let g = zoo::branchy_cnn();
        let cfg = AmpsConfig::default();
        let plan = branchy_dag(&g, &cfg);
        assert_eq!(plan.width(), 2);
        let coord = Coordinator::new(cfg);
        let mut platform = coord.platform();
        let dep = coord.deploy_dag(&mut platform, &g, &plan).unwrap();
        // An empty block marks where the request's key block starts.
        let base = platform.store.fresh_block(0);
        let report = coord.serve_one(&mut platform, &dep, 0.0).unwrap();
        assert!(
            (report.inference_s - plan.predicted_time_s).abs() < 1e-6,
            "measured {} vs predicted {}",
            report.inference_s,
            plan.predicted_time_s
        );
        assert!(
            (report.dollars - plan.predicted_cost).abs() < 1e-9,
            "measured {} vs predicted {}",
            report.dollars,
            plan.predicted_cost
        );
        // Branches overlap: the critical path is shorter than the sum of
        // node durations, and every node still bills.
        let sum_s: f64 = report
            .outcomes
            .iter()
            .map(InvocationOutcome::duration)
            .sum();
        assert_eq!(report.outcomes.len(), 4);
        assert!(report.inference_s < sum_s - 1e-9);
        // All three objects (scatter + two gathers) were checkpointed
        // under the request's key block.
        assert_eq!(dep.num_objects(), 3);
        for o in 0..3 {
            assert!(platform.store.size_of_id(base.offset(o)).is_some());
        }
        assert!(platform.settle_storage(1000.0) > 0.0);
        assert!(report.retries.is_empty());
        assert_eq!(report.wasted_s, 0.0);
    }

    #[test]
    fn chain_critical_path_is_every_node() {
        // A chain's completions are monotone in node order, so every
        // clean request's critical path is the whole chain (nodes after
        // the first to finish last ran for zero seconds): the walk's sums
        // must equal the busy seconds, bit for bit, in both trace modes.
        let g = zoo::resnet50();
        let (coord, plan) = optimized(&g);
        let arrivals: Vec<f64> = (0..12).map(|i| i as f64 * 0.5).collect();
        for coord in [coord.clone(), Coordinator::new(coord.cfg.with_pipeline(2))] {
            let mut platform = coord.platform();
            let dep = coord.deploy(&mut platform, &g, &plan).unwrap();
            let trace = if coord.cfg.pipeline_depth > 0 {
                coord.serve_trace_pipelined(&mut platform, &dep, &arrivals)
            } else {
                coord.serve_trace(&mut platform, &dep, &arrivals)
            };
            let stats = trace.dag_nodes.expect("every single-deployment trace");
            assert_eq!(stats.busy_s.len(), plan.num_lambdas());
            assert_eq!(stats.busy_s, stats.crit_s);
            assert!(stats.busy_s() > 0.0);
        }
    }

    #[test]
    fn deploy_rejects_overlapping_partitions() {
        let g = zoo::resnet50();
        let (coord, mut plan) = optimized(&g);
        assert!(plan.num_lambdas() >= 2, "need a boundary to overlap");
        plan.partitions[1].start -= 1;
        let mut platform = coord.platform();
        match coord.deploy(&mut platform, &g, &plan) {
            Err(DeployError::InvalidPlan(why)) => assert!(why.contains("tile"), "{why}"),
            other => panic!("expected InvalidPlan, got {other:?}"),
        }
    }

    #[test]
    fn deploy_dag_rejects_backward_objects() {
        let g = zoo::branchy_cnn();
        let cfg = AmpsConfig::default();
        let mut plan = branchy_dag(&g, &cfg);
        // The gather tail's first input now claims to feed the spine.
        plan.objects[1].consumers = vec![0];
        let coord = Coordinator::new(cfg);
        let mut platform = coord.platform();
        match coord.deploy_dag(&mut platform, &g, &plan) {
            Err(DeployError::InvalidPlan(why)) => assert!(why.contains("backward"), "{why}"),
            other => panic!("expected InvalidPlan, got {other:?}"),
        }
    }

    #[test]
    fn dag_trace_pipelined_bounds_scale_out_on_bursty_trace() {
        // On a burst of simultaneous arrivals, the unpipelined DAG trace
        // engine scales out (one cold sandbox per request per node) while
        // the station-gated engine reuses its bounded stations warm —
        // fewer cold starts, queueing surfaced as station stall.
        let g = zoo::branchy_cnn();
        let cfg = AmpsConfig::default();
        let plan = branchy_dag(&g, &cfg);
        let arrivals = vec![0.0; 8];

        let coord = Coordinator::new(cfg.clone());
        let mut p_seq = coord.platform();
        let dep = coord.deploy_dag(&mut p_seq, &g, &plan).unwrap();
        let seq = coord.serve_trace(&mut p_seq, &dep, &arrivals);
        assert_eq!(seq.failures, 0);

        let coord_pipe = Coordinator::new(cfg.with_pipeline(1));
        let mut p_pipe = coord_pipe.platform();
        let dep_pipe = coord_pipe.deploy_dag(&mut p_pipe, &g, &plan).unwrap();
        let pipe = coord_pipe.serve_trace_pipelined(&mut p_pipe, &dep_pipe, &arrivals);
        assert_eq!(pipe.failures, 0);
        assert!(
            pipe.cold_starts < seq.cold_starts,
            "stations should reuse warm sandboxes: {} vs {}",
            pipe.cold_starts,
            seq.cold_starts
        );
        let stats = pipe.pipeline.expect("pipelined trace carries stats");
        assert_eq!(stats.stage_busy_s.len(), plan.num_lambdas());
        assert!(stats.utilization() > 0.0);
        assert!(stats.stall_s() > 0.0);
    }

    #[test]
    fn chain_objects_flow_through_storage() {
        let g = zoo::resnet50();
        let (coord, plan) = optimized(&g);
        assert!(plan.num_lambdas() >= 2);
        let mut platform = coord.platform();
        let dep = coord.deploy(&mut platform, &g, &plan).unwrap();
        // An empty block marks where the request's key block starts.
        let base = platform.store.fresh_block(0);
        coord.serve_one(&mut platform, &dep, 0.0).unwrap();
        // Intermediate objects exist for every interior boundary, under
        // the request's key block.
        assert_eq!(dep.num_objects(), plan.num_lambdas() - 1);
        for i in 0..dep.num_objects() as u32 {
            assert!(platform.store.size_of_id(base.offset(i)).is_some());
        }
        // Settlement charges at-rest storage for them.
        let settled = platform.settle_storage(1000.0);
        assert!(settled > 0.0);
    }
    #[test]
    fn requests_at_one_instant_write_disjoint_key_blocks() {
        // Two requests at the same `t0` on one platform: each draws its
        // own key block, so neither overwrites the other's objects.
        let g = zoo::resnet50();
        let (coord, plan) = optimized(&g);
        let mut platform = coord.platform();
        let dep = coord.deploy(&mut platform, &g, &plan).unwrap();
        let n = dep.num_objects();
        assert!(n >= 1);
        let first = platform.store.fresh_block(0);
        coord.serve_one(&mut platform, &dep, 0.0).unwrap();
        let one_request = platform.store.live_bytes();
        let second = platform.store.fresh_block(0);
        coord.serve_one(&mut platform, &dep, 0.0).unwrap();
        assert_eq!(platform.store.num_keys(), 2 * n);
        assert_eq!(second, first.offset(n as u32));
        for o in 0..n as u32 {
            assert!(platform.store.size_of_id(first.offset(o)).is_some());
            assert!(platform.store.size_of_id(second.offset(o)).is_some());
        }
        assert_eq!(platform.store.live_bytes(), 2 * one_request);
    }

    #[test]
    fn closed_loop_storage_failure_names_its_key() {
        // ResNet-50's 2-partition chain on a store that fails 90% of
        // requests, with no chain-level retries: the failure's reason
        // names the request's one object by key.
        let g = zoo::resnet50();
        let (coord, plan) = optimized(&g);
        assert_eq!(plan.num_lambdas(), 2);
        let cfg = AmpsConfig {
            store: ampsinf_faas::StoreKind::flaky_s3(0.9),
            ..coord.cfg.clone()
        };
        let coord = Coordinator::new(cfg.with_retries(0));
        let mut platform = coord.platform();
        let dep = coord.deploy(&mut platform, &g, &plan).unwrap();
        let base = platform.store.fresh_block(0);
        let err = coord.serve_one(&mut platform, &dep, 0.0).unwrap_err();
        assert_eq!(err.reason, InvokeError::StorageUnavailable(base));
        let named = format!("storage unavailable for object#{}", base.index());
        assert_eq!(err.reason.to_string(), named);
        assert!(err.to_string().ends_with(&named), "{err}");
    }
}
