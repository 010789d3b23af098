//! The Profiler component of AMPS-Inf (paper §4, Fig. 4).
//!
//! "The Profiler calculates all the possible ways for the partition of the
//! given pre-trained model" and supplies the per-layer quantities the
//! optimization of §3 consumes: per-layer deployment size `e_i`, temporary
//! footprint `z_i`, workload `d_i`, boundary transfer sizes `p_i`, and the
//! unit execution times `u_{j,i}` over the platform's memory blocks.
//!
//! Three layers of API:
//!
//! * [`Profile`] — prefix-summed per-layer tables for O(1) segment
//!   aggregation and constraint pruning (paper constraints (4)–(7));
//! * [`quick_eval_node`] — the (time, cost) of running one partition at
//!   one memory size with explicit storage objects, in closed form. The
//!   optimizer, the baselines and the sweeps price every chain segment
//!   ([`Profile::chain_io`]) and every DAG node with it; a memory grid is
//!   priced through one [`NodePricer`], which computes the memory-
//!   independent terms once;
//! * [`evaluate_segment`] — the platform-backed reference it is tested
//!   against: it literally deploys and invokes the partition on a scratch
//!   [`Platform`] instance — the paper's profiling runs, compressed — so
//!   the optimizer's objective stays *identical* to the simulator's
//!   behaviour.

#![warn(missing_docs)]

use ampsinf_faas::perf::DurationBreakdown;
use ampsinf_faas::platform::Platform;
use ampsinf_faas::runtime::{PartitionWork, CODE_BYTES, DEPS_BYTES};
use ampsinf_faas::{PerfModel, PriceSheet, Quotas, StoreKind, MB};
use ampsinf_model::LayerGraph;
use std::borrow::Cow;

/// Per-layer profile entry (the paper's `e_i`, `d_i`, `z_i` carriers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerProfile {
    /// Weight bytes (`e_i × 4`-scaled; already in bytes).
    pub weight_bytes: u64,
    /// Forward FLOPs (`d_i`-equivalent workload).
    pub flops: u64,
    /// Output activation bytes.
    pub output_bytes: u64,
}

/// Precomputed per-model tables for fast segment math.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Model name.
    pub model: String,
    /// Per-layer entries in topological order.
    pub layers: Vec<LayerProfile>,
    /// `boundary_bytes[k]` = bytes crossing the cut after layer `k`
    /// (the paper's `p` vector, residual edges included).
    pub boundary_bytes: Vec<u64>,
    prefix_weights: Vec<u64>,
    prefix_flops: Vec<u64>,
    prefix_activations: Vec<u64>,
}

impl Profile {
    /// Profiles a model graph for single-image serving.
    pub fn of(graph: &LayerGraph) -> Self {
        Self::batched(graph, 1)
    }

    /// Profiles a model graph for batches of `batch` images per request:
    /// compute, activations and boundary transfers scale with the batch;
    /// weights do not (that is what makes batching cheaper per image, and
    /// why the paper's §5.4 batch plans pick larger memory blocks).
    pub fn batched(graph: &LayerGraph, batch: u64) -> Self {
        let n = graph.num_layers();
        let mut layers = Vec::with_capacity(n);
        let mut prefix_weights = Vec::with_capacity(n + 1);
        let mut prefix_flops = Vec::with_capacity(n + 1);
        let mut prefix_activations = Vec::with_capacity(n + 1);
        prefix_weights.push(0);
        prefix_flops.push(0);
        prefix_activations.push(0);
        assert!(batch >= 1, "batch must be at least 1");
        for node in graph.nodes() {
            let lp = LayerProfile {
                weight_bytes: node.params * graph.bytes_per_param(),
                flops: node.flops * batch,
                output_bytes: node.output_shape.bytes() * batch,
            };
            prefix_weights.push(prefix_weights.last().unwrap() + lp.weight_bytes);
            prefix_flops.push(prefix_flops.last().unwrap() + lp.flops);
            prefix_activations.push(prefix_activations.last().unwrap() + lp.output_bytes);
            layers.push(lp);
        }
        let boundary_bytes = graph
            .boundary_transfer_bytes()
            .into_iter()
            .map(|b| b * batch)
            .collect();
        Profile {
            model: graph.name.clone(),
            layers,
            boundary_bytes,
            prefix_weights,
            prefix_flops,
            prefix_activations,
        }
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Weight bytes of layers `[start, end]` (O(1)).
    pub fn weights(&self, start: usize, end: usize) -> u64 {
        self.prefix_weights[end + 1] - self.prefix_weights[start]
    }

    /// FLOPs of layers `[start, end]` (O(1)).
    pub fn flops(&self, start: usize, end: usize) -> u64 {
        self.prefix_flops[end + 1] - self.prefix_flops[start]
    }

    /// Activation bytes materialized in `[start, end]` (O(1)).
    pub fn activations(&self, start: usize, end: usize) -> u64 {
        self.prefix_activations[end + 1] - self.prefix_activations[start]
    }

    /// Bytes entering a segment starting at `start` (`p_{i-1}`).
    pub fn input_bytes(&self, start: usize) -> u64 {
        if start == 0 {
            self.layers[0].output_bytes
        } else {
            self.boundary_bytes[start - 1]
        }
    }

    /// Bytes leaving a segment ending at `end` (`p_i`).
    pub fn output_bytes(&self, end: usize) -> u64 {
        self.boundary_bytes[end]
    }

    /// The storage objects of chain segment `[start, end]`, as the
    /// explicit read and write lists [`quick_eval_node`] takes: one read
    /// of the boundary before `start` and one write of the boundary after
    /// `end` — none at the model's first layer (the image arrives with
    /// the trigger) or last layer (the prediction returns in the
    /// response).
    pub fn chain_io(&self, start: usize, end: usize) -> (&[u64], &[u64]) {
        let reads = if start == 0 {
            &[][..]
        } else {
            &self.boundary_bytes[start - 1..start]
        };
        let writes = if end + 1 == self.num_layers() {
            &[][..]
        } else {
            &self.boundary_bytes[end..=end]
        };
        (reads, writes)
    }

    /// Deployment-size feasibility of a segment (paper constraint (4)):
    /// `y·e + D + F ≤ A`.
    pub fn fits_deployment(&self, start: usize, end: usize, quotas: &Quotas) -> bool {
        self.weights(start, end) + DEPS_BYTES + CODE_BYTES <= u64::from(quotas.deploy_limit_mb) * MB
    }

    /// Temporary-storage feasibility (paper constraint (5)):
    /// `y·z + p_{i-1} ≤ J`.
    pub fn fits_tmp(&self, start: usize, end: usize, quotas: &Quotas) -> bool {
        self.weights(start, end) + self.input_bytes(start) <= u64::from(quotas.tmp_limit_mb) * MB
    }

    /// The paper's constraint (7): smallest allocatable memory block that
    /// can hold the segment's resident footprint, or `None` when even the
    /// largest block cannot (infeasible partition).
    pub fn memory_floor(
        &self,
        start: usize,
        end: usize,
        quotas: &Quotas,
        perf: &PerfModel,
    ) -> Option<u32> {
        let resident =
            2 * self.weights(start, end) + self.activations(start, end) + self.input_bytes(start);
        let footprint_mb = perf.runtime_footprint_mb + resident as f64 / MB as f64;
        let need_mb = (perf.oom_fraction * footprint_mb).ceil() as u32 + 1;
        quotas.round_up_memory(need_mb)
    }

    /// Memory blocks worth considering for a segment: the grid filtered by
    /// constraint (7)'s floor. Fine-grained quota regimes (the post-2020
    /// 1 MB-step preset has ~10k blocks) are thinned to a 64-point grid —
    /// the optimizer's search stays tractable and any returned block is
    /// still exactly allocatable.
    pub fn feasible_memories(
        &self,
        start: usize,
        end: usize,
        quotas: &Quotas,
        perf: &PerfModel,
    ) -> Vec<u32> {
        match self.memory_floor(start, end, quotas, perf) {
            None => Vec::new(),
            Some(floor) => quotas
                .memory_blocks_search_grid()
                .into_iter()
                .filter(|&m| m >= floor)
                .collect(),
        }
    }
}

/// Profiles `graph` once per **distinct** batch size in `batches`,
/// preserving first-occurrence order. A sweep over an SLO × batch grid
/// profiles each batch exactly once regardless of how many grid rows
/// share it.
pub fn batched_unique(graph: &LayerGraph, batches: &[u64]) -> Vec<(u64, Profile)> {
    let mut out: Vec<(u64, Profile)> = Vec::new();
    for &b in batches {
        if !out.iter().any(|(seen, _)| *seen == b) {
            out.push((b, Profile::batched(graph, b)));
        }
    }
    out
}

/// Ground-truth evaluation of one partition at one memory size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentEval {
    /// Wall-clock duration (cold invocation), seconds.
    pub duration_s: f64,
    /// Dollars billed to this invocation (compute + request + storage
    /// request fees).
    pub dollars: f64,
    /// Phase breakdown.
    pub breakdown: DurationBreakdown,
}

/// Evaluation failure: the segment cannot run in this configuration.
/// [`quick_eval_node`]'s reasons are static text, so rejecting a valid
/// memory size (the only kind a planner grid holds) allocates nothing;
/// an invalid memory size and [`evaluate_segment`]'s forwarded platform
/// messages own their text.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// Deployment rejected (constraint (4) or memory validity).
    Deploy(Cow<'static, str>),
    /// Invocation rejected (OOM, `/tmp`, timeout).
    Invoke(Cow<'static, str>),
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::Deploy(e) => write!(f, "deploy: {e}"),
            EvalError::Invoke(e) => write!(f, "invoke: {e}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// Runs layers `[start, end]` of `graph` at `memory_mb` on a scratch
/// platform and reports the measured (duration, dollars).
///
/// `is_first` / `is_last` control the storage wiring: a first partition
/// receives its image with the trigger (no GET), a last partition returns
/// its prediction in the response (no PUT) — exactly the paper's chain.
#[allow(clippy::too_many_arguments)]
pub fn evaluate_segment(
    graph: &LayerGraph,
    start: usize,
    end: usize,
    memory_mb: u32,
    quotas: &Quotas,
    prices: &PriceSheet,
    perf: &PerfModel,
    store: StoreKind,
    is_first: bool,
    is_last: bool,
) -> Result<SegmentEval, EvalError> {
    let mut platform = Platform::new(*quotas, *prices, *perf, store);
    let work = PartitionWork::from_segment(graph, start, end);
    let spec = work.function_spec(format!("{}[{start}..{end}]", graph.name), memory_mb);
    let (fid, _deploy_s) = platform
        .deploy(spec)
        .map_err(|e| EvalError::Deploy(e.to_string().into()))?;

    let input_key = (!is_first).then(|| platform.store.fresh_key());
    let output_key = (!is_last).then(|| platform.store.fresh_key());
    if let Some(key) = input_key {
        // Stage the upstream tensor so the GET has something to read.
        let mut scratch = ampsinf_faas::CostLedger::new();
        platform
            .store
            .put_id(key, work.seg.input_bytes, 0.0, prices, &mut scratch)
            .expect("staging put cannot fail on a non-flaky store");
    }
    let invocation = work.invocation(input_key, output_key);
    let out = platform
        .invoke(fid, 0.0, &invocation)
        .map_err(|e| EvalError::Invoke(e.to_string().into()))?;
    Ok(SegmentEval {
        duration_s: out.duration(),
        dollars: out.dollars,
        breakdown: out.breakdown,
    })
}

/// Closed-form evaluation of one partition at one memory size: the same
/// arithmetic the platform performs when [`evaluate_segment`] deploys and
/// invokes it, without constructing a platform. This is the one pricing
/// function of the optimizer, the baselines and the sweeps; the
/// exhaustive searches call it hundreds of thousands of times. It is
/// [`NodePricer::new`] followed by one [`NodePricer::eval`]; a caller
/// pricing a whole memory grid builds the pricer once.
///
/// Storage objects are explicit: `read_bytes` carries one entry per input
/// object (one GET + fee each), `write_bytes` one per output object (one
/// PUT + fee each). A chain segment reads and writes at most one object
/// each ([`Profile::chain_io`]); a scatter consumer reads its branch
/// input as one object; a gather node reads one object per branch. The
/// staged input (which feeds `/tmp` and the resident footprint) is the
/// sum of `read_bytes`, or the model input size for the root node (whose
/// image arrives with the trigger — no GET).
///
/// `tests::quick_eval_node_equals_platform` pins chain segments to
/// [`evaluate_segment`].
#[allow(clippy::too_many_arguments)]
pub fn quick_eval_node(
    profile: &Profile,
    start: usize,
    end: usize,
    memory_mb: u32,
    quotas: &Quotas,
    prices: &PriceSheet,
    perf: &PerfModel,
    store: &StoreKind,
    read_bytes: &[u64],
    write_bytes: &[u64],
) -> Result<SegmentEval, EvalError> {
    NodePricer::new(
        profile,
        start,
        end,
        quotas,
        prices,
        perf,
        store,
        read_bytes,
        write_bytes,
    )
    .eval(memory_mb)
}

/// [`quick_eval_node`] with everything that does not depend on memory
/// computed once: the package and `/tmp` checks, the resident footprint,
/// the cold start, the three full-share CPU works, the transfer seconds
/// and the request fees. [`NodePricer::eval`] then prices one memory
/// size with the same operations in the same order, so a grid priced
/// through one pricer is bit for bit the grid of per-cell calls.
#[derive(Debug, Clone, Copy)]
pub struct NodePricer<'a> {
    quotas: &'a Quotas,
    prices: &'a PriceSheet,
    perf: &'a PerfModel,
    /// The memory-independent terms, or the memory-independent rejection.
    fixed: Result<FixedTerms, Reject>,
}

/// A rejection that does not depend on memory. A plain tag, so a pricer
/// is `Copy` and has nothing to drop.
#[derive(Debug, Clone, Copy)]
enum Reject {
    /// Deployment package over the cap.
    PackageTooLarge,
    /// Staged input plus weights over the `/tmp` cap.
    TmpExceeded,
}

/// The memory-independent terms of one node's duration and dollars.
#[derive(Debug, Clone, Copy)]
struct FixedTerms {
    footprint_mb: f64,
    cold_s: f64,
    import_work: f64,
    load_work: f64,
    compute_work: f64,
    transfer_s: f64,
    fees: f64,
}

impl<'a> NodePricer<'a> {
    /// Prices the memory-independent part of layers `[start, end]` reading
    /// `read_bytes` and writing `write_bytes` (see [`quick_eval_node`]).
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn new(
        profile: &Profile,
        start: usize,
        end: usize,
        quotas: &'a Quotas,
        prices: &'a PriceSheet,
        perf: &'a PerfModel,
        store: &StoreKind,
        read_bytes: &[u64],
        write_bytes: &[u64],
    ) -> Self {
        let fixed = (|| {
            let weights = profile.weights(start, end);
            let package = CODE_BYTES + DEPS_BYTES + weights;
            if package > u64::from(quotas.deploy_limit_mb) * MB {
                return Err(Reject::PackageTooLarge);
            }
            let input_bytes = if read_bytes.is_empty() {
                profile.input_bytes(start)
            } else {
                read_bytes.iter().sum()
            };
            let tmp = weights + input_bytes;
            if tmp > u64::from(quotas.tmp_limit_mb) * MB {
                return Err(Reject::TmpExceeded);
            }
            let resident = 2 * weights + profile.activations(start, end) + input_bytes;
            let mut transfer_s = 0.0;
            let mut fees = 0.0;
            let xfer =
                |bytes: u64| bytes as f64 / (store.bandwidth_mbps * 1e6) + store.request_latency_s;
            for &r in read_bytes {
                transfer_s += xfer(r);
                if store.billed_requests {
                    fees += prices.s3_get_request;
                }
            }
            for &w in write_bytes {
                transfer_s += xfer(w);
                if store.billed_requests {
                    fees += prices.s3_put_request;
                }
            }
            Ok(FixedTerms {
                footprint_mb: perf.runtime_footprint_mb + resident as f64 / MB as f64,
                cold_s: perf.cold_start(package),
                import_work: perf.import_work(),
                load_work: perf.load_work(weights),
                compute_work: perf.compute_work(profile.flops(start, end)),
                transfer_s,
                fees,
            })
        })();
        NodePricer {
            quotas,
            prices,
            perf,
            fixed,
        }
    }

    /// The node's `(duration, dollars)` at `memory_mb`, exactly
    /// [`quick_eval_node`]'s result.
    #[inline]
    pub fn eval(&self, memory_mb: u32) -> Result<SegmentEval, EvalError> {
        use ampsinf_faas::perf::LambdaPerf;

        if !self.quotas.is_valid_memory(memory_mb) {
            return Err(EvalError::Deploy(
                format!("invalid memory {memory_mb}").into(),
            ));
        }
        let f = match &self.fixed {
            Ok(f) => f,
            Err(Reject::PackageTooLarge) => {
                return Err(EvalError::Deploy(Cow::Borrowed("package too large")))
            }
            Err(Reject::TmpExceeded) => {
                return Err(EvalError::Invoke(Cow::Borrowed("tmp exceeded")))
            }
        };
        let lp = LambdaPerf::new(self.perf, memory_mb);
        if lp.is_oom(f.footprint_mb) {
            return Err(EvalError::Invoke(Cow::Borrowed("out of memory")));
        }
        let b = DurationBreakdown {
            cold_s: f.cold_s,
            import_s: lp.cpu_time(f.import_work, f.footprint_mb),
            load_s: lp.cpu_time(f.load_work, f.footprint_mb),
            compute_s: lp.cpu_time(f.compute_work, f.footprint_mb),
            transfer_s: f.transfer_s,
            fixed_s: self.perf.fixed_overhead_s,
        };
        let duration = b.total();
        if duration > self.quotas.timeout_s {
            return Err(EvalError::Invoke(Cow::Borrowed("timeout")));
        }
        let dollars = self.prices.lambda_compute_cost(duration, memory_mb)
            + self.prices.lambda_request
            + f.fees;
        Ok(SegmentEval {
            duration_s: duration,
            dollars,
            breakdown: b,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampsinf_model::zoo;

    fn defaults() -> (Quotas, PriceSheet, PerfModel) {
        (
            Quotas::lambda_2020(),
            PriceSheet::aws_2020(),
            PerfModel::default(),
        )
    }

    #[test]
    fn profile_prefix_sums_match_graph_segments() {
        let g = zoo::mobilenet_v1();
        let p = Profile::of(&g);
        for (s, e) in [(0usize, 10usize), (5, 40), (0, g.num_layers() - 1)] {
            let seg = g.segment(s, e);
            assert_eq!(p.weights(s, e), seg.weight_bytes);
            assert_eq!(p.flops(s, e), seg.flops);
            assert_eq!(p.activations(s, e), seg.activation_bytes);
            assert_eq!(p.input_bytes(s), seg.input_bytes);
            assert_eq!(p.output_bytes(e), seg.output_bytes);
        }
    }

    #[test]
    fn deployment_constraint_detects_oversized_segments() {
        let (q, _, _) = defaults();
        let g = zoo::resnet50();
        let p = Profile::of(&g);
        // Whole ResNet50 exceeds 250 MB; a thin slice does not.
        assert!(!p.fits_deployment(0, g.num_layers() - 1, &q));
        assert!(p.fits_deployment(0, 20, &q));
    }

    #[test]
    fn memory_floor_monotone_in_segment_size() {
        let (q, _, perf) = defaults();
        let g = zoo::resnet50();
        let p = Profile::of(&g);
        let small = p.memory_floor(0, 10, &q, &perf).unwrap();
        let large = p.memory_floor(0, 120, &q, &perf).unwrap();
        assert!(large >= small);
        assert!(q.is_valid_memory(small));
    }

    #[test]
    fn feasible_memories_filtered_by_floor() {
        let (q, _, perf) = defaults();
        let g = zoo::mobilenet_v1();
        let p = Profile::of(&g);
        let mems = p.feasible_memories(0, g.num_layers() - 1, &q, &perf);
        assert!(!mems.is_empty());
        assert!(
            mems[0] >= 256,
            "floor should exclude 128 MB: {:?}",
            &mems[..2]
        );
        assert_eq!(*mems.last().unwrap(), 3008);
    }

    #[test]
    fn evaluate_matches_platform_duration_shape() {
        let (q, pr, pe) = defaults();
        let g = zoo::mobilenet_v1();
        let n = g.num_layers();
        let e512 =
            evaluate_segment(&g, 0, n - 1, 512, &q, &pr, &pe, StoreKind::s3(), true, true).unwrap();
        let e1024 = evaluate_segment(
            &g,
            0,
            n - 1,
            1024,
            &q,
            &pr,
            &pe,
            StoreKind::s3(),
            true,
            true,
        )
        .unwrap();
        let e3008 = evaluate_segment(
            &g,
            0,
            n - 1,
            3008,
            &q,
            &pr,
            &pe,
            StoreKind::s3(),
            true,
            true,
        )
        .unwrap();
        assert!(e512.duration_s > e1024.duration_s);
        assert!(e1024.duration_s > e3008.duration_s);
        // Table 2 cost shape: 3008 is the most expensive.
        assert!(e3008.dollars > e1024.dollars);
    }

    #[test]
    fn evaluate_rejects_oversized_deployment() {
        let (q, pr, pe) = defaults();
        let g = zoo::resnet50();
        let err = evaluate_segment(
            &g,
            0,
            g.num_layers() - 1,
            3008,
            &q,
            &pr,
            &pe,
            StoreKind::s3(),
            true,
            true,
        )
        .unwrap_err();
        assert!(matches!(err, EvalError::Deploy(_)));
    }

    #[test]
    fn middle_segment_pays_transfers() {
        let (q, pr, pe) = defaults();
        let g = zoo::resnet50();
        let mid = evaluate_segment(
            &g,
            50,
            100,
            1024,
            &q,
            &pr,
            &pe,
            StoreKind::s3(),
            false,
            false,
        )
        .unwrap();
        assert!(mid.breakdown.transfer_s > 0.0);
        let solo =
            evaluate_segment(&g, 50, 100, 1024, &q, &pr, &pe, StoreKind::s3(), true, true).unwrap();
        assert!(solo.breakdown.transfer_s < mid.breakdown.transfer_s);
    }

    #[test]
    fn quantized_profile_halves_weights_keeps_transfers() {
        let g = zoo::mobilenet_v1();
        let q = g.quantized(2);
        let p32 = Profile::of(&g);
        let p16 = Profile::of(&q);
        let n = g.num_layers();
        assert_eq!(p16.weights(0, n - 1) * 2, p32.weights(0, n - 1));
        assert_eq!(p16.boundary_bytes, p32.boundary_bytes);
        assert_eq!(p16.flops(0, n - 1), p32.flops(0, n - 1));
        // Quantization can only relax the deployment constraint.
        let (quotas, _, _) = defaults();
        for end in [20usize, 50, n - 1] {
            if p32.fits_deployment(0, end, &quotas) {
                assert!(p16.fits_deployment(0, end, &quotas));
            }
        }
    }

    #[test]
    fn batched_profile_scales_compute_not_weights() {
        let g = zoo::mobilenet_v1();
        let p1 = Profile::of(&g);
        let p10 = Profile::batched(&g, 10);
        let n = g.num_layers();
        assert_eq!(p10.flops(0, n - 1), 10 * p1.flops(0, n - 1));
        assert_eq!(p10.weights(0, n - 1), p1.weights(0, n - 1));
        assert_eq!(p10.boundary_bytes[5], 10 * p1.boundary_bytes[5]);
        // Bigger batches push the memory floor up (more resident data).
        let (q, _, perf) = defaults();
        let f1 = p1.memory_floor(0, n - 1, &q, &perf).unwrap();
        let f10 = p10.memory_floor(0, n - 1, &q, &perf).unwrap();
        assert!(f10 >= f1);
    }

    #[test]
    fn batched_unique_dedupes_and_keeps_order() {
        let g = zoo::mobilenet_v1();
        let profs = batched_unique(&g, &[8, 1, 8, 32, 1]);
        assert_eq!(
            profs.iter().map(|(b, _)| *b).collect::<Vec<_>>(),
            vec![8, 1, 32]
        );
        let n = g.num_layers();
        let direct = Profile::batched(&g, 8);
        assert_eq!(profs[0].1.flops(0, n - 1), direct.flops(0, n - 1));
        assert_eq!(profs[0].1.boundary_bytes, direct.boundary_bytes);
    }

    #[test]
    fn quick_eval_node_equals_platform() {
        // The optimizer objective must equal simulator behaviour exactly.
        let (q, pr, pe) = defaults();
        for g in [zoo::mobilenet_v1(), zoo::resnet50()] {
            let prof = Profile::of(&g);
            let n = g.num_layers();
            for (s, e) in [
                (0usize, n / 3),
                (n / 3 + 1, 2 * n / 3),
                (2 * n / 3 + 1, n - 1),
            ] {
                let (reads, writes) = prof.chain_io(s, e);
                for mem in [512u32, 1024, 2048, 3008] {
                    let quick = quick_eval_node(
                        &prof,
                        s,
                        e,
                        mem,
                        &q,
                        &pr,
                        &pe,
                        &StoreKind::s3(),
                        reads,
                        writes,
                    );
                    let full = evaluate_segment(
                        &g,
                        s,
                        e,
                        mem,
                        &q,
                        &pr,
                        &pe,
                        StoreKind::s3(),
                        s == 0,
                        e == n - 1,
                    );
                    match (quick, full) {
                        (Ok(a), Ok(b)) => {
                            assert!(
                                (a.duration_s - b.duration_s).abs() < 1e-9,
                                "{} [{s},{e}]@{mem}: {} vs {}",
                                g.name,
                                a.duration_s,
                                b.duration_s
                            );
                            assert!((a.dollars - b.dollars).abs() < 1e-12);
                        }
                        (Err(_), Err(_)) => {}
                        (a, b) => panic!("{} [{s},{e}]@{mem}: {a:?} vs {b:?}", g.name),
                    }
                }
            }
        }
    }

    #[test]
    fn chain_io_reads_and_writes_one_boundary_between_the_ends() {
        let g = zoo::resnet50();
        let p = Profile::of(&g);
        let n = g.num_layers();
        let empty: &[u64] = &[];
        assert_eq!(p.chain_io(0, n - 1), (empty, empty));
        assert_eq!(p.chain_io(0, 10), (empty, &[p.output_bytes(10)][..]));
        assert_eq!(p.chain_io(11, n - 1), (&[p.input_bytes(11)][..], empty));
        assert_eq!(
            p.chain_io(11, 40),
            (&[p.input_bytes(11)][..], &[p.output_bytes(40)][..])
        );
    }

    #[test]
    fn quick_eval_node_bills_each_object() {
        // A gather node reading k objects pays k GET fees and k request
        // latencies; splitting one read into two of the same total bytes
        // adds exactly one latency + one fee.
        let (q, pr, pe) = defaults();
        let g = zoo::mobilenet_v1();
        let prof = Profile::of(&g);
        let s3 = StoreKind::s3();
        let one = quick_eval_node(
            &prof,
            20,
            40,
            1024,
            &q,
            &pr,
            &pe,
            &s3,
            &[1_000_000],
            &[500_000],
        )
        .unwrap();
        let two = quick_eval_node(
            &prof,
            20,
            40,
            1024,
            &q,
            &pr,
            &pe,
            &s3,
            &[600_000, 400_000],
            &[500_000],
        )
        .unwrap();
        assert!(
            (two.breakdown.transfer_s - one.breakdown.transfer_s - s3.request_latency_s).abs()
                < 1e-12
        );
        let fee_delta = two.dollars - one.dollars;
        let expect = pr.s3_get_request
            + (pr.lambda_compute_cost(two.duration_s, 1024)
                - pr.lambda_compute_cost(one.duration_s, 1024));
        assert!((fee_delta - expect).abs() < 1e-15);
    }

    #[test]
    fn fast_store_reduces_transfer_time() {
        let (q, pr, pe) = defaults();
        let g = zoo::resnet50();
        let s3 = evaluate_segment(
            &g,
            30,
            90,
            1024,
            &q,
            &pr,
            &pe,
            StoreKind::s3(),
            false,
            false,
        )
        .unwrap();
        let fast = evaluate_segment(
            &g,
            30,
            90,
            1024,
            &q,
            &pr,
            &pe,
            StoreKind::fast_store(),
            false,
            false,
        )
        .unwrap();
        assert!(fast.breakdown.transfer_s < s3.breakdown.transfer_s);
        assert!(fast.duration_s < s3.duration_s);
    }
}
