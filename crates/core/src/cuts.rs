//! Cut enumeration — the Profiler's "all the possible ways for the
//! partition" (paper §4), pruned by the platform constraints.
//!
//! A *cut* is a strictly increasing list of end-layer indices whose last
//! entry is the final layer (the paper's 3-layer example (1,2) ↦ bounds
//! `[0, 2]`). Small models are enumerated exhaustively over every
//! position; large models first select a bounded set of candidate
//! boundaries at the cheapest transfer points (the paper's constraint (6)
//! rationale: "reducing search space by removing intuitively unpromising
//! solutions"), then enumerate combinations under a budget.

use crate::colcache::{CacheCounters, ColumnPick, NodeColumns};
use crate::config::AmpsConfig;
use crate::FixedHashMap;
use ampsinf_faas::runtime::{CODE_BYTES, DEPS_BYTES};
use ampsinf_faas::MB;
use ampsinf_model::{BranchRegion, LayerGraph, LayerOp};
use ampsinf_profiler::Profile;
use std::sync::{Arc, RwLock};

/// Exhaustive enumeration threshold: models with at most this many layers
/// enumerate every boundary position.
const EXHAUSTIVE_LAYERS: usize = 14;

/// Budget on the number of cuts returned (documented cap; enumeration
/// walks small partition counts first, which is where optima live — every
/// extra lambda pays import/transfer overhead).
const CUT_BUDGET: usize = 20_000;

/// Chooses candidate boundary positions (end-layer indices, excluding the
/// final layer) for a model.
pub fn candidate_boundaries(profile: &Profile, cfg: &AmpsConfig) -> Vec<usize> {
    let n = profile.num_layers();
    if n <= 1 {
        return Vec::new();
    }
    let all: Vec<usize> = (0..n - 1).collect();
    if n - 1 <= cfg.max_candidate_boundaries || n <= EXHAUSTIVE_LAYERS {
        return all;
    }
    // Bucket the layer range and take the cheapest-transfer position in
    // each bucket: spreads candidates while preferring block edges where
    // little data crosses (residual adds close their skip connections
    // there, so `p` is a single small tensor).
    let buckets = cfg.max_candidate_boundaries;
    let mut picks = Vec::with_capacity(buckets);
    for b in 0..buckets {
        let lo = b * (n - 1) / buckets;
        let hi = ((b + 1) * (n - 1) / buckets).min(n - 1);
        if lo >= hi {
            continue;
        }
        let best = (lo..hi)
            .min_by_key(|&k| (profile.boundary_bytes[k], k))
            .expect("non-empty bucket");
        picks.push(best);
    }
    // Feasibility-critical boundaries: greedy left-to-right packing against
    // the deployment limit. Without these, thinning can drop the only
    // boundary separating two weight-heavy layers and declare a perfectly
    // splittable model infeasible (e.g. adjacent embedding-scale layers).
    let mut start = 0usize;
    for k in 0..n - 1 {
        if !profile.fits_deployment(start, k + 1, &cfg.quotas) {
            picks.push(k);
            start = k + 1;
        }
    }
    picks.sort_unstable();
    picks.dedup();
    picks
}

/// True when the segment `[start, end]` can be a partition: deployment
/// limit (4), temporary storage (5), layer cap (6), and a feasible memory
/// block (7).
pub fn segment_feasible(profile: &Profile, start: usize, end: usize, cfg: &AmpsConfig) -> bool {
    let n = profile.num_layers();
    let cap = (cfg.max_partition_fraction * n as f64).ceil() as usize;
    if end + 1 - start > cap.max(1) {
        return false;
    }
    profile.fits_deployment(start, end, &cfg.quotas)
        && profile.fits_tmp(start, end, &cfg.quotas)
        && profile
            .memory_floor(start, end, &cfg.quotas, &cfg.perf)
            .is_some()
}

/// Splits every layer too heavy to deploy alone (constraint (4): code +
/// dependencies + its weights over the deployment limit, so no chain cut
/// can hold it) into the fewest [`LayerGraph::split_layer`] slices `k`
/// whose largest slice fits. Each split layer becomes a width-`k`
/// fork/join region that [`Optimizer::optimize_dag`](crate::Optimizer::optimize_dag)
/// plans and the coordinator serves like any other — intra-layer
/// parallelism (VGG16's 392 MB `fc1`) on the one planner and engine.
/// Returns the graph unchanged when every layer fits; errors when a heavy
/// layer is not a `Dense`, or does not fit even at one unit per slice.
pub fn split_oversized(graph: &LayerGraph, cfg: &AmpsConfig) -> Result<LayerGraph, String> {
    let budget =
        (u64::from(cfg.quotas.deploy_limit_mb) * MB).saturating_sub(CODE_BYTES + DEPS_BYTES);
    let bytes_per_param = graph.bytes_per_param();
    let mut out = graph.clone();
    // Back to front, so a split never shifts a layer still to be visited.
    for layer in (0..graph.num_layers()).rev() {
        let node = graph.node(layer);
        if node.params * bytes_per_param <= budget {
            continue;
        }
        let LayerOp::Dense {
            units,
            use_bias,
            activation,
        } = node.op
        else {
            return Err(format!(
                "{} ({}) exceeds the deployment limit and only Dense layers split",
                node.name,
                node.op.class_name()
            ));
        };
        let input = [graph.node(node.inputs[0]).output_shape];
        let slice_bytes = |k: u32| {
            let widest = LayerOp::Dense {
                units: units.div_ceil(k),
                use_bias,
                activation,
            };
            widest.param_count(&input) * bytes_per_param
        };
        let k = (2..=units)
            .find(|&k| slice_bytes(k) <= budget)
            .ok_or_else(|| format!("{} exceeds the deployment limit at any split", node.name))?;
        out = out.split_layer(layer, k)?;
    }
    Ok(out)
}

/// Branch-cut candidates alongside the chain cuts: the model's fork/join
/// regions (see [`LayerGraph::branch_regions`]) filtered to those the
/// platform can actually host — every branch span must be deployable as
/// its own partition node (constraints (4), (5), (7); the layer-count cap
/// (6) is waived for branch spans, which the topology fixes rather than
/// the planner). Regions are returned in ascending entry order.
pub fn branch_candidates(
    graph: &LayerGraph,
    profile: &Profile,
    cfg: &AmpsConfig,
) -> Vec<BranchRegion> {
    graph
        .branch_regions()
        .into_iter()
        .filter(|r| {
            r.branches.iter().all(|&(s, e)| {
                profile.fits_deployment(s, e, &cfg.quotas)
                    && profile.fits_tmp(s, e, &cfg.quotas)
                    && profile.memory_floor(s, e, &cfg.quotas, &cfg.perf).is_some()
            })
        })
        .collect()
}

/// One solved spine span: `(start, end, memory)` partitions covering the
/// chain layers between two accepted regions (or a model end).
pub(crate) type SpineParts = Vec<(usize, usize, u32)>;

/// The spine-span memo table (see [`DagShared::spines`]).
type SpineMemo = RwLock<FixedHashMap<(usize, usize), Option<Arc<SpineParts>>>>;

/// SLO-independent shared state of the DAG region search for one
/// `(model, batch)`: the hostable fork/join regions, the thinned spine
/// boundary candidates, the per-region scatter/gather byte tables, and
/// the spine-span memo. The trial plans of a greedy round differ from the
/// incumbent's in at most the two spine spans a new region splits — and a
/// span's min-cost partitioning is determined entirely by the identities
/// of its flanking regions — so one memo entry per `(prev, next)` pair
/// serves every trial, every round, and (in a sweep) every SLO point of
/// the batch.
pub(crate) struct DagShared {
    /// Hostable fork/join regions, ascending by entry.
    pub(crate) regions: Vec<BranchRegion>,
    /// Thinned spine boundary candidates ([`candidate_boundaries`]).
    pub(crate) cand: Vec<usize>,
    /// Per region: the scatter object's bytes (the entry tensor).
    pub(crate) scatter: Vec<u64>,
    /// Per region, per branch: the gather object's bytes (the branch
    /// output, batch-scaled).
    pub(crate) gather: Vec<Vec<u64>>,
    /// Spine-span memo keyed by `(prev region + 1, next region + 1)`
    /// (0 = the model end on that side); `None` records an unsolvable
    /// span. Values are pure functions of the key, so racing trials may
    /// duplicate a solve but never disagree.
    spines: SpineMemo,
    /// Per-region branch-node memo: the min-cost memory per branch, or
    /// `None` when some branch has no feasible evaluation.
    branches: RwLock<FixedHashMap<usize, Option<Arc<Vec<u32>>>>>,
}

impl DagShared {
    /// Builds the shared state: region candidates, spine boundary
    /// candidates, and the scatter/gather byte tables (each region's
    /// [`LayerGraph::region_gather_bytes`] row, batch-scaled, computed
    /// once instead of per trial).
    pub(crate) fn new(graph: &LayerGraph, profile: &Profile, cfg: &AmpsConfig) -> Self {
        let regions = branch_candidates(graph, profile, cfg);
        let cand = candidate_boundaries(profile, cfg);
        let scatter: Vec<u64> = regions
            .iter()
            .map(|r| profile.output_bytes(r.entry))
            .collect();
        let gather: Vec<Vec<u64>> = regions
            .iter()
            .map(|r| {
                graph
                    .region_gather_bytes(r)
                    .into_iter()
                    .map(|b| b * cfg.batch_size)
                    .collect()
            })
            .collect();
        DagShared {
            regions,
            cand,
            scatter,
            gather,
            spines: RwLock::default(),
            branches: RwLock::default(),
        }
    }

    /// The memoized spine span between `prev` and `next` (region indices,
    /// `None` = the model end), solving via `f` on first use. The hit or
    /// miss is tallied into `track` (racing trials may both count a miss
    /// for one span; the parts are identical regardless).
    pub(crate) fn spine_or<F>(
        &self,
        prev: Option<usize>,
        next: Option<usize>,
        track: &CacheCounters,
        f: F,
    ) -> Option<Arc<SpineParts>>
    where
        F: FnOnce() -> Option<SpineParts>,
    {
        let key = (prev.map_or(0, |i| i + 1), next.map_or(0, |i| i + 1));
        if let Some(v) = self.spines.read().expect("spine memo lock").get(&key) {
            track.add_hit();
            return v.clone();
        }
        track.add_miss();
        let val = f().map(Arc::new);
        self.spines
            .write()
            .expect("spine memo lock")
            .entry(key)
            .or_insert(val)
            .clone()
    }

    /// The memoized per-branch min-cost memories of one region, solving
    /// via `f` on first use.
    pub(crate) fn branch_mems_or<F>(&self, region: usize, f: F) -> Option<Arc<Vec<u32>>>
    where
        F: FnOnce() -> Option<Vec<u32>>,
    {
        if let Some(v) = self.branches.read().expect("branch memo lock").get(&region) {
            return v.clone();
        }
        let val = f().map(Arc::new);
        self.branches
            .write()
            .expect("branch memo lock")
            .entry(region)
            .or_insert(val)
            .clone()
    }
}

/// Inserts region `i` into the `accepted` trial set (region indices
/// sorted ascending by entry), returning the sorted trial or `None` when
/// the insertion would overlap a neighbor along the layer order. Because
/// `accepted` is already pairwise disjoint, checking `i` against its two
/// prospective neighbors is equivalent to the full adjacent-pair scan —
/// and a region always spans `entry < merge`, so an entry tie is itself
/// an overlap.
pub(crate) fn insert_region_sorted(
    accepted: &[usize],
    regions: &[BranchRegion],
    i: usize,
) -> Option<Vec<usize>> {
    let entry = regions[i].entry;
    let pos = accepted.partition_point(|&j| regions[j].entry < entry);
    if pos > 0 && regions[accepted[pos - 1]].merge > entry {
        return None;
    }
    if pos < accepted.len() && regions[i].merge > regions[accepted[pos]].entry {
        return None;
    }
    let mut trial = Vec::with_capacity(accepted.len() + 1);
    trial.extend_from_slice(&accepted[..pos]);
    trial.push(i);
    trial.extend_from_slice(&accepted[pos..]);
    Some(trial)
}

/// Enumerates feasible cuts over the candidate boundaries, smallest
/// partition counts first, up to the internal budget.
pub fn enumerate_cuts(profile: &Profile, cfg: &AmpsConfig) -> Vec<Vec<usize>> {
    let (set, _) = enumerate_cut_set(profile, cfg);
    (0..set.len()).map(|ci| set.cut(ci).collect()).collect()
}

/// The enumerated cuts stored flat: one arena of boundary slots and one
/// offset per cut, instead of a heap object per cut.
///
/// Every cut ends at the final layer and draws its end layers from the
/// ascending boundary slots `ends` (the candidate boundaries, then the
/// final layer). Each segment of a cut starts right after one slot (or at
/// layer 0, start slot 0) and ends at a later one, so `(start slot, end
/// slot)` pairs index dense per-segment tables (see
/// [`CutSet::segments`]).
#[derive(Debug)]
pub(crate) struct CutSet {
    /// Boundary slots: ascending end layers, the final layer last.
    pub(crate) ends: Vec<usize>,
    /// Every cut's end slots, cut after cut.
    slots: Vec<u16>,
    /// Cut `ci` is `slots[offsets[ci]..offsets[ci + 1]]`.
    offsets: Vec<u32>,
}

impl CutSet {
    /// An empty set over the boundary slots `ends`.
    fn new(ends: Vec<usize>) -> Self {
        assert!(
            ends.len() <= usize::from(u16::MAX) + 1,
            "at most 65,536 boundary slots"
        );
        CutSet {
            ends,
            slots: Vec::new(),
            offsets: vec![0],
        }
    }

    /// Appends one cut given by its end slots.
    fn push(&mut self, slots: &[u16]) {
        self.slots.extend_from_slice(slots);
        let end = u32::try_from(self.slots.len()).expect("slot arena fits u32 offsets");
        self.offsets.push(end);
    }

    /// Number of cuts.
    pub(crate) fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when no cut was enumerated.
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cut `ci`'s end slots, ascending.
    fn slots(&self, ci: usize) -> &[u16] {
        &self.slots[self.offsets[ci] as usize..self.offsets[ci + 1] as usize]
    }

    /// Cut `ci`'s end layers, ascending (the classic cut list).
    pub(crate) fn cut(&self, ci: usize) -> impl ExactSizeIterator<Item = usize> + '_ {
        self.slots(ci).iter().map(|&e| self.ends[usize::from(e)])
    }

    /// First layer of a segment at start slot `s`: slot 0 starts at
    /// layer 0, slot `j + 1` right after `ends[j]`.
    pub(crate) fn start_layer(&self, s: usize) -> usize {
        if s == 0 {
            0
        } else {
            self.ends[s - 1] + 1
        }
    }

    /// Cut `ci`'s segments as `(start slot, end slot)` (see
    /// [`CutSet::start_layer`]); a segment ends at `ends[end slot]`.
    pub(crate) fn segments(&self, ci: usize) -> impl ExactSizeIterator<Item = (usize, usize)> + '_ {
        let slots = self.slots(ci);
        (0..slots.len()).map(move |i| {
            let start = if i == 0 {
                0
            } else {
                usize::from(slots[i - 1]) + 1
            };
            (start, usize::from(slots[i]))
        })
    }
}

/// One `(start slot, end slot)` segment of a [`SegmentTable`].
#[derive(Debug, Clone, Default)]
pub(crate) struct SegmentCell {
    /// The cut walk's [`segment_feasible`] verdict; `None` when the walk
    /// never asked.
    feasible: Option<bool>,
    /// The segment memo's chain entry, once pass 1 reaches the segment.
    pub(crate) columns: Option<Arc<NodeColumns>>,
    /// The entry's separable `(min-cost, min-time)` picks; `None` when no
    /// memory is feasible or pass 1 never reached the segment.
    pub(crate) picks: Option<(ColumnPick, ColumnPick)>,
}

/// Every segment the cut walk asked about, stored `m × m` by `(start
/// slot, end slot)` over `m` boundary slots (see [`CutSet::segments`]).
/// The walk fills the feasibility verdicts; pass 1 adds the columns and
/// picks, which the knapsack stages, the winner's pricing and pipelined
/// stage times then read by slot.
#[derive(Debug)]
pub(crate) struct SegmentTable {
    m: usize,
    cells: Vec<SegmentCell>,
}

impl SegmentTable {
    /// The segment from start slot `s` to end slot `e`.
    pub(crate) fn cell(&self, s: usize, e: usize) -> &SegmentCell {
        &self.cells[s * self.m + e]
    }

    /// Mutable access to the segment from start slot `s` to end slot `e`.
    pub(crate) fn cell_mut(&mut self, s: usize, e: usize) -> &mut SegmentCell {
        &mut self.cells[s * self.m + e]
    }
}

/// [`enumerate_cuts`] as a flat [`CutSet`], with its boundary slots, and
/// the segment table holding the walk's feasibility verdicts.
pub(crate) fn enumerate_cut_set(profile: &Profile, cfg: &AmpsConfig) -> (CutSet, SegmentTable) {
    let n = profile.num_layers();
    let mut ends = candidate_boundaries(profile, cfg);
    ends.push(n - 1); // the final boundary is always available
    let m = ends.len();
    let mut walk = CutWalk {
        profile,
        cfg,
        segments: SegmentTable {
            m,
            cells: vec![SegmentCell::default(); m * m],
        },
        acc: Vec::new(),
        out: CutSet::new(ends),
    };

    // Iterative deepening on the partition count keeps low-k cuts first.
    // The walk stops adding cuts at the budget.
    for k in 1..=cfg.max_partitions {
        walk.extend(0, k);
        if walk.out.len() >= CUT_BUDGET {
            break;
        }
    }
    (walk.out, walk.segments)
}

/// The recursive cut walk's state: the cut set it fills and the segment
/// table memoizing every `(start slot, end slot)` pair's
/// [`segment_feasible`] verdict, which the deepening rounds and sibling
/// branches ask for repeatedly.
struct CutWalk<'a> {
    profile: &'a Profile,
    cfg: &'a AmpsConfig,
    segments: SegmentTable,
    /// End slots of the cut under construction.
    acc: Vec<u16>,
    out: CutSet,
}

impl CutWalk<'_> {
    /// Memoized [`segment_feasible`] of the segment from start slot `s`
    /// (slot 0 starts at layer 0, slot `j + 1` right after `ends[j]`) to
    /// `ends[e]`.
    fn feasible(&mut self, s: usize, e: usize) -> bool {
        let (profile, cfg) = (self.profile, self.cfg);
        let (start, end) = (self.out.start_layer(s), self.out.ends[e]);
        *self
            .segments
            .cell_mut(s, e)
            .feasible
            .get_or_insert_with(|| segment_feasible(profile, start, end, cfg))
    }

    /// Covers the layers from start slot `s` with exactly `k` more
    /// partitions ending at boundary slots.
    fn extend(&mut self, s: usize, k: usize) {
        if self.out.len() >= CUT_BUDGET {
            return;
        }
        let last = self.out.ends.len() - 1;
        if k == 1 {
            if self.feasible(s, last) {
                // `CutSet::new` bounds the slot count, so every slot fits.
                self.acc.push(last as u16);
                self.out.push(&self.acc);
                self.acc.pop();
            }
            return;
        }
        // Slots are ascending, so the ends at or after the segment start
        // are exactly slots `s..`; the final slot is left for `k == 1`.
        for e in s..last {
            if !self.feasible(s, e) {
                continue;
            }
            self.acc.push(e as u16);
            self.extend(e + 1, k - 1);
            self.acc.pop();
            if self.out.len() >= CUT_BUDGET {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampsinf_model::{serialize, zoo};

    #[test]
    fn split_oversized_leaves_fitting_graphs_unchanged() {
        let cfg = AmpsConfig::default();
        for g in [zoo::mobilenet_v1(), zoo::resnet50(), zoo::inception_v3()] {
            let s = split_oversized(&g, &cfg).unwrap();
            assert_eq!(serialize::to_json(&s), serialize::to_json(&g), "{}", g.name);
        }
    }

    #[test]
    fn split_oversized_uses_the_fewest_slices_that_fit() {
        let cfg = AmpsConfig::default();
        let budget = u64::from(cfg.quotas.deploy_limit_mb) * MB - CODE_BYTES - DEPS_BYTES;
        for g in [zoo::vgg16(), zoo::vgg19()] {
            let s = split_oversized(&g, &cfg).unwrap();
            let profile = Profile::of(&s);
            // Only fc1 is too heavy alone, and it becomes one region.
            let regions = s.branch_regions();
            assert_eq!(regions.len(), 1, "{}", g.name);
            let r = &regions[0];
            assert_eq!(s.node(r.merge).name, "fc1/concat");
            assert_eq!(r.width(), 5);
            // Every slice now deploys alone ...
            assert!(r
                .branches
                .iter()
                .all(|&(b, e)| profile.fits_deployment(b, e, &cfg.quotas)));
            // ... and one slice fewer would not: its widest slice
            // (ceil(units / (k - 1)) units) overflows the budget.
            let fc1 = g.node(g.find("fc1").unwrap());
            let fan_in = fc1.params / 4096 - 1;
            let widest = u64::from(4096u32.div_ceil(r.width() as u32 - 1));
            assert!((fan_in * widest + widest) * 4 > budget);
            assert_eq!(s.total_params(), g.total_params());
        }
    }

    #[test]
    fn split_vgg16_plans_and_serves_its_prediction() {
        use crate::{Coordinator, Optimizer};
        let g = zoo::vgg16();
        let cfg = AmpsConfig::default();
        // fc1 fits no chain partition until it is split.
        assert!(Optimizer::new(cfg.clone()).optimize(&g).is_err());
        let s = split_oversized(&g, &cfg).unwrap();
        let report = Optimizer::new(cfg.clone()).optimize_dag(&s).unwrap();
        let plan = report.dag.expect("the fc1 region beats the chain");
        assert_eq!(report.regions_used, 1);
        assert_eq!(plan.width(), 5);
        assert_eq!(plan.num_lambdas(), 7);
        let coord = Coordinator::new(cfg.clone());
        let mut platform = coord.platform();
        let dep = coord.deploy_dag(&mut platform, &s, &plan).unwrap();
        let job = coord.serve_one(&mut platform, &dep, 0.0).unwrap();
        assert!(
            (job.inference_s - plan.predicted_time_s).abs() < 1e-6,
            "served {} vs predicted {}",
            job.inference_s,
            plan.predicted_time_s
        );
        assert!(
            (job.dollars - plan.predicted_cost).abs() < 1e-9,
            "served {} vs predicted {}",
            job.dollars,
            plan.predicted_cost
        );
        // At zero tolerance the cheapest plan keeps the slices in a chain,
        // no dearer than a greedy per-layer slicer's $0.001896.
        let exact = Optimizer::new(AmpsConfig {
            cost_tolerance: 0.0,
            ..cfg
        })
        .optimize_dag(&s)
        .unwrap();
        assert!(exact.dag.is_none());
        assert!(exact.chain.plan.predicted_cost <= 0.001896);
        assert!(exact.chain.plan.predicted_cost < plan.predicted_cost);
    }

    #[test]
    fn split_oversized_rejects_unsplittable_layers() {
        // BERT's token embedding is too heavy alone and is no Dense.
        let err = split_oversized(&zoo::bert_base(), &AmpsConfig::default()).unwrap_err();
        assert!(err.contains("only Dense layers split"), "{err}");
    }

    #[test]
    fn three_layer_example_matches_paper() {
        // Paper §4: a 3-layer model has cuts (3), (1,2), (2,1), (1,1,1).
        // Our chain has an input layer + 3 dense layers = 4 graph layers;
        // boundaries between compute layers give the same 4 compositions
        // once the input layer rides with the first partition... the count
        // over 4 layers with k ≤ 4 partitions of an unconstrained small
        // model is 2^(4-1) = 8.
        let g = zoo::linear_chain(3, 8);
        let profile = Profile::of(&g);
        let cfg = AmpsConfig {
            max_partitions: 4,
            ..Default::default()
        };
        let cuts = enumerate_cuts(&profile, &cfg);
        assert_eq!(cuts.len(), 8);
        // All end at the final layer, strictly increasing.
        for cut in &cuts {
            assert_eq!(*cut.last().unwrap(), g.num_layers() - 1);
            assert!(cut.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn max_partitions_caps_cut_size() {
        let g = zoo::linear_chain(3, 8);
        let profile = Profile::of(&g);
        let cfg = AmpsConfig {
            max_partitions: 2,
            ..Default::default()
        };
        let cuts = enumerate_cuts(&profile, &cfg);
        assert!(cuts.iter().all(|c| c.len() <= 2));
        assert_eq!(cuts.len(), 4); // (4), and 3 two-way splits
    }

    #[test]
    fn resnet_whole_model_cut_infeasible() {
        // ResNet50 cannot be a single partition (deployment limit).
        let g = zoo::resnet50();
        let profile = Profile::of(&g);
        let cfg = AmpsConfig::default();
        let cuts = enumerate_cuts(&profile, &cfg);
        assert!(!cuts.is_empty());
        assert!(cuts.iter().all(|c| c.len() >= 2));
        // Every enumerated cut is fully feasible.
        for cut in cuts.iter().take(200) {
            let mut start = 0;
            for &end in cut {
                assert!(segment_feasible(&profile, start, end, &cfg));
                start = end + 1;
            }
        }
    }

    #[test]
    fn mobilenet_includes_single_lambda_cut() {
        let g = zoo::mobilenet_v1();
        let profile = Profile::of(&g);
        let cfg = AmpsConfig::default();
        let cuts = enumerate_cuts(&profile, &cfg);
        assert!(cuts.iter().any(|c| c.len() == 1));
    }

    #[test]
    fn candidates_prefer_cheap_boundaries() {
        let g = zoo::resnet50();
        let profile = Profile::of(&g);
        let cfg = AmpsConfig::default();
        let cands = candidate_boundaries(&profile, &cfg);
        // Bucketed picks plus feasibility-critical packing boundaries
        // (ResNet50 needs at most a couple of the latter).
        assert!(cands.len() <= cfg.max_candidate_boundaries + 4);
        assert!(!cands.is_empty());
        assert!(cands.windows(2).all(|w| w[0] < w[1]), "sorted unique");
        // The majority of candidates sit at cheap boundaries: strictly
        // below the global max transfer.
        let max_b = *profile.boundary_bytes.iter().max().unwrap();
        let cheap = cands
            .iter()
            .filter(|&&k| profile.boundary_bytes[k] < max_b)
            .count();
        assert!(cheap * 2 > cands.len());
    }

    #[test]
    fn feasibility_critical_boundaries_always_present() {
        // Two adjacent ~74 MB layers: the boundary between them is the
        // only legal split and must survive candidate thinning.
        use ampsinf_model::{Activation, LayerGraph, LayerOp, TensorShape};
        let mut g = LayerGraph::new("two-giants");
        let i = g.add(
            "input",
            LayerOp::Input {
                shape: TensorShape::Flat(1024),
            },
            &[],
        );
        let a = g.add(
            "giant_a",
            LayerOp::Dense {
                units: 18_000,
                use_bias: false,
                activation: Activation::Linear,
            },
            &[i],
        );
        let b = g.add(
            "giant_b",
            LayerOp::Dense {
                units: 1024,
                use_bias: false,
                activation: Activation::Linear,
            },
            &[a],
        );
        let _ = g.add(
            "out",
            LayerOp::Dense {
                units: 10,
                use_bias: true,
                activation: Activation::Softmax,
            },
            &[b],
        );
        let profile = Profile::of(&g);
        let cfg = AmpsConfig::default();
        let cuts = enumerate_cuts(&profile, &cfg);
        assert!(!cuts.is_empty(), "the giant/giant boundary must be offered");
    }

    #[test]
    fn branch_candidates_on_inception_and_resnet() {
        let cfg = AmpsConfig::default();
        let g = zoo::inception_v3();
        let profile = Profile::of(&g);
        let regions = branch_candidates(&g, &profile, &cfg);
        // Every mixed block is a fork/join region with 3–4 branches.
        assert!(regions.len() >= 10, "found {}", regions.len());
        for r in &regions {
            assert!(r.width() >= 2 && r.width() <= 4, "{r:?}");
            assert!(r.entry < r.merge);
            // Branches tile the interior contiguously.
            let mut at = r.entry + 1;
            for &(s, e) in &r.branches {
                assert_eq!(s, at);
                at = e + 1;
            }
            assert_eq!(at, r.merge);
        }
        // ResNet50 conv-shortcut blocks fork into two branches; identity
        // blocks (merge reads the entry tensor directly) are excluded.
        let g = zoo::resnet50();
        let profile = Profile::of(&g);
        let regions = branch_candidates(&g, &profile, &cfg);
        assert!(!regions.is_empty());
        assert!(regions.iter().all(|r| r.width() == 2));
    }

    #[test]
    fn partition_fraction_constraint6() {
        let g = zoo::linear_chain(7, 8); // 8 layers
        let profile = Profile::of(&g);
        let cfg = AmpsConfig {
            max_partition_fraction: 0.5, // ≤ 4 layers per partition
            max_partitions: 8,
            ..Default::default()
        };
        let cuts = enumerate_cuts(&profile, &cfg);
        for cut in &cuts {
            let mut start = 0;
            for &end in cut {
                assert!(end + 1 - start <= 4, "{cut:?}");
                start = end + 1;
            }
        }
        // The single-partition cut (8 layers) must be excluded.
        assert!(cuts.iter().all(|c| c.len() >= 2));
    }

    #[test]
    fn insert_region_sorted_matches_clone_sort_scan() {
        // In-place insertion must agree with the reference discipline it
        // replaced: clone + push + sort by entry + adjacent-overlap scan.
        let mk = |entry: usize, merge: usize| BranchRegion {
            entry,
            merge,
            branches: vec![(entry + 1, merge - 1)],
        };
        let regions = [mk(0, 4), mk(4, 8), mk(6, 10), mk(10, 12)];
        let reference = |accepted: &[usize], i: usize| -> Option<Vec<usize>> {
            let mut t = accepted.to_vec();
            t.push(i);
            t.sort_unstable_by_key(|&j| regions[j].entry);
            if t.windows(2)
                .any(|w| regions[w[0]].merge > regions[w[1]].entry)
            {
                return None;
            }
            Some(t)
        };
        let sets: [&[usize]; 5] = [&[], &[0], &[1], &[0, 3], &[0, 1, 3]];
        for accepted in sets {
            for i in 0..regions.len() {
                if accepted.contains(&i) {
                    continue;
                }
                assert_eq!(
                    insert_region_sorted(accepted, &regions, i),
                    reference(accepted, i),
                    "accepted={accepted:?} i={i}"
                );
            }
        }
    }
}
