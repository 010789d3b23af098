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

use crate::config::AmpsConfig;
use ampsinf_model::{BranchRegion, LayerGraph};
use ampsinf_profiler::Profile;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
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
type SpineMemo = RwLock<HashMap<(usize, usize), Option<Arc<SpineParts>>>>;

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
    spine_hits: AtomicUsize,
    spine_solves: AtomicUsize,
    /// Per-region branch-node memo: the min-cost memory per branch, or
    /// `None` when some branch has no feasible evaluation.
    branches: RwLock<HashMap<usize, Option<Arc<Vec<u32>>>>>,
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
            spines: RwLock::new(HashMap::new()),
            spine_hits: AtomicUsize::new(0),
            spine_solves: AtomicUsize::new(0),
            branches: RwLock::new(HashMap::new()),
        }
    }

    /// The memoized spine span between `prev` and `next` (region indices,
    /// `None` = the model end), solving via `f` on first use. `track`
    /// receives the per-call hit/miss tally on top of the shared totals.
    pub(crate) fn spine_or<F>(
        &self,
        prev: Option<usize>,
        next: Option<usize>,
        track: Option<&crate::colcache::CacheCounters>,
        f: F,
    ) -> Option<Arc<SpineParts>>
    where
        F: FnOnce() -> Option<SpineParts>,
    {
        let key = (prev.map_or(0, |i| i + 1), next.map_or(0, |i| i + 1));
        if let Some(v) = self.spines.read().expect("spine memo lock").get(&key) {
            self.spine_hits.fetch_add(1, Ordering::Relaxed);
            if let Some(c) = track {
                c.add_hit();
            }
            return v.clone();
        }
        self.spine_solves.fetch_add(1, Ordering::Relaxed);
        if let Some(c) = track {
            c.add_miss();
        }
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

    /// Spine spans served from the memo.
    pub(crate) fn spine_hits(&self) -> usize {
        self.spine_hits.load(Ordering::Relaxed)
    }

    /// Spine spans actually solved (memo misses; racing trials may
    /// duplicate one — the parts are identical regardless).
    pub(crate) fn spine_solves(&self) -> usize {
        self.spine_solves.load(Ordering::Relaxed)
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
    enumerate_cut_slots(profile, cfg).1
}

/// [`enumerate_cuts`] plus its boundary *slots*: the ascending end layers
/// every cut draws from (the candidate boundaries, then the final layer).
/// Every segment of every cut starts right after one slot (or at layer 0)
/// and ends at a later one, so `(start slot, end slot)` pairs index dense
/// per-segment tables.
pub(crate) fn enumerate_cut_slots(
    profile: &Profile,
    cfg: &AmpsConfig,
) -> (Vec<usize>, Vec<Vec<usize>>) {
    let n = profile.num_layers();
    let mut ends = candidate_boundaries(profile, cfg);
    ends.push(n - 1); // the final boundary is always available
    let m = ends.len();
    let mut walk = CutWalk {
        profile,
        cfg,
        ends: &ends,
        feasible: vec![None; m * m],
        acc: Vec::new(),
        out: Vec::new(),
    };

    // Iterative deepening on the partition count keeps low-k cuts first.
    for k in 1..=cfg.max_partitions {
        walk.extend(0, k);
        if walk.out.len() >= CUT_BUDGET {
            walk.out.truncate(CUT_BUDGET);
            break;
        }
    }
    let CutWalk { out: cuts, .. } = walk;
    (ends, cuts)
}

/// The recursive cut walk's state: the boundary slots and the memo of
/// every `(start slot, end slot)` pair's [`segment_feasible`] verdict,
/// which the deepening rounds and sibling branches ask for repeatedly.
struct CutWalk<'a> {
    profile: &'a Profile,
    cfg: &'a AmpsConfig,
    ends: &'a [usize],
    /// `m × m`, indexed `start slot · m + end slot`; `None` = not asked yet.
    feasible: Vec<Option<bool>>,
    acc: Vec<usize>,
    out: Vec<Vec<usize>>,
}

impl CutWalk<'_> {
    /// Memoized [`segment_feasible`] of the segment from start slot `s`
    /// (slot 0 starts at layer 0, slot `j + 1` right after `ends[j]`) to
    /// `ends[e]`.
    fn feasible(&mut self, s: usize, e: usize) -> bool {
        let (profile, cfg, ends) = (self.profile, self.cfg, self.ends);
        let start = if s == 0 { 0 } else { ends[s - 1] + 1 };
        *self.feasible[s * ends.len() + e]
            .get_or_insert_with(|| segment_feasible(profile, start, ends[e], cfg))
    }

    /// Covers the layers from start slot `s` with exactly `k` more
    /// partitions ending at boundary slots.
    fn extend(&mut self, s: usize, k: usize) {
        if self.out.len() >= CUT_BUDGET {
            return;
        }
        let last = self.ends.len() - 1;
        if k == 1 {
            if self.feasible(s, last) {
                let mut cut = self.acc.clone();
                cut.push(self.ends[last]);
                self.out.push(cut);
            }
            return;
        }
        // Slots are ascending, so the ends at or after the segment start
        // are exactly slots `s..`; the final slot is left for `k == 1`.
        for e in s..last {
            if !self.feasible(s, e) {
                continue;
            }
            self.acc.push(self.ends[e]);
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
    use ampsinf_model::zoo;

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
