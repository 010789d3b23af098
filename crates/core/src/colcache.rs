//! Per-optimize segment-column memo cache.
//!
//! A cut is a list of segment boundaries, and adjacent cuts overwhelmingly
//! share segments: enumerating cuts of a model re-derives the same
//! `(start, end)` column evaluations thousands of times. A segment's
//! columns are a pure function of `(profile, start, end, config)` — its
//! storage objects are [`Profile::chain_io`]'s, fixed by `start` and
//! `end` — so one optimize call shares a single memo table across both
//! passes and every worker thread.
//!
//! The cache stores the **post-`presolve_dominated`** Pareto frontier: it
//! is what every consumer (the separable fast paths and the MIQP assembly)
//! actually wants, and it is idempotent, so cached and uncached paths
//! produce identical columns. Values are computed *outside* the lock;
//! racing threads may duplicate a computation (each counts a miss), but
//! since the function is pure they compute bit-identical values and
//! whichever inserts first wins — results never depend on interleaving.

use crate::config::AmpsConfig;
use crate::miqp_build::{evaluate_segment, presolve_dominated, PartitionColumns};
use crate::FixedHashMap;
use ampsinf_profiler::{quick_eval_node, Profile};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

/// A memoized segment evaluation: `None` records an infeasible segment
/// (no feasible memory) so it is not re-derived either.
type CachedColumns = Option<Arc<PartitionColumns>>;

/// Stand-alone hit/miss tally. A sweep threads one per grid point through
/// the shared cache's `_tracked` accessors so amortization is observable
/// per point, while the cache's own totals keep accumulating across the
/// whole sweep.
#[derive(Debug, Default)]
pub struct CacheCounters {
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl CacheCounters {
    /// Creates a zeroed counter pair.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lookups served from the table while this counter was attached.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that evaluated a segment while this counter was attached.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Tallies one hit (for memo tables outside this module that follow
    /// the same attribution discipline).
    pub(crate) fn add_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Tallies one miss.
    pub(crate) fn add_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }
}

/// Raw per-memory evaluations of one DAG node: for each feasible memory
/// of the span, in ascending grid order, the `quick_eval_node` outcome
/// under the node's explicit object reads/writes (`None` records an
/// evaluation error, e.g. a memory that cannot hold the batch buffers).
///
/// Unlike the chain's segment columns these are deliberately **not**
/// presolved: the DAG search's min-dollar pick and the polish scan both
/// tie-break toward the smallest memory over the *raw* grid, and a
/// dominance presolve could drop an exact-cost-tie column the raw scan
/// would have chosen — so caching the raw grid is what keeps warm plans
/// bit-identical to cold ones.
#[derive(Debug)]
pub struct NodeColumns {
    /// Feasible memory sizes, ascending.
    pub memories: Vec<u32>,
    /// `(duration_s, dollars)` per memory, parallel to `memories`.
    pub evals: Vec<Option<(f64, f64)>>,
}

impl NodeColumns {
    /// Min-dollar `(memory, dollars)` over the raw grid, scanning in
    /// ascending order with a strict improvement test so ties break
    /// toward the smallest block.
    pub fn min_cost(&self) -> Option<(u32, f64)> {
        let mut best: Option<(u32, f64)> = None;
        for (&m, ev) in self.memories.iter().zip(&self.evals) {
            if let Some((_, dollars)) = ev {
                if best.is_none_or(|(_, c)| *dollars < c) {
                    best = Some((m, *dollars));
                }
            }
        }
        best
    }

    /// The evaluation at one memory size, if feasible.
    pub fn eval_at(&self, mem: u32) -> Option<(f64, f64)> {
        self.memories
            .iter()
            .position(|&m| m == mem)
            .and_then(|i| self.evals[i])
    }
}

/// Node entries of one `(start, end)` span, distinguished by their object
/// read/write byte lists. Spans see only a handful of distinct io shapes
/// (chain interior, gather-fed, scatter-feeding), so a linear scan beats
/// hashing the byte lists — and lookups allocate nothing on a hit.
type NodeSlot = Vec<(Box<[u64]>, Box<[u64]>, Arc<NodeColumns>)>;

/// Thread-shared memo table `(start, end) → presolved PartitionColumns`,
/// plus the DAG search's raw node-evaluation memo (same discipline:
/// values computed outside the lock; racing duplicates are bit-identical
/// because the evaluation is pure).
#[derive(Debug, Default)]
pub struct SegmentColumnCache {
    map: RwLock<FixedHashMap<(usize, usize), CachedColumns>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    nodes: RwLock<FixedHashMap<(usize, usize), NodeSlot>>,
    node_hits: AtomicUsize,
    node_misses: AtomicUsize,
}

impl SegmentColumnCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the presolved columns of segment `[start, end]`, evaluating
    /// and inserting them on first use.
    pub fn get_or_eval(
        &self,
        profile: &Profile,
        start: usize,
        end: usize,
        cfg: &AmpsConfig,
    ) -> CachedColumns {
        self.get_or_eval_tracked(profile, start, end, cfg, None)
    }

    /// [`get_or_eval`](Self::get_or_eval) that additionally tallies the
    /// hit/miss into `extra` (when given) on top of the cache's own totals.
    pub fn get_or_eval_tracked(
        &self,
        profile: &Profile,
        start: usize,
        end: usize,
        cfg: &AmpsConfig,
        extra: Option<&CacheCounters>,
    ) -> CachedColumns {
        if let Some(v) = self.map.read().expect("cache lock").get(&(start, end)) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            if let Some(c) = extra {
                c.hits.fetch_add(1, Ordering::Relaxed);
            }
            return v.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        if let Some(c) = extra {
            c.misses.fetch_add(1, Ordering::Relaxed);
        }
        let val =
            evaluate_segment(profile, start, end, cfg).map(|p| Arc::new(presolve_dominated(&p)));
        self.map
            .write()
            .expect("cache lock")
            .entry((start, end))
            .or_insert(val)
            .clone()
    }

    /// Presolved columns for every segment of `cut`, or `None` when some
    /// segment has no feasible memory — the cached equivalent of
    /// `evaluate_columns` + `presolve_dominated` per partition.
    pub fn columns_for_cut(
        &self,
        profile: &Profile,
        cut: &[usize],
        cfg: &AmpsConfig,
    ) -> Option<Vec<Arc<PartitionColumns>>> {
        self.columns_for_cut_tracked(profile, cut, cfg, None)
    }

    /// [`columns_for_cut`](Self::columns_for_cut) with per-point counter
    /// attribution.
    pub fn columns_for_cut_tracked(
        &self,
        profile: &Profile,
        cut: &[usize],
        cfg: &AmpsConfig,
        extra: Option<&CacheCounters>,
    ) -> Option<Vec<Arc<PartitionColumns>>> {
        let mut parts = Vec::with_capacity(cut.len());
        let mut start = 0usize;
        for &end in cut {
            parts.push(self.get_or_eval_tracked(profile, start, end, cfg, extra)?);
            start = end + 1;
        }
        Some(parts)
    }

    /// Returns the raw node columns of span `[start, end]` under the given
    /// object reads/writes, evaluating and inserting them on first use.
    /// The hit/miss is additionally tallied into `extra` when given (the
    /// DAG search threads one per point, mirroring the `_tracked` chain
    /// accessors).
    #[allow(clippy::too_many_arguments)]
    pub fn node_columns_tracked(
        &self,
        profile: &Profile,
        start: usize,
        end: usize,
        reads: &[u64],
        writes: &[u64],
        cfg: &AmpsConfig,
        extra: Option<&CacheCounters>,
    ) -> Arc<NodeColumns> {
        if let Some(slot) = self
            .nodes
            .read()
            .expect("node cache lock")
            .get(&(start, end))
        {
            if let Some((_, _, cols)) = slot
                .iter()
                .find(|(r, w, _)| &**r == reads && &**w == writes)
            {
                self.node_hits.fetch_add(1, Ordering::Relaxed);
                if let Some(c) = extra {
                    c.hits.fetch_add(1, Ordering::Relaxed);
                }
                return Arc::clone(cols);
            }
        }
        self.node_misses.fetch_add(1, Ordering::Relaxed);
        if let Some(c) = extra {
            c.misses.fetch_add(1, Ordering::Relaxed);
        }
        let memories = profile.feasible_memories(start, end, &cfg.quotas, &cfg.perf);
        let evals: Vec<Option<(f64, f64)>> = memories
            .iter()
            .map(|&m| {
                quick_eval_node(
                    profile,
                    start,
                    end,
                    m,
                    &cfg.quotas,
                    &cfg.prices,
                    &cfg.perf,
                    &cfg.store,
                    reads,
                    writes,
                )
                .ok()
                .map(|e| (e.duration_s, e.dollars))
            })
            .collect();
        let cols = Arc::new(NodeColumns { memories, evals });
        let mut table = self.nodes.write().expect("node cache lock");
        let slot = table.entry((start, end)).or_default();
        // A racing thread may have inserted the same io shape meanwhile;
        // keep the first copy so every reader shares one allocation.
        if let Some((_, _, existing)) = slot
            .iter()
            .find(|(r, w, _)| &**r == reads && &**w == writes)
        {
            return Arc::clone(existing);
        }
        slot.push((reads.into(), writes.into(), Arc::clone(&cols)));
        cols
    }

    /// The node columns of chain segment `[start, end]`: the node
    /// `DagPlan::from_chain` deploys it as, which reads and writes
    /// [`Profile::chain_io`]'s objects.
    pub(crate) fn chain_node_columns(
        &self,
        profile: &Profile,
        start: usize,
        end: usize,
        cfg: &AmpsConfig,
    ) -> Arc<NodeColumns> {
        let (reads, writes) = profile.chain_io(start, end);
        self.node_columns_tracked(profile, start, end, reads, writes, cfg, None)
    }

    /// Tallies `n` segment references served by a memo layered over this
    /// cache (the optimizer's pass-1 summary table), so a hit keeps
    /// meaning "a reference that did not evaluate its segment".
    pub(crate) fn add_hits(&self, n: usize) {
        self.hits.fetch_add(n, Ordering::Relaxed);
    }

    /// Lookups served from the table.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that evaluated the segment (racing threads may both count a
    /// miss for the same key; the *values* are identical regardless).
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Node-column lookups served from the table.
    pub fn node_hits(&self) -> usize {
        self.node_hits.load(Ordering::Relaxed)
    }

    /// Node-column lookups that evaluated the span's memory grid (racing
    /// threads may duplicate one; values are identical regardless).
    pub fn node_misses(&self) -> usize {
        self.node_misses.load(Ordering::Relaxed)
    }
}
