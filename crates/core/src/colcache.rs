//! Per-optimize segment-column memo.
//!
//! A cut is a list of segment boundaries, and adjacent cuts overwhelmingly
//! share segments: enumerating cuts of a model re-derives the same
//! `(start, end)` column evaluations thousands of times. A span's columns
//! are a pure function of `(profile, start, end, objects, config)`, where
//! the objects are the byte sizes the node reads and writes, so one
//! optimize call shares a single memo table across pass 1, the DAG region
//! search and every worker thread.
//!
//! The table maps `(start, end)` to one [`NodeColumns`] per object
//! shape. A chain segment is the entry under [`Profile::chain_io`]'s
//! objects: pass 1 evaluates it once, and the optimizer's segment table
//! keeps the `Arc` by boundary slot for the knapsack stages, the winner's
//! pricing and pipelined stage times. The DAG spine DP's interior spans
//! read the same entry here; gather-fed, scatter-feeding and branch nodes
//! add entries under their own objects. Each entry keeps its raw
//! per-memory grid (the DAG polish scans it, pricing reads one cell) and,
//! computed once at insert by the dominance sweep of
//! [`crate::miqp_build::presolve_dominated`], the indices of its Pareto
//! frontier, which every selection reads.
//!
//! Chain lookups ([`SegmentColumnCache::get_or_eval`] and the callers
//! built on it) tally a miss when they evaluate a segment and a hit when
//! the entry exists; node lookups tally apart.
//!
//! Values are computed *outside* the lock; racing threads may duplicate a
//! computation (each counts a miss), but since the function is pure they
//! compute bit-identical values and whichever inserts first wins —
//! results never depend on interleaving.

use crate::config::AmpsConfig;
use crate::miqp_build::dominance_frontier;
use crate::FixedHashMap;
use ampsinf_profiler::{quick_eval_node, Profile};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

/// Stand-alone hit/miss tally. A DAG region search threads one through
/// [`SegmentColumnCache::node_columns_tracked`] so its own memo traffic is
/// observable, while the cache's totals keep accumulating across every
/// search on the table.
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

/// `(memory, seconds, dollars)` of one column.
pub type ColumnPick = (u32, f64, f64);

/// The per-memory evaluations of one node: a span under explicit object
/// reads/writes, priced by `quick_eval_node` at every feasible memory of
/// the span, plus the dominance-presolved frontier of that grid.
#[derive(Debug)]
pub struct NodeColumns {
    /// Feasible memory sizes, ascending.
    pub(crate) memories: Vec<u32>,
    /// `(duration_s, dollars)` per memory, parallel to `memories` (`None`
    /// records an evaluation error, e.g. a memory that cannot hold the
    /// batch buffers).
    pub(crate) evals: Vec<Option<(f64, f64)>>,
    /// Indices of the frontier columns, ascending (so in memory order).
    frontier: Vec<usize>,
}

impl NodeColumns {
    /// Wraps a raw grid, presolving its frontier.
    pub fn new(memories: Vec<u32>, evals: Vec<Option<(f64, f64)>>) -> Self {
        let frontier = dominance_frontier(evals.iter().copied());
        NodeColumns {
            memories,
            evals,
            frontier,
        }
    }

    /// The Pareto frontier in memory order: no column is dominated, and
    /// each `(seconds, dollars)` pair appears once. Empty when no memory is
    /// feasible.
    pub fn frontier(&self) -> impl ExactSizeIterator<Item = ColumnPick> + Clone + '_ {
        self.frontier.iter().map(|&j| {
            let (t, d) = self.evals[j].expect("frontier columns are feasible");
            (self.memories[j], t, d)
        })
    }

    /// The cheapest frontier column. Frontier dollars are pairwise
    /// distinct, so this is the cheapest column of the grid, then the
    /// faster, then the smaller memory.
    pub fn min_cost(&self) -> Option<ColumnPick> {
        self.frontier().min_by(|a, b| a.2.total_cmp(&b.2))
    }

    /// The fastest frontier column (fastest, then cheaper, then smaller
    /// memory over the grid).
    pub fn min_time(&self) -> Option<ColumnPick> {
        self.frontier().min_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// The evaluation at one memory size, if feasible.
    pub fn eval_at(&self, mem: u32) -> Option<(f64, f64)> {
        self.memories
            .iter()
            .position(|&m| m == mem)
            .and_then(|i| self.evals[i])
    }
}

/// Entries of one `(start, end)` span, distinguished by their object
/// read/write byte lists, each stored as the reads followed by the writes
/// plus the number of reads. Spans see only a handful of distinct io
/// shapes (chain interior, gather-fed, scatter-feeding), so a linear scan
/// beats hashing the byte lists — and lookups allocate nothing on a hit.
type NodeSlot = Vec<(Box<[u64]>, usize, Arc<NodeColumns>)>;

/// Thread-shared memo table `(start, end) → objects → NodeColumns`. Chain
/// lookups (`get_or_eval`, `chain_columns`, `columns_for_cut`) and node
/// lookups (`node_columns_tracked`) read the same entries but tally
/// separately.
#[derive(Debug, Default)]
pub struct SegmentColumnCache {
    table: RwLock<FixedHashMap<(usize, usize), NodeSlot>>,
    chain: CacheCounters,
    node: CacheCounters,
}

impl SegmentColumnCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the columns of chain segment `[start, end]`, evaluating and
    /// inserting them on first use; `None` when no memory is feasible.
    pub fn get_or_eval(
        &self,
        profile: &Profile,
        start: usize,
        end: usize,
        cfg: &AmpsConfig,
    ) -> Option<Arc<NodeColumns>> {
        let cols = self.chain_columns(profile, start, end, cfg);
        (!cols.frontier.is_empty()).then_some(cols)
    }

    /// The memo's chain entry of segment `[start, end]` (the entry under
    /// [`Profile::chain_io`]), evaluated and inserted on first use, also
    /// when no memory is feasible.
    pub(crate) fn chain_columns(
        &self,
        profile: &Profile,
        start: usize,
        end: usize,
        cfg: &AmpsConfig,
    ) -> Arc<NodeColumns> {
        let io = profile.chain_io(start, end);
        self.lookup(profile, (start, end), io, cfg, &self.chain, None)
    }

    /// Columns for every segment of `cut`, or `None` when some segment has
    /// no feasible memory.
    pub fn columns_for_cut(
        &self,
        profile: &Profile,
        cut: &[usize],
        cfg: &AmpsConfig,
    ) -> Option<Vec<Arc<NodeColumns>>> {
        let mut parts = Vec::with_capacity(cut.len());
        let mut start = 0usize;
        for &end in cut {
            parts.push(self.get_or_eval(profile, start, end, cfg)?);
            start = end + 1;
        }
        Some(parts)
    }

    /// Returns the columns of span `[start, end]` under the object byte
    /// sizes it reads and writes (`io`), evaluating and inserting them on
    /// first use. The hit/miss is additionally tallied into `extra` when
    /// given (the DAG search threads one per search).
    pub fn node_columns_tracked(
        &self,
        profile: &Profile,
        start: usize,
        end: usize,
        io: (&[u64], &[u64]),
        cfg: &AmpsConfig,
        extra: Option<&CacheCounters>,
    ) -> Arc<NodeColumns> {
        self.lookup(profile, (start, end), io, cfg, &self.node, extra)
    }

    /// The one lookup/insert path: the entry of span `[start, end]` under
    /// `io`, tallied into `own` and `extra`.
    fn lookup(
        &self,
        profile: &Profile,
        (start, end): (usize, usize),
        (reads, writes): (&[u64], &[u64]),
        cfg: &AmpsConfig,
        own: &CacheCounters,
        extra: Option<&CacheCounters>,
    ) -> Arc<NodeColumns> {
        let find = |slot: &NodeSlot| {
            slot.iter()
                .find(|(io, n, _)| io.split_at(*n) == (reads, writes))
                .map(|(_, _, cols)| Arc::clone(cols))
        };
        let cached = self
            .table
            .read()
            .expect("cache lock")
            .get(&(start, end))
            .and_then(find);
        let tally = |c: &CacheCounters| match cached {
            Some(_) => c.add_hit(),
            None => c.add_miss(),
        };
        tally(own);
        if let Some(c) = extra {
            tally(c);
        }
        if let Some(cols) = cached {
            return cols;
        }
        let memories = profile.feasible_memories(start, end, &cfg.quotas, &cfg.perf);
        let evals = memories
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
        let cols = Arc::new(NodeColumns::new(memories, evals));
        let mut table = self.table.write().expect("cache lock");
        // Most spans are read under one io shape only.
        let slot = table
            .entry((start, end))
            .or_insert_with(|| Vec::with_capacity(1));
        // A racing thread may have inserted the same io shape meanwhile;
        // keep the first copy so every reader shares one allocation.
        if let Some(existing) = find(slot) {
            return existing;
        }
        slot.push((
            [reads, writes].concat().into(),
            reads.len(),
            Arc::clone(&cols),
        ));
        cols
    }

    /// Chain lookups served from the table.
    pub fn hits(&self) -> usize {
        self.chain.hits()
    }

    /// Chain lookups that evaluated the segment (racing threads may both
    /// count a miss for the same key; the *values* are identical
    /// regardless).
    pub fn misses(&self) -> usize {
        self.chain.misses()
    }

    /// Node lookups served from the table.
    pub fn node_hits(&self) -> usize {
        self.node.hits()
    }

    /// Node lookups that evaluated the span's memory grid (racing threads
    /// may duplicate one; values are identical regardless).
    pub fn node_misses(&self) -> usize {
        self.node.misses()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampsinf_model::zoo;

    #[test]
    fn chain_and_node_lookups_share_one_entry() {
        let g = zoo::mobilenet_v1();
        let profile = Profile::of(&g);
        let cfg = AmpsConfig::default();
        let (start, end) = (0, profile.num_layers() / 2);
        let cache = SegmentColumnCache::new();
        let chain = cache
            .get_or_eval(&profile, start, end, &cfg)
            .expect("feasible segment");
        let io = profile.chain_io(start, end);
        let node = cache.node_columns_tracked(&profile, start, end, io, &cfg, None);
        assert!(Arc::ptr_eq(&chain, &node));
        assert_eq!((cache.misses(), cache.hits()), (1, 0));
        assert_eq!((cache.node_misses(), cache.node_hits()), (0, 1));
    }
}
