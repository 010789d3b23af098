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
//! per-memory grid (priced through one [`NodePricer`]; the DAG polish
//! scans it, pricing reads one cell); the indices of its Pareto
//! frontier, computed once at insert by the dominance sweep of
//! [`crate::miqp_build::presolve_dominated`], which every selection
//! reads; and the grid's suffix minima, computed on the polish's first
//! read.
//!
//! The table keeps no tallies of its own: each lookup is counted once,
//! by its caller. Pass 1 counts the cells of its segment table (each
//! cell is one chain lookup, a miss in its fresh memo, and every later
//! reference is a table hit); a DAG region search passes its
//! [`CacheCounters`] to every node lookup
//! ([`SegmentColumnCache::node_columns_tracked`]), and a sweep sums its
//! points' counters.
//!
//! Values are computed *outside* the lock; racing threads may duplicate a
//! computation (each counts a miss), but since the function is pure they
//! compute bit-identical values and whichever inserts first wins —
//! results never depend on interleaving.

use crate::config::AmpsConfig;
use crate::miqp_build::dominance_frontier;
use crate::FixedHashMap;
use ampsinf_profiler::{NodePricer, Profile};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Hit/miss tally of one caller's memo lookups. A DAG region search
/// threads one through [`SegmentColumnCache::node_columns_tracked`] (and
/// another through its spine-span memo) so its own memo traffic is
/// observable.
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
/// the span (one [`NodePricer`] per grid), plus the dominance-presolved
/// frontier of that grid.
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
    /// The DAG polish's suffix minima ([`NodeColumns::suffix_min`]),
    /// computed on the polish's first read: pass 1's chain entries never
    /// pay for them.
    suffix_min: OnceLock<Box<[(f64, f64)]>>,
}

impl NodeColumns {
    /// Wraps a raw grid, presolving its frontier.
    pub fn new(memories: Vec<u32>, evals: Vec<Option<(f64, f64)>>) -> Self {
        let frontier = dominance_frontier(evals.iter().copied());
        NodeColumns {
            memories,
            evals,
            frontier,
            suffix_min: OnceLock::new(),
        }
    }

    /// Per grid index `i`: the min seconds and the min dollars over the
    /// feasible grid points `i..` (infinite past the last), one entry
    /// longer than the grid. A pure function of the grid, so every polish
    /// run of every trial reads the one copy.
    pub(crate) fn suffix_min(&self) -> &[(f64, f64)] {
        self.suffix_min.get_or_init(|| {
            let mut out = vec![(f64::INFINITY, f64::INFINITY); self.evals.len() + 1];
            for (i, ev) in self.evals.iter().enumerate().rev() {
                let (t, d) = out[i + 1];
                out[i] = ev.map_or((t, d), |(et, ed)| (t.min(et), d.min(ed)));
            }
            out.into()
        })
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
/// lookups (`node_columns_tracked`) read the same entries; only node
/// lookups tally, into their caller's counters.
#[derive(Debug, Default)]
pub struct SegmentColumnCache {
    table: RwLock<FixedHashMap<(usize, usize), NodeSlot>>,
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
        self.lookup(profile, (start, end), io, cfg, None)
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
    /// first use. The hit/miss is tallied into `counters` (the DAG search
    /// threads one per search).
    pub fn node_columns_tracked(
        &self,
        profile: &Profile,
        start: usize,
        end: usize,
        io: (&[u64], &[u64]),
        cfg: &AmpsConfig,
        counters: &CacheCounters,
    ) -> Arc<NodeColumns> {
        self.lookup(profile, (start, end), io, cfg, Some(counters))
    }

    /// The one lookup/insert path: the entry of span `[start, end]` under
    /// `io`, tallied into `counters` when given.
    fn lookup(
        &self,
        profile: &Profile,
        (start, end): (usize, usize),
        (reads, writes): (&[u64], &[u64]),
        cfg: &AmpsConfig,
        counters: Option<&CacheCounters>,
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
        if let Some(c) = counters {
            match cached {
                Some(_) => c.add_hit(),
                None => c.add_miss(),
            }
        }
        if let Some(cols) = cached {
            return cols;
        }
        let memories = profile.feasible_memories(start, end, &cfg.quotas, &cfg.perf);
        let pricer = NodePricer::new(
            profile,
            start,
            end,
            &cfg.quotas,
            &cfg.prices,
            &cfg.perf,
            &cfg.store,
            reads,
            writes,
        );
        let evals = memories
            .iter()
            .map(|&m| pricer.eval(m).ok().map(|e| (e.duration_s, e.dollars)))
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cuts::{candidate_boundaries, DagShared};
    use ampsinf_faas::perf::{DurationBreakdown, LambdaPerf};
    use ampsinf_faas::runtime::{CODE_BYTES, DEPS_BYTES};
    use ampsinf_faas::{PerfModel, PriceSheet, Quotas, StoreKind, MB};
    use ampsinf_model::zoo;
    use ampsinf_profiler::{quick_eval_node, EvalError, SegmentEval};
    use std::borrow::Cow;

    /// The per-cell pricing as it stood before the memory-independent
    /// terms were hoisted into `NodePricer`: the oracle the pricer and
    /// `quick_eval_node` must equal bit for bit.
    #[allow(clippy::too_many_arguments)]
    fn reference_eval(
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
        if !quotas.is_valid_memory(memory_mb) {
            return Err(EvalError::Deploy(
                format!("invalid memory {memory_mb}").into(),
            ));
        }
        let weights = profile.weights(start, end);
        let package = CODE_BYTES + DEPS_BYTES + weights;
        if package > u64::from(quotas.deploy_limit_mb) * MB {
            return Err(EvalError::Deploy(Cow::Borrowed("package too large")));
        }
        let input_bytes = if read_bytes.is_empty() {
            profile.input_bytes(start)
        } else {
            read_bytes.iter().sum()
        };
        let tmp = weights + input_bytes;
        if tmp > u64::from(quotas.tmp_limit_mb) * MB {
            return Err(EvalError::Invoke(Cow::Borrowed("tmp exceeded")));
        }
        let resident = 2 * weights + profile.activations(start, end) + input_bytes;
        let footprint_mb = perf.runtime_footprint_mb + resident as f64 / MB as f64;
        let lp = LambdaPerf::new(perf, memory_mb);
        if lp.is_oom(footprint_mb) {
            return Err(EvalError::Invoke(Cow::Borrowed("out of memory")));
        }
        let mut b = DurationBreakdown {
            cold_s: perf.cold_start(package),
            import_s: lp.cpu_time(perf.import_work(), footprint_mb),
            load_s: lp.cpu_time(perf.load_work(weights), footprint_mb),
            compute_s: lp.cpu_time(perf.compute_work(profile.flops(start, end)), footprint_mb),
            transfer_s: 0.0,
            fixed_s: perf.fixed_overhead_s,
        };
        let mut fees = 0.0;
        let xfer =
            |bytes: u64| bytes as f64 / (store.bandwidth_mbps * 1e6) + store.request_latency_s;
        for &r in read_bytes {
            b.transfer_s += xfer(r);
            if store.billed_requests {
                fees += prices.s3_get_request;
            }
        }
        for &w in write_bytes {
            b.transfer_s += xfer(w);
            if store.billed_requests {
                fees += prices.s3_put_request;
            }
        }
        let duration = b.total();
        if duration > quotas.timeout_s {
            return Err(EvalError::Invoke(Cow::Borrowed("timeout")));
        }
        let dollars =
            prices.lambda_compute_cost(duration, memory_mb) + prices.lambda_request + fees;
        Ok(SegmentEval {
            duration_s: duration,
            dollars,
            breakdown: b,
        })
    }

    /// The bits of a priced cell: every float of the evaluation, or the
    /// error as it stands.
    fn cell_bits(r: &Result<SegmentEval, EvalError>) -> Result<[u64; 8], EvalError> {
        r.as_ref()
            .map(|e| {
                let b = e.breakdown;
                [
                    e.duration_s,
                    e.dollars,
                    b.cold_s,
                    b.import_s,
                    b.load_s,
                    b.compute_s,
                    b.transfer_s,
                    b.fixed_s,
                ]
                .map(f64::to_bits)
            })
            .map_err(Clone::clone)
    }

    /// The polish's suffix minima as each trial computed them before they
    /// moved into the memo entry.
    fn reference_suffix_min(evals: &[Option<(f64, f64)>]) -> Vec<(u64, u64)> {
        let mut out = vec![(f64::INFINITY, f64::INFINITY); evals.len() + 1];
        for (i, ev) in evals.iter().enumerate().rev() {
            let (t, d) = out[i + 1];
            out[i] = ev.map_or((t, d), |(et, ed)| (t.min(et), d.min(ed)));
        }
        out.iter()
            .map(|&(t, d)| (t.to_bits(), d.to_bits()))
            .collect()
    }

    /// Cells priced by the oracle, and how many were rejected for each
    /// reason: `[priced, package, tmp, oom, timeout, invalid memory]`.
    type Tally = [usize; 6];

    /// Prices span `[s, e]` under `(reads, writes)` at every grid memory
    /// (and one off-grid memory) three ways — one `NodePricer` for the
    /// whole grid, `quick_eval_node` per cell, and the reference — and
    /// checks the memo's entry and its suffix minima against the
    /// reference grid.
    #[allow(clippy::too_many_arguments)]
    fn check_span(
        cache: &SegmentColumnCache,
        profile: &Profile,
        cfg: &AmpsConfig,
        grid: &[u32],
        (s, e): (usize, usize),
        (reads, writes): (&[u64], &[u64]),
        tally: &mut Tally,
    ) {
        let (q, pr, pf, st) = (&cfg.quotas, &cfg.prices, &cfg.perf, &cfg.store);
        let pricer = NodePricer::new(profile, s, e, q, pr, pf, st, reads, writes);
        for &m in grid.iter().chain([&(grid[0] + 1)]) {
            let want = reference_eval(profile, s, e, m, q, pr, pf, st, reads, writes);
            let quick = quick_eval_node(profile, s, e, m, q, pr, pf, st, reads, writes);
            let at = || format!("{} [{s}, {e}] {reads:?} {writes:?} @ {m} MB", profile.model);
            assert_eq!(
                cell_bits(&pricer.eval(m)),
                cell_bits(&want),
                "pricer, {}",
                at()
            );
            assert_eq!(
                cell_bits(&quick),
                cell_bits(&want),
                "quick_eval_node, {}",
                at()
            );
            let kind = match &want {
                Ok(_) => 0,
                Err(EvalError::Deploy(why)) if why == "package too large" => 1,
                Err(EvalError::Invoke(why)) if why == "tmp exceeded" => 2,
                Err(EvalError::Invoke(why)) if why == "out of memory" => 3,
                Err(EvalError::Invoke(why)) if why == "timeout" => 4,
                Err(_) => 5,
            };
            tally[kind] += 1;
        }
        let counters = CacheCounters::new();
        let cols = cache.node_columns_tracked(profile, s, e, (reads, writes), cfg, &counters);
        let memories = profile.feasible_memories(s, e, q, pf);
        let want: Vec<Option<(f64, f64)>> = memories
            .iter()
            .map(|&m| {
                reference_eval(profile, s, e, m, q, pr, pf, st, reads, writes)
                    .ok()
                    .map(|e| (e.duration_s, e.dollars))
            })
            .collect();
        let bits = |g: &[Option<(f64, f64)>]| {
            g.iter()
                .map(|c| c.map(|(t, d)| (t.to_bits(), d.to_bits())))
                .collect::<Vec<_>>()
        };
        assert_eq!(cols.memories, memories);
        assert_eq!(bits(&cols.evals), bits(&want), "memo grid of [{s}, {e}]");
        let suffix: Vec<(u64, u64)> = cols
            .suffix_min()
            .iter()
            .map(|&(t, d)| (t.to_bits(), d.to_bits()))
            .collect();
        assert_eq!(
            suffix,
            reference_suffix_min(&want),
            "suffix minima of [{s}, {e}]"
        );
    }

    /// `NodePricer::eval` and `quick_eval_node` equal the pre-hoist
    /// pricing bit for bit (errors as errors), and the memo's grids and
    /// suffix minima equal the reference grid's: every zoo model at
    /// batches 1, 8 and 64 under both quota presets, every candidate
    /// segment at every grid memory with chain io, the gather-fed,
    /// scatter-feeding and branch object lists of every fork/join region,
    /// and segments rejected for each reason.
    #[test]
    fn grid_pricer_matches_per_cell_pricing() {
        let names = [
            "mobilenet",
            "resnet50",
            "inception_v3",
            "xception",
            "vgg16",
            "vgg19",
            "bert_base",
            "densenet121",
        ];
        let mut tally: Tally = [0; 6];
        for name in names {
            let g = zoo::by_name(name).expect("zoo model");
            for batch in [1, 8, 64] {
                for quotas in [Quotas::lambda_2020(), Quotas::lambda_2021()] {
                    let cfg = AmpsConfig {
                        batch_size: batch,
                        quotas,
                        ..Default::default()
                    };
                    let profile = Profile::batched(&g, batch);
                    let n = profile.num_layers();
                    let grid = cfg.quotas.memory_blocks_search_grid();
                    let cache = SegmentColumnCache::new();
                    let cand = candidate_boundaries(&profile, &cfg);
                    let starts: Vec<usize> = std::iter::once(0)
                        .chain(cand.iter().map(|&c| c + 1))
                        .collect();
                    let ends: Vec<usize> =
                        cand.iter().copied().chain(std::iter::once(n - 1)).collect();
                    let mut check = |span: (usize, usize), io: (&[u64], &[u64])| {
                        check_span(&cache, &profile, &cfg, &grid, span, io, &mut tally);
                    };
                    for &s in &starts {
                        for &e in ends.iter().filter(|&&e| e >= s) {
                            check((s, e), profile.chain_io(s, e));
                        }
                    }
                    let ds = DagShared::new(&g, &profile, &cfg);
                    for (q, r) in ds.regions.iter().enumerate() {
                        let scatter = [ds.scatter[q]];
                        for (k, &span) in r.branches.iter().enumerate() {
                            check(span, (&scatter, &ds.gather[q][k..=k]));
                        }
                        for &s in starts.iter().filter(|&&s| s <= r.entry) {
                            check((s, r.entry), (profile.chain_io(s, r.entry).0, &scatter));
                        }
                        for &e in ends.iter().filter(|&&e| e >= r.merge) {
                            check(
                                (r.merge, e),
                                (&ds.gather[q], profile.chain_io(r.merge, e).1),
                            );
                        }
                    }
                    // A staged input past `/tmp`: one 600 MB read.
                    check((1, 1), (&[600 * MB], &[]));
                }
            }
        }
        assert!(tally[0] > 1_000_000, "priced cells: {tally:?}");
        assert!(
            tally[1..].iter().all(|&k| k > 0),
            "every rejection: {tally:?}"
        );
    }

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
        let counters = CacheCounters::new();
        let node = cache.node_columns_tracked(&profile, start, end, io, &cfg, &counters);
        assert!(Arc::ptr_eq(&chain, &node));
        assert_eq!((counters.misses(), counters.hits()), (0, 1));
        let again = cache
            .get_or_eval(&profile, start, end, &cfg)
            .expect("feasible segment");
        assert!(Arc::ptr_eq(&chain, &again));
    }
}
