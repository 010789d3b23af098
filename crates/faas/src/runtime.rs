//! Symbolic execution bridge: model partitions → platform work.
//!
//! The paper's Coordinator packages each partition (YAML + weights +
//! dependency layers) into a lambda and chains invocations through S3
//! (§4). This module turns a [`CutAccounting`] segment into the
//! [`FunctionSpec`] / [`InvocationWork`] the platform consumes, using the
//! paper's sizing conventions: dependencies `D` = 169 MB, handler `F` ≈
//! 1 MB, weights `y·e` = params × 4.

use crate::platform::{FunctionSpec, InvocationWork};
use crate::storage::ObjectKey;
use crate::MB;
use ampsinf_model::graph::{CutAccounting, LayerGraph};

/// The trimmed TF/Keras dependency-layer size the paper measures (169 MB).
pub const DEPS_BYTES: u64 = 169 * MB;
/// Handler-code size (the paper's `F`).
pub const CODE_BYTES: u64 = MB;

/// Work profile of one model partition on one lambda.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionWork {
    /// Segment accounting from the model graph.
    pub seg: CutAccounting,
}

/// Phase inputs for a whole (unpartitioned) model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkPhases {
    /// Weight bytes to load.
    pub weight_bytes: u64,
    /// FLOPs to execute.
    pub flops: u64,
    /// Activation bytes materialized.
    pub activation_bytes: u64,
}

impl PartitionWork {
    /// Builds the work profile for layers `[start, end]` of `graph`.
    pub fn from_segment(graph: &LayerGraph, start: usize, end: usize) -> Self {
        PartitionWork {
            seg: graph.segment(start, end),
        }
    }

    /// The unzipped deployment package for this partition: handler +
    /// dependency layer + weights layer (paper constraint (4) LHS:
    /// `y·e + D + F`).
    pub fn function_spec(&self, name: impl Into<String>, memory_mb: u32) -> FunctionSpec {
        FunctionSpec {
            name: name.into(),
            memory_mb,
            code_bytes: CODE_BYTES,
            layer_bytes: vec![DEPS_BYTES, self.seg.weight_bytes],
        }
    }

    /// The invocation scalars for requests of `batch` images whose staged
    /// input totals `input_bytes`, with no storage keys: FLOPs and
    /// activations scale by `batch`, weights stay fixed. Resident bytes
    /// (beyond the runtime) are weights twice (file + in-memory graph)
    /// plus activations plus the staged input; `/tmp` holds the weight
    /// files plus the staged input (paper constraint (5) LHS:
    /// `y·z + p_{i-1}`).
    pub fn batch_work(&self, batch: u64, input_bytes: u64) -> InvocationWork {
        let w = self.seg.weight_bytes;
        InvocationWork {
            load_bytes: w,
            flops: self.seg.flops * batch,
            resident_bytes: 2 * w + self.seg.activation_bytes * batch + input_bytes,
            tmp_bytes: w + input_bytes,
            ..Default::default()
        }
    }

    /// Resident footprint beyond the runtime for one image
    /// ([`batch_work`](Self::batch_work) at batch 1).
    pub fn resident_bytes(&self) -> u64 {
        self.batch_work(1, self.seg.input_bytes).resident_bytes
    }

    /// `/tmp` usage for one image ([`batch_work`](Self::batch_work) at
    /// batch 1): weight files plus the previous partition's output.
    pub fn tmp_bytes(&self) -> u64 {
        self.batch_work(1, self.seg.input_bytes).tmp_bytes
    }

    /// Invocation work, wiring the storage keys: reads `input_key` (None
    /// for the first partition, whose image arrives with the trigger) and
    /// writes `output_key` (None for the last partition, which returns the
    /// prediction in the response). Keys are allocated by the store — see
    /// [`crate::storage::ObjectStore::fresh_key`].
    pub fn invocation(
        &self,
        input_key: Option<ObjectKey>,
        output_key: Option<ObjectKey>,
    ) -> InvocationWork {
        InvocationWork {
            reads: input_key.into_iter().collect(),
            writes: output_key
                .map(|k| (k, self.seg.output_bytes))
                .into_iter()
                .collect(),
            ..self.batch_work(1, self.seg.input_bytes)
        }
    }
}

/// Whole-model work (the single-lambda deployments of §2.2.1).
pub fn whole_model(graph: &LayerGraph) -> PartitionWork {
    PartitionWork::from_segment(graph, 0, graph.num_layers() - 1)
}

/// A bounded set of pipeline stations for one chain stage: the
/// simulation-side mirror of the stage's warm-instance budget.
///
/// A request that is *ready* for the stage (its input tensor is
/// checkpointed in storage) is admitted at `max(ready, earliest station
/// free time)`; while fewer than `depth` stations exist, a fresh one opens
/// and the request starts immediately. Admission is strictly
/// first-ready-first-served in the caller's iteration order, so a pool
/// driven in request-index order is deterministic by construction — the
/// property the sharded serving engine's bit-identical reports rest on.
///
/// The pool accumulates the two scalars pipeline reports surface: `busy_s`
/// (station-occupied seconds — the utilization numerator) and `stall_s`
/// (ready-but-waiting seconds — the cost of an imbalanced cut).
#[derive(Debug, Clone, PartialEq)]
pub struct StationPool {
    /// Per-station next-free times; grows lazily up to `depth` entries.
    free_at: Vec<f64>,
    depth: usize,
    busy_s: f64,
    stall_s: f64,
}

impl StationPool {
    /// A pool of at most `depth` stations (at least one).
    pub fn new(depth: usize) -> Self {
        assert!(depth >= 1, "a station pool needs at least one station");
        StationPool {
            free_at: Vec::new(),
            depth,
            busy_s: 0.0,
            stall_s: 0.0,
        }
    }

    /// Admits a request that became ready at `ready`: returns
    /// `(station, start)` where `start = max(ready, earliest free)`. The
    /// difference `start − ready` is recorded as stall. The station stays
    /// occupied until [`StationPool::release`] is called for it.
    pub fn admit(&mut self, ready: f64) -> (usize, f64) {
        if self.free_at.len() < self.depth {
            self.free_at.push(f64::INFINITY); // occupied until released
            return (self.free_at.len() - 1, ready);
        }
        // Earliest-free station; ties keep the lowest index so the choice
        // is a pure function of the pool state.
        let (station, free) = self
            .free_at
            .iter()
            .copied()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
            .expect("depth >= 1");
        let start = ready.max(free);
        self.stall_s += start - ready;
        self.free_at[station] = f64::INFINITY;
        (station, start)
    }

    /// Releases `station` (occupied since `start`) at `until`, accruing
    /// the occupancy as busy time.
    pub fn release(&mut self, station: usize, start: f64, until: f64) {
        debug_assert!(until >= start, "station released before it started");
        self.busy_s += until - start;
        self.free_at[station] = until;
    }

    /// Station-occupied seconds accumulated so far.
    pub fn busy_s(&self) -> f64 {
        self.busy_s
    }

    /// Ready-but-waiting seconds accumulated so far.
    pub fn stall_s(&self) -> f64 {
        self.stall_s
    }

    /// The configured station budget.
    pub fn depth(&self) -> usize {
        self.depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::Platform;
    use ampsinf_model::zoo;

    #[test]
    fn mobilenet_fits_one_lambda_resnet_does_not() {
        // The paper's Table 1 / §2.2 premise, via actual quota checks.
        let p = Platform::aws_2020();
        let mob = whole_model(&zoo::mobilenet_v1());
        assert!(p
            .validate_spec(&mob.function_spec("mobilenet", 512))
            .is_ok());
        let rn = whole_model(&zoo::resnet50());
        assert!(p
            .validate_spec(&rn.function_spec("resnet50", 1024))
            .is_err());
        let inc = whole_model(&zoo::inception_v3());
        assert!(p
            .validate_spec(&inc.function_spec("inception", 1024))
            .is_err());
    }

    #[test]
    fn table1_deployment_sizes() {
        // Table 1: ResNet50 267 MB, InceptionV3 261 MB (model + 169 MB
        // deps + handler).
        let rn = whole_model(&zoo::resnet50())
            .function_spec("r", 1024)
            .package_bytes() as f64
            / MB as f64;
        assert!((rn - 267.0).abs() < 2.0, "{rn} MB");
        let inc = whole_model(&zoo::inception_v3())
            .function_spec("i", 1024)
            .package_bytes() as f64
            / MB as f64;
        assert!((inc - 261.0).abs() < 2.0, "{inc} MB");
    }

    #[test]
    fn chain_bounds_partition_the_model() {
        let g = zoo::mobilenet_v1();
        let n = g.num_layers();
        let parts = [
            PartitionWork::from_segment(&g, 0, 30),
            PartitionWork::from_segment(&g, 31, 60),
            PartitionWork::from_segment(&g, 61, n - 1),
        ];
        let total_w: u64 = parts.iter().map(|p| p.seg.weight_bytes).sum();
        assert_eq!(total_w, g.weight_bytes());
        // Adjacent boundary sizes agree.
        assert_eq!(parts[0].seg.output_bytes, parts[1].seg.input_bytes);
        assert_eq!(parts[1].seg.output_bytes, parts[2].seg.input_bytes);
    }

    #[test]
    fn invocation_wiring() {
        let g = zoo::mobilenet_v1();
        let parts = [
            PartitionWork::from_segment(&g, 0, 40),
            PartitionWork::from_segment(&g, 41, g.num_layers() - 1),
        ];
        let mut store = crate::storage::ObjectStore::new(crate::storage::StoreKind::s3());
        let inter = store.fresh_key();
        let w0 = parts[0].invocation(None, Some(inter));
        assert!(w0.reads.is_empty());
        assert_eq!(w0.writes.len(), 1);
        assert_eq!(w0.writes[0], (inter, parts[0].seg.output_bytes));
        let w1 = parts[1].invocation(Some(inter), None);
        assert_eq!(w1.reads, vec![inter]);
        assert!(w1.writes.is_empty());
        assert_eq!(w1.load_bytes, parts[1].seg.weight_bytes);
    }

    #[test]
    fn tmp_accounting_follows_constraint5() {
        let g = zoo::resnet50();
        let parts = [
            PartitionWork::from_segment(&g, 0, 80),
            PartitionWork::from_segment(&g, 81, g.num_layers() - 1),
        ];
        for p in &parts {
            assert_eq!(p.tmp_bytes(), p.seg.weight_bytes + p.seg.input_bytes);
        }
    }

    #[test]
    fn station_pool_depth_one_serializes() {
        let mut pool = StationPool::new(1);
        let (s0, t0) = pool.admit(0.0);
        assert_eq!((s0, t0), (0, 0.0));
        pool.release(s0, t0, 2.0);
        // Ready at 1.0 but the single station is busy until 2.0.
        let (s1, t1) = pool.admit(1.0);
        assert_eq!((s1, t1), (0, 2.0));
        pool.release(s1, t1, 3.0);
        assert_eq!(pool.stall_s(), 1.0);
        assert_eq!(pool.busy_s(), 3.0);
    }

    #[test]
    fn station_pool_depth_two_overlaps() {
        let mut pool = StationPool::new(2);
        let (s0, t0) = pool.admit(0.0);
        let (s1, t1) = pool.admit(0.5); // second station opens, no wait
        assert_ne!(s0, s1);
        assert_eq!(t1, 0.5);
        pool.release(s0, t0, 4.0);
        pool.release(s1, t1, 1.0);
        // Third admission takes the earlier-free station (freed at 1.0).
        let (s2, t2) = pool.admit(0.9);
        assert_eq!(s2, s1);
        assert_eq!(t2, 1.0);
        assert!((pool.stall_s() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn station_pool_tie_takes_lowest_index() {
        let mut pool = StationPool::new(2);
        let (a, ta) = pool.admit(0.0);
        let (b, tb) = pool.admit(0.0);
        pool.release(a, ta, 5.0);
        pool.release(b, tb, 5.0);
        let (c, _) = pool.admit(0.0);
        assert_eq!(c, 0);
    }

    #[test]
    #[should_panic(expected = "at least one station")]
    fn station_pool_rejects_zero_depth() {
        let _ = StationPool::new(0);
    }
}
