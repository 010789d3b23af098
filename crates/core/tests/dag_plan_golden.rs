//! Golden-value pins of the DAG planner's output.
//!
//! Every case plans one `(model, tolerance, SLO)` point at batch 64 with
//! [`Optimizer::optimize_dag`] (plus one [`Optimizer::optimize_dag_sweep`]
//! grid, planned at batch 1 and at batch 64) and folds every field of the
//! returned [`DagPlan`] — node spans and memories, object wiring and
//! bytes, the `to_bits` of the predicted time and cost — together with
//! `regions_used` and `trials_evaluated` into a 64-bit FNV-1a digest.
//! The digests were recorded before the polish step priced its
//! candidates on the fork/join block chain; any change to the search or
//! the polish that moves a single accepted upgrade, memory or predicted
//! bit shows up here. `dag_search_counters_are_pinned` also pins the
//! search's counters (trials, polish steps, memo traffic) at six points.

mod common;

use ampsinf_core::optimizer::Optimizer;
use ampsinf_core::sweep::SweepGrid;
use ampsinf_core::{AmpsConfig, DagPlan, OptimizeError};
use ampsinf_model::{zoo, LayerGraph};
use common::Digest;

impl Digest {
    fn dag(&mut self, d: Option<&DagPlan>) {
        let Some(d) = d else {
            self.word(0);
            return;
        };
        self.word(1);
        self.text(&d.model);
        self.word(d.nodes.len() as u64);
        for n in &d.nodes {
            self.word(n.start as u64);
            self.word(n.end as u64);
            self.word(u64::from(n.memory_mb));
        }
        self.word(d.objects.len() as u64);
        for o in &d.objects {
            self.word(o.producer as u64);
            self.word(o.consumers.len() as u64);
            for &c in &o.consumers {
                self.word(c as u64);
            }
            self.word(o.bytes);
        }
        self.word(d.predicted_time_s.to_bits());
        self.word(d.predicted_cost.to_bits());
    }

    fn error(&mut self, e: &OptimizeError) {
        self.word(2);
        self.text(&e.to_string());
    }
}

const TOLERANCES: [f64; 3] = [0.0, 0.1, 0.3];
/// SLOs as multiples of the free chain's predicted time (`None`: no SLO).
const SLO_FACTORS: [Option<f64>; 5] = [None, Some(0.95), Some(1.0), Some(1.1), Some(1.25)];

fn base(tol: f64) -> AmpsConfig {
    AmpsConfig {
        batch_size: 64,
        cost_tolerance: tol,
        ..Default::default()
    }
    .with_threads(1)
}

/// One digest per `(tolerance, SLO factor)` case, in table order.
/// `anchors[i]` is the bit pattern of the SLO anchor at `TOLERANCES[i]`.
fn optimize_dag_digests(g: &LayerGraph, anchors: &[u64; 3]) -> Vec<u64> {
    let mut out = Vec::new();
    for (tol, &anchor) in TOLERANCES.iter().zip(anchors) {
        let cfg = base(*tol);
        let t = f64::from_bits(anchor);
        for factor in SLO_FACTORS {
            let mut pcfg = cfg.clone();
            pcfg.slo_s = factor.map(|f| t * f);
            let mut d = Digest::new();
            match Optimizer::new(pcfg).optimize_dag(g) {
                Ok(r) => {
                    d.dag(r.dag.as_ref());
                    d.word(r.regions_used as u64);
                    d.word(r.search.trials_evaluated as u64);
                }
                Err(e) => d.error(&e),
            }
            out.push(d.0);
        }
    }
    out
}

fn check(label: &str, got: &[u64], want: &[u64]) {
    let table: Vec<String> = got.iter().map(|x| format!("{x:#018x}")).collect();
    assert_eq!(
        got,
        want,
        "{label}: DAG plan digests moved; got [{}]",
        table.join(", ")
    );
}

#[test]
fn inception_v3_batch64_dag_plans_are_pinned() {
    let got = optimize_dag_digests(&zoo::inception_v3(), &INCEPTION_V3_ANCHORS);
    check("inception_v3", &got, &INCEPTION_V3);
}

#[test]
fn resnet50_batch64_dag_plans_are_pinned() {
    let got = optimize_dag_digests(&zoo::resnet50(), &RESNET50_ANCHORS);
    check("resnet50", &got, &RESNET50);
}

/// One digest per point of the 8-point Inception-v3 DAG sweep at
/// tolerance 0.1 around the sweep anchor, planned at `batch`.
fn dag_sweep_digests(batch: u64) -> Vec<u64> {
    let g = zoo::inception_v3();
    let t = f64::from_bits(INCEPTION_V3_SWEEP_ANCHOR);
    let grid = SweepGrid::slo_range(t * 0.9, t * 1.5, 8).with_batches(vec![batch]);
    let report = Optimizer::new(base(0.1)).optimize_dag_sweep(&g, &grid);
    report
        .points
        .iter()
        .map(|p| {
            let mut d = Digest::new();
            d.word(p.slo_s.to_bits());
            d.word(p.batch);
            match &p.outcome {
                Ok(_) => {
                    d.dag(p.dag.as_ref());
                    d.word(p.regions_used as u64);
                    d.word(p.search.trials_evaluated as u64);
                }
                Err(e) => d.error(e),
            }
            d.0
        })
        .collect()
}

#[test]
fn inception_v3_dag_sweep_is_pinned() {
    check(
        "inception_v3 sweep",
        &dag_sweep_digests(1),
        &INCEPTION_V3_SWEEP,
    );
}

#[test]
fn inception_v3_batch64_dag_sweep_is_pinned() {
    check(
        "inception_v3 batch-64 sweep",
        &dag_sweep_digests(64),
        &INCEPTION_V3_SWEEP_B64,
    );
}

/// The SLO anchors, one per `TOLERANCES` entry: the free chain optimum's
/// predicted time at batch 64 and that tolerance when the tables were
/// recorded. They are constants so that a change to the chain's predicted
/// bits cannot move the SLOs the DAG planner is checked at.
const INCEPTION_V3_ANCHORS: [u64; 3] = [
    0x4084275b8b5662ca, // 644.919699358835 s
    0x4083e3e5c5d76819, // 636.4871937588351 s
    0x4083e3e5c5d76819,
];
const RESNET50_ANCHORS: [u64; 3] = [
    0x40780df7f8ffa2b2, // 384.873040197922 s
    0x4077200e6e29fc50, // 370.00352302933334 s
    0x4077200e6e29fc50,
];

// Recorded tables: `TOLERANCES` major, `SLO_FACTORS` minor.
const INCEPTION_V3: [u64; 15] = [
    0x8c8ef6d24ebc7314,
    0x49380e51c457628b,
    0x98a33f2862a5be2e,
    0x98a33f2862a5be2e,
    0x8c8ef6d24ebc7314,
    0xd6e2fae745fb2c61,
    0x49380e51c457628b,
    0xd6e2fae745fb2c61,
    0xd6e2fae745fb2c61,
    0xd6e2fae745fb2c61,
    0xd6e2fae745fb2c61,
    0x49380e51c457628b,
    0xd6e2fae745fb2c61,
    0xd6e2fae745fb2c61,
    0xd6e2fae745fb2c61,
];
const RESNET50: [u64; 15] = [
    0x730d752af9541598,
    0x49380e51c457628b,
    0x05e723b2d47efa81,
    0xaa97402b01ee95d4,
    0x730d752af9541598,
    0x9fc6356347c8c27a,
    0x49380e51c457628b,
    0x05e723b2d47efa81,
    0x9fc6356347c8c27a,
    0x9fc6356347c8c27a,
    0x05e723b2d47efa81,
    0x49380e51c457628b,
    0x05e723b2d47efa81,
    0x05e723b2d47efa81,
    0x05e723b2d47efa81,
];
/// The sweep's SLO anchor: the free chain optimum's predicted time at
/// tolerance 0.1 (636.4871937588348 s) when the table was recorded, kept
/// as a constant so a change to the chain's predicted bits cannot move
/// the grid the sweep is checked on.
const INCEPTION_V3_SWEEP_ANCHOR: u64 = 0x4083e3e5c5d76816;
const INCEPTION_V3_SWEEP: [u64; 8] = [
    0xd4c4df581a7f5ad5,
    0xa7574e64270345c9,
    0x6118a86495655d01,
    0xeeb90e5cb76b70fe,
    0x0926674b7ca17ca9,
    0xb17237b316c75b6f,
    0x8e4b49af527e6be7,
    0xab9f764e3f643483,
];
/// The same grid planned at batch 64, where the SLOs bracket the free
/// chain's time and the DAG search has work to do.
const INCEPTION_V3_SWEEP_B64: [u64; 8] = [
    0xa621073d9f1f5e31,
    0x7eae4295923e5bad,
    0x3c5a9c755cc2870b,
    0xcb8f01c6c4a4a69c,
    0xbf3e737074e65283,
    0xc3e5bcf69e9d8ea1,
    0xdba9d4eb9ff17269,
    0x4f1765bcdb1fe37d,
];

/// The DAG search's counters at one `(model, batch, SLO factor)` point
/// (tolerance 0.1, one thread): trials, accepted polish steps, node-memo
/// hits and misses, spine-span hits and solves. The polish's kept scan
/// state and partial refresh must take exactly the steps a from-scratch
/// refresh takes, and the trials must read the memos exactly as before.
fn search_counters(g: &LayerGraph, batch: u64, anchor: u64, factor: Option<f64>) -> [usize; 6] {
    let cfg = AmpsConfig {
        batch_size: batch,
        slo_s: factor.map(|f| f64::from_bits(anchor) * f),
        ..base(0.1)
    };
    let s = Optimizer::new(cfg)
        .optimize_dag(g)
        .expect("plannable point")
        .search;
    [
        s.trials_evaluated,
        s.polish_steps,
        s.node_memo_hits,
        s.node_memo_misses,
        s.spine_span_hits,
        s.spine_spans_solved,
    ]
}

/// The counter points: `(batch, SLO factor)` over the tolerance-0.1
/// anchor (batch 1 plans without an SLO; its anchor is a batch-64 time).
const COUNTER_POINTS: [(u64, Option<f64>); 3] = [(1, None), (64, None), (64, Some(1.0))];

#[test]
fn dag_search_counters_are_pinned() {
    let cases = [
        (
            zoo::inception_v3(),
            INCEPTION_V3_ANCHORS[1],
            INCEPTION_V3_COUNTERS,
        ),
        (zoo::resnet50(), RESNET50_ANCHORS[1], RESNET50_COUNTERS),
    ];
    for (g, anchor, want) in &cases {
        for (&(batch, factor), want) in COUNTER_POINTS.iter().zip(want) {
            let got = search_counters(g, batch, *anchor, factor);
            assert_eq!(&got, want, "{} batch {batch} SLO factor {factor:?}", g.name);
        }
    }
}

// Recorded before the polish kept its scan state between steps, one row
// per `COUNTER_POINTS` entry: [trials, polish steps, node-memo hits,
// node-memo misses, spine-span hits, spine spans solved].
const INCEPTION_V3_COUNTERS: [[usize; 6]; 3] = [
    [11, 155, 2115, 308, 0, 22],
    [65, 8956, 4002, 332, 294, 46],
    [65, 8956, 4002, 332, 294, 46],
];
const RESNET50_COUNTERS: [[usize; 6]; 3] = [
    [4, 47, 822, 107, 0, 8],
    [7, 265, 987, 108, 6, 11],
    [4, 124, 841, 105, 0, 8],
];
