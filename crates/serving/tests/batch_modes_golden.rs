//! Golden-value pins of the paper's batch modes (§5.4, Fig. 13).
//!
//! Each configuration plans a model, then serves `batches` batches of
//! `batch` images sequentially (AMPS-Inf-Seq), all at once (AMPS-Inf's
//! parallel mode) and pipelined across the plan's stages, plus the
//! BATCH \[23\] comparator. The expected `to_bits` of every run's
//! deployment time, completion time and dollars (storage settled at the
//! completion) were recorded from the dedicated batched-chain executors
//! that `Coordinator::deploy_batch` and the coordinator's serving modes
//! replaced.
//!
//! The ResNet-50 batch-10 and Inception-v3 batch-64 tables were
//! re-recorded, through the same modes, when the chain planner began
//! solving its objective exactly: their plans moved (ResNet-50 from
//! 72.98 s / $0.0020363 to 65.06 s / $0.0019046; Inception-v3 one ulp
//! faster at equal dollars, with its last cut two layers later).
//!
//! Sequential, parallel and BATCH runs must match bit for bit. A
//! pipelined run must match on its completion time; its dollars may
//! differ by a few ulps, because the engine sums dollars per request
//! before summing across requests.

use ampsinf_core::coordinator::Deployment;
use ampsinf_core::{AmpsConfig, Coordinator, ExecutionPlan, Optimizer};
use ampsinf_faas::platform::Platform;
use ampsinf_model::{zoo, LayerGraph};
use ampsinf_serving::run_batch_baseline;

/// How far apart a pipelined run's dollars may be, in ulps.
const PIPELINE_DOLLAR_ULPS: u64 = 4;

/// `[deploy_s, completion_s, dollars]` as bits.
type Bits = [u64; 3];

/// Sequential, parallel and pipelined runs of `batches` batches of
/// `batch` images over `plan`, each on a fresh platform.
fn modes(
    graph: &LayerGraph,
    plan: &ExecutionPlan,
    cfg: &AmpsConfig,
    batch: u64,
    batches: usize,
) -> [Bits; 3] {
    let coord = Coordinator::new(cfg.clone());
    let deployed = || {
        let mut platform = coord.platform();
        let dep = coord
            .deploy_batch(&mut platform, graph, plan, batch)
            .unwrap();
        (platform, dep)
    };
    let bits = |mut platform: Platform, dep: &Deployment, completion_s: f64, dollars: f64| {
        let dollars = dollars + platform.settle_storage(completion_s);
        [
            dep.deploy_s.to_bits(),
            completion_s.to_bits(),
            dollars.to_bits(),
        ]
    };
    let (mut platform, dep) = deployed();
    let seq = coord.serve_sequential(&mut platform, &dep, batches, 0.0);
    assert_eq!(seq.failed(), 0);
    let seq = bits(platform, &dep, seq.completion_s, seq.dollars);
    let (mut platform, dep) = deployed();
    let par = coord.serve_parallel(&mut platform, &dep, batches, 0.0);
    assert_eq!(par.failed(), 0);
    let par = bits(platform, &dep, par.completion_s, par.dollars);
    let (mut platform, dep) = deployed();
    let pipe = coord.serve_pipelined(&mut platform, &dep, batches, 0.0);
    assert_eq!(pipe.failed, 0);
    let pipe = bits(platform, &dep, pipe.completion_s, pipe.dollars);
    [seq, par, pipe]
}

/// `[completion_s, dollars]` of BATCH at 2,048 MB as bits.
fn batch_baseline(graph: &LayerGraph, cfg: &AmpsConfig, batch: u64, batches: usize) -> [u64; 2] {
    let r = run_batch_baseline(graph, cfg, 2048, batch, batches).unwrap();
    [r.completion_s.to_bits(), r.dollars.to_bits()]
}

fn plan(graph: &LayerGraph, cfg: &AmpsConfig) -> ExecutionPlan {
    Optimizer::new(cfg.clone()).optimize(graph).unwrap().plan
}

fn ulps(a: u64, b: u64) -> u64 {
    (a as i64 - b as i64).unsigned_abs()
}

fn check(name: &str, got: [Bits; 3], want: [Bits; 3]) {
    let shown = |b: [Bits; 3]| {
        b.map(|r| r.map(|x| format!("{x:#018x}")).join(", "))
            .join("], [")
    };
    let msg = format!("{name}: got [[{}]]", shown(got));
    assert_eq!(got[0], want[0], "sequential: {msg}");
    assert_eq!(got[1], want[1], "parallel: {msg}");
    assert_eq!(got[2][..2], want[2][..2], "pipelined: {msg}");
    assert!(
        ulps(got[2][2], want[2][2]) <= PIPELINE_DOLLAR_ULPS,
        "pipelined dollars: {msg}"
    );
}

#[test]
fn fig13_mobilenet_b10x10() {
    let g = zoo::mobilenet_v1();
    let cfg = AmpsConfig::default().with_batch(10);
    check("fig13", modes(&g, &plan(&g, &cfg), &cfg, 10, 10), FIG13);
}

#[test]
fn ext_pipeline_resnet50_b10() {
    let g = zoo::resnet50();
    let cfg = AmpsConfig::default().with_batch(10);
    let p = plan(&g, &cfg);
    check(
        "resnet50 b10x10",
        modes(&g, &p, &cfg, 10, 10),
        RESNET50_B10X10,
    );
    check("resnet50 b10x2", modes(&g, &p, &cfg, 10, 2), RESNET50_B10X2);
    check("resnet50 b10x8", modes(&g, &p, &cfg, 10, 8), RESNET50_B10X8);
}

#[test]
fn inception_v3_b64x4() {
    let g = zoo::inception_v3();
    let cfg = AmpsConfig::default().with_batch(64);
    check(
        "inception_v3 b64x4",
        modes(&g, &plan(&g, &cfg), &cfg, 64, 4),
        INCEPTION_B64X4,
    );
}

#[test]
fn mobilenet_batch_one_plan_at_larger_batches() {
    let g = zoo::mobilenet_v1();
    let cfg = AmpsConfig::default();
    let p = plan(&g, &cfg);
    check("mobilenet b1x1", modes(&g, &p, &cfg, 1, 1), MOBILENET_B1X1);
    check(
        "mobilenet b10x1",
        modes(&g, &p, &cfg, 10, 1),
        MOBILENET_B10X1,
    );
    check("mobilenet b5x1", modes(&g, &p, &cfg, 5, 1), MOBILENET_B5X1);
    check("mobilenet b5x2", modes(&g, &p, &cfg, 5, 2), MOBILENET_B5X2);
}

#[test]
fn batch_baseline_b10() {
    let g = zoo::mobilenet_v1();
    let cfg = AmpsConfig::default().with_batch(10);
    assert_eq!(batch_baseline(&g, &cfg, 10, 1), BATCH_B10X1);
    assert_eq!(batch_baseline(&g, &cfg, 10, 10), BATCH_B10X10);
}

const FIG13: [Bits; 3] = [
    // sequential
    [0x3fee7383855b1e34, 0x4055b72b09267da8, 0x3f64c79c876dc6a7],
    // parallel
    [0x3fee7383855b1e34, 0x40286611ffce7387, 0x3f6d2a933973b837],
    // pipelined
    [0x3fee7383855b1e34, 0x4055b72b09267da8, 0x3f64c79c876dc6a7],
];
const RESNET50_B10X10: [Bits; 3] = [
    // sequential
    [0x40048a3ff4e2958c, 0x4080fa659d9accbb, 0x3f904dd91a964cd8],
    // parallel
    [0x40048a3ff4e2958c, 0x40504397b348d08c, 0x3f9380adbd7fddbc],
    // pipelined
    [0x40048a3ff4e2958c, 0x40769fd2ae9c6e6d, 0x3f904dd4eb31e299],
];
const RESNET50_B10X2: [Bits; 3] = [
    // sequential
    [0x40048a3ff4e2958c, 0x405d8c6f64588bce, 0x3f6c5c6799c50198],
    // parallel
    [0x40048a3ff4e2958c, 0x40504397b348d08c, 0x3f6f34492f32fc61],
    // pipelined
    [0x40048a3ff4e2958c, 0x4056c86c7f3d862a, 0x3f6c5c6690cdd1e9],
];
const RESNET50_B10X8: [Bits; 3] = [
    // sequential
    [0x40048a3ff4e2958c, 0x407b505f62adbbd5, 0x3f8a3a891517b59f],
    // parallel
    [0x40048a3ff4e2958c, 0x40504397b348d08c, 0x3f8f34492f32fc61],
    // pipelined
    [0x40048a3ff4e2958c, 0x40726464cae92b35, 0x3f8a3a83d89bde9f],
];
const INCEPTION_B64X4: [Bits; 3] = [
    // sequential
    [0x4001d3769f998ddb, 0x40a3774e4b74fac2, 0x3fb9f07cb94de36e],
    // parallel
    [0x4001d3769f998ddb, 0x4083e3e5c5d76818, 0x3fba764c48b7bdf1],
    // pipelined
    [0x4001d3769f998ddb, 0x4094af08e3ef36e2, 0x3fb9df960d8d78d9],
];
const MOBILENET_B1X1: [Bits; 3] = [
    // sequential
    [0x3fee7383855b1e34, 0x402021b21c10bedb, 0x3f1cce70a4cf75ff],
    // parallel
    [0x3fee7383855b1e34, 0x402021b21c10bedb, 0x3f1cce70a4cf75ff],
    // pipelined
    [0x3fee7383855b1e34, 0x402021b21c10bedb, 0x3f1cce70a4cf75ff],
];
const MOBILENET_B10X1: [Bits; 3] = [
    // sequential
    [0x3fee7383855b1e34, 0x404ca81cefed3918, 0x3f497a15faa404b2],
    // parallel
    [0x3fee7383855b1e34, 0x404ca81cefed3918, 0x3f497a15faa404b2],
    // pipelined
    [0x3fee7383855b1e34, 0x404ca81cefed3918, 0x3f497a15faa404b2],
];
const MOBILENET_B5X1: [Bits; 3] = [
    // sequential
    [0x3fee7383855b1e34, 0x4030442c44e87aa3, 0x3f2cf52ae21b5b84],
    // parallel
    [0x3fee7383855b1e34, 0x4030442c44e87aa3, 0x3f2cf52ae21b5b84],
    // pipelined
    [0x3fee7383855b1e34, 0x4030442c44e87aa3, 0x3f2cf52ae21b5b84],
];
const MOBILENET_B5X2: [Bits; 3] = [
    // sequential
    [0x3fee7383855b1e34, 0x403a40c1e9b3d7de, 0x3f375ddbc0c20fce],
    // parallel
    [0x3fee7383855b1e34, 0x4030442c44e87aa3, 0x3f3cf52ae21b5b84],
    // pipelined
    [0x3fee7383855b1e34, 0x403a40c1e9b3d7de, 0x3f375ddbc0c20fce],
];
const BATCH_B10X1: [u64; 2] = [0x40286611ffce7387, 0x3f3aaa1a853952c5];
const BATCH_B10X10: [u64; 2] = [0x405e7f967fc21069, 0x3f70aa509343d3bc];
