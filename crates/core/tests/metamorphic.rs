//! Metamorphic relations of the chain planner: how its answer must move
//! when its input moves, checked on full-size zoo models with no
//! reference solver.
//!
//! Price scaling: doubling every Lambda and S3 price doubles every
//! dollar the planner adds up, exactly (a power-of-two scale commutes
//! with rounding), and moves no second. Every comparison the planner
//! makes between dollars therefore comes out the same, so the plan must
//! be identical and its predicted cost double bit for bit.
//!
//! The same scaling on the serving side: a plan served under doubled
//! prices takes the same seconds, fails the same requests and bills
//! every dollar twice, bit for bit — invocations, failed attempts,
//! at-rest storage and warm-pool idle time alike.

use ampsinf_core::optimizer::Optimizer;
use ampsinf_core::{AmpsConfig, Coordinator, DagPlan, TraceReport};
use ampsinf_faas::{FaultPlan, PriceSheet, StoreKind, WarmPoolPolicy};
use ampsinf_model::{zoo, LayerGraph};
use ampsinf_serving::loadgen::{run_open_loop, run_open_loop_dag, LoadReport, LoadSpec};

/// Zoo models with a feasible fp32 chain plan at every batch below.
const MODELS: [&str; 5] = [
    "mobilenet",
    "resnet50",
    "inception_v3",
    "xception",
    "densenet121",
];
const BATCHES: [u64; 3] = [1, 8, 64];
const TOLERANCES: [f64; 2] = [0.0, 0.1];

/// `prices` with every Lambda and S3 price doubled.
fn doubled(prices: PriceSheet) -> PriceSheet {
    PriceSheet {
        lambda_gb_second: prices.lambda_gb_second * 2.0,
        lambda_provisioned_gb_second: prices.lambda_provisioned_gb_second * 2.0,
        lambda_request: prices.lambda_request * 2.0,
        s3_put_request: prices.s3_put_request * 2.0,
        s3_get_request: prices.s3_get_request * 2.0,
        s3_storage_gb_second: prices.s3_storage_gb_second * 2.0,
        s3_transfer_gb: prices.s3_transfer_gb * 2.0,
        ..prices
    }
}

#[test]
fn doubling_every_price_keeps_the_plan_and_doubles_its_cost() {
    let mut failed = Vec::new();
    for name in MODELS {
        let g = zoo::by_name(name).expect("zoo model");
        for batch in BATCHES {
            for tol in TOLERANCES {
                let mut cfg = AmpsConfig::default().with_batch(batch).with_threads(1);
                cfg.cost_tolerance = tol;
                let base = Optimizer::new(cfg.clone())
                    .optimize(&g)
                    .unwrap_or_else(|e| panic!("{name} batch {batch} tol {tol}: {e}"))
                    .plan;
                cfg.prices = doubled(cfg.prices);
                let scaled = Optimizer::new(cfg)
                    .optimize(&g)
                    .unwrap_or_else(|e| panic!("{name} batch {batch} tol {tol} x2: {e}"))
                    .plan;
                let same = scaled.partitions == base.partitions
                    && scaled.predicted_time_s.to_bits() == base.predicted_time_s.to_bits()
                    && scaled.predicted_cost.to_bits() == (base.predicted_cost * 2.0).to_bits();
                if !same {
                    failed.push(format!(
                        "{name} batch {batch} tol {tol}: {base} -> {scaled} (${} x2 = ${})",
                        base.predicted_cost,
                        base.predicted_cost * 2.0
                    ));
                }
            }
        }
    }
    assert!(
        failed.is_empty(),
        "price doubling moved:\n{}",
        failed.join("\n")
    );
}

/// The serving configurations each plan is served under: clean on one
/// lane, then lambda faults with retries, a flaky store and a
/// provisioned pool (which bills idle time) on one lane and on four.
fn serving_cfgs() -> Vec<(&'static str, AmpsConfig)> {
    let faulty = |lanes: usize| {
        let mut cfg = AmpsConfig::default()
            .with_serve_lanes(lanes)
            .with_retries(2)
            .with_faults(FaultPlan::uniform(0.1, 31))
            .with_warm_pool(WarmPoolPolicy::provisioned(2));
        cfg.store = StoreKind::flaky_s3(0.2);
        cfg
    };
    vec![
        ("clean", AmpsConfig::default()),
        ("faults+flaky+provisioned, 1 lane", faulty(1)),
        ("faults+flaky+provisioned, 4 lanes", faulty(4)),
    ]
}

/// Serves one plan's load under a configuration, through the open loop
/// and through `Coordinator::serve_trace` on a fresh deployment.
type Serve<'a> = dyn Fn(&AmpsConfig) -> (LoadReport, TraceReport) + 'a;

/// Every served dollar of a run (`load`, `trace`) against the same run
/// at doubled prices (`load2`, `trace2`); returns what did not double
/// (or what else moved), one line per field.
fn doubling_mismatches(
    (load, trace): &(LoadReport, TraceReport),
    (load2, trace2): &(LoadReport, TraceReport),
) -> Vec<String> {
    let mut out = Vec::new();
    let mut doubles = |what: &str, a: f64, b: f64| {
        if (a * 2.0).to_bits() != b.to_bits() {
            out.push(format!("{what}: {a} x2 = {} vs {b}", a * 2.0));
        }
    };
    doubles("LoadReport::dollars", load.dollars, load2.dollars);
    doubles(
        "LoadReport::idle_dollars",
        load.idle_dollars,
        load2.idle_dollars,
    );
    doubles("TraceReport::dollars", trace.dollars, trace2.dollars);
    doubles(
        "TraceReport::settled_dollars",
        trace.settled_dollars,
        trace2.settled_dollars,
    );
    doubles(
        "TraceReport::idle_dollars",
        trace.idle_dollars,
        trace2.idle_dollars,
    );
    for (i, (r, r2)) in trace.requests.iter().zip(&trace2.requests).enumerate() {
        doubles(&format!("request {i} dollars"), r.dollars, r2.dollars);
        doubles(
            &format!("request {i} wasted_dollars"),
            r.wasted_dollars,
            r2.wasted_dollars,
        );
    }
    let seconds = |t: &TraceReport| -> Vec<(u64, bool, u32)> {
        let r = &t.requests;
        r.iter()
            .map(|r| (r.latency_s.to_bits(), r.ok, r.retries))
            .collect()
    };
    if seconds(trace) != seconds(trace2)
        || load.latencies_s != load2.latencies_s
        || load.failures != load2.failures
        || load.makespan_s.to_bits() != load2.makespan_s.to_bits()
    {
        out.push("a latency, outcome, retry count or the makespan moved".into());
    }
    out
}

/// Asserts that `serve` exercised what the relation is about: billed
/// at-rest storage, and under faults failed attempts and billed idle time.
fn assert_exercised(name: &str, faulty: bool, load: &LoadReport, trace: &TraceReport) {
    assert!(
        trace.settled_dollars > 0.0,
        "{name}: no at-rest storage billed"
    );
    if faulty {
        let wasted = trace.requests.iter().any(|r| r.wasted_dollars > 0.0);
        assert!(wasted, "{name}: no failed attempt billed");
        assert!(load.idle_dollars > 0.0, "{name}: no idle time billed");
    }
}

#[test]
fn doubling_every_price_doubles_every_served_dollar() {
    let resnet = zoo::resnet50();
    let chain = Optimizer::new(AmpsConfig::default().with_threads(1))
        .optimize(&resnet)
        .expect("ResNet-50 chain plan")
        .plan;
    let chain_load = LoadSpec::poisson(20.0, 1500, 7);
    let serve_chain = |cfg: &AmpsConfig| {
        let load = run_open_loop(&resnet, &chain, cfg, &chain_load).expect("chain open loop");
        let coord = Coordinator::new(cfg.clone());
        let mut platform = coord.platform();
        let dep = coord
            .deploy(&mut platform, &resnet, &chain)
            .expect("deploy");
        (
            load,
            coord.serve_trace(platform, &dep, &chain_load.arrivals()),
        )
    };

    let inception = zoo::inception_v3();
    let dag = inception_dag(&inception);
    let dag_load = LoadSpec::poisson(2.0, 200, 11);
    let serve_dag = |cfg: &AmpsConfig| {
        let load = run_open_loop_dag(&inception, &dag, cfg, &dag_load).expect("DAG open loop");
        let coord = Coordinator::new(cfg.clone());
        let mut platform = coord.platform();
        let dep = coord
            .deploy_dag(&mut platform, &inception, &dag)
            .expect("deploy");
        (
            load,
            coord.serve_trace(platform, &dep, &dag_load.arrivals()),
        )
    };

    let plans: [(&str, &Serve<'_>); 2] = [
        ("ResNet-50 chain", &serve_chain),
        ("Inception-v3 batch-64 DAG", &serve_dag),
    ];
    let mut failed = Vec::new();
    for (plan, serve) in plans {
        for (i, (label, cfg)) in serving_cfgs().into_iter().enumerate() {
            let name = format!("{plan}, {label}");
            let base = serve(&cfg);
            assert_exercised(&name, i > 0, &base.0, &base.1);
            let mut x2 = cfg.clone();
            x2.prices = doubled(cfg.prices);
            let mismatches = doubling_mismatches(&base, &serve(&x2));
            failed.extend(mismatches.into_iter().map(|m| format!("{name}: {m}")));
        }
    }
    assert!(
        failed.is_empty(),
        "price doubling did not double {} served dollar(s):\n{}",
        failed.len(),
        failed.join("\n")
    );
}

/// The optimizer's branch-parallel Inception-v3 plan at batch 64 (at the
/// chain optimum's SLO), served on the unbatched request stream.
fn inception_dag(g: &LayerGraph) -> DagPlan {
    let base = AmpsConfig::default().with_batch(64).with_threads(1);
    let free = Optimizer::new(base.clone())
        .optimize(g)
        .expect("chain plan");
    Optimizer::new(base.with_slo(free.plan.predicted_time_s))
        .optimize_dag(g)
        .expect("DAG search")
        .dag
        .expect("a DAG plan wins at batch 64")
}
