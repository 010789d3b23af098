//! Metamorphic relations of the chain planner: how its answer must move
//! when its input moves, checked on full-size zoo models with no
//! reference solver.
//!
//! Price scaling: doubling every Lambda and S3 price doubles every
//! dollar the planner adds up, exactly (a power-of-two scale commutes
//! with rounding), and moves no second. Every comparison the planner
//! makes between dollars therefore comes out the same, so the plan must
//! be identical and its predicted cost double bit for bit.

use ampsinf_core::optimizer::Optimizer;
use ampsinf_core::AmpsConfig;
use ampsinf_faas::PriceSheet;
use ampsinf_model::zoo;

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
