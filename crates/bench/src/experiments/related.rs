//! §5.3–5.4 related-system comparisons: Fig. 11 (SerFer), Table 5
//! (10-image parallel batches vs SageMaker), Fig. 13 (BATCH).

use super::{serve_batches, BatchMode};
use crate::Table;
use ampsinf_core::{AmpsConfig, Coordinator, Optimizer};
use ampsinf_model::zoo;
use ampsinf_serving::batch_baseline::run_batch_baseline;
use ampsinf_serving::sagemaker::{run_sagemaker, SageConfig, SageSetting};
use ampsinf_serving::serfer::run_serfer;

/// Fig. 11: ResNet50, SerFer vs AMPS-Inf (same partitions/config).
pub fn fig11() -> Table {
    let g = zoo::resnet50();
    let cfg = AmpsConfig::default();
    let plan = Optimizer::new(cfg.clone()).optimize(&g).unwrap().plan;
    let mut t = Table::new(
        "fig11",
        "ResNet50 one image: SerFer vs AMPS-Inf",
        &["time (s)", "cost ($)"],
    );
    let coord = Coordinator::new(cfg.clone());
    let mut platform = coord.platform();
    let dep = coord.deploy(&mut platform, &g, &plan).unwrap();
    let amps = coord.serve_one(&mut platform, &dep, 0.0).unwrap();
    let amps_dollars = amps.dollars + platform.settle_storage(amps.inference_s);
    t.row_all("AMPS-Inf", &[amps.inference_s, amps_dollars]);
    let serfer = run_serfer(&g, &plan, &cfg).unwrap();
    t.row_all("SerFer", &[serfer.completion_s, serfer.dollars]);
    t.notes = "Shape: SerFer pays ~15 s per Step-Function state transition plus the EC2 \
               driver, losing on both axes with identical partitions — the paper's Fig. 11."
        .into();
    t
}

/// Table 5: batch of 10 images served in parallel, vs SageMaker.
pub fn table5() -> Table {
    let cfg = AmpsConfig::default().with_batch(1);
    let mut t = Table::new(
        "table5",
        "Batch serving of 10 parallel images",
        &[
            "AMPS time",
            "Sage1 time",
            "Sage2 time",
            "AMPS cost",
            "Sage1 cost",
            "Sage2 cost",
        ],
    );
    for g in [zoo::resnet50(), zoo::inception_v3(), zoo::xception()] {
        let plan = Optimizer::new(cfg.clone()).optimize(&g).unwrap().plan;
        let coord = Coordinator::new(cfg.clone());
        let mut platform = coord.platform();
        let dep = coord.deploy(&mut platform, &g, &plan).unwrap();
        let batch = coord.serve_parallel(&mut platform, &dep, 10, 0.0);
        let amps_dollars = batch.dollars + platform.settle_storage(batch.completion_s);
        let s1 = run_sagemaker(
            &g,
            SageSetting::Sage1,
            10,
            &SageConfig::default(),
            &cfg.perf,
            &cfg.prices,
        );
        let s2 = run_sagemaker(
            &g,
            SageSetting::Sage2,
            10,
            &SageConfig::default(),
            &cfg.perf,
            &cfg.prices,
        );
        t.row_all(
            g.name.clone(),
            &[
                batch.completion_s,
                s1.completion_s,
                s2.completion_s,
                amps_dollars,
                s1.dollars,
                s2.dollars,
            ],
        );
    }
    t.notes = "Shape (paper Table 5): AMPS-Inf completes the 10-image batch ahead of Sage 1 \
               (parallel lambdas vs a single instance serving sequentially) at ≥53% lower \
               cost; Sage 2 remains dominated by endpoint deployment."
        .into();
    t
}

/// Fig. 13: MobileNet, 100 images in 10 batches — BATCH vs AMPS-Inf-Seq
/// vs AMPS-Inf (parallel).
pub fn fig13() -> Table {
    let g = zoo::mobilenet_v1();
    let cfg = AmpsConfig::default().with_batch(10);
    let plan = Optimizer::new(cfg.clone()).optimize(&g).unwrap().plan;
    let mut t = Table::new(
        "fig13",
        "MobileNet batch inference: 100 images as 10 batches of 10",
        &["time (s)", "cost ($)", "paper time", "paper cost"],
    );
    let batch = run_batch_baseline(&g, &cfg, 2048, 10, 10).unwrap();
    t.row_all(
        "BATCH",
        &[batch.completion_s, batch.dollars, 276.84, 0.0095],
    );
    let (seq_s, seq_dollars) = serve_batches(&g, &plan, &cfg, 10, 10, BatchMode::Sequential);
    t.row_all("AMPS-Inf-Seq", &[seq_s, seq_dollars, 231.36, 0.0043]);
    let (par_s, par_dollars) = serve_batches(&g, &plan, &cfg, 10, 10, BatchMode::Parallel);
    t.row_all("AMPS-Inf", &[par_s, par_dollars, 42.61, 0.0042]);
    t.notes = "Shape: AMPS-Inf-Seq beats BATCH on both axes under the same sequential \
               batching policy (warm chain vs lambda-per-batch); parallel invocation then \
               collapses completion time by ~7×, still cheaper than BATCH. Deviation: our \
               parallel mode pays cold scale-out (~40% over Seq) where the paper measured \
               near-equal cost."
        .into();
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig11_serfer_loses_both_axes() {
        let t = fig11();
        let amps = &t.rows[0].1;
        let serfer = &t.rows[1].1;
        assert!(serfer[0].unwrap() > amps[0].unwrap() + 15.0);
        assert!(serfer[1].unwrap() > amps[1].unwrap());
    }

    #[test]
    fn table5_amps_wins() {
        let t = table5();
        for (label, v) in &t.rows {
            let amps_t = v[0].unwrap();
            let s1_t = v[1].unwrap();
            let amps_c = v[3].unwrap();
            let s1_c = v[4].unwrap();
            let s2_c = v[5].unwrap();
            assert!(amps_t < s1_t, "{label}: time {amps_t} vs {s1_t}");
            assert!(amps_c < s1_c * 0.47, "{label}: cost {amps_c} vs {s1_c}");
            assert!(s2_c > s1_c, "{label}: sage2 priciest");
        }
    }

    #[test]
    fn fig13_ordering() {
        let t = fig13();
        let batch = &t.rows[0].1;
        let seq = &t.rows[1].1;
        let par = &t.rows[2].1;
        assert!(
            seq[1].unwrap() < batch[1].unwrap(),
            "seq cheaper than BATCH"
        );
        assert!(seq[0].unwrap() < batch[0].unwrap(), "seq faster than BATCH");
        assert!(
            par[0].unwrap() < seq[0].unwrap() * 0.5,
            "parallel much faster"
        );
    }
}
