//! BATCH \[23\] — single-lambda adaptive batching (paper Fig. 13).
//!
//! BATCH buffers requests and invokes one lambda per batch; it "does not
//! support model splitting", so the whole model must fit one function.
//! The paper's Fig. 13 setting: MobileNet, 100 images in 10 batches,
//! 2,048 MB, sequential per-batch invocations.

use ampsinf_core::plan::{ExecutionPlan, PartitionPlan};
use ampsinf_core::{AmpsConfig, Coordinator};
use ampsinf_model::LayerGraph;

/// Result of a BATCH run.
#[derive(Debug, Clone, Copy)]
pub struct BatchBaselineReport {
    /// Wall-clock completion of all batches.
    pub completion_s: f64,
    /// Total dollars.
    pub dollars: f64,
    /// Number of lambda invocations (one per batch).
    pub invocations: usize,
}

/// Runs BATCH: `num_batches` sequential invocations of `batch` images
/// each, every one on its own single-function deployment at `memory_mb`.
pub fn run_batch_baseline(
    graph: &LayerGraph,
    cfg: &AmpsConfig,
    memory_mb: u32,
    batch: u64,
    num_batches: usize,
) -> Result<BatchBaselineReport, String> {
    let coord = Coordinator::new(cfg.clone());
    let mut platform = coord.platform();
    let plan = ExecutionPlan {
        model: graph.name.clone(),
        partitions: vec![PartitionPlan {
            start: 0,
            end: graph.num_layers().saturating_sub(1),
            memory_mb,
        }],
        predicted_time_s: 0.0,
        predicted_cost: 0.0,
    };
    // "BATCH sequentially invokes a lambda per batch" (paper §5.4): each
    // batch lands on a fresh function instance — no warm reuse — while
    // AMPS-Inf-Seq keeps re-invoking its deployed chain.
    let mut now = 0.0f64;
    let mut dollars = 0.0f64;
    for _ in 0..num_batches {
        let dep = coord
            .deploy_batch(&mut platform, graph, &plan, batch)
            .map_err(|e| e.to_string())?;
        let r = coord
            .serve_one(&mut platform, &dep, now)
            .map_err(|e| e.to_string())?;
        now += r.inference_s;
        dollars += r.dollars;
    }
    Ok(BatchBaselineReport {
        completion_s: now,
        dollars,
        invocations: num_batches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampsinf_core::Optimizer;
    use ampsinf_model::zoo;

    /// AMPS-Inf over `plan`: ten batches of ten images, sequential or
    /// parallel; `(completion_s, dollars)` with storage settled.
    fn amps_batches(
        g: &LayerGraph,
        plan: &ExecutionPlan,
        cfg: &AmpsConfig,
        parallel: bool,
    ) -> (f64, f64) {
        let coord = Coordinator::new(cfg.clone());
        let mut platform = coord.platform();
        let dep = coord.deploy_batch(&mut platform, g, plan, 10).unwrap();
        let r = if parallel {
            coord.serve_parallel(&mut platform, &dep, 10, 0.0)
        } else {
            coord.serve_sequential(&mut platform, &dep, 10, 0.0)
        };
        assert_eq!(r.failed(), 0);
        (
            r.completion_s,
            r.dollars + platform.settle_storage(r.completion_s),
        )
    }

    #[test]
    fn batch_rejects_unsplittable_models() {
        // ResNet50 does not fit one lambda: BATCH cannot serve it at all —
        // the gap AMPS-Inf fills.
        let g = zoo::resnet50();
        let cfg = AmpsConfig::default();
        assert!(run_batch_baseline(&g, &cfg, 2048, 10, 10).is_err());
    }

    #[test]
    fn fig13_relationships_hold() {
        // BATCH vs AMPS-Inf-Seq vs AMPS-Inf-parallel on MobileNet,
        // 100 images in 10 batches: AMPS-Seq cheaper/faster than BATCH,
        // parallel much faster at similar cost (paper: 276.8 s/$0.0095 vs
        // 231.4 s/$0.0043 vs 42.6 s/$0.0042).
        let g = zoo::mobilenet_v1();
        // AMPS-Inf plans *for the batch workload* (the paper's batch plan:
        // two lambdas at 2048/2176 MB for batch 10).
        let cfg = AmpsConfig::default().with_batch(10);
        let batch = run_batch_baseline(&g, &cfg, 2048, 10, 10).unwrap();
        let plan = Optimizer::new(cfg.clone()).optimize(&g).unwrap().plan;
        let (seq_s, seq_dollars) = amps_batches(&g, &plan, &cfg, false);
        let (par_s, _) = amps_batches(&g, &plan, &cfg, true);
        assert!(
            seq_dollars < batch.dollars,
            "seq ${} vs BATCH ${}",
            seq_dollars,
            batch.dollars
        );
        assert!(par_s < seq_s * 0.5);
        assert!(par_s < batch.completion_s * 0.5);
    }

    #[test]
    fn batch_pays_cold_start_every_batch() {
        // BATCH's lambda-per-batch pattern: ten batches ≈ 10× one batch
        // (no warm reuse) — the overhead AMPS-Inf-Seq avoids.
        let g = zoo::mobilenet_v1();
        let cfg = AmpsConfig::default();
        let one = run_batch_baseline(&g, &cfg, 2048, 10, 1).unwrap();
        let ten = run_batch_baseline(&g, &cfg, 2048, 10, 10).unwrap();
        assert!((ten.completion_s - one.completion_s * 10.0).abs() < one.completion_s);
        assert_eq!(ten.invocations, 10);
    }
}
