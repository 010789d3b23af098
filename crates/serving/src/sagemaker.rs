//! Amazon SageMaker simulation (the paper's §2.2 / §5.2 comparator).
//!
//! **Sage 1**: the user's `ml.t2.medium` notebook instance stores the
//! uploaded model (JSON + .h5), re-arranges it into the serving package
//! (model.pb + assets + variables) and serves in place. Cost is dominated
//! by notebook-instance time — SageMaker notebooks run in sessions, not
//! per-request (the paper's ResNet50 Sage 1 cost of $0.014 corresponds to
//! ≈15 min of `ml.t2.medium` time).
//!
//! **Sage 2**: the notebook submits the job; an `ml.m4.xlarge` hosting
//! endpoint is created — endpoint creation + model deployment dominates
//! completion (paper Table 4: 400–460 s) — and the model is loaded from S3
//! before predicting. Both instances bill for the full episode.

use ampsinf_faas::ledger::CostItem;
use ampsinf_faas::vm::{VmInstance, VmType};
use ampsinf_faas::{CostLedger, PerfModel, PriceSheet};
use ampsinf_model::LayerGraph;

/// Which SageMaker setting to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SageSetting {
    /// Notebook-instance serving.
    Sage1,
    /// Hosting-endpoint serving.
    Sage2,
}

/// SageMaker-side calibration constants.
#[derive(Debug, Clone, Copy)]
pub struct SageConfig {
    /// Model upload bandwidth into the notebook, MB/s.
    pub upload_mbps: f64,
    /// Model re-arrangement (JSON/h5 → model.pb/assets) throughput at one
    /// full vCPU, MB/s.
    pub convert_mbps: f64,
    /// Jupyter/session fixed overhead per job, seconds.
    pub notebook_overhead_s: f64,
    /// Minimum billed notebook session, seconds (notebooks idle between
    /// requests but keep billing — the paper's Sage 1 costs reflect this).
    pub notebook_session_floor_s: f64,
    /// Minimum billed hosting-endpoint episode, seconds.
    pub endpoint_floor_s: f64,
    /// S3 → hosting-instance bandwidth, MB/s (Sage 2 loads from S3).
    pub s3_load_mbps: f64,
}

impl Default for SageConfig {
    fn default() -> Self {
        SageConfig {
            upload_mbps: 40.0,
            convert_mbps: 12.0,
            notebook_overhead_s: 8.0,
            notebook_session_floor_s: 900.0,
            endpoint_floor_s: 600.0,
            s3_load_mbps: 20.0,
        }
    }
}

/// Measurements of one SageMaker serving episode.
#[derive(Debug, Clone)]
pub struct SageReport {
    /// Which setting produced this.
    pub setting: SageSetting,
    /// Time to have model + weights loaded and ready (paper Fig. 5).
    pub load_s: f64,
    /// Prediction time (paper Fig. 6; for Sage 2 it is folded into the
    /// deployment+prediction total of Table 4).
    pub predict_s: f64,
    /// Completion time for serving the request(s) end to end.
    pub completion_s: f64,
    /// Total dollars (instance time + storage/transfer).
    pub dollars: f64,
    /// Itemized charges.
    pub ledger: CostLedger,
}

/// Serves `images` inputs on the chosen SageMaker setting.
pub fn run_sagemaker(
    graph: &LayerGraph,
    setting: SageSetting,
    images: usize,
    cfg: &SageConfig,
    perf: &PerfModel,
    prices: &PriceSheet,
) -> SageReport {
    let weight_mb = graph.weight_bytes() as f64 / 1e6;
    let flops = graph.total_flops() as f64;
    let mut ledger = CostLedger::new();

    match setting {
        SageSetting::Sage1 => {
            let nb = VmInstance::start(VmType::ml_t2_medium(), 0.0);
            let upload_s = weight_mb / cfg.upload_mbps;
            let convert_s = nb.cpu_time(weight_mb / cfg.convert_mbps);
            let load_s = nb.cpu_time(graph.weight_bytes() as f64 / (perf.load_bw_mbps * 1e6));
            let predict_one = nb.cpu_time(flops / perf.flops_per_s);
            let predict_s = predict_one * images as f64;
            let completion_s = cfg.notebook_overhead_s + upload_s + convert_s + load_s + predict_s;
            // Notebook bills the session, not the request.
            let billed_s = completion_s.max(cfg.notebook_session_floor_s);
            nb.stop(billed_s, &mut ledger);
            // Weight storage in/out during the episode.
            let storage = prices.s3_storage_cost(graph.weight_bytes(), billed_s);
            ledger.charge(CostItem::StorageAtRest, storage);
            SageReport {
                setting,
                load_s: convert_s + load_s,
                predict_s,
                completion_s,
                dollars: ledger.total(),
                ledger,
            }
        }
        SageSetting::Sage2 => {
            let nb = VmInstance::start(VmType::ml_t2_medium(), 0.0);
            let upload_s = weight_mb / cfg.upload_mbps;
            // The notebook converts + stages the model into S3, then asks
            // for an endpoint; the hosting instance launches, pulls the
            // model from S3, deserializes, and serves.
            let convert_s = nb.cpu_time(weight_mb / cfg.convert_mbps);
            let host = VmInstance::start(
                VmType::ml_m4_xlarge(),
                cfg.notebook_overhead_s + upload_s + convert_s,
            );
            let s3_pull_s = weight_mb / cfg.s3_load_mbps;
            let load_s =
                s3_pull_s + host.cpu_time(graph.weight_bytes() as f64 / (perf.load_bw_mbps * 1e6));
            let predict_one = host.cpu_time(flops / perf.flops_per_s);
            let predict_s = predict_one * images as f64;
            let completion_s = host.ready_at() + load_s + predict_s;
            let nb_billed = completion_s.max(cfg.notebook_session_floor_s);
            nb.stop(nb_billed, &mut ledger);
            let host_end = host
                .started_at
                .max(completion_s)
                .max(host.started_at + cfg.endpoint_floor_s);
            host.stop(host_end, &mut ledger);
            let storage = prices.s3_storage_cost(graph.weight_bytes(), nb_billed);
            ledger.charge(CostItem::StorageAtRest, storage);
            SageReport {
                setting,
                load_s,
                predict_s,
                completion_s,
                dollars: ledger.total(),
                ledger,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampsinf_model::zoo;

    fn run(setting: SageSetting, g: &LayerGraph) -> SageReport {
        run_sagemaker(
            g,
            setting,
            1,
            &SageConfig::default(),
            &PerfModel::default(),
            &PriceSheet::aws_2020(),
        )
    }

    #[test]
    fn sage1_resnet_in_paper_ballpark() {
        // Paper Table 3: Sage 1 ResNet50 ≈ 33 s, $0.014.
        let r = run(SageSetting::Sage1, &zoo::resnet50());
        assert!(
            r.completion_s > 20.0 && r.completion_s < 50.0,
            "{}",
            r.completion_s
        );
        assert!(r.dollars > 0.008 && r.dollars < 0.025, "{}", r.dollars);
    }

    #[test]
    fn sage2_dominated_by_endpoint_creation() {
        // Paper Table 4: Sage 2 deployment+prediction 400–480 s.
        for g in [zoo::resnet50(), zoo::inception_v3(), zoo::xception()] {
            let r = run(SageSetting::Sage2, &g);
            assert!(
                r.completion_s > 380.0 && r.completion_s < 520.0,
                "{}: {}",
                g.name,
                r.completion_s
            );
        }
    }

    #[test]
    fn sage2_costs_more_than_sage1() {
        // Paper Fig. 8: Sage 2 > Sage 1 ≫ AMPS.
        let s1 = run(SageSetting::Sage1, &zoo::resnet50());
        let s2 = run(SageSetting::Sage2, &zoo::resnet50());
        assert!(s2.dollars > s1.dollars);
        assert!(s2.completion_s > s1.completion_s);
    }

    #[test]
    fn sage2_load_slower_than_sage1() {
        // Paper Fig. 5: loading in Sage 2 is longer (network pull from S3)
        // than the self-loading Sage 1.
        let s1 = run(SageSetting::Sage1, &zoo::xception());
        let s2 = run(SageSetting::Sage2, &zoo::xception());
        assert!(s2.load_s > 0.0 && s1.load_s > 0.0);
        // Sage 1's "load" includes conversion; compare pure network+deser.
        assert!(s2.completion_s > s1.completion_s);
    }

    #[test]
    fn batch_scales_prediction_only() {
        let one = run_sagemaker(
            &zoo::mobilenet_v1(),
            SageSetting::Sage1,
            1,
            &SageConfig::default(),
            &PerfModel::default(),
            &PriceSheet::aws_2020(),
        );
        let ten = run_sagemaker(
            &zoo::mobilenet_v1(),
            SageSetting::Sage1,
            10,
            &SageConfig::default(),
            &PerfModel::default(),
            &PriceSheet::aws_2020(),
        );
        assert!((ten.predict_s - 10.0 * one.predict_s).abs() < 1e-9);
        assert!(ten.completion_s > one.completion_s);
    }
}
