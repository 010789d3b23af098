//! §5.2 SageMaker comparison: Fig. 5 (loading), Fig. 6 (prediction),
//! Table 4 (Sage 2 totals), Fig. 7 (completion), Fig. 8 (cost), and the
//! small-model Fig. 12.

use crate::Table;
use ampsinf_core::{AmpsConfig, Coordinator, JobReport, Optimizer};
use ampsinf_model::zoo;
use ampsinf_model::LayerGraph;
use ampsinf_serving::sagemaker::{run_sagemaker, SageConfig, SageReport, SageSetting};

/// The three large evaluation models, in paper order.
fn eval_models() -> Vec<LayerGraph> {
    vec![zoo::resnet50(), zoo::inception_v3(), zoo::xception()]
}

/// Optimizes + serves one image on AMPS-Inf; returns the job report and
/// total dollars (with storage settlement).
pub fn amps_serve(g: &LayerGraph, cfg: &AmpsConfig) -> (JobReport, f64) {
    let plan = Optimizer::new(cfg.clone())
        .optimize(g)
        .expect("evaluation models are partitionable")
        .plan;
    let coord = Coordinator::new(cfg.clone());
    let mut platform = coord.platform();
    let dep = coord.deploy(&mut platform, g, &plan).unwrap();
    let job = coord.serve_one(&mut platform, &dep, 0.0).unwrap();
    let dollars = job.dollars + platform.settle_storage(job.inference_s);
    (job, dollars)
}

/// AMPS-Inf runs for the three large models, computed once and shared by
/// Figs. 5–8 (the paper measures one deployment per model too).
fn amps_results() -> &'static Vec<(String, JobReport, f64)> {
    static CACHE: std::sync::OnceLock<Vec<(String, JobReport, f64)>> = std::sync::OnceLock::new();
    CACHE.get_or_init(|| {
        let cfg = AmpsConfig::default();
        eval_models()
            .into_iter()
            .map(|g| {
                let (job, dollars) = amps_serve(&g, &cfg);
                (g.name.clone(), job, dollars)
            })
            .collect()
    })
}

fn sage(g: &LayerGraph, setting: SageSetting, cfg: &AmpsConfig) -> SageReport {
    run_sagemaker(
        g,
        setting,
        1,
        &SageConfig::default(),
        &cfg.perf,
        &cfg.prices,
    )
}

/// Fig. 5: time to load model and weights.
pub fn fig5() -> Table {
    let cfg = AmpsConfig::default();
    let mut t = Table::new(
        "fig5",
        "Model+weights loading time (s)",
        &["AMPS-Inf", "Sage 1", "Sage 2"],
    );
    for (g, (_, job, _)) in eval_models().iter().zip(amps_results()) {
        let s1 = sage(g, SageSetting::Sage1, &cfg);
        let s2 = sage(g, SageSetting::Sage2, &cfg);
        t.row_all(g.name.clone(), &[job.load_s, s1.load_s, s2.load_s]);
    }
    t.notes = "Shape: AMPS-Inf's summed per-partition loading is the minimum of the three \
               settings, the paper's headline Fig. 5 fact. Deviation: we fold the model \
               re-arrangement (JSON/h5 → model.pb) into Sage 1's loading path, which makes \
               our Sage 1 slower than Sage 2's network pull — the paper orders those two \
               the other way."
        .into();
    t
}

/// Fig. 6: prediction time, AMPS-Inf vs Sage 1.
pub fn fig6() -> Table {
    let cfg = AmpsConfig::default();
    let mut t = Table::new(
        "fig6",
        "Prediction time (one image, s)",
        &["AMPS-Inf", "Sage 1"],
    );
    for (g, (_, job, _)) in eval_models().iter().zip(amps_results()) {
        let s1 = sage(g, SageSetting::Sage1, &cfg);
        t.row_all(g.name.clone(), &[job.predict_s, s1.predict_s]);
    }
    t.notes = "Shape: AMPS-Inf's summed lambda compute beats the t2.medium notebook \
               (larger memory blocks buy more CPU share than the burstable instance \
               sustains) — Fig. 6's ordering."
        .into();
    t
}

/// Table 4: Sage 2 deployment + prediction totals.
pub fn table4() -> Table {
    let cfg = AmpsConfig::default();
    let mut t = Table::new(
        "table4",
        "Sage 2 overall deployment + prediction time (one image)",
        &["time (s)", "paper time"],
    );
    let paper = [463.482, 462.303, 401.787];
    for (g, p) in eval_models().into_iter().zip(paper) {
        let s2 = sage(&g, SageSetting::Sage2, &cfg);
        t.row_all(g.name.clone(), &[s2.completion_s, p]);
    }
    t.notes = "Shape: all three land in the 400–480 s band; endpoint creation and \
               hosting-instance launch dominate, exactly the paper's attribution."
        .into();
    t
}

/// Fig. 7: end-to-end completion times.
pub fn fig7() -> Table {
    let cfg = AmpsConfig::default();
    let mut t = Table::new(
        "fig7",
        "Completion time for one image (s)",
        &["AMPS-Inf", "Sage 1", "Sage 2"],
    );
    for (g, (_, job, _)) in eval_models().iter().zip(amps_results()) {
        let s1 = sage(g, SageSetting::Sage1, &cfg);
        let s2 = sage(g, SageSetting::Sage2, &cfg);
        t.row_all(
            g.name.clone(),
            &[job.e2e_s, s1.completion_s, s2.completion_s],
        );
    }
    t.notes = "Shape: AMPS-Inf completes ahead of Sage 1 for every model (paper: ≥47%/17%/61% \
               for ResNet50/InceptionV3/Xception) and Sage 2 is an order of magnitude slower."
        .into();
    t
}

/// Fig. 8: total costs.
pub fn fig8() -> Table {
    let cfg = AmpsConfig::default();
    let mut t = Table::new(
        "fig8",
        "Total cost for one image ($)",
        &["AMPS-Inf", "Sage 1", "Sage 2"],
    );
    for (g, (_, _, dollars)) in eval_models().iter().zip(amps_results()) {
        let s1 = sage(g, SageSetting::Sage1, &cfg);
        let s2 = sage(g, SageSetting::Sage2, &cfg);
        t.row_all(g.name.clone(), &[*dollars, s1.dollars, s2.dollars]);
    }
    t.notes = "Shape: AMPS-Inf cuts ≥92% of Sage 1's cost and ≥98% of Sage 2's (paper: \
               92.85–98.67% and 98.02–99.33%)."
        .into();
    t
}

/// Fig. 12: the small-model (MobileNet) comparison.
pub fn fig12() -> Table {
    let cfg = AmpsConfig::default();
    let g = zoo::mobilenet_v1();
    let mut t = Table::new(
        "fig12",
        "MobileNet one image: completion time and cost",
        &["time (s)", "cost ($)"],
    );
    let (job, dollars) = amps_serve(&g, &cfg);
    t.row_all("AMPS-Inf", &[job.e2e_s, dollars]);
    let s1 = sage(&g, SageSetting::Sage1, &cfg);
    t.row_all("Sage 1", &[s1.completion_s, s1.dollars]);
    let s2 = sage(&g, SageSetting::Sage2, &cfg);
    t.row_all("Sage 2", &[s2.completion_s, s2.dollars]);
    t.notes = "Shape: even for a model that fits one lambda, AMPS-Inf (paper: two lambdas \
               at 1024/960 MB, $0.00019) beats both SageMaker settings on time and cuts \
               ~98% of their cost — the paper's §5.4 small-model result."
        .into();
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_amps_beats_sage1_everywhere() {
        let t = fig7();
        for (label, v) in &t.rows {
            let (amps, s1, s2) = (v[0].unwrap(), v[1].unwrap(), v[2].unwrap());
            assert!(amps < s1, "{label}: amps {amps} vs sage1 {s1}");
            assert!(s2 > 5.0 * s1, "{label}: sage2 must dwarf sage1");
        }
    }

    #[test]
    fn fig8_cost_reductions_match_paper_band() {
        let t = fig8();
        for (label, v) in &t.rows {
            let (amps, s1, s2) = (v[0].unwrap(), v[1].unwrap(), v[2].unwrap());
            let red1 = 1.0 - amps / s1;
            let red2 = 1.0 - amps / s2;
            assert!(red1 > 0.90, "{label}: vs Sage1 only {red1:.3}");
            assert!(red2 > 0.95, "{label}: vs Sage2 only {red2:.3}");
        }
    }

    #[test]
    fn fig5_loading_order() {
        // Paper Fig. 5: AMPS-Inf's summed loading is the minimum; Sage 2's
        // network pull makes it the slowest of the two SageMaker settings.
        let t = fig5();
        for (label, v) in &t.rows {
            let (amps, s1, s2) = (v[0].unwrap(), v[1].unwrap(), v[2].unwrap());
            assert!(amps < s1, "{label}: AMPS loading must beat Sage 1");
            assert!(amps < s2, "{label}: AMPS loading must beat Sage 2");
        }
    }

    #[test]
    fn fig6_prediction_order() {
        let t = fig6();
        for (label, v) in &t.rows {
            assert!(
                v[0].unwrap() < v[1].unwrap(),
                "{label}: AMPS prediction must beat Sage 1"
            );
        }
    }

    #[test]
    fn table4_band() {
        let t = table4();
        for (label, v) in &t.rows {
            let s = v[0].unwrap();
            assert!(s > 380.0 && s < 520.0, "{label}: {s}");
        }
    }

    #[test]
    fn fig12_small_model_still_wins() {
        let t = fig12();
        let amps = &t.rows[0].1;
        let s1 = &t.rows[1].1;
        assert!(amps[0].unwrap() < s1[0].unwrap());
        assert!(amps[1].unwrap() < s1[1].unwrap() * 0.1);
    }
}
