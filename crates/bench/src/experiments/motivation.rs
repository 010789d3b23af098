//! The paper's §2 motivation artifacts: Table 1 (deployment sizes),
//! Fig. 1 / Table 2 (MobileNet memory sweep), Fig. 2 (one-lambda vs
//! SageMaker), Table 3 (ResNet50 across ten lambdas).

use crate::Table;
use ampsinf_core::baselines::predict;
use ampsinf_core::plan::{ExecutionPlan, PartitionPlan};
use ampsinf_core::{AmpsConfig, Coordinator};
use ampsinf_faas::runtime::whole_model;
use ampsinf_model::zoo;
use ampsinf_model::LayerGraph;
use ampsinf_profiler::{quick_eval_node, Profile};
use ampsinf_serving::sagemaker::{run_sagemaker, SageConfig, SageSetting};

/// Single-lambda whole-model end-to-end (deploy + invoke), as in §2.2.1's
/// "end-to-end completion time starting from model upload".
fn single_lambda_e2e(graph: &LayerGraph, memory_mb: u32, cfg: &AmpsConfig) -> Option<(f64, f64)> {
    let coord = Coordinator::new(cfg.clone());
    let mut platform = coord.platform();
    let work = whole_model(graph);
    let spec = work.function_spec(graph.name.clone(), memory_mb);
    let (fid, deploy_s) = platform.deploy(spec).ok()?;
    let out = platform
        .invoke(fid, 0.0, &work.invocation(None, None))
        .ok()?;
    let _ = coord;
    Some((deploy_s + out.duration(), out.dollars))
}

/// Table 1: model and deployment sizes.
pub fn table1() -> Table {
    let mut t = Table::new(
        "table1",
        "Model and deployment sizes (deployment = model + 169 MB deps + handler)",
        &[
            "model (MB)",
            "deployment (MB)",
            "paper model",
            "paper deploy",
        ],
    );
    let paper: &[(&str, f64, f64)] = &[("resnet50", 98.0, 267.0), ("inception_v3", 92.0, 261.0)];
    for g in [
        zoo::resnet50(),
        zoo::inception_v3(),
        zoo::xception(),
        zoo::mobilenet_v1(),
        zoo::vgg16(),
    ] {
        let model_mb = g.weight_bytes() as f64 / 1024.0 / 1024.0;
        let deploy_mb =
            whole_model(&g).function_spec(&g.name, 1024).package_bytes() as f64 / 1024.0 / 1024.0;
        let p = paper.iter().find(|(n, _, _)| *n == g.name);
        t.row(
            g.name.clone(),
            vec![
                Some(model_mb),
                Some(deploy_mb),
                p.map(|(_, m, _)| *m),
                p.map(|(_, _, d)| *d),
            ],
        );
    }
    t.notes =
        "Shape: ResNet50/InceptionV3/Xception/VGG exceed the 250 MB limit; MobileNet does not. \
               Model sizes are exact (parameter counts match Keras to the digit)."
            .into();
    t
}

/// Fig. 1: MobileNet cost & completion vs memory, 256→3008 MB (44 blocks).
pub fn fig1() -> Table {
    let g = zoo::mobilenet_v1();
    let cfg = AmpsConfig::default();
    let profile = Profile::of(&g);
    let n = g.num_layers();
    let mut t = Table::new(
        "fig1",
        "MobileNet 1-image completion time and cost vs memory block",
        &["time (s)", "cost ($)"],
    );
    let (reads, writes) = profile.chain_io(0, n - 1);
    for mem in cfg.quotas.memory_blocks() {
        if mem < 256 {
            // The paper's x-axis starts at 256 MB: 128 MB cannot finish.
            continue;
        }
        match quick_eval_node(
            &profile,
            0,
            n - 1,
            mem,
            &cfg.quotas,
            &cfg.prices,
            &cfg.perf,
            &cfg.store,
            reads,
            writes,
        ) {
            Ok(e) => t.row_all(format!("{mem} MB"), &[e.duration_s, e.dollars]),
            Err(_) => t.row(format!("{mem} MB"), vec![None, None]),
        }
    }
    t.notes = "Shape: time decreases monotonically and saturates past 1792 MB; cost is \
               non-monotone with its minimum strictly inside the grid. 128 MB is \
               infeasible, as the paper observes. Deviation: the paper reports several \
               local cost minima (measurement noise + 100 ms billing round-up); our \
               deterministic model shows one interior minimum with the same U-shape."
        .into();
    t
}

/// Table 2: the Fig. 1 sweep at the paper's five printed points.
pub fn table2() -> Table {
    let g = zoo::mobilenet_v1();
    let cfg = AmpsConfig::default();
    let profile = Profile::of(&g);
    let n = g.num_layers();
    let mut t = Table::new(
        "table2",
        "MobileNet serving (one image) per memory type",
        &["time (s)", "cost ($)", "paper time", "paper cost"],
    );
    let paper = [
        (512u32, 22.03, 0.00018),
        (1024, 10.65, 0.00017),
        (1536, 7.52, 0.00019),
        (2048, 6.38, 0.00021),
        (3008, 6.32, 0.00031),
    ];
    let (reads, writes) = profile.chain_io(0, n - 1);
    for (mem, pt, pc) in paper {
        let e = quick_eval_node(
            &profile,
            0,
            n - 1,
            mem,
            &cfg.quotas,
            &cfg.prices,
            &cfg.perf,
            &cfg.store,
            reads,
            writes,
        )
        .expect("MobileNet runs at these blocks");
        t.row_all(format!("{mem} MB"), &[e.duration_s, e.dollars, pt, pc]);
    }
    t.notes = "Shape: ~2× speedup 512→1024, saturation 2048→3008, cost minimum at ~1 GB \
               then rising to its maximum at 3008 MB — the paper's Table 2 pattern."
        .into();
    t
}

/// Fig. 2: MobileNet one image — Lambda-512 vs Sage 1 vs Sage 2.
pub fn fig2() -> Table {
    let g = zoo::mobilenet_v1();
    let cfg = AmpsConfig::default();
    let mut t = Table::new(
        "fig2",
        "MobileNet serving in Lambda (512 MB), Sage 1, Sage 2",
        &["time (s)", "cost ($)", "paper time", "paper cost"],
    );
    let (lam_t, lam_c) = single_lambda_e2e(&g, 512, &cfg).expect("MobileNet fits one lambda");
    t.row_all("Lambda 512MB", &[lam_t, lam_c, 22.03, 0.00018]);
    let s1 = run_sagemaker(
        &g,
        SageSetting::Sage1,
        1,
        &SageConfig::default(),
        &cfg.perf,
        &cfg.prices,
    );
    t.row(
        "Sage 1",
        vec![Some(s1.completion_s), Some(s1.dollars), None, None],
    );
    let s2 = run_sagemaker(
        &g,
        SageSetting::Sage2,
        1,
        &SageConfig::default(),
        &cfg.perf,
        &cfg.prices,
    );
    t.row(
        "Sage 2",
        vec![Some(s2.completion_s), Some(s2.dollars), None, None],
    );
    t.notes = "Shape: Lambda is the cheapest by orders of magnitude; Sage 2's completion \
               dwarfs everything (hosting-endpoint creation); Sage 1 completes in the same \
               ballpark as Lambda but costs ~100× more (notebook-instance time)."
        .into();
    t
}

/// Table 3: ResNet50 across ten sequential lambdas vs SageMaker.
pub fn table3() -> Table {
    let g = zoo::resnet50();
    let cfg = AmpsConfig::default();
    let profile = Profile::of(&g);
    let mut t = Table::new(
        "table3",
        "ResNet50 serving (one image): Sage 1 / Sage 2 / 10-lambda chains",
        &["time (s)", "cost ($)", "paper time", "paper cost"],
    );
    let s1 = run_sagemaker(
        &g,
        SageSetting::Sage1,
        1,
        &SageConfig::default(),
        &cfg.perf,
        &cfg.prices,
    );
    t.row_all("Sage 1", &[s1.completion_s, s1.dollars, 33.346, 0.014]);
    let s2 = run_sagemaker(
        &g,
        SageSetting::Sage2,
        1,
        &SageConfig::default(),
        &cfg.perf,
        &cfg.prices,
    );
    t.row_all("Sage 2", &[s2.completion_s, s2.dollars, 484.509, 0.056]);
    // Ten near-equal partitions, one shared memory size (the paper's
    // random 10-way split).
    for (mem, pt, pc) in [(512u32, 47.078, 0.0017), (1024, 21.799, 0.0011)] {
        let mut plan = ten_way_plan(&g, mem);
        assert!(predict(&profile, &mut plan, &cfg), "10-way chain feasible");
        let coord = Coordinator::new(cfg.clone());
        let mut platform = coord.platform();
        let dep = coord.deploy(&mut platform, &g, &plan).unwrap();
        let job = coord.serve_one(&mut platform, &dep, 0.0).unwrap();
        let dollars = job.dollars + platform.settle_storage(job.inference_s);
        t.row_all(
            format!("Lambda {mem}MB ×10"),
            &[job.inference_s, dollars, pt, pc],
        );
    }
    t.notes = "Shape: both lambda chains cost ~10× less than Sage 1 and ~50× less than \
               Sage 2; the 1024 MB chain halves the 512 MB chain's completion; Sage 2's \
               completion is dominated by deployment."
        .into();
    t
}

/// Ten contiguous partitions with (roughly) equal layer counts.
pub fn ten_way_plan(g: &LayerGraph, mem: u32) -> ExecutionPlan {
    let n = g.num_layers();
    let mut partitions = Vec::with_capacity(10);
    let mut start = 0usize;
    for i in 0..10 {
        let end = if i == 9 {
            n - 1
        } else {
            (n * (i + 1)) / 10 - 1
        };
        partitions.push(PartitionPlan {
            start,
            end,
            memory_mb: mem,
        });
        start = end + 1;
    }
    ExecutionPlan {
        model: g.name.clone(),
        partitions,
        predicted_time_s: 0.0,
        predicted_cost: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_rows_present() {
        let t = table1();
        assert_eq!(t.rows.len(), 5);
        // ResNet50 deployment > 250 MB, MobileNet < 250 MB.
        let rn = &t.rows[0].1;
        assert!(rn[1].unwrap() > 250.0);
        let mob = &t.rows[3].1;
        assert!(mob[1].unwrap() < 250.0);
    }

    #[test]
    fn fig1_shape_holds() {
        let t = fig1();
        assert_eq!(t.rows.len(), 44); // 256..=3008 in 64 MB steps
        let times: Vec<f64> = t.rows.iter().filter_map(|(_, v)| v[0]).collect();
        assert_eq!(times.len(), 44, "every block from 256 MB runs");
        // Monotone non-increasing (within numerical dust).
        for w in times.windows(2) {
            assert!(w[1] <= w[0] + 1e-9);
        }
        // Cost minimum strictly inside.
        let costs: Vec<f64> = t.rows.iter().filter_map(|(_, v)| v[1]).collect();
        let (imin, _) = costs
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        assert!(imin > 0 && imin < costs.len() - 1, "min at index {imin}");
    }

    #[test]
    fn table2_shape_holds() {
        let t = table2();
        let get = |r: usize, c: usize| t.rows[r].1[c].unwrap();
        // time(512)/time(1024) ≈ 2.
        let ratio = get(0, 0) / get(1, 0);
        assert!(ratio > 1.6 && ratio < 2.5, "{ratio}");
        // saturation: 2048 ≈ 3008.
        assert!((get(3, 0) - get(4, 0)).abs() < 0.2);
        // cost max at 3008.
        let c3008 = get(4, 1);
        for r in 0..4 {
            assert!(get(r, 1) < c3008);
        }
    }

    #[test]
    fn fig2_lambda_cheapest() {
        let t = fig2();
        let lam_cost = t.rows[0].1[1].unwrap();
        let s1_cost = t.rows[1].1[1].unwrap();
        let s2_cost = t.rows[2].1[1].unwrap();
        assert!(lam_cost < s1_cost / 10.0);
        assert!(s1_cost < s2_cost);
        // Sage 2 slowest by far.
        assert!(t.rows[2].1[0].unwrap() > 5.0 * t.rows[0].1[0].unwrap());
    }

    #[test]
    fn table3_shape_holds() {
        let t = table3();
        let sage1_cost = t.rows[0].1[1].unwrap();
        let sage2_cost = t.rows[1].1[1].unwrap();
        let lam512 = &t.rows[2].1;
        let lam1024 = &t.rows[3].1;
        assert!(lam512[1].unwrap() < sage1_cost);
        assert!(lam1024[1].unwrap() < sage1_cost);
        assert!(sage2_cost > sage1_cost);
        // 1024 chain ≈ half the 512 chain's time.
        let ratio = lam512[0].unwrap() / lam1024[0].unwrap();
        assert!(ratio > 1.5 && ratio < 2.6, "{ratio}");
    }
}
