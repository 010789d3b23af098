//! End-to-end optimizer overhead — the paper's §5.4 "within a few seconds
//! on a laptop" claim, as a tracked benchmark.
//!
//! The thread sweep runs the large models (VGG16, quantized BERT-Base) at
//! 1, 2, and N (machine) worker threads; the deterministic merge means all
//! settings produce the identical plan, so the sweep isolates pure
//! pipeline speedup. Set `BENCH_OUT=BENCH_optimizer.json` to record the
//! baseline file.

use ampsinf_bench::harness::Bencher;
use ampsinf_core::{AmpsConfig, Optimizer, SweepGrid};
use ampsinf_model::zoo;

fn main() {
    let mut b = Bencher::new();

    for g in [
        zoo::mobilenet_v1(),
        zoo::resnet50(),
        zoo::inception_v3(),
        zoo::xception(),
    ] {
        b.bench(&format!("optimize/{}", g.name), 10, || {
            Optimizer::new(AmpsConfig::default().with_threads(1))
                .optimize(&g)
                .expect("feasible")
        });
    }

    // Pass 1 alone — cut enumeration, one column evaluation per distinct
    // segment, every cut's separable sums — the layer under a slack
    // `optimize`. The row includes building the public per-cut lists
    // `pass1` returns.
    for (g, batch) in [
        (zoo::mobilenet_v1(), 1),
        (zoo::resnet50(), 1),
        (zoo::inception_v3(), 1),
        (zoo::resnet50(), 64),
    ] {
        let opt = Optimizer::new(AmpsConfig::default().with_batch(batch).with_threads(1));
        let name = match batch {
            1 => format!("pass1/{}", g.name),
            _ => format!("pass1/{}/batch{batch}", g.name),
        };
        b.bench(&name, 10, || opt.pass1(&g).unwrap());
    }

    // SLO near the feasibility edge forces the per-cut knapsack path.
    let g = zoo::resnet50();
    let free = Optimizer::new(AmpsConfig::default()).optimize(&g).unwrap();
    let slo = free.plan.predicted_time_s * 0.9;
    b.bench("optimize_slo/resnet50_tight", 10, || {
        Optimizer::new(AmpsConfig::default().with_slo(slo).with_threads(1))
            .optimize(&g)
            .expect("feasible")
    });

    // Thread sweep on the models with the largest cut spaces, quantized to
    // int8. Even at 1 byte/param VGG16's fc1 (~103 MB) exceeds the 2020
    // deployment weight budget (250 MB cap − 169 MB deps − 1 MB code), so
    // the VGG16 rows run under a lifted 512 MB package cap; BERT fits the
    // stock quotas. A tight SLO adds pass 2's knapsack solves; without
    // one, pass 1 is the whole chain plan.
    let machine = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut sweep = vec![1usize, 2, machine];
    sweep.sort_unstable();
    sweep.dedup();
    let mut vgg_cfg = AmpsConfig::default();
    vgg_cfg.quotas.deploy_limit_mb = 512;
    for (g, base) in [
        (zoo::vgg16().quantized(1), vgg_cfg),
        (zoo::bert_base().quantized(1), AmpsConfig::default()),
    ] {
        let free = Optimizer::new(base.clone().with_threads(1))
            .optimize(&g)
            .expect("feasible");
        // Tightest feasible SLO from a descending ladder — a model whose
        // optimum is a single partition (quantized VGG16) has no headroom
        // below its free-run time, so 0.9x can be infeasible.
        let slo = [0.9, 0.95, 0.99, 1.05]
            .iter()
            .map(|f| free.plan.predicted_time_s * f)
            .find(|&s| {
                Optimizer::new(base.clone().with_slo(s).with_threads(1))
                    .optimize(&g)
                    .is_ok()
            })
            .expect("slack SLO is feasible");
        for &t in &sweep {
            b.bench(&format!("optimize/{}/threads={t}", g.name), 5, || {
                Optimizer::new(base.clone().with_threads(t))
                    .optimize(&g)
                    .expect("feasible")
            });
            b.bench(&format!("optimize_slo/{}/threads={t}", g.name), 5, || {
                Optimizer::new(base.clone().with_slo(slo).with_threads(t))
                    .optimize(&g)
                    .expect("feasible")
            });
        }
    }

    // Amortized grid planning vs N cold solves: the 16-point ResNet-50
    // sweep against 16 independent optimize() calls. Both rows run at 1
    // thread so the ratio isolates the shared pass 1, not parallelism;
    // each sweep point runs the same pass 2 as its cold call.
    let g = zoo::resnet50();
    let free = Optimizer::new(AmpsConfig::default().with_threads(1))
        .optimize(&g)
        .expect("feasible");
    let t = free.plan.predicted_time_s;
    let grid = SweepGrid::slo_range(t * 0.9, t * 1.5, 16);
    b.bench("sweep/resnet50/16pt", 5, || {
        Optimizer::new(AmpsConfig::default().with_threads(1)).optimize_sweep(&g, &grid)
    });
    b.bench("sweep/resnet50/16pt_cold", 5, || {
        grid.slos
            .iter()
            .map(|&s| {
                Optimizer::new(AmpsConfig::default().with_slo(s).with_threads(1)).optimize(&g)
            })
            .collect::<Vec<_>>()
    });

    // Branch-parallel DAG planning (chain incumbent + fork/join candidate
    // evaluation + spine polish) on Inception-v3 at batch 64 under the
    // chain's own free-running latency as SLO — the ext-branches scenario,
    // where the DAG actually wins.
    let g = zoo::inception_v3();
    let base = AmpsConfig::default().with_batch(64);
    let free = Optimizer::new(base.clone().with_threads(1))
        .optimize(&g)
        .expect("feasible");
    let slo = free.plan.predicted_time_s;
    b.bench("optimize_dag/inception_v3/batch64", 5, || {
        Optimizer::new(base.clone().with_slo(slo).with_threads(1))
            .optimize_dag(&g)
            .expect("feasible")
    });

    // Amortized chain-vs-DAG grid: 16 SLO points against the same shared
    // pass-1 columns, region candidates and node/spine memos. At 1 thread
    // the row isolates memo sharing across points, not parallelism.
    let dag_grid = SweepGrid::slo_range(slo * 0.9, slo * 1.5, 16);
    b.bench("optimize_dag_sweep/inception_v3/16pt", 5, || {
        Optimizer::new(base.clone().with_threads(1)).optimize_dag_sweep(&g, &dag_grid)
    });

    // The adaptive-faults workload's planning, ResNet-50 at batch 64: the
    // unconstrained chain plan its SLO tiers scale from, and the adaptive
    // controller's chain-vs-DAG sweep over the tiers (1.0, 1.2 and 1.5x
    // that plan's time), which every serving operation of it runs.
    let g = zoo::resnet50();
    let base = AmpsConfig::default().with_batch(64).with_threads(1);
    b.bench("optimize/resnet50/batch64", 10, || {
        Optimizer::new(base.clone()).optimize(&g).expect("feasible")
    });
    let free = Optimizer::new(base.clone())
        .optimize(&g)
        .expect("feasible")
        .plan
        .predicted_time_s;
    // One cold chain-vs-DAG plan at that time as its SLO: ResNet-50's
    // region search, the adaptive controller's tier-1.0 point alone.
    b.bench("optimize_dag/resnet50/batch64", 10, || {
        Optimizer::new(base.clone().with_slo(free))
            .optimize_dag(&g)
            .expect("feasible")
    });
    let tiers = SweepGrid::from_slos([1.0, 1.2, 1.5].iter().map(|f| f * free).collect());
    b.bench("optimize_dag_sweep/resnet50/batch64/3pt", 10, || {
        Optimizer::new(base.clone()).optimize_dag_sweep(&g, &tiers)
    });

    // Bench targets run from the package directory; the committed baseline
    // lives at the repo root. Override with BENCH_BASELINE=<path>.
    b.compare_with_baseline("../../BENCH_optimizer.json");
    b.write_json_if_requested();
}
