//! Simulator-substrate throughput: profiling, closed-form segment
//! evaluation (the optimizer's inner loop), full platform invocations,
//! and the sharded serving engine (`BENCH_serving.json`).

use ampsinf_bench::harness::Bencher;
use ampsinf_core::{AmpsConfig, Coordinator, Optimizer};
use ampsinf_faas::platform::Platform;
use ampsinf_faas::runtime::whole_model;
use ampsinf_faas::{SmallRng, WarmPoolPolicy};
use ampsinf_model::zoo;
use ampsinf_profiler::{quick_eval_node, Profile};
use ampsinf_serving::{ArrivalShape, LoadSpec};

/// The paper's multi-partition workhorse on the open-loop engine: same
/// lane count for every variant, so the serial→8-thread ratio isolates
/// pure execution parallelism (results are bit-identical by construction).
fn bench_serving(b: &mut Bencher) {
    let g = zoo::resnet50();
    let base = AmpsConfig::default().with_serve_lanes(64);
    let plan = Optimizer::new(base.clone()).optimize(&g).unwrap().plan;

    const REQUESTS: usize = 100_000;
    let mut rng = SmallRng::seed_from_u64(97);
    let mut arrivals = Vec::with_capacity(REQUESTS);
    let mut t = 0.0f64;
    for _ in 0..REQUESTS {
        t += -rng.next_f64_open().ln() / 100.0; // 100 rps Poisson
        arrivals.push(t);
    }

    let mut dollars = Vec::new();
    for threads in [1usize, 8] {
        let coord = Coordinator::new(base.clone().with_serve_threads(threads));
        b.bench_items(
            &format!("open_loop/resnet50/100k/threads={threads}"),
            3,
            REQUESTS,
            || {
                let mut platform = coord.platform();
                let dep = coord.deploy(&mut platform, &g, &plan).unwrap();
                let trace = coord.serve_trace(platform, &dep, &arrivals);
                dollars.push(trace.dollars.to_bits());
                trace.last_completion_s
            },
        );
    }
    assert!(
        dollars.windows(2).all(|w| w[0] == w[1]),
        "thread counts disagreed on dollars"
    );

    // Pipelined stations over the same trace: stage i of request k+1
    // overlaps stage i+1 of request k, so the hot path adds per-stage
    // station bookkeeping — and must stay bit-identical across threads.
    let mut pipe_dollars = Vec::new();
    for threads in [1usize, 8] {
        let coord = Coordinator::new(base.clone().with_pipeline(2).with_serve_threads(threads));
        b.bench_items(
            &format!("open_loop/resnet50/100k/pipeline/threads={threads}"),
            3,
            REQUESTS,
            || {
                let mut platform = coord.platform();
                let dep = coord.deploy(&mut platform, &g, &plan).unwrap();
                let trace = coord.serve_trace_pipelined(platform, &dep, &arrivals);
                pipe_dollars.push(trace.dollars.to_bits());
                trace.last_completion_s
            },
        );
    }
    assert!(
        pipe_dollars.windows(2).all(|w| w[0] == w[1]),
        "pipelined thread counts disagreed on dollars"
    );

    // The bursty end of the workload space: a flash-crowd arrival shape
    // over a billed provisioned pool — the work-stealing queues see the
    // most skewed per-lane load this engine produces.
    let spike = LoadSpec::poisson(100.0, REQUESTS, 97)
        .with_shape(ArrivalShape::flash_crowd())
        .arrivals();
    let spike_coord = Coordinator::new(base.clone().with_warm_pool(WarmPoolPolicy::provisioned(2)));
    b.bench_items("open_loop/resnet50/100k/shape=spike", 3, REQUESTS, || {
        let mut platform = spike_coord.platform();
        let dep = spike_coord.deploy(&mut platform, &g, &plan).unwrap();
        let trace = spike_coord.serve_trace(platform, &dep, &spike);
        assert!(trace.idle_dollars > 0.0);
        trace.last_completion_s
    });

    // Branch-parallel DAG serving: the inception-v3 batch-64 winner (9 of
    // 11 regions parallelized, 47 nodes) through the same open-loop
    // work-stealing engine. Bit-equal dollars across thread counts is the
    // determinism contract; the single-CPU container means the threads=8
    // row measures overhead, not speedup (see BENCH_serving.json notes).
    let dag_cfg = AmpsConfig {
        batch_size: 64,
        ..AmpsConfig::default()
    }
    .with_serve_lanes(64);
    let dag_plan = Optimizer::new(dag_cfg.clone())
        .optimize_dag(&zoo::inception_v3())
        .unwrap()
        .dag
        .expect("inception_v3 at batch 64 must have a branch-parallel winner");
    let inception = zoo::inception_v3();
    let mut dag_dollars = Vec::new();
    for threads in [1usize, 8] {
        let coord = Coordinator::new(dag_cfg.clone().with_serve_threads(threads));
        b.bench_items(
            &format!("open_loop_dag/inception_v3/100k/threads={threads}"),
            3,
            REQUESTS,
            || {
                let mut platform = coord.platform();
                let dep = coord
                    .deploy_dag(&mut platform, &inception, &dag_plan)
                    .unwrap();
                let trace = coord.serve_trace(platform, &dep, &arrivals);
                dag_dollars.push(trace.dollars.to_bits());
                trace.last_completion_s
            },
        );
    }
    assert!(
        dag_dollars.windows(2).all(|w| w[0] == w[1]),
        "DAG thread counts disagreed on dollars"
    );

    // The same DAG at 4k requests: 64 lanes of ~60 requests each, so the
    // per-trace costs (forking 64 shards, settling and dropping them) weigh
    // more than in the 100k rows above. The first row passes the platform
    // by value, as the open loops do, so the shards drop unmerged; the
    // `merged` row passes `&mut platform`, so every shard's key table and
    // warm pools (47 functions, ~3k instances apiece) are appended into
    // the base platform first. The two rows differ by the merge.
    const DAG_REQUESTS: usize = 4_000;
    let coord = Coordinator::new(dag_cfg.clone().with_serve_threads(1));
    for (row, merged) in [("threads=1", false), ("merged/threads=1", true)] {
        b.bench_items(
            &format!("open_loop_dag/inception_v3/4k/{row}"),
            20,
            DAG_REQUESTS,
            || {
                let mut platform = coord.platform();
                let dep = coord
                    .deploy_dag(&mut platform, &inception, &dag_plan)
                    .unwrap();
                let arrivals = &arrivals[..DAG_REQUESTS];
                let trace = if merged {
                    coord.serve_trace(&mut platform, &dep, arrivals)
                } else {
                    coord.serve_trace(platform, &dep, arrivals)
                };
                trace.last_completion_s
            },
        );
    }

    // The per-request key-block / scratch-reuse win shows up serially: the same
    // engine, single lane, no threads — pure hot-path allocation savings.
    let seq_cfg = AmpsConfig::default();
    let seq_plan = Optimizer::new(seq_cfg.clone()).optimize(&g).unwrap().plan;
    let coord = Coordinator::new(seq_cfg.clone());
    b.bench_items("serve_sequential/resnet50/1k", 5, 1000, || {
        let mut platform = coord.platform();
        let dep = coord.deploy(&mut platform, &g, &seq_plan).unwrap();
        coord
            .serve_sequential(&mut platform, &dep, 1000, 0.0)
            .dollars
    });

    // Same closed batch through the pipelined stations: simulated
    // makespan drops to fill + (n-1) * bottleneck instead of n * chain,
    // so the throughput column moves past the sequential-chain bound.
    let pipe_coord = Coordinator::new(seq_cfg.with_pipeline(1));
    b.bench_items("serve_pipelined/resnet50/1k", 5, 1000, || {
        let mut platform = pipe_coord.platform();
        let dep = pipe_coord.deploy(&mut platform, &g, &seq_plan).unwrap();
        pipe_coord
            .serve_pipelined(&mut platform, &dep, 1000, 0.0)
            .dollars
    });
}

fn main() {
    let mut b = Bencher::new();

    for g in [zoo::mobilenet_v1(), zoo::resnet50(), zoo::inception_v3()] {
        b.bench(&format!("profile_build/{}", g.name), 20, || Profile::of(&g));
    }

    let g = zoo::resnet50();
    let profile = Profile::of(&g);
    let cfg = AmpsConfig::default();
    let n = g.num_layers();
    let (reads, writes) = profile.chain_io(n / 3, 2 * n / 3);
    b.bench("quick_eval/resnet_mid_segment", 20, || {
        quick_eval_node(
            &profile,
            n / 3,
            2 * n / 3,
            1024,
            &cfg.quotas,
            &cfg.prices,
            &cfg.perf,
            &cfg.store,
            reads,
            writes,
        )
    });

    let g = zoo::mobilenet_v1();
    let work = whole_model(&g);
    b.bench("platform/deploy_invoke_mobilenet", 20, || {
        let mut p = Platform::aws_2020();
        let spec = work.function_spec("m", 1024);
        let (fid, _) = p.deploy(spec).unwrap();
        p.invoke(fid, 0.0, &work.invocation(None, None)).unwrap()
    });

    // One invocation against a deep warm pool, in the shape a serve-chain
    // lane's pools have (ResNet-50, 100k requests at 200 rps over 64
    // lanes): ~236 sandboxes, ~41 of them busy past each arrival, Poisson
    // arrivals in order, every request warm.
    let mut p = Platform::aws_2020();
    let (fid, _) = p.deploy(work.function_spec("m", 1024)).unwrap();
    let inv = work.invocation(None, None);
    let cold_end = (0..236)
        .map(|_| p.invoke(fid, 0.0, &inv).unwrap().end)
        .fold(0.0, f64::max);
    let warm_s = p.invoke(fid, cold_end, &inv).unwrap().duration();
    let mut rng = SmallRng::seed_from_u64(41);
    let mut t = cold_end;
    let mut arrive = move || {
        t += -rng.next_f64_open().ln() * warm_s / 41.0;
        t
    };
    let mut ends = std::collections::VecDeque::new();
    for _ in 0..4000 {
        let start = arrive();
        ends.push_back(p.invoke(fid, start, &inv).unwrap().end);
        while ends.front().is_some_and(|&e| e <= start) {
            ends.pop_front();
        }
    }
    assert_eq!(p.instance_count(fid), 236, "the pool must stay warm");
    assert!((30..=55).contains(&ends.len()), "{} busy", ends.len());
    b.bench("platform/invoke/deep_pool", 20, || {
        p.invoke(fid, arrive(), &inv).unwrap().end
    });

    b.bench("zoo_build/resnet50", 20, zoo::resnet50);
    b.bench("zoo_build/inception_v3", 20, zoo::inception_v3);

    bench_serving(&mut b);

    // The recorded serving baseline lives at the repo root (same
    // convention as BENCH_optimizer.json). Override with BENCH_BASELINE.
    b.compare_with_baseline("../../BENCH_serving.json");
    b.write_json_if_requested();
}
