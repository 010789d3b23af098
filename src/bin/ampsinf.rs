//! `ampsinf` — the AMPS-Inf command-line front end (the paper's Fig. 3
//! workflow: pre-trained model in, optimal configuration out, optional
//! deployment + serving on the simulated platform).
//!
//! ```text
//! ampsinf models
//! ampsinf summary resnet50
//! ampsinf plan resnet50 [--slo 20] [--batch 10] [--quota-2021]
//!                       [--tolerance 0.1] [--quantize 2] [--json out.json]
//! ampsinf sweep resnet50 --slo-from 10 --slo-to 40 --points 16 [--batches 1,8,32]
//!                        [--batch 8] [--quantize 1]
//! ampsinf serve resnet50 [--images 10] [--parallel] [--slo 20]
//! ampsinf serve resnet50 --requests 1000 --rate 50 --threads 8
//! ampsinf plan model.json          # any serialized LayerGraph file
//! ```

use amps_inf::core::baselines;
use amps_inf::core::sweep::SweepGrid;
use amps_inf::faas::WarmPoolPolicy;
use amps_inf::model::summary::ModelSummary;
use amps_inf::prelude::*;
use amps_inf::serving::{
    run_adaptive_loop, run_adaptive_loop_dag, run_open_loop_dag, AdaptiveSpec, ArrivalShape,
    LoadSpec,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = run(&args);
    std::process::exit(code);
}

fn run(args: &[String]) -> i32 {
    let Some(cmd) = args.first() else {
        usage();
        return 2;
    };
    // Every command but `models` takes one model argument.
    if let Err(e) = check_flags(&args[1..], usize::from(cmd != "models")) {
        return fail(&e);
    }
    match cmd.as_str() {
        "models" => {
            for name in [
                "mobilenet",
                "resnet50",
                "inception_v3",
                "xception",
                "vgg16",
                "vgg19",
                "bert_base",
            ] {
                let g = zoo::by_name(name).expect("zoo model");
                println!(
                    "{:<14} {:>10} params  {:>7.1} MB  {:>4} layers",
                    name,
                    g.total_params(),
                    g.weight_bytes() as f64 / 1024.0 / 1024.0,
                    g.num_layers()
                );
            }
            0
        }
        "summary" => match load_model(args.get(1)) {
            Ok(g) => {
                print!("{}", ModelSummary::of(&g).render());
                0
            }
            Err(e) => fail(&e),
        },
        "plan" => match (load_model(args.get(1)), parse_cfg(&args[1..])) {
            (Ok(mut g), Ok((cfg, quantize, json_out))) => {
                quantize_model(&mut g, quantize);
                if args.iter().any(|a| a == "--dag") {
                    if cfg.pipeline_depth > 0 {
                        return fail(
                            "--dag and --pipeline are incompatible in plan mode: the joint \
                             pipelined planner balances the stages of a chain, while --dag \
                             fans branch regions out as concurrent nodes; pick one",
                        );
                    }
                    return plan_dag(&g, cfg, args, json_out);
                }
                let verbose = args.iter().any(|a| a == "--verbose");
                match Optimizer::new(cfg.clone()).optimize(&g) {
                    Ok(r) => {
                        println!("{}", r.plan);
                        print_fault_plan(&cfg);
                        println!(
                            "searched {} cuts, {} MIQPs, {:?} ({} threads: eval {:?}, miqp {:?})",
                            r.cuts_considered,
                            r.miqps_solved,
                            r.solve_time,
                            r.threads_used,
                            r.pass1_time,
                            r.pass2_time
                        );
                        if verbose {
                            print_solver_stats(&r);
                        }
                        if let Some(b3) = baselines::b3_optimal(&g, &cfg) {
                            println!(
                                "exhaustive optimum for reference: {:.2}s ${:.6}",
                                b3.predicted_time_s, b3.predicted_cost
                            );
                        }
                        let profile = Profile::of(&g);
                        if let Some(b4) = baselines::b4_bucket_scan(&g, &cfg, r.plan.num_lambdas())
                        {
                            let lowered = DagPlan::from_chain(&b4, |k| profile.output_bytes(k));
                            let bottleneck = baselines::dag_node_times(&profile, &lowered, &cfg)
                                .map(|t| t.into_iter().fold(0.0f64, f64::max))
                                .unwrap_or(f64::NAN);
                            println!(
                                "pipeserve bucket-scan for reference: {} stage(s), {:.2}s \
                                 ${:.6}, bottleneck {:.3}s",
                                b4.num_lambdas(),
                                b4.predicted_time_s,
                                b4.predicted_cost,
                                bottleneck
                            );
                        }
                        if cfg.pipeline_depth > 0 {
                            // Joint batch–partition planning against the
                            // pipelined (bottleneck-bound) makespan.
                            let slo = cfg.slo_s.unwrap_or(1e9);
                            let grid =
                                SweepGrid::from_slos(vec![slo]).with_batches(vec![cfg.batch_size]);
                            let rep = Optimizer::new(cfg.clone()).optimize_pipelined(&g, &grid);
                            match &rep.points[0].outcome {
                                Ok(pp) => {
                                    println!("pipelined plan: {pp}");
                                    let stages: Vec<String> = pp
                                        .stage_times_s
                                        .iter()
                                        .map(|t| format!("{t:.3}s"))
                                        .collect();
                                    println!(
                                        "  stage times: [{}] (fill {:.2}s, steady-state \
                                         makespan(n) = fill + (n-1) x {:.3}s)",
                                        stages.join(", "),
                                        pp.stage_times_s.iter().sum::<f64>(),
                                        pp.bottleneck_s
                                    );
                                }
                                Err(e) => println!("pipelined plan: {e}"),
                            }
                        }
                        if let Some(path) = json_out {
                            if let Err(e) = std::fs::write(&path, r.plan.to_json()) {
                                return fail(&format!("writing {path}: {e}"));
                            }
                            println!("plan written to {path}");
                        }
                        0
                    }
                    Err(e) => fail(&format!("optimization failed: {e}")),
                }
            }
            (Err(e), _) | (_, Err(e)) => fail(&e),
        },
        "sweep" => match (load_model(args.get(1)), parse_cfg(&args[1..])) {
            (Ok(mut g), Ok((cfg, quantize, _))) => {
                if cfg.pipeline_depth > 0 {
                    return fail(
                        "sweep plans no pipelined grid; plan --pipeline chooses one \
                         pipelined plan at one SLO",
                    );
                }
                if cfg.slo_s.is_some() {
                    return fail("sweep takes its SLOs from --slo-from/--slo-to, not --slo");
                }
                quantize_model(&mut g, quantize);
                if args.iter().any(|a| a == "--dag") {
                    return run_dag_sweep(&g, cfg, args);
                }
                run_sweep(&g, cfg, args)
            }
            (Err(e), _) | (_, Err(e)) => fail(&e),
        },
        "serve" => match (load_model(args.get(1)), parse_cfg(&args[1..])) {
            (Ok(g), Ok((cfg, _, _))) => serve(&g, cfg, args),
            (Err(e), _) | (_, Err(e)) => fail(&e),
        },
        _ => {
            usage();
            2
        }
    }
}

/// Narrows the model's weights to `bytes` per parameter (`--quantize`), if
/// given, and says so.
fn quantize_model(g: &mut LayerGraph, quantize: Option<u64>) {
    if let Some(bytes) = quantize {
        *g = g.quantized(bytes);
        println!(
            "quantized weights to {} bits: {:.1} MB",
            bytes * 8,
            g.weight_bytes() as f64 / 1024.0 / 1024.0
        );
    }
}

/// `plan --dag`: chain-vs-DAG comparison. Runs the standard chain
/// optimization, then evaluates branch-parallel candidates over the
/// graph's fork/join regions with every scatter/gather request fee and
/// storage lifetime billed; a DAG is reported only when it beats the
/// chain incumbent under the paper's selection rule.
fn plan_dag(g: &LayerGraph, cfg: AmpsConfig, args: &[String], json_out: Option<String>) -> i32 {
    let verbose = args.iter().any(|a| a == "--verbose");
    match Optimizer::new(cfg.clone()).optimize_dag(g) {
        Ok(r) => {
            let chain = &r.chain.plan;
            println!("chain incumbent: {chain}");
            print_fault_plan(&cfg);
            println!(
                "searched {} cuts, {} MIQPs, {:?} ({} threads); {} branch region(s) considered",
                r.chain.cuts_considered,
                r.chain.miqps_solved,
                r.chain.solve_time,
                r.chain.threads_used,
                r.regions_considered
            );
            if verbose {
                print_solver_stats(&r.chain);
                print_dag_search_stats(&r.search);
            }
            match &r.dag {
                Some(dag) => {
                    println!("dag plan: {dag}");
                    let bytes: u64 = dag.objects.iter().map(|o| o.bytes).sum();
                    let gets: usize = dag.objects.iter().map(|o| o.consumers.len()).sum();
                    println!(
                        "  {} of {} region(s) parallelized, width {}; {} checkpoint \
                         object(s) ({:.1} MB): {} put(s), {} get(s) billed per request",
                        r.regions_used,
                        r.regions_considered,
                        dag.width(),
                        dag.objects.len(),
                        bytes as f64 / 1024.0 / 1024.0,
                        dag.objects.len(),
                        gets
                    );
                    println!(
                        "  critical path {:.4}s vs chain {:.4}s ({:+.2}%); \
                         cost ${:.6} vs ${:.6} ({:+.2}%)",
                        dag.predicted_time_s,
                        chain.predicted_time_s,
                        100.0 * (dag.predicted_time_s / chain.predicted_time_s - 1.0),
                        dag.predicted_cost,
                        chain.predicted_cost,
                        100.0 * (dag.predicted_cost / chain.predicted_cost - 1.0)
                    );
                }
                None => println!(
                    "no branch plan beats the chain at this SLO/batch point \
                     ({} region(s) considered); the chain incumbent stands",
                    r.regions_considered
                ),
            }
            if let Some(path) = json_out {
                let json = match &r.dag {
                    Some(d) => d.to_json(),
                    None => chain.to_json(),
                };
                if let Err(e) = std::fs::write(&path, json) {
                    return fail(&format!("writing {path}: {e}"));
                }
                println!("plan written to {path}");
            }
            0
        }
        Err(e) => fail(&format!("optimization failed: {e}")),
    }
}

/// `serve`: plan, deploy and serve on the one engine. `--requests` runs
/// an open-loop load ([`serve_load`]); otherwise `--images` requests run
/// as a batch — one request, `--parallel` (all at t = 0), `--pipeline`
/// (stage-overlapped stations) or one after another. `--dag` only picks
/// the planner ([`plan_for_serving`]).
fn serve(g: &LayerGraph, cfg: AmpsConfig, args: &[String]) -> i32 {
    let parallel = args.iter().any(|a| a == "--parallel");
    if cfg.pipeline_depth > 0 && parallel {
        return fail(
            "--pipeline and --parallel are mutually exclusive: --parallel \
             fans whole requests out with unbounded concurrency, --pipeline \
             overlaps stages under per-stage station budgets; pick one",
        );
    }
    if flag_value(args, "--requests").is_some() {
        return serve_load(g, cfg, args);
    }
    let images = match flag_value(args, "--images") {
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => return fail(&format!("bad --images value {v} (need a positive integer)")),
        },
        None => 1,
    };
    let plan = match plan_for_serving(g, &cfg, args) {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    print_fault_plan(&cfg);
    let coord = Coordinator::new(cfg);
    let mut platform = coord.platform();
    let dep = match coord.deploy_dag(&mut platform, g, &plan) {
        Ok(d) => d,
        Err(e) => return fail(&format!("deploy: {e}")),
    };
    let (time, mut dollars) = if images == 1 {
        let job = match coord.serve_one(&mut platform, &dep, 0.0, "cli") {
            Ok(j) => j,
            Err(e) => return fail(&format!("serve: {e}")),
        };
        println!(
            "deploy {:.2}s  load {:.2}s  predict {:.2}s  {} {:.2}s",
            job.deploy_s,
            job.load_s,
            job.predict_s,
            if plan.is_chain() {
                "chain"
            } else {
                "critical path"
            },
            job.inference_s
        );
        print_reliability(job.retries.len(), 0, job.wasted_s, job.wasted_dollars);
        (job.e2e_s, job.dollars)
    } else if coord.config().pipeline_depth > 0 {
        let p = coord.serve_pipelined(&mut platform, &dep, images, 0.0);
        println!(
            "pipeline: {} succeeded, {} failed over {} station(s)/stage",
            p.requests.len() - p.failed,
            p.failed,
            p.stats.stations_per_stage
        );
        let utils: Vec<String> = p
            .stats
            .stage_utilization()
            .iter()
            .map(|u| format!("{:.0}%", u * 100.0))
            .collect();
        println!(
            "pipeline: utilization {:.1}% [{}], stall {:.2}s, warm idle {:.2}s",
            p.stats.utilization() * 100.0,
            utils.join(", "),
            p.stats.stall_s(),
            p.warm_idle_s
        );
        (p.e2e_s, p.dollars)
    } else {
        let b = if parallel {
            coord.serve_parallel(&mut platform, &dep, images, 0.0)
        } else {
            coord.serve_sequential(&mut platform, &dep, images, 0.0)
        };
        println!("batch: {} succeeded, {} failed", b.succeeded(), b.failed());
        for f in &b.failures {
            println!("  image {}: {}", f.image, f.error);
        }
        let retries: usize = b.jobs.iter().map(|j| j.retries.len()).sum();
        print_reliability(retries, b.failed(), b.wasted_s, b.wasted_dollars);
        (b.e2e_s, b.dollars)
    };
    dollars += platform.settle_storage(time);
    println!(
        "{} image(s){}: {:.2}s end-to-end, ${:.6}",
        images,
        if parallel { " in parallel" } else { "" },
        time,
        dollars
    );
    0
}

/// The plan `serve` deploys, printed: with `--dag`, [`plan_dag`]'s
/// chain-vs-DAG objective (the chain incumbent when no branch plan
/// wins); otherwise the chain optimum, or under `--pipeline` the joint
/// planner's stage-balanced chain. Chains lower through
/// [`DagPlan::from_chain`].
fn plan_for_serving(g: &LayerGraph, cfg: &AmpsConfig, args: &[String]) -> Result<DagPlan, String> {
    let failed = |e| format!("optimization failed: {e}");
    if !args.iter().any(|a| a == "--dag") {
        let planned = Optimizer::new(cfg.clone()).optimize(g).map_err(failed)?;
        let plan = pipeline_plan_or(g, cfg, planned.plan)?;
        println!("{plan}");
        return Ok(DagPlan::from_chain(&plan, |e| g.cut_transfer_bytes(e)));
    }
    let report = Optimizer::new(cfg.clone())
        .optimize_dag(g)
        .map_err(failed)?;
    Ok(match report.dag {
        Some(d) => {
            println!(
                "dag plan ({} of {} region(s) parallelized): {d}",
                report.regions_used, report.regions_considered
            );
            d
        }
        None => {
            println!(
                "no branch plan beats the chain here ({} region(s) considered); \
                 serving the chain incumbent",
                report.regions_considered
            );
            println!("{}", report.chain.plan);
            DagPlan::from_chain(&report.chain.plan, |e| g.cut_transfer_bytes(e))
        }
    })
}

/// Per-node busy/stall/occupancy/critical-path table for `--verbose`
/// DAG runs — where the plan's width actually went.
fn print_dag_node_stats(stats: &DagNodeStats, plan: &DagPlan) {
    // The pipelined engine's stations genuinely bound per-node
    // concurrency, so the utilization column is an occupancy percentage;
    // the sequential engine scales instances out on demand and reports
    // mean concurrency instead.
    let bounded = stats.stations_per_node > 0;
    if bounded {
        println!(
            "nodes ({} station(s)/node over {:.1}s span):",
            stats.stations_per_node, stats.span_s
        );
    } else {
        println!(
            "nodes (scale-out on demand over {:.1}s span):",
            stats.span_s
        );
    }
    println!(
        "  {:>4}  {:>12}  {:>10}  {:>10}  {:>9}  {:>9}",
        "node",
        "layers",
        "busy(s)",
        "stall(s)",
        if bounded { "occupancy" } else { "mean-conc" },
        "critical"
    );
    for (i, n) in plan.nodes.iter().enumerate() {
        let util = if bounded {
            format!("{:>8.1}%", stats.occupancy(i) * 100.0)
        } else {
            format!("{:>8.1}x", stats.mean_concurrency(i))
        };
        println!(
            "  {:>4}  {:>12}  {:>10.2}  {:>10.2}  {util}  {:>8.1}%",
            i,
            format!("L{}..L{}", n.start, n.end),
            stats.busy_s[i],
            stats.stall_s[i],
            stats.critical_share(i) * 100.0
        );
    }
}

/// Parses a `--policy` spec: `default`, `zero`, `prewarm:N`,
/// `provisioned:N` or `keepalive:SECONDS`.
fn parse_policy(spec: &str) -> Result<WarmPoolPolicy, String> {
    let lower = spec.to_ascii_lowercase();
    let (name, arg) = match lower.split_once(':') {
        Some((n, a)) => (n, Some(a)),
        None => (lower.as_str(), None),
    };
    let count = |a: Option<&str>| -> Result<usize, String> {
        a.ok_or_else(|| format!("--policy {name} needs a count, e.g. {name}:4"))?
            .parse::<usize>()
            .map_err(|_| format!("bad --policy count in '{spec}'"))
    };
    match name {
        "default" | "lambda" => Ok(WarmPoolPolicy::lambda_default()),
        "zero" | "scale-to-zero" => Ok(WarmPoolPolicy::scale_to_zero()),
        "prewarm" | "pre-warm" => {
            let mut p = WarmPoolPolicy::lambda_default();
            p.pre_warm = count(arg)?;
            Ok(p)
        }
        "provisioned" => Ok(WarmPoolPolicy::provisioned(count(arg)?)),
        "keepalive" | "keep-alive" => {
            let s: f64 = arg
                .ok_or_else(|| "--policy keepalive needs seconds, e.g. keepalive:60".to_string())?
                .parse()
                .map_err(|_| format!("bad --policy keep-alive seconds in '{spec}'"))?;
            if s.is_nan() || s < 0.0 {
                return Err(format!("--policy keep-alive seconds must be >= 0, got {s}"));
            }
            Ok(WarmPoolPolicy::keep_alive(s))
        }
        _ => Err(format!(
            "unknown --policy '{spec}' \
             (try default, zero, prewarm:N, provisioned:N or keepalive:S)"
        )),
    }
}

/// Under `--pipeline`, replace the sequential optimum with the joint
/// planner's stage-balanced plan (minimum bottleneck within
/// `cost_tolerance` of the sequential cost floor); otherwise keep `seq`.
fn pipeline_plan_or(
    g: &LayerGraph,
    cfg: &AmpsConfig,
    seq: ExecutionPlan,
) -> Result<ExecutionPlan, String> {
    if cfg.pipeline_depth == 0 {
        return Ok(seq);
    }
    let grid =
        SweepGrid::from_slos(vec![cfg.slo_s.unwrap_or(1e9)]).with_batches(vec![cfg.batch_size]);
    let rep = Optimizer::new(cfg.clone()).optimize_pipelined(g, &grid);
    match rep.points.into_iter().next().map(|p| p.outcome) {
        Some(Ok(pp)) => {
            println!(
                "pipelined planning: bottleneck {:.3}s, imbalance {:.2} \
                 (stage-balanced within cost tolerance of the sequential optimum)",
                pp.bottleneck_s,
                pp.imbalance()
            );
            Ok(pp.plan)
        }
        Some(Err(e)) => Err(format!("pipelined planning failed: {e}")),
        None => Ok(seq),
    }
}

/// Open-loop load mode (`serve --requests M --rate R`): shaped arrivals
/// against the planned deployment on the work-stealing serving engine,
/// with a throughput / percentile summary instead of per-image reports.
/// `--adaptive` swaps plans between epochs (chains, or with `--dag`
/// *effective* plans: chain or DAG per SLO tier), and `--verbose` prints
/// the per-node busy/stall/occupancy/critical-path table.
fn serve_load(g: &LayerGraph, cfg: AmpsConfig, args: &[String]) -> i32 {
    let requests = match flag_value(args, "--requests").unwrap().parse::<usize>() {
        Ok(n) if n > 0 => n,
        _ => return fail("bad --requests value (need a positive integer)"),
    };
    let rate = match flag_value(args, "--rate") {
        Some(v) => match v.parse::<f64>() {
            Ok(r) if r > 0.0 && r.is_finite() => r,
            _ => {
                return fail(&format!(
                    "bad --rate value {v} (need a positive, finite number of requests per second)"
                ))
            }
        },
        None => 1.0,
    };
    let lanes = match flag_value(args, "--lanes") {
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n > 0 => n,
            Ok(_) => {
                return fail(
                    "--lanes 0 is invalid: the serving engine needs at least one \
                     warm-pool shard (lanes are a model parameter; see --help)",
                )
            }
            Err(_) => return fail(&format!("bad --lanes value {v}")),
        },
        None => 64,
    };
    // `--threads` drives both the optimizer and the serving workers here;
    // serving results are thread-invariant either way (DESIGN.md §6c).
    let threads = cfg.threads;
    if threads > lanes {
        return fail(&format!(
            "--threads {threads} exceeds --lanes {lanes}: a lane never splits \
             across threads, so workers are clamped to the lane count and the \
             extra threads would sit idle; lower --threads or raise --lanes"
        ));
    }
    let shape = match flag_value(args, "--shape") {
        Some(v) => match ArrivalShape::parse(v) {
            Ok(s) => s,
            Err(e) => return fail(&e),
        },
        None => ArrivalShape::Constant,
    };
    let policy = match flag_value(args, "--policy") {
        Some(v) => match parse_policy(v) {
            Ok(p) => p,
            Err(e) => return fail(&e),
        },
        None => WarmPoolPolicy::lambda_default(),
    };
    let verbose = args.iter().any(|a| a == "--verbose");
    let cfg = cfg
        .with_serve_lanes(lanes)
        .with_serve_threads(threads)
        .with_warm_pool(policy);
    let load = LoadSpec::poisson(rate, requests, 0).with_shape(shape);

    if cfg.pipeline_depth > 0 && args.iter().any(|a| a == "--adaptive") {
        return fail(
            "--pipeline and --adaptive are mutually exclusive: pipeline stations \
             are bound to one plan's stages, and the adaptive controller switches \
             plans between epochs; drop one of the flags",
        );
    }
    let adaptive = if args.iter().any(|a| a == "--adaptive") {
        let tiers = match flag_value(args, "--slo-tiers") {
            Some(v) => {
                let parsed: Result<Vec<f64>, _> =
                    v.split(',').map(|s| s.trim().parse::<f64>()).collect();
                match parsed {
                    Ok(t) if !t.is_empty() && t.iter().all(|s| s.is_finite() && *s > 0.0) => t,
                    _ => {
                        return fail(&format!(
                            "bad --slo-tiers value {v} \
                             (need comma-separated positive seconds)"
                        ))
                    }
                }
            }
            None => return fail("--adaptive requires --slo-tiers <s1,s2,...>"),
        };
        let epoch = match flag_value(args, "--epoch") {
            Some(v) => match v.parse::<usize>() {
                Ok(n) if n >= 1 => n,
                _ => return fail(&format!("bad --epoch value {v} (need a positive integer)")),
            },
            None => 64,
        };
        Some(AdaptiveSpec::new(epoch, tiers))
    } else {
        None
    };

    let dag = args.iter().any(|a| a == "--dag");
    let mut plan = None;
    let run = match &adaptive {
        Some(adaptive) if dag => run_adaptive_loop_dag(g, &cfg, &load, adaptive),
        Some(adaptive) => run_adaptive_loop(g, &cfg, &load, adaptive),
        None => {
            let p = match plan_for_serving(g, &cfg, args) {
                Ok(p) => p,
                Err(e) => return fail(&e),
            };
            print_fault_plan(&cfg);
            let run = run_open_loop_dag(g, &p, &cfg, &load);
            plan = Some(p);
            run
        }
    };
    let rep = match run {
        Ok(r) => r,
        Err(e) if adaptive.is_some() => return fail(&format!("adaptive load run: {e}")),
        Err(e) => return fail(&format!("load run: {e}")),
    };

    println!(
        "load: {requests} request(s) at {rate:.1} rps ({} arrivals) over {lanes} lane(s), \
         {} worker thread(s)",
        rep.shape,
        if threads == 0 {
            "auto".to_string()
        } else {
            threads.to_string()
        }
    );
    println!(
        "latency: p50 {:.3}s  p95 {:.3}s  p99 {:.3}s  over {} success(es)",
        rep.percentile(50.0),
        rep.percentile(95.0),
        rep.percentile(99.0),
        rep.latencies_s.len()
    );
    let served = rep.latencies_s.len() as f64;
    println!(
        "throughput: {:.2} req/s over {:.1}s simulated makespan",
        if rep.makespan_s > 0.0 {
            served / rep.makespan_s
        } else {
            0.0
        },
        rep.makespan_s
    );
    println!(
        "platform: {} cold start(s) over {} invocation(s) ({:.1}% cold), \
         peak {} instance(s)",
        rep.cold_starts,
        rep.invocations,
        rep.cold_start_rate() * 100.0,
        rep.peak_instances
    );
    println!(
        "warm pool: policy {}, {} pre-warmed instance(s), {:.1}s idle \
         (${:.6} billed)",
        rep.policy, rep.pre_warmed, rep.idle_s, rep.idle_dollars
    );
    if cfg.pipeline_depth > 0 {
        let utils: Vec<String> = rep
            .stage_utilization
            .iter()
            .map(|u| format!("{:.0}%", u * 100.0))
            .collect();
        println!(
            "pipeline: depth {} station(s)/stage/lane, utilization {:.1}% [{}], \
             stall {:.2}s",
            cfg.pipeline_depth,
            rep.pipeline_utilization * 100.0,
            utils.join(", "),
            rep.stall_s
        );
    }
    if verbose {
        if let (Some(stats), Some(plan)) = (&rep.dag_nodes, &plan) {
            print_dag_node_stats(stats, plan);
        }
    }
    if adaptive.is_some() || verbose {
        println!(
            "plan cache: {} hit(s), {} miss(es), {} re-plan(s)",
            rep.plan_hits, rep.plan_misses, rep.replans
        );
    }
    if rep.failures > 0 {
        println!(
            "reliability: {} request(s) exhausted retries \
             (excluded from percentiles, still billed)",
            rep.failures
        );
    }
    println!("total ${:.6}", rep.dollars);
    0
}

/// Parses the grid flags shared by `sweep` and `sweep --dag`:
/// `--slo-from`, `--slo-to`, `--points` (all required) and `--batches`
/// (default: `batch`, the `--batch` value).
fn parse_grid(args: &[String], batch: u64) -> Result<SweepGrid, String> {
    let from = match flag_value(args, "--slo-from").map(str::parse::<f64>) {
        Some(Ok(v)) if v.is_finite() && v > 0.0 => v,
        Some(_) => return Err("bad --slo-from value (need a positive number of seconds)".into()),
        None => return Err("sweep requires --slo-from <seconds>".into()),
    };
    let to = match flag_value(args, "--slo-to").map(str::parse::<f64>) {
        Some(Ok(v)) if v.is_finite() && v >= from => v,
        Some(_) => return Err("bad --slo-to value (need seconds >= --slo-from)".into()),
        None => return Err("sweep requires --slo-to <seconds>".into()),
    };
    let points = match flag_value(args, "--points").map(str::parse::<usize>) {
        Some(Ok(n)) if n >= 1 => n,
        Some(_) => return Err("bad --points value (need a positive integer)".into()),
        None => return Err("sweep requires --points <n>".into()),
    };
    let batches = match flag_value(args, "--batches") {
        Some(v) => {
            let parsed: Result<Vec<u64>, _> =
                v.split(',').map(|s| s.trim().parse::<u64>()).collect();
            match parsed {
                Ok(b) if !b.is_empty() && b.iter().all(|&x| x >= 1) => b,
                _ => {
                    return Err(format!(
                        "bad --batches value {v} (need comma-separated positive integers)"
                    ))
                }
            }
        }
        None => vec![batch],
    };
    Ok(SweepGrid::slo_range(from, to, points).with_batches(batches))
}

/// `sweep` mode: plan an entire SLO × batch grid in one amortized call
/// and print the per-batch Pareto frontier (knee flagged) plus the cache
/// amortization summary.
fn run_sweep(g: &LayerGraph, cfg: AmpsConfig, args: &[String]) -> i32 {
    let grid = match parse_grid(args, cfg.batch_size) {
        Ok(g) => g,
        Err(e) => return fail(&e),
    };

    let verbose = args.iter().any(|a| a == "--verbose");
    let report = Optimizer::new(cfg).optimize_sweep(g, &grid);

    println!(
        "sweep: {} point(s) ({} SLO x {} batch), {} solved",
        report.points.len(),
        grid.slos.len(),
        grid.batches.len(),
        report.solved()
    );
    println!(
        "{:>3} {:>6} {:>10} {:>10} {:>12} {:>4}  {:<10} {:>9}",
        "#", "batch", "slo(s)", "time(s)", "cost($)", "fns", "frontier", "cache h/m"
    );
    for (i, p) in report.points.iter().enumerate() {
        match &p.outcome {
            Ok(plan) => {
                let marker = if p.knee {
                    "knee *"
                } else if p.dominated {
                    "dominated"
                } else {
                    "pareto"
                };
                println!(
                    "{i:>3} {:>6} {:>10.3} {:>10.3} {:>12.6} {:>4}  {:<10} {:>5}/{}",
                    p.batch,
                    p.slo_s,
                    plan.predicted_time_s,
                    plan.predicted_cost,
                    plan.num_lambdas(),
                    marker,
                    p.stats.cache_hits,
                    p.stats.cache_misses
                );
            }
            Err(e) => println!("{i:>3} {:>6} {:>10.3}  {e}", p.batch, p.slo_s),
        }
        if verbose {
            println!(
                "      solver: {} knapsack solve(s), {} LP-pruned, {:?}",
                p.stats.miqps_solved, p.stats.miqps_pruned, p.stats.solve_time
            );
        }
    }
    println!(
        "columns: {} cache hits, {} misses cumulative (shared pass 1: {:?})",
        report.cache_hits, report.cache_misses, report.pass1_time
    );
    println!(
        "planned {} point(s) over {} cut(s) in {:?} on {} thread(s)",
        report.points.len(),
        report.cuts_considered,
        report.total_time,
        report.threads_used
    );
    0
}

/// `sweep --dag` mode: amortized chain-vs-DAG planning over the SLO ×
/// batch grid. Segment columns, branch-region candidates and the
/// node/spine memos are shared across every point of a batch; the table
/// prints both verdicts per point, and the frontier/knee marks apply to
/// each point's *effective* plan (the DAG when it won, else the chain).
fn run_dag_sweep(g: &LayerGraph, cfg: AmpsConfig, args: &[String]) -> i32 {
    let grid = match parse_grid(args, cfg.batch_size) {
        Ok(g) => g,
        Err(e) => return fail(&e),
    };
    let verbose = args.iter().any(|a| a == "--verbose");
    let report = Optimizer::new(cfg).optimize_dag_sweep(g, &grid);

    println!(
        "dag sweep: {} point(s) ({} SLO x {} batch), {} solved, {} DAG win(s) \
         over {} branch region(s)",
        report.points.len(),
        grid.slos.len(),
        grid.batches.len(),
        report.solved(),
        report.dag_wins(),
        report.regions_considered
    );
    println!(
        "{:>3} {:>6} {:>10} {:>10} {:>12} {:>10} {:>12} {:>5}  {:<10}",
        "#", "batch", "slo(s)", "chain(s)", "chain($)", "dag(s)", "dag($)", "win", "frontier"
    );
    for (i, p) in report.points.iter().enumerate() {
        match &p.outcome {
            Ok(plan) => {
                let marker = if p.knee {
                    "knee *"
                } else if p.dominated {
                    "dominated"
                } else {
                    "pareto"
                };
                match &p.dag {
                    Some(d) => println!(
                        "{i:>3} {:>6} {:>10.3} {:>10.3} {:>12.6} {:>10.3} {:>12.6} {:>5}  {marker}",
                        p.batch,
                        p.slo_s,
                        plan.predicted_time_s,
                        plan.predicted_cost,
                        d.predicted_time_s,
                        d.predicted_cost,
                        "dag",
                    ),
                    None => println!(
                        "{i:>3} {:>6} {:>10.3} {:>10.3} {:>12.6} {:>10} {:>12} {:>5}  {marker}",
                        p.batch,
                        p.slo_s,
                        plan.predicted_time_s,
                        plan.predicted_cost,
                        "-",
                        "-",
                        "chain",
                    ),
                }
            }
            Err(e) => println!("{i:>3} {:>6} {:>10.3}  {e}", p.batch, p.slo_s),
        }
        if verbose {
            println!(
                "      search: {} trial(s), {} polish step(s), {} region(s) accepted, node \
                 evals {} hit / {} miss, spine spans {} reused / {} solved, {:?}",
                p.search.trials_evaluated,
                p.search.polish_steps,
                p.regions_used,
                p.search.node_memo_hits,
                p.search.node_memo_misses,
                p.search.spine_span_hits,
                p.search.spine_spans_solved,
                p.search.search_time
            );
        }
    }
    println!(
        "columns: {} cache hits, {} misses cumulative (shared pass 1: {:?})",
        report.cache_hits, report.cache_misses, report.pass1_time
    );
    println!(
        "dag memos: node evals {} hit / {} miss, spine spans {} reused / {} solved",
        report.node_memo_hits,
        report.node_memo_misses,
        report.spine_span_hits,
        report.spine_spans_solved
    );
    println!(
        "planned {} point(s) over {} cut(s) in {:?} on {} thread(s)",
        report.points.len(),
        report.cuts_considered,
        report.total_time,
        report.threads_used
    );
    0
}

/// The text `ampsinf` prints when run without a command.
const USAGE: &str = "\
usage: ampsinf <command>

commands:
  models                      list built-in models
  summary <model|file.json>   Keras-style model summary
  plan    <model|file.json>   compute the optimal deployment plan
  sweep   <model|file.json>   plan an SLO grid, print the Pareto frontier
  serve   <model|file.json>   plan + deploy + serve on the simulator

options (plan/serve):
  --slo <seconds>      response-time SLO (rejected by sweep, which
                       takes --slo-from/--slo-to)
  --batch <n>          optimize for n-image batches (sweep: the
                       grid's batch when --batches is absent)
  --tolerance <f>      cost tolerance spent on speed (default 0.1)
  --threads <n>        optimizer worker threads (0 = auto, 1 = sequential)
  --quota-2021         10,240 MB / 1 MB-step quota preset
  --dag                branch-parallel planning/serving: on fork/join
                       regions (Inception blocks, residual forks) the
                       plan may fan out into concurrent Lambda nodes
                       and fan back in at the join, with scatter
                       (1 put, k gets) and gather (k puts, 1 get)
                       checkpoint traffic billed per object. A DAG is
                       selected only when it beats the best chain
                       under the same SLO/cost objective. Accepted
                       combinations: plan --dag with --slo/--batch/
                       --tolerance/--quantize/--json/--verbose;
                       sweep --dag with the sweep grid options
                       (amortized chain-vs-DAG verdicts per point,
                       frontier marked on the effective plans);
                       serve --dag: --dag only picks the planner;
                       the chosen plan (or the chain incumbent)
                       serves on the one engine exactly as serve
                       does without it: one image, --images N one
                       after another, --parallel, --pipeline/
                       --pipe-depth, the reliability options, and
                       the open-loop load mode (--requests/--rate/
                       --shape/--policy/--lanes/--threads), where
                       --adaptive swaps effective plans (chain or
                       DAG per SLO tier) between epochs off one
                       amortized DAG sweep.
                       Rejected: plan --dag with --pipeline
  --verbose            print solver statistics (plan, sweep); in
                       serve load mode, print the per-node
                       busy/stall/occupancy/critical-path table
  --quantize <bytes>   weight width 1..4 (plan and sweep)
  --json <path>        write the plan as JSON (plan only)
  --images <n>         requests to serve (serve only)
  --slo-from <s>       sweep: tightest SLO of the grid (required)
  --slo-to <s>         sweep: loosest SLO of the grid (required)
  --points <n>         sweep: number of SLO grid points (required)
  --batches <a,b,...>  sweep: batch sizes to cross with the SLO axis
  --parallel           serve images concurrently (serve only)
  --requests <n>       open-loop load mode: request count (serve
                       only; prints throughput/percentiles)
  --rate <rps>         mean arrival rate for --requests (default 1;
                       positive and finite)
  --shape <name>       arrival shape for load mode: constant,
                       diurnal, spike, bursts or mix (default
                       constant-rate Poisson)
  --policy <spec>      warm-pool policy for load mode: default,
                       zero, prewarm:N, provisioned:N (pre-warmed
                       and billed while idle) or keepalive:S
  --lanes <n>          warm-pool shards for load mode (default 64;
                       must be >= 1). --threads also sets the
                       serving workers; workers are clamped to the
                       lane count (a lane never splits across
                       threads), so --threads > --lanes is rejected
  --pipeline           overlap partition stages across requests:
                       stage i of request k runs concurrently with
                       stage i-1 of request k+1. Each stage owns a
                       fixed set of stations (warm-instance slots)
                       per lane; a request occupies one station of
                       each stage in turn and admission is strictly
                       FIFO by arrival, so reports stay bit-identical
                       at every thread count. With plan: choose the
                       cut jointly against the pipelined (bottleneck-
                       bound) makespan. Excludes --parallel and
                       --adaptive; rejected by sweep
  --pipe-depth <n>     stations per stage per lane (default 1; n
                       requests may occupy one stage concurrently,
                       requires --pipeline)
  --adaptive           load mode: re-plan between epochs over the
                       SLO tiers, every tier planned up front by
                       one amortized sweep (requires --slo-tiers)
  --slo-tiers <a,b,..> adaptive SLO tiers in seconds, tight to loose
  --epoch <n>          requests per adaptive control epoch
                       (default 64)

reliability options (plan/serve):
  --inject-faults <p>  inject crash/timeout/cold-start faults, each
                       with per-invocation probability p
  --fault-seed <n>     seed of the deterministic fault stream
  --flaky-store <p>    storage 5xx probability per request
  --retries <n>        per-partition retry budget (default 2)
  --backoff <s>        exponential-backoff base seconds (default 0.1;
                       finite, >= 0)";

fn usage() {
    eprintln!("{USAGE}");
}

fn fail(msg: &str) -> i32 {
    eprintln!("error: {msg}");
    1
}

/// Configured fault-injection summary (printed when injection is active).
fn print_fault_plan(cfg: &AmpsConfig) {
    if cfg.faults.enabled() {
        println!(
            "fault injection: crash {:.0}%, timeout {:.0}%, cold-start {:.0}% (seed {}); \
             retry budget {}, backoff base {:.2}s",
            cfg.faults.crash_rate * 100.0,
            cfg.faults.timeout_rate * 100.0,
            cfg.faults.cold_start_failure_rate * 100.0,
            cfg.faults.seed,
            cfg.invoke_retries,
            cfg.backoff_base_s
        );
    }
}

/// Reliability summary line: what failures cost this run.
fn print_reliability(retries: usize, failed: usize, wasted_s: f64, wasted_dollars: f64) {
    if retries > 0 || failed > 0 || wasted_s > 0.0 {
        println!(
            "reliability: {retries} retried attempt(s), {failed} failed image(s), \
             {wasted_s:.2}s and ${wasted_dollars:.6} wasted on failures"
        );
    }
}

/// `--verbose` companion block: solver-internals counters from the run.
fn print_solver_stats(r: &amps_inf::core::optimizer::OptimizerReport) {
    println!(
        "solver: {} exact knapsack solve(s), {} binding cut(s) pruned on the LP bound",
        r.miqps_solved, r.miqps_pruned
    );
    println!(
        "columns: {} cache hits, {} misses",
        r.column_cache_hits, r.column_cache_misses
    );
}

/// `--verbose` companion block for the DAG region search: the trials and
/// the memory upgrades their polish accepted, how much of the trial work
/// resolved from the node/spine memos, and the search wall time excluding
/// the chain solve.
fn print_dag_search_stats(s: &amps_inf::core::DagSearchStats) {
    println!(
        "dag search: {} trial(s) evaluated, {} polish step(s), node evals {} hit / {} miss, \
         spine spans {} reused / {} solved, {:?}",
        s.trials_evaluated,
        s.polish_steps,
        s.node_memo_hits,
        s.node_memo_misses,
        s.spine_span_hits,
        s.spine_spans_solved,
        s.search_time
    );
}

/// The flags `usage()` documents: switches, and flags that take a value.
const SWITCHES: &str = "--adaptive --dag --parallel --pipeline --quota-2021 --verbose";
const VALUE_FLAGS: &str = "--backoff --batch --batches --epoch --fault-seed --flaky-store \
    --images --inject-faults --json --lanes --pipe-depth --points --policy --quantize --rate \
    --requests --retries --shape --slo --slo-from --slo-tiers --slo-to --threads --tolerance";

/// Rejects an unknown `--` flag, a value flag with no value after it, a
/// flag given twice, and any argument past the first `positionals` that
/// is neither a flag nor a flag's value.
fn check_flags(args: &[String], positionals: usize) -> Result<(), String> {
    let mut seen: Vec<&str> = Vec::new();
    let mut bare = 0usize;
    let mut rest = args.iter();
    while let Some(a) = rest.next() {
        if !a.starts_with("--") {
            bare += 1;
            if bare > positionals {
                return Err(format!("unexpected argument {a} (run `ampsinf` for usage)"));
            }
            continue;
        }
        let listed = |table: &str| table.split_whitespace().any(|f| f == a);
        let switch = listed(SWITCHES);
        if !switch && !listed(VALUE_FLAGS) {
            return Err(format!("unknown flag {a} (run `ampsinf` for usage)"));
        }
        if seen.contains(&a.as_str()) {
            return Err(format!("{a} given more than once"));
        }
        seen.push(a);
        if !switch && rest.next().is_none() {
            return Err(format!("{a} needs a value"));
        }
    }
    Ok(())
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(|s| s.as_str())
}

fn load_model(arg: Option<&String>) -> Result<LayerGraph, String> {
    let Some(name) = arg else {
        return Err("missing model name or file".into());
    };
    if let Some(g) = zoo::by_name(name) {
        return Ok(g);
    }
    if std::path::Path::new(name).exists() {
        let s = std::fs::read_to_string(name).map_err(|e| e.to_string())?;
        return amps_inf::model::serialize::from_json(&s);
    }
    Err(format!(
        "unknown model '{name}' (try `ampsinf models`) and no such file"
    ))
}

fn parse_cfg(args: &[String]) -> Result<(AmpsConfig, Option<u64>, Option<String>), String> {
    let mut cfg = AmpsConfig::default();
    if let Some(v) = flag_value(args, "--slo") {
        let slo: f64 = v.parse().map_err(|_| format!("bad --slo value {v}"))?;
        if !(slo.is_finite() && slo > 0.0) {
            return Err(format!(
                "bad --slo value {v} (need a positive number of seconds)"
            ));
        }
        cfg.slo_s = Some(slo);
    }
    if let Some(v) = flag_value(args, "--batch") {
        cfg.batch_size = v.parse().map_err(|_| format!("bad --batch value {v}"))?;
        if cfg.batch_size == 0 {
            return Err(format!(
                "bad --batch value {v} (need at least 1 image per batch)"
            ));
        }
    }
    if let Some(v) = flag_value(args, "--tolerance") {
        let tol: f64 = v
            .parse()
            .map_err(|_| format!("bad --tolerance value {v}"))?;
        if !(tol.is_finite() && tol >= 0.0) {
            return Err(format!(
                "bad --tolerance value {v} (need a finite cost fraction >= 0)"
            ));
        }
        cfg.cost_tolerance = tol;
    }
    if let Some(v) = flag_value(args, "--threads") {
        cfg.threads = v.parse().map_err(|_| format!("bad --threads value {v}"))?;
    }
    if args.iter().any(|a| a == "--quota-2021") {
        cfg = cfg.lambda_2021();
    }
    if let Some(v) = flag_value(args, "--retries") {
        cfg.invoke_retries = v.parse().map_err(|_| format!("bad --retries value {v}"))?;
    }
    if let Some(v) = flag_value(args, "--backoff") {
        let base: f64 = v.parse().map_err(|_| format!("bad --backoff value {v}"))?;
        if !(base.is_finite() && base >= 0.0) {
            return Err(format!(
                "bad --backoff value {v} (need a finite number of seconds >= 0)"
            ));
        }
        cfg.backoff_base_s = base;
    }
    let fault_seed: u64 = match flag_value(args, "--fault-seed") {
        Some(v) => v
            .parse()
            .map_err(|_| format!("bad --fault-seed value {v}"))?,
        None => 0,
    };
    if let Some(v) = flag_value(args, "--inject-faults") {
        let rate: f64 = v
            .parse()
            .map_err(|_| format!("bad --inject-faults value {v}"))?;
        if !(0.0..=1.0).contains(&rate) {
            return Err(format!("--inject-faults rate {v} must be in [0,1]"));
        }
        cfg.faults = FaultPlan::uniform(rate, fault_seed);
    }
    if let Some(v) = flag_value(args, "--flaky-store") {
        let rate: f64 = v
            .parse()
            .map_err(|_| format!("bad --flaky-store value {v}"))?;
        if !(0.0..1.0).contains(&rate) {
            return Err(format!("--flaky-store rate {v} must be in [0,1)"));
        }
        cfg.store = StoreKind::flaky_s3(rate);
    }
    let pipeline = args.iter().any(|a| a == "--pipeline");
    match flag_value(args, "--pipe-depth") {
        Some(v) => {
            if !pipeline {
                return Err(
                    "--pipe-depth requires --pipeline (depth is the number of stations \
                     each pipeline stage owns; without --pipeline there are no stations)"
                        .into(),
                );
            }
            let d: usize = v
                .parse()
                .map_err(|_| format!("bad --pipe-depth value {v} (need a positive integer)"))?;
            if d == 0 {
                return Err(
                    "--pipe-depth 0 is invalid: every stage needs at least one station \
                     to run at all (1 = strict FIFO per stage, N = up to N requests \
                     in-flight per stage per lane)"
                        .into(),
                );
            }
            cfg.pipeline_depth = d;
        }
        None => {
            if pipeline {
                cfg.pipeline_depth = 1;
            }
        }
    }
    let quantize = match flag_value(args, "--quantize") {
        Some(v) => match v.parse::<u64>() {
            Ok(bytes @ 1..=4) => Some(bytes),
            _ => return Err(format!("bad --quantize value {v} (need 1 to 4 bytes)")),
        },
        None => None,
    };
    let json_out = flag_value(args, "--json").map(|s| s.to_string());
    Ok((cfg, quantize, json_out))
}
