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
//!
//! Which command reads which flag is one table, [`TABLE`]; a flag outside
//! the command's row is an error, never silently ignored.

use amps_inf::core::baselines;
use amps_inf::core::sweep::SweepGrid;
use amps_inf::core::OptimizeError;
use amps_inf::faas::WarmPoolPolicy;
use amps_inf::model::summary::ModelSummary;
use amps_inf::prelude::*;
use amps_inf::serving::{
    run_adaptive_loop, run_adaptive_loop_dag, run_open_loop_dag, AdaptiveSpec, ArrivalShape,
    LoadSpec,
};
use std::io::Write;
use std::str::FromStr;

/// Shadows std's `println!` for this whole binary, so every line of
/// output goes through [`emit`]'s closed-pipe handling.
macro_rules! println {
    ($($arg:tt)*) => {
        emit(writeln!(std::io::stdout(), $($arg)*))
    };
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = run(&args);
    std::process::exit(code);
}

fn run(args: &[String]) -> i32 {
    let Some(cmd) = args.first() else {
        return usage();
    };
    let a = match check_flags(cmd, &args[1..]) {
        Ok(Some(a)) => a,
        Ok(None) => return usage(),
        Err(e) => return fail(&e),
    };
    let done = match cmd.as_str() {
        "models" => models(),
        "summary" => load_model(a.model)
            .map(|g| emit(std::io::stdout().write_all(ModelSummary::of(&g).render().as_bytes()))),
        "plan" => plan(&a),
        "sweep" => sweep(&a),
        _ => serve(&a), // the table has rows for no other command
    };
    match done {
        Ok(()) => 0,
        Err(e) => fail(&e),
    }
}

/// `models`: the built-in models with their sizes.
fn models() -> Result<(), String> {
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
    Ok(())
}

/// `plan`: the chain optimum with its solver stats and reference
/// baselines, and under `--pipeline` the joint planner's pipelined plan;
/// `--dag` plans chain-vs-DAG instead ([`plan_dag`]).
fn plan(a: &Args) -> Result<(), String> {
    let cfg = config(a)?;
    let g = model(a)?;
    if a.has("--dag") {
        return plan_dag(&g, &cfg, a);
    }
    let r = Optimizer::new(cfg.clone()).optimize(&g).map_err(failed)?;
    println!("{}", r.plan);
    println!(
        "searched {} cuts, {} knapsack solve(s), {:?} (eval {:?}, select {:?})",
        r.cuts_considered, r.miqps_solved, r.solve_time, r.pass1_time, r.pass2_time
    );
    if a.has("--verbose") {
        print_solver_stats(&r);
    }
    if let Some(b3) = baselines::b3_optimal(&g, &cfg) {
        println!(
            "exhaustive optimum for reference: {:.2}s ${:.6}",
            b3.predicted_time_s, b3.predicted_cost
        );
    }
    let profile = Profile::batched(&g, cfg.batch_size);
    if let Some(b4) = baselines::b4_bucket_scan(&g, &cfg, r.plan.num_lambdas()) {
        let lowered = DagPlan::from_chain(&b4, |k| profile.output_bytes(k));
        let bottleneck = baselines::dag_node_times(&profile, &lowered, &cfg)
            .map(|t| t.into_iter().fold(0.0f64, f64::max))
            .unwrap_or(f64::NAN);
        println!(
            "pipeserve bucket-scan for reference: {} stage(s), {:.2}s ${:.6}, bottleneck {:.3}s",
            b4.num_lambdas(),
            b4.predicted_time_s,
            b4.predicted_cost,
            bottleneck
        );
    }
    if cfg.pipeline_depth > 0 {
        match Optimizer::new(cfg.clone()).optimize_pipelined(&g) {
            Ok(pp) => {
                println!("pipelined plan: {pp}");
                println!(
                    "  stage times: [{}] (fill {:.2}s, steady-state \
                     makespan(n) = fill + (n-1) x {:.3}s)",
                    joined(&pp.stage_times_s, |t| format!("{t:.3}s")),
                    pp.stage_times_s.iter().sum::<f64>(),
                    pp.bottleneck_s
                );
            }
            Err(e) => println!("pipelined plan: {e}"),
        }
    }
    write_json(a, || r.plan.to_json())
}

/// `plan --dag`: chain-vs-DAG comparison. Runs the standard chain
/// optimization, then evaluates branch-parallel candidates over the
/// graph's fork/join regions with every scatter/gather request fee and
/// storage lifetime billed; a DAG is reported only when it beats the
/// chain incumbent under the paper's selection rule.
fn plan_dag(g: &LayerGraph, cfg: &AmpsConfig, a: &Args) -> Result<(), String> {
    let r = Optimizer::new(cfg.clone())
        .optimize_dag(g)
        .map_err(failed)?;
    let chain = &r.chain.plan;
    println!("chain incumbent: {chain}");
    println!(
        "searched {} cuts, {} knapsack solve(s), {:?} ({} threads); {} branch region(s) considered",
        r.chain.cuts_considered,
        r.chain.miqps_solved,
        r.chain.solve_time,
        r.chain.threads_used,
        r.regions_considered
    );
    if a.has("--verbose") {
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
    write_json(a, || match &r.dag {
        Some(d) => d.to_json(),
        None => chain.to_json(),
    })
}

/// Writes the plan `json` builds to the `--json` path, if one was given.
fn write_json(a: &Args, json: impl FnOnce() -> String) -> Result<(), String> {
    if let Some(path) = a.value("--json") {
        std::fs::write(path, json()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("plan written to {path}");
    }
    Ok(())
}

/// `serve`: plan, deploy and serve on the one engine. `--requests` runs
/// an open-loop load ([`serve_load`]); otherwise `--images` requests run
/// as a batch — one request, `--parallel` (all at t = 0), `--pipeline`
/// (stage-overlapped stations) or one after another. `--dag` only picks
/// the planner ([`plan_for_serving`]).
fn serve(a: &Args) -> Result<(), String> {
    if let Some(requests) = a.num("--requests", "a positive integer", at_least_one)? {
        return serve_load(a, requests);
    }
    let images = a
        .num("--images", "a positive integer", at_least_one)?
        .unwrap_or(1);
    let parallel = a.has("--parallel");
    let cfg = config(a)?;
    let g = model(a)?;
    let plan = plan_for_serving(&g, &cfg, a.has("--dag"))?;
    print_fault_plan(&cfg);
    let coord = Coordinator::new(cfg);
    let mut platform = coord.platform();
    let dep = coord
        .deploy_dag(&mut platform, &g, &plan)
        .map_err(|e| format!("deploy: {e}"))?;
    let (time, mut dollars) = if images == 1 {
        let job = coord
            .serve_one(&mut platform, &dep, 0.0)
            .map_err(|e| format!("serve: {e}"))?;
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
        println!(
            "pipeline: utilization {:.1}% [{}], stall {:.2}s, warm idle {:.2}s",
            p.stats.utilization() * 100.0,
            joined(&p.stats.stage_utilization(), percent),
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
    Ok(())
}

/// A utilization fraction as a whole percentage.
fn percent(u: f64) -> String {
    format!("{:.0}%", u * 100.0)
}

/// `values`, each formatted by `show`, joined by `", "`.
fn joined(values: &[f64], show: impl Fn(f64) -> String) -> String {
    values
        .iter()
        .map(|&v| show(v))
        .collect::<Vec<_>>()
        .join(", ")
}

/// The plan `serve` deploys, printed: with `dag`, [`plan_dag`]'s
/// chain-vs-DAG objective (the chain incumbent when no branch plan
/// wins); otherwise the chain optimum, or under `--pipeline` the
/// pipelined planner's stage-balanced chain at `--batch`. Chains lower
/// through [`DagPlan::from_chain`].
fn plan_for_serving(g: &LayerGraph, cfg: &AmpsConfig, dag: bool) -> Result<DagPlan, String> {
    if !dag {
        let opt = Optimizer::new(cfg.clone());
        let plan = if cfg.pipeline_depth > 0 {
            let pp = opt.optimize_pipelined(g).map_err(failed)?;
            println!(
                "pipelined planning: bottleneck {:.3}s, imbalance {:.2} \
                 (stage-balanced within cost tolerance of the sequential optimum)",
                pp.bottleneck_s,
                pp.imbalance()
            );
            pp.plan
        } else {
            opt.optimize(g).map_err(failed)?.plan
        };
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
    let (name, arg) = lower.split_once(':').unwrap_or((&lower, ""));
    let need = |what| bad("--policy", spec, &format!("{name}:<{what}>"));
    let count = || parsed::<usize>(arg, |_| true).ok_or_else(|| need("count"));
    match name {
        "default" | "lambda" => Ok(WarmPoolPolicy::lambda_default()),
        "zero" | "scale-to-zero" => Ok(WarmPoolPolicy::scale_to_zero()),
        "prewarm" | "pre-warm" => {
            let mut p = WarmPoolPolicy::lambda_default();
            p.pre_warm = count()?;
            Ok(p)
        }
        "provisioned" => Ok(WarmPoolPolicy::provisioned(count()?)),
        "keepalive" | "keep-alive" => {
            let s = parsed(arg, |s: &f64| *s >= 0.0).ok_or_else(|| need("seconds >= 0"))?;
            Ok(WarmPoolPolicy::keep_alive(s))
        }
        _ => Err(format!(
            "unknown --policy '{spec}' \
             (try default, zero, prewarm:N, provisioned:N or keepalive:S)"
        )),
    }
}

/// Open-loop load mode (`serve --requests M --rate R`): shaped arrivals
/// against the planned deployment on the work-stealing serving engine,
/// with a throughput / percentile summary instead of per-image reports.
/// `--adaptive` swaps plans between epochs (chains, or with `--dag`
/// *effective* plans: chain or DAG per SLO tier), and `--verbose` prints
/// the per-node busy/stall/occupancy/critical-path table.
fn serve_load(a: &Args, requests: usize) -> Result<(), String> {
    let rate = a
        .num(
            "--rate",
            "a positive, finite number of requests per second",
            positive,
        )?
        .unwrap_or(1.0);
    let lanes = a
        .num("--lanes", "at least 1 warm-pool shard", at_least_one)?
        .unwrap_or(64);
    let shape = a
        .value("--shape")
        .map_or(Ok(ArrivalShape::Constant), ArrivalShape::parse)?;
    let policy = a
        .value("--policy")
        .map_or(Ok(WarmPoolPolicy::lambda_default()), parse_policy)?;
    let epoch = a
        .num("--epoch", "a positive integer", at_least_one)?
        .unwrap_or(64);
    // The flag table gives `--slo-tiers` exactly when `--adaptive` is on.
    let adaptive = a
        .list("--slo-tiers", "comma-separated positive seconds", positive)?
        .map(|tiers| AdaptiveSpec::new(epoch, tiers));
    let verbose = a.has("--verbose");
    let cfg = config(a)?;
    // `--threads` drives both the optimizer and the serving workers here;
    // serving results are thread-invariant either way (DESIGN.md §6c).
    let threads = cfg.threads;
    if threads > lanes {
        return Err(format!(
            "--threads {threads} exceeds --lanes {lanes}: a lane never splits \
             across threads, so workers are clamped to the lane count and the \
             extra threads would sit idle; lower --threads or raise --lanes"
        ));
    }
    let g = model(a)?;
    let cfg = cfg
        .with_serve_lanes(lanes)
        .with_serve_threads(threads)
        .with_warm_pool(policy);
    let load = LoadSpec::poisson(rate, requests, 0).with_shape(shape);

    let dag = a.has("--dag");
    let mut plan = None;
    let rep = match &adaptive {
        Some(adaptive) if dag => run_adaptive_loop_dag(&g, &cfg, &load, adaptive),
        Some(adaptive) => run_adaptive_loop(&g, &cfg, &load, adaptive),
        None => {
            let p = plan_for_serving(&g, &cfg, dag)?;
            print_fault_plan(&cfg);
            let run = run_open_loop_dag(&g, &p, &cfg, &load);
            plan = Some(p);
            run
        }
    }
    .map_err(|e| match adaptive {
        Some(_) => format!("adaptive load run: {e}"),
        None => format!("load run: {e}"),
    })?;

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
         busiest function created {} sandbox(es)",
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
        println!(
            "pipeline: depth {} station(s)/stage/lane, utilization {:.1}% [{}], \
             stall {:.2}s",
            cfg.pipeline_depth,
            rep.pipeline_utilization * 100.0,
            joined(&rep.stage_utilization, percent),
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
    Ok(())
}

/// `sweep`: plans the SLO × batch grid in one amortized call and prints
/// every point, the per-batch Pareto frontier (knee flagged) and the
/// amortization summary. Under `--dag` each row shows the chain and DAG
/// verdicts, and the frontier marks apply to each point's *effective*
/// plan (the DAG when it won, else the chain).
fn sweep(a: &Args) -> Result<(), String> {
    let grid = parse_grid(a)?;
    let cfg = config(a)?;
    let g = model(a)?;
    let (dag, verbose) = (a.has("--dag"), a.has("--verbose"));
    let planner = Optimizer::new(cfg);
    let report = if dag {
        planner.optimize_dag_sweep(&g, &grid)
    } else {
        planner.optimize_sweep(&g, &grid)
    };
    let shape = format!(
        "{} point(s) ({} SLO x {} batch), {} solved",
        report.points.len(),
        grid.slos.len(),
        grid.batches.len().max(1),
        report.solved()
    );
    if dag {
        println!(
            "dag sweep: {shape}, {} DAG win(s) over {} branch region(s)",
            report.dag_wins(),
            report.regions_considered
        );
        println!(
            "{:>3} {:>6} {:>10} {:>10} {:>12} {:>10} {:>12} {:>5}  {:<10}",
            "#", "batch", "slo(s)", "chain(s)", "chain($)", "dag(s)", "dag($)", "win", "frontier"
        );
    } else {
        println!("sweep: {shape}");
        println!(
            "{:>3} {:>6} {:>10} {:>10} {:>12} {:>4}  {}",
            "#", "batch", "slo(s)", "time(s)", "cost($)", "fns", "frontier"
        );
    }
    for (i, p) in report.points.iter().enumerate() {
        match &p.outcome {
            Ok(plan) => {
                let head = format!(
                    "{i:>3} {:>6} {:>10.3} {:>10.3} {:>12.6}",
                    p.batch, p.slo_s, plan.predicted_time_s, plan.predicted_cost
                );
                let marker = frontier_marker(p.knee, p.dominated);
                match (dag, &p.dag) {
                    (false, _) => println!("{head} {:>4}  {marker}", plan.num_lambdas()),
                    (true, Some(d)) => println!(
                        "{head} {:>10.3} {:>12.6} {:>5}  {marker}",
                        d.predicted_time_s, d.predicted_cost, "dag"
                    ),
                    (true, None) => {
                        println!("{head} {:>10} {:>12} {:>5}  {marker}", "-", "-", "chain")
                    }
                }
            }
            Err(e) => println!("{i:>3} {:>6} {:>10.3}  {e}", p.batch, p.slo_s),
        }
        if verbose && dag {
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
        } else if verbose {
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
    if dag {
        println!(
            "dag memos: node evals {} hit / {} miss, spine spans {} reused / {} solved",
            report.node_memo_hits,
            report.node_memo_misses,
            report.spine_span_hits,
            report.spine_spans_solved
        );
    }
    println!(
        "planned {} point(s) over {} cut(s) in {:?} on {} thread(s)",
        report.points.len(),
        report.cuts_considered,
        report.total_time,
        report.threads_used
    );
    Ok(())
}

/// Parses the grid flags: `--slo-from`, `--slo-to`, `--points` (all
/// required) and `--batches` (default: the optimizer's `--batch`).
fn parse_grid(a: &Args) -> Result<SweepGrid, String> {
    let from = a
        .num("--slo-from", "a positive number of seconds", positive)?
        .ok_or("sweep requires --slo-from <seconds>")?;
    let to = a
        .num("--slo-to", "seconds >= --slo-from", |t: &f64| {
            t.is_finite() && *t >= from
        })?
        .ok_or("sweep requires --slo-to <seconds>")?;
    let points = a
        .num("--points", "a positive integer", at_least_one)?
        .ok_or("sweep requires --points <n>")?;
    let grid = SweepGrid::slo_range(from, to, points);
    let batches = a.list(
        "--batches",
        "comma-separated positive integers",
        at_least_one,
    )?;
    Ok(match batches {
        Some(b) => grid.with_batches(b),
        None => grid,
    })
}

/// Pareto-frontier mark of a sweep point.
fn frontier_marker(knee: bool, dominated: bool) -> &'static str {
    if knee {
        "knee *"
    } else if dominated {
        "dominated"
    } else {
        "pareto"
    }
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

options (each command rejects those it does not read):
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
                       under the same SLO/cost objective. sweep
                       --dag gives chain-vs-DAG verdicts per point;
                       serve --dag serves the chosen plan (or the
                       chain incumbent) in every serve mode, and
                       --adaptive swaps effective plans per SLO tier.
                       Rejected: plan --dag with --pipeline
  --verbose            print solver statistics (plan, sweep); in
                       serve load mode, print the per-node
                       busy/stall/occupancy/critical-path table
  --quantize <bytes>   weight width 1..4 (plan, sweep and serve)
  --json <path>        write the plan as JSON (plan only)
  --images <n>         requests to serve (batch mode: no --requests)
  --slo-from <s>       sweep: tightest SLO of the grid (required)
  --slo-to <s>         sweep: loosest SLO of the grid (required)
  --points <n>         sweep: number of SLO grid points (required)
  --batches <a,b,...>  sweep: batch sizes to cross with the SLO axis
  --parallel           serve images concurrently (batch mode)
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
  --pipe-depth <n>     stations per stage per lane (serve; default 1;
                       n requests may occupy one stage concurrently,
                       requires --pipeline)
  --adaptive           load mode: re-plan between epochs over the
                       SLO tiers, every tier planned up front by
                       one amortized sweep (requires --slo-tiers)
  --slo-tiers <a,b,..> adaptive SLO tiers in seconds, tight to loose
                       (requires --adaptive)
  --epoch <n>          requests per adaptive control epoch
                       (default 64; requires --adaptive)

reliability options (serve):
  --inject-faults <p>  inject crash/timeout/cold-start faults, each
                       with per-invocation probability p
  --fault-seed <n>     seed of the deterministic fault stream
                       (requires --inject-faults)
  --flaky-store <p>    storage 5xx probability per request
  --retries <n>        per-partition retry budget (default 2; requires
                       --inject-faults or --flaky-store)
  --backoff <s>        exponential-backoff base seconds (default 0.1;
                       finite, >= 0; requires --inject-faults or
                       --flaky-store)";

fn usage() -> i32 {
    eprintln!("{USAGE}");
    2
}

fn fail(msg: &str) -> i32 {
    eprintln!("error: {msg}");
    1
}

fn failed(e: OptimizeError) -> String {
    format!("optimization failed: {e}")
}

/// Settles one write to stdout. A closed pipe (`ampsinf models | head -1`)
/// ends the process quietly with exit 0, where std's `println!` would
/// panic.
fn emit(written: std::io::Result<()>) {
    if let Err(e) = written {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            eprintln!("error: writing stdout: {e}");
            std::process::exit(1);
        }
        std::process::exit(0);
    }
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
        "solver: {} exact knapsack solve(s), {} cut(s) pruned on the LP bound, \
         ranked {} of {} cuts by cost",
        r.miqps_solved, r.miqps_pruned, r.cuts_ranked, r.cuts_considered
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

/// Planning flags every command that plans reads.
const PLANNING: &str = "--batch= --tolerance= --threads= --quota-2021 --quantize= --dag";
/// Flags of the commands that plan one point: `plan` and both `serve` modes.
const ONE_POINT: &str = "--slo= --pipeline";
/// `serve`'s fault injection and retry policy.
const FAULTS: &str = "--inject-faults= --fault-seed= --flaky-store= --retries= --backoff=";
/// `sweep`'s grid.
const GRID: &str = "--slo-from= --slo-to= --points= --batches= --verbose";
/// `serve`'s batch mode.
const BATCH: &str = "--pipe-depth= --images= --parallel";
/// `serve`'s open-loop load mode.
const LOAD: &str = "--pipe-depth= --requests= --rate= --shape= --policy= --lanes= --adaptive \
    --slo-tiers= --epoch= --verbose";

/// Which command reads which flag: one row per command, `serve` split
/// into its two modes, each row a list of space-separated flag groups.
/// A trailing `=` marks a flag that takes a value.
const TABLE: [(&str, &[&str]); 6] = [
    ("models", &[]),
    ("summary", &[]),
    ("plan", &[PLANNING, ONE_POINT, "--verbose --json="]),
    ("sweep", &[PLANNING, GRID]),
    (
        "serve without --requests",
        &[PLANNING, ONE_POINT, FAULTS, BATCH],
    ),
    ("serve --requests", &[PLANNING, ONE_POINT, FAULTS, LOAD]),
];

/// Flag sets a row refuses when all of them are given, before it checks
/// its own flags: `(row, flags, why)`.
const REFUSED: [(&str, &str, &str); 5] = [
    (
        "plan",
        "--dag --pipeline",
        "--dag and --pipeline are incompatible in plan mode: the joint pipelined planner \
         balances the stages of a chain, while --dag fans branch regions out as concurrent \
         nodes; pick one",
    ),
    (
        "sweep",
        "--pipeline",
        "sweep plans no pipelined grid; plan --pipeline chooses one pipelined plan at one SLO",
    ),
    (
        "sweep",
        "--slo",
        "sweep takes its SLOs from --slo-from/--slo-to, not --slo",
    ),
    (
        "serve without --requests",
        "--pipeline --parallel",
        "--pipeline and --parallel are mutually exclusive: --parallel fans whole requests \
         out with unbounded concurrency, --pipeline overlaps stages under per-stage station \
         budgets; pick one",
    ),
    (
        "serve --requests",
        "--pipeline --adaptive",
        "--pipeline and --adaptive are mutually exclusive: pipeline stations are bound to \
         one plan's stages, and the adaptive controller switches plans between epochs; drop \
         one of the flags",
    ),
];

/// Flags that mean nothing without another: `(flag, needed, why)`; any
/// one of `needed`'s `or`-separated flags will do.
const NEEDS: [(&str, &str, &str); 7] = [
    ("--pipe-depth", "--pipeline", ""),
    ("--fault-seed", "--inject-faults", ""),
    ("--retries", "--inject-faults or --flaky-store", ""),
    ("--backoff", "--inject-faults or --flaky-store", ""),
    ("--slo-tiers", "--adaptive", ""),
    ("--epoch", "--adaptive", ""),
    ("--adaptive", "--slo-tiers", " <s1,s2,...>"),
];

/// Every flag word of a table row, `=` marker included.
fn words(groups: &'static [&'static str]) -> impl Iterator<Item = &'static str> {
    groups.iter().flat_map(|group| group.split_whitespace())
}

/// Every flag word of the table.
fn all_words() -> impl Iterator<Item = &'static str> {
    TABLE.iter().flat_map(|(_, groups)| words(groups))
}

/// Whether the table word `word` names `flag`.
fn names(word: &str, flag: &str) -> bool {
    word.strip_suffix('=').unwrap_or(word) == flag
}

/// A command line checked against the flag table.
#[derive(Default)]
struct Args<'a> {
    /// The model argument, if given.
    model: Option<&'a String>,
    /// Each flag given, with its value if it takes one.
    flags: Vec<(&'a str, Option<&'a str>)>,
}

impl<'a> Args<'a> {
    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| *f == flag)
    }

    fn value(&self, flag: &str) -> Option<&'a str> {
        self.flags.iter().find(|(f, _)| *f == flag)?.1
    }

    /// `flag`'s value as a `T` that passes `ok`, if given.
    fn num<T: FromStr>(&self, flag: &str, need: &str, ok: impl Fn(&T) -> bool) -> Parsed<T> {
        let one = |v| parsed(v, &ok).ok_or_else(|| bad(flag, v, need));
        self.value(flag).map(one).transpose()
    }

    /// `flag`'s comma-separated value as `T`s that each pass `ok`, if given.
    fn list<T: FromStr>(&self, flag: &str, need: &str, ok: impl Fn(&T) -> bool) -> Parsed<Vec<T>> {
        let items = |v: &str| {
            v.split(',')
                .map(|s| parsed(s.trim(), &ok))
                .collect::<Option<_>>()
        };
        let all = |v| items(v).ok_or_else(|| bad(flag, v, need));
        self.value(flag).map(all).transpose()
    }
}

/// `v` as a `T` that passes `ok`, if it is one.
fn parsed<T: FromStr>(v: &str, ok: impl Fn(&T) -> bool) -> Option<T> {
    v.parse().ok().filter(ok)
}

/// The error for a flag's value: `bad <flag> value <v> (need <need>)`.
fn bad(flag: &str, v: &str, need: &str) -> String {
    format!("bad {flag} value {v} (need {need})")
}

/// A flag's checked value, if the flag was given.
type Parsed<T> = Result<Option<T>, String>;

/// Checks the arguments after the command `cmd` against the flag table:
/// an unknown flag, a value flag with no value, a flag given twice, a
/// word besides the model, a flag outside the command's row, a set the
/// row refuses and a flag missing its [`NEEDS`] partner are errors.
/// `None`: `cmd` is no command.
fn check_flags<'a>(cmd: &str, args: &'a [String]) -> Result<Option<Args<'a>>, String> {
    let mut given = Args::default();
    let mut rest = args.iter();
    while let Some(a) = rest.next() {
        if !a.starts_with("--") {
            if given.model.is_some() || cmd == "models" {
                return Err(format!("unexpected argument {a} (run `ampsinf` for usage)"));
            }
            given.model = Some(a);
            continue;
        }
        let Some(word) = all_words().find(|w| names(w, a)) else {
            return Err(format!("unknown flag {a} (run `ampsinf` for usage)"));
        };
        if given.has(a) {
            return Err(format!("{a} given more than once"));
        }
        let value = match word.ends_with('=') {
            true => Some(rest.next().ok_or_else(|| format!("{a} needs a value"))?),
            false => None,
        };
        given.flags.push((a, value.map(String::as_str)));
    }
    let name = match cmd {
        "serve" if given.has("--requests") => "serve --requests",
        "serve" => "serve without --requests",
        _ => cmd,
    };
    let Some((_, groups)) = TABLE.iter().find(|(row, _)| *row == name) else {
        return Ok(None);
    };
    let refused = |(row, set, _): &&(&str, &str, &str)| {
        *row == name && set.split_whitespace().all(|f| given.has(f))
    };
    if let Some((_, _, why)) = REFUSED.iter().find(refused) {
        return Err(why.to_string());
    }
    let outside = |(f, _): &&(&str, Option<&str>)| !words(groups).any(|w| names(w, f));
    if let Some((f, _)) = given.flags.iter().find(outside) {
        return Err(format!(
            "{f} does not apply to {name} (run `ampsinf` for usage)"
        ));
    }
    let alone =
        |(f, n, _): &&(&str, &str, &str)| given.has(f) && !n.split(" or ").any(|n| given.has(n));
    if let Some((f, needed, why)) = NEEDS.iter().find(alone) {
        return Err(format!("{f} requires {needed}{why}"));
    }
    Ok(Some(given))
}

fn at_least_one<T: From<u8> + PartialOrd>(n: &T) -> bool {
    *n >= T::from(1)
}

fn positive(x: &f64) -> bool {
    x.is_finite() && *x > 0.0
}

fn non_negative(x: &f64) -> bool {
    x.is_finite() && *x >= 0.0
}

/// The planning config the flags describe, every value checked.
fn config(a: &Args) -> Result<AmpsConfig, String> {
    let mut cfg = AmpsConfig::default();
    if a.has("--quota-2021") {
        cfg = cfg.lambda_2021();
    }
    cfg.slo_s = a.num("--slo", "a positive number of seconds", positive)?;
    let batch = a.num("--batch", "at least 1 image per batch", at_least_one)?;
    cfg.batch_size = batch.unwrap_or(cfg.batch_size);
    let tolerance = a.num("--tolerance", "a finite cost fraction >= 0", non_negative)?;
    cfg.cost_tolerance = tolerance.unwrap_or(cfg.cost_tolerance);
    let threads = a.num("--threads", "a thread count, 0 = auto", |_: &usize| true)?;
    cfg.threads = threads.unwrap_or(cfg.threads);
    let retries = a.num("--retries", "a retry count", |_: &u32| true)?;
    cfg.invoke_retries = retries.unwrap_or(cfg.invoke_retries);
    let backoff = a.num("--backoff", "a finite number of seconds >= 0", non_negative)?;
    cfg.backoff_base_s = backoff.unwrap_or(cfg.backoff_base_s);
    let seed = a.num("--fault-seed", "an unsigned integer", |_: &u64| true)?;
    let probability = |p: &f64| (0.0..=1.0).contains(p);
    if let Some(rate) = a.num("--inject-faults", "a probability in [0,1]", probability)? {
        cfg.faults = FaultPlan::uniform(rate, seed.unwrap_or(0));
    }
    let below_one = |p: &f64| (0.0..1.0).contains(p);
    if let Some(rate) = a.num("--flaky-store", "a probability in [0,1)", below_one)? {
        cfg.store = StoreKind::flaky_s3(rate);
    }
    if a.has("--pipeline") {
        let depth = a.num("--pipe-depth", "at least 1 station per stage", at_least_one)?;
        cfg.pipeline_depth = depth.unwrap_or(1);
    }
    Ok(cfg)
}

/// The model argument, loaded, and under `--quantize` narrowed to that
/// many bytes per weight (and said so).
fn model(a: &Args) -> Result<LayerGraph, String> {
    let quantize = a.num("--quantize", "1 to 4 bytes", |b: &u64| (1..=4).contains(b))?;
    let mut g = load_model(a.model)?;
    if let Some(bytes) = quantize {
        g = g.quantized(bytes);
        println!(
            "quantized weights to {} bits: {:.1} MB",
            bytes * 8,
            g.weight_bytes() as f64 / 1024.0 / 1024.0
        );
    }
    Ok(g)
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn usage_documents_exactly_the_table_flags() {
        let table: BTreeSet<&str> = all_words().map(|w| w.trim_end_matches('=')).collect();
        let documented: BTreeSet<&str> = USAGE
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter(|w| w.len() > 2 && w.starts_with("--"))
            .collect();
        assert_eq!(documented, table);
        // A value flag's option line shows its `<value>`; a switch's none.
        for word in all_words() {
            let flag = word.trim_end_matches('=');
            let line = USAGE
                .lines()
                .find(|l| l.starts_with(&format!("  {flag} ")))
                .unwrap_or_else(|| panic!("{flag} has no option line"));
            let shown = line[2 + flag.len()..].trim_start().starts_with('<');
            assert_eq!(shown, word.ends_with('='), "{line}");
        }
    }

    #[test]
    fn every_needed_and_refused_flag_is_in_the_table() {
        let known = |f: &str| all_words().any(|w| names(w, f));
        for (flag, needed, _) in NEEDS {
            assert!(
                known(flag) && needed.split(" or ").all(known),
                "{flag} / {needed}"
            );
        }
        for (row, set, _) in REFUSED {
            assert!(TABLE.iter().any(|(name, _)| *name == row), "{row}");
            assert!(set.split_whitespace().all(known), "{row}: {set}");
        }
    }
}
