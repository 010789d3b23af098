//! The traced run's layer replays: each planning and serving layer's
//! public calls, invoked one at a time on the workload's own inputs
//! inside spans, reduced to the per-layer metrics.
//!
//! Every time is a median over `Sizes::replay_reps` repetitions, and
//! each metric is measured on every workload: planning layers on the
//! planning calls behind the workload's plans, serving layers on the
//! workload's plan and arrivals (the plan mix serves one of its plans).

use crate::stats::median;
use crate::sut::{self, AmpsConfig, LayerGraph, Load, PlanStats, Target, TraceSummary};
use crate::trace::Tracer;
use crate::workload::{Kind, PlanRequest, Sizes, Workload};

/// MIQPs the solver replay builds and solves per request: the planner's
/// own budget of lowest-cost cuts that get the full MIQP treatment.
const MIQP_TOP_CUTS: usize = 12;

/// Plan-mix requests the planning replay covers: this many chain and
/// DAG requests, in the seeded order.
const PLAN_MIX_REPLAYS: (usize, usize) = (6, 2);

/// Seconds per layer call, summed over one repetition's requests, plus
/// the planner's counters.
#[derive(Default)]
struct PlanRep {
    graph_build: f64,
    profile: f64,
    enumerate: f64,
    columns: f64,
    build: f64,
    bb: f64,
    plan: f64,
    plan_all_cores: f64,
    cuts: usize,
    stats: PlanStats,
}

/// One repetition of the serving replay: seconds per call, and the
/// microbenchmarks in nanoseconds per call.
struct ServeRep {
    arrivals: f64,
    deploy: f64,
    serve: f64,
    serve_all_cores: f64,
    run: f64,
    retained_kb_per_req: f64,
    warm_ns: f64,
    cold_ns: f64,
    store_ns: f64,
    trace: TraceSummary,
}

/// Replays every layer and returns the per-layer metrics (all but
/// `trace_overhead_frac`, which the caller measures).
pub fn replay(
    w: &Workload,
    seed: u64,
    sizes: &Sizes,
    cores: usize,
    t: &mut Tracer,
) -> Result<Vec<(&'static str, f64)>, String> {
    let plan_reps = (0..sizes.replay_reps)
        .map(|rep| {
            t.span("plan_replay", "replay", rep, 0, |t| {
                plan_rep(w, cores, rep, t)
            })
            .0
        })
        .collect::<Result<Vec<_>, _>>()?;
    let (target, _) = t.span("replay_target", "optimizer", 0, 0, |_| w.replay_target());
    let (gi, target, cfg) = target?;
    let graph = &w.graphs[gi];
    let load = w.replay_load(seed, sizes);
    let serve_reps = (0..sizes.replay_reps)
        .map(|rep| {
            t.span("serve_replay", "replay", rep, 0, |t| {
                serve_rep(graph, &target, &cfg, &load, sizes, cores, rep, t)
            })
            .0
        })
        .collect::<Result<Vec<_>, _>>()?;

    let pm = |f: fn(&PlanRep) -> f64| median(&plan_reps.iter().map(f).collect::<Vec<_>>());
    let sm = |f: fn(&ServeRep) -> f64| median(&serve_reps.iter().map(f).collect::<Vec<_>>());
    let ms = |s: Option<f64>| s.map(|x| x * 1e3);
    let ratio = |a: usize, b: usize| Some(if b == 0 { 0.0 } else { a as f64 / b as f64 });
    let (Some(last), Some(served)) = (plan_reps.last(), serve_reps.last()) else {
        return Err("no replay repetitions".into());
    };
    let st = &last.stats;
    let tr = served.trace;
    let invocations = tr.invocations.max(1) as f64;
    let plan = pm(|r| r.plan);
    let serve = sm(|r| r.serve);
    let warm_ns = sm(|r| r.warm_ns);
    let out = [
        ("model.graph_build_ms", ms(pm(|r| r.graph_build))),
        ("profiler.profile_ms", ms(pm(|r| r.profile))),
        ("cuts.enumerate_ms", ms(pm(|r| r.enumerate))),
        ("cuts.count", Some(last.cuts as f64)),
        (
            "cuts.spine_span_hit_ratio",
            ratio(
                st.spine_span_hits,
                st.spine_span_hits + st.spine_spans_solved,
            ),
        ),
        ("miqp_build.columns_ms", ms(pm(|r| r.columns))),
        ("miqp_build.build_ms", ms(pm(|r| r.build))),
        (
            "colcache.hit_ratio",
            ratio(st.column_hits, st.column_hits + st.column_misses),
        ),
        (
            "colcache.node_memo_hit_ratio",
            ratio(st.node_memo_hits, st.node_memo_hits + st.node_memo_misses),
        ),
        ("solver.bb_ms", ms(pm(|r| r.bb))),
        ("solver.bb_nodes", Some(st.bb_nodes as f64)),
        ("solver.qp_relaxations", Some(st.qp_relaxations as f64)),
        (
            "solver.warm_start_ratio",
            ratio(st.warm_start_hits, st.qp_relaxations),
        ),
        ("solver.miqps_solved", Some(st.miqps_solved as f64)),
        ("solver.miqps_pruned", Some(st.miqps_pruned as f64)),
        ("optimizer.plan_ms", ms(plan)),
        ("optimizer.pass1_ms", ms(pm(|r| r.stats.pass1_s))),
        ("optimizer.pass2_ms", ms(pm(|r| r.stats.pass2_s))),
        ("optimizer.dag_search_ms", ms(pm(|r| r.stats.dag_search_s))),
        (
            "optimizer.unattributed_ms",
            ms(pm(|r| {
                r.plan - r.stats.pass1_s - r.stats.pass2_s - r.stats.dag_search_s
            })),
        ),
        ("optimizer.dag_trials", Some(st.dag_trials as f64)),
        (
            "optimizer.thread_speedup",
            pm(|r| r.plan_all_cores)
                .zip(plan)
                .map(|(all, one)| one / all),
        ),
        ("loadgen.arrivals_ms", ms(sm(|r| r.arrivals))),
        (
            "loadgen.fold_ms",
            ms(sm(|r| r.run - r.arrivals - r.deploy - r.serve)),
        ),
        ("coordinator.deploy_ms", ms(sm(|r| r.deploy))),
        ("coordinator.serve_trace_ms", ms(serve)),
        (
            "coordinator.ns_per_invocation",
            serve.map(|s| s * 1e9 / invocations),
        ),
        (
            "coordinator.thread_speedup",
            sm(|r| r.serve_all_cores)
                .zip(serve)
                .map(|(all, one)| one / all),
        ),
        (
            "coordinator.invoke_share",
            warm_ns
                .zip(serve)
                .map(|(ns, s)| invocations * ns / (s * 1e9)),
        ),
        (
            "coordinator.retained_kb_per_req",
            sm(|r| r.retained_kb_per_req),
        ),
        (
            "coordinator.useful_invocation_ratio",
            Some((tr.invocations - tr.retries) as f64 / invocations),
        ),
        ("faas.invoke_warm_ns", warm_ns),
        ("faas.invoke_cold_ns", sm(|r| r.cold_ns)),
        ("faas.store_put_get_ns", sm(|r| r.store_ns)),
        (
            "faas.cold_start_ratio",
            Some(tr.cold_starts as f64 / invocations),
        ),
    ];
    out.into_iter()
        .map(|(name, v)| {
            v.map(|v| (name, v))
                .ok_or_else(|| format!("{name}: no sample"))
        })
        .collect()
}

/// The planning requests the replay covers.
fn plan_requests(w: &Workload) -> Vec<&PlanRequest> {
    match w.kind {
        Kind::PlanMix => {
            let (chains, dags) = PLAN_MIX_REPLAYS;
            let pick =
                |dag: bool, n: usize| w.requests.iter().filter(move |r| r.dag == dag).take(n);
            pick(false, chains).chain(pick(true, dags)).collect()
        }
        _ => w.requests.iter().collect(),
    }
}

fn plan_rep(w: &Workload, cores: usize, rep: usize, t: &mut Tracer) -> Result<PlanRep, String> {
    let mut acc = PlanRep::default();
    for (j, r) in plan_requests(w).into_iter().enumerate() {
        let graph = &w.graphs[r.graph];
        let cfg = &r.cfg;
        let (built, s) = t.span("graph_build", "model", rep, j, |_| {
            sut::model(w.names[r.graph])
        });
        built?;
        acc.graph_build += s;
        let (profile, s) = t.span("profile", "profiler", rep, j, |_| {
            sut::profile(graph, cfg.batch_size)
        });
        acc.profile += s;
        let (cuts, s) = t.span("enumerate", "cuts", rep, j, |_| sut::cuts(&profile, cfg));
        acc.enumerate += s;
        acc.cuts += cuts.len();
        let (mut costs, s) = t.span("columns", "miqp_build", rep, j, |_| {
            sut::columns(&profile, &cuts, cfg)
        });
        acc.columns += s;
        costs.sort_by(|a, b| a.1.total_cmp(&b.1));
        costs.truncate(MIQP_TOP_CUTS);
        let (miqps, s) = t.span("build", "miqp_build", rep, j, |_| {
            costs
                .iter()
                .filter_map(|&(i, _)| sut::build_miqp(&profile, &cuts[i], cfg))
                .collect::<Vec<_>>()
        });
        acc.build += s;
        acc.bb += t
            .span("bb", "solver", rep, j, |_| {
                miqps
                    .iter()
                    .map(|m| sut::solve_miqp_bb(m, cfg))
                    .sum::<usize>()
            })
            .1;
        let (planned, s) = t.span("plan", "optimizer", rep, j, |_| {
            sut::plan(graph, cfg, r.dag)
        });
        acc.plan += s;
        acc.stats.add(&planned?.stats);
        let all = sut::with_threads(cfg, cores);
        let (planned, s) = t.span("plan_all_cores", "optimizer", rep, j, |_| {
            sut::plan(graph, &all, r.dag)
        });
        planned?;
        acc.plan_all_cores += s;
    }
    Ok(acc)
}

#[allow(clippy::too_many_arguments)]
fn serve_rep(
    graph: &LayerGraph,
    target: &Target,
    cfg: &AmpsConfig,
    load: &Load,
    sizes: &Sizes,
    cores: usize,
    rep: usize,
    t: &mut Tracer,
) -> Result<ServeRep, String> {
    let (arrivals, arrivals_s) = t.span("arrivals", "loadgen", rep, 0, |_| load.arrivals());
    let (deployed, deploy_s) = t.span("deploy", "coordinator", rep, 0, |_| {
        sut::deploy(graph, target, cfg)
    });
    let mut deployed = deployed?;
    let before = crate::proc_status_kb("VmRSS").unwrap_or(0);
    let ((trace, report), serve_s) = t.span("serve_trace", "coordinator", rep, 0, |_| {
        sut::serve_trace(&mut deployed, &arrivals)
    });
    // What the served trace keeps alive: the report and the platform's
    // settled store.
    let after = crate::proc_status_kb("VmRSS").unwrap_or(0);
    drop((report, deployed));
    let retained_kb_per_req = after.saturating_sub(before) as f64 / arrivals.len().max(1) as f64;
    if trace.requests != arrivals.len() {
        return Err("serve trace lost requests".into());
    }

    let mut parallel = sut::deploy(graph, target, &sut::with_serve_threads(cfg, cores))?;
    let ((trace_all, _), serve_all_s) =
        t.span("serve_trace_all_cores", "coordinator", rep, 0, |_| {
            sut::serve_trace(&mut parallel, &arrivals)
        });
    if trace_all != trace {
        return Err("serve trace differs between one thread and all cores".into());
    }

    let (report, run_s) = t.span("run", "loadgen", rep, 0, |_| match target {
        Target::Chain(p) => sut::run_chain(graph, p, cfg, load),
        Target::Dag(d) => sut::run_dag(graph, d, cfg, load),
    });
    report?;

    let n = sizes.micro_ops;
    let warm = t.span("invoke_warm", "faas", rep, 0, |_| {
        sut::invoke_ns(graph, target, cfg, n, true)
    });
    let cold = t.span("invoke_cold", "faas", rep, 0, |_| {
        sut::invoke_ns(graph, target, cfg, n, false)
    });
    let mut objects = target.object_bytes(graph);
    if objects.is_empty() {
        // A one-function plan writes no intermediate object; time the
        // store at the model's first layer boundary instead.
        objects.push(graph.cut_transfer_bytes(0));
    }
    let store = t.span("store_put_get", "faas", rep, 0, |_| {
        sut::store_put_get_ns(cfg, &objects, n)
    });
    Ok(ServeRep {
        arrivals: arrivals_s,
        deploy: deploy_s,
        serve: serve_s,
        serve_all_cores: serve_all_s,
        run: run_s,
        retained_kb_per_req,
        warm_ns: warm.0?,
        cold_ns: cold.0?,
        store_ns: store.0?,
        trace,
    })
}
