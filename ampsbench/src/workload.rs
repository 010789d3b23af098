//! The four workloads: how the seed shapes their inputs, what one timed
//! operation is, and which checks its outputs must pass.
//!
//! Every workload is an open loop in *simulated* time (arrivals are
//! generated up front and each request is timed from its due instant);
//! in wall time the program runs as a batch computation, so the
//! wall-clock metrics are per-operation times at fixed input sizes.

use crate::stats::{Digest, Rng};
use crate::sut::{self, AmpsConfig, LayerGraph, Load, LoadReport, Planned, Shape, Target};

/// A workload name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PlanMix,
    ServeChain,
    ServeDag,
    AdaptiveFaults,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::PlanMix,
        Kind::ServeChain,
        Kind::ServeDag,
        Kind::AdaptiveFaults,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::PlanMix => "plan-mix",
            Kind::ServeChain => "serve-chain",
            Kind::ServeDag => "serve-dag",
            Kind::AdaptiveFaults => "adaptive-faults",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// Input sizes. They are constants of the benchmark, not flags: the seed
/// is the only argument that shapes inputs.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Plan requests in one pass of the plan mix (capped at the mix size).
    pub plan_requests: usize,
    pub chain_requests: usize,
    pub dag_requests: usize,
    pub adaptive_requests: usize,
    /// Requests per epoch of the adaptive controller.
    pub epoch_requests: usize,
    /// Repetitions of each layer replay in a traced run.
    pub replay_reps: usize,
    /// Calls per invoke/storage microbenchmark in a traced run.
    pub micro_ops: usize,
}

impl Sizes {
    /// The measured sizes.
    pub const FULL: Sizes = Sizes {
        setup_reps: 5,
        plan_requests: usize::MAX,
        chain_requests: 100_000,
        dag_requests: 4_000,
        adaptive_requests: 10_000,
        epoch_requests: 100,
        replay_reps: 3,
        micro_ops: 20_000,
    };

    /// 1/1000 of the open-loop sizes (1/100 for the adaptive controller,
    /// which needs several epochs) and a two-request plan mix: the same
    /// code paths at test speed.
    pub const TINY: Sizes = Sizes {
        setup_reps: 1,
        plan_requests: 2,
        chain_requests: 100,
        dag_requests: 4,
        adaptive_requests: 100,
        epoch_requests: 10,
        replay_reps: 1,
        micro_ops: 20,
    };
}

/// Models of the plan mix with the SLO factors (× the model's own
/// unconstrained plan time) each is planned at; every model is also
/// planned without an SLO. Xception has no feasible plan at 0.9×.
const CHAIN_POINTS: [(&str, &[f64]); 5] = [
    ("mobilenet", &[0.9, 0.95, 1.0, 1.1, 1.25, 1.5]),
    ("resnet50", &[0.9, 0.95, 1.0, 1.1, 1.25, 1.5]),
    ("inception_v3", &[0.9, 0.95, 1.0, 1.1, 1.25, 1.5]),
    ("xception", &[0.95, 1.0, 1.1, 1.25, 1.5]),
    ("bert-w8", &[0.9, 0.95, 1.0, 1.1, 1.25, 1.5]),
];

/// Chain-vs-DAG requests at batch 64, SLO factors × the chain's own
/// unconstrained time there: Inception-v3 returns a DAG at every point,
/// ResNet-50 keeps the chain at 1.0× and branches above it.
const DAG_POINTS: [(&str, &[f64]); 2] = [
    ("inception_v3", &[1.0, 1.1, 1.25]),
    ("resnet50", &[1.0, 1.1, 1.25]),
];
const DAG_BATCH: u64 = 64;

/// Largest upward SLO jitter the seed draws per request: enough to move
/// some SLO-bound plans, so the simulated plan metrics are a function of
/// the seed, and small enough not to move which requests take the MIQP
/// path, which sets the plan-mix median (measured across ten seeds: a
/// 4% jitter spread the median by 5%). Upward keeps every point feasible.
const SLO_JITTER: f64 = 0.002;

/// Planner and serving threads of every timed call. On a shared machine
/// the second core's availability drifts independently of the first, and
/// the parallel planner's speculative pass 2 does an amount of work that
/// depends on thread timing, so multi-threaded wall times do not repeat
/// closely enough to gate. Thread scaling is the per-layer
/// `optimizer.thread_speedup` and `coordinator.thread_speedup`.
const THREADS: usize = 1;

/// SLO tiers of the adaptive controller, × the chain's unconstrained
/// time.
const TIERS: [f64; 3] = [1.0, 1.2, 1.5];

/// One planning call: which graph, under which configuration, and
/// whether the chain-vs-DAG planner runs.
#[derive(Debug, Clone)]
pub struct PlanRequest {
    pub graph: usize,
    pub cfg: AmpsConfig,
    pub dag: bool,
}

/// The serving side of a workload.
#[derive(Debug, Clone)]
pub struct Serve {
    pub cfg: AmpsConfig,
    pub load: Load,
    pub plans: Plans,
}

/// What a serving workload serves.
#[derive(Debug, Clone)]
pub enum Plans {
    /// One plan, deployed once per operation.
    Fixed(Target),
    /// The adaptive controller's plans, from the sweep inside every
    /// operation over these SLO tiers (seconds), switched per epoch.
    Adaptive {
        tiers: Vec<f64>,
        epoch_requests: usize,
    },
}

/// A set-up workload: everything an operation needs.
#[derive(Debug, Clone)]
pub struct Workload {
    pub kind: Kind,
    /// Model names (as `sut::model` takes them), parallel to `graphs`.
    pub names: Vec<&'static str>,
    pub graphs: Vec<LayerGraph>,
    /// Plan-mix: the requests, one per operation. Serving workloads: the
    /// planning calls behind the served plans, replayed by traced runs.
    pub requests: Vec<PlanRequest>,
    pub serve: Option<Serve>,
}

/// The raw result of one operation.
pub enum Output {
    Plan(Planned),
    Load(LoadReport),
}

/// The checked, summarized result of one operation.
#[derive(Debug, Clone, Copy)]
pub struct OpOut {
    pub digest: Digest,
    /// Predicted (plan-mix) or simulated (serving) dollars.
    pub dollars: f64,
    /// Inference requests the dollars cover.
    pub requests: u64,
    pub latency_sum_s: f64,
    pub latencies: u64,
}

/// Builds a workload's inputs from `seed`.
pub fn setup(kind: Kind, seed: u64, sizes: &Sizes) -> Result<Workload, String> {
    match kind {
        Kind::PlanMix => setup_plan_mix(seed, sizes),
        Kind::ServeChain => {
            let graph = sut::model("resnet50")?;
            let cfg = sut::config(1, THREADS, THREADS);
            // The chain-vs-DAG planner decides; at batch 1 it keeps the
            // chain, which is served through the chain engine.
            let req = PlanRequest {
                graph: 0,
                cfg: cfg.clone(),
                dag: true,
            };
            let planned = sut::plan(&graph, &cfg, true)?;
            sut::check_plan(&graph, &cfg, &planned)?;
            let serve = Serve {
                cfg,
                load: Load::new(Shape::MultiTenant, 200.0, sizes.chain_requests, seed),
                plans: Plans::Fixed(Target::Chain(planned.chain)),
            };
            finish_serve(kind, "resnet50", graph, vec![req], serve)
        }
        Kind::ServeDag => {
            let graph = sut::model("inception_v3")?;
            let cfg = sut::config(DAG_BATCH, THREADS, THREADS);
            let free = free_time(&graph, &cfg)?;
            let req = PlanRequest {
                graph: 0,
                cfg: sut::with_slo(&cfg, Some(free)),
                dag: true,
            };
            let planned = sut::plan(&graph, &req.cfg, true)?;
            sut::check_plan(&graph, &req.cfg, &planned)?;
            let dag = planned
                .dag
                .ok_or("inception_v3 at batch 64 returned no branch-parallel plan")?;
            let serve = Serve {
                cfg,
                load: Load::new(Shape::Poisson, 100.0, sizes.dag_requests, seed),
                plans: Plans::Fixed(Target::Dag(dag)),
            };
            finish_serve(kind, "inception_v3", graph, vec![req], serve)
        }
        Kind::AdaptiveFaults => {
            let graph = sut::model("resnet50")?;
            let base = sut::config(DAG_BATCH, THREADS, THREADS);
            let free = free_time(&graph, &base)?;
            let tiers: Vec<f64> = TIERS.iter().map(|f| f * free).collect();
            let cfg = sut::with_failures(&base, 0.005, seed, 0.01, 8);
            let requests = tiers
                .iter()
                .map(|&slo| PlanRequest {
                    graph: 0,
                    cfg: sut::with_slo(&cfg, Some(slo)),
                    dag: true,
                })
                .collect();
            let serve = Serve {
                cfg,
                load: Load::new(Shape::FlashCrowd, 100.0, sizes.adaptive_requests, seed),
                plans: Plans::Adaptive {
                    tiers,
                    epoch_requests: sizes.epoch_requests,
                },
            };
            finish_serve(kind, "resnet50", graph, requests, serve)
        }
    }
}

/// Predicted time of the unconstrained chain plan: the anchor SLOs are
/// scaled from.
fn free_time(graph: &LayerGraph, cfg: &AmpsConfig) -> Result<f64, String> {
    Ok(sut::plan(graph, &sut::with_slo(cfg, None), false)?
        .chain
        .predicted_time_s)
}

fn setup_plan_mix(seed: u64, sizes: &Sizes) -> Result<Workload, String> {
    let mut rng = Rng::new(seed);
    let mut names = Vec::new();
    let mut graphs = Vec::new();
    let mut requests = Vec::new();
    let mut add =
        |name: &'static str, batch: u64, factors: &[f64], dag: bool| -> Result<(), String> {
            let graph = match names.iter().position(|&n| n == name) {
                Some(i) => i,
                None => {
                    names.push(name);
                    graphs.push(sut::model(name)?);
                    graphs.len() - 1
                }
            };
            let cfg = sut::config(batch, THREADS, THREADS);
            let free = free_time(&graphs[graph], &cfg)?;
            let mut slos: Vec<Option<f64>> = factors
                .iter()
                .map(|f| Some(free * f * (1.0 + SLO_JITTER * rng.unit())))
                .collect();
            if !dag {
                slos.push(None);
            }
            for slo in slos {
                requests.push(PlanRequest {
                    graph,
                    cfg: sut::with_slo(&cfg, slo),
                    dag,
                });
            }
            Ok(())
        };
    for (name, factors) in CHAIN_POINTS {
        add(name, 1, factors, false)?;
    }
    for (name, factors) in DAG_POINTS {
        add(name, DAG_BATCH, factors, true)?;
    }
    rng.shuffle(&mut requests);
    requests.truncate(sizes.plan_requests);
    Ok(Workload {
        kind: Kind::PlanMix,
        names,
        graphs,
        requests,
        serve: None,
    })
}

/// Validates a serving workload's arrivals and first deployment.
fn finish_serve(
    kind: Kind,
    name: &'static str,
    graph: LayerGraph,
    requests: Vec<PlanRequest>,
    serve: Serve,
) -> Result<Workload, String> {
    let arrivals = serve.load.arrivals();
    if arrivals.len() != serve.load.requests() || !arrivals.windows(2).all(|w| w[0] <= w[1]) {
        return Err("arrivals are not a sorted trace of the requested size".into());
    }
    if let Plans::Fixed(t) = &serve.plans {
        sut::deploy(&graph, t, &serve.cfg)?;
    }
    Ok(Workload {
        kind,
        names: vec![name],
        graphs: vec![graph],
        requests,
        serve: Some(serve),
    })
}

impl Workload {
    /// Operations in one deterministic pass: operation `i` and `i + pass`
    /// run the same inputs and must produce bit-identical outputs.
    pub fn pass_len(&self) -> usize {
        match self.serve {
            Some(_) => 1,
            None => self.requests.len(),
        }
    }

    /// Runs operation `i`: the timed call into the system.
    pub fn run_op(&self, i: usize) -> Result<Output, String> {
        let Some(s) = &self.serve else {
            let r = &self.requests[i % self.requests.len()];
            return sut::plan(&self.graphs[r.graph], &r.cfg, r.dag).map(Output::Plan);
        };
        let graph = &self.graphs[0];
        let report = match &s.plans {
            Plans::Fixed(Target::Chain(p)) => sut::run_chain(graph, p, &s.cfg, &s.load)?,
            Plans::Fixed(Target::Dag(d)) => sut::run_dag(graph, d, &s.cfg, &s.load)?,
            Plans::Adaptive {
                tiers,
                epoch_requests,
            } => sut::run_adaptive(graph, &s.cfg, &s.load, *epoch_requests, tiers)?,
        };
        Ok(Output::Load(report))
    }

    /// Checks operation `i`'s output and summarizes it.
    pub fn check_op(&self, i: usize, out: &Output) -> Result<OpOut, String> {
        match out {
            Output::Plan(p) => {
                let r = &self.requests[i % self.requests.len()];
                sut::check_plan(&self.graphs[r.graph], &r.cfg, p)?;
                let (time, cost) = p.effective();
                Ok(OpOut {
                    digest: sut::plan_digest(p),
                    dollars: cost,
                    requests: 1,
                    latency_sum_s: time,
                    latencies: 1,
                })
            }
            Output::Load(report) => {
                let s = sut::served(report);
                let attempted = self.serve.as_ref().map_or(0, |s| s.load.requests());
                if s.successes + s.failures != attempted {
                    return Err(format!(
                        "{} ok + {} failed != {attempted} attempted",
                        s.successes, s.failures
                    ));
                }
                if !(s.latencies_valid && s.dollars.is_finite() && s.dollars > 0.0) {
                    return Err("non-finite latency or dollars".into());
                }
                // The cache is seeded by a sweep over every tier, so the
                // controller never plans on the serving path; the flash
                // crowd must move it off its first tier.
                if self.kind == Kind::AdaptiveFaults && (s.plan_misses != 0 || s.replans == 0) {
                    return Err(format!(
                        "{} plan-cache misses and {} re-plans",
                        s.plan_misses, s.replans
                    ));
                }
                Ok(OpOut {
                    digest: s.digest,
                    dollars: s.dollars,
                    requests: attempted as u64,
                    latency_sum_s: s.latency_sum_s,
                    latencies: s.successes as u64,
                })
            }
        }
    }

    /// The same inputs with the planner and the serving engine on all
    /// `cores`. The determinism contract says every output is unchanged.
    pub fn on_cores(&self, cores: usize) -> Workload {
        let mut w = self.clone();
        for r in &mut w.requests {
            r.cfg = sut::with_threads(&r.cfg, cores);
        }
        if let Some(s) = &mut w.serve {
            s.cfg = sut::with_serve_threads(&sut::with_threads(&s.cfg, cores), cores);
        }
        w
    }

    /// The plan a traced run replays the serving layers on: the served
    /// plan, or for the adaptive workload its loosest tier's plan, or for
    /// the plan mix the first request's plan.
    /// Returns the graph index, the plan and the serving configuration.
    pub fn replay_target(&self) -> Result<(usize, Target, AmpsConfig), String> {
        let (r, cfg) = match &self.serve {
            Some(Serve {
                plans: Plans::Fixed(t),
                cfg,
                ..
            }) => return Ok((0, t.clone(), cfg.clone())),
            // Tiers ascend, so the last request is the loosest tier.
            Some(s) => (self.requests.last(), s.cfg.clone()),
            None => {
                let r = self.requests.first();
                (
                    r,
                    r.map(|r| sut::with_slo(&r.cfg, None)).unwrap_or_default(),
                )
            }
        };
        let r = r.ok_or("no planning request to replay")?;
        let graph = &self.graphs[r.graph];
        let planned = sut::plan(graph, &r.cfg, r.dag)?;
        Ok((
            r.graph,
            Target::Dag(sut::effective_dag(graph, &planned)),
            cfg,
        ))
    }

    /// The arrivals a traced run replays the serving layers on: the
    /// workload's own, or for the plan mix a Poisson trace at 100 rps of
    /// the DAG workload's size.
    pub fn replay_load(&self, seed: u64, sizes: &Sizes) -> Load {
        match &self.serve {
            Some(s) => s.load.clone(),
            None => Load::new(Shape::Poisson, 100.0, sizes.dag_requests, seed),
        }
    }
}

/// Simulated metrics of one deterministic pass: dollars per 1000
/// inference requests and mean latency over successful requests.
pub fn sim_metrics(pass: &[OpOut]) -> (f64, f64) {
    let dollars: f64 = pass.iter().map(|o| o.dollars).sum();
    let requests: u64 = pass.iter().map(|o| o.requests).sum();
    let latency: f64 = pass.iter().map(|o| o.latency_sum_s).sum();
    let n: u64 = pass.iter().map(|o| o.latencies).sum();
    (
        1000.0 * dollars / requests.max(1) as f64,
        latency / n.max(1) as f64,
    )
}
