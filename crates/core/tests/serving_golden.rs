//! Golden-value pins of the serving engine on chain plans.
//!
//! Every test serves a fixed chain plan through one public coordinator
//! entry point and folds *every* field of the resulting report — plus
//! the platform's own books — into a 64-bit FNV-1a digest of the values'
//! `to_bits`. The expected digests were recorded from the original
//! chain-specific engine; the one DAG engine that now serves chains
//! (through `DagPlan::from_chain`) must reproduce them bit for bit.
//!
//! The per-node `TraceReport::dag_nodes` accounting is excluded: the
//! chain engine had no node axis, so there is nothing to pin it against
//! (it is checked for thread invariance in `serving_determinism.rs`).
//!
//! The `merged_pools_*` pins cover what a 64-lane trace leaves behind on
//! the base platform once its shards are absorbed: the merged warm pools
//! (through their instance counts, an idle settlement and a follow-up
//! batch that reuses them), for a branch-parallel DAG and a faulted,
//! pre-warmed chain. They were recorded with the lane-by-lane pool merge.

mod common;

use ampsinf_core::coordinator::{
    BatchReport, JobReport, PipelineReport, RequestSummary, ServeError, TraceReport,
};
use ampsinf_core::{AmpsConfig, Coordinator, ExecutionPlan, Optimizer};
use ampsinf_faas::perf::DurationBreakdown;
use ampsinf_faas::platform::{FailedInvocation, Platform};
use ampsinf_faas::{FaultPlan, InvocationOutcome, StoreKind, WarmPoolPolicy};
use ampsinf_model::{zoo, LayerGraph};
use common::Digest;

impl Digest {
    fn breakdown(&mut self, b: &DurationBreakdown) {
        for x in [
            b.cold_s,
            b.import_s,
            b.load_s,
            b.compute_s,
            b.transfer_s,
            b.fixed_s,
        ] {
            self.f(x);
        }
    }

    fn outcome(&mut self, o: &InvocationOutcome) {
        self.f(o.start);
        self.f(o.end);
        self.breakdown(&o.breakdown);
        self.f(o.billed_s);
        self.f(o.dollars);
        self.word(u64::from(o.warm));
        self.f(o.storage_retry_s);
    }

    fn failed(&mut self, f: &FailedInvocation) {
        self.text(&format!("{:?}", f.reason));
        self.f(f.start);
        self.f(f.end);
        self.breakdown(&f.breakdown);
        self.f(f.billed_s);
        self.f(f.dollars);
        self.word(u64::from(f.warm));
    }

    fn job(&mut self, j: &JobReport) {
        for x in [
            j.deploy_s,
            j.load_s,
            j.import_s,
            j.predict_s,
            j.inference_s,
            j.e2e_s,
            j.dollars,
            j.wasted_s,
            j.wasted_dollars,
        ] {
            self.f(x);
        }
        self.word(j.outcomes.len() as u64);
        for o in &j.outcomes {
            self.outcome(o);
        }
        self.word(j.retries.len() as u64);
        for r in &j.retries {
            self.word(r.lambda as u64);
            self.failed(&r.failed);
            self.f(r.backoff_s);
        }
    }

    fn error(&mut self, e: &ServeError) {
        self.text(&format!("{:?}", e.reason));
        self.word(e.lambda as u64);
        self.word(u64::from(e.attempts));
        self.f(e.elapsed_s);
        self.f(e.dollars);
    }

    fn batch(&mut self, b: &BatchReport) {
        self.f(b.completion_s);
        self.f(b.e2e_s);
        self.f(b.dollars);
        self.f(b.wasted_s);
        self.f(b.wasted_dollars);
        self.word(b.jobs.len() as u64);
        for j in &b.jobs {
            self.job(j);
        }
        self.word(b.failures.len() as u64);
        for f in &b.failures {
            self.word(f.image as u64);
            self.error(&f.error);
        }
    }

    fn summary(&mut self, r: &RequestSummary) {
        self.f(r.arrival_s);
        self.f(r.latency_s);
        self.f(r.dollars);
        self.word(u64::from(r.retries));
        self.f(r.wasted_s);
        self.f(r.wasted_dollars);
        self.word(u64::from(r.ok));
    }

    fn stages(&mut self, stations: usize, busy: &[f64], stall: &[f64], span_s: f64) {
        self.word(stations as u64);
        self.word(busy.len() as u64);
        for &x in busy.iter().chain(stall) {
            self.f(x);
        }
        self.f(span_s);
    }

    fn pipeline(&mut self, p: &PipelineReport) {
        self.f(p.completion_s);
        self.f(p.e2e_s);
        self.f(p.dollars);
        self.word(p.failed as u64);
        self.word(p.requests.len() as u64);
        for r in &p.requests {
            self.summary(r);
        }
        let s = &p.stats;
        self.stages(
            s.stations_per_stage,
            &s.stage_busy_s,
            &s.stage_stall_s,
            s.span_s,
        );
        self.f(p.warm_idle_s);
    }

    /// Every field of a trace report except `dag_nodes`.
    fn trace(&mut self, t: &TraceReport) {
        self.word(t.requests.len() as u64);
        for r in &t.requests {
            self.summary(r);
        }
        self.f(t.dollars);
        self.f(t.settled_dollars);
        self.f(t.last_completion_s);
        self.word(t.cold_starts as u64);
        self.word(t.peak_instances as u64);
        self.word(t.failures as u64);
        self.word(t.invocations);
        self.word(t.pre_warmed as u64);
        self.f(t.idle_s);
        self.f(t.idle_dollars);
        match &t.pipeline {
            Some(s) => {
                self.word(1);
                self.stages(
                    s.stations_per_stage,
                    &s.stage_busy_s,
                    &s.stage_stall_s,
                    s.span_s,
                );
            }
            None => self.word(0),
        }
    }

    /// The platform's own books after a run.
    fn books(&mut self, p: &Platform) {
        self.f(p.total_cost());
        self.word(p.invocation_count());
    }
}

/// ResNet-50's 4-stage bucket-scan chain: enough stages that retries,
/// station waits and per-stage accounting all show up.
fn chain4() -> (LayerGraph, ExecutionPlan) {
    let g = zoo::resnet50();
    let plan = ampsinf_core::baselines::b4_bucket_scan(&g, &AmpsConfig::default(), 4).unwrap();
    assert!(plan.num_lambdas() >= 3, "need a multi-stage plan: {plan}");
    (g, plan)
}

/// ResNet-50's unconstrained optimum (the benchmark's 2-partition chain).
fn chain2() -> (LayerGraph, ExecutionPlan) {
    let g = zoo::resnet50();
    let plan = Optimizer::new(AmpsConfig::default())
        .optimize(&g)
        .unwrap()
        .plan;
    assert_eq!(plan.num_lambdas(), 2);
    (g, plan)
}

fn faulty() -> AmpsConfig {
    AmpsConfig::default()
        .with_retries(2)
        .with_faults(FaultPlan::uniform(0.25, 17))
}

/// Faults, a flaky store and a billed provisioned pool at once.
fn disturbed() -> AmpsConfig {
    let mut cfg = faulty().with_warm_pool(WarmPoolPolicy::provisioned(2));
    cfg.store = StoreKind::flaky_s3(0.2);
    cfg
}

fn assert_digest(label: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{label}: digest {got:#018x}, pinned {want:#018x}"
    );
}

#[test]
fn serve_one_golden_under_faults() {
    let (g, plan) = chain4();
    let coord = Coordinator::new(faulty());
    let mut platform = coord.platform();
    let dep = coord.deploy(&mut platform, &g, &plan).unwrap();
    let mut d = Digest::new();
    let (mut retried, mut failed) = (0, 0);
    for i in 0..10 {
        match coord.serve_one(&mut platform, &dep, 3.0 * i as f64) {
            Ok(job) => {
                retried += job.retries.len();
                d.word(0);
                d.job(&job);
            }
            Err(e) => {
                failed += 1;
                d.word(1);
                d.error(&e);
            }
        }
    }
    assert!(retried > 0 && failed > 0, "faults must retry and kill");
    d.books(&platform);
    assert_digest("serve_one", d.0, 0xc3dc_de24_3a3e_01b6);
}

#[test]
fn serve_one_golden_clean() {
    let (g, plan) = chain2();
    let coord = Coordinator::new(AmpsConfig::default());
    let mut platform = coord.platform();
    let dep = coord.deploy(&mut platform, &g, &plan).unwrap();
    let job = coord.serve_one(&mut platform, &dep, 0.0).unwrap();
    let mut d = Digest::new();
    d.f(dep.deploy_s);
    d.job(&job);
    d.f(platform.settle_storage(1000.0));
    d.books(&platform);
    assert_digest("serve_one clean", d.0, 0xaaea_2a24_b46f_55e5);
}

fn parallel_digest(lanes: usize) -> u64 {
    let (g, plan) = chain4();
    let coord = Coordinator::new(faulty().with_serve_lanes(lanes).with_serve_threads(2));
    let mut platform = coord.platform();
    let dep = coord.deploy(&mut platform, &g, &plan).unwrap();
    let batch = coord.serve_parallel(&mut platform, &dep, 12, 0.0);
    assert!(batch.failed() > 0 && batch.succeeded() > 0);
    let mut d = Digest::new();
    d.batch(&batch);
    d.books(&platform);
    d.0
}

#[test]
fn serve_parallel_golden_one_lane() {
    assert_digest(
        "serve_parallel 1 lane",
        parallel_digest(1),
        0x04f5_6b38_5ae0_9b8c,
    );
}

#[test]
fn serve_parallel_golden_four_lanes() {
    assert_digest(
        "serve_parallel 4 lanes",
        parallel_digest(4),
        0x4bec_17c8_9501_0453,
    );
}

#[test]
fn serve_sequential_golden() {
    let (g, plan) = chain4();
    let coord = Coordinator::new(faulty());
    let mut platform = coord.platform();
    let dep = coord.deploy(&mut platform, &g, &plan).unwrap();
    let batch = coord.serve_sequential(&mut platform, &dep, 10, 0.0);
    assert!(batch.failed() > 0 && batch.succeeded() > 0);
    let mut d = Digest::new();
    d.batch(&batch);
    d.books(&platform);
    assert_digest("serve_sequential", d.0, 0xfe32_31f9_afa0_412a);
}

#[test]
fn serve_pipelined_golden() {
    let (g, plan) = chain4();
    let coord = Coordinator::new(faulty().with_pipeline(2));
    let mut platform = coord.platform();
    let dep = coord.deploy(&mut platform, &g, &plan).unwrap();
    let report = coord.serve_pipelined(&mut platform, &dep, 12, 0.0);
    assert!(report.failed > 0 && report.stats.stall_s() > 0.0);
    let mut d = Digest::new();
    d.pipeline(&report);
    d.books(&platform);
    assert_digest("serve_pipelined", d.0, 0xa6d3_b776_7a95_beb9);
}

/// A burst at the front (scale-out, station queueing) followed by
/// stretching gaps (warm reuse, keep-alive lapses).
fn arrivals() -> Vec<f64> {
    (0..24)
        .map(|i| {
            if i < 8 {
                0.05 * i as f64
            } else {
                (i * i) as f64
            }
        })
        .collect()
}

/// Serves [`arrivals`] on `plan` at 1 and 8 threads (4 lanes), checks
/// the two digests agree, and returns it.
fn trace_digest(cfg: AmpsConfig, g: &LayerGraph, plan: &ExecutionPlan) -> u64 {
    let arrivals = arrivals();
    let digests: Vec<u64> = [1usize, 8]
        .into_iter()
        .map(|threads| {
            let coord =
                Coordinator::new(cfg.clone().with_serve_lanes(4).with_serve_threads(threads));
            let mut platform = coord.platform();
            let dep = coord.deploy(&mut platform, g, plan).unwrap();
            let trace = if cfg.pipeline_depth > 0 {
                coord.serve_trace_pipelined(&mut platform, &dep, &arrivals)
            } else {
                coord.serve_trace(&mut platform, &dep, &arrivals)
            };
            let mut d = Digest::new();
            d.trace(&trace);
            d.books(&platform);
            d.0
        })
        .collect();
    assert_eq!(digests[0], digests[1], "thread counts disagree");
    digests[0]
}

#[test]
fn serve_trace_golden_clean() {
    let (g, plan) = chain2();
    assert_digest(
        "serve_trace clean",
        trace_digest(AmpsConfig::default(), &g, &plan),
        0x3d0b_22d2_64e2_f751,
    );
}

#[test]
fn serve_trace_golden_disturbed() {
    let (g, plan) = chain4();
    assert_digest(
        "serve_trace disturbed",
        trace_digest(disturbed(), &g, &plan),
        0x20a8_6600_9ce5_00fe,
    );
}

#[test]
fn serve_trace_pipelined_golden_clean() {
    let (g, plan) = chain4();
    assert_digest(
        "serve_trace_pipelined clean",
        trace_digest(AmpsConfig::default().with_pipeline(2), &g, &plan),
        0x7697_3c14_3030_d43f,
    );
}

#[test]
fn serve_trace_pipelined_golden_disturbed() {
    let (g, plan) = chain4();
    assert_digest(
        "serve_trace_pipelined disturbed",
        trace_digest(disturbed().with_pipeline(1), &g, &plan),
        0xb202_f81f_251c_cef0,
    );
}

#[test]
fn serve_trace_golden_multi_tensor_cuts() {
    // Inception-v3's cuts can carry several tensors at once, so the
    // lowered DAG's object bytes must equal each partition's own
    // input/output tensor sizes exactly.
    let g = zoo::inception_v3();
    let plan = ampsinf_core::baselines::b4_bucket_scan(&g, &AmpsConfig::default(), 4).unwrap();
    assert!(plan.num_lambdas() >= 3, "need a multi-stage plan: {plan}");
    assert_digest(
        "serve_trace inception",
        trace_digest(AmpsConfig::default(), &g, &plan),
        0xfdd2_8a9a_f72a_8ec4,
    );
}

/// `n` Poisson arrivals at `rate_rps` from a fixed seed.
fn poisson_arrivals(n: usize, rate_rps: f64, seed: u64) -> Vec<f64> {
    let mut rng = ampsinf_faas::SmallRng::seed_from_u64(seed);
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            t += -rng.next_f64_open().ln() / rate_rps;
            t
        })
        .collect()
}

/// Serves `arrivals` on 64 lanes, then pins the merged platform itself:
/// every function's instance count and cold starts, a 100-request
/// sequential follow-up and the bits of a warm-pool settlement after it.
/// The follow-up starts mid-trace, while part of each merged pool is
/// still busy, so which instances it finds free and reuses depends on
/// the pool's order as well as its contents.
fn merged_platform_digest(
    cfg: AmpsConfig,
    deploy: impl Fn(&Coordinator, &mut Platform) -> ampsinf_core::coordinator::Deployment,
    arrivals: &[f64],
) -> u64 {
    let coord = Coordinator::new(cfg.with_serve_lanes(64).with_serve_threads(2));
    let mut platform = coord.platform();
    let dep = deploy(&coord, &mut platform);
    let trace = coord.serve_trace(&mut platform, &dep, arrivals);
    let mut d = Digest::new();
    d.trace(&trace);
    for &f in &dep.functions {
        d.word(platform.instance_count(f) as u64);
        d.word(platform.cold_starts(f) as u64);
    }
    let follow_up = coord.serve_sequential(&mut platform, &dep, 100, arrivals[arrivals.len() / 2]);
    assert!(
        follow_up
            .jobs
            .iter()
            .any(|j| j.outcomes.iter().all(|o| o.warm)),
        "the follow-up must reuse merged warm instances"
    );
    d.batch(&follow_up);
    let (idle_s, idle_dollars) = platform.settle_warm_pool(trace.last_completion_s + 30.0);
    d.f(idle_s);
    d.f(idle_dollars);
    d.books(&platform);
    d.0
}

#[test]
fn merged_pools_golden_inception_dag() {
    let cfg = AmpsConfig {
        batch_size: 64,
        ..AmpsConfig::default()
    };
    let g = zoo::inception_v3();
    let plan = Optimizer::new(cfg.clone())
        .optimize_dag(&g)
        .unwrap()
        .dag
        .expect("inception_v3 at batch 64 has a branch-parallel plan");
    let digest = merged_platform_digest(
        cfg,
        |coord, platform| coord.deploy_dag(platform, &g, &plan).unwrap(),
        &poisson_arrivals(1000, 100.0, 97),
    );
    assert_digest("merged pools inception DAG", digest, 0xd27a_80cf_1461_19c3);
}

#[test]
fn merged_pools_golden_faulted_prewarmed_chain() {
    let (g, plan) = chain2();
    let digest = merged_platform_digest(
        // A short billed keep-alive: whether the follow-up's pick is
        // still warm depends on taking the latest free instance.
        faulty().with_warm_pool(WarmPoolPolicy {
            pre_warm: 96,
            keep_alive_s: 2.0,
            bill_idle: true,
        }),
        |coord, platform| coord.deploy(platform, &g, &plan).unwrap(),
        &poisson_arrivals(2000, 200.0, 5),
    );
    assert_digest("merged pools faulted chain", digest, 0x694e_9525_0149_8bd7);
}
