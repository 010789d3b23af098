//! Golden-value pins of plan pricing.
//!
//! Every case folds the `to_bits` of what the closed-form pricing returns
//! — a segment's duration, dollars and phase breakdown, a plan's
//! predicted time and cost, its per-stage durations, or the error text of
//! a configuration that cannot run — into a 64-bit FNV-1a digest:
//!
//! * segment evaluations over sampled segments × memory blocks of three
//!   zoo models, at batch 1 and 64, on S3 and on the fast store, in all
//!   four storage wirings (the image arrives with the trigger or is read
//!   from storage; the output is returned or written to storage);
//! * `baselines::predict` on the optimizer's plans under batch-1, -8 and
//!   -64 profiles, with each plan's per-stage durations;
//! * the plans, predictions and per-stage durations of Baselines 1–4.
//!
//! The digests were recorded while chains were priced by their own
//! evaluator with first/last flags; pricing a chain as the DAG it is
//! deployed as must reproduce them bit for bit.

mod common;

use ampsinf_core::baselines::{self, b1_random, b2_greedy_max, b3_optimal, b4_bucket_scan};
use ampsinf_core::{AmpsConfig, DagPlan, ExecutionPlan, Optimizer};
use ampsinf_faas::StoreKind;
use ampsinf_model::{zoo, LayerGraph};
use ampsinf_profiler::{quick_eval_node, EvalError, Profile, SegmentEval};
use common::Digest;

/// Segment `[start, end]` at `memory_mb`, priced with an explicit
/// storage wiring: `first` — the image arrives with the trigger (no GET);
/// `last` — the output is returned in the response (no PUT).
#[allow(clippy::too_many_arguments)]
fn wired_eval(
    profile: &Profile,
    start: usize,
    end: usize,
    memory_mb: u32,
    cfg: &AmpsConfig,
    first: bool,
    last: bool,
) -> Result<SegmentEval, EvalError> {
    let read = [profile.input_bytes(start)];
    let write = [profile.output_bytes(end)];
    quick_eval_node(
        profile,
        start,
        end,
        memory_mb,
        &cfg.quotas,
        &cfg.prices,
        &cfg.perf,
        &cfg.store,
        if first { &[] } else { &read },
        if last { &[] } else { &write },
    )
}

/// Per-stage predicted durations of a chain plan: the node times of the
/// DAG it deploys as.
fn stage_times(profile: &Profile, plan: &ExecutionPlan, cfg: &AmpsConfig) -> Option<Vec<f64>> {
    let dag = DagPlan::from_chain(plan, |k| profile.output_bytes(k));
    baselines::dag_node_times(profile, &dag, cfg)
}

impl Digest {
    fn eval(&mut self, r: &Result<SegmentEval, EvalError>) {
        match r {
            Ok(e) => {
                self.word(1);
                self.f(e.duration_s);
                self.f(e.dollars);
                let b = &e.breakdown;
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
            Err(e) => {
                self.word(0);
                self.text(&e.to_string());
            }
        }
    }

    fn plan(&mut self, plan: Option<&ExecutionPlan>) {
        let Some(p) = plan else {
            self.word(0);
            return;
        };
        self.word(1);
        self.text(&p.model);
        self.word(p.partitions.len() as u64);
        for part in &p.partitions {
            self.word(part.start as u64);
            self.word(part.end as u64);
            self.word(u64::from(part.memory_mb));
        }
        self.f(p.predicted_time_s);
        self.f(p.predicted_cost);
    }

    fn times(&mut self, times: Option<Vec<f64>>) {
        let Some(ts) = times else {
            self.word(0);
            return;
        };
        self.word(1);
        self.word(ts.len() as u64);
        for t in ts {
            self.f(t);
        }
    }
}

fn models() -> [LayerGraph; 3] {
    [zoo::mobilenet_v1(), zoo::resnet50(), zoo::inception_v3()]
}

/// Compares `(label, digest)` rows against `golden`, printing the whole
/// table of current values on any mismatch.
fn check(what: &str, got: &[(String, u64)], golden: &[(&str, u64)]) {
    let table: String = got
        .iter()
        .map(|(l, d)| format!("    (\"{l}\", {d:#018x}),\n"))
        .collect();
    assert!(
        got.len() == golden.len()
            && got
                .iter()
                .zip(golden)
                .all(|((l, d), (gl, gd))| l == gl && d == gd),
        "{what} digests moved; now:\n{table}"
    );
}

/// Sampled segments of an `n`-layer model: every 1/12th boundary as a
/// start, every 1/12th boundary after it (and the last layer) as an end,
/// plus a single-layer segment at each start.
fn sampled_segments(n: usize) -> Vec<(usize, usize)> {
    let step = (n / 12).max(1);
    let mut out = Vec::new();
    for s in (0..n).step_by(step) {
        out.push((s, s));
        let mut ends: Vec<usize> = (s + step..n).step_by(step).collect();
        ends.push(n - 1);
        ends.dedup();
        for e in ends {
            if e > s {
                out.push((s, e));
            }
        }
    }
    out
}

/// Memory blocks probed per segment; 1000 MB is not an allocatable block.
const MEMORIES: [u32; 7] = [128, 512, 1000, 1024, 1536, 2048, 3008];

const SEGMENT_GOLDEN: [(&str, u64); 12] = [
    ("mobilenet/1/s3", 0x149c76a5fc0b8b75),
    ("mobilenet/1/fast", 0xfd53e633ea1c820a),
    ("mobilenet/64/s3", 0xd3d58d66c690ae29),
    ("mobilenet/64/fast", 0xfd56401a49320472),
    ("resnet50/1/s3", 0x3dad7feffef1d479),
    ("resnet50/1/fast", 0x33b77c8a481d1d49),
    ("resnet50/64/s3", 0x3804aec791e88109),
    ("resnet50/64/fast", 0x169ca83397ade37f),
    ("inception_v3/1/s3", 0xc65cbdc753f118de),
    ("inception_v3/1/fast", 0xb8e599901ffb28d4),
    ("inception_v3/64/s3", 0xa207f8c087c0bab1),
    ("inception_v3/64/fast", 0x9ba7082bbb6782af),
];

#[test]
fn segment_evaluations_match_golden_digests() {
    let mut got = Vec::new();
    for g in models() {
        let segments = sampled_segments(g.num_layers());
        for batch in [1u64, 64] {
            let profile = Profile::batched(&g, batch);
            for (store_label, store) in [("s3", StoreKind::s3()), ("fast", StoreKind::fast_store())]
            {
                let cfg = AmpsConfig {
                    store,
                    ..AmpsConfig::default()
                };
                let mut d = Digest::new();
                for &(s, e) in &segments {
                    for mem in MEMORIES {
                        for (first, last) in
                            [(true, true), (true, false), (false, true), (false, false)]
                        {
                            d.eval(&wired_eval(&profile, s, e, mem, &cfg, first, last));
                        }
                    }
                }
                got.push((format!("{}/{batch}/{store_label}", g.name), d.0));
            }
        }
    }
    check("segment evaluation", &got, &SEGMENT_GOLDEN);
}

/// Re-recorded when the chain's tolerance spending moved onto the
/// block-chain polish: every plan and re-priced value is unchanged, and
/// the optimizer's own prediction moved by 1–3 ulps on five rows, to
/// `predict`'s bits. `mobilenet/64`, `resnet50/8` and `inception_v3/1`,
/// `/8` and `/64` were re-recorded when the chain planner began solving
/// its objective exactly: each plan is faster within the cost budget
/// (`mobilenet/64` also cheaper), see CHANGES.md.
const PREDICT_GOLDEN: [(&str, u64); 9] = [
    ("mobilenet/1", 0xf940956de8f23544),
    ("mobilenet/8", 0x3b13784dc1fa9c8e),
    ("mobilenet/64", 0x7d827ab014e59bf0),
    ("resnet50/1", 0xc789ef4bd025d717),
    ("resnet50/8", 0xcf4604e05ab6de34),
    ("resnet50/64", 0x11dab681ea5b0d86),
    ("inception_v3/1", 0x4170c80735bcac44),
    ("inception_v3/8", 0xf26b43522ba9d2f1),
    ("inception_v3/64", 0xb9233b66e4936de1),
];

/// The optimizer plans each model at batch 1, 8 and 64; every plan is
/// then re-priced under the batch-1, -8 and -64 profiles (a mismatched
/// batch may fail to run, which is pinned too).
#[test]
fn predictions_of_optimizer_plans_match_golden_digests() {
    const BATCHES: [u64; 3] = [1, 8, 64];
    let mut got = Vec::new();
    for g in models() {
        let profiles: Vec<Profile> = BATCHES.iter().map(|&b| Profile::batched(&g, b)).collect();
        for batch in BATCHES {
            let cfg = AmpsConfig::default().with_batch(batch).with_threads(1);
            let planned = Optimizer::new(cfg.clone())
                .optimize(&g)
                .expect("unconstrained plan exists")
                .plan;
            let mut d = Digest::new();
            d.plan(Some(&planned));
            for profile in &profiles {
                let mut plan = planned.clone();
                let ok = baselines::predict(profile, &mut plan, &cfg);
                d.word(u64::from(ok));
                d.plan(Some(&plan));
                d.times(stage_times(profile, &plan, &cfg));
            }
            got.push((format!("{}/{batch}", g.name), d.0));
        }
    }
    check("prediction", &got, &PREDICT_GOLDEN);
}

const BASELINE_GOLDEN: [(&str, u64); 33] = [
    ("mobilenet/b1/1", 0x27c756fb1fc86e76),
    ("mobilenet/b1/2", 0xbac52b62190ee5f0),
    ("mobilenet/b1/3", 0x65f40c2314fcafae),
    ("mobilenet/b2", 0x360e7b26ed3517b1),
    ("mobilenet/b3", 0xbc3ff43e7709fa32),
    ("mobilenet/b4/2", 0x31e3dd93bb534645),
    ("mobilenet/b4/3", 0x9fdc03f679ce7f2b),
    ("mobilenet/b4/4", 0x06addb64c2c8926e),
    ("mobilenet/b4/5", 0xe134b3326b5d04b8),
    ("mobilenet/b4/6", 0x29de32caefef9a58),
    ("mobilenet/b4/7", 0x6e2ae6274b95a34e),
    ("resnet50/b1/1", 0xb0c5c87e82da409d),
    ("resnet50/b1/2", 0xd02052ebe66266c5),
    ("resnet50/b1/3", 0x186a5db3e8ba7d75),
    ("resnet50/b2", 0x1f8251982152f0aa),
    ("resnet50/b3", 0x815f241a091ad5e5),
    ("resnet50/b4/2", 0x1f8251982152f0aa),
    ("resnet50/b4/3", 0x5dcfcf33c33ebbc9),
    ("resnet50/b4/4", 0x54b6707e145889fb),
    ("resnet50/b4/5", 0xcd313d55e2702150),
    ("resnet50/b4/6", 0x3fc1f55f2594d4b1),
    ("resnet50/b4/7", 0xd3c200edf7650b4e),
    ("inception_v3/b1/1", 0x84197108c2afc8cd),
    ("inception_v3/b1/2", 0x3bdfdcff7589b199),
    ("inception_v3/b1/3", 0x9a31920d931ba814),
    ("inception_v3/b2", 0x5d1c9c5562af8e05),
    ("inception_v3/b3", 0x92f2f142cdbfc048),
    ("inception_v3/b4/2", 0x904353fd3310a0a6),
    ("inception_v3/b4/3", 0x549394a29d0bc9ed),
    ("inception_v3/b4/4", 0x7325ad5f7e895f8e),
    ("inception_v3/b4/5", 0xf031f29227ab5da6),
    ("inception_v3/b4/6", 0x83e7011f29cfb280),
    ("inception_v3/b4/7", 0xc5bf02a2477f21a9),
];

#[test]
fn baseline_plans_match_golden_digests() {
    let cfg = AmpsConfig::default();
    let mut got = Vec::new();
    for g in models() {
        let profile = Profile::of(&g);
        let mut plans: Vec<(String, Option<ExecutionPlan>)> = Vec::new();
        for seed in 1..=3 {
            plans.push((format!("b1/{seed}"), b1_random(&g, &cfg, seed)));
        }
        plans.push(("b2".into(), b2_greedy_max(&g, &cfg)));
        plans.push(("b3".into(), b3_optimal(&g, &cfg)));
        for stages in 2..=7 {
            plans.push((format!("b4/{stages}"), b4_bucket_scan(&g, &cfg, stages)));
        }
        for (label, plan) in plans {
            let mut d = Digest::new();
            d.plan(plan.as_ref());
            if let Some(p) = &plan {
                d.times(stage_times(&profile, p, &cfg));
            }
            got.push((format!("{}/{label}", g.name), d.0));
        }
    }
    check("baseline", &got, &BASELINE_GOLDEN);
}
