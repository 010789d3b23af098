//! Plan-stability golden values: the predicted `(time, cost)` bits of the
//! 29 SLO-bound chain points of the benchmark's plan mix (five models at
//! 0.9–1.5× their own unconstrained plan time), as the branch-and-bound
//! planner produced them. The exact pick-one knapsack must reproduce every
//! point bit for bit, except the points listed in [`IMPROVED`], which must
//! come out strictly better under the planner's own objective: cheaper,
//! or equal-cost and faster. Every point's cut and memories are pinned on
//! their own in [`PLANS`], so a change that may only move predicted bits
//! shows that it moved no plan.

mod common;

use ampsinf_core::optimizer::Optimizer;
use ampsinf_core::{AmpsConfig, ExecutionPlan};
use ampsinf_model::{zoo, LayerGraph};
use common::Digest;

/// Models with the SLO factors each is planned at. Xception has no
/// feasible plan at 0.9×.
const CHAIN_POINTS: [(&str, &[f64]); 5] = [
    ("mobilenet", &[0.9, 0.95, 1.0, 1.1, 1.25, 1.5]),
    ("resnet50", &[0.9, 0.95, 1.0, 1.1, 1.25, 1.5]),
    ("inception_v3", &[0.9, 0.95, 1.0, 1.1, 1.25, 1.5]),
    ("xception", &[0.95, 1.0, 1.1, 1.25, 1.5]),
    ("bert-w8", &[0.9, 0.95, 1.0, 1.1, 1.25, 1.5]),
];

fn model(name: &str) -> LayerGraph {
    match name {
        "bert-w8" => zoo::bert_base().quantized(1),
        _ => zoo::by_name(name).expect("zoo model"),
    }
}

/// Digest of a plan's cut and memories: each partition's span and block.
fn mix_digest(plan: &ExecutionPlan) -> u64 {
    let mut d = Digest::new();
    d.word(plan.partitions.len() as u64);
    for p in &plan.partitions {
        d.word(p.start as u64);
        d.word(p.end as u64);
        d.word(u64::from(p.memory_mb));
    }
    d.0
}

/// `(model, factor, time bits, cost bits, mix digest)` of every point, in
/// table order.
fn plan_points() -> Vec<(&'static str, f64, u64, u64, u64)> {
    let mut out = Vec::new();
    for (name, factors) in CHAIN_POINTS {
        let g = model(name);
        let cfg = AmpsConfig::default().with_threads(1);
        let free = Optimizer::new(cfg.clone())
            .optimize(&g)
            .expect("unconstrained plan")
            .plan
            .predicted_time_s;
        for &f in factors {
            let plan = Optimizer::new(cfg.clone().with_slo(free * f))
                .optimize(&g)
                .unwrap_or_else(|e| panic!("{name} at {f}x: {e}"))
                .plan;
            out.push((
                name,
                f,
                plan.predicted_time_s.to_bits(),
                plan.predicted_cost.to_bits(),
                mix_digest(&plan),
            ));
        }
    }
    out
}

/// `(model, factor, time bits, cost bits)` of every point as the
/// branch-and-bound planner predicted it. Rows whose prediction differs
/// only by rounding were re-recorded (1–2 ulps, plans unchanged) when the
/// chain's tolerance spending moved onto the block-chain polish, whose
/// fold is `baselines::predict`'s arithmetic; the [`IMPROVED`] row keeps
/// its branch-and-bound value.
#[rustfmt::skip]
const GOLDEN: [(&str, f64, u64, u64); 29] = [
    ("mobilenet", 0.9, 0x4019ada587db3418, 0x3f20e35b7dabdca6), // 6.419576761964912 s, $0.00012884609062500002
    ("mobilenet", 0.95, 0x401a788f7268679e, 0x3f207dfeada26992), // 6.617734706518517 s, $0.00012582525125
    ("mobilenet", 1.0, 0x401c5a7aff77c200, 0x3f1f12a739fcb943), // 7.088359824833333 s, $0.00011853357000000002
    ("mobilenet", 1.1, 0x401d7ba1edb42b6e, 0x3f1e5ce652326680), // 7.370734895822222 s, $0.00011582523125000001
    ("mobilenet", 1.25, 0x402021b21c10bedb, 0x3f1cce70a4cf75ff), // 8.065811993641026 s, $0.00010988771937500001
    ("mobilenet", 1.5, 0x402021b21c10bedb, 0x3f1cce70a4cf75ff), // 8.065811993641026 s, $0.00010988771937500001
    ("resnet50", 0.9, 0x4032be9d635918dc, 0x3f4193de31e4aa96), // 18.744589051487182 s, $0.0005364260612500001
    ("resnet50", 0.95, 0x40338730b823c3cd, 0x3f41381e0ba725bc), // 19.52808714745679 s, $0.0005254885393750001
    ("resnet50", 1.0, 0x4034a571782fb702, 0x3f40c4c61617fb10), // 20.64626265683092 s, $0.0005117385118750001
    ("resnet50", 1.1, 0x40355f087ee0d3cf, 0x3f406905efda7635), // 21.371223382844445 s, $0.0005008009900000001
    ("resnet50", 1.25, 0x403651c37cf29fa0, 0x3f3fc16a84057048), // 22.319389161333334 s, $0.0004845509575000001
    ("resnet50", 1.5, 0x403848601c354de1, 0x3f3eb7c6bb18cff0), // 24.28271652509091 s, $0.0004687175925
    ("inception_v3", 0.9, 0x40348dd3858fdeda, 0x3f439ca96799a190), // 20.554008815407407 s, $0.0005985095187500001
    ("inception_v3", 0.95, 0x40357049abd6615c, 0x3f4357a15e55670e), // 21.438624133910125 s, $0.0005902803356250001
    ("inception_v3", 1.0, 0x4036065b3716a5ed, 0x3f431458b9c1e37e), // 22.024829333333333 s, $0.00058225948625
    ("inception_v3", 1.1, 0x4037233d390b330c, 0x3f42a100c432b8d2), // 23.13765293620513 s, $0.00056850945875
    ("inception_v3", 1.25, 0x40368cb81d92c812, 0x3f4226ab3be0b25a), // 22.549684379897435 s, $0.0005539260962500001
    ("inception_v3", 1.5, 0x40398d5c473db2e2, 0x3f41a398bc1b1921), // 25.55218930488889 s, $0.000538301065
    ("xception", 0.95, 0x4037bfba71def31d, 0x3f46efc1f3c5aa02), // 23.748938671999998 s, $0.000699968055
    ("xception", 1.0, 0x4037bfba71def31e, 0x3f46efc1f3c5aa02), // 23.748938672 s, $0.000699968055
    ("xception", 1.1, 0x4038381b259bad7c, 0x3f46c4111e83cc46), // 24.219164228923077 s, $0.0006947597112500002
    ("xception", 1.25, 0x4039345920ca41a0, 0x3f4621898a5155f6), // 25.20448498666667 s, $0.0006753846725000001
    ("xception", 1.5, 0x403affd727637123, 0x3f459938dc7997e4), // 26.999376737382715 s, $0.0006591346400000001
    ("bert-w8", 0.9, 0x403c7e2c93edef42, 0x3f4b862a43a5e824), // 28.492867704 s, $0.0008399683350000004
    ("bert-w8", 0.95, 0x403c7e2c93edef42, 0x3f4b862a43a5e822), // 28.492867704 s, $0.0008399683350000001
    ("bert-w8", 1.0, 0x403c7e2c93edef42, 0x3f4b862a43a5e822), // 28.492867704 s, $0.0008399683350000001
    ("bert-w8", 1.1, 0x403cbe7a1487e62c, 0x3f4b5df837c5784c), // 28.744050295999998 s, $0.0008351766587500003
    ("bert-w8", 1.25, 0x403e7e693780c7a0, 0x3f4adae5b7ffdf12), // 30.493792981090905 s, $0.0008195516275000001
    ("bert-w8", 1.5, 0x404795483c35ea74, 0x3f4a4ee08ab231aa), // 47.16626694328889 s, $0.0008028599162500001
];

/// Points the exact knapsack plans strictly better than branch and bound
/// did. Int8 BERT-Base at 0.9×: branch and bound stopped within its
/// absolute gap of a mix one ulp dearer than the optimum.
const IMPROVED: [(&str, f64); 1] = [("bert-w8", 0.9)];

#[test]
fn slo_bound_chain_plans_match_golden_values() {
    let points = plan_points();
    assert_eq!(points.len(), GOLDEN.len());
    for ((name, f, t, c, _), &(gname, gf, gt, gc)) in points.into_iter().zip(&GOLDEN) {
        assert_eq!((name, f), (gname, gf), "table order");
        let label = format!("{name} at {f}x");
        let (time, cost) = (f64::from_bits(t), f64::from_bits(c));
        let (gtime, gcost) = (f64::from_bits(gt), f64::from_bits(gc));
        if IMPROVED.contains(&(name, f)) {
            assert!(
                cost < gcost || (cost == gcost && time < gtime),
                "{label}: ({time} s, ${cost}) is not better than ({gtime} s, ${gcost})"
            );
        } else {
            assert_eq!(
                (t, c),
                (gt, gc),
                "{label}: ({time} s, ${cost}) vs golden ({gtime} s, ${gcost})"
            );
        }
    }
}

/// `(model, factor, mix digest)` of every point: its cut and memories.
#[rustfmt::skip]
const PLANS: [(&str, f64, u64); 29] = [
    ("mobilenet", 0.9, 0xc68433a3f0a27e24),
    ("mobilenet", 0.95, 0x8535f5e6ac750664),
    ("mobilenet", 1.0, 0x07d2716134cff5e4),
    ("mobilenet", 1.1, 0x0131b8199eceab49),
    ("mobilenet", 1.25, 0x83ce339427299ac9),
    ("mobilenet", 1.5, 0x83ce339427299ac9),
    ("resnet50", 0.9, 0x466eec24435aa263),
    ("resnet50", 0.95, 0x078e1602fd4ccad2),
    ("resnet50", 1.0, 0xdbeaf613f8a01165),
    ("resnet50", 1.1, 0x153b3ed206053c15),
    ("resnet50", 1.25, 0x87cdd30ed8274cff),
    ("resnet50", 1.5, 0xeebcb22fc018d575),
    ("inception_v3", 0.9, 0xe4cede9038320bd0),
    ("inception_v3", 0.95, 0xe7bc3e19b18cf37b),
    ("inception_v3", 1.0, 0x4b8ff4b5d29d7d23),
    ("inception_v3", 1.1, 0xccf8719068984072),
    ("inception_v3", 1.25, 0x94c82560bb0ee0d4),
    ("inception_v3", 1.5, 0x2e72b17bf9c5d61e),
    ("xception", 0.95, 0xa19aef2a29845ec5),
    ("xception", 1.0, 0x7e309108e0c61ce5),
    ("xception", 1.1, 0xecee79006bdef902),
    ("xception", 1.25, 0xb552073b55f0fd39),
    ("xception", 1.5, 0x8b22a97d94740f19),
    ("bert-w8", 0.9, 0x90dc25d00e0d4d97),
    ("bert-w8", 0.95, 0x53057cd094e85cbf),
    ("bert-w8", 1.0, 0x8af5b9bc531a2a49),
    ("bert-w8", 1.1, 0x14a134c68d05a304),
    ("bert-w8", 1.25, 0x1e31c76dee919677),
    ("bert-w8", 1.5, 0x8d0234db44f30914),
];

#[test]
fn slo_bound_chain_plans_keep_their_cuts_and_memories() {
    let got: Vec<(&str, f64, u64)> = plan_points()
        .into_iter()
        .map(|(name, f, _, _, mix)| (name, f, mix))
        .collect();
    let table: String = got
        .iter()
        .map(|(name, f, mix)| format!("    (\"{name}\", {f:?}, {mix:#018x}),\n"))
        .collect();
    assert_eq!(got, PLANS, "cuts or memories moved; now:\n{table}");
}
