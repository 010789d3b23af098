//! Plan-stability golden values: the predicted `(time, cost)` bits of the
//! 29 SLO-bound chain points of the benchmark's plan mix (five models at
//! 0.9–1.5× their own unconstrained plan time, frozen in [`ANCHORS`]), as
//! the branch-and-bound planner produced them. The planner must reproduce
//! every point bit for bit, except the points listed in [`IMPROVED`],
//! which must come out strictly better under its objective: faster within
//! the cost budget `C*·(1 + tol)`, or as fast and cheaper. Every point's cut and memories are pinned on
//! their own in [`PLANS`], so a change that may only move predicted bits
//! shows that it moved no plan. [`TOL0`] pins the same points planned at
//! cost tolerance 0, where the planner returns the cheapest plan that
//! meets the SLO and spends nothing on speed. [`SOLVES`] and
//! [`TOL0_SOLVES`] pin each point's knapsack solves, LP prunes and the
//! cuts stage 1 solved, which the order it visits cuts in decides.

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

/// Each model's default-tolerance unconstrained plan time when
/// [`GOLDEN`] was recorded, the anchor its SLO factors multiply. Like
/// [`TOL0_ANCHORS`], they are constants so that a change to any plan
/// cannot move the SLOs this table is checked at.
#[rustfmt::skip]
const ANCHORS: [(&str, u64); 5] = [
    ("mobilenet", 0x402021b21c10bedb), // 8.065811993641026 s
    ("resnet50", 0x403848601c354de1), // 24.28271652509091 s
    ("inception_v3", 0x4039c167e4b0eb4b), // 25.755491536324637 s
    ("xception", 0x4039e10f208cf0f2), // 25.879137072 s
    ("bert-w8", 0x404180511df5012c), // 35.00247549498667 s
];

/// One default-tolerance point: its model, factor and SLO.
fn default_points() -> Vec<(&'static str, f64, f64)> {
    let mut out = Vec::new();
    for ((name, factors), &(aname, anchor)) in CHAIN_POINTS.into_iter().zip(&ANCHORS) {
        assert_eq!(name, aname, "anchor order");
        for &f in factors {
            out.push((name, f, f64::from_bits(anchor) * f));
        }
    }
    out
}

/// `(model, factor, time bits, cost bits, mix digest)` of every point, in
/// table order.
fn plan_points() -> Vec<(&'static str, f64, u64, u64, u64)> {
    let cfg = AmpsConfig::default().with_threads(1);
    default_points()
        .into_iter()
        .map(|(name, f, slo)| {
            let plan = Optimizer::new(cfg.clone().with_slo(slo))
                .optimize(&model(name))
                .unwrap_or_else(|e| panic!("{name} at {f}x: {e}"))
                .plan;
            (
                name,
                f,
                plan.predicted_time_s.to_bits(),
                plan.predicted_cost.to_bits(),
                mix_digest(&plan),
            )
        })
        .collect()
}

/// The cost budget of a default-tolerance point: its tolerance-0 plan's
/// dollars (the least any plan meeting the SLO costs) times `1 + tol`.
fn budget(name: &str, slo: f64) -> f64 {
    let mut cfg = AmpsConfig::default().with_threads(1).with_slo(slo);
    let tol = cfg.cost_tolerance;
    cfg.cost_tolerance = 0.0;
    let cheapest = Optimizer::new(cfg)
        .optimize(&model(name))
        .expect("feasible point")
        .plan
        .predicted_cost;
    cheapest * (1.0 + tol)
}

/// `(model, factor, time bits, cost bits)` of every point as the
/// branch-and-bound planner predicted it. Rows whose prediction differs
/// only by rounding were re-recorded (1–2 ulps, plans unchanged) when the
/// chain's tolerance spending moved onto the block-chain polish, whose
/// fold is `baselines::predict`'s arithmetic; the [`IMPROVED`] rows keep
/// their recorded values.
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

/// Points planned strictly better than [`GOLDEN`] records under the
/// planner's objective: faster within `C*·(1 + tol)`, or as fast and
/// cheaper. Int8 BERT-Base at 0.9× first moved when the exact knapsack
/// replaced branch and bound, which stopped within its absolute gap of a
/// mix one ulp dearer than the optimum. The rest moved when two exact
/// stages replaced the candidate-per-cut replay and its greedy memory
/// polish, which missed faster mixes within the budget.
#[rustfmt::skip]
const IMPROVED: [(&str, f64); 20] = [
    ("resnet50", 0.9), ("resnet50", 0.95), ("resnet50", 1.0), ("resnet50", 1.1),
    ("inception_v3", 0.9), ("inception_v3", 0.95), ("inception_v3", 1.0),
    ("inception_v3", 1.1), ("inception_v3", 1.5),
    ("xception", 0.95), ("xception", 1.0), ("xception", 1.1), ("xception", 1.25),
    ("xception", 1.5),
    ("bert-w8", 0.9), ("bert-w8", 0.95), ("bert-w8", 1.0), ("bert-w8", 1.1),
    ("bert-w8", 1.25), ("bert-w8", 1.5),
];

#[test]
fn slo_bound_chain_plans_match_golden_values() {
    let points = plan_points();
    assert_eq!(points.len(), GOLDEN.len());
    let slos = default_points().into_iter().map(|(_, _, slo)| slo);
    for (((name, f, t, c, _), &(gname, gf, gt, gc)), slo) in
        points.into_iter().zip(&GOLDEN).zip(slos)
    {
        assert_eq!((name, f), (gname, gf), "table order");
        let label = format!("{name} at {f}x");
        let (time, cost) = (f64::from_bits(t), f64::from_bits(c));
        let (gtime, gcost) = (f64::from_bits(gt), f64::from_bits(gc));
        if IMPROVED.contains(&(name, f)) {
            // Plans carry `predict` bits, the budget pass-1 sums: 1e-12
            // relative slack covers the difference.
            let budget = budget(name, slo);
            assert!(
                time <= slo && cost <= budget * (1.0 + 1e-12),
                "{label}: ({time} s, ${cost}) misses the SLO {slo} s or the budget ${budget}"
            );
            assert!(
                time < gtime || (time == gtime && cost < gcost),
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
/// The [`IMPROVED`] points' digests are their improved plans'.
#[rustfmt::skip]
const PLANS: [(&str, f64, u64); 29] = [
    ("mobilenet", 0.9, 0xc68433a3f0a27e24),
    ("mobilenet", 0.95, 0x8535f5e6ac750664),
    ("mobilenet", 1.0, 0x07d2716134cff5e4),
    ("mobilenet", 1.1, 0x0131b8199eceab49),
    ("mobilenet", 1.25, 0x83ce339427299ac9),
    ("mobilenet", 1.5, 0x83ce339427299ac9),
    ("resnet50", 0.9, 0x9460fc4204955d7b),
    ("resnet50", 0.95, 0x9b01b5899a96a816),
    ("resnet50", 1.0, 0x5543cc76abbbb419),
    ("resnet50", 1.1, 0x1a964800fd8f86f4),
    ("resnet50", 1.25, 0x87cdd30ed8274cff),
    ("resnet50", 1.5, 0xeebcb22fc018d575),
    ("inception_v3", 0.9, 0xa8636deb262d0af4),
    ("inception_v3", 0.95, 0xf85ae08a1ba88385),
    ("inception_v3", 1.0, 0x75be650f934d9405),
    ("inception_v3", 1.1, 0xf1ba274285a738ea),
    ("inception_v3", 1.25, 0x94c82560bb0ee0d4),
    ("inception_v3", 1.5, 0x32e3d60e52cdc36f),
    ("xception", 0.95, 0xacdb2564aea84b83),
    ("xception", 1.0, 0xacdb2564aea84b83),
    ("xception", 1.1, 0x28d6e797a101f068),
    ("xception", 1.25, 0x37801c79524ff139),
    ("xception", 1.5, 0x44c18f087e52866f),
    ("bert-w8", 0.9, 0x97bebb9f2a3d380b),
    ("bert-w8", 0.95, 0x97bebb9f2a3d380b),
    ("bert-w8", 1.0, 0x97bebb9f2a3d380b),
    ("bert-w8", 1.1, 0x49c5721eb944e584),
    ("bert-w8", 1.25, 0xf5affa2cfde88445),
    ("bert-w8", 1.5, 0x5fcc94ed01bad15a),
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

/// Each model's tolerance-0 unconstrained plan time when [`TOL0`] was
/// recorded, the anchor its SLO factors multiply. They are constants so
/// that a change to any plan cannot move the SLOs this table is checked
/// at.
#[rustfmt::skip]
const TOL0_ANCHORS: [(&str, u64); 5] = [
    ("mobilenet", 0x4023426cafcbbb6d), // 9.629735463733335 s
    ("resnet50", 0x4041efc64df78513), // 35.873239274844444 s
    ("inception_v3", 0x4045a9233cd8b490), // 43.32138786870303 s
    ("xception", 0x404871cb1ac25a13), // 48.88901075830304 s
    ("bert-w8", 0x405103fd6827e003), // 68.0623417272 s
];

/// A tolerance-0 point: `(time bits, cost bits, mix digest)` of its plan,
/// or the error it plans to.
type Pin = Result<(u64, u64, u64), &'static str>;

/// `(model, factor, pin)` of every tolerance-0 point, in table order.
#[rustfmt::skip]
const TOL0: [(&str, f64, Pin); 29] = [
    ("mobilenet", 0.9, Ok((0x4021001ed352e892, 0x3f1c3ba39ad36e3a, 0x427ff5d6e2fc2309))), // 8.500235179777778 s, $0.000107700215
    ("mobilenet", 0.95, Ok((0x402206fc661576f5, 0x3f1b62eed53ad07b, 0x3bdf3c8f4cfad86e))), // 9.013644399757576 s, $0.000104471041875
    ("mobilenet", 1.0, Ok((0x4023426cafcbbb6d, 0x3f1a8a3a0fa232bd, 0xfa90fed208cd60ae))), // 9.629735463733335 s, $0.00010124186875000003
    ("mobilenet", 1.1, Ok((0x4023426cafcbbb6d, 0x3f1a8a3a0fa232bd, 0xfa90fed208cd60ae))), // 9.629735463733335 s, $0.00010124186875000003
    ("mobilenet", 1.25, Ok((0x4023426cafcbbb6d, 0x3f1a8a3a0fa232bd, 0xfa90fed208cd60ae))), // 9.629735463733335 s, $0.00010124186875000003
    ("mobilenet", 1.5, Ok((0x4023426cafcbbb6d, 0x3f1a8a3a0fa232bd, 0xfa90fed208cd60ae))), // 9.629735463733335 s, $0.00010124186875000003
    ("resnet50", 0.9, Ok((0x404013abb7fb3320, 0x3f3c818b4b714446, 0x27c79d0dde90e0ab))), // 32.15367793813334 s, $0.00043496752500000004
    ("resnet50", 0.95, Ok((0x4040b7fa18052466, 0x3f3c499eb55a65e3, 0x267defa7372d52f3))), // 33.437319757948714 s, $0.00043163418500000004
    ("resnet50", 1.0, Ok((0x4041efc64df78513, 0x3f3bfcb966faf41c, 0x6c83ce3bb721b81d))), // 35.873239274844444 s, $0.0004270508425000001
    ("resnet50", 1.1, Ok((0x4041efc64df78513, 0x3f3bfcb966faf41c, 0x6c83ce3bb721b81d))), // 35.873239274844444 s, $0.0004270508425000001
    ("resnet50", 1.25, Ok((0x4041efc64df78513, 0x3f3bfcb966faf41c, 0x6c83ce3bb721b81d))), // 35.873239274844444 s, $0.0004270508425000001
    ("resnet50", 1.5, Ok((0x4041efc64df78513, 0x3f3bfcb966faf41c, 0x6c83ce3bb721b81d))), // 35.873239274844444 s, $0.0004270508425000001
    ("inception_v3", 0.9, Ok((0x40437226e52b7c24, 0x3f400fe4e0a603c7, 0xfeae7527d9d363ea))), // 38.8918119871453 s, $0.0004901759687500001
    ("inception_v3", 0.95, Ok((0x40447cfaffb551ac, 0x3f3fe61dc6847238, 0x25e5400493e8542a))), // 40.97640987733334 s, $0.00048673846187500007
    ("inception_v3", 1.0, Ok((0x4045a9233cd8b490, 0x3f3fcf65a98b27e0, 0x12dd774ec6db0475))), // 43.32138786870303 s, $0.0004853842925000001
    ("inception_v3", 1.1, Ok((0x4045a9233cd8b490, 0x3f3fcf65a98b27e0, 0x12dd774ec6db0475))), // 43.32138786870303 s, $0.0004853842925000001
    ("inception_v3", 1.25, Ok((0x4045a9233cd8b490, 0x3f3fcf65a98b27e0, 0x12dd774ec6db0475))), // 43.32138786870303 s, $0.0004853842925000001
    ("inception_v3", 1.5, Ok((0x4045a9233cd8b490, 0x3f3fcf65a98b27e0, 0x12dd774ec6db0475))), // 43.32138786870303 s, $0.0004853842925000001
    ("xception", 0.95, Ok((0x4046183010207a47, 0x3f435cdf8c678be7, 0x31881f654a48dfda))), // 44.188966766222215 s, $0.0005909053368750001
    ("xception", 1.0, Ok((0x404871cb1ac25a13, 0x3f4348c6867753fc, 0x0185d973db888022))), // 48.88901075830304 s, $0.0005885094987500001
    ("xception", 1.1, Ok((0x404871cb1ac25a13, 0x3f4348c6867753fc, 0x0185d973db888022))), // 48.88901075830304 s, $0.0005885094987500001
    ("xception", 1.25, Ok((0x404871cb1ac25a13, 0x3f4348c6867753fc, 0x0185d973db888022))), // 48.88901075830304 s, $0.0005885094987500001
    ("xception", 1.5, Ok((0x404871cb1ac25a13, 0x3f4348c6867753fc, 0x0185d973db888022))), // 48.88901075830304 s, $0.0005885094987500001
    ("bert-w8", 0.9, Ok((0x404de46458575079, 0x3f479169d59fc4da, 0x224c910066245f74))), // 59.78431228888889 s, $0.0007192389268750002
    ("bert-w8", 0.95, Ok((0x404ff41e9e6c663d, 0x3f4779d2064e1f08, 0xa650cecd73caba8f))), // 63.90718441288889 s, $0.0007164264212500002
    ("bert-w8", 1.0, Ok((0x405103fd6827e003, 0x3f476f55aa29d554, 0x8002435f33874221))), // 68.0623417272 s, $0.00071517641875
    ("bert-w8", 1.1, Ok((0x405103fd6827e003, 0x3f476f55aa29d554, 0x8002435f33874221))), // 68.0623417272 s, $0.00071517641875
    ("bert-w8", 1.25, Ok((0x405103fd6827e003, 0x3f476f55aa29d554, 0x8002435f33874221))), // 68.0623417272 s, $0.00071517641875
    ("bert-w8", 1.5, Ok((0x405103fd6827e003, 0x3f476f55aa29d554, 0x8002435f33874221))), // 68.0623417272 s, $0.00071517641875
];

#[test]
fn tolerance_zero_chain_plans_are_pinned() {
    let mut got = Vec::new();
    for ((name, factors), &(aname, anchor)) in CHAIN_POINTS.into_iter().zip(&TOL0_ANCHORS) {
        assert_eq!(name, aname, "anchor order");
        let g = model(name);
        let mut cfg = AmpsConfig::default().with_threads(1);
        cfg.cost_tolerance = 0.0;
        for &f in factors {
            let pin = Optimizer::new(cfg.clone().with_slo(f64::from_bits(anchor) * f))
                .optimize(&g)
                .map(|r| {
                    let plan = r.plan;
                    (
                        plan.predicted_time_s.to_bits(),
                        plan.predicted_cost.to_bits(),
                        mix_digest(&plan),
                    )
                })
                .map_err(|e| e.to_string());
            got.push((name, f, pin));
        }
    }
    let table: String = got
        .iter()
        .map(|(name, f, pin)| match pin {
            Ok((t, c, mix)) => format!(
                "    (\"{name}\", {f:?}, Ok(({t:#018x}, {c:#018x}, {mix:#018x}))), // {} s, ${}\n",
                f64::from_bits(*t),
                f64::from_bits(*c)
            ),
            Err(e) => format!("    (\"{name}\", {f:?}, Err({e:?})),\n"),
        })
        .collect();
    let want: Vec<_> = TOL0
        .iter()
        .map(|&(name, f, pin)| (name, f, pin.map_err(str::to_string)))
        .collect();
    assert_eq!(got, want, "tolerance-0 plans moved; now:\n{table}");
}

/// `(knapsack solves, LP prunes, solved-cut digest)` of one point: the
/// counters of its `optimize` report and an FNV digest of
/// [`Optimizer::solved_cuts`], the SLO-binding cuts stage 1 solved in
/// the order it solved them.
type Solves = (usize, usize, u64);

fn solves(g: &LayerGraph, cfg: AmpsConfig) -> Solves {
    let opt = Optimizer::new(cfg);
    let report = opt.optimize(g).expect("feasible point");
    let cuts = opt.solved_cuts(g).expect("feasible point");
    let mut d = Digest::new();
    d.word(cuts.len() as u64);
    for cut in &cuts {
        d.list(&cut.iter().map(|&k| k as u64).collect::<Vec<_>>());
    }
    (report.miqps_solved, report.miqps_pruned, d.0)
}

/// Every point's [`Solves`] at default tolerance ([`ANCHORS`]) or at
/// tolerance 0 ([`TOL0_ANCHORS`]), in table order.
fn solve_points(tol0: bool) -> Vec<(&'static str, f64, Solves)> {
    let anchors = if tol0 { &TOL0_ANCHORS } else { &ANCHORS };
    let mut cfg = AmpsConfig::default().with_threads(1);
    if tol0 {
        cfg.cost_tolerance = 0.0;
    }
    let mut got = Vec::new();
    for ((name, factors), &(aname, anchor)) in CHAIN_POINTS.into_iter().zip(anchors) {
        assert_eq!(name, aname, "anchor order");
        let g = model(name);
        for &f in factors {
            let slo = f64::from_bits(anchor) * f;
            got.push((name, f, solves(&g, cfg.clone().with_slo(slo))));
        }
    }
    got
}

fn check_solves(tol0: bool, want: &[(&str, f64, Solves)]) {
    let got = solve_points(tol0);
    let table: String = got
        .iter()
        .map(|(name, f, (s, p, d))| format!("    (\"{name}\", {f:?}, ({s}, {p}, {d:#018x})),\n"))
        .collect();
    assert_eq!(
        got, want,
        "solver counters or solved cuts moved; now:\n{table}"
    );
}

/// [`Solves`] of every default-tolerance point. Stage 1's visiting
/// order decides which cuts it solves or prunes, so these pin that order
/// on its own, not only relative to a cold plan.
#[rustfmt::skip]
const SOLVES: [(&str, f64, Solves); 29] = [
    ("mobilenet", 0.9, (2, 0, 0x570e76d574c69339)),
    ("mobilenet", 0.95, (2, 0, 0x570e76d574c69339)),
    ("mobilenet", 1.0, (2, 0, 0x570e76d574c69339)),
    ("mobilenet", 1.1, (2, 0, 0x570e76d574c69339)),
    ("mobilenet", 1.25, (1, 0, 0xa8c7f832281a39c5)),
    ("mobilenet", 1.5, (1, 0, 0xa8c7f832281a39c5)),
    ("resnet50", 0.9, (7, 11, 0xc323646bc749e4f0)),
    ("resnet50", 0.95, (8, 34, 0x704b979b6b0d5246)),
    ("resnet50", 1.0, (7, 11, 0xc323646bc749e4f0)),
    ("resnet50", 1.1, (8, 10, 0x704b979b6b0d5246)),
    ("resnet50", 1.25, (8, 193, 0x704b979b6b0d5246)),
    ("resnet50", 1.5, (4, 5, 0xa8c7f832281a39c5)),
    ("inception_v3", 0.9, (20, 10, 0x78b1f778d280278c)),
    ("inception_v3", 0.95, (9, 98, 0x78b1f778d280278c)),
    ("inception_v3", 1.0, (9, 21, 0x78b1f778d280278c)),
    ("inception_v3", 1.1, (9, 21, 0x78b1f778d280278c)),
    ("inception_v3", 1.25, (10, 20, 0x1f552f88aebb488b)),
    ("inception_v3", 1.5, (9, 155, 0x1227f5ca97f982ff)),
    ("xception", 0.95, (7, 9, 0x9057f08529fe2edc)),
    ("xception", 1.0, (7, 9, 0x9057f08529fe2edc)),
    ("xception", 1.1, (8, 19, 0x9057f08529fe2edc)),
    ("xception", 1.25, (8, 24, 0x9057f08529fe2edc)),
    ("xception", 1.5, (11, 21, 0x0f19271aa18ec3d9)),
    ("bert-w8", 0.9, (4, 13, 0x49458c279e62edea)),
    ("bert-w8", 0.95, (5, 284, 0x0bf7d732c64fb7d1)),
    ("bert-w8", 1.0, (5, 282, 0x0bf7d732c64fb7d1)),
    ("bert-w8", 1.1, (10, 24, 0x49458c279e62edea)),
    ("bert-w8", 1.25, (9, 25, 0x49458c279e62edea)),
    ("bert-w8", 1.5, (9, 25, 0x4859fa18b2d71ba1)),
];

#[test]
fn slo_bound_chain_points_keep_their_solves() {
    check_solves(false, &SOLVES);
}

/// [`Solves`] of every tolerance-0 point.
#[rustfmt::skip]
const TOL0_SOLVES: [(&str, f64, Solves); 29] = [
    ("mobilenet", 0.9, (2, 0, 0x570e76d574c69339)),
    ("mobilenet", 0.95, (2, 0, 0x570e76d574c69339)),
    ("mobilenet", 1.0, (1, 0, 0xa8c7f832281a39c5)),
    ("mobilenet", 1.1, (1, 0, 0xa8c7f832281a39c5)),
    ("mobilenet", 1.25, (1, 0, 0xa8c7f832281a39c5)),
    ("mobilenet", 1.5, (1, 0, 0xa8c7f832281a39c5)),
    ("resnet50", 0.9, (8, 10, 0x704b979b6b0d5246)),
    ("resnet50", 0.95, (9, 9, 0x82aff77c108b0de4)),
    ("resnet50", 1.0, (3, 0, 0xfc9ca0a7c4539a4f)),
    ("resnet50", 1.1, (2, 0, 0xa8c7f832281a39c5)),
    ("resnet50", 1.25, (2, 0, 0xa8c7f832281a39c5)),
    ("resnet50", 1.5, (2, 0, 0xa8c7f832281a39c5)),
    ("inception_v3", 0.9, (8, 20, 0x1227f5ca97f982ff)),
    ("inception_v3", 0.95, (6, 11, 0x2a5a4aa6ec1179f9)),
    ("inception_v3", 1.0, (1, 0, 0xa8c7f832281a39c5)),
    ("inception_v3", 1.1, (1, 0, 0xa8c7f832281a39c5)),
    ("inception_v3", 1.25, (1, 0, 0xa8c7f832281a39c5)),
    ("inception_v3", 1.5, (1, 0, 0xa8c7f832281a39c5)),
    ("xception", 0.95, (5, 19, 0xc0d03992a2223d15)),
    ("xception", 1.0, (1, 0, 0xa8c7f832281a39c5)),
    ("xception", 1.1, (1, 0, 0xa8c7f832281a39c5)),
    ("xception", 1.25, (1, 0, 0xa8c7f832281a39c5)),
    ("xception", 1.5, (1, 0, 0xa8c7f832281a39c5)),
    ("bert-w8", 0.9, (10, 14, 0x0bf7d732c64fb7d1)),
    ("bert-w8", 0.95, (9, 5, 0x57124602f178104f)),
    ("bert-w8", 1.0, (3, 0, 0x0a21474de8f2c1c2)),
    ("bert-w8", 1.1, (2, 0, 0xa8c7f832281a39c5)),
    ("bert-w8", 1.25, (2, 0, 0xa8c7f832281a39c5)),
    ("bert-w8", 1.5, (2, 0, 0xa8c7f832281a39c5)),
];

#[test]
fn tolerance_zero_chain_points_keep_their_solves() {
    check_solves(true, &TOL0_SOLVES);
}
