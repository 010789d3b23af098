//! Golden-value pins of the SerFer \[42\] comparator (paper Fig. 11).
//!
//! Each configuration plans a model at the default configuration and
//! runs SerFer on that plan. The expected `to_bits` of its completion
//! time, transition time, transition count and dollars were recorded from
//! the Step-Functions loop that drove SerFer before it moved onto the
//! coordinator's engine.
//!
//! The Inception-v3 row was re-recorded on the engine when the chain
//! planner began solving its objective exactly: its plan moved from
//! 25.755 s / $0.00053049 to 25.570 s / $0.00053268 (faster within the
//! cost budget), so SerFer serves different partitions.
//!
//! Completion time, transition time and transition count must match bit
//! for bit. Dollars may differ by a few ulps, because the engine adds the
//! transition fees after the invocations instead of between them.

use ampsinf_core::{AmpsConfig, Optimizer};
use ampsinf_model::{zoo, LayerGraph};
use ampsinf_serving::run_serfer;

/// How far apart SerFer's dollars may be, in ulps.
const DOLLAR_ULPS: u64 = 4;

/// `[completion_s, transition_s, transitions, dollars]`, floats as bits.
type Bits = [u64; 4];

fn serfer_bits(graph: &LayerGraph) -> Bits {
    let cfg = AmpsConfig::default();
    let plan = Optimizer::new(cfg.clone()).optimize(graph).unwrap().plan;
    let r = run_serfer(graph, &plan, &cfg).unwrap();
    [
        r.completion_s.to_bits(),
        r.transition_s.to_bits(),
        r.transitions as u64,
        r.dollars.to_bits(),
    ]
}

fn ulps(a: u64, b: u64) -> u64 {
    (a as i64 - b as i64).unsigned_abs()
}

fn check(name: &str, got: Bits, want: Bits) {
    assert_eq!(
        got[..3],
        want[..3],
        "{name}: completion/transition bits {got:#x?} vs {want:#x?}"
    );
    assert!(
        ulps(got[3], want[3]) <= DOLLAR_ULPS,
        "{name}: dollars {} vs {} ({} ulps)",
        f64::from_bits(got[3]),
        f64::from_bits(want[3]),
        ulps(got[3], want[3])
    );
}

#[test]
fn fig11_resnet50_matches_step_functions_loop() {
    // 71.28 s / $0.001462, the row `repro fig11` prints.
    check(
        "resnet50",
        serfer_bits(&zoo::resnet50()),
        [
            0x4051_d218_070d_5378,
            0x4046_8000_0000_0000,
            3,
            0x3f57_f60e_3065_73e6,
        ],
    );
}

#[test]
fn mobilenet_inception_xception_match_step_functions_loop() {
    for (name, graph, want) in [
        (
            "mobilenet",
            zoo::mobilenet_v1(),
            [
                0x4044_086c_8704_2fb7,
                0x403e_0000_0000_0000,
                2,
                0x3f46_2924_fa20_3618,
            ],
        ),
        (
            "inception_v3",
            zoo::inception_v3(),
            [
                0x4052_2475_0c48_218e,
                0x4046_8000_0000_0000,
                3,
                0x3f59_47e3_7726_1aef,
            ],
        ),
        (
            "xception",
            zoo::xception(),
            [
                0x4052_3843_c823_3c3c,
                0x4046_8000_0000_0000,
                3,
                0x3f5b_2f9a_c93a_bc2a,
            ],
        ),
    ] {
        check(name, serfer_bits(&graph), want);
    }
}
