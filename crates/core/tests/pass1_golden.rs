//! Golden-value pins of pass 1.
//!
//! Every case folds the full output of [`enumerate_cuts`] (every cut's
//! end layers, in enumeration order) and of [`Optimizer::pass1`] (per
//! cut: the infeasible verdict, or `ci`, the min-cost and min-time memory
//! mixes and the `to_bits` of the four totals) into 64-bit FNV-1a
//! digests. The digests were recorded before pass 1 stored its cuts and
//! per-cut sums flat; a change to the cut walk, its order, the summary
//! table or the order the sums are added in shows up here.

use ampsinf_core::cuts::enumerate_cuts;
use ampsinf_core::optimizer::{CutEval, Optimizer};
use ampsinf_core::AmpsConfig;
use ampsinf_model::{zoo, LayerGraph};
use ampsinf_profiler::Profile;

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn list<T: Copy + Into<u64>>(&mut self, xs: &[T]) {
        self.word(xs.len() as u64);
        for &x in xs {
            self.word(x.into());
        }
    }
}

fn cuts_digest(cuts: &[Vec<usize>]) -> u64 {
    let mut d = Digest::new();
    d.word(cuts.len() as u64);
    for cut in cuts {
        d.word(cut.len() as u64);
        for &end in cut {
            d.word(end as u64);
        }
    }
    d.0
}

fn pass1_digest(cuts: &[Vec<usize>], evals: &[CutEval]) -> u64 {
    let mut d = Digest::new();
    d.word(cuts_digest(cuts));
    d.word(evals.len() as u64);
    for eval in evals {
        match eval {
            CutEval::Infeasible => d.word(0),
            CutEval::Feasible(fe) => {
                d.word(1);
                d.word(fe.ci as u64);
                d.list(&fe.mems);
                d.list(&fe.min_mems);
                for v in [fe.time, fe.cost, fe.min_time, fe.min_cost] {
                    d.word(v.to_bits());
                }
            }
        }
    }
    d.0
}

/// `(label, enumerate_cuts digest, pass1 digest)`.
const GOLDEN: [(&str, u64, u64); 7] = [
    ("mobilenet_v1/1", 0x0a748cd37e0fbdd4, 0x3ae0823968e9a292),
    ("resnet50/1", 0x69cde7d47a8ccd66, 0xd0882c0af1c2659f),
    ("inception_v3/1", 0x8a9565498bd875b0, 0xd41f883998e1878a),
    ("xception/1", 0x4114f38f67a8297c, 0xce17cf71f4883563),
    ("bert_base_int8/1", 0x679b343dbf9da350, 0x92f83231df173690),
    ("resnet50/64", 0x77e12c52dcb78dcf, 0x2fdaf0ba8cde00d1),
    ("inception_v3/64", 0x8a9565498bd875b0, 0xa0d5d6e39641dfc7),
];

#[test]
fn pass1_matches_golden_digests() {
    let cases: [(LayerGraph, u64); 7] = [
        (zoo::mobilenet_v1(), 1),
        (zoo::resnet50(), 1),
        (zoo::inception_v3(), 1),
        (zoo::xception(), 1),
        (zoo::bert_base().quantized(1), 1),
        (zoo::resnet50(), 64),
        (zoo::inception_v3(), 64),
    ];
    let mut got = Vec::new();
    for ((g, batch), (label, _, _)) in cases.iter().zip(GOLDEN) {
        let cfg = AmpsConfig::default().with_batch(*batch);
        let cuts = enumerate_cuts(&Profile::batched(g, *batch), &cfg);
        let (p1_cuts, evals) = Optimizer::new(cfg).pass1(g);
        assert_eq!(p1_cuts, cuts, "{label}: pass 1 plans the enumerated cuts");
        got.push((label, cuts_digest(&cuts), pass1_digest(&p1_cuts, &evals)));
    }
    let table: String = got
        .iter()
        .map(|(l, c, p)| format!("    (\"{l}\", {c:#018x}, {p:#018x}),\n"))
        .collect();
    assert!(
        got.iter()
            .zip(GOLDEN)
            .all(|(&(_, c, p), (_, gc, gp))| c == gc && p == gp),
        "pass-1 digests moved; now:\n{table}"
    );
}
