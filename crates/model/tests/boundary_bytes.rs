//! Regression pins for `LayerGraph::cut_transfer_bytes` /
//! `cut_tensor_count` at known branchy boundaries (ISSUE 8 satellite):
//! a tensor produced before a boundary and consumed by several layers
//! after it must be transferred — and billed — exactly once, not once
//! per consumer edge. The exact byte counts below are derived from the
//! Keras reference shapes (float32) and must never drift silently,
//! because every scatter/gather storage fee in the DAG cost model is
//! proportional to them.

use ampsinf_model::{zoo, LayerGraph};

/// Every zoo model, the toy graphs included.
fn all_models() -> Vec<LayerGraph> {
    vec![
        zoo::mobilenet_v1(),
        zoo::resnet50(),
        zoo::inception_v3(),
        zoo::xception(),
        zoo::vgg16(),
        zoo::vgg19(),
        zoo::densenet121(),
        zoo::bert_base(),
        zoo::bert_base().quantized(1),
        zoo::tiny_cnn(),
        zoo::branchy_cnn(),
        zoo::linear_chain(7, 8),
    ]
}

/// The one-pass boundary table is exact: entry `k` equals the per-cut
/// scan `cut_transfer_bytes(k)` at every boundary, including the final
/// one (the model output).
#[test]
fn one_pass_table_equals_per_cut_scan_on_every_zoo_model() {
    for g in all_models() {
        let table = g.boundary_transfer_bytes();
        assert_eq!(table.len(), g.num_layers(), "{}", g.name);
        for (k, &bytes) in table.iter().enumerate() {
            assert_eq!(bytes, g.cut_transfer_bytes(k), "{}: boundary {k}", g.name);
        }
    }
}

/// Fork/join regions found through the last-consumer table keep both
/// defining properties as the per-cut scans state them: one tensor
/// enters after `entry`, and nothing from `entry..merge` is consumed
/// past the merge. The pinned `(entry, merge)` lists and total widths
/// show that no region was gained or lost.
#[test]
fn branch_regions_agree_with_per_cut_scans() {
    let inception = [
        (17, 40),
        (40, 63),
        (63, 86),
        (86, 100),
        (100, 132),
        (132, 164),
        (164, 196),
        (196, 228),
        (228, 248),
        (248, 279),
        (279, 310),
    ];
    /// `(model name, (entry, merge) per region, total branch width)`.
    type Pinned<'a> = (&'a str, &'a [(usize, usize)], usize);
    let expected: [Pinned; 12] = [
        ("mobilenet", &[], 0),
        ("resnet50", &[(6, 17), (38, 49), (80, 91), (142, 153)], 8),
        ("inception_v3", &inception, 42),
        ("xception", &[(6, 15), (15, 25), (25, 35), (115, 125)], 8),
        ("vgg16", &[], 0),
        ("vgg19", &[], 0),
        ("densenet121", &[], 0),
        ("bert-h768-l12", &[], 0),
        ("bert-h768-l12-w8", &[], 0),
        ("tiny_cnn", &[], 0),
        ("branchy_cnn", &[(1, 5)], 2),
        ("chain7", &[], 0),
    ];
    for (g, &(name, spans, widths)) in all_models().iter().zip(&expected) {
        let regions = g.branch_regions();
        assert_eq!(g.name, name);
        let found: Vec<(usize, usize)> = regions.iter().map(|r| (r.entry, r.merge)).collect();
        assert_eq!(found, spans, "{name}: regions changed");
        let width: usize = regions.iter().map(|r| r.width()).sum();
        assert_eq!(width, widths, "{name}: branch widths changed");
        for r in &regions {
            assert_eq!(g.cut_tensor_count(r.entry), 1, "{name}: {r:?}");
            for i in r.entry..r.merge {
                assert!(
                    (r.merge + 1..g.num_layers()).all(|m| !g.nodes()[m].inputs.contains(&i)),
                    "{name}: layer {i} escapes {r:?}"
                );
            }
        }
    }
}

/// ResNet-50, cut inside the first bottleneck's residual fork: after
/// `conv2_block1_3_bn` both addends of `conv2_block1_out` are live —
/// the main path's BN output and the projection shortcut, each
/// 56x56x256 fp32 = 3,211,264 bytes. Exactly two tensors cross, and
/// the total is their sum: 6,422,528.
#[test]
fn resnet50_residual_boundary_bytes_pinned() {
    let g = zoo::resnet50();
    let k = g.find("conv2_block1_3_bn").unwrap();
    assert_eq!(g.cut_tensor_count(k), 2, "main path + shortcut");
    assert_eq!(g.cut_transfer_bytes(k), 6_422_528);
}

/// ResNet-50, cut inside an identity block: after `conv2_block2_2_relu`
/// the narrow main-path tensor (56x56x64 = 802,816 bytes) crosses
/// alongside the previous block's output (56x56x256 = 3,211,264 bytes),
/// which skips the whole block to feed `conv2_block2_out`. The skip
/// tensor is billed once even though the boundary sits several layers
/// before its consumer.
#[test]
fn resnet50_identity_block_boundary_bytes_pinned() {
    let g = zoo::resnet50();
    let k = g.find("conv2_block2_2_relu").unwrap();
    assert_eq!(g.cut_tensor_count(k), 2, "main path + skip connection");
    assert_eq!(g.cut_transfer_bytes(k), 802_816 + 3_211_264);
    assert_eq!(g.cut_transfer_bytes(k), 4_014_080);
}

/// Inception-v3, cut just before the `mixed0` concat: all four branch
/// outputs are live (35x35 maps of 64 + 64 + 96 + 32 channels =
/// 256 channels, fp32) — 1,254,400 bytes over exactly four tensors.
#[test]
fn inception_before_mixed0_concat_bytes_pinned() {
    let g = zoo::inception_v3();
    let k = g.find("mixed0").unwrap() - 1;
    assert_eq!(g.cut_tensor_count(k), 4, "four concat branches");
    assert_eq!(g.cut_transfer_bytes(k), 1_254_400);
    assert_eq!(35 * 35 * (64 + 64 + 96 + 32) * 4, 1_254_400);
}

/// Inception-v3, cut right after the stem pool that feeds `mixed0`: one
/// 35x35x192 fp32 tensor (940,800 bytes) is consumed by all four branch
/// stems of the block. Four consumer edges, one transfer — the
/// multi-consumer audit this file exists for.
#[test]
fn inception_multi_consumer_stem_billed_once() {
    let g = zoo::inception_v3();
    let k = g.find("stem_pool2").unwrap();
    let consumers = (k + 1..g.num_layers())
        .filter(|&i| g.nodes()[i].inputs.contains(&k))
        .count();
    assert!(
        consumers >= 4,
        "stem output must fan out ({consumers} consumers)"
    );
    assert_eq!(
        g.cut_tensor_count(k),
        1,
        "one live tensor, not one per edge"
    );
    assert_eq!(g.cut_transfer_bytes(k), 940_800);
    assert_eq!(35 * 35 * 192 * 4, 940_800);
}

/// The invariant behind all the pins above, checked across every cut of
/// both graphs: the bytes crossing a boundary never exceed the sum of
/// all distinct live tensor sizes, and repeating the count with consumer
/// multiplicity would strictly exceed the billed bytes wherever a
/// multi-consumer tensor crosses.
#[test]
fn per_edge_billing_would_overcount_on_branchy_graphs() {
    for g in [zoo::resnet50(), zoo::inception_v3()] {
        let mut overcounts = 0usize;
        for k in 0..g.num_layers() - 1 {
            let billed = g.cut_transfer_bytes(k);
            // Per-edge accounting: each (producer <= k, consumer > k) edge
            // pays the producer's full tensor again.
            let per_edge: u64 = (0..=k)
                .map(|idx| {
                    let edges = (k + 1..g.num_layers())
                        .filter(|&i| g.nodes()[i].inputs.contains(&idx))
                        .count() as u64;
                    edges * g.nodes()[idx].output_shape.bytes()
                })
                .sum();
            assert!(per_edge >= billed, "cut {k}: per-edge below billed");
            if per_edge > billed {
                overcounts += 1;
            }
        }
        assert!(
            overcounts > 0,
            "{}: no multi-consumer boundary exercised",
            g.name
        );
    }
}
