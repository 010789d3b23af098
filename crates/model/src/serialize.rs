//! Model-file serialization.
//!
//! The paper's AMPS-Inf takes "the pre-trained model (in YAML/JSON format)
//! as user input" plus an H5 weights file, and the Coordinator splits the
//! YAML into per-partition files (§4). We stand in with JSON for the
//! architecture and a weights *manifest* (per-layer byte extents) for the
//! H5 file — the optimizer and coordinator only ever need sizes, never
//! values. The encoding is externally tagged (`{"Conv2D": {...}}`, unit
//! variants as bare strings) and is produced/consumed by [`crate::json`],
//! keeping the workspace free of registry dependencies.

use crate::graph::{LayerGraph, LayerNode};
use crate::json::Json;
use crate::layer::{Activation, LayerOp, Padding, TensorShape};

/// Per-layer weight extent within a (virtual) weights file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeightExtent {
    /// Layer name.
    pub layer: String,
    /// Offset within the weights blob.
    pub offset: u64,
    /// Byte length (params × 4).
    pub bytes: u64,
}

/// The H5-file stand-in: an ordered manifest of weight extents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeightsManifest {
    /// Model name.
    pub model: String,
    /// Extents in layer order.
    pub extents: Vec<WeightExtent>,
    /// Total blob size in bytes.
    pub total_bytes: u64,
}

impl WeightsManifest {
    /// Builds the manifest for a graph (contiguous layout, layer order).
    pub fn of(g: &LayerGraph) -> Self {
        let mut extents = Vec::with_capacity(g.num_layers());
        let mut offset = 0u64;
        for n in g.nodes() {
            let bytes = n.params * crate::BYTES_PER_SCALAR;
            extents.push(WeightExtent {
                layer: n.name.clone(),
                offset,
                bytes,
            });
            offset += bytes;
        }
        WeightsManifest {
            model: g.name.clone(),
            extents,
            total_bytes: offset,
        }
    }

    /// Bytes of weights for the contiguous layer range `[start, end]`.
    pub fn range_bytes(&self, start: usize, end: usize) -> u64 {
        self.extents[start..=end].iter().map(|e| e.bytes).sum()
    }
}

fn pair_json(p: (u32, u32)) -> Json {
    Json::Arr(vec![Json::from(p.0), Json::from(p.1)])
}

fn shape_json(s: TensorShape) -> Json {
    match s {
        TensorShape::Map { h, w, c } => Json::Obj(vec![(
            "Map".into(),
            Json::Obj(vec![
                ("h".into(), Json::from(h)),
                ("w".into(), Json::from(w)),
                ("c".into(), Json::from(c)),
            ]),
        )]),
        TensorShape::Flat(n) => Json::Obj(vec![("Flat".into(), Json::from(n))]),
    }
}

fn padding_json(p: Padding) -> Json {
    match p {
        Padding::Same => Json::from("Same"),
        Padding::Valid => Json::from("Valid"),
    }
}

fn activation_json(a: Activation) -> Json {
    match a {
        Activation::Linear => Json::from("Linear"),
        Activation::Relu => Json::from("Relu"),
        Activation::Softmax => Json::from("Softmax"),
    }
}

/// Externally-tagged struct variant: `{"Tag": {fields...}}`.
fn tagged(tag: &str, fields: Vec<(String, Json)>) -> Json {
    Json::Obj(vec![(tag.into(), Json::Obj(fields))])
}

fn op_json(op: &LayerOp) -> Json {
    match op {
        LayerOp::Input { shape } => tagged("Input", vec![("shape".into(), shape_json(*shape))]),
        LayerOp::Conv2D {
            filters,
            kernel,
            strides,
            padding,
            use_bias,
            activation,
        } => tagged(
            "Conv2D",
            vec![
                ("filters".into(), Json::from(*filters)),
                ("kernel".into(), pair_json(*kernel)),
                ("strides".into(), pair_json(*strides)),
                ("padding".into(), padding_json(*padding)),
                ("use_bias".into(), Json::from(*use_bias)),
                ("activation".into(), activation_json(*activation)),
            ],
        ),
        LayerOp::DepthwiseConv2D {
            kernel,
            strides,
            padding,
            use_bias,
        } => tagged(
            "DepthwiseConv2D",
            vec![
                ("kernel".into(), pair_json(*kernel)),
                ("strides".into(), pair_json(*strides)),
                ("padding".into(), padding_json(*padding)),
                ("use_bias".into(), Json::from(*use_bias)),
            ],
        ),
        LayerOp::SeparableConv2D {
            filters,
            kernel,
            strides,
            padding,
            use_bias,
        } => tagged(
            "SeparableConv2D",
            vec![
                ("filters".into(), Json::from(*filters)),
                ("kernel".into(), pair_json(*kernel)),
                ("strides".into(), pair_json(*strides)),
                ("padding".into(), padding_json(*padding)),
                ("use_bias".into(), Json::from(*use_bias)),
            ],
        ),
        LayerOp::Dense {
            units,
            use_bias,
            activation,
        } => tagged(
            "Dense",
            vec![
                ("units".into(), Json::from(*units)),
                ("use_bias".into(), Json::from(*use_bias)),
                ("activation".into(), activation_json(*activation)),
            ],
        ),
        LayerOp::BatchNorm { scale } => {
            tagged("BatchNorm", vec![("scale".into(), Json::from(*scale))])
        }
        LayerOp::ActivationLayer { activation } => tagged(
            "ActivationLayer",
            vec![("activation".into(), activation_json(*activation))],
        ),
        LayerOp::MaxPool {
            pool,
            strides,
            padding,
        } => tagged(
            "MaxPool",
            vec![
                ("pool".into(), pair_json(*pool)),
                ("strides".into(), pair_json(*strides)),
                ("padding".into(), padding_json(*padding)),
            ],
        ),
        LayerOp::AvgPool {
            pool,
            strides,
            padding,
        } => tagged(
            "AvgPool",
            vec![
                ("pool".into(), pair_json(*pool)),
                ("strides".into(), pair_json(*strides)),
                ("padding".into(), padding_json(*padding)),
            ],
        ),
        LayerOp::GlobalAvgPool => Json::from("GlobalAvgPool"),
        LayerOp::ZeroPadding { padding } => tagged(
            "ZeroPadding",
            vec![(
                "padding".into(),
                Json::Arr(vec![
                    Json::from(padding.0),
                    Json::from(padding.1),
                    Json::from(padding.2),
                    Json::from(padding.3),
                ]),
            )],
        ),
        LayerOp::Add => Json::from("Add"),
        LayerOp::Concat => Json::from("Concat"),
        LayerOp::Flatten => Json::from("Flatten"),
        LayerOp::Dropout => Json::from("Dropout"),
        LayerOp::Reshape { shape } => tagged("Reshape", vec![("shape".into(), shape_json(*shape))]),
        LayerOp::Embedding {
            vocab,
            dim,
            max_positions,
        } => tagged(
            "Embedding",
            vec![
                ("vocab".into(), Json::from(*vocab)),
                ("dim".into(), Json::from(*dim)),
                ("max_positions".into(), Json::from(*max_positions)),
            ],
        ),
        LayerOp::LayerNorm => Json::from("LayerNorm"),
        LayerOp::SelfAttention { heads } => {
            tagged("SelfAttention", vec![("heads".into(), Json::from(*heads))])
        }
    }
}

fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("missing field `{key}`"))
}

fn u32_field(v: &Json, key: &str) -> Result<u32, String> {
    field(v, key)?
        .as_u32()
        .ok_or_else(|| format!("field `{key}` is not a u32"))
}

fn u64_field(v: &Json, key: &str) -> Result<u64, String> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| format!("field `{key}` is not a u64"))
}

fn bool_field(v: &Json, key: &str) -> Result<bool, String> {
    field(v, key)?
        .as_bool()
        .ok_or_else(|| format!("field `{key}` is not a bool"))
}

fn pair_field(v: &Json, key: &str) -> Result<(u32, u32), String> {
    let arr = field(v, key)?
        .as_array()
        .ok_or_else(|| format!("field `{key}` is not an array"))?;
    match arr {
        [a, b] => Ok((
            a.as_u32().ok_or("bad pair element")?,
            b.as_u32().ok_or("bad pair element")?,
        )),
        _ => Err(format!("field `{key}` is not a 2-element array")),
    }
}

fn shape_from(v: &Json) -> Result<TensorShape, String> {
    if let Some(m) = v.get("Map") {
        Ok(TensorShape::Map {
            h: u32_field(m, "h")?,
            w: u32_field(m, "w")?,
            c: u32_field(m, "c")?,
        })
    } else if let Some(n) = v.get("Flat") {
        Ok(TensorShape::Flat(n.as_u32().ok_or("bad Flat length")?))
    } else {
        Err("expected a TensorShape object".to_string())
    }
}

fn shape_field(v: &Json, key: &str) -> Result<TensorShape, String> {
    shape_from(field(v, key)?)
}

fn padding_from(v: &Json) -> Result<Padding, String> {
    match v.as_str() {
        Some("Same") => Ok(Padding::Same),
        Some("Valid") => Ok(Padding::Valid),
        _ => Err("expected `Same` or `Valid`".to_string()),
    }
}

fn activation_from(v: &Json) -> Result<Activation, String> {
    match v.as_str() {
        Some("Linear") => Ok(Activation::Linear),
        Some("Relu") => Ok(Activation::Relu),
        Some("Softmax") => Ok(Activation::Softmax),
        _ => Err("expected an activation name".to_string()),
    }
}

fn op_from(v: &Json) -> Result<LayerOp, String> {
    // Unit variants serialize as bare strings.
    if let Some(tag) = v.as_str() {
        return match tag {
            "GlobalAvgPool" => Ok(LayerOp::GlobalAvgPool),
            "Add" => Ok(LayerOp::Add),
            "Concat" => Ok(LayerOp::Concat),
            "Flatten" => Ok(LayerOp::Flatten),
            "Dropout" => Ok(LayerOp::Dropout),
            "LayerNorm" => Ok(LayerOp::LayerNorm),
            _ => Err(format!("unknown layer op `{tag}`")),
        };
    }
    let Json::Obj(kv) = v else {
        return Err("expected a layer-op object".to_string());
    };
    let [(tag, body)] = kv.as_slice() else {
        return Err("layer-op object must have exactly one tag".to_string());
    };
    match tag.as_str() {
        "Input" => Ok(LayerOp::Input {
            shape: shape_field(body, "shape")?,
        }),
        "Conv2D" => Ok(LayerOp::Conv2D {
            filters: u32_field(body, "filters")?,
            kernel: pair_field(body, "kernel")?,
            strides: pair_field(body, "strides")?,
            padding: padding_from(field(body, "padding")?)?,
            use_bias: bool_field(body, "use_bias")?,
            activation: activation_from(field(body, "activation")?)?,
        }),
        "DepthwiseConv2D" => Ok(LayerOp::DepthwiseConv2D {
            kernel: pair_field(body, "kernel")?,
            strides: pair_field(body, "strides")?,
            padding: padding_from(field(body, "padding")?)?,
            use_bias: bool_field(body, "use_bias")?,
        }),
        "SeparableConv2D" => Ok(LayerOp::SeparableConv2D {
            filters: u32_field(body, "filters")?,
            kernel: pair_field(body, "kernel")?,
            strides: pair_field(body, "strides")?,
            padding: padding_from(field(body, "padding")?)?,
            use_bias: bool_field(body, "use_bias")?,
        }),
        "Dense" => Ok(LayerOp::Dense {
            units: u32_field(body, "units")?,
            use_bias: bool_field(body, "use_bias")?,
            activation: activation_from(field(body, "activation")?)?,
        }),
        "BatchNorm" => Ok(LayerOp::BatchNorm {
            scale: bool_field(body, "scale")?,
        }),
        "ActivationLayer" => Ok(LayerOp::ActivationLayer {
            activation: activation_from(field(body, "activation")?)?,
        }),
        "MaxPool" => Ok(LayerOp::MaxPool {
            pool: pair_field(body, "pool")?,
            strides: pair_field(body, "strides")?,
            padding: padding_from(field(body, "padding")?)?,
        }),
        "AvgPool" => Ok(LayerOp::AvgPool {
            pool: pair_field(body, "pool")?,
            strides: pair_field(body, "strides")?,
            padding: padding_from(field(body, "padding")?)?,
        }),
        "ZeroPadding" => {
            let arr = field(body, "padding")?
                .as_array()
                .ok_or("ZeroPadding padding must be an array")?;
            match arr {
                [a, b, c, d] => Ok(LayerOp::ZeroPadding {
                    padding: (
                        a.as_u32().ok_or("bad padding")?,
                        b.as_u32().ok_or("bad padding")?,
                        c.as_u32().ok_or("bad padding")?,
                        d.as_u32().ok_or("bad padding")?,
                    ),
                }),
                _ => Err("ZeroPadding padding must have 4 elements".to_string()),
            }
        }
        "Reshape" => Ok(LayerOp::Reshape {
            shape: shape_field(body, "shape")?,
        }),
        "Embedding" => Ok(LayerOp::Embedding {
            vocab: u32_field(body, "vocab")?,
            dim: u32_field(body, "dim")?,
            max_positions: u32_field(body, "max_positions")?,
        }),
        "SelfAttention" => Ok(LayerOp::SelfAttention {
            heads: u32_field(body, "heads")?,
        }),
        other => Err(format!("unknown layer op `{other}`")),
    }
}

/// Serializes the architecture to JSON (the YAML/JSON model file).
pub fn to_json(g: &LayerGraph) -> String {
    let nodes: Vec<Json> = g
        .nodes()
        .iter()
        .map(|n| {
            Json::Obj(vec![
                ("name".into(), Json::from(n.name.as_str())),
                ("op".into(), op_json(&n.op)),
                (
                    "inputs".into(),
                    Json::Arr(n.inputs.iter().map(|&i| Json::from(i)).collect()),
                ),
                ("output_shape".into(), shape_json(n.output_shape)),
                ("params".into(), Json::from(n.params)),
                ("flops".into(), Json::from(n.flops)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("name".into(), Json::from(g.name.as_str())),
        ("nodes".into(), Json::Arr(nodes)),
        ("bytes_per_param".into(), Json::from(g.bytes_per_param())),
    ])
    .render_pretty()
}

/// Parses an architecture from JSON and validates it (stored shapes, params
/// and FLOPs are recomputed from the ops; any mismatch is rejected).
pub fn from_json(s: &str) -> Result<LayerGraph, String> {
    let doc = Json::parse(s)?;
    let name = field(&doc, "name")?
        .as_str()
        .ok_or("model name must be a string")?
        .to_string();
    // Older model files may omit the width field; default to float32.
    let bytes_per_param = match doc.get("bytes_per_param") {
        Some(v) => v.as_u64().ok_or("bytes_per_param must be an integer")?,
        None => crate::BYTES_PER_SCALAR,
    };
    let raw_nodes = field(&doc, "nodes")?
        .as_array()
        .ok_or("nodes must be an array")?;
    let mut nodes = Vec::with_capacity(raw_nodes.len());
    for (i, rn) in raw_nodes.iter().enumerate() {
        let node = (|| -> Result<LayerNode, String> {
            Ok(LayerNode {
                name: field(rn, "name")?
                    .as_str()
                    .ok_or("layer name must be a string")?
                    .to_string(),
                op: op_from(field(rn, "op")?)?,
                inputs: field(rn, "inputs")?
                    .as_array()
                    .ok_or("inputs must be an array")?
                    .iter()
                    .map(|v| v.as_usize().ok_or_else(|| "bad input index".to_string()))
                    .collect::<Result<Vec<usize>, String>>()?,
                output_shape: shape_field(rn, "output_shape")?,
                params: u64_field(rn, "params")?,
                flops: u64_field(rn, "flops")?,
            })
        })()
        .map_err(|e| format!("node {i}: {e}"))?;
        nodes.push(node);
    }
    let g = LayerGraph::from_parts(name, nodes, bytes_per_param);
    g.validate()?;
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    #[test]
    fn json_round_trip() {
        let g = zoo::tiny_cnn();
        let s = to_json(&g);
        let back = from_json(&s).unwrap();
        assert_eq!(back.num_layers(), g.num_layers());
        assert_eq!(back.total_params(), g.total_params());
        assert_eq!(back.name, g.name);
    }

    #[test]
    fn from_json_validates() {
        let g = zoo::tiny_cnn();
        let mut s = to_json(&g);
        // Corrupt a stored shape: validation must catch it.
        s = s.replacen("\"h\": 32", "\"h\": 31", 1);
        assert!(from_json(&s).is_err());
        // Malformed files are errors, never panics: a Dense fed by a map,
        // a one-input Add, and stored params or FLOPs the op disagrees with.
        let tampered = |edit: &dyn Fn(&mut Vec<LayerNode>)| {
            let mut nodes = g.nodes().to_vec();
            edit(&mut nodes);
            let file = to_json(&LayerGraph::from_parts(g.name.clone(), nodes, 4));
            from_json(&file).expect_err("tampered model file must be rejected")
        };
        let at = |name: &str| g.find(name).unwrap();
        let pool = at("pool");
        let err = tampered(&|n| n[at("predictions")].inputs = vec![pool]);
        assert!(err.contains("Dense requires a flat input"), "{err}");
        let relu = at("relu1");
        let err = tampered(&|n| n[at("add")].inputs = vec![relu]);
        assert!(err.contains("Add needs ≥ 2 inputs"), "{err}");
        let err = tampered(&|n| n[at("predictions")].params = 999_999_999);
        assert!(err.contains("999999999 params"), "{err}");
        let err = tampered(&|n| n[at("conv1")].flops += 1);
        assert!(err.contains("FLOPs"), "{err}");
        let err = tampered(&|n| {
            n[at("conv1")].op = LayerOp::MaxPool {
                pool: (2, 2),
                strides: (0, 2),
                padding: Padding::Valid,
            }
        });
        assert!(err.contains("zero stride"), "{err}");
        let zero_width = to_json(&g).replace("\"bytes_per_param\": 4", "\"bytes_per_param\": 0");
        let err = from_json(&zero_width).expect_err("zero-width weights must be rejected");
        assert!(err.contains("bytes_per_param 0"), "{err}");
    }

    #[test]
    fn split_graph_round_trips() {
        let g = zoo::vgg16();
        let s = g.split_layer(g.find("fc1").unwrap(), 5).unwrap();
        let back = from_json(&to_json(&s)).unwrap();
        assert_eq!(to_json(&back), to_json(&s));
        assert_eq!(back.branch_regions(), s.branch_regions());
        assert_eq!(back.total_params(), g.total_params());
    }

    #[test]
    fn every_zoo_model_round_trips() {
        // Covers every LayerOp variant the zoo uses, including the
        // quantized-width field.
        for g in zoo::evaluation_models() {
            let back = from_json(&to_json(&g)).unwrap();
            assert_eq!(back.total_params(), g.total_params());
            assert_eq!(back.weight_bytes(), g.weight_bytes());
        }
        let q = zoo::bert_base().quantized(1);
        let back = from_json(&to_json(&q)).unwrap();
        assert_eq!(back.bytes_per_param(), 1);
        assert_eq!(back.weight_bytes(), q.weight_bytes());
    }

    #[test]
    fn manifest_extents_are_contiguous() {
        let g = zoo::mobilenet_v1();
        let m = WeightsManifest::of(&g);
        assert_eq!(m.total_bytes, g.weight_bytes());
        let mut expect_offset = 0u64;
        for e in &m.extents {
            assert_eq!(e.offset, expect_offset);
            expect_offset += e.bytes;
        }
    }

    #[test]
    fn manifest_range_matches_segment() {
        let g = zoo::mobilenet_v1();
        let m = WeightsManifest::of(&g);
        let seg = g.segment(5, 20);
        assert_eq!(m.range_bytes(5, 20), seg.weight_bytes);
    }
}
