//! Layer operations with Keras-equivalent shape / parameter / FLOP math.
//!
//! Each [`LayerOp`] mirrors the semantics of the corresponding
//! `tf.keras.layers` class closely enough that rebuilding an architecture
//! from the literature reproduces Keras's `model.summary()` parameter
//! totals exactly (the zoo tests pin those totals).

/// A feature-map shape in HWC layout, or a flat vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TensorShape {
    /// Spatial map: height × width × channels.
    Map {
        /// Height in pixels.
        h: u32,
        /// Width in pixels.
        w: u32,
        /// Channel count.
        c: u32,
    },
    /// Flat feature vector of the given length.
    Flat(u32),
}

impl TensorShape {
    /// Convenience constructor for a spatial map.
    pub fn map(h: u32, w: u32, c: u32) -> Self {
        TensorShape::Map { h, w, c }
    }

    /// Total number of scalar elements.
    pub fn elements(&self) -> u64 {
        match self {
            TensorShape::Map { h, w, c } => u64::from(*h) * u64::from(*w) * u64::from(*c),
            TensorShape::Flat(n) => u64::from(*n),
        }
    }

    /// Size in bytes at float32.
    pub fn bytes(&self) -> u64 {
        self.elements() * crate::BYTES_PER_SCALAR
    }

    /// Channel count (vector length for flat shapes).
    pub fn channels(&self) -> u32 {
        match self {
            TensorShape::Map { c, .. } => *c,
            TensorShape::Flat(n) => *n,
        }
    }
}

impl std::fmt::Display for TensorShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorShape::Map { h, w, c } => write!(f, "({h}, {w}, {c})"),
            TensorShape::Flat(n) => write!(f, "({n})"),
        }
    }
}

/// Convolution / pooling padding mode (Keras `padding=` argument).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Padding {
    /// Output spatial size = ceil(input / stride).
    Same,
    /// No implicit padding; output = floor((input − kernel)/stride) + 1.
    Valid,
}

/// Activation functions (only latency-relevant identity here; the IR never
/// evaluates them numerically).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Identity.
    Linear,
    /// Rectified linear unit.
    Relu,
    /// Softmax over channels.
    Softmax,
}

/// A Keras-equivalent layer operation.
#[derive(Debug, Clone, PartialEq)]
pub enum LayerOp {
    /// Model input placeholder.
    Input {
        /// Declared input shape.
        shape: TensorShape,
    },
    /// Standard 2-D convolution.
    Conv2D {
        /// Number of output filters.
        filters: u32,
        /// Kernel height and width.
        kernel: (u32, u32),
        /// Stride height and width.
        strides: (u32, u32),
        /// Padding mode.
        padding: Padding,
        /// Whether a bias vector is learned.
        use_bias: bool,
        /// Fused activation.
        activation: Activation,
    },
    /// Depthwise 2-D convolution (one filter per input channel).
    DepthwiseConv2D {
        /// Kernel height and width.
        kernel: (u32, u32),
        /// Stride height and width.
        strides: (u32, u32),
        /// Padding mode.
        padding: Padding,
        /// Whether a bias vector is learned.
        use_bias: bool,
    },
    /// Separable convolution = depthwise followed by 1×1 pointwise
    /// (Keras `SeparableConv2D`, the Xception workhorse).
    SeparableConv2D {
        /// Number of output filters (pointwise stage).
        filters: u32,
        /// Depthwise kernel height and width.
        kernel: (u32, u32),
        /// Stride height and width.
        strides: (u32, u32),
        /// Padding mode.
        padding: Padding,
        /// Whether a bias vector is learned.
        use_bias: bool,
    },
    /// Fully-connected layer on a flat input.
    Dense {
        /// Output width.
        units: u32,
        /// Whether a bias vector is learned.
        use_bias: bool,
        /// Fused activation.
        activation: Activation,
    },
    /// Batch normalization. With `scale = true` (Keras default): 4
    /// parameters per channel (γ, β and the two moving statistics — Keras
    /// counts all four in `Total params`). Inception-V3 builds its BNs with
    /// `scale=False`, dropping γ: 3 per channel.
    BatchNorm {
        /// Whether the γ scale vector is learned.
        scale: bool,
    },
    /// Standalone activation layer.
    ActivationLayer {
        /// The function applied.
        activation: Activation,
    },
    /// Max pooling.
    MaxPool {
        /// Pool height and width.
        pool: (u32, u32),
        /// Stride height and width.
        strides: (u32, u32),
        /// Padding mode.
        padding: Padding,
    },
    /// Average pooling.
    AvgPool {
        /// Pool height and width.
        pool: (u32, u32),
        /// Stride height and width.
        strides: (u32, u32),
        /// Padding mode.
        padding: Padding,
    },
    /// Global average pooling: map → flat(channels).
    GlobalAvgPool,
    /// Explicit zero padding: (top, bottom, left, right).
    ZeroPadding {
        /// Rows added above / below and columns left / right.
        padding: (u32, u32, u32, u32),
    },
    /// Elementwise addition of all inputs (residual merge).
    Add,
    /// Channel-axis concatenation of all inputs (inception merge).
    Concat,
    /// Flatten a map into a vector.
    Flatten,
    /// Dropout (inference no-op; kept so layer counts match Keras).
    Dropout,
    /// Reshape to the given shape (element count must be preserved).
    Reshape {
        /// Target shape.
        shape: TensorShape,
    },
    /// Token-embedding lookup (+ learned positional embeddings): flat token
    /// ids → a `(seq, 1, dim)` sequence map. The BERT-class front end the
    /// paper's §1 cites as the trend that outgrows serverless deployments.
    Embedding {
        /// Vocabulary size.
        vocab: u32,
        /// Embedding width.
        dim: u32,
        /// Maximum sequence length (positional table size).
        max_positions: u32,
    },
    /// Layer normalization (γ and β per channel).
    LayerNorm,
    /// Multi-head self-attention block (fused Q/K/V/output projections)
    /// over a `(seq, 1, dim)` sequence map.
    SelfAttention {
        /// Attention heads (latency-neutral here; kept for fidelity).
        heads: u32,
    },
}

/// Spatial output size for one dimension.
fn conv_dim(input: u32, kernel: u32, stride: u32, padding: Padding) -> u32 {
    match padding {
        Padding::Same => input.div_ceil(stride),
        Padding::Valid => (input.saturating_sub(kernel)) / stride + 1,
    }
}

impl LayerOp {
    /// Output shape given the input shapes (merges take several inputs, all
    /// others exactly one).
    ///
    /// # Panics
    /// Panics on arity or shape mismatches — model-construction errors, not
    /// runtime conditions. [`LayerOp::try_output_shape`] returns them as
    /// errors instead.
    pub fn output_shape(&self, inputs: &[TensorShape]) -> TensorShape {
        self.try_output_shape(inputs)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Output shape given the input shapes, or why they do not fit the op:
    /// wrong arity (`Input` takes none, merges two or more, every other op
    /// exactly one), a flat input where a spatial one is required (or the
    /// reverse), disagreeing merge inputs, a zero stride, or a dimension
    /// that overflows `u32`.
    pub fn try_output_shape(&self, inputs: &[TensorShape]) -> Result<TensorShape, String> {
        let name = self.class_name();
        let (arity_ok, arity) = match self {
            LayerOp::Input { .. } => (inputs.is_empty(), "takes no inputs"),
            op if op.is_merge() => (inputs.len() >= 2, "needs ≥ 2 inputs"),
            _ => (inputs.len() == 1, "needs exactly 1 input"),
        };
        if !arity_ok {
            return Err(format!("{name} {arity}, got {}", inputs.len()));
        }
        let map = |s: TensorShape| match s {
            TensorShape::Map { h, w, c } => Ok((h, w, c)),
            TensorShape::Flat(_) => Err(format!("{name} requires a spatial input, got {s}")),
        };
        // Sliding-window ops: spatial dims from kernel, stride and padding;
        // channels from `filters`, or kept.
        let window = |kernel: (u32, u32), strides: (u32, u32), padding, filters: Option<u32>| {
            let (h, w, c) = map(inputs[0])?;
            if strides.0 == 0 || strides.1 == 0 {
                return Err(format!("{name} has a zero stride"));
            }
            Ok(TensorShape::map(
                conv_dim(h, kernel.0, strides.0, padding),
                conv_dim(w, kernel.1, strides.1, padding),
                filters.unwrap_or(c),
            ))
        };
        let too_big = || format!("{name} output overflows u32");
        Ok(match self {
            LayerOp::Input { shape } => *shape,
            LayerOp::Conv2D {
                filters,
                kernel,
                strides,
                padding,
                ..
            }
            | LayerOp::SeparableConv2D {
                filters,
                kernel,
                strides,
                padding,
                ..
            } => window(*kernel, *strides, *padding, Some(*filters))?,
            LayerOp::DepthwiseConv2D {
                kernel,
                strides,
                padding,
                ..
            }
            | LayerOp::MaxPool {
                pool: kernel,
                strides,
                padding,
            }
            | LayerOp::AvgPool {
                pool: kernel,
                strides,
                padding,
            } => window(*kernel, *strides, *padding, None)?,
            LayerOp::Dense { units, .. } => match inputs[0] {
                TensorShape::Flat(_) => TensorShape::Flat(*units),
                s => return Err(format!("{name} requires a flat input, got {s}")),
            },
            LayerOp::BatchNorm { .. }
            | LayerOp::ActivationLayer { .. }
            | LayerOp::Dropout
            | LayerOp::LayerNorm => inputs[0],
            LayerOp::GlobalAvgPool => TensorShape::Flat(map(inputs[0])?.2),
            LayerOp::ZeroPadding { padding } => {
                let (h, w, c) = map(inputs[0])?;
                let grow = |x: u32, a: u32, b: u32| x.checked_add(a)?.checked_add(b);
                TensorShape::map(
                    grow(h, padding.0, padding.1).ok_or_else(too_big)?,
                    grow(w, padding.2, padding.3).ok_or_else(too_big)?,
                    c,
                )
            }
            LayerOp::Add => {
                if inputs[1..].iter().any(|s| *s != inputs[0]) {
                    return Err("Add inputs must agree in shape".into());
                }
                inputs[0]
            }
            // Maps join along channels (spatial dims must agree); flat
            // vectors join end to end.
            LayerOp::Concat => {
                let mut out = inputs[0];
                for &s in &inputs[1..] {
                    out = match (out, s) {
                        (TensorShape::Flat(a), TensorShape::Flat(b)) => {
                            TensorShape::Flat(a.checked_add(b).ok_or_else(too_big)?)
                        }
                        (
                            TensorShape::Map { h, w, c },
                            TensorShape::Map {
                                h: h2,
                                w: w2,
                                c: c2,
                            },
                        ) if (h, w) == (h2, w2) => {
                            TensorShape::map(h, w, c.checked_add(c2).ok_or_else(too_big)?)
                        }
                        _ => return Err(format!("Concat inputs {out} and {s} must agree")),
                    };
                }
                out
            }
            LayerOp::Flatten => {
                TensorShape::Flat(u32::try_from(inputs[0].elements()).map_err(|_| too_big())?)
            }
            LayerOp::Reshape { shape } => {
                if inputs[0].elements() != shape.elements() {
                    return Err("Reshape must preserve element count".into());
                }
                *shape
            }
            LayerOp::Embedding {
                dim, max_positions, ..
            } => {
                let TensorShape::Flat(seq) = inputs[0] else {
                    return Err("Embedding expects flat token ids".into());
                };
                if seq > *max_positions {
                    return Err(format!(
                        "sequence of {seq} exceeds {max_positions} positions"
                    ));
                }
                TensorShape::map(seq, 1, *dim)
            }
            LayerOp::SelfAttention { .. } => {
                let (seq, w, d) = map(inputs[0])?;
                if w != 1 {
                    return Err("SelfAttention expects a (seq, 1, dim) map".into());
                }
                TensorShape::map(seq, 1, d)
            }
        })
    }

    /// Learned parameter count given the input shapes (Keras `Total params`
    /// semantics: BatchNorm contributes all four per-channel vectors).
    pub fn param_count(&self, inputs: &[TensorShape]) -> u64 {
        let cin = |idx: usize| u64::from(inputs[idx].channels());
        match self {
            LayerOp::Conv2D {
                filters,
                kernel,
                use_bias,
                ..
            } => {
                let f = u64::from(*filters);
                u64::from(kernel.0) * u64::from(kernel.1) * cin(0) * f
                    + if *use_bias { f } else { 0 }
            }
            LayerOp::DepthwiseConv2D {
                kernel, use_bias, ..
            } => {
                let c = cin(0);
                u64::from(kernel.0) * u64::from(kernel.1) * c + if *use_bias { c } else { 0 }
            }
            LayerOp::SeparableConv2D {
                filters,
                kernel,
                use_bias,
                ..
            } => {
                let c = cin(0);
                let f = u64::from(*filters);
                u64::from(kernel.0) * u64::from(kernel.1) * c
                    + c * f
                    + if *use_bias { f } else { 0 }
            }
            LayerOp::Dense {
                units, use_bias, ..
            } => {
                let u = u64::from(*units);
                cin(0) * u + if *use_bias { u } else { 0 }
            }
            LayerOp::BatchNorm { scale } => {
                let per_channel = if *scale { 4 } else { 3 };
                per_channel * cin(0)
            }
            LayerOp::Embedding {
                vocab,
                dim,
                max_positions,
            } => {
                // Token table + positional table + the 2-row segment table
                // BERT carries.
                (u64::from(*vocab) + u64::from(*max_positions) + 2) * u64::from(*dim)
            }
            LayerOp::LayerNorm => 2 * cin(0),
            LayerOp::SelfAttention { .. } => {
                let d = cin(0);
                4 * (d * d + d) // fused Q, K, V, O projections with bias
            }
            _ => 0,
        }
    }

    /// Forward-pass floating-point operations (2 × multiply-accumulates for
    /// the matmul-like ops, element counts for the cheap ones). The runtime
    /// simulator converts this to CPU time.
    pub fn flops(&self, inputs: &[TensorShape]) -> u64 {
        let out = self.output_shape(inputs);
        let out_el = out.elements();
        match self {
            LayerOp::Conv2D { kernel, .. } => {
                let cin = u64::from(inputs[0].channels());
                2 * out_el * u64::from(kernel.0) * u64::from(kernel.1) * cin
            }
            LayerOp::DepthwiseConv2D { kernel, .. } => {
                2 * out_el * u64::from(kernel.0) * u64::from(kernel.1)
            }
            LayerOp::SeparableConv2D { kernel, .. } => {
                let cin = u64::from(inputs[0].channels());
                // Depthwise stage over cin maps + pointwise 1×1.
                let (h, w) = match out {
                    TensorShape::Map { h, w, .. } => (u64::from(h), u64::from(w)),
                    TensorShape::Flat(_) => unreachable!(),
                };
                let dw = 2 * h * w * cin * u64::from(kernel.0) * u64::from(kernel.1);
                let pw = 2 * out_el * cin;
                dw + pw
            }
            LayerOp::Dense { .. } => 2 * out_el * u64::from(inputs[0].channels()),
            LayerOp::BatchNorm { .. } => 2 * out_el,
            LayerOp::ActivationLayer { .. } => out_el,
            LayerOp::MaxPool { pool, .. } | LayerOp::AvgPool { pool, .. } => {
                out_el * u64::from(pool.0) * u64::from(pool.1)
            }
            LayerOp::GlobalAvgPool => inputs[0].elements(),
            LayerOp::Add => out_el * (inputs.len() as u64 - 1),
            LayerOp::Concat | LayerOp::Flatten | LayerOp::Reshape { .. } => out_el,
            LayerOp::ZeroPadding { .. } => out_el,
            LayerOp::Input { .. } | LayerOp::Dropout => 0,
            LayerOp::Embedding { .. } => out_el,
            LayerOp::LayerNorm => 5 * out_el,
            LayerOp::SelfAttention { .. } => {
                let (seq, d) = match out {
                    TensorShape::Map { h, c, .. } => (u64::from(h), u64::from(c)),
                    TensorShape::Flat(_) => unreachable!(),
                };
                // Q/K/V/O projections + the two seq×seq attention matmuls.
                2 * (4 * seq * d * d) + 2 * (2 * seq * seq * d)
            }
        }
    }

    /// True for merge layers that take several inputs.
    pub fn is_merge(&self) -> bool {
        matches!(self, LayerOp::Add | LayerOp::Concat)
    }

    /// Short Keras-style class name.
    pub fn class_name(&self) -> &'static str {
        match self {
            LayerOp::Input { .. } => "InputLayer",
            LayerOp::Conv2D { .. } => "Conv2D",
            LayerOp::DepthwiseConv2D { .. } => "DepthwiseConv2D",
            LayerOp::SeparableConv2D { .. } => "SeparableConv2D",
            LayerOp::Dense { .. } => "Dense",
            LayerOp::BatchNorm { .. } => "BatchNormalization",
            LayerOp::ActivationLayer { .. } => "Activation",
            LayerOp::MaxPool { .. } => "MaxPooling2D",
            LayerOp::AvgPool { .. } => "AveragePooling2D",
            LayerOp::GlobalAvgPool => "GlobalAveragePooling2D",
            LayerOp::ZeroPadding { .. } => "ZeroPadding2D",
            LayerOp::Add => "Add",
            LayerOp::Concat => "Concatenate",
            LayerOp::Flatten => "Flatten",
            LayerOp::Dropout => "Dropout",
            LayerOp::Reshape { .. } => "Reshape",
            LayerOp::Embedding { .. } => "Embedding",
            LayerOp::LayerNorm => "LayerNormalization",
            LayerOp::SelfAttention { .. } => "MultiHeadAttention",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input(h: u32, w: u32, c: u32) -> [TensorShape; 1] {
        [TensorShape::map(h, w, c)]
    }

    #[test]
    fn conv_same_padding_shape() {
        let op = LayerOp::Conv2D {
            filters: 64,
            kernel: (3, 3),
            strides: (2, 2),
            padding: Padding::Same,
            use_bias: true,
            activation: Activation::Relu,
        };
        assert_eq!(
            op.output_shape(&input(224, 224, 3)),
            TensorShape::map(112, 112, 64)
        );
    }

    #[test]
    fn conv_valid_padding_shape() {
        let op = LayerOp::Conv2D {
            filters: 64,
            kernel: (7, 7),
            strides: (2, 2),
            padding: Padding::Valid,
            use_bias: true,
            activation: Activation::Linear,
        };
        // ResNet50 conv1 after (3,3) zero padding: 230 → (230-7)/2+1 = 112.
        assert_eq!(
            op.output_shape(&input(230, 230, 3)),
            TensorShape::map(112, 112, 64)
        );
    }

    #[test]
    fn conv_param_count_vgg_block1() {
        let op = LayerOp::Conv2D {
            filters: 64,
            kernel: (3, 3),
            strides: (1, 1),
            padding: Padding::Same,
            use_bias: true,
            activation: Activation::Relu,
        };
        assert_eq!(op.param_count(&input(224, 224, 3)), 1792); // 3*3*3*64 + 64
    }

    #[test]
    fn depthwise_params_and_shape() {
        let op = LayerOp::DepthwiseConv2D {
            kernel: (3, 3),
            strides: (1, 1),
            padding: Padding::Same,
            use_bias: false,
        };
        assert_eq!(op.param_count(&input(112, 112, 32)), 9 * 32);
        assert_eq!(
            op.output_shape(&input(112, 112, 32)),
            TensorShape::map(112, 112, 32)
        );
    }

    #[test]
    fn separable_params() {
        // Keras Xception block2_sepconv1: sepconv 3x3, 64→128, no bias:
        // 9*64 + 64*128 = 8768.
        let op = LayerOp::SeparableConv2D {
            filters: 128,
            kernel: (3, 3),
            strides: (1, 1),
            padding: Padding::Same,
            use_bias: false,
        };
        assert_eq!(op.param_count(&input(147, 147, 64)), 8768);
    }

    #[test]
    fn dense_params() {
        let op = LayerOp::Dense {
            units: 1000,
            use_bias: true,
            activation: Activation::Softmax,
        };
        assert_eq!(op.param_count(&[TensorShape::Flat(2048)]), 2_049_000);
    }

    #[test]
    fn batchnorm_params() {
        assert_eq!(
            LayerOp::BatchNorm { scale: true }.param_count(&input(56, 56, 64)),
            256
        );
        // Inception-V3 style: scale=False drops γ → 3 per channel.
        assert_eq!(
            LayerOp::BatchNorm { scale: false }.param_count(&input(56, 56, 64)),
            192
        );
    }

    #[test]
    fn zero_padding_shape() {
        let op = LayerOp::ZeroPadding {
            padding: (3, 3, 3, 3),
        };
        assert_eq!(
            op.output_shape(&input(224, 224, 3)),
            TensorShape::map(230, 230, 3)
        );
    }

    #[test]
    fn maxpool_valid_shape() {
        let op = LayerOp::MaxPool {
            pool: (3, 3),
            strides: (2, 2),
            padding: Padding::Valid,
        };
        // ResNet50 pool1: 114 → (114-3)/2+1 = 56.
        assert_eq!(
            op.output_shape(&input(114, 114, 64)),
            TensorShape::map(56, 56, 64)
        );
    }

    #[test]
    fn global_pool_flattens() {
        assert_eq!(
            LayerOp::GlobalAvgPool.output_shape(&input(7, 7, 2048)),
            TensorShape::Flat(2048)
        );
    }

    #[test]
    fn add_requires_matching_shapes() {
        let s = TensorShape::map(56, 56, 256);
        assert_eq!(LayerOp::Add.output_shape(&[s, s]), s);
    }

    #[test]
    #[should_panic(expected = "must agree")]
    fn add_mismatched_shapes_panics() {
        LayerOp::Add.output_shape(&[TensorShape::map(56, 56, 256), TensorShape::map(56, 56, 128)]);
    }

    #[test]
    fn concat_sums_channels() {
        let a = TensorShape::map(35, 35, 64);
        let b = TensorShape::map(35, 35, 96);
        let c = TensorShape::map(35, 35, 96);
        assert_eq!(
            LayerOp::Concat.output_shape(&[a, b, c]),
            TensorShape::map(35, 35, 256)
        );
    }

    #[test]
    fn flatten_counts_elements() {
        assert_eq!(
            LayerOp::Flatten.output_shape(&input(7, 7, 512)),
            TensorShape::Flat(25088)
        );
    }

    #[test]
    fn conv_flops_known() {
        // 1x1 conv, 56x56, 64→256: 2 * 56*56*256 * 1*1*64.
        let op = LayerOp::Conv2D {
            filters: 256,
            kernel: (1, 1),
            strides: (1, 1),
            padding: Padding::Same,
            use_bias: true,
            activation: Activation::Linear,
        };
        assert_eq!(op.flops(&input(56, 56, 64)), 2 * 56 * 56 * 256 * 64);
    }

    #[test]
    fn shape_bytes() {
        assert_eq!(TensorShape::map(224, 224, 3).bytes(), 224 * 224 * 3 * 4);
        assert_eq!(TensorShape::Flat(1000).bytes(), 4000);
    }

    #[test]
    fn input_layer_passthrough() {
        let op = LayerOp::Input {
            shape: TensorShape::map(299, 299, 3),
        };
        assert_eq!(op.output_shape(&[]), TensorShape::map(299, 299, 3));
        assert_eq!(op.param_count(&[]), 0);
        assert_eq!(op.flops(&[]), 0);
    }

    #[test]
    fn reshape_preserves_elements() {
        let op = LayerOp::Reshape {
            shape: TensorShape::map(1, 1, 1024),
        };
        assert_eq!(
            op.output_shape(&[TensorShape::Flat(1024)]),
            TensorShape::map(1, 1, 1024)
        );
    }
}
