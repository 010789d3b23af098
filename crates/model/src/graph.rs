//! The layer DAG and its partition-boundary accounting.
//!
//! AMPS-Inf partitions a model into *contiguous runs of the topological
//! layer order* (the paper's example: a 3-layer model has cuts (3), (1,2),
//! (2,1), (1,1,1)). For DAG models (ResNet's residual edges, Inception's
//! branches) a boundary can be crossed by several live tensors at once —
//! [`LayerGraph::cut_transfer_bytes`] accounts for exactly the set of
//! activations produced on one side and consumed on the other, which is the
//! `p_i` of the paper's Eq. (2).

use crate::layer::{LayerOp, TensorShape};

/// A node in the layer graph.
#[derive(Debug, Clone)]
pub struct LayerNode {
    /// Unique layer name (Keras-style, e.g. `conv2_block1_1_conv`).
    pub name: String,
    /// The operation.
    pub op: LayerOp,
    /// Indices of the producing layers this node consumes.
    pub inputs: Vec<usize>,
    /// Output shape, computed at insertion time.
    pub output_shape: TensorShape,
    /// Learned parameters, computed at insertion time.
    pub params: u64,
    /// Forward FLOPs, computed at insertion time.
    pub flops: u64,
}

/// A neural-network model as a DAG of layers in topological insertion order.
#[derive(Debug, Clone)]
pub struct LayerGraph {
    /// Model name (e.g. `resnet50`).
    pub name: String,
    nodes: Vec<LayerNode>,
    /// Bytes per stored weight scalar (4 = float32; the paper's §7
    /// future-work quantization pre-pass shrinks this to 2 or 1).
    bytes_per_param: u64,
}

impl LayerGraph {
    /// Reassembles a graph from deserialized parts (model-file loading);
    /// callers run [`LayerGraph::validate`] on the result.
    pub(crate) fn from_parts(name: String, nodes: Vec<LayerNode>, bytes_per_param: u64) -> Self {
        LayerGraph {
            name,
            nodes,
            bytes_per_param,
        }
    }

    /// Creates an empty graph (float32 weights).
    pub fn new(name: impl Into<String>) -> Self {
        LayerGraph {
            name: name.into(),
            nodes: Vec::new(),
            bytes_per_param: crate::BYTES_PER_SCALAR,
        }
    }

    /// Bytes per stored weight scalar.
    pub fn bytes_per_param(&self) -> u64 {
        self.bytes_per_param
    }

    /// Returns a copy with quantized weight storage (the paper's §7
    /// future-work pre-pass: e.g. 2 for fp16, 1 for int8). Activations and
    /// compute are unchanged — only the deployment/temporary sizes `e`, `z`
    /// shrink, which is exactly what unlocks giant layers.
    ///
    /// # Panics
    /// Panics if `bytes` is 0 or greater than 4.
    pub fn quantized(&self, bytes: u64) -> LayerGraph {
        assert!((1..=4).contains(&bytes), "supported widths: 1..=4 bytes");
        let mut g = self.clone();
        g.bytes_per_param = bytes;
        g.name = format!("{}-w{}", self.name, bytes * 8);
        g
    }

    /// Returns a copy with the `Dense` layer at `layer` split into `k`
    /// sibling `Dense` slices (`{name}/0` …) that all read its input,
    /// followed by a `Concat` merge (`{name}/concat`) that every former
    /// consumer reads instead — intra-layer parallelism as one more
    /// width-`k` fork/join region ([`LayerGraph::branch_regions`]).
    /// Units are dealt as evenly as possible (the first `units % k`
    /// slices take one more), so the slices' params and FLOPs sum exactly
    /// to the layer's; the merge adds only its copy (`units` FLOPs).
    ///
    /// Errors when `layer` is out of range or not a `Dense`, or when `k`
    /// is below 2 or above the layer's units.
    pub fn split_layer(&self, layer: usize, k: u32) -> Result<LayerGraph, String> {
        let node = self
            .nodes
            .get(layer)
            .ok_or_else(|| format!("layer {layer} out of range ({} layers)", self.nodes.len()))?;
        let LayerOp::Dense {
            units,
            use_bias,
            activation,
        } = node.op
        else {
            return Err(format!(
                "{} is a {}; only Dense layers split",
                node.name,
                node.op.class_name()
            ));
        };
        if !(2..=units).contains(&k) {
            return Err(format!(
                "cannot split {} ({units} units) into {k} slices",
                node.name
            ));
        }
        let mut g = LayerGraph {
            name: self.name.clone(),
            nodes: Vec::with_capacity(self.nodes.len() + k as usize + 1),
            bytes_per_param: self.bytes_per_param,
        };
        // `remap[i]`: the index in `g` of the tensor old layer `i` produced.
        let mut remap = Vec::with_capacity(self.nodes.len());
        for (i, n) in self.nodes.iter().enumerate() {
            let inputs: Vec<usize> = n.inputs.iter().map(|&j| remap[j]).collect();
            if i != layer {
                remap.push(g.add(n.name.clone(), n.op.clone(), &inputs));
                continue;
            }
            let slices: Vec<usize> = (0..k)
                .map(|s| {
                    let op = LayerOp::Dense {
                        units: units / k + u32::from(s < units % k),
                        use_bias,
                        activation,
                    };
                    g.add(format!("{}/{s}", n.name), op, &inputs)
                })
                .collect();
            remap.push(g.add(format!("{}/concat", n.name), LayerOp::Concat, &slices));
        }
        Ok(g)
    }

    /// Appends a layer consuming the outputs of `inputs` (indices of
    /// previously added layers) and returns its index.
    ///
    /// # Panics
    /// Panics when an input index is out of range (construction bug), when
    /// arity is wrong for the op, or when shapes do not conform.
    pub fn add(&mut self, name: impl Into<String>, op: LayerOp, inputs: &[usize]) -> usize {
        let idx = self.nodes.len();
        for &i in inputs {
            assert!(
                i < idx,
                "layer input {i} not yet defined (adding node {idx})"
            );
        }
        let in_shapes: Vec<TensorShape> =
            inputs.iter().map(|&i| self.nodes[i].output_shape).collect();
        let output_shape = op.output_shape(&in_shapes);
        let params = op.param_count(&in_shapes);
        let flops = op.flops(&in_shapes);
        self.nodes.push(LayerNode {
            name: name.into(),
            op,
            inputs: inputs.to_vec(),
            output_shape,
            params,
            flops,
        });
        idx
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.nodes.len()
    }

    /// Immutable node access.
    pub fn node(&self, i: usize) -> &LayerNode {
        &self.nodes[i]
    }

    /// All nodes in topological order.
    pub fn nodes(&self) -> &[LayerNode] {
        &self.nodes
    }

    /// Index of the layer with the given name.
    pub fn find(&self, name: &str) -> Option<usize> {
        self.nodes.iter().position(|n| n.name == name)
    }

    /// Total learned parameters (Keras `Total params`).
    pub fn total_params(&self) -> u64 {
        self.nodes.iter().map(|n| n.params).sum()
    }

    /// Total forward FLOPs for one input.
    pub fn total_flops(&self) -> u64 {
        self.nodes.iter().map(|n| n.flops).sum()
    }

    /// Total weight bytes (params × width; the paper's Table 1 model size
    /// at the default float32 width).
    pub fn weight_bytes(&self) -> u64 {
        self.total_params() * self.bytes_per_param
    }

    /// Validates the DAG: topological input order, a supported weight
    /// width, op arity and input shapes, and stored shapes, params and
    /// FLOPs that match the ones recomputed from each op.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes.is_empty() {
            return Err("empty graph".into());
        }
        if !(1..=4).contains(&self.bytes_per_param) {
            return Err(format!(
                "bytes_per_param {} is not in 1..=4",
                self.bytes_per_param
            ));
        }
        for (idx, n) in self.nodes.iter().enumerate() {
            for &i in &n.inputs {
                if i >= idx {
                    return Err(format!("node {idx} ({}) has forward edge to {i}", n.name));
                }
            }
            let in_shapes: Vec<TensorShape> = n
                .inputs
                .iter()
                .map(|&i| self.nodes[i].output_shape)
                .collect();
            let shape =
                n.op.try_output_shape(&in_shapes)
                    .map_err(|e| format!("node {idx} ({}): {e}", n.name))?;
            let params = n.op.param_count(&in_shapes);
            let flops = n.op.flops(&in_shapes);
            if (n.output_shape, n.params, n.flops) != (shape, params, flops) {
                return Err(format!(
                    "node {idx} ({}): stored shape {}, {} params, {} FLOPs != recomputed \
                     {shape}, {params} params, {flops} FLOPs",
                    n.name, n.output_shape, n.params, n.flops
                ));
            }
        }
        // Exactly the final node should be a sink in a serving model, but we
        // only require at least one sink for generality.
        Ok(())
    }

    /// Bytes of live activations crossing the boundary *after* position `k`
    /// (i.e. between layer `k` and layer `k+1` in topological order): the
    /// sum of output sizes of layers `≤ k` consumed by any layer `> k`.
    ///
    /// For `k = num_layers()-1` (after the last layer) this is the final
    /// output size — what the chain returns to the user.
    pub fn cut_transfer_bytes(&self, k: usize) -> u64 {
        assert!(k < self.nodes.len(), "cut position out of range");
        if k + 1 == self.nodes.len() {
            return self.nodes[k].output_shape.bytes();
        }
        let mut crossing = 0u64;
        for (idx, n) in self.nodes.iter().enumerate().take(k + 1) {
            let consumed_later = self
                .nodes
                .iter()
                .skip(k + 1)
                .any(|m| m.inputs.contains(&idx));
            if consumed_later {
                crossing += n.output_shape.bytes();
            }
        }
        crossing
    }

    /// Every boundary's crossing bytes at once: entry `k` equals
    /// [`LayerGraph::cut_transfer_bytes`]`(k)`, built in one O(layers +
    /// edges) sweep instead of one O(n²) scan per boundary. A tensor
    /// crosses exactly the boundaries from its producer up to (not
    /// including) its last consumer, so a running sum adds each tensor at
    /// its producer and drops it at its last consumer.
    pub fn boundary_transfer_bytes(&self) -> Vec<u64> {
        let mut out = self.crossing_sums(&self.last_consumers(), |i| {
            self.nodes[i].output_shape.bytes()
        });
        // After the last layer the chain returns the final output.
        if let (Some(b), Some(node)) = (out.last_mut(), self.nodes.last()) {
            *b = node.output_shape.bytes();
        }
        out
    }

    /// Per boundary `k`, the sum of `weight(i)` over the tensors live
    /// across it (`i ≤ k < last[i]`), as a difference-array sweep over the
    /// [`last_consumers`](Self::last_consumers) table.
    fn crossing_sums(&self, last: &[usize], weight: impl Fn(usize) -> u64) -> Vec<u64> {
        // `ends[k]`: weight of the tensors whose last consumer is `k`.
        let mut ends = vec![0u64; last.len()];
        for (i, &l) in last.iter().enumerate() {
            if l > i {
                ends[l] += weight(i);
            }
        }
        let mut crossing = 0u64;
        let mut out = Vec::with_capacity(last.len());
        for (k, &l) in last.iter().enumerate() {
            // Tensors dropped here were added at earlier producers, so the
            // running sum never underflows.
            crossing -= ends[k];
            if l > k {
                crossing += weight(k);
            }
            out.push(crossing);
        }
        out
    }

    /// Per layer, the index of its output's last consumer, or the layer's
    /// own index when nothing consumes it. The output of layer `i` crosses
    /// the boundary after `k ≥ i` exactly when `last[i] > k`.
    fn last_consumers(&self) -> Vec<usize> {
        let mut last: Vec<usize> = (0..self.nodes.len()).collect();
        for (idx, n) in self.nodes.iter().enumerate() {
            for &i in &n.inputs {
                last[i] = last[i].max(idx);
            }
        }
        last
    }

    /// Number of distinct live tensors crossing the boundary after `k`.
    pub fn cut_tensor_count(&self, k: usize) -> usize {
        assert!(k < self.nodes.len(), "cut position out of range");
        if k + 1 == self.nodes.len() {
            return 1;
        }
        (0..=k)
            .filter(|&idx| {
                self.nodes
                    .iter()
                    .skip(k + 1)
                    .any(|m| m.inputs.contains(&idx))
            })
            .count()
    }

    /// Bytes flowing across the *span* `[start, end]` rather than across a
    /// full topological cut: `(in, out)` where `in` sums tensors produced
    /// before `start` and consumed inside the span, and `out` sums tensors
    /// produced inside and consumed after `end`. Unlike
    /// [`LayerGraph::cut_transfer_bytes`], tensors that merely pass *by*
    /// the span (live across it but never touched by it) are excluded —
    /// exactly what a parallel branch of a fork/join region moves when it
    /// runs in its own sandbox.
    pub fn span_io_bytes(&self, start: usize, end: usize) -> (u64, u64) {
        assert!(start <= end && end < self.nodes.len(), "bad span bounds");
        let mut in_bytes = 0u64;
        for idx in 0..start {
            let consumed_inside = self.nodes[start..=end]
                .iter()
                .any(|m| m.inputs.contains(&idx));
            if consumed_inside {
                in_bytes += self.nodes[idx].output_shape.bytes();
            }
        }
        let mut out_bytes = 0u64;
        for idx in start..=end {
            // The final layer's output is what the model returns to the
            // user even though no later layer consumes it.
            let consumed_after = (end + 1 == self.nodes.len() && idx == end)
                || self
                    .nodes
                    .iter()
                    .skip(end + 1)
                    .any(|m| m.inputs.contains(&idx));
            if consumed_after {
                out_bytes += self.nodes[idx].output_shape.bytes();
            }
        }
        (in_bytes, out_bytes)
    }

    /// Per-branch output bytes of one fork/join region — the gather
    /// object sizes a branch-parallel plan must checkpoint between each
    /// branch and the merge node, in branch order. A DAG search calls
    /// [`LayerGraph::span_io_bytes`] for the same spans on every trial
    /// plan; this hook lets it precompute the table once per region set.
    pub fn region_gather_bytes(&self, r: &BranchRegion) -> Vec<u64> {
        r.branches
            .iter()
            .map(|&(s, e)| self.span_io_bytes(s, e).1)
            .collect()
    }

    /// Enumerates the fork/join regions of the DAG: spans `(entry, merge)`
    /// where the single tensor leaving `entry` fans out into ≥ 2
    /// independent contiguous branches that rejoin at the merge layer.
    /// These are the maximal-antichain boundaries a branch-parallel plan
    /// can exploit: each branch can run as its own concurrent sandbox, fed
    /// by a scatter of the entry tensor and drained by a gather into the
    /// merge.
    ///
    /// A region qualifies only when (a) exactly one live tensor crosses
    /// the boundary after `entry` (so the scatter is one object), (b) no
    /// interior tensor is consumed past `merge` (so the gather collects
    /// everything), (c) the merge consumes interior tensors only, and (d)
    /// the interior splits into ≥ 2 connected components, each a
    /// contiguous run of the topological order (so each branch is a valid
    /// contiguous partition span). ResNet's conv-shortcut blocks yield two
    /// branches, Inception mixed blocks three or four; identity-skip
    /// blocks (where the merge reads the entry tensor directly) are
    /// excluded by (c).
    pub fn branch_regions(&self) -> Vec<BranchRegion> {
        let n = self.nodes.len();
        let last = self.last_consumers();
        let live = self.crossing_sums(&last, |_| 1);
        let mut regions = Vec::new();
        for b in 0..n {
            if !self.nodes[b].op.is_merge() {
                continue;
            }
            let Some(&lo) = self.nodes[b].inputs.iter().min() else {
                continue;
            };
            if lo == 0 {
                continue;
            }
            // Entry fixpoint: the largest `a` such that every layer
            // strictly between `a` and `b` draws only on `a` or interior
            // layers.
            let mut a = lo - 1;
            loop {
                let m = (a + 1..b)
                    .flat_map(|i| self.nodes[i].inputs.iter().copied())
                    .min()
                    .unwrap_or(a);
                if m >= a {
                    break;
                }
                a = m;
            }
            // (c) the merge must consume interior tensors only (identity
            // skips read the entry tensor directly and are excluded).
            if self.nodes[b].inputs.iter().any(|&i| i <= a) {
                continue;
            }
            // (a) exactly one tensor enters the region (`a < b`, so this
            // is never the final boundary).
            if live[a] != 1 {
                continue;
            }
            // (b) neither the entry tensor nor any interior tensor may be
            // consumed past the merge (the gather must collect everything
            // the rest of the network will ever need).
            if (a..b).any(|i| last[i] > b) {
                continue;
            }
            let len = b - a - 1;
            if len < 2 {
                continue;
            }
            // (d) union-find over interior edges; each component must be a
            // contiguous run of layer indices.
            let mut parent: Vec<usize> = (0..len).collect();
            fn root(parent: &mut [usize], mut x: usize) -> usize {
                while parent[x] != x {
                    parent[x] = parent[parent[x]];
                    x = parent[x];
                }
                x
            }
            for i in a + 1..b {
                for &j in &self.nodes[i].inputs {
                    if j > a {
                        let (ri, rj) = (root(&mut parent, i - a - 1), root(&mut parent, j - a - 1));
                        if ri != rj {
                            parent[ri.max(rj)] = ri.min(rj);
                        }
                    }
                }
            }
            // (root, min, max, count) per component.
            let mut comp: Vec<(usize, usize, usize, usize)> = Vec::new();
            for x in 0..len {
                let r = root(&mut parent, x);
                if let Some(c) = comp.iter_mut().find(|c| c.0 == r) {
                    c.1 = c.1.min(x);
                    c.2 = c.2.max(x);
                    c.3 += 1;
                } else {
                    comp.push((r, x, x, 1));
                }
            }
            if comp.len() < 2 {
                continue;
            }
            // Contiguity: every component covers exactly its index range.
            if comp.iter().any(|&(_, mn, mx, sz)| mx - mn + 1 != sz) {
                continue;
            }
            let mut branches: Vec<(usize, usize)> = comp
                .iter()
                .map(|&(_, mn, mx, _)| (mn + a + 1, mx + a + 1))
                .collect();
            branches.sort_unstable();
            regions.push(BranchRegion {
                entry: a,
                merge: b,
                branches,
            });
        }
        regions
    }

    /// Aggregate statistics for the contiguous segment `[start, end]`
    /// (inclusive bounds over topological positions).
    pub fn segment(&self, start: usize, end: usize) -> CutAccounting {
        self.segment_with(start, end, &self.boundary_transfer_bytes())
    }

    /// [`LayerGraph::segment`] reading the crossing bytes from a
    /// [`LayerGraph::boundary_transfer_bytes`] table, so a caller
    /// accounting many segments of one graph builds the table once.
    pub fn segment_with(&self, start: usize, end: usize, boundary: &[u64]) -> CutAccounting {
        assert!(start <= end && end < self.nodes.len(), "bad segment bounds");
        assert_eq!(boundary.len(), self.nodes.len(), "one entry per boundary");
        let params: u64 = self.nodes[start..=end].iter().map(|n| n.params).sum();
        let flops: u64 = self.nodes[start..=end].iter().map(|n| n.flops).sum();
        let in_bytes = if start == 0 {
            self.nodes[0].output_shape.bytes() // model input tensor
        } else {
            boundary[start - 1]
        };
        let out_bytes = boundary[end];
        // Peak temporary activations: sum of all outputs in the segment is a
        // safe over-approximation of what Keras keeps in memory while
        // executing the partition sequentially; large models' temp-storage
        // constraint (paper Eq. 5) uses this.
        let act_bytes: u64 = self.nodes[start..=end]
            .iter()
            .map(|n| n.output_shape.bytes())
            .sum();
        CutAccounting {
            start,
            end,
            params,
            flops,
            weight_bytes: params * self.bytes_per_param,
            input_bytes: in_bytes,
            output_bytes: out_bytes,
            activation_bytes: act_bytes,
        }
    }
}

/// A fork/join region of the layer DAG (see
/// [`LayerGraph::branch_regions`]): the single tensor leaving `entry`
/// fans out into ≥ 2 independent contiguous branches that rejoin at the
/// `merge` layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BranchRegion {
    /// Layer whose output every branch consumes (the scatter source).
    pub entry: usize,
    /// Merge layer consuming every branch's output (the gather sink).
    pub merge: usize,
    /// Interior branches as disjoint contiguous `(start, end)` layer
    /// spans (inclusive), sorted; together they cover `entry+1 ..= merge-1`.
    pub branches: Vec<(usize, usize)>,
}

impl BranchRegion {
    /// Fan-out width (number of parallel branches).
    pub fn width(&self) -> usize {
        self.branches.len()
    }
}

/// Aggregates for one contiguous partition of the layer order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CutAccounting {
    /// First layer index (inclusive).
    pub start: usize,
    /// Last layer index (inclusive).
    pub end: usize,
    /// Learned parameters in the segment.
    pub params: u64,
    /// Forward FLOPs in the segment.
    pub flops: u64,
    /// Weight bytes (`params × 4`) — the paper's per-partition `y·e`.
    pub weight_bytes: u64,
    /// Bytes that must be read from the previous partition (`p_{i-1}`).
    pub input_bytes: u64,
    /// Bytes that must be written for the next partition (`p_i`).
    pub output_bytes: u64,
    /// Activation bytes materialized while executing the segment (`y·z`).
    pub activation_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Activation, Padding};

    /// input → conv → conv → dense-ish tail (via flatten).
    fn chain() -> LayerGraph {
        let mut g = LayerGraph::new("chain");
        let inp = g.add(
            "input",
            LayerOp::Input {
                shape: TensorShape::map(8, 8, 3),
            },
            &[],
        );
        let c1 = g.add(
            "conv1",
            LayerOp::Conv2D {
                filters: 4,
                kernel: (3, 3),
                strides: (1, 1),
                padding: Padding::Same,
                use_bias: true,
                activation: Activation::Relu,
            },
            &[inp],
        );
        let c2 = g.add(
            "conv2",
            LayerOp::Conv2D {
                filters: 8,
                kernel: (3, 3),
                strides: (2, 2),
                padding: Padding::Same,
                use_bias: true,
                activation: Activation::Relu,
            },
            &[c1],
        );
        let f = g.add("flatten", LayerOp::Flatten, &[c2]);
        g.add(
            "dense",
            LayerOp::Dense {
                units: 10,
                use_bias: true,
                activation: Activation::Softmax,
            },
            &[f],
        );
        g
    }

    /// input → a → (b, skip) → add(b, a-ish): a residual diamond.
    fn residual() -> LayerGraph {
        let mut g = LayerGraph::new("residual");
        let inp = g.add(
            "input",
            LayerOp::Input {
                shape: TensorShape::map(8, 8, 4),
            },
            &[],
        );
        let a = g.add(
            "conv_a",
            LayerOp::Conv2D {
                filters: 4,
                kernel: (1, 1),
                strides: (1, 1),
                padding: Padding::Same,
                use_bias: false,
                activation: Activation::Linear,
            },
            &[inp],
        );
        let b = g.add(
            "conv_b",
            LayerOp::Conv2D {
                filters: 4,
                kernel: (3, 3),
                strides: (1, 1),
                padding: Padding::Same,
                use_bias: false,
                activation: Activation::Relu,
            },
            &[a],
        );
        g.add("add", LayerOp::Add, &[a, b]);
        g
    }

    #[test]
    fn chain_shapes_and_params() {
        let g = chain();
        assert_eq!(g.num_layers(), 5);
        assert_eq!(g.node(1).output_shape, TensorShape::map(8, 8, 4));
        assert_eq!(g.node(2).output_shape, TensorShape::map(4, 4, 8));
        assert_eq!(g.node(4).output_shape, TensorShape::Flat(10));
        // conv1: 3*3*3*4+4 = 112; conv2: 3*3*4*8+8 = 296; dense: 128*10+10.
        assert_eq!(g.total_params(), 112 + 296 + 1290);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn find_by_name() {
        let g = chain();
        assert_eq!(g.find("conv2"), Some(2));
        assert_eq!(g.find("nope"), None);
    }

    #[test]
    fn chain_cut_transfer_is_single_tensor() {
        let g = chain();
        // After conv1 (idx 1): only conv1's output crosses.
        assert_eq!(g.cut_transfer_bytes(1), 8 * 8 * 4 * 4);
        assert_eq!(g.cut_tensor_count(1), 1);
        // After the last layer: the prediction vector.
        assert_eq!(g.cut_transfer_bytes(4), 40);
    }

    #[test]
    fn residual_cut_carries_two_tensors() {
        let g = residual();
        // Boundary after conv_b (idx 2): both conv_a and conv_b outputs are
        // consumed by add (idx 3).
        assert_eq!(g.cut_tensor_count(2), 2);
        assert_eq!(g.cut_transfer_bytes(2), 2 * (8 * 8 * 4 * 4));
        // Boundary after conv_a (idx 1): only conv_a's output crosses (it
        // feeds both conv_b and add, but it is one tensor).
        assert_eq!(g.cut_tensor_count(1), 1);
        assert_eq!(g.cut_transfer_bytes(1), 8 * 8 * 4 * 4);
    }

    /// input → pool-ish entry → (branch1: 2 convs, branch2: 1 conv) →
    /// concat: a miniature Inception block.
    fn forked() -> LayerGraph {
        let mut g = LayerGraph::new("forked");
        let inp = g.add(
            "input",
            LayerOp::Input {
                shape: TensorShape::map(8, 8, 4),
            },
            &[],
        );
        let entry = g.add(
            "entry",
            LayerOp::ActivationLayer {
                activation: Activation::Relu,
            },
            &[inp],
        );
        let conv = |filters| LayerOp::Conv2D {
            filters,
            kernel: (3, 3),
            strides: (1, 1),
            padding: Padding::Same,
            use_bias: false,
            activation: Activation::Relu,
        };
        let a1 = g.add("a1", conv(4), &[entry]);
        let a2 = g.add("a2", conv(4), &[a1]);
        let b1 = g.add("b1", conv(8), &[entry]);
        let cat = g.add("cat", LayerOp::Concat, &[a2, b1]);
        g.add(
            "out",
            LayerOp::ActivationLayer {
                activation: Activation::Relu,
            },
            &[cat],
        );
        g
    }

    #[test]
    fn branch_regions_found_on_fork() {
        let g = forked();
        let regions = g.branch_regions();
        assert_eq!(regions.len(), 1);
        let r = &regions[0];
        assert_eq!(r.entry, g.find("entry").unwrap());
        assert_eq!(r.merge, g.find("cat").unwrap());
        assert_eq!(r.branches, vec![(2, 3), (4, 4)]);
        assert_eq!(r.width(), 2);
    }

    #[test]
    fn branch_regions_exclude_identity_skip() {
        // residual(): add consumes conv_a (the entry tensor) directly —
        // only one real branch exists, so no region may be reported.
        assert!(residual().branch_regions().is_empty());
        // Pure chains have no merges at all.
        assert!(chain().branch_regions().is_empty());
    }

    #[test]
    fn span_io_excludes_bystander_tensors() {
        let g = forked();
        let px = 8 * 8 * 4; // entry/branch-a tensor elements
                            // Branch a (layers 2..=3): reads entry once, emits a2's output.
        assert_eq!(g.span_io_bytes(2, 3), (px * 4, px * 4));
        // Branch b (layer 4): reads the same entry tensor; its 8-channel
        // output crosses to the concat. The live a1→a2 internal tensor
        // and a2's output pass *by* layer 4 but are not billed to it.
        assert_eq!(g.span_io_bytes(4, 4), (px * 4, 2 * px * 4));
        // A full cut after layer 4 would carry both branch outputs.
        assert_eq!(g.cut_transfer_bytes(4), 3 * px * 4);
        // Final span: output is what the model returns.
        let last = g.num_layers() - 1;
        assert_eq!(g.span_io_bytes(last, last).1, g.cut_transfer_bytes(last));
    }

    #[test]
    fn region_gather_bytes_matches_span_io() {
        let g = forked();
        let regions = g.branch_regions();
        assert!(!regions.is_empty());
        for r in &regions {
            let table = g.region_gather_bytes(r);
            assert_eq!(table.len(), r.branches.len());
            for (b, &(s, e)) in table.iter().zip(&r.branches) {
                assert_eq!(*b, g.span_io_bytes(s, e).1);
            }
        }
    }

    #[test]
    fn split_layer_preserves_work_and_forms_one_region() {
        let g = chain();
        let dense = g.find("dense").unwrap();
        let s = g.split_layer(dense, 3).unwrap();
        assert!(s.validate().is_ok());
        assert_eq!(s.num_layers(), g.num_layers() + 3);
        // Units dealt 4/3/3; the slices carry exactly the layer's params
        // and FLOPs, and the merge adds only its 10-element copy.
        let slices: Vec<&LayerNode> = (0..3)
            .map(|i| s.node(s.find(&format!("dense/{i}")).unwrap()))
            .collect();
        let units: Vec<TensorShape> = slices.iter().map(|n| n.output_shape).collect();
        assert_eq!(
            units,
            [4, 3, 3].map(TensorShape::Flat).to_vec(),
            "even split"
        );
        assert_eq!(
            slices.iter().map(|n| n.params).sum::<u64>(),
            g.node(dense).params
        );
        assert_eq!(
            slices.iter().map(|n| n.flops).sum::<u64>(),
            g.node(dense).flops
        );
        assert_eq!(s.total_params(), g.total_params());
        let concat = s.node(s.find("dense/concat").unwrap());
        assert_eq!(concat.output_shape, TensorShape::Flat(10));
        assert_eq!(concat.flops, 10);
        assert_eq!(s.total_flops(), g.total_flops() + concat.flops);
        assert_eq!(s.weight_bytes(), g.weight_bytes());
        // The slices are one width-3 fork/join region fed by the flatten.
        let regions = s.branch_regions();
        assert_eq!(regions.len(), 1);
        assert_eq!(regions[0].entry, s.find("flatten").unwrap());
        assert_eq!(regions[0].merge, s.find("dense/concat").unwrap());
        assert_eq!(regions[0].width(), 3);
    }

    #[test]
    fn split_layer_rewires_consumers_to_the_merge() {
        // Splitting a layer in the middle: the next layer reads the merge.
        let mut g = chain();
        let last = g.num_layers() - 1;
        g.add(
            "head",
            LayerOp::Dense {
                units: 2,
                use_bias: false,
                activation: Activation::Linear,
            },
            &[last],
        );
        let s = g.split_layer(last, 2).unwrap();
        let head = s.node(s.find("head").unwrap());
        assert_eq!(head.inputs, vec![s.find("dense/concat").unwrap()]);
        assert_eq!(head.params, g.node(g.find("head").unwrap()).params);
    }

    #[test]
    fn split_layer_rejects_bad_input() {
        let g = chain();
        let dense = g.find("dense").unwrap();
        assert!(g.split_layer(g.find("conv1").unwrap(), 2).is_err());
        assert!(g.split_layer(dense, 1).is_err());
        assert!(g.split_layer(dense, 0).is_err());
        assert!(g.split_layer(dense, 11).is_err());
        assert!(g.split_layer(g.num_layers(), 2).is_err());
        // Every unit in its own slice is the widest legal split.
        assert_eq!(
            g.split_layer(dense, 10).unwrap().branch_regions()[0].width(),
            10
        );
    }

    #[test]
    fn segment_accounting() {
        let g = chain();
        let seg = g.segment(1, 2);
        assert_eq!(seg.params, 112 + 296);
        assert_eq!(seg.weight_bytes, (112 + 296) * 4);
        assert_eq!(seg.input_bytes, 8 * 8 * 3 * 4); // model input
        assert_eq!(seg.output_bytes, 4 * 4 * 8 * 4); // conv2 out
        assert_eq!(seg.activation_bytes, (8 * 8 * 4 + 4 * 4 * 8) * 4);
    }

    #[test]
    fn whole_model_segment_matches_totals() {
        let g = chain();
        let seg = g.segment(0, g.num_layers() - 1);
        assert_eq!(seg.params, g.total_params());
        assert_eq!(seg.flops, g.total_flops());
        assert_eq!(seg.output_bytes, 40);
    }

    #[test]
    #[should_panic(expected = "not yet defined")]
    fn forward_edge_rejected() {
        let mut g = LayerGraph::new("bad");
        g.add(
            "x",
            LayerOp::ActivationLayer {
                activation: Activation::Relu,
            },
            &[3],
        );
    }

    #[test]
    #[should_panic(expected = "exactly 1 input")]
    fn wrong_arity_rejected() {
        let mut g = LayerGraph::new("bad");
        let i = g.add(
            "input",
            LayerOp::Input {
                shape: TensorShape::map(4, 4, 1),
            },
            &[],
        );
        g.add("bn", LayerOp::BatchNorm { scale: true }, &[i, i]);
    }

    #[test]
    fn validate_detects_tampered_shape() {
        let mut g = chain();
        g.nodes[2].output_shape = TensorShape::map(9, 9, 9);
        assert!(g.validate().is_err());
    }

    #[test]
    fn quantization_scales_weight_bytes_only() {
        let g = chain();
        let q = g.quantized(2);
        assert_eq!(q.weight_bytes() * 2, g.weight_bytes());
        assert_eq!(q.total_params(), g.total_params());
        assert_eq!(q.total_flops(), g.total_flops());
        // Activations (transfer sizes) unchanged.
        assert_eq!(q.cut_transfer_bytes(1), g.cut_transfer_bytes(1));
        // Segment weights shrink accordingly.
        let seg32 = g.segment(1, 2);
        let seg16 = q.segment(1, 2);
        assert_eq!(seg16.weight_bytes * 2, seg32.weight_bytes);
        assert_eq!(seg16.activation_bytes, seg32.activation_bytes);
        assert!(q.name.ends_with("-w16"));
    }

    #[test]
    #[should_panic(expected = "supported widths")]
    fn quantized_rejects_zero_width() {
        chain().quantized(0);
    }

    #[test]
    fn flops_positive_for_compute_layers() {
        let g = chain();
        assert!(g.node(1).flops > 0);
        assert!(g.node(4).flops > 0);
        assert_eq!(g.node(0).flops, 0);
        assert_eq!(
            g.total_flops(),
            g.nodes().iter().map(|n| n.flops).sum::<u64>()
        );
    }
}
