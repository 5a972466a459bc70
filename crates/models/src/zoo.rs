//! The four MLPerf™ Tiny v1.0 topologies.

use crate::weights::{random_input, random_tensor};
use htvm_ir::{DType, Graph, GraphBuilder, IrError, NodeId, Shape, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Per-layer weight-precision recipe. HTVM's dispatch looks at the
/// weights' bit width (paper §III-C), so the quantization scheme *is* the
/// deployment recipe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QuantScheme {
    /// All layers 8-bit — the digital and plain-TVM configurations.
    Int8,
    /// Convolutions and dense layers ternary (analog); depthwise layers
    /// stay 8-bit since the analog array cannot execute them (they fall to
    /// the CPU in the analog-only configuration).
    Ternary,
    /// The paper's mixed recipe: the first and last accelerator-eligible
    /// layers and all depthwise layers in 8-bit (digital — "all the layers
    /// that do not cause an accuracy drop"), everything else ternary
    /// (analog).
    Mixed,
}

/// A generated network with its metadata.
#[derive(Debug, Clone)]
pub struct Model {
    /// Stable name (`"ds_cnn"`, `"mobilenet_v1"`, `"resnet8"`,
    /// `"toyadmos_dae"`).
    pub name: &'static str,
    /// The quantized graph.
    pub graph: Graph,
    /// Input tensor dimensions.
    pub input_dims: Vec<usize>,
    /// The scheme the model was built with.
    pub scheme: QuantScheme,
}

impl Model {
    /// A deterministic input tensor for this model.
    #[must_use]
    pub fn input(&self, seed: u64) -> Tensor {
        random_input(seed, &self.input_dims)
    }

    /// Runs the IR verifier over the model's graph and checks that the
    /// graph's one input has the shape [`Model::input`] feeds it,
    /// reporting which model failed. Library callers (bench bins, the
    /// serving path) get a `Result` they can surface instead of a process
    /// abort.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`htvm_ir::IrError`] annotated with the model
    /// name: the verifier's, or [`htvm_ir::IrError::BadOperand`] when the
    /// graph does not have exactly one input of shape `input_dims`.
    pub fn verify(&self) -> Result<(), ModelError> {
        let inputs: Vec<&Shape> = self
            .graph
            .inputs()
            .iter()
            .map(|&i| &self.graph.node(i).shape)
            .collect();
        htvm_ir::passes::verify(&self.graph)
            .and_then(|()| match inputs.as_slice() {
                [shape] if shape.dims() == self.input_dims => Ok(()),
                _ => Err(IrError::BadOperand {
                    op: "model input",
                    expected: format!("one input of shape {:?}", self.input_dims),
                    got: inputs.first().map_or_else(Shape::scalar, |&s| s.clone()),
                }),
            })
            .map_err(|error| ModelError {
                model: self.name,
                scheme: self.scheme,
                error,
            })
    }
}

/// A zoo model failed verification: the underlying IR error plus which
/// model/scheme produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelError {
    /// The failing model's stable name.
    pub model: &'static str,
    /// The scheme the model was built with.
    pub scheme: QuantScheme,
    /// The underlying verifier error.
    pub error: htvm_ir::IrError,
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "model {} ({:?}) failed verification: {}",
            self.model, self.scheme, self.error
        )
    }
}

impl std::error::Error for ModelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// Builder tracking the accelerator-eligible layer index for the mixed
/// recipe.
struct Net {
    b: GraphBuilder,
    rng: StdRng,
    scheme: QuantScheme,
    eligible_idx: usize,
    eligible_total: usize,
}

impl Net {
    fn new(seed: u64, scheme: QuantScheme, eligible_total: usize) -> Self {
        Net {
            b: GraphBuilder::new(),
            rng: StdRng::seed_from_u64(seed),
            scheme,
            eligible_idx: 0,
            eligible_total,
        }
    }

    /// Weight precision for the next eligible layer.
    fn next_prec(&mut self, is_dw: bool) -> DType {
        let i = self.eligible_idx;
        self.eligible_idx += 1;
        match self.scheme {
            QuantScheme::Int8 => DType::I8,
            QuantScheme::Ternary => {
                if is_dw {
                    DType::I8
                } else {
                    DType::Ternary
                }
            }
            QuantScheme::Mixed => {
                if is_dw || i == 0 || i + 1 == self.eligible_total {
                    DType::I8
                } else {
                    DType::Ternary
                }
            }
        }
    }

    fn requant_shift(&self, w_dtype: DType, reduction: usize) -> u32 {
        let bits = usize::BITS - reduction.max(1).leading_zeros();
        match w_dtype {
            DType::Ternary => bits + 2,
            _ => bits + 6,
        }
        .min(24)
    }

    fn conv(
        &mut self,
        x: NodeId,
        k: usize,
        (fy, fx): (usize, usize),
        strides: (usize, usize),
        padding: (usize, usize, usize, usize),
        relu: bool,
    ) -> NodeId {
        let c = self.b.shape_of(x).expect("valid node").dims()[0];
        let dtype = self.next_prec(false);
        let w = self
            .b
            .constant("w", random_tensor(&mut self.rng, dtype, &[k, c, fy, fx]));
        let bias = self
            .b
            .constant("b", random_tensor(&mut self.rng, DType::I32, &[k]));
        let y = self.b.conv2d(x, w, strides, padding).expect("conv");
        let y = self.b.bias_add(y, bias).expect("bias");
        let shift = self.requant_shift(dtype, c * fy * fx);
        self.b.requantize(y, shift, relu).expect("requant")
    }

    fn dw(
        &mut self,
        x: NodeId,
        (fy, fx): (usize, usize),
        strides: (usize, usize),
        padding: (usize, usize, usize, usize),
    ) -> NodeId {
        let c = self.b.shape_of(x).expect("valid node").dims()[0];
        let dtype = self.next_prec(true);
        let w = self
            .b
            .constant("w_dw", random_tensor(&mut self.rng, dtype, &[c, fy, fx]));
        let bias = self
            .b
            .constant("b_dw", random_tensor(&mut self.rng, DType::I32, &[c]));
        let y = self.b.depthwise_conv2d(x, w, strides, padding).expect("dw");
        let y = self.b.bias_add(y, bias).expect("bias");
        let shift = self.requant_shift(dtype, fy * fx);
        self.b.requantize(y, shift, true).expect("requant")
    }

    fn dense(&mut self, x: NodeId, k: usize, relu: bool) -> NodeId {
        let c = self.b.shape_of(x).expect("valid node").dims()[0];
        let dtype = self.next_prec(false);
        let w = self
            .b
            .constant("w_fc", random_tensor(&mut self.rng, dtype, &[k, c]));
        let bias = self
            .b
            .constant("b_fc", random_tensor(&mut self.rng, DType::I32, &[k]));
        let y = self.b.dense(x, w).expect("dense");
        let y = self.b.bias_add(y, bias).expect("bias");
        let shift = self.requant_shift(dtype, c);
        self.b.requantize(y, shift, relu).expect("requant")
    }

    fn residual(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let s = self.b.add(a, b).expect("add");
        self.b.requantize(s, 1, true).expect("requant")
    }
}

/// DS-CNN keyword spotting: 49×10 MFCC input, a 7×5 stride-2 stem (the
/// paper's adapted filter size), four depthwise-separable blocks at 64
/// channels, global average pooling and a 12-way classifier.
#[must_use]
pub fn ds_cnn(scheme: QuantScheme) -> Model {
    let mut n = Net::new(0xD5C0, scheme, 10);
    let x = n.b.input("mfcc", &[1, 49, 10], DType::I8);
    // 49 -> 25 (pad 3+3), 10 -> 5 (pad 1+2).
    let mut y = n.conv(x, 64, (7, 5), (2, 2), (3, 3, 1, 2), true);
    for _ in 0..4 {
        y = n.dw(y, (3, 3), (1, 1), (1, 1, 1, 1));
        y = n.conv(y, 64, (1, 1), (1, 1), (0, 0, 0, 0), true);
    }
    let p = n.b.global_avg_pool(y).expect("pool");
    let f = n.b.flatten(p).expect("flatten");
    let d = n.dense(f, 12, false);
    let s = n.b.softmax(d).expect("softmax");
    Model {
        name: "ds_cnn",
        graph: n.b.finish(&[s]).expect("graph"),
        input_dims: vec![1, 49, 10],
        scheme,
    }
}

/// MobileNetV1 with 0.25× width at 96×96 input — the Visual Wake Words
/// person-detection model (2 classes).
#[must_use]
pub fn mobilenet_v1(scheme: QuantScheme) -> Model {
    let mut n = Net::new(0x30B1, scheme, 28);
    let x = n.b.input("image", &[3, 96, 96], DType::I8);
    let mut y = n.conv(x, 8, (3, 3), (2, 2), (0, 1, 0, 1), true);
    // (stride, output channels) for the 13 depthwise-separable blocks.
    let blocks: [(usize, usize); 13] = [
        (1, 16),
        (2, 32),
        (1, 32),
        (2, 64),
        (1, 64),
        (2, 128),
        (1, 128),
        (1, 128),
        (1, 128),
        (1, 128),
        (1, 128),
        (2, 256),
        (1, 256),
    ];
    for (stride, k) in blocks {
        let pad = if stride == 2 {
            (0, 1, 0, 1)
        } else {
            (1, 1, 1, 1)
        };
        y = n.dw(y, (3, 3), (stride, stride), pad);
        y = n.conv(y, k, (1, 1), (1, 1), (0, 0, 0, 0), true);
    }
    let p = n.b.global_avg_pool(y).expect("pool");
    let f = n.b.flatten(p).expect("flatten");
    let d = n.dense(f, 2, false);
    let s = n.b.softmax(d).expect("softmax");
    Model {
        name: "mobilenet_v1",
        graph: n.b.finish(&[s]).expect("graph"),
        input_dims: vec![3, 96, 96],
        scheme,
    }
}

/// The MLPerf Tiny CIFAR-10 ResNet (ResNet-8): a 16-channel stem and three
/// residual stacks at 16/32/64 channels, the latter two with strided 1×1
/// shortcut convolutions.
#[must_use]
pub fn resnet8(scheme: QuantScheme) -> Model {
    let mut n = Net::new(0x4E58, scheme, 10);
    let x = n.b.input("image", &[3, 32, 32], DType::I8);
    let stem = n.conv(x, 16, (3, 3), (1, 1), (1, 1, 1, 1), true);
    // Stack 1: identity shortcut.
    let c1 = n.conv(stem, 16, (3, 3), (1, 1), (1, 1, 1, 1), true);
    let c2 = n.conv(c1, 16, (3, 3), (1, 1), (1, 1, 1, 1), false);
    let s1 = n.residual(c2, stem);
    // Stack 2: stride-2, 32 channels, 1x1 conv shortcut.
    let c1 = n.conv(s1, 32, (3, 3), (2, 2), (0, 1, 0, 1), true);
    let c2 = n.conv(c1, 32, (3, 3), (1, 1), (1, 1, 1, 1), false);
    let sc = n.conv(s1, 32, (1, 1), (2, 2), (0, 0, 0, 0), false);
    let s2 = n.residual(c2, sc);
    // Stack 3: stride-2, 64 channels.
    let c1 = n.conv(s2, 64, (3, 3), (2, 2), (0, 1, 0, 1), true);
    let c2 = n.conv(c1, 64, (3, 3), (1, 1), (1, 1, 1, 1), false);
    let sc = n.conv(s2, 64, (1, 1), (2, 2), (0, 0, 0, 0), false);
    let s3 = n.residual(c2, sc);
    let p = n.b.global_avg_pool(s3).expect("pool");
    let f = n.b.flatten(p).expect("flatten");
    let d = n.dense(f, 10, false);
    let s = n.b.softmax(d).expect("softmax");
    Model {
        name: "resnet8",
        graph: n.b.finish(&[s]).expect("graph"),
        input_dims: vec![3, 32, 32],
        scheme,
    }
}

/// The ToyADMOS anomaly-detection deep auto-encoder: a 640-dimensional
/// spectrogram window through 128-wide encoder/decoder stacks with an
/// 8-dimensional bottleneck.
#[must_use]
pub fn toyadmos_dae(scheme: QuantScheme) -> Model {
    let mut n = Net::new(0x70A4, scheme, 10);
    let x = n.b.input("frames", &[640], DType::I8);
    let mut y = x;
    for _ in 0..4 {
        y = n.dense(y, 128, true);
    }
    y = n.dense(y, 8, true);
    for _ in 0..4 {
        y = n.dense(y, 128, true);
    }
    let out = n.dense(y, 640, false);
    Model {
        name: "toyadmos_dae",
        graph: n.b.finish(&[out]).expect("graph"),
        input_dims: vec![640],
        scheme,
    }
}

/// A synthetic stress-test network exercising every operator and
/// structural feature the compiler supports in one graph: asymmetric
/// padding, mixed strides, a depthwise-separable block, two stacked
/// residual connections, max *and* average pooling, a tiled dense layer
/// (weights larger than the digital weight memory), and a softmax head.
/// Not part of MLPerf™ Tiny — used by the integration tests to cover the
/// pipeline's corners in a single compile.
#[must_use]
pub fn stress_test(scheme: QuantScheme) -> Model {
    let mut n = Net::new(0x57E5, scheme, 8);
    let x = n.b.input("sensor", &[4, 33, 29], DType::I8);
    // Asymmetric stem: 5x3 kernel, stride (2,1), lopsided padding.
    let mut y = n.conv(x, 16, (5, 3), (2, 1), (2, 1, 0, 2), true);
    // Depthwise-separable block.
    y = n.dw(y, (3, 3), (1, 1), (1, 1, 1, 1));
    y = n.conv(y, 32, (1, 1), (1, 1), (0, 0, 0, 0), true);
    // Residual pair (same-shape 3x3 convs).
    let skip = y;
    let c1 = n.conv(y, 32, (3, 3), (1, 1), (1, 1, 1, 1), true);
    let c2 = n.conv(c1, 32, (3, 3), (1, 1), (1, 1, 1, 1), false);
    y = n.residual(c2, skip);
    // Second residual from a 1x1 projection.
    let proj = n.conv(y, 32, (1, 1), (1, 1), (0, 0, 0, 0), false);
    y = n.residual(proj, y);
    // Max pool, then global average pool.
    y =
        n.b.pool2d(y, htvm_ir::PoolKind::Max, (2, 2), (2, 2), (0, 1, 0, 1))
            .expect("pool");
    let p = n.b.global_avg_pool(y).expect("gap");
    let f = n.b.flatten(p).expect("flatten");
    // Wide dense layer: 32 -> 2600 would be trivial; use an expansion so
    // the [K, C] matrix exceeds the 64 kB digital weight store and forces
    // k-tiling (32 * 2600 = 83 kB).
    let wide = n.dense(f, 2600, true);
    let out = n.dense(wide, 6, false);
    let s = n.b.softmax(out).expect("softmax");
    Model {
        name: "stress_test",
        graph: n.b.finish(&[s]).expect("graph"),
        input_dims: vec![4, 33, 29],
        scheme,
    }
}

/// A tiny integer transformer block: two-head self-attention over a
/// 256-token sequence with 32-dimensional heads, followed by integer
/// layer normalization and a 10-way classifier.
///
/// The attention core is `softmax(requantize(X·Xᵀ)) · X` per head — Q/K/V
/// projections are folded away so the workload isolates exactly the new
/// machinery: batched activation×activation matmuls (staged through the
/// digital weight memory tile-by-tile), the integer softmax, and
/// layer-norm. The score matrix `[2, 256, 256]` plus its operand exceeds
/// the double-buffered 128 kB L1 half, so both matmuls genuinely tile
/// (rectangular sequence×head partitions), and the `16384 → 10`
/// classifier's 160 kB weight matrix overflows the 64 kB digital weight
/// store, forcing a reduction split. ~8.6 M MACs — ResNet-8 scale.
///
/// The requantize after the score matmul is the integer stand-in for the
/// float `1/√d` attention scaling; the one after the context matmul
/// rescales `Σ pᵢ·vᵢ` (probability rows sum to 127) back to i8.
#[must_use]
pub fn tiny_transformer(scheme: QuantScheme) -> Model {
    let mut n = Net::new(0x7F4A, scheme, 1);
    let x = n.b.input("tokens", &[2, 256, 32], DType::I8);
    let scores = n.b.matmul(x, x, true).expect("scores");
    // |score| <= 127*127*32 ~ 2^19; shift 12 lands in i8 with headroom.
    let scaled = n.b.requantize(scores, 12, false).expect("requant");
    let probs = n.b.softmax(scaled).expect("softmax");
    let ctx = n.b.matmul(probs, x, false).expect("context");
    // |ctx| <= 127 (row sum) * 127 ~ 2^14; shift 7 lands in i8.
    let ctx = n.b.requantize(ctx, 7, false).expect("requant");
    let norm = n.b.layer_norm(ctx).expect("layer_norm");
    let f = n.b.flatten(norm).expect("flatten");
    let d = n.dense(f, 10, false);
    let s = n.b.softmax(d).expect("softmax");
    Model {
        name: "tiny_transformer",
        graph: n.b.finish(&[s]).expect("graph"),
        input_dims: vec![2, 256, 32],
        scheme,
    }
}

/// The suite models under one scheme: the four MLPerf™ Tiny topologies in
/// the paper's Table I order, plus the attention workload.
#[must_use]
pub fn all_models(scheme: QuantScheme) -> Vec<Model> {
    vec![
        ds_cnn(scheme),
        mobilenet_v1(scheme),
        resnet8(scheme),
        toyadmos_dae(scheme),
        tiny_transformer(scheme),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_models_verify() {
        for scheme in [QuantScheme::Int8, QuantScheme::Ternary, QuantScheme::Mixed] {
            for m in all_models(scheme) {
                assert_eq!(m.verify(), Ok(()));
            }
        }
    }

    #[test]
    fn model_verify_reports_the_failing_model() {
        // A model whose input signature disagrees with its graph.
        let mut m = ds_cnn(QuantScheme::Int8);
        m.input_dims = vec![1, 10, 49];
        let err = m.verify().unwrap_err();
        assert_eq!(err.model, "ds_cnn");
        assert!(err.to_string().contains("ds_cnn"), "{err}");
        assert!(matches!(err.error, IrError::BadOperand { .. }), "{err}");
        // The graph itself cannot be corrupted through the serde round
        // trip any more: a dangling operand is refused as it is read.
        let mut text = serde_json::to_string(&m.graph).unwrap();
        let needle = "\"inputs\":[";
        let at = text.find(needle).unwrap() + needle.len();
        let end = text[at..].find(']').unwrap() + at;
        text.replace_range(at..end, "0,99999");
        let refused = serde_json::from_str::<Graph>(&text).unwrap_err();
        assert!(refused.to_string().contains("not a dag"), "{refused}");
    }

    #[test]
    fn mac_counts_match_mlperf_scale() {
        let macs = |m: &Model| m.graph.total_macs();
        let r = resnet8(QuantScheme::Int8);
        assert!((10_000_000..15_000_000).contains(&macs(&r)), "{}", macs(&r));
        let d = ds_cnn(QuantScheme::Int8);
        assert!((2_000_000..4_000_000).contains(&macs(&d)), "{}", macs(&d));
        let m = mobilenet_v1(QuantScheme::Int8);
        assert!((6_000_000..9_000_000).contains(&macs(&m)), "{}", macs(&m));
        let t = toyadmos_dae(QuantScheme::Int8);
        assert!((200_000..300_000).contains(&macs(&t)), "{}", macs(&t));
        // Attention workload sits at ResNet-8 scale: 2 × (2·256·256·32)
        // matmul MACs plus the 16384→10 classifier.
        let tt = tiny_transformer(QuantScheme::Int8);
        assert!((8_000_000..9_000_000).contains(&macs(&tt)), "{}", macs(&tt));
    }

    #[test]
    fn tiny_transformer_evaluates_and_attention_matches() {
        let m = tiny_transformer(QuantScheme::Int8);
        assert_eq!(m.verify(), Ok(()));
        let out = htvm_kernels::evaluate(&m.graph, &[m.input(7)]).unwrap();
        assert_eq!(out[0].shape().dims(), &[10]);
        // The graph contains the recognizable attention chain.
        let ctx = m
            .graph
            .nodes()
            .filter(|(_, n)| n.op().is_some_and(|op| op.name() == "nn.matmul"))
            .map(|(id, _)| id)
            .last()
            .expect("context matmul present");
        // softmax(requantize(Q·Kᵀ)) · V, rooted at the context matmul.
        use htvm_pattern::{is_op, match_at, wildcard};
        let scores = is_op("nn.matmul", vec![wildcard(), wildcard()]);
        let shift = is_op("right_shift", vec![scores]);
        let clip = is_op("clip", vec![shift]);
        let cast = is_op("cast", vec![clip]);
        let probs = is_op("nn.softmax", vec![cast]);
        let attention = is_op("nn.matmul", vec![probs, wildcard()]);
        assert!(match_at(&m.graph, &attention, ctx).is_some());
    }

    #[test]
    fn schemes_only_change_weight_dtypes() {
        let a = resnet8(QuantScheme::Int8);
        let b = resnet8(QuantScheme::Mixed);
        assert_eq!(a.graph.len(), b.graph.len());
        // Mixed must contain at least one ternary and one i8 conv weight.
        let dtypes: Vec<DType> = b
            .graph
            .nodes()
            .filter_map(|(_, n)| n.constant())
            .filter(|t| t.shape().rank() == 4)
            .map(Tensor::dtype)
            .collect();
        assert!(dtypes.contains(&DType::Ternary));
        assert!(dtypes.contains(&DType::I8));
        // First conv weight (stem) is i8 under the mixed recipe.
        assert_eq!(dtypes[0], DType::I8);
    }

    #[test]
    fn ternary_scheme_keeps_dw_in_i8() {
        let m = mobilenet_v1(QuantScheme::Ternary);
        for (_, n) in m.graph.nodes() {
            if let Some(t) = n.constant() {
                if t.shape().rank() == 3 {
                    // depthwise weights [C,Fy,Fx]
                    assert_eq!(t.dtype(), DType::I8);
                }
            }
        }
    }

    #[test]
    fn models_evaluate_end_to_end() {
        for m in [ds_cnn(QuantScheme::Int8), toyadmos_dae(QuantScheme::Int8)] {
            let input = m.input(3);
            let out = htvm_kernels::evaluate(&m.graph, &[input]).unwrap();
            assert_eq!(out.len(), 1);
        }
    }

    #[test]
    fn deterministic_construction() {
        let a = ds_cnn(QuantScheme::Mixed);
        let b = ds_cnn(QuantScheme::Mixed);
        assert_eq!(a.graph, b.graph);
    }
}
