//! Normalizing matched regions into accelerator layers.

use crate::LowerError;
use htvm_dory::LayerGeometry;
use htvm_ir::{DType, Graph, NodeId, Op, Tensor};
use htvm_pattern::Match;
use htvm_soc::FusedPool;

/// A matched chain normalized into the form the DORY backend consumes:
/// one anchor op (conv / depthwise / dense / add) plus its fused epilogue.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtractedLayer {
    /// Layer geometry derived from the anchor's operand shapes.
    pub geom: LayerGeometry,
    /// Weights in anchor layout; `None` for element-wise add and matmul
    /// (whose second operand is a runtime activation).
    pub weights: Option<Tensor>,
    /// Fused bias, if the chain had a `bias_add`.
    pub bias: Option<Tensor>,
    /// Fused requantization shift (0 if the chain had none).
    pub shift: u32,
    /// Fused trailing ReLU.
    pub relu: bool,
    /// Fused trailing pooling stage, if the pattern included one.
    pub pool: Option<FusedPool>,
    /// The region's external data inputs (one, or two for add).
    pub data_inputs: Vec<NodeId>,
}

/// Walks a matched chain from its root down to the anchor, collecting the
/// fused epilogue (relu / cast / clip / shift / bias) and building the
/// layer geometry.
///
/// # Errors
///
/// Returns [`LowerError::MalformedRegion`] if the chain contains an op the
/// backend cannot fuse (including a clip other than `[-128, 127]` or a
/// cast other than to `i8`), has no anchor, or the anchor operands have
/// unexpected form (e.g. non-constant weights).
pub fn extract(graph: &Graph, pattern: &str, m: &Match) -> Result<ExtractedLayer, LowerError> {
    let err = |detail: String| LowerError::MalformedRegion {
        pattern: pattern.to_owned(),
        detail,
    };

    let mut shift = 0u32;
    let mut relu = false;
    let mut bias: Option<Tensor> = None;
    let mut pool: Option<FusedPool> = None;
    let mut cursor = m.root;
    let anchor = loop {
        let node = graph.node(cursor);
        let op = node
            .op()
            .ok_or_else(|| err("chain contains a non-op node".into()))?;
        match op {
            Op::Pool2d {
                kind,
                kernel,
                strides,
                padding,
            } => {
                pool = Some(FusedPool {
                    kind: *kind,
                    kernel: *kernel,
                    strides: *strides,
                    padding: *padding,
                });
                cursor = node.inputs()[0];
            }
            Op::Relu => {
                relu = true;
                cursor = node.inputs()[0];
            }
            // The accelerator epilogue clips to [-128, 127] and casts to i8
            // (Listing 1's int8 predicate); it cannot run any other tail.
            Op::Clip {
                min: -128,
                max: 127,
            }
            | Op::Cast { to: DType::I8 } => {
                cursor = node.inputs()[0];
            }
            Op::Clip { .. } | Op::Cast { .. } => {
                return Err(err(format!("{op:?} is not the i8 epilogue")));
            }
            Op::RightShift { amount } => {
                shift = *amount;
                cursor = node.inputs()[0];
            }
            Op::BiasAdd => {
                let b = graph
                    .node(node.inputs()[1])
                    .constant()
                    .ok_or_else(|| err("bias operand is not a constant".into()))?;
                bias = Some(b.clone());
                cursor = node.inputs()[0];
            }
            Op::Conv2d { .. }
            | Op::DepthwiseConv2d { .. }
            | Op::Dense
            | Op::MatMul { .. }
            | Op::Add => {
                break cursor;
            }
            other => return Err(err(format!("unsupported op '{}' in chain", other.name()))),
        }
    };

    let node = graph.node(anchor);
    let op = node.op().expect("anchor is an op");
    let (geom, weights, data_inputs) = match op {
        Op::Conv2d { strides, padding } => {
            let x = graph.node(node.inputs()[0]);
            let w_node = graph
                .node(node.inputs()[1])
                .constant()
                .ok_or_else(|| err("conv weights are not constant".into()))?;
            let d = x.shape.dims();
            let wd = w_node.shape().dims();
            let geom = LayerGeometry {
                kind: htvm_dory::LayerKind::Conv2d,
                c: d[0],
                k: wd[0],
                iy: d[1],
                ix: d[2],
                fy: wd[2],
                fx: wd[3],
                strides: *strides,
                padding: *padding,
                w_dtype: w_node.dtype(),
                act_dtype: x.dtype,
                transpose_b: false,
            };
            (geom, Some(w_node.clone()), vec![node.inputs()[0]])
        }
        Op::DepthwiseConv2d { strides, padding } => {
            let x = graph.node(node.inputs()[0]);
            let w_node = graph
                .node(node.inputs()[1])
                .constant()
                .ok_or_else(|| err("depthwise weights are not constant".into()))?;
            let d = x.shape.dims();
            let wd = w_node.shape().dims();
            let geom = LayerGeometry {
                kind: htvm_dory::LayerKind::DepthwiseConv2d,
                c: d[0],
                k: d[0],
                iy: d[1],
                ix: d[2],
                fy: wd[1],
                fx: wd[2],
                strides: *strides,
                padding: *padding,
                w_dtype: w_node.dtype(),
                act_dtype: x.dtype,
                transpose_b: false,
            };
            (geom, Some(w_node.clone()), vec![node.inputs()[0]])
        }
        Op::Dense => {
            let x = graph.node(node.inputs()[0]);
            let w_node = graph
                .node(node.inputs()[1])
                .constant()
                .ok_or_else(|| err("dense weights are not constant".into()))?;
            let wd = w_node.shape().dims();
            let mut geom = LayerGeometry::dense(wd[1], wd[0]);
            geom.w_dtype = w_node.dtype();
            geom.act_dtype = x.dtype;
            (geom, Some(w_node.clone()), vec![node.inputs()[0]])
        }
        Op::MatMul { transpose_b } => {
            let a = graph.node(node.inputs()[0]);
            let b = graph.node(node.inputs()[1]);
            let ad = a.shape.dims();
            let bd = b.shape.dims();
            if ad.len() != 3 || bd.len() != 3 {
                return Err(err(format!(
                    "matmul expects rank-3 operands, got ranks {} and {}",
                    ad.len(),
                    bd.len()
                )));
            }
            // a: [H, M, D]; b: [H, N, D] when transposed, else [H, D, N].
            let n = if *transpose_b { bd[1] } else { bd[2] };
            let geom = LayerGeometry::matmul(ad[2], n, ad[1], ad[0], *transpose_b);
            (geom, None, vec![node.inputs()[0], node.inputs()[1]])
        }
        Op::Add => {
            let a = graph.node(node.inputs()[0]);
            let d = a.shape.dims();
            if d.len() != 3 {
                return Err(err(format!(
                    "residual add expects a [C,H,W] operand, got rank {}",
                    d.len()
                )));
            }
            let geom = LayerGeometry::add(d[0], d[1], d[2]);
            (geom, None, vec![node.inputs()[0], node.inputs()[1]])
        }
        other => return Err(err(format!("'{}' cannot anchor a region", other.name()))),
    };

    // The anchor's data inputs must be runtime values, not constants: a
    // constant feeding an accelerator would need a synthetic L2 buffer.
    for &di in &data_inputs {
        if graph.node(di).is_constant() {
            return Err(LowerError::UnsupportedGraph(
                "constant feeds an accelerator region's data input".into(),
            ));
        }
    }

    Ok(ExtractedLayer {
        geom,
        weights,
        bias,
        shift,
        relu,
        pool,
        data_inputs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use htvm_ir::{DType, GraphBuilder};
    use htvm_pattern::{is_constant, is_op, match_at, wildcard};

    fn conv_pattern() -> htvm_pattern::Pattern {
        let conv2d = is_op("nn.conv2d", vec![wildcard(), is_constant()]);
        let bias_add = is_op("nn.bias_add", vec![conv2d, is_constant()]);
        let right_shift = is_op("right_shift", vec![bias_add]);
        let clip = is_op("clip", vec![right_shift]);
        let cast = is_op("cast", vec![clip]);
        cast.optional("nn.relu")
    }

    #[test]
    fn extracts_full_conv_chain() {
        let mut b = GraphBuilder::new();
        let x = b.input("x", &[3, 16, 16], DType::I8);
        let w = b.constant("w", Tensor::zeros(DType::I8, &[8, 3, 5, 5]));
        let bias = b.constant("b", Tensor::zeros(DType::I32, &[8]));
        let c = b.conv2d(x, w, (2, 2), (2, 2, 2, 2)).unwrap();
        let c = b.bias_add(c, bias).unwrap();
        let q = b.requantize(c, 6, true).unwrap();
        let g = b.finish(&[q]).unwrap();
        let m = match_at(&g, &conv_pattern(), q).unwrap();
        let e = extract(&g, "conv", &m).unwrap();
        assert_eq!(e.geom.c, 3);
        assert_eq!(e.geom.k, 8);
        assert_eq!((e.geom.fy, e.geom.fx), (5, 5));
        assert_eq!(e.geom.strides, (2, 2));
        assert_eq!(e.shift, 6);
        assert!(e.relu);
        assert!(e.bias.is_some());
        assert_eq!(e.data_inputs, vec![x]);
    }

    #[test]
    fn refuses_a_tail_the_i8_epilogue_cannot_run() {
        for (min, max, to, ok) in [
            (-128, 127, DType::I8, true),
            (0, 100, DType::I8, false),
            (-128, 127, DType::I16, false),
        ] {
            let mut b = GraphBuilder::new();
            let x = b.input("x", &[3, 8, 8], DType::I8);
            let w = b.constant("w", Tensor::zeros(DType::I8, &[4, 3, 3, 3]));
            let bias = b.constant("b", Tensor::zeros(DType::I32, &[4]));
            let c = b.conv2d(x, w, (1, 1), (1, 1, 1, 1)).unwrap();
            let c = b.bias_add(c, bias).unwrap();
            let s = b.right_shift(c, 6).unwrap();
            let c = b.clip(s, min, max).unwrap();
            let q = b.cast(c, to).unwrap();
            let g = b.finish(&[q]).unwrap();
            let m = match_at(&g, &conv_pattern(), q).expect("the pattern matches any tail");
            let e = extract(&g, "conv", &m);
            assert_eq!(e.is_ok(), ok, "clip({min}, {max}) → cast({to})");
            if !ok {
                assert!(matches!(e, Err(LowerError::MalformedRegion { .. })));
            }
        }
    }

    #[test]
    fn extracts_add_chain() {
        let mut b = GraphBuilder::new();
        let x = b.input("x", &[4, 8, 8], DType::I8);
        let y = b.input("y", &[4, 8, 8], DType::I8);
        let s = b.add(x, y).unwrap();
        let q = b.requantize(s, 1, false).unwrap();
        let g = b.finish(&[q]).unwrap();
        let add_pat = {
            let add = is_op("add", vec![wildcard(), wildcard()]);
            let sh = is_op("right_shift", vec![add]);
            let cl = is_op("clip", vec![sh]);
            is_op("cast", vec![cl]).optional("nn.relu")
        };
        let m = match_at(&g, &add_pat, q).unwrap();
        let e = extract(&g, "add", &m).unwrap();
        assert_eq!(e.geom.kind, htvm_dory::LayerKind::Add);
        assert!(e.weights.is_none());
        assert_eq!(e.data_inputs, vec![x, y]);
        assert_eq!(e.shift, 1);
        assert!(!e.relu);
    }

    #[test]
    fn rejects_constant_data_input() {
        let mut b = GraphBuilder::new();
        let x = b.constant("x", Tensor::zeros(DType::I8, &[3, 8, 8]));
        let w = b.constant("w", Tensor::zeros(DType::I8, &[4, 3, 3, 3]));
        let c = b.conv2d(x, w, (1, 1), (1, 1, 1, 1)).unwrap();
        let g = b.finish(&[c]).unwrap();
        let pat = is_op("nn.conv2d", vec![wildcard(), is_constant()]);
        let m = match_at(&g, &pat, c).unwrap();
        assert!(matches!(
            extract(&g, "conv", &m),
            Err(LowerError::UnsupportedGraph(_))
        ));
    }

    #[test]
    fn bias_free_chain_extracts_with_defaults() {
        let mut b = GraphBuilder::new();
        let x = b.input("x", &[2], DType::I8);
        let w = b.constant("w", Tensor::zeros(DType::I8, &[4, 2]));
        let d = b.dense(x, w).unwrap();
        let g = b.finish(&[d]).unwrap();
        let pat = is_op("nn.dense", vec![wildcard(), is_constant()]);
        let m = match_at(&g, &pat, d).unwrap();
        let e = extract(&g, "dense", &m).unwrap();
        assert_eq!(e.shift, 0);
        assert!(e.bias.is_none());
        assert!(!e.relu);
        assert_eq!((e.geom.c, e.geom.k), (2, 4));
    }
}
