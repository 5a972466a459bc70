//! The CPU form of an accelerator step (graceful degradation).
//!
//! Every accelerator step the emitter produces has a host alternative:
//! the same fused computation — operator, bias, requantization,
//! activation, pooling — rebuilt as a host-executable graph from the
//! step's [`AccelLayerDesc`]. The machine derives and runs it when a
//! fault plan takes the step's engine offline, instead of aborting the
//! inference; nothing is stored for it, and its constants are the
//! descriptor's own payloads, not copies.
//!
//! Bit-exactness falls out of construction: the fallback graph applies
//! exactly the epilogue the accelerator's output pipeline applies
//! (`right_shift → clip(-128,127) → cast(i8) → relu? → pool?`), evaluated
//! by the same reference kernels the simulator's functional path uses.
//! (The analog input DAC clamp is the machine's job — it clamps the
//! fallback's inputs the same way it clamps the accelerator's.)

use crate::AccelLayerDesc;
use htvm_dory::LayerKind;
use htvm_ir::{Graph, GraphBuilder};

/// Builds the CPU fallback graph for one lowered accelerator layer, or
/// `None` when the descriptor has no host form (a weighted layer without
/// weights — never the case for emitter-produced descriptors). The
/// graph's inputs map to the step's `input` (and `input2`) in order.
#[must_use]
pub fn cpu_fallback(desc: &AccelLayerDesc) -> Option<Graph> {
    let geom = &desc.geom;
    let mut b = GraphBuilder::new();
    let in_dims: Vec<usize> = match geom.kind {
        LayerKind::Dense => vec![geom.c],
        // Matmul geometry maps batch→ix, sequence→iy, reduction→c, so the
        // lhs activation is [H, M, D] = [ix, iy, c].
        LayerKind::MatMul => vec![geom.ix, geom.iy, geom.c],
        _ => vec![geom.c, geom.iy, geom.ix],
    };
    let x = b.input("x", &in_dims, geom.act_dtype);
    let mut cur = match geom.kind {
        LayerKind::Conv2d => {
            let w = b.constant("w", desc.weights.clone()?);
            b.conv2d(x, w, geom.strides, geom.padding).ok()?
        }
        LayerKind::DepthwiseConv2d => {
            let w = b.constant("w", desc.weights.clone()?);
            b.depthwise_conv2d(x, w, geom.strides, geom.padding).ok()?
        }
        LayerKind::Dense => {
            let w = b.constant("w", desc.weights.clone()?);
            b.dense(x, w).ok()?
        }
        LayerKind::MatMul => {
            let b_dims = if geom.transpose_b {
                vec![geom.ix, geom.k, geom.c]
            } else {
                vec![geom.ix, geom.c, geom.k]
            };
            let y = b.input("y", &b_dims, geom.act_dtype);
            b.matmul(x, y, geom.transpose_b).ok()?
        }
        LayerKind::Add => {
            let y = b.input("y", &in_dims, geom.act_dtype);
            b.add(x, y).ok()?
        }
    };
    if let Some(bias) = &desc.bias {
        let bias = b.constant("bias", bias.clone());
        cur = b.bias_add(cur, bias).ok()?;
    }
    cur = b.requantize(cur, desc.shift, desc.relu).ok()?;
    if let Some(pool) = &desc.pool {
        cur = b
            .pool2d(cur, pool.kind, pool.kernel, pool.strides, pool.padding)
            .ok()?;
    }
    b.finish(&[cur]).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FusedPool;
    use htvm_dory::{LayerGeometry, TileConfig};
    use htvm_ir::{DType, Padding2d, PoolKind, Tensor};
    use htvm_kernels as kernels;

    fn desc_for(geom: LayerGeometry, pool: Option<FusedPool>) -> AccelLayerDesc {
        let weights = match geom.kind {
            LayerKind::Conv2d => {
                let mut w = Tensor::zeros(DType::I8, &[geom.k, geom.c, geom.fy, geom.fx]);
                for (i, v) in w.data_mut().iter_mut().enumerate() {
                    *v = (i as i32 % 5) - 2;
                }
                Some(w)
            }
            LayerKind::DepthwiseConv2d => {
                let mut w = Tensor::zeros(DType::I8, &[geom.c, geom.fy, geom.fx]);
                for (i, v) in w.data_mut().iter_mut().enumerate() {
                    *v = (i as i32 % 3) - 1;
                }
                Some(w)
            }
            LayerKind::Dense => {
                let mut w = Tensor::zeros(DType::I8, &[geom.k, geom.c]);
                for (i, v) in w.data_mut().iter_mut().enumerate() {
                    *v = (i as i32 % 7) - 3;
                }
                Some(w)
            }
            LayerKind::MatMul | LayerKind::Add => None,
        };
        let bias = (geom.kind != LayerKind::Add).then(|| {
            let mut t = Tensor::zeros(DType::I32, &[geom.k]);
            for (i, v) in t.data_mut().iter_mut().enumerate() {
                *v = i as i32 * 3 - 4;
            }
            t
        });
        let tile = TileConfig::full(&geom);
        AccelLayerDesc {
            name: "layer".into(),
            geom,
            tile,
            weights,
            bias,
            shift: 3,
            relu: true,
            pool,
        }
    }

    fn ramp_input(dims: &[usize]) -> Tensor {
        let mut t = Tensor::zeros(DType::I8, dims);
        for (i, v) in t.data_mut().iter_mut().enumerate() {
            *v = (i as i32 % 21) - 10;
        }
        t
    }

    #[test]
    fn conv_fallback_matches_reference_epilogue() {
        let geom = LayerGeometry::conv2d(3, 5, 8, 8, 3, 3, (1, 1), (1, 1, 1, 1));
        let desc = desc_for(geom, None);
        let graph = cpu_fallback(&desc).expect("conv descriptors are expressible");
        let input = ramp_input(&[3, 8, 8]);
        let got = kernels::evaluate(&graph, std::slice::from_ref(&input))
            .unwrap()
            .remove(0);
        let r = kernels::conv2d(
            &input,
            desc.weights.as_ref().unwrap(),
            (1, 1),
            Padding2d::same(1),
        );
        let r = kernels::bias_add(&r, desc.bias.as_ref().unwrap());
        let r = kernels::right_shift(&r, 3);
        let r = kernels::clip(&r, -128, 127);
        let r = kernels::cast(&r, DType::I8);
        let expect = kernels::relu(&r);
        assert_eq!(got, expect);
    }

    #[test]
    fn pooled_fallback_applies_the_fused_pool() {
        let geom = LayerGeometry::conv2d(3, 4, 8, 8, 3, 3, (1, 1), (1, 1, 1, 1));
        let pool = FusedPool {
            kind: PoolKind::Max,
            kernel: (2, 2),
            strides: (2, 2),
            padding: Padding2d::same(0),
        };
        let desc = desc_for(geom, Some(pool));
        let graph = cpu_fallback(&desc).unwrap();
        let input = ramp_input(&[3, 8, 8]);
        let got = kernels::evaluate(&graph, &[input]).unwrap().remove(0);
        assert_eq!(
            got.shape().dims(),
            &[4, 4, 4],
            "pool halves the spatial dims"
        );
    }

    #[test]
    fn dense_and_add_fallbacks_build() {
        let dense = desc_for(LayerGeometry::dense(16, 10), None);
        let g = cpu_fallback(&dense).expect("dense is expressible");
        let got = kernels::evaluate(&g, &[ramp_input(&[16])])
            .unwrap()
            .remove(0);
        assert_eq!(got.shape().dims(), &[10]);

        let add = desc_for(LayerGeometry::add(6, 5, 5), None);
        let g = cpu_fallback(&add).expect("add is expressible");
        let a = ramp_input(&[6, 5, 5]);
        let b = ramp_input(&[6, 5, 5]);
        let got = kernels::evaluate(&g, &[a, b]).unwrap().remove(0);
        assert_eq!(got.shape().dims(), &[6, 5, 5]);
    }

    #[test]
    fn conv_without_weights_yields_none() {
        let geom = LayerGeometry::conv2d(3, 5, 8, 8, 3, 3, (1, 1), (1, 1, 1, 1));
        let mut desc = desc_for(geom, None);
        desc.weights = None;
        assert!(cpu_fallback(&desc).is_none());
    }
}
