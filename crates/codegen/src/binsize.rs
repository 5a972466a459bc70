//! The deployed binary-size model.
//!
//! Table I of the paper reports binary sizes alongside latency, with three
//! effects this model reproduces:
//!
//! - coarse-grained accelerator calls need *fewer instructions* than
//!   TVM-generated CPU loop nests (ResNet shrinks 12.3% at equal
//!   precision),
//! - ternary weights pack at 2 bits/element, shrinking analog binaries
//!   (ToyAdmos, MobileNet)...
//! - ...unless layer dimensions force "padding the L2 memory with zeros to
//!   fill a part of the large IMC macro", which *inflates* small-channel
//!   analog binaries past their digital counterparts (DS-CNN, ResNet).

use htvm_dory::LayerKind;
use htvm_soc::{EngineKind, Step};
use serde::{Deserialize, Serialize};

/// Size-model constants (bytes), calibrated against Table I; see
/// `EXPERIMENTS.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BinarySizeModel {
    /// Fixed runtime for a plain-TVM (CPU-only) deployment.
    pub runtime_tvm: usize,
    /// Fixed runtime for an HTVM deployment (adds DMA + accelerator
    /// drivers).
    pub runtime_htvm: usize,
    /// Code per TVM-generated fused CPU kernel (`-O3` loop nest).
    pub cpu_kernel_bytes: usize,
    /// Code per coarse-grained accelerator layer call (argument setup +
    /// tile-loop driver).
    pub accel_call_bytes: usize,
    /// Digital weight layout pads channel dimensions to this granule so
    /// tiles index the PE array without marshaling.
    pub digital_channel_granule: usize,
    /// Analog weight images pad mapped rows to this granule of the IMC
    /// macro.
    pub analog_row_granule: usize,
    /// Analog weight images pad output channels to this column granule.
    pub analog_col_granule: usize,
}

impl Default for BinarySizeModel {
    fn default() -> Self {
        BinarySizeModel {
            runtime_tvm: 10 * 1024,
            runtime_htvm: 16 * 1024,
            cpu_kernel_bytes: 2200,
            accel_call_bytes: 600,
            digital_channel_granule: 1,
            analog_row_granule: 512,
            analog_col_granule: 64,
        }
    }
}

/// A modeled binary size, split into code and constant data.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct BinarySize {
    /// Runtime + kernel code bytes.
    pub code: usize,
    /// Weight/bias constant bytes (packed, padded per engine layout).
    pub weights: usize,
}

impl BinarySize {
    /// Total image size.
    #[must_use]
    pub fn total(&self) -> usize {
        self.code + self.weights
    }

    /// Total size in kB (rounded), as Table I reports.
    #[must_use]
    pub fn total_kb(&self) -> usize {
        self.total() / 1024
    }
}

fn round_up(v: usize, granule: usize) -> usize {
    if granule == 0 {
        v
    } else {
        v.div_ceil(granule) * granule
    }
}

/// Models the deployed image size of a program's steps.
#[must_use]
pub fn binary_size(model: &BinarySizeModel, steps: &[Step]) -> BinarySize {
    let mut code = 0usize;
    let mut weights = 0usize;
    let mut any_accel = false;
    for step in steps {
        match step {
            Step::CpuFused { graph, .. } => {
                code += model.cpu_kernel_bytes;
                weights += graph
                    .nodes()
                    .filter_map(|(_, n)| n.constant())
                    .map(htvm_ir::Tensor::storage_bytes)
                    .sum::<usize>();
            }
            Step::Accel { engine, desc, .. } => {
                any_accel = true;
                code += model.accel_call_bytes;
                if let Some(b) = &desc.bias {
                    weights += b.storage_bytes();
                }
                let g = &desc.geom;
                weights += match engine {
                    EngineKind::Digital => {
                        let granule = model.digital_channel_granule;
                        let elems = match g.kind {
                            LayerKind::Conv2d => {
                                round_up(g.k, granule) * round_up(g.c, granule) * g.fy * g.fx
                            }
                            LayerKind::DepthwiseConv2d => round_up(g.c, granule) * g.fy * g.fx,
                            LayerKind::Dense => round_up(g.k, granule) * round_up(g.c, granule),
                            // Matmul's second operand is a runtime
                            // activation: no weights in the binary image.
                            LayerKind::MatMul | LayerKind::Add => 0,
                        };
                        g.w_dtype.storage_bytes(elems)
                    }
                    EngineKind::Analog => {
                        let rows = match g.kind {
                            LayerKind::Conv2d => g.c * g.fy * g.fx,
                            LayerKind::Dense => g.c,
                            LayerKind::DepthwiseConv2d | LayerKind::MatMul | LayerKind::Add => 0,
                        };
                        if rows == 0 {
                            0
                        } else {
                            let cells = round_up(rows, model.analog_row_granule)
                                * round_up(g.k, model.analog_col_granule);
                            g.w_dtype.storage_bytes(cells)
                        }
                    }
                    EngineKind::Cpu => unreachable!("accel steps never target the cpu"),
                };
            }
        }
    }
    code += if any_accel {
        model.runtime_htvm
    } else {
        model.runtime_tvm
    };
    BinarySize { code, weights }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htvm_dory::{LayerGeometry, TileConfig};
    use htvm_ir::{DType, GraphBuilder, Tensor};
    use htvm_soc::{AccelLayerDesc, BufferId};

    fn accel_step(engine: EngineKind, geom: LayerGeometry, w_elems: &[usize]) -> Step {
        let tile = TileConfig::full(&geom);
        Step::Accel {
            engine,
            desc: AccelLayerDesc {
                name: "l".into(),
                weights: Some(Tensor::zeros(geom.w_dtype, w_elems)),
                bias: Some(Tensor::zeros(DType::I32, &[geom.k])),
                shift: 4,
                relu: true,
                pool: None,
                geom,
                tile,
            },
            input: BufferId(0),
            input2: None,
            output: BufferId(1),
        }
    }

    #[test]
    fn cpu_only_uses_tvm_runtime() {
        let mut b = GraphBuilder::new();
        let x = b.input("x", &[8], DType::I8);
        let w = b.constant("w", Tensor::zeros(DType::I8, &[4, 8]));
        let d = b.dense(x, w).unwrap();
        let g = b.finish(&[d]).unwrap();
        let step = Step::CpuFused {
            name: "k".into(),
            graph: g,
            inputs: vec![BufferId(0)],
            output: BufferId(1),
        };
        let m = BinarySizeModel::default();
        let s = binary_size(&m, &[step]);
        assert_eq!(s.code, m.runtime_tvm + m.cpu_kernel_bytes);
        assert_eq!(s.weights, 32);
    }

    #[test]
    fn digital_weights_stored_unpadded_by_default() {
        let geom = LayerGeometry::conv2d(3, 16, 32, 32, 3, 3, (1, 1), (1, 1, 1, 1));
        let m = BinarySizeModel::default();
        let s = binary_size(&m, &[accel_step(EngineKind::Digital, geom, &[16, 3, 3, 3])]);
        // 16 * 3 * 9 weights + 64 bias.
        assert_eq!(s.weights, 16 * 3 * 9 + 64);
        assert_eq!(s.code, m.runtime_htvm + m.accel_call_bytes);
        // An ablation granule of 16 pads the 3 input channels to 16.
        let padded = BinarySizeModel {
            digital_channel_granule: 16,
            ..m
        };
        let geom = LayerGeometry::conv2d(3, 16, 32, 32, 3, 3, (1, 1), (1, 1, 1, 1));
        let sp = binary_size(
            &padded,
            &[accel_step(EngineKind::Digital, geom, &[16, 3, 3, 3])],
        );
        assert_eq!(sp.weights, 16 * 16 * 9 + 64);
    }

    #[test]
    fn analog_padding_inflates_small_layers() {
        // DS-CNN pointwise: 64 rows pad to 512, k=64 stays: 512*64 ternary
        // cells = 8192 bytes, vs 4096 unpadded i8 on digital.
        let geom = LayerGeometry::conv2d(64, 64, 25, 5, 1, 1, (1, 1), (0, 0, 0, 0))
            .with_weight_dtype(DType::Ternary);
        let m = BinarySizeModel::default();
        let s = binary_size(&m, &[accel_step(EngineKind::Analog, geom, &[64, 64, 1, 1])]);
        assert_eq!(s.weights, 512 * 64 / 4 + 256);
        let dig_geom = LayerGeometry::conv2d(64, 64, 25, 5, 1, 1, (1, 1), (0, 0, 0, 0));
        let sd = binary_size(
            &m,
            &[accel_step(EngineKind::Digital, dig_geom, &[64, 64, 1, 1])],
        );
        assert!(
            s.weights > sd.weights,
            "IMC padding must inflate this layer"
        );
    }

    #[test]
    fn ternary_packing_shrinks_large_dense_layers() {
        // ToyAdmos-style 640x128 dense: analog ternary beats digital i8.
        let ana = LayerGeometry::dense(640, 128).with_weight_dtype(DType::Ternary);
        let dig = LayerGeometry::dense(640, 128);
        let m = BinarySizeModel::default();
        let sa = binary_size(&m, &[accel_step(EngineKind::Analog, ana, &[128, 640])]);
        let sd = binary_size(&m, &[accel_step(EngineKind::Digital, dig, &[128, 640])]);
        assert!(sa.weights < sd.weights);
    }

    #[test]
    fn total_kb_truncates() {
        let s = BinarySize {
            code: 1024,
            weights: 1500,
        };
        assert_eq!(s.total(), 2524);
        assert_eq!(s.total_kb(), 2);
    }
}
