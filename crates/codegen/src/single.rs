//! One-layer programs for the characterization benchmarks.

use htvm_dory::{LayerGeometry, LayerKind, TileConfig};
use htvm_ir::{DType, Shape, Tensor};
use htvm_soc::{AccelLayerDesc, BufferDecl, BufferId, BufferKind, EngineKind, Program, Step};

/// Builds a program that runs exactly one accelerator layer with an
/// explicit tile configuration — the harness behind the paper's Fig. 4
/// (tiling sweeps) and Fig. 5 (single-layer overhead characterization),
/// which profile individual generated kernels rather than whole networks.
///
/// Weights and bias are synthesized as small deterministic values; the
/// input buffer has shape `[C, i_y, i_x]` (or `[C]` for dense layers).
///
/// # Panics
///
/// Panics if `tile` is invalid for `geom`.
#[must_use]
pub fn single_layer_program(geom: &LayerGeometry, tile: TileConfig, engine: EngineKind) -> Program {
    tile.validate(geom);
    let in_shape: Vec<usize> = match geom.kind {
        LayerKind::Dense => vec![geom.c],
        // Matmul lhs is [H, M, D] = [ix, iy, c].
        LayerKind::MatMul => vec![geom.ix, geom.iy, geom.c],
        _ => vec![geom.c, geom.iy, geom.ix],
    };
    let out_shape: Vec<usize> = match geom.kind {
        LayerKind::Dense => vec![geom.k],
        LayerKind::MatMul => vec![geom.ox(), geom.oy(), geom.k],
        _ => vec![geom.k, geom.oy(), geom.ox()],
    };
    let weights = match geom.kind {
        LayerKind::Conv2d => Some(patterned(geom.w_dtype, &[geom.k, geom.c, geom.fy, geom.fx])),
        LayerKind::DepthwiseConv2d => Some(patterned(geom.w_dtype, &[geom.c, geom.fy, geom.fx])),
        LayerKind::Dense => Some(patterned(geom.w_dtype, &[geom.k, geom.c])),
        LayerKind::MatMul | LayerKind::Add => None,
    };
    let bias = match geom.kind {
        LayerKind::MatMul | LayerKind::Add => None,
        _ => Some(Tensor::zeros(DType::I32, &[geom.k])),
    };

    let mut buffers = vec![BufferDecl {
        id: BufferId(0),
        name: "input".into(),
        shape: Shape::new(&in_shape),
        dtype: geom.act_dtype,
        offset: 0,
        size: geom.act_dtype.storage_bytes(in_shape.iter().product()),
        kind: BufferKind::Input,
    }];
    let mut input2 = None;
    if matches!(geom.kind, LayerKind::Add | LayerKind::MatMul) {
        let shape2: Vec<usize> = match geom.kind {
            LayerKind::MatMul if geom.transpose_b => vec![geom.ix, geom.k, geom.c],
            LayerKind::MatMul => vec![geom.ix, geom.c, geom.k],
            _ => in_shape.clone(),
        };
        input2 = Some(BufferId(1));
        buffers.push(BufferDecl {
            id: BufferId(1),
            name: "input2".into(),
            shape: Shape::new(&shape2),
            dtype: geom.act_dtype,
            offset: buffers[0].size,
            size: geom.act_dtype.storage_bytes(shape2.iter().product()),
            kind: BufferKind::Input,
        });
    }
    let out_id = BufferId(buffers.len());
    let out_size = geom.act_dtype.storage_bytes(out_shape.iter().product());
    let out_offset = buffers.iter().map(|b| b.size).sum();
    buffers.push(BufferDecl {
        id: out_id,
        name: "output".into(),
        shape: Shape::new(&out_shape),
        dtype: geom.act_dtype,
        offset: out_offset,
        size: out_size,
        kind: BufferKind::Output,
    });

    let mut inputs = vec![BufferId(0)];
    if let Some(i2) = input2 {
        inputs.push(i2);
    }
    let activation_peak = out_offset + out_size;
    let desc = AccelLayerDesc {
        name: format!("{:?}", geom.kind).to_lowercase(),
        geom: geom.clone(),
        tile,
        weights,
        bias,
        shift: 5,
        relu: true,
        pool: None,
    };
    Program {
        steps: vec![Step::Accel {
            engine,
            desc,
            input: BufferId(0),
            input2,
            output: out_id,
        }],
        buffers,
        inputs,
        outputs: vec![out_id],
        activation_peak,
        // Characterization programs carry no platform-pinned descriptor
        // table: the harness sweeps configs, so the machine linearizes
        // each step for the config it runs.
        dma: htvm_soc::DmaTable::default(),
    }
}

/// Deterministic small-valued tensor (weights for characterization runs).
fn patterned(dtype: DType, dims: &[usize]) -> Tensor {
    let mut t = Tensor::zeros(dtype, dims);
    let (lo, hi) = dtype.range();
    let span = (hi - lo + 1).min(7);
    for (i, v) in t.data_mut().iter_mut().enumerate() {
        *v = (i as i32 % span) + lo.max(-3);
    }
    // Re-clamp defensively (e.g. ternary span handling).
    for v in t.data_mut() {
        *v = dtype.saturate(*v);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use htvm_soc::{DianaConfig, Machine};

    #[test]
    fn conv_program_runs() {
        let geom = LayerGeometry::conv2d(16, 16, 16, 16, 3, 3, (1, 1), (1, 1, 1, 1));
        let p = single_layer_program(&geom, TileConfig::full(&geom), EngineKind::Digital);
        let m = Machine::new(DianaConfig::default());
        let input = Tensor::zeros(DType::I8, &[16, 16, 16]);
        let r = m.run(&p, &[input]).unwrap();
        assert_eq!(r.outputs[0].shape().dims(), &[16, 16, 16]);
        assert!(r.total_cycles() > 0);
    }

    #[test]
    fn add_program_has_two_inputs() {
        let geom = LayerGeometry::add(8, 4, 4);
        let p = single_layer_program(&geom, TileConfig::full(&geom), EngineKind::Digital);
        assert_eq!(p.inputs.len(), 2);
        let m = Machine::new(DianaConfig::default());
        let a = Tensor::zeros(DType::I8, &[8, 4, 4]);
        let b = Tensor::zeros(DType::I8, &[8, 4, 4]);
        let r = m.run(&p, &[a, b]).unwrap();
        assert_eq!(r.outputs[0].shape().dims(), &[8, 4, 4]);
    }

    #[test]
    fn dense_program_is_rank1() {
        let geom = LayerGeometry::dense(64, 16);
        let p = single_layer_program(&geom, TileConfig::full(&geom), EngineKind::Digital);
        let m = Machine::new(DianaConfig::default());
        let input = Tensor::zeros(DType::I8, &[64]);
        let r = m.run(&p, &[input]).unwrap();
        assert_eq!(r.outputs[0].shape().dims(), &[16]);
    }

    #[test]
    fn ternary_weights_stay_in_range() {
        let geom = LayerGeometry::conv2d(8, 8, 8, 8, 3, 3, (1, 1), (1, 1, 1, 1))
            .with_weight_dtype(DType::Ternary);
        let p = single_layer_program(&geom, TileConfig::full(&geom), EngineKind::Analog);
        let Step::Accel { desc, .. } = &p.steps[0] else {
            panic!("expected accel step");
        };
        desc.weights.as_ref().unwrap().validate().unwrap();
    }
}
