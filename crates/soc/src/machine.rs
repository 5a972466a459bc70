//! The program executor: functional semantics + cycle accounting.

use crate::dma_program::{linearize_tiles, DmaDir, StepDma};
use crate::{
    cpu, AccelLayerDesc, BufferId, CycleBreakdown, DianaConfig, EngineKind, LayerProfile, Program,
    RunReport, Step,
};
use htvm_dory::{tiles, LayerKind, TileInstance};
use htvm_ir::{DType, Tensor};
use htvm_kernels as kernels;
use std::borrow::Cow;
use std::error::Error;
use std::fmt;

/// Errors produced while running a program.
///
/// Every per-layer variant carries the failing step index, layer name and
/// engine as structured fields, so callers and test assertions never
/// have to string-match error messages.
#[derive(Debug)]
#[non_exhaustive]
pub enum RunError {
    /// The number of provided inputs does not match the program signature.
    InputCountMismatch {
        /// Inputs the program declares.
        expected: usize,
        /// Inputs provided.
        got: usize,
    },
    /// A provided input does not match its buffer declaration.
    InputTypeMismatch {
        /// Input index.
        index: usize,
        /// Human-readable description.
        detail: String,
    },
    /// A fused CPU kernel failed to evaluate (malformed segment graph).
    Eval {
        /// Failing step index into [`Program::steps`].
        layer_index: usize,
        /// The offending kernel's name.
        layer: String,
        /// The underlying evaluation error.
        source: kernels::EvalError,
    },
    /// An accelerator step's tile exceeds a physical memory: the program
    /// violates the Eq. 2 constraint the tiler was supposed to enforce.
    L1Overflow {
        /// Failing step index into [`Program::steps`].
        layer_index: usize,
        /// The offending layer.
        layer: String,
        /// Engine whose memory was exceeded.
        engine: EngineKind,
        /// Bytes the tile needs in the violated memory.
        needed: usize,
        /// The memory's capacity in bytes.
        capacity: usize,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::InputCountMismatch { expected, got } => {
                write!(f, "program expects {expected} inputs, got {got}")
            }
            RunError::InputTypeMismatch { index, detail } => write!(f, "input {index}: {detail}"),
            RunError::Eval {
                layer_index,
                layer,
                source,
            } => write!(
                f,
                "step {layer_index} ('{layer}'): cpu kernel evaluation failed: {source}"
            ),
            RunError::L1Overflow {
                layer_index,
                layer,
                engine,
                needed,
                capacity,
            } => write!(
                f,
                "step {layer_index} ('{layer}', {engine}) tile needs {needed} bytes, exceeding the {capacity} byte scratchpad"
            ),
        }
    }
}

impl Error for RunError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RunError::Eval { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl RunError {
    /// The failing step index, for errors scoped to one layer.
    #[must_use]
    pub fn layer_index(&self) -> Option<usize> {
        match self {
            RunError::Eval { layer_index, .. } | RunError::L1Overflow { layer_index, .. } => {
                Some(*layer_index)
            }
            _ => None,
        }
    }

    /// The engine involved in the failure, when one is.
    #[must_use]
    pub fn engine(&self) -> Option<EngineKind> {
        match self {
            RunError::L1Overflow { engine, .. } => Some(*engine),
            RunError::Eval { .. } => Some(EngineKind::Cpu),
            _ => None,
        }
    }
}

/// The simulated DIANA SoC: executes compiled [`Program`]s, producing both
/// bit-exact outputs and the per-layer cycle profile the paper reads from
/// DIANA's hardware performance counters.
///
/// # Examples
///
/// Built end-to-end by the `htvm` compiler crate; see its documentation.
#[derive(Debug, Clone)]
pub struct Machine {
    cfg: DianaConfig,
}

impl Machine {
    /// Creates a machine with the given platform configuration.
    #[must_use]
    pub fn new(cfg: DianaConfig) -> Self {
        Machine { cfg }
    }

    /// The platform configuration.
    #[must_use]
    pub fn config(&self) -> &DianaConfig {
        &self.cfg
    }

    /// Runs a program on concrete inputs.
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] if the inputs do not match the program
    /// signature, an accelerator tile overflows a physical memory, or a
    /// CPU segment fails to evaluate.
    pub fn run(&self, program: &Program, inputs: &[Tensor]) -> Result<RunReport, RunError> {
        if inputs.len() != program.inputs.len() {
            return Err(RunError::InputCountMismatch {
                expected: program.inputs.len(),
                got: inputs.len(),
            });
        }
        let mut values: Vec<Option<Tensor>> = vec![None; program.buffers.len()];
        for (i, (&id, t)) in program.inputs.iter().zip(inputs).enumerate() {
            let decl = program.buffer(id);
            if t.shape() != &decl.shape || t.dtype() != decl.dtype {
                return Err(RunError::InputTypeMismatch {
                    index: i,
                    detail: format!(
                        "expected {}{}, got {}{}",
                        decl.dtype,
                        decl.shape,
                        t.dtype(),
                        t.shape()
                    ),
                });
            }
            values[id.0] = Some(t.clone());
        }

        let mut layers = Vec::with_capacity(program.steps.len());
        for (step_idx, step) in program.steps.iter().enumerate() {
            let profile = match step {
                Step::Accel {
                    engine,
                    desc,
                    input,
                    input2,
                    output,
                } => {
                    let a = take_ref(&values, *input);
                    let b = input2.map(|id| take_ref(&values, id));
                    self.check_tile_fits(step_idx, *engine, desc)?;
                    let (tensor, profile) = self.exec_accel(*engine, desc, a, b);
                    values[output.0] = Some(tensor);
                    profile
                }
                Step::CpuFused {
                    name,
                    graph,
                    inputs: step_inputs,
                    output,
                } => {
                    let args: Vec<&Tensor> = step_inputs
                        .iter()
                        .map(|&id| take_ref(&values, id))
                        .collect();
                    let mut out =
                        kernels::evaluate_refs(graph, &args).map_err(|e| RunError::Eval {
                            layer_index: step_idx,
                            layer: name.clone(),
                            source: e,
                        })?;
                    let cycles = cpu::cpu_graph_cycles(&self.cfg.cpu, graph);
                    values[output.0] = Some(out.remove(0));
                    LayerProfile {
                        name: name.clone(),
                        engine: EngineKind::Cpu,
                        cycles: CycleBreakdown {
                            compute: cycles,
                            ..CycleBreakdown::default()
                        },
                        macs: graph.total_macs(),
                        n_tiles: 1,
                    }
                }
            };
            layers.push(profile);
        }

        let outputs = program
            .outputs
            .iter()
            .map(|&id| take_ref(&values, id).clone())
            .collect();
        Ok(RunReport { outputs, layers })
    }

    /// Enforces the Eq. 2 capacity constraint at execution time: a
    /// program whose tiles physically overflow the shared L1 or the
    /// engine's weight store is rejected, whatever the compiler claimed.
    fn check_tile_fits(
        &self,
        step_idx: usize,
        engine: EngineKind,
        desc: &AccelLayerDesc,
    ) -> Result<(), RunError> {
        let overflow = |needed: usize, capacity: usize| {
            Err(RunError::L1Overflow {
                layer_index: step_idx,
                layer: desc.name.clone(),
                engine,
                needed,
                capacity,
            })
        };
        let mem = htvm_dory::tile_memory(&desc.geom, &desc.tile);
        let act = mem.input + mem.output;
        if act > self.cfg.l1_act_bytes {
            return overflow(act, self.cfg.l1_act_bytes);
        }
        match engine {
            EngineKind::Digital if mem.weight > self.cfg.digital.weight_bytes => {
                overflow(mem.weight, self.cfg.digital.weight_bytes)
            }
            EngineKind::Analog => {
                let analog = &self.cfg.analog;
                let rows_needed = match desc.geom.kind {
                    LayerKind::DepthwiseConv2d | LayerKind::Add => 0,
                    _ => desc.tile.c_t * desc.geom.fy * desc.geom.fx,
                };
                // Report the axis that is violated: rows, else columns.
                if rows_needed > analog.rows {
                    overflow(rows_needed, analog.rows)
                } else if desc.tile.k_t > analog.cols {
                    overflow(desc.tile.k_t, analog.cols)
                } else {
                    Ok(())
                }
            }
            _ => Ok(()),
        }
    }

    /// The temporal model of one accelerator layer: its [`StepDma`]
    /// descriptor program, linearized for this machine's configuration
    /// from the step's own descriptor (never read from the artifact),
    /// replayed against this platform's cost constants. Purely timing: no
    /// tensor data is touched.
    fn replay_timing(&self, engine: EngineKind, step_dma: &StepDma) -> CycleBreakdown {
        let model = self.cfg.cost_model(engine);
        let mut cycles = CycleBreakdown {
            overhead: model.overhead_cycles(step_dma.n_tiles),
            ..CycleBreakdown::default()
        };
        for d in &step_dma.descriptors {
            let cost = model.transfer_cycles(d.bytes, d.chunks);
            match d.dir {
                DmaDir::In | DmaDir::Out => cycles.dma += cost,
                DmaDir::Weight => cycles.weight_load += cost,
            }
        }
        cycles.weight_load += step_dma.analog_weight;
        cycles.compute = step_dma.compute;
        // DORY double-buffering (optional): activation DMA of tile i+1
        // overlaps compute of tile i, leaving only the first-tile fill and
        // whatever DMA exceeds the compute time exposed. Weight staging is
        // part of the accelerator instruction and never overlaps. The fused
        // pooling (paper §III-C) joins compute only afterwards.
        if self.cfg.dma.double_buffer && step_dma.n_tiles > 1 {
            let fill = cycles.dma / step_dma.n_tiles;
            cycles.dma = cycles.dma.saturating_sub(cycles.compute).max(fill);
        }
        cycles.compute += step_dma.pool;
        cycles
    }

    /// Executes one accelerator layer: the DORY tile loop with DMA, weight
    /// staging and compute costs, accumulating functionally per tile.
    fn exec_accel(
        &self,
        engine: EngineKind,
        desc: &AccelLayerDesc,
        input: &Tensor,
        input2: Option<&Tensor>,
    ) -> (Tensor, LayerProfile) {
        let geom = &desc.geom;
        let input = self.dac_clamp(engine, input);
        let input2 = input2.map(|t| self.dac_clamp(engine, t));
        let (input, input2) = (&*input, input2.as_deref());
        let out_shape: Vec<usize> = match geom.kind {
            LayerKind::Dense => vec![geom.k],
            // Matmul keeps the batched [H, M, N] layout of its operands.
            LayerKind::MatMul => vec![geom.ox(), geom.oy(), geom.k],
            _ => vec![geom.k, geom.oy(), geom.ox()],
        };
        let mut acc = Tensor::zeros(DType::I32, &out_shape);

        let instances = tiles(geom, &desc.tile);
        let step_dma = linearize_tiles(&self.cfg, engine, desc, &instances);
        let cycles = self.replay_timing(engine, &step_dma);

        // Functional execution of exactly each tile's work.
        for inst in &instances {
            Self::exec_tile(desc, input, input2, &mut acc, inst);
        }

        // Fused output path: bias, requantization, activation. On DIANA
        // these run in the accelerators' output pipelines concurrently with
        // the MAC array, so they add no cycles of their own. One in-place
        // pass, bit-identical to the unfused chain.
        let mut out = kernels::accel_epilogue(acc, desc.bias.as_ref(), desc.shift, desc.relu);
        if let Some(pool) = &desc.pool {
            out = kernels::pool2d(&out, pool.kind, pool.kernel, pool.strides, pool.padding);
        }

        let profile = LayerProfile {
            name: desc.name.clone(),
            engine,
            cycles,
            macs: geom.macs(),
            n_tiles: instances.len(),
        };
        (out, profile)
    }

    /// An operand as the analog MAC array sees it through its optional
    /// 7-bit DAC, which clamps activations to ±63; other engines see it as is.
    fn dac_clamp<'a>(&self, engine: EngineKind, t: &'a Tensor) -> Cow<'a, Tensor> {
        if engine == EngineKind::Analog && self.cfg.analog.clamp_inputs_7bit {
            Cow::Owned(kernels::clip(t, -63, 63))
        } else {
            Cow::Borrowed(t)
        }
    }

    /// Runs the tile's arithmetic through the fast kernels (bit-exact
    /// with the reference kernels by construction).
    fn exec_tile(
        desc: &AccelLayerDesc,
        input: &Tensor,
        input2: Option<&Tensor>,
        acc: &mut Tensor,
        inst: &TileInstance,
    ) {
        let geom = &desc.geom;
        match geom.kind {
            LayerKind::Conv2d => {
                let w = desc.weights.as_ref().expect("conv layers carry weights");
                kernels::conv2d_accumulate(
                    input,
                    w,
                    acc,
                    geom.strides,
                    geom.padding,
                    inst.k.clone(),
                    inst.oy.clone(),
                    inst.ox.clone(),
                    inst.c.clone(),
                );
            }
            LayerKind::DepthwiseConv2d => {
                let w = desc.weights.as_ref().expect("dw layers carry weights");
                kernels::depthwise_conv2d_region(
                    input,
                    w,
                    acc,
                    geom.strides,
                    geom.padding,
                    inst.c.clone(),
                    inst.oy.clone(),
                    inst.ox.clone(),
                );
            }
            LayerKind::Dense => {
                let w = desc.weights.as_ref().expect("dense layers carry weights");
                kernels::dense_accumulate(input, w, acc, inst.k.clone(), inst.c.clone());
            }
            LayerKind::MatMul => {
                let b = input2.expect("matmul layers have two operands");
                kernels::matmul_accumulate_region(
                    input,
                    b,
                    geom.transpose_b,
                    acc,
                    inst.ox.clone(),
                    inst.oy.clone(),
                    inst.k.clone(),
                    inst.c.clone(),
                );
            }
            LayerKind::Add => {
                let b = input2.expect("add layers have two operands");
                debug_assert_eq!(input.shape(), acc.shape());
                debug_assert_eq!(b.shape(), acc.shape());
                let (oy, ox) = (geom.oy(), geom.ox());
                let ad = input.data();
                let bd = b.data();
                let od = acc.data_mut();
                for c in inst.k.clone() {
                    for y in inst.oy.clone() {
                        let row = (c * oy + y) * ox;
                        let span = row + inst.ox.start..row + inst.ox.end;
                        let dst = &mut od[span.clone()];
                        for ((o, &va), &vb) in dst.iter_mut().zip(&ad[span.clone()]).zip(&bd[span])
                        {
                            *o = va.wrapping_add(vb);
                        }
                    }
                }
            }
        }
    }
}

fn take_ref(values: &[Option<Tensor>], id: BufferId) -> &Tensor {
    values[id.0]
        .as_ref()
        .expect("schedule order guarantees producer ran before consumer")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BufferDecl, BufferKind};
    use htvm_dory::{LayerGeometry, TileConfig};
    use htvm_ir::Shape;

    fn buffer(id: usize, name: &str, dims: &[usize], kind: BufferKind) -> BufferDecl {
        BufferDecl {
            id: BufferId(id),
            name: name.into(),
            shape: Shape::new(dims),
            dtype: DType::I8,
            offset: 0,
            size: dims.iter().product(),
            kind,
        }
    }

    /// Hand-build a single-conv program and check tiled-accelerated output
    /// against the reference kernels.
    fn conv_program(tile: TileConfig, engine: EngineKind) -> (Program, Tensor, Tensor) {
        let geom = LayerGeometry::conv2d(4, 6, 8, 8, 3, 3, (1, 1), (1, 1, 1, 1));
        let mut weights = Tensor::zeros(DType::I8, &[6, 4, 3, 3]);
        for (i, v) in weights.data_mut().iter_mut().enumerate() {
            *v = (i as i32 % 7) - 3;
        }
        let mut bias_t = Tensor::zeros(DType::I32, &[6]);
        for (i, v) in bias_t.data_mut().iter_mut().enumerate() {
            *v = i as i32 * 10 - 30;
        }
        let mut input = Tensor::zeros(DType::I8, &[4, 8, 8]);
        for (i, v) in input.data_mut().iter_mut().enumerate() {
            *v = (i as i32 % 17) - 8;
        }
        // Reference: conv + bias + shift + clip + cast + relu.
        let r = kernels::conv2d(&input, &weights, (1, 1), htvm_ir::Padding2d::same(1));
        let r = kernels::bias_add(&r, &bias_t);
        let r = kernels::right_shift(&r, 4);
        let r = kernels::clip(&r, -128, 127);
        let r = kernels::cast(&r, DType::I8);
        let reference = kernels::relu(&r);

        let program = Program {
            buffers: vec![
                buffer(0, "in", &[4, 8, 8], BufferKind::Input),
                buffer(1, "out", &[6, 8, 8], BufferKind::Output),
            ],
            steps: vec![Step::Accel {
                engine,
                desc: AccelLayerDesc {
                    name: "conv".into(),
                    geom,
                    tile,
                    weights: Some(weights),
                    bias: Some(bias_t),
                    shift: 4,
                    relu: true,
                    pool: None,
                },
                input: BufferId(0),
                input2: None,
                output: BufferId(1),
            }],
            inputs: vec![BufferId(0)],
            outputs: vec![BufferId(1)],
            activation_peak: 4 * 64 + 6 * 64,
            dma: crate::DmaTable::default(),
        };
        (program, input, reference)
    }

    #[test]
    fn untiled_digital_matches_reference() {
        let geom = LayerGeometry::conv2d(4, 6, 8, 8, 3, 3, (1, 1), (1, 1, 1, 1));
        let (program, input, reference) =
            conv_program(TileConfig::full(&geom), EngineKind::Digital);
        let m = Machine::new(DianaConfig::default());
        let report = m.run(&program, &[input]).unwrap();
        assert_eq!(report.outputs[0], reference);
        assert_eq!(report.layers.len(), 1);
        assert!(report.total_cycles() > 0);
    }

    #[test]
    fn tiled_execution_is_bit_exact() {
        for tile in [
            TileConfig {
                c_t: 1,
                k_t: 1,
                oy_t: 1,
                ox_t: 1,
            },
            TileConfig {
                c_t: 3,
                k_t: 2,
                oy_t: 5,
                ox_t: 8,
            },
            TileConfig {
                c_t: 2,
                k_t: 6,
                oy_t: 8,
                ox_t: 3,
            },
        ] {
            let (program, input, reference) = conv_program(tile, EngineKind::Digital);
            let m = Machine::new(DianaConfig::default());
            let report = m.run(&program, &[input]).unwrap();
            assert_eq!(report.outputs[0], reference, "tile {tile:?}");
        }
    }

    #[test]
    fn analog_and_digital_agree_functionally() {
        let geom = LayerGeometry::conv2d(4, 6, 8, 8, 3, 3, (1, 1), (1, 1, 1, 1));
        let tile = TileConfig::full(&geom);
        let (pd, input, _) = conv_program(tile, EngineKind::Digital);
        let (pa, _, _) = conv_program(tile, EngineKind::Analog);
        let m = Machine::new(DianaConfig::default());
        let rd = m.run(&pd, std::slice::from_ref(&input)).unwrap();
        let ra = m.run(&pa, &[input]).unwrap();
        assert_eq!(rd.outputs[0], ra.outputs[0]);
        // But their cycle profiles differ (different engines).
        assert_ne!(rd.layers[0].cycles.compute, ra.layers[0].cycles.compute);
    }

    #[test]
    fn smaller_tiles_cost_more_cycles() {
        let geom = LayerGeometry::conv2d(4, 6, 8, 8, 3, 3, (1, 1), (1, 1, 1, 1));
        let (p_full, input, _) = conv_program(TileConfig::full(&geom), EngineKind::Digital);
        let (p_tiny, _, _) = conv_program(
            TileConfig {
                c_t: 1,
                k_t: 1,
                oy_t: 2,
                ox_t: 2,
            },
            EngineKind::Digital,
        );
        let m = Machine::new(DianaConfig::default());
        let full = m
            .run(&p_full, std::slice::from_ref(&input))
            .unwrap()
            .total_cycles();
        let tiny = m.run(&p_tiny, &[input]).unwrap().total_cycles();
        assert!(
            tiny > full,
            "tiny tiles ({tiny}) must cost more than full ({full})"
        );
    }

    #[test]
    fn rejects_bad_inputs() {
        let geom = LayerGeometry::conv2d(4, 6, 8, 8, 3, 3, (1, 1), (1, 1, 1, 1));
        let (program, _input, _) = conv_program(TileConfig::full(&geom), EngineKind::Digital);
        let m = Machine::new(DianaConfig::default());
        assert!(matches!(
            m.run(&program, &[]),
            Err(RunError::InputCountMismatch { .. })
        ));
        let wrong = Tensor::zeros(DType::I8, &[4, 8, 7]);
        assert!(matches!(
            m.run(&program, &[wrong]),
            Err(RunError::InputTypeMismatch { .. })
        ));
    }

    #[test]
    fn oversized_tiles_rejected_at_runtime() {
        // A machine with a tiny L1 must refuse a full-layer tile that the
        // default platform would accept.
        let geom = LayerGeometry::conv2d(4, 6, 8, 8, 3, 3, (1, 1), (1, 1, 1, 1));
        let full = TileConfig::full(&geom);
        let (program, input, _) = conv_program(full, EngineKind::Digital);
        let tiny = DianaConfig {
            l1_act_bytes: 64,
            ..DianaConfig::default()
        };
        let m = Machine::new(tiny);
        assert!(matches!(
            m.run(&program, &[input]),
            Err(RunError::L1Overflow { .. })
        ));
    }

    #[test]
    fn analog_column_overflow_reports_the_column_axis() {
        // 36 rows fit the macro; 6 output channels do not fit 4 columns.
        let geom = LayerGeometry::conv2d(4, 6, 8, 8, 3, 3, (1, 1), (1, 1, 1, 1));
        let (program, input, _) = conv_program(TileConfig::full(&geom), EngineKind::Analog);
        let mut narrow = DianaConfig::default();
        narrow.analog.cols = 4;
        match Machine::new(narrow).run(&program, &[input]) {
            Err(RunError::L1Overflow {
                needed, capacity, ..
            }) => {
                assert_eq!((needed, capacity), (6, 4));
                assert!(needed > capacity);
            }
            other => panic!("expected L1Overflow, got {other:?}"),
        }
    }

    #[test]
    fn double_buffering_hides_dma_behind_compute() {
        let _geom = LayerGeometry::conv2d(4, 6, 8, 8, 3, 3, (1, 1), (1, 1, 1, 1));
        let tile = TileConfig {
            c_t: 4,
            k_t: 6,
            oy_t: 2,
            ox_t: 8,
        };
        let (program, input, reference) = conv_program(tile, EngineKind::Digital);
        let serial = Machine::new(DianaConfig::default());
        let mut cfg = DianaConfig::default();
        cfg.dma.double_buffer = true;
        let overlapped = Machine::new(cfg);
        let rs = serial.run(&program, std::slice::from_ref(&input)).unwrap();
        let ro = overlapped
            .run(&program, std::slice::from_ref(&input))
            .unwrap();
        // Same bits, fewer exposed DMA cycles.
        assert_eq!(rs.outputs[0], reference);
        assert_eq!(ro.outputs[0], reference);
        assert!(ro.layers[0].cycles.dma < rs.layers[0].cycles.dma);
        assert!(ro.total_cycles() < rs.total_cycles());
        // Compute and weight cycles are untouched.
        assert_eq!(ro.layers[0].cycles.compute, rs.layers[0].cycles.compute);
        assert_eq!(
            ro.layers[0].cycles.weight_load,
            rs.layers[0].cycles.weight_load
        );
    }

    #[test]
    fn analog_7bit_clamp_models_the_dac() {
        let geom = LayerGeometry::conv2d(4, 6, 8, 8, 3, 3, (1, 1), (1, 1, 1, 1));
        let tile = TileConfig::full(&geom);
        let (program, _, _) = conv_program(tile, EngineKind::Analog);
        // Input with values beyond the 7-bit DAC range.
        let mut input = Tensor::zeros(DType::I8, &[4, 8, 8]);
        for (i, v) in input.data_mut().iter_mut().enumerate() {
            *v = if i % 2 == 0 { 100 } else { -100 };
        }
        let ideal = Machine::new(DianaConfig::default());
        let mut cfg = DianaConfig::default();
        cfg.analog.clamp_inputs_7bit = true;
        let dac = Machine::new(cfg);
        let a = ideal.run(&program, std::slice::from_ref(&input)).unwrap();
        let b = dac.run(&program, std::slice::from_ref(&input)).unwrap();
        assert_ne!(
            a.outputs, b.outputs,
            "clamping must change saturating inputs"
        );
        // In-range inputs are unaffected.
        let small = Tensor::new(DType::I8, &[4, 8, 8], vec![5; 256]).unwrap();
        let a = ideal.run(&program, std::slice::from_ref(&small)).unwrap();
        let b = dac.run(&program, std::slice::from_ref(&small)).unwrap();
        assert_eq!(a.outputs, b.outputs);
    }

    #[test]
    fn weight_reload_charged_on_slice_change() {
        // Spatial-only tiling: weight slice constant -> one load.
        let (p_spatial, input, _) = conv_program(
            TileConfig {
                c_t: 4,
                k_t: 6,
                oy_t: 4,
                ox_t: 8,
            },
            EngineKind::Analog,
        );
        // Channel tiling: slice changes each instance -> many loads.
        let (p_channel, _, _) = conv_program(
            TileConfig {
                c_t: 2,
                k_t: 3,
                oy_t: 8,
                ox_t: 8,
            },
            EngineKind::Analog,
        );
        let m = Machine::new(DianaConfig::default());
        let ws = m
            .run(&p_spatial, std::slice::from_ref(&input))
            .unwrap()
            .layers[0]
            .cycles
            .weight_load;
        let wc = m.run(&p_channel, &[input]).unwrap().layers[0]
            .cycles
            .weight_load;
        assert!(
            wc > ws,
            "channel-tiled loads ({wc}) must exceed spatial ({ws})"
        );
    }

    #[test]
    fn table_less_cycle_breakdowns_are_frozen() {
        // Two platforms × two engines × three tilings of one conv, as
        // recorded from the hand-written tile-loop interpreter before it
        // was deleted: (compute, dma, weight_load, overhead), in loop order.
        const FROZEN: [(u64, u64, u64, u64); 12] = [
            (1080, 140, 57, 1100),
            (2160, 968, 296, 3200),
            (12960, 35256, 9216, 87200),
            (1024, 140, 5040, 1100),
            (4096, 968, 20160, 3200),
            (24576, 35256, 362880, 87200),
            (1080, 140, 57, 1100),
            (2160, 121, 296, 3200),
            (12960, 22296, 9216, 87200),
            (1024, 140, 5040, 1100),
            (4096, 121, 20160, 3200),
            (24576, 10680, 362880, 87200),
        ];
        let geom = LayerGeometry::conv2d(4, 6, 8, 8, 3, 3, (1, 1), (1, 1, 1, 1));
        let mut overlapped = DianaConfig::default();
        overlapped.dma.double_buffer = true;
        let mut frozen = FROZEN.iter();
        for cfg in [DianaConfig::default(), overlapped] {
            for engine in [EngineKind::Digital, EngineKind::Analog] {
                for tile in [
                    TileConfig::full(&geom),
                    TileConfig {
                        c_t: 2,
                        k_t: 3,
                        oy_t: 4,
                        ox_t: 8,
                    },
                    TileConfig {
                        c_t: 1,
                        k_t: 1,
                        oy_t: 2,
                        ox_t: 3,
                    },
                ] {
                    let (program, input, _) = conv_program(tile, engine);
                    let report = Machine::new(cfg).run(&program, &[input]).unwrap();
                    let &(compute, dma, weight_load, overhead) = frozen.next().unwrap();
                    assert_eq!(
                        report.layers[0].cycles,
                        CycleBreakdown {
                            compute,
                            dma,
                            weight_load,
                            overhead,
                            stall: 0,
                        },
                        "double_buffer={} {engine} {tile:?}",
                        cfg.dma.double_buffer
                    );
                }
            }
        }
    }

    #[test]
    fn forged_dma_table_cannot_change_a_run() {
        // The machine never reads `Program::dma`: a stale tile count,
        // arbitrary descriptors, or an entry at a CPU step all run exactly
        // like the same program with an empty table.
        use crate::{DmaDescriptor, DmaTable, StepDma};
        let tile = TileConfig {
            c_t: 2,
            k_t: 3,
            oy_t: 4,
            ox_t: 8,
        };
        let cfg = DianaConfig::default();
        let (mut program, input, _) = conv_program(tile, EngineKind::Digital);
        let mut b = htvm_ir::GraphBuilder::new();
        let x = b.input("x", &[6, 8, 8], DType::I8);
        let y = b.relu(x).unwrap();
        program
            .buffers
            .push(buffer(2, "relu", &[6, 8, 8], BufferKind::Output));
        program.buffers[1].kind = BufferKind::Intermediate;
        program.steps.push(Step::CpuFused {
            name: "relu".into(),
            graph: b.finish(&[y]).unwrap(),
            inputs: vec![BufferId(1)],
            output: BufferId(2),
        });
        program.outputs = vec![BufferId(2)];
        let Step::Accel { desc, .. } = &program.steps[0] else {
            panic!("conv_program starts with an accel step");
        };
        let honest = crate::linearize_step(&cfg, EngineKind::Digital, desc);
        let junk = StepDma {
            n_tiles: honest.n_tiles,
            compute: 1,
            pool: 12_345,
            analog_weight: 678,
            descriptors: vec![
                DmaDescriptor {
                    dir: DmaDir::Weight,
                    bytes: 1 << 20,
                    chunks: 9,
                };
                3
            ],
        };
        let table = |step: usize, entry: StepDma| {
            let mut t = DmaTable::default();
            t.insert(step, entry);
            t
        };
        let forgeries = [
            (
                "stale tile count",
                table(
                    0,
                    StepDma {
                        n_tiles: honest.n_tiles + 1,
                        ..honest.clone()
                    },
                ),
            ),
            ("arbitrary descriptors", table(0, junk.clone())),
            ("entry at a CPU step", table(1, junk)),
        ];

        let m = Machine::new(cfg);
        let expected = m.run(&program, std::slice::from_ref(&input)).unwrap();
        for (what, dma) in &forgeries {
            let mut forged = program.clone();
            forged.dma = dma.clone();
            let got = m.run(&forged, std::slice::from_ref(&input)).unwrap();
            assert_eq!(got, expected, "{what}");
        }
    }
}
