//! The program executor: functional semantics + cycle accounting.

use crate::dma_program::{linearize_step, linearize_tiles, DmaDir, StepDma};
use crate::faults::{DmaAbort, FaultCtx};
use crate::{
    cpu, cpu_fallback, AccelLayerDesc, BufferId, CycleBreakdown, DianaConfig, EngineKind,
    FaultPlan, LayerProfile, Program, RunReport, Step,
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
/// engine as structured fields, so degradation decisions and test
/// assertions never have to string-match error messages.
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
    /// An injected DMA failure persisted beyond the retry budget.
    DmaFailed {
        /// Failing step index into [`Program::steps`].
        layer_index: usize,
        /// The layer whose transfer failed.
        layer: String,
        /// Engine the layer was dispatched to.
        engine: EngineKind,
        /// Global DMA transaction index of the failed transfer.
        transfer: u64,
        /// Failures observed (exceeds the retry budget).
        attempts: u32,
    },
    /// An engine was offline at this step and the step's descriptor has no
    /// host form to degrade to (a weighted layer without weights, in a
    /// hand-built or deserialized [`Program`]; never an emitted one).
    EngineUnavailable {
        /// Failing step index into [`Program::steps`].
        layer_index: usize,
        /// The stranded layer.
        layer: String,
        /// The offline engine.
        engine: EngineKind,
    },
    /// An injected L1 allocation denial persisted beyond the retry budget.
    L1Denied {
        /// Failing step index into [`Program::steps`].
        layer_index: usize,
        /// The layer whose allocation was denied.
        layer: String,
        /// Engine the layer was dispatched to.
        engine: EngineKind,
        /// Denials observed (exceeds the retry budget).
        attempts: u32,
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
            RunError::DmaFailed {
                layer_index,
                layer,
                engine,
                transfer,
                attempts,
            } => write!(
                f,
                "step {layer_index} ('{layer}', {engine}): DMA transfer #{transfer} failed {attempts} times, retry budget exhausted"
            ),
            RunError::EngineUnavailable {
                layer_index,
                layer,
                engine,
            } => write!(
                f,
                "step {layer_index} ('{layer}'): engine {engine} is offline and the layer's descriptor has no CPU form"
            ),
            RunError::L1Denied {
                layer_index,
                layer,
                engine,
                attempts,
            } => write!(
                f,
                "step {layer_index} ('{layer}', {engine}): L1 allocation denied {attempts} times, retry budget exhausted"
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
            RunError::Eval { layer_index, .. }
            | RunError::L1Overflow { layer_index, .. }
            | RunError::DmaFailed { layer_index, .. }
            | RunError::EngineUnavailable { layer_index, .. }
            | RunError::L1Denied { layer_index, .. } => Some(*layer_index),
            _ => None,
        }
    }

    /// The engine involved in the failure, when one is.
    #[must_use]
    pub fn engine(&self) -> Option<EngineKind> {
        match self {
            RunError::L1Overflow { engine, .. }
            | RunError::DmaFailed { engine, .. }
            | RunError::EngineUnavailable { engine, .. }
            | RunError::L1Denied { engine, .. } => Some(*engine),
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
    /// Equivalent to [`Machine::run_with_faults`] with
    /// [`FaultPlan::none`]: same outputs, same cycle counts.
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] if the inputs do not match the program
    /// signature or a CPU segment fails to evaluate.
    pub fn run(&self, program: &Program, inputs: &[Tensor]) -> Result<RunReport, RunError> {
        self.run_with_faults(program, inputs, &FaultPlan::none())
    }

    /// Runs a program under an injected [`FaultPlan`].
    ///
    /// Transient faults (DMA stalls/failures, L1 allocation denials) are
    /// retried with the plan's bounded backoff; the recovery cost lands in
    /// each layer's `stall` cycles, its `retries` count and the report's
    /// [`PerfCounters`](crate::PerfCounters). Permanent engine-off faults
    /// degrade the affected steps to the CPU fallback derived from each
    /// step's descriptor. Faults never change the computed bits: a
    /// recoverable plan yields outputs bit-exact with the fault-free run,
    /// at equal or higher cycle cost. An empty plan reproduces
    /// [`Machine::run`] exactly, cycle for cycle.
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] on signature mismatch, on transient faults
    /// that exhaust the retry budget ([`RunError::DmaFailed`],
    /// [`RunError::L1Denied`]), and on an offline engine whose step has no
    /// host form ([`RunError::EngineUnavailable`]).
    pub fn run_with_faults(
        &self,
        program: &Program,
        inputs: &[Tensor],
        plan: &FaultPlan,
    ) -> Result<RunReport, RunError> {
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

        let mut faults = FaultCtx::from_plan(plan);
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
                    let (tensor, profile) = if faults.engine_offline(*engine, step_idx) {
                        self.exec_fallback(step_idx, *engine, desc, (a, b), &mut faults)?
                    } else {
                        self.check_tile_fits(step_idx, *engine, desc)?;
                        faults
                            .l1_allocation(step_idx)
                            .map_err(|attempts| RunError::L1Denied {
                                layer_index: step_idx,
                                layer: desc.name.clone(),
                                engine: *engine,
                                attempts,
                            })?;
                        self.exec_accel(step_idx, *engine, desc, a, b, &mut faults)?
                    };
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
                        retries: 0,
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
        Ok(RunReport {
            outputs,
            layers,
            counters: faults.counters,
        })
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
    /// replayed against this platform's cost constants.
    /// Every DMA transaction is routed through the fault context in the
    /// program's issue order — the order fault plans index by — which
    /// accounts injected stalls and retries into its per-layer scratch
    /// (never into `dma`, so the double-buffering adjustment can never
    /// hide a fault). Purely timing — no tensor data is touched — so the
    /// fallback path can price the fault-free layer without executing it.
    fn replay_timing(
        &self,
        engine: EngineKind,
        step_dma: &StepDma,
        faults: &mut FaultCtx,
    ) -> Result<CycleBreakdown, DmaAbort> {
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
            faults.dma_transfer(cost)?;
        }
        cycles.weight_load += step_dma.analog_weight;
        cycles.compute = step_dma.compute;
        // DORY double-buffering (optional): activation DMA of tile i+1
        // overlaps compute of tile i, leaving only the first-tile fill and
        // whatever DMA exceeds the compute time exposed. Weight staging is
        // part of the accelerator instruction and never overlaps; fault
        // stalls live in their own bucket and are never overlapped. The
        // fused pooling (paper §III-C) joins compute only afterwards.
        if self.cfg.dma.double_buffer && step_dma.n_tiles > 1 {
            let fill = cycles.dma / step_dma.n_tiles;
            cycles.dma = cycles.dma.saturating_sub(cycles.compute).max(fill);
        }
        cycles.compute += step_dma.pool;
        Ok(cycles)
    }

    /// Executes one accelerator layer: the DORY tile loop with DMA, weight
    /// staging and compute costs, accumulating functionally per tile.
    fn exec_accel(
        &self,
        step_idx: usize,
        engine: EngineKind,
        desc: &AccelLayerDesc,
        input: &Tensor,
        input2: Option<&Tensor>,
        faults: &mut FaultCtx,
    ) -> Result<(Tensor, LayerProfile), RunError> {
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
        let mut cycles = self
            .replay_timing(engine, &step_dma, faults)
            .map_err(|abort| RunError::DmaFailed {
                layer_index: step_idx,
                layer: desc.name.clone(),
                engine,
                transfer: abort.transfer,
                attempts: abort.attempts,
            })?;
        // Collect this layer's injected stalls/retries (includes any L1
        // denial backoff charged before dispatch).
        let (stall, retries) = faults.take_layer_faults();
        cycles.stall += stall;

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
            retries,
        };
        Ok((out, profile))
    }

    /// Graceful degradation: executes an accelerator step on the host,
    /// through the graph derived from its descriptor, because its engine
    /// is offline. The host only learns the engine is gone by timing out
    /// the kernel call, so the degraded layer is charged the full
    /// fault-free accelerator cost as stall before the CPU cost — a
    /// faulted run is never cheaper than the fault-free one. The fallback
    /// graph reproduces the accelerator's fused output path (including
    /// the analog DAC clamp) bit for bit.
    fn exec_fallback(
        &self,
        step_idx: usize,
        engine: EngineKind,
        desc: &AccelLayerDesc,
        (input, input2): (&Tensor, Option<&Tensor>),
        faults: &mut FaultCtx,
    ) -> Result<(Tensor, LayerProfile), RunError> {
        let graph = cpu_fallback(desc).ok_or_else(|| RunError::EngineUnavailable {
            layer_index: step_idx,
            layer: desc.name.clone(),
            engine,
        })?;
        let name = format!("{}_cpu_fallback", desc.name);
        let step_dma = linearize_step(&self.cfg, engine, desc);
        let timeout = self
            .replay_timing(engine, &step_dma, &mut FaultCtx::inert())
            .expect("inert fault context cannot abort")
            .total();

        // Mirror the analog input DAC clamp so the fallback sees exactly
        // the bits the accelerator would have.
        let input = self.dac_clamp(engine, input);
        let input2 = input2.map(|t| self.dac_clamp(engine, t));
        let args: Vec<&Tensor> = std::iter::once(&*input).chain(input2.as_deref()).collect();
        let mut out = kernels::evaluate_refs(&graph, &args).map_err(|e| RunError::Eval {
            layer_index: step_idx,
            layer: name.clone(),
            source: e,
        })?;
        let compute = cpu::cpu_graph_cycles(&self.cfg.cpu, &graph);
        faults.counters.engine_fallbacks += 1;
        let (extra_stall, retries) = faults.take_layer_faults();
        let profile = LayerProfile {
            name,
            engine: EngineKind::Cpu,
            cycles: CycleBreakdown {
                compute,
                stall: timeout + extra_stall,
                ..CycleBreakdown::default()
            },
            macs: desc.geom.macs(),
            n_tiles: 1,
            retries,
        };
        Ok((out.remove(0), profile))
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
    fn empty_fault_plan_reproduces_run_exactly() {
        // The zero-cost-when-unused guarantee: an inert fault context must
        // not perturb a single cycle anywhere in the timing model.
        let geom = LayerGeometry::conv2d(4, 6, 8, 8, 3, 3, (1, 1), (1, 1, 1, 1));
        for tile in [
            TileConfig::full(&geom),
            TileConfig {
                c_t: 2,
                k_t: 3,
                oy_t: 4,
                ox_t: 8,
            },
        ] {
            let (program, input, _) = conv_program(tile, EngineKind::Digital);
            let m = Machine::new(DianaConfig::default());
            let plain = m.run(&program, std::slice::from_ref(&input)).unwrap();
            let faulted = m
                .run_with_faults(&program, &[input], &crate::FaultPlan::none())
                .unwrap();
            assert_eq!(plain, faulted);
            assert!(!faulted.counters.any_faults());
        }
    }

    #[test]
    fn dma_stall_adds_cycles_but_not_bits() {
        let geom = LayerGeometry::conv2d(4, 6, 8, 8, 3, 3, (1, 1), (1, 1, 1, 1));
        let (program, input, reference) =
            conv_program(TileConfig::full(&geom), EngineKind::Digital);
        let m = Machine::new(DianaConfig::default());
        let clean = m.run(&program, std::slice::from_ref(&input)).unwrap();
        let plan = crate::FaultPlan::none().with_event(crate::FaultEvent::DmaStall {
            transfer: 0,
            cycles: 777,
        });
        let faulted = m.run_with_faults(&program, &[input], &plan).unwrap();
        assert_eq!(faulted.outputs[0], reference);
        assert_eq!(faulted.layers[0].cycles.stall, 777);
        assert_eq!(faulted.total_cycles(), clean.total_cycles() + 777);
        assert_eq!(faulted.counters.dma_stall_cycles, 777);
        assert_eq!(faulted.layers[0].retries, 0);
        // The stall is visible in the chrome trace on the faults row.
        let trace = faulted.to_chrome_trace();
        assert!(trace.contains("\"faults\""));
        assert!(trace.contains("stall:conv"));
    }

    #[test]
    fn dma_stall_survives_double_buffering() {
        // Double-buffering hides nominal DMA behind compute; injected
        // stalls live in their own bucket and must remain fully exposed.
        let tile = TileConfig {
            c_t: 4,
            k_t: 6,
            oy_t: 2,
            ox_t: 8,
        };
        let (program, input, _) = conv_program(tile, EngineKind::Digital);
        let mut cfg = DianaConfig::default();
        cfg.dma.double_buffer = true;
        let m = Machine::new(cfg);
        let clean = m.run(&program, std::slice::from_ref(&input)).unwrap();
        let plan = crate::FaultPlan::none().with_event(crate::FaultEvent::DmaStall {
            transfer: 1,
            cycles: 123_456,
        });
        let faulted = m.run_with_faults(&program, &[input], &plan).unwrap();
        assert_eq!(
            faulted.total_cycles(),
            clean.total_cycles() + 123_456,
            "the stall must not be absorbed by DMA/compute overlap"
        );
    }

    #[test]
    fn dma_failures_retry_with_backoff_then_abort() {
        let geom = LayerGeometry::conv2d(4, 6, 8, 8, 3, 3, (1, 1), (1, 1, 1, 1));
        let (program, input, reference) =
            conv_program(TileConfig::full(&geom), EngineKind::Digital);
        let m = Machine::new(DianaConfig::default());

        // Within the retry budget: recovered, accounted, bit-exact.
        let plan = crate::FaultPlan::none().with_event(crate::FaultEvent::DmaFail {
            transfer: 0,
            attempts: 2,
        });
        let clean = m.run(&program, std::slice::from_ref(&input)).unwrap();
        let faulted = m
            .run_with_faults(&program, std::slice::from_ref(&input), &plan)
            .unwrap();
        assert_eq!(faulted.outputs[0], reference);
        assert_eq!(faulted.layers[0].retries, 2);
        assert_eq!(faulted.counters.dma_retries, 2);
        assert!(faulted.counters.dma_stall_cycles > 0);
        assert!(faulted.total_cycles() > clean.total_cycles());

        // Beyond the budget: a structured abort naming layer and engine.
        let plan = crate::FaultPlan::none().with_event(crate::FaultEvent::DmaFail {
            transfer: 0,
            attempts: 99,
        });
        let err = m.run_with_faults(&program, &[input], &plan).unwrap_err();
        assert_eq!(err.layer_index(), Some(0));
        assert_eq!(err.engine(), Some(EngineKind::Digital));
        match err {
            RunError::DmaFailed {
                layer_index,
                layer,
                engine,
                transfer,
                attempts,
            } => {
                assert_eq!(layer_index, 0);
                assert_eq!(layer, "conv");
                assert_eq!(engine, EngineKind::Digital);
                assert_eq!(transfer, 0);
                assert_eq!(attempts, 99);
            }
            other => panic!("expected DmaFailed, got {other:?}"),
        }
    }

    #[test]
    fn l1_denials_wait_out_backoff_then_abort() {
        let geom = LayerGeometry::conv2d(4, 6, 8, 8, 3, 3, (1, 1), (1, 1, 1, 1));
        let (program, input, reference) =
            conv_program(TileConfig::full(&geom), EngineKind::Digital);
        let m = Machine::new(DianaConfig::default());
        let plan = crate::FaultPlan::none().with_event(crate::FaultEvent::L1Deny {
            layer: 0,
            attempts: 2,
        });
        let clean = m.run(&program, std::slice::from_ref(&input)).unwrap();
        let faulted = m
            .run_with_faults(&program, std::slice::from_ref(&input), &plan)
            .unwrap();
        assert_eq!(faulted.outputs[0], reference);
        // Backoff waits: 64 + 128 with the default policy.
        let expected = {
            let retry = crate::RetryPolicy::default();
            retry.backoff_cycles(1) + retry.backoff_cycles(2)
        };
        assert_eq!(faulted.layers[0].cycles.stall, expected);
        assert_eq!(faulted.counters.l1_stall_cycles, expected);
        assert_eq!(faulted.counters.l1_retries, 2);
        assert_eq!(faulted.total_cycles(), clean.total_cycles() + expected);

        let plan = crate::FaultPlan::none().with_event(crate::FaultEvent::L1Deny {
            layer: 0,
            attempts: 50,
        });
        let err = m.run_with_faults(&program, &[input], &plan).unwrap_err();
        assert!(matches!(
            err,
            RunError::L1Denied {
                layer_index: 0,
                attempts: 50,
                ..
            }
        ));
    }

    #[test]
    fn engine_off_without_fallback_is_a_structured_error() {
        // A conv descriptor without weights has no host form to degrade to.
        let geom = LayerGeometry::conv2d(4, 6, 8, 8, 3, 3, (1, 1), (1, 1, 1, 1));
        let (mut program, input, _) = conv_program(TileConfig::full(&geom), EngineKind::Digital);
        let Step::Accel { desc, .. } = &mut program.steps[0] else {
            panic!("conv_program starts with an accel step");
        };
        desc.weights = None;
        let m = Machine::new(DianaConfig::default());
        let plan = crate::FaultPlan::none().with_event(crate::FaultEvent::EngineOffline {
            engine: EngineKind::Digital,
            layer: 0,
        });
        let err = m.run_with_faults(&program, &[input], &plan).unwrap_err();
        assert_eq!(err.layer_index(), Some(0));
        assert_eq!(err.engine(), Some(EngineKind::Digital));
        match err {
            RunError::EngineUnavailable {
                layer_index,
                layer,
                engine,
            } => {
                assert_eq!(layer_index, 0);
                assert_eq!(layer, "conv");
                assert_eq!(engine, EngineKind::Digital);
            }
            other => panic!("expected EngineUnavailable, got {other:?}"),
        }
    }

    #[test]
    fn engine_off_with_fallback_degrades_bit_exactly() {
        let geom = LayerGeometry::conv2d(4, 6, 8, 8, 3, 3, (1, 1), (1, 1, 1, 1));
        let (program, input, reference) =
            conv_program(TileConfig::full(&geom), EngineKind::Digital);
        let m = Machine::new(DianaConfig::default());
        let clean = m.run(&program, std::slice::from_ref(&input)).unwrap();
        let plan = crate::FaultPlan::none().with_event(crate::FaultEvent::EngineOffline {
            engine: EngineKind::Digital,
            layer: 0,
        });
        let faulted = m.run_with_faults(&program, &[input], &plan).unwrap();
        assert_eq!(faulted.outputs[0], reference, "fallback must be bit-exact");
        assert_eq!(faulted.layers[0].engine, EngineKind::Cpu);
        assert_eq!(faulted.counters.engine_fallbacks, 1);
        // Timeout charge: the degraded layer pays the full fault-free
        // accelerator cost as stall, plus the CPU compute on top.
        assert_eq!(faulted.layers[0].cycles.stall, clean.total_cycles());
        assert!(faulted.total_cycles() > clean.total_cycles());
    }

    #[test]
    fn offline_engine_leaves_other_engine_untouched() {
        // Taking the analog engine offline must not affect a digital
        // program: no fallback taken, cycles identical.
        let geom = LayerGeometry::conv2d(4, 6, 8, 8, 3, 3, (1, 1), (1, 1, 1, 1));
        let (program, input, _) = conv_program(TileConfig::full(&geom), EngineKind::Digital);
        let m = Machine::new(DianaConfig::default());
        let clean = m.run(&program, std::slice::from_ref(&input)).unwrap();
        let plan = crate::FaultPlan::none().with_event(crate::FaultEvent::EngineOffline {
            engine: EngineKind::Analog,
            layer: 0,
        });
        let faulted = m.run_with_faults(&program, &[input], &plan).unwrap();
        assert_eq!(clean, faulted);
    }

    #[test]
    fn analog_fallback_replicates_dac_clamp() {
        let geom = LayerGeometry::conv2d(4, 6, 8, 8, 3, 3, (1, 1), (1, 1, 1, 1));
        let (program, _, _) = conv_program(TileConfig::full(&geom), EngineKind::Analog);
        let mut cfg = DianaConfig::default();
        cfg.analog.clamp_inputs_7bit = true;
        let m = Machine::new(cfg);
        // Inputs beyond the 7-bit DAC range exercise the clamp.
        let mut input = Tensor::zeros(DType::I8, &[4, 8, 8]);
        for (i, v) in input.data_mut().iter_mut().enumerate() {
            *v = if i % 2 == 0 { 100 } else { -100 };
        }
        let clean = m.run(&program, std::slice::from_ref(&input)).unwrap();
        let plan = crate::FaultPlan::none().with_event(crate::FaultEvent::EngineOffline {
            engine: EngineKind::Analog,
            layer: 0,
        });
        let faulted = m.run_with_faults(&program, &[input], &plan).unwrap();
        assert_eq!(
            clean.outputs, faulted.outputs,
            "fallback must clamp like the analog input DAC"
        );
        assert_eq!(faulted.counters.engine_fallbacks, 1);
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
    fn fallback_timeout_priced_from_descriptors_matches_interpreter() {
        // The engine-off timeout is the tiled step's fault-free cost, with
        // and without double-buffering, and the degraded output is
        // bit-exact with the reference kernels.
        let tile = TileConfig {
            c_t: 2,
            k_t: 3,
            oy_t: 4,
            ox_t: 8,
        };
        let mut overlapped = DianaConfig::default();
        overlapped.dma.double_buffer = true;
        let offline = crate::FaultPlan::none().with_event(crate::FaultEvent::EngineOffline {
            engine: EngineKind::Digital,
            layer: 0,
        });
        for cfg in [DianaConfig::default(), overlapped] {
            let (program, input, reference) = conv_program(tile, EngineKind::Digital);
            let m = Machine::new(cfg);
            let clean = m.run(&program, std::slice::from_ref(&input)).unwrap();
            let degraded = m.run_with_faults(&program, &[input], &offline).unwrap();
            assert_eq!(degraded.outputs[0], reference);
            assert_eq!(degraded.layers[0].cycles.stall, clean.total_cycles());
        }
    }

    #[test]
    fn forged_dma_table_cannot_change_a_run() {
        // The machine never reads `Program::dma`: a table for another
        // platform, a stale tile count, arbitrary descriptors under this
        // platform's own digest, or an entry at a CPU step all run exactly
        // like the same program with an empty table, faults included.
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
        let mut foreign_cfg = cfg;
        foreign_cfg.dma.setup_cycles = 77;
        let table = |cfg: &DianaConfig, step: usize, entry: StepDma| {
            let mut t = DmaTable::new(cfg);
            t.insert(step, entry);
            t
        };
        let forgeries = [
            (
                "foreign digest",
                table(
                    &foreign_cfg,
                    0,
                    crate::linearize_step(&foreign_cfg, EngineKind::Digital, desc),
                ),
            ),
            (
                "stale tile count",
                table(
                    &cfg,
                    0,
                    StepDma {
                        n_tiles: honest.n_tiles + 1,
                        ..honest.clone()
                    },
                ),
            ),
            ("arbitrary descriptors", table(&cfg, 0, junk.clone())),
            ("entry at a CPU step", table(&cfg, 1, junk)),
        ];

        let m = Machine::new(cfg);
        let stall = crate::FaultPlan::none().with_event(crate::FaultEvent::DmaStall {
            transfer: 1,
            cycles: 500,
        });
        let offline = crate::FaultPlan::none().with_event(crate::FaultEvent::EngineOffline {
            engine: EngineKind::Digital,
            layer: 0,
        });
        for plan in [crate::FaultPlan::none(), stall, offline] {
            let expected = m
                .run_with_faults(&program, std::slice::from_ref(&input), &plan)
                .unwrap();
            for (what, dma) in &forgeries {
                let mut forged = program.clone();
                forged.dma = dma.clone();
                let got = m
                    .run_with_faults(&forged, std::slice::from_ref(&input), &plan)
                    .unwrap();
                assert_eq!(got, expected, "{what} under {plan:?}");
            }
        }
    }
}
