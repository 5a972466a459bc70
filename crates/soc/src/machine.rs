//! The program executor: functional semantics + cycle accounting.

use crate::dma_program::{self, DmaDir, DmaTable, StepDma};
use crate::faults::{DmaAbort, FaultCtx};
use crate::{
    cpu, cpu_fallback, AccelLayerDesc, BufferId, CycleBreakdown, DianaConfig, EngineKind,
    FaultPlan, LayerProfile, Program, RunReport, Step,
};
use htvm_dory::{tiles, LayerKind, TileInstance};
use htvm_ir::{DType, Tensor};
use htvm_kernels as kernels;
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
    /// The run blew through its cycle deadline ([`Machine::run_bounded`]):
    /// the simulated clock passed the budget before the program finished.
    /// Deterministic — a deadline is a property of the program and budget,
    /// not of host scheduling — so a job that exceeds it once exceeds it
    /// every time.
    DeadlineExceeded {
        /// Step index at which the budget was exceeded.
        layer_index: usize,
        /// The layer whose completion crossed the deadline.
        layer: String,
        /// Simulated cycles elapsed through that layer.
        elapsed_cycles: u64,
        /// The budget that was exceeded.
        budget_cycles: u64,
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
            RunError::DeadlineExceeded {
                layer_index,
                layer,
                elapsed_cycles,
                budget_cycles,
            } => write!(
                f,
                "step {layer_index} ('{layer}'): {elapsed_cycles} simulated cycles exceed the {budget_cycles} cycle deadline"
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
            | RunError::L1Denied { layer_index, .. }
            | RunError::DeadlineExceeded { layer_index, .. } => Some(*layer_index),
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
    /// [`dma_program::platform_digest`] of `cfg`, memoized at construction
    /// so per-run DMA-table matching never re-serializes the config.
    cfg_digest: u64,
}

impl Machine {
    /// Creates a machine with the given platform configuration.
    #[must_use]
    pub fn new(cfg: DianaConfig) -> Self {
        Machine {
            cfg_digest: dma_program::platform_digest(&cfg),
            cfg,
        }
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
        self.run_bounded(program, inputs, plan, None)
    }

    /// [`Machine::run_with_faults`] under a *simulated-cycle* deadline.
    ///
    /// A serving worker cannot afford a runaway job, but a wall-clock
    /// timeout would make results depend on host load. The budget is
    /// measured on the simulated clock instead: after each layer
    /// completes, the cycles elapsed so far (fault stalls included) are
    /// checked against `cycle_budget`, and the run aborts with
    /// [`RunError::DeadlineExceeded`] once they pass it. Same program,
    /// same inputs, same plan, same budget → same outcome, on any host.
    /// `None` means unbounded and reproduces [`Machine::run_with_faults`]
    /// exactly.
    ///
    /// # Errors
    ///
    /// Everything [`Machine::run_with_faults`] returns, plus
    /// [`RunError::DeadlineExceeded`] when the budget is exhausted.
    pub fn run_bounded(
        &self,
        program: &Program,
        inputs: &[Tensor],
        plan: &FaultPlan,
        cycle_budget: Option<u64>,
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
        let mut elapsed_cycles: u64 = 0;
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
                        self.exec_fallback(
                            step_idx,
                            *engine,
                            desc,
                            (a, b),
                            &program.dma,
                            &mut faults,
                        )?
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
                        self.exec_accel(step_idx, *engine, desc, a, b, &program.dma, &mut faults)?
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
            elapsed_cycles += profile.cycles.total();
            if let Some(budget) = cycle_budget {
                if elapsed_cycles > budget {
                    return Err(RunError::DeadlineExceeded {
                        layer_index: step_idx,
                        layer: profile.name.clone(),
                        elapsed_cycles,
                        budget_cycles: budget,
                    });
                }
            }
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

    /// Prices one accelerator step from its DMA descriptor program: the
    /// artifact's table entry when it was linearized for this exact
    /// platform and still describes the step's tile loop, otherwise one
    /// linearized on the spot for this machine's configuration. A foreign
    /// digest or a stale tile count can therefore never perturb a cycle.
    fn step_timing(
        &self,
        table: &DmaTable,
        step_idx: usize,
        engine: EngineKind,
        desc: &AccelLayerDesc,
        instances: &[TileInstance],
        faults: &mut FaultCtx,
    ) -> Result<CycleBreakdown, DmaAbort> {
        let stored = table.get(step_idx).filter(|p| {
            table.matches_digest(self.cfg_digest) && p.n_tiles == instances.len() as u64
        });
        match stored {
            Some(p) => self.replay_timing(engine, p, faults),
            None => {
                let p = dma_program::linearize_tiles(&self.cfg, engine, desc, instances);
                self.replay_timing(engine, &p, faults)
            }
        }
    }

    /// The temporal model of one accelerator layer: its [`StepDma`]
    /// descriptor program replayed against this platform's cost constants.
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
        let mut cycles = CycleBreakdown::default();
        let (kernel_call, tile_overhead) = match engine {
            EngineKind::Digital => (
                self.cfg.digital.kernel_call_overhead,
                self.cfg.digital.tile_overhead,
            ),
            EngineKind::Analog => (
                self.cfg.analog.kernel_call_overhead,
                self.cfg.analog.tile_overhead,
            ),
            EngineKind::Cpu => unreachable!("accel steps never target the cpu"),
        };
        cycles.overhead = kernel_call + tile_overhead * step_dma.n_tiles;
        for d in &step_dma.descriptors {
            let cost = dma_program::descriptor_cycles(&self.cfg, d);
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
    #[allow(clippy::too_many_arguments)]
    fn exec_accel(
        &self,
        step_idx: usize,
        engine: EngineKind,
        desc: &AccelLayerDesc,
        input: &Tensor,
        input2: Option<&Tensor>,
        dma: &DmaTable,
        faults: &mut FaultCtx,
    ) -> Result<(Tensor, LayerProfile), RunError> {
        let geom = &desc.geom;
        // Optional 7-bit DAC clamp on the analog input path.
        let clamped;
        let (input, input2) = if engine == EngineKind::Analog && self.cfg.analog.clamp_inputs_7bit {
            clamped = (
                kernels::clip(input, -63, 63),
                input2.map(|t| kernels::clip(t, -63, 63)),
            );
            (&clamped.0, clamped.1.as_ref())
        } else {
            (input, input2)
        };
        let out_shape: Vec<usize> = match geom.kind {
            LayerKind::Dense => vec![geom.k],
            // Matmul keeps the batched [H, M, N] layout of its operands.
            LayerKind::MatMul => vec![geom.ox(), geom.oy(), geom.k],
            _ => vec![geom.k, geom.oy(), geom.ox()],
        };
        let mut acc = Tensor::zeros(DType::I32, &out_shape);

        let instances = tiles(geom, &desc.tile);
        let mut cycles = self
            .step_timing(dma, step_idx, engine, desc, &instances, faults)
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
        dma: &DmaTable,
        faults: &mut FaultCtx,
    ) -> Result<(Tensor, LayerProfile), RunError> {
        let graph = cpu_fallback(desc).ok_or_else(|| RunError::EngineUnavailable {
            layer_index: step_idx,
            layer: desc.name.clone(),
            engine,
        })?;
        let name = format!("{}_cpu_fallback", desc.name);
        let instances = tiles(&desc.geom, &desc.tile);
        let mut inert = FaultCtx::inert();
        let timeout = self
            .step_timing(dma, step_idx, engine, desc, &instances, &mut inert)
            .expect("inert fault context cannot abort")
            .total();

        // Mirror the analog input DAC clamp so the fallback sees exactly
        // the bits the accelerator would have.
        let clamped;
        let (input, input2) = if engine == EngineKind::Analog && self.cfg.analog.clamp_inputs_7bit {
            clamped = (
                kernels::clip(input, -63, 63),
                input2.map(|t| kernels::clip(t, -63, 63)),
            );
            (&clamped.0, clamped.1.as_ref())
        } else {
            (input, input2)
        };
        let args: Vec<&Tensor> = std::iter::once(input).chain(input2).collect();
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
    fn run_bounded_deadline_is_deterministic_and_unbounded_matches_run() {
        let geom = LayerGeometry::conv2d(4, 6, 8, 8, 3, 3, (1, 1), (1, 1, 1, 1));
        let (program, input, _) = conv_program(TileConfig::full(&geom), EngineKind::Digital);
        let m = Machine::new(DianaConfig::default());
        let plan = crate::FaultPlan::none();
        let plain = m.run(&program, std::slice::from_ref(&input)).unwrap();
        let total = plain.total_cycles();
        // Unbounded and exactly-at-the-edge budgets both complete.
        let unbounded = m
            .run_bounded(&program, std::slice::from_ref(&input), &plan, None)
            .unwrap();
        assert_eq!(plain, unbounded);
        let exact = m
            .run_bounded(&program, std::slice::from_ref(&input), &plan, Some(total))
            .unwrap();
        assert_eq!(plain, exact);
        // One cycle short fails — deterministically, with structured fields.
        for _ in 0..2 {
            let err = m
                .run_bounded(
                    &program,
                    std::slice::from_ref(&input),
                    &plan,
                    Some(total - 1),
                )
                .unwrap_err();
            match &err {
                RunError::DeadlineExceeded {
                    layer_index,
                    elapsed_cycles,
                    budget_cycles,
                    ..
                } => {
                    assert_eq!(*layer_index, program.steps.len() - 1);
                    assert_eq!(*elapsed_cycles, total);
                    assert_eq!(*budget_cycles, total - 1);
                }
                other => panic!("expected DeadlineExceeded, got {other}"),
            }
            assert_eq!(err.layer_index(), Some(program.steps.len() - 1));
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

    /// Attaches a freshly linearized DMA descriptor table (for `cfg`) to
    /// every accelerator step of the program.
    fn with_dma_table(mut program: Program, cfg: &DianaConfig) -> Program {
        let mut table = crate::DmaTable::new(cfg);
        for (idx, step) in program.steps.iter().enumerate() {
            if let Step::Accel { engine, desc, .. } = step {
                table.insert(idx, crate::linearize_step(cfg, *engine, desc));
            }
        }
        program.dma = table;
        program
    }

    // The differential tests below compare a program carrying a stored
    // table (`replay`) with the same program without one (`interp`), whose
    // steps the machine linearizes on demand: stored table ≡ on-demand
    // linearization is what protects a deserialized artifact.
    #[test]
    fn descriptor_replay_is_cycle_and_bit_exact() {
        let geom = LayerGeometry::conv2d(4, 6, 8, 8, 3, 3, (1, 1), (1, 1, 1, 1));
        let mut serial = DianaConfig::default();
        let mut overlapped = DianaConfig::default();
        overlapped.dma.double_buffer = true;
        serial.analog.clamp_inputs_7bit = false;
        for cfg in [serial, overlapped] {
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
                    let replayed = with_dma_table(program.clone(), &cfg);
                    let m = Machine::new(cfg);
                    let interp = m.run(&program, std::slice::from_ref(&input)).unwrap();
                    let replay = m.run(&replayed, std::slice::from_ref(&input)).unwrap();
                    assert_eq!(
                        interp, replay,
                        "replay must be bit- and cycle-exact ({engine} {tile:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn table_less_cycle_breakdowns_are_frozen() {
        // The 12 cells of `descriptor_replay_is_cycle_and_bit_exact`, run
        // without a table, as recorded from the hand-written tile-loop
        // interpreter before it was deleted: (compute, dma, weight_load,
        // overhead), in loop order.
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
    fn replay_preserves_fault_transaction_order() {
        // Faults are addressed by global DMA transaction index; a stored
        // table must issue transactions in the exact order of one
        // linearized on demand — zero-byte output stores included — or
        // plans would hit different transfers.
        let tile = TileConfig {
            c_t: 2,
            k_t: 3,
            oy_t: 4,
            ox_t: 8,
        };
        let cfg = DianaConfig::default();
        let (program, input, _) = conv_program(tile, EngineKind::Digital);
        let replayed = with_dma_table(program.clone(), &cfg);
        let m = Machine::new(cfg);
        let n_transfers = replayed.dma.get(0).unwrap().descriptors.len() as u64;
        assert!(n_transfers > 3);
        for transfer in 0..n_transfers {
            let plan = crate::FaultPlan::none().with_event(crate::FaultEvent::DmaStall {
                transfer,
                cycles: 999,
            });
            let interp = m
                .run_with_faults(&program, std::slice::from_ref(&input), &plan)
                .unwrap();
            let replay = m
                .run_with_faults(&replayed, std::slice::from_ref(&input), &plan)
                .unwrap();
            assert_eq!(interp, replay, "stall at transfer {transfer}");
        }
        // Retry-exhaustion aborts identify the same failing transfer.
        let plan = crate::FaultPlan::none().with_event(crate::FaultEvent::DmaFail {
            transfer: 1,
            attempts: 99,
        });
        let ei = m
            .run_with_faults(&program, std::slice::from_ref(&input), &plan)
            .unwrap_err();
        let er = m.run_with_faults(&replayed, &[input], &plan).unwrap_err();
        match (ei, er) {
            (
                RunError::DmaFailed {
                    transfer: ti,
                    attempts: ai,
                    ..
                },
                RunError::DmaFailed {
                    transfer: tr,
                    attempts: ar,
                    ..
                },
            ) => {
                assert_eq!(ti, tr);
                assert_eq!(ai, ar);
            }
            other => panic!("expected DmaFailed on both paths, got {other:?}"),
        }
    }

    #[test]
    fn foreign_platform_digest_falls_back_to_interpretation() {
        // A table linearized for the default platform must be ignored on
        // a machine with different cost constants: the run still succeeds
        // and prices exactly like the table-free program, whose steps the
        // machine linearizes for its own configuration.
        let tile = TileConfig {
            c_t: 2,
            k_t: 3,
            oy_t: 4,
            ox_t: 8,
        };
        let (program, input, _) = conv_program(tile, EngineKind::Digital);
        let replayed = with_dma_table(program.clone(), &DianaConfig::default());
        let mut other = DianaConfig::default();
        other.dma.setup_cycles = 77;
        other.digital.tile_overhead = 111;
        let m = Machine::new(other);
        let interp = m.run(&program, std::slice::from_ref(&input)).unwrap();
        let replay = m.run(&replayed, std::slice::from_ref(&input)).unwrap();
        assert_eq!(interp, replay, "stale tables must not perturb a cycle");
    }

    #[test]
    fn fallback_timeout_priced_from_descriptors_matches_interpreter() {
        let geom = LayerGeometry::conv2d(4, 6, 8, 8, 3, 3, (1, 1), (1, 1, 1, 1));
        let cfg = DianaConfig::default();
        let (program, input, reference) =
            conv_program(TileConfig::full(&geom), EngineKind::Digital);
        let replayed = with_dma_table(program.clone(), &cfg);
        let m = Machine::new(cfg);
        let plan = crate::FaultPlan::none().with_event(crate::FaultEvent::EngineOffline {
            engine: EngineKind::Digital,
            layer: 0,
        });
        let interp = m
            .run_with_faults(&program, std::slice::from_ref(&input), &plan)
            .unwrap();
        let replay = m.run_with_faults(&replayed, &[input], &plan).unwrap();
        assert_eq!(interp.outputs[0], reference);
        assert_eq!(interp, replay, "degraded-path timeout must price equally");
    }

    #[test]
    fn stale_tile_count_is_ignored_on_both_paths() {
        // An entry whose tile count disagrees with the step's tile loop
        // does not describe this program: neither the run nor the
        // engine-off timeout may be priced from it.
        let tile = TileConfig {
            c_t: 2,
            k_t: 3,
            oy_t: 4,
            ox_t: 8,
        };
        let cfg = DianaConfig::default();
        let (program, input, _) = conv_program(tile, EngineKind::Digital);
        let clean = with_dma_table(program, &cfg);
        let mut stale = clean.clone();
        let mut entry = stale.dma.get(0).unwrap().clone();
        entry.n_tiles += 1;
        stale.dma.insert(0, entry);
        let m = Machine::new(cfg);
        let offline = crate::FaultPlan::none().with_event(crate::FaultEvent::EngineOffline {
            engine: EngineKind::Digital,
            layer: 0,
        });
        for plan in [crate::FaultPlan::none(), offline] {
            let expected = m
                .run_with_faults(&clean, std::slice::from_ref(&input), &plan)
                .unwrap();
            let got = m
                .run_with_faults(&stale, std::slice::from_ref(&input), &plan)
                .unwrap();
            assert_eq!(expected, got, "{plan:?}");
        }
    }
}
