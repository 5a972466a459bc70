//! The main lowering pass: partitioned graph → device program.
//!
//! Lowering runs in two phases on the calling thread. The **solve phase**
//! extracts every accelerator region and runs the DORY tiling solver for
//! it — each region's solve is a pure function of `(geometry, budget,
//! objective)`, so it consults the optional [`TileCache`]. The **emit
//! phase** then walks the execution units in their fixed topological
//! order, declaring buffers, emitting steps and planning the L2 schedule
//! from the pre-computed solutions. A model's solves together cost less
//! than spawning threads to split them, so nothing here fans out;
//! parallelism lives one level up, in `htvm-serve`'s worker pool.

use crate::artifact::accel_step_name;
use crate::binsize::{binary_size, BinarySizeModel};
use crate::{extract, fuse_cpu_nodes, Artifact, CompileStats, ExtractedLayer, LowerError};
use htvm_dory::memplan::{plan, BufferReq, OutOfMemory};
use htvm_dory::{solve, ArrayDims, MemoryBudget, TileCache, TileSolution, TilingObjective};
use htvm_ir::{Graph, GraphBuilder, NodeId, NodeKind};
use htvm_pattern::{PartitionedGraph, Region};
use htvm_soc::{
    linearize_step, AccelLayerDesc, BufferDecl, BufferId, BufferKind, DianaConfig, DmaTable,
    EngineKind, Program, Step,
};
use htvm_trace::{tracks, Span, Tracer};
use std::collections::HashMap;
use std::time::Instant;

/// Knobs for lowering.
#[derive(Debug, Clone)]
pub struct LowerOptions {
    /// Tiling objective for digital-engine regions (Eq. 3–5 by default).
    pub digital_objective: TilingObjective,
    /// Tiling objective for analog-engine regions.
    pub analog_objective: TilingObjective,
    /// Use the plain-TVM allocation discipline: one L2 range per
    /// intermediate, no lifetime reuse. This is the baseline whose
    /// MobileNet deployment runs out of memory in Table I.
    pub naive_l2: bool,
    /// Memo table for tiling solves, shared across regions (and, via
    /// [`Compiler`], across compiles). `None` solves every region
    /// directly.
    ///
    /// [`Compiler`]: ../htvm/struct.Compiler.html
    pub tile_cache: Option<TileCache>,
    /// Layers already extracted upstream (the dispatch hook extracts to
    /// see geometries), keyed by match root. Regions found here skip
    /// re-extraction in the solve phase.
    pub extracted: HashMap<NodeId, ExtractedLayer>,
    /// Span collector for compile-phase observability (see
    /// `docs/OBSERVABILITY.md`). Disabled by default; when enabled,
    /// lowering records a phase span for the solve, emit and L2-planning
    /// stages, one span per region solve, and a `tile_cache` counter
    /// snapshot. Tracing only observes: the produced artifact is
    /// byte-identical either way.
    pub tracer: Tracer,
}

impl Default for LowerOptions {
    fn default() -> Self {
        LowerOptions {
            digital_objective: TilingObjective::diana_digital(),
            analog_objective: TilingObjective::diana_analog(),
            naive_l2: false,
            tile_cache: None,
            extracted: HashMap::new(),
            tracer: Tracer::disabled(),
        }
    }
}

enum Unit {
    Region(usize),
    Cpu(Vec<NodeId>),
}

/// One region's solve-phase output, consumed once by the emit phase.
struct RegionSolve {
    layer: ExtractedLayer,
    solution: TileSolution,
    cache_hit: bool,
}

/// The L1 constraints a layer on `engine` is tiled against (`None` for
/// the CPU, which does not tile). DORY's double-buffering holds two tiles
/// per operand in flight, so the solver sees half the physical
/// scratchpad when overlap is on. Dispatch and lowering both ask here, so
/// a layer dispatch accepts is a layer lowering can tile.
#[must_use]
pub fn engine_budget(cfg: &DianaConfig, engine: EngineKind) -> Option<MemoryBudget> {
    let act_bytes = if cfg.dma.double_buffer {
        cfg.l1_act_bytes / 2
    } else {
        cfg.l1_act_bytes
    };
    match engine {
        EngineKind::Digital => Some(MemoryBudget {
            act_bytes,
            weight_bytes: Some(cfg.digital.weight_bytes),
            array: None,
        }),
        EngineKind::Analog => Some(MemoryBudget {
            act_bytes,
            weight_bytes: None,
            array: Some(ArrayDims {
                rows: cfg.analog.rows,
                cols: cfg.analog.cols,
            }),
        }),
        EngineKind::Cpu => None,
    }
}

/// Lowers a partitioned graph into a runnable [`Artifact`] for the DIANA
/// configuration `cfg`.
///
/// # Errors
///
/// Returns [`LowerError`] when a region cannot be normalized or tiled,
/// when the graph uses unsupported constructs, or when the L2 activation
/// schedule exceeds main memory.
pub fn lower(
    graph: &Graph,
    part: &PartitionedGraph<EngineKind>,
    cfg: &DianaConfig,
    opts: &LowerOptions,
) -> Result<Artifact, LowerError> {
    // ---- Collect execution units (regions + fused CPU groups) ----
    let cpu_groups = fuse_cpu_nodes(graph, &part.cpu_nodes(graph));
    let mut units: Vec<(NodeId, Unit)> = part
        .regions
        .iter()
        .enumerate()
        .map(|(i, r)| (r.m.root, Unit::Region(i)))
        .collect();
    units.extend(cpu_groups.into_iter().map(|g| {
        let tail = *g.last().expect("fused groups are non-empty");
        (tail, Unit::Cpu(g))
    }));
    // Unit output ids form a topological order of the unit DAG.
    units.sort_by_key(|(id, _)| *id);

    // ---- Declare buffers ----
    let mut buffers: Vec<BufferDecl> = Vec::new();
    let mut buffer_of: HashMap<NodeId, BufferId> = HashMap::new();
    let declare = |node_id: NodeId, kind: BufferKind, buffers: &mut Vec<BufferDecl>| {
        let node = graph.node(node_id);
        let id = BufferId(buffers.len());
        buffers.push(BufferDecl {
            id,
            name: node.name.clone(),
            shape: node.shape.clone(),
            dtype: node.dtype,
            offset: 0,
            size: node.dtype.storage_bytes(node.shape.num_elements()),
            kind,
        });
        id
    };
    for &input in graph.inputs() {
        let id = declare(input, BufferKind::Input, &mut buffers);
        buffer_of.insert(input, id);
    }

    // ---- Solve phase: extract + tile every region ----
    let tracer = &opts.tracer;
    let solve_t0 = tracer.elapsed_us();
    let solve_start = Instant::now();
    let solve_inner = |region: &Region<EngineKind>| -> Result<RegionSolve, LowerError> {
        let e = match opts.extracted.get(&region.m.root) {
            Some(done) => done.clone(),
            None => extract(graph, &region.pattern, &region.m)?,
        };
        let budget = engine_budget(cfg, region.tag).ok_or_else(|| {
            LowerError::UnsupportedGraph("regions must target an accelerator".into())
        })?;
        let objective = match region.tag {
            EngineKind::Analog => &opts.analog_objective,
            _ => &opts.digital_objective,
        };
        let (solution, cache_hit) = match &opts.tile_cache {
            Some(cache) => cache.solve_cached(&e.geom, &budget, objective),
            None => (solve(&e.geom, &budget, objective), false),
        };
        Ok(RegionSolve {
            layer: e,
            solution: solution?,
            cache_hit,
        })
    };
    // Per-region spans land on the `regions` track. With the tracer
    // disabled this wrapper reads no clock.
    let solve_one = |region: &Region<EngineKind>| -> Result<RegionSolve, LowerError> {
        let started = tracer
            .is_enabled()
            .then(|| (tracer.elapsed_us(), Instant::now()));
        let result = solve_inner(region);
        if let Some((start, opened)) = started {
            let name = accel_step_name(&region.pattern, region.m.root.index());
            let mut span = Span::new(
                &name,
                tracks::REGIONS,
                start,
                opened.elapsed().as_micros() as u64,
            )
            .with_arg("engine", region.tag.to_string());
            match &result {
                Ok(s) => {
                    span = span
                        .with_arg("cache_hit", s.cache_hit)
                        .with_arg("n_tiles", s.solution.n_tiles)
                        .with_arg("macs", s.layer.geom.macs());
                }
                Err(_) => span = span.with_arg("infeasible", true),
            }
            tracer.record(span);
        }
        result
    };
    let mut solved = part
        .regions
        .iter()
        .map(|region| solve_one(region).map(Some))
        .collect::<Result<Vec<Option<RegionSolve>>, LowerError>>()?;
    let mut stats = CompileStats {
        regions: part.regions.len(),
        solves_performed: 0,
        cache_hits: 0,
        solve_time: solve_start.elapsed(),
        emit_time: std::time::Duration::ZERO,
    };
    for s in solved.iter().flatten() {
        if s.cache_hit {
            stats.cache_hits += 1;
        } else {
            stats.solves_performed += 1;
        }
    }
    if tracer.is_enabled() {
        tracer.record(
            Span::new(
                "solve",
                tracks::PHASES,
                solve_t0,
                stats.solve_time.as_micros() as u64,
            )
            .with_arg("regions", stats.regions)
            .with_arg("solves_performed", stats.solves_performed)
            .with_arg("cache_hits", stats.cache_hits),
        );
        if let Some(cache) = &opts.tile_cache {
            tracer.counter(
                tracks::PHASES,
                "tile_cache",
                vec![
                    ("entries".into(), cache.len().into()),
                    ("solves".into(), cache.solves().into()),
                    ("hits".into(), cache.hits().into()),
                    ("negatives".into(), cache.negatives().into()),
                    ("negative_hits".into(), cache.negative_hits().into()),
                ],
            );
        }
    }

    // ---- Emit phase: steps, buffers, then the L2 schedule (sequential) ----
    let emit_t0 = tracer.elapsed_us();
    let emit_start = Instant::now();
    let mut steps: Vec<Step> = Vec::new();
    let mut dma_table = DmaTable::default();
    let mut producer_step: HashMap<BufferId, usize> = HashMap::new();
    let mut last_consumer: HashMap<BufferId, usize> = HashMap::new();

    for (out_node, unit) in units {
        let step_idx = steps.len();
        let resolve = |id: NodeId| -> Result<BufferId, LowerError> {
            buffer_of.get(&id).copied().ok_or_else(|| {
                LowerError::UnsupportedGraph(format!(
                    "value {id} crosses a unit boundary without a buffer"
                ))
            })
        };
        let kind = if graph.outputs().contains(&out_node) {
            BufferKind::Output
        } else {
            BufferKind::Intermediate
        };
        match unit {
            Unit::Region(ridx) => {
                let region = &part.regions[ridx];
                let engine = region.tag;
                let RegionSolve {
                    layer: e, solution, ..
                } = solved[ridx]
                    .take()
                    .expect("each region is emitted exactly once");
                let input = resolve(e.data_inputs[0])?;
                let input2 = match e.data_inputs.get(1) {
                    Some(&n) => Some(resolve(n)?),
                    None => None,
                };
                let output = declare(out_node, kind, &mut buffers);
                buffer_of.insert(out_node, output);
                let name = accel_step_name(&region.pattern, out_node.index());
                last_consumer.insert(input, step_idx);
                if let Some(i2) = input2 {
                    last_consumer.insert(i2, step_idx);
                }
                producer_step.insert(output, step_idx);
                let desc = AccelLayerDesc {
                    name,
                    geom: e.geom,
                    tile: solution.tile,
                    weights: e.weights,
                    bias: e.bias,
                    shift: e.shift,
                    relu: e.relu,
                    pool: e.pool,
                };
                // Record the layer's DMA descriptor program in the
                // artifact; the machine derives its own and never reads it.
                dma_table.insert(step_idx, linearize_step(cfg, engine, &desc));
                steps.push(Step::Accel {
                    engine,
                    desc,
                    input,
                    input2,
                    output,
                });
            }
            Unit::Cpu(group) => {
                let (segment, ext_inputs) = build_segment(graph, &group)?;
                let mut input_ids = Vec::with_capacity(ext_inputs.len());
                for n in &ext_inputs {
                    let b = resolve(*n)?;
                    last_consumer.insert(b, step_idx);
                    input_ids.push(b);
                }
                let output = declare(out_node, kind, &mut buffers);
                buffer_of.insert(out_node, output);
                producer_step.insert(output, step_idx);
                let name = format!("cpu_{}", out_node.index());
                steps.push(Step::CpuFused {
                    name,
                    graph: segment,
                    inputs: input_ids,
                    output,
                });
            }
        }
    }

    if tracer.is_enabled() {
        tracer.record(
            Span::new(
                "emit",
                tracks::PHASES,
                emit_t0,
                emit_start.elapsed().as_micros() as u64,
            )
            .with_arg("steps", steps.len())
            .with_arg("buffers", buffers.len())
            .with_arg("dma_programs", dma_table.len()),
        );
    }

    // ---- Program outputs ----
    let mut outputs = Vec::with_capacity(graph.outputs().len());
    for &o in graph.outputs() {
        let b = buffer_of.get(&o).copied().ok_or_else(|| {
            LowerError::UnsupportedGraph(format!("graph output {o} has no produced buffer"))
        })?;
        outputs.push(b);
    }
    let inputs: Vec<BufferId> = graph.inputs().iter().map(|i| buffer_of[i]).collect();

    // ---- Binary size, then the L2 activation schedule ----
    let plan_t0 = tracer.elapsed_us();
    let plan_start = Instant::now();
    let binary = binary_size(&BinarySizeModel::default(), &steps);
    let capacity = cfg.l2_bytes.saturating_sub(binary.total());
    let n_steps = steps.len();
    let reqs: Vec<BufferReq> = buffers
        .iter()
        .map(|b| BufferReq {
            id: b.id.0,
            size: b.size,
            first_use: match b.kind {
                BufferKind::Input => 0,
                _ => producer_step.get(&b.id).copied().unwrap_or(0),
            },
            last_use: if outputs.contains(&b.id) {
                n_steps
            } else {
                last_consumer
                    .get(&b.id)
                    .copied()
                    .unwrap_or_else(|| producer_step.get(&b.id).copied().unwrap_or(0))
            },
        })
        .collect();
    let activation_peak = if opts.naive_l2 {
        // Plain TVM: every tensor gets its own range for the whole run.
        let mut offset = 0usize;
        for b in &mut buffers {
            b.offset = offset;
            offset += b.size;
        }
        if offset > capacity {
            return Err(LowerError::OutOfMemory(OutOfMemory {
                needed: offset,
                capacity,
            }));
        }
        offset
    } else {
        let memory_plan = plan(&reqs, capacity)?;
        for b in &mut buffers {
            b.offset = memory_plan
                .offset_of(b.id.0)
                .expect("planner covers every requested buffer");
        }
        memory_plan.peak
    };
    if tracer.is_enabled() {
        tracer.record(
            Span::new(
                "l2_plan",
                tracks::PHASES,
                plan_t0,
                plan_start.elapsed().as_micros() as u64,
            )
            .with_arg("activation_peak", activation_peak)
            .with_arg("capacity", capacity)
            .with_arg("naive", opts.naive_l2)
            .with_arg("binary_bytes", binary.total()),
        );
    }

    stats.emit_time = emit_start.elapsed();
    Ok(Artifact {
        program: Program {
            buffers,
            steps,
            inputs,
            outputs,
            activation_peak,
            dma: dma_table,
        },
        binary,
        stats,
    })
}

/// Rebuilds a fused CPU group as a standalone executable segment graph,
/// returning it plus the original node ids of its external data inputs (in
/// segment-input order).
fn build_segment(graph: &Graph, group: &[NodeId]) -> Result<(Graph, Vec<NodeId>), LowerError> {
    let mut b = GraphBuilder::new();
    let mut mapped: HashMap<NodeId, NodeId> = HashMap::new();
    let mut ext_inputs: Vec<NodeId> = Vec::new();
    let in_group: std::collections::HashSet<NodeId> = group.iter().copied().collect();

    for &id in group {
        let node = graph.node(id);
        let NodeKind::Op { op, inputs } = &node.kind else {
            return Err(LowerError::UnsupportedGraph(
                "cpu groups contain only op nodes".into(),
            ));
        };
        let mut new_inputs = Vec::with_capacity(inputs.len());
        for &src in inputs {
            let mapped_id = if let Some(&m) = mapped.get(&src) {
                m
            } else {
                let src_node = graph.node(src);
                let new_id = match &src_node.kind {
                    NodeKind::Constant(t) => b.constant(&src_node.name, t.clone()),
                    _ if !in_group.contains(&src) => {
                        ext_inputs.push(src);
                        b.input(&src_node.name, src_node.shape.dims(), src_node.dtype)
                    }
                    _ => {
                        return Err(LowerError::UnsupportedGraph(
                            "group member consumed before definition".into(),
                        ));
                    }
                };
                mapped.insert(src, new_id);
                new_id
            };
            new_inputs.push(mapped_id);
        }
        let new_id = b
            .apply(op.clone(), &new_inputs)
            .map_err(|e| LowerError::UnsupportedGraph(format!("segment rebuild failed: {e}")))?;
        mapped.insert(id, new_id);
    }
    let tail = mapped[group.last().expect("non-empty group")];
    let segment = b
        .finish(&[tail])
        .map_err(|e| LowerError::UnsupportedGraph(format!("segment finish failed: {e}")))?;
    Ok((segment, ext_inputs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use htvm_ir::{DType, Tensor};
    use htvm_pattern::{is_constant, is_op, partition, wildcard, NamedPattern};

    fn conv_pattern() -> NamedPattern {
        let conv2d = is_op("nn.conv2d", vec![wildcard(), is_constant()]);
        let bias_add = is_op("nn.bias_add", vec![conv2d, is_constant()]);
        let right_shift = is_op("right_shift", vec![bias_add]);
        let clip = is_op("clip", vec![right_shift]);
        let cast = is_op("cast", vec![clip]);
        NamedPattern::new("conv2d_bias_requant", cast.optional("nn.relu"))
    }

    /// conv block -> conv block -> flatten -> softmax.
    fn sample_graph() -> Graph {
        let mut b = GraphBuilder::new();
        let x = b.input("x", &[3, 16, 16], DType::I8);
        let w1 = b.constant("w1", Tensor::zeros(DType::I8, &[8, 3, 3, 3]));
        let b1 = b.constant("b1", Tensor::zeros(DType::I32, &[8]));
        let c = b.conv2d(x, w1, (1, 1), (1, 1, 1, 1)).unwrap();
        let c = b.bias_add(c, b1).unwrap();
        let c = b.requantize(c, 7, true).unwrap();
        let w2 = b.constant("w2", Tensor::zeros(DType::I8, &[8, 8, 3, 3]));
        let b2 = b.constant("b2", Tensor::zeros(DType::I32, &[8]));
        let c2 = b.conv2d(c, w2, (1, 1), (1, 1, 1, 1)).unwrap();
        let c2 = b.bias_add(c2, b2).unwrap();
        let c2 = b.requantize(c2, 7, false).unwrap();
        let f = b.flatten(c2).unwrap();
        let s = b.softmax(f).unwrap();
        b.finish(&[s]).unwrap()
    }

    #[test]
    fn lowers_mixed_program() {
        let g = sample_graph();
        let part = partition(&g, &[conv_pattern()], |_, _| Some(EngineKind::Digital));
        let artifact = lower(&g, &part, &DianaConfig::default(), &LowerOptions::default())
            .expect("lowering succeeds");
        // Two accel steps + one fused CPU (flatten+softmax).
        assert_eq!(artifact.program.steps.len(), 3);
        assert_eq!(artifact.steps_on(EngineKind::Digital), 2);
        assert_eq!(artifact.steps_on(EngineKind::Cpu), 1);
        assert!(artifact.offload_fraction() > 0.99);
        assert_eq!(artifact.program.inputs.len(), 1);
        assert_eq!(artifact.program.outputs.len(), 1);
        assert!(artifact.binary.total() > 0);
        // The recorded DMA table is exactly every accelerator step
        // linearized for the platform it was compiled for.
        let cfg = DianaConfig::default();
        let mut expected = DmaTable::default();
        for (step_idx, step) in artifact.program.steps.iter().enumerate() {
            if let Step::Accel { engine, desc, .. } = step {
                expected.insert(step_idx, linearize_step(&cfg, *engine, desc));
            }
        }
        assert_eq!(artifact.program.dma, expected);
        assert_eq!(artifact.program.dma.len(), 2);
    }

    #[test]
    fn cpu_only_lowering_matches_reference() {
        use htvm_soc::Machine;
        let g = sample_graph();
        let part = partition(&g, &[], |_, _: &htvm_pattern::Match| None::<EngineKind>);
        let artifact = lower(&g, &part, &DianaConfig::default(), &LowerOptions::default()).unwrap();
        let mut input = Tensor::zeros(DType::I8, &[3, 16, 16]);
        for (i, v) in input.data_mut().iter_mut().enumerate() {
            *v = (i as i32 % 19) - 9;
        }
        let machine = Machine::new(DianaConfig::default());
        let report = machine.run(&artifact.program, &[input.clone()]).unwrap();
        let reference = htvm_kernels_evaluate(&g, &input);
        assert_eq!(report.outputs[0], reference);
    }

    fn htvm_kernels_evaluate(g: &Graph, input: &Tensor) -> Tensor {
        htvm_kernels::evaluate(g, std::slice::from_ref(input))
            .unwrap()
            .remove(0)
    }

    #[test]
    fn accelerated_lowering_matches_reference() {
        use htvm_soc::Machine;
        let g = sample_graph();
        let part = partition(&g, &[conv_pattern()], |_, _| Some(EngineKind::Digital));
        let artifact = lower(&g, &part, &DianaConfig::default(), &LowerOptions::default()).unwrap();
        let mut input = Tensor::zeros(DType::I8, &[3, 16, 16]);
        for (i, v) in input.data_mut().iter_mut().enumerate() {
            *v = (i as i32 % 23) - 11;
        }
        let machine = Machine::new(DianaConfig::default());
        let report = machine.run(&artifact.program, &[input.clone()]).unwrap();
        let reference = htvm_kernels_evaluate(&g, &input);
        assert_eq!(report.outputs[0], reference);
    }

    #[test]
    fn naive_allocation_needs_more_memory() {
        let g = sample_graph();
        let part = partition(&g, &[], |_, _: &htvm_pattern::Match| None::<EngineKind>);
        let planned = lower(&g, &part, &DianaConfig::default(), &LowerOptions::default()).unwrap();
        let naive_opts = LowerOptions {
            naive_l2: true,
            ..LowerOptions::default()
        };
        let naive = lower(&g, &part, &DianaConfig::default(), &naive_opts).unwrap();
        assert!(naive.program.activation_peak >= planned.program.activation_peak);
    }

    #[test]
    fn oom_when_l2_too_small() {
        let g = sample_graph();
        let part = partition(&g, &[], |_, _: &htvm_pattern::Match| None::<EngineKind>);
        let tiny = DianaConfig {
            l2_bytes: 14 * 1024,
            ..DianaConfig::default()
        };
        let err = lower(&g, &part, &tiny, &LowerOptions::default()).unwrap_err();
        assert!(matches!(err, LowerError::OutOfMemory(_)));
    }

    #[test]
    fn buffers_do_not_overlap_while_live() {
        let g = sample_graph();
        let part = partition(&g, &[conv_pattern()], |_, _| Some(EngineKind::Digital));
        let artifact = lower(&g, &part, &DianaConfig::default(), &LowerOptions::default()).unwrap();
        let p = &artifact.program;
        // Reconstruct liveness from the schedule and check pairwise.
        let n = p.steps.len();
        let mut live: Vec<(usize, usize)> = vec![(usize::MAX, 0); p.buffers.len()];
        for (&b, l) in p.inputs.iter().zip(live.iter_mut()) {
            let _ = b;
            l.0 = 0;
        }
        for (i, s) in p.steps.iter().enumerate() {
            let touch = |b: BufferId, live: &mut Vec<(usize, usize)>| {
                let l = &mut live[b.0];
                l.0 = l.0.min(i);
                l.1 = l.1.max(i);
            };
            match s {
                Step::Accel {
                    input,
                    input2,
                    output,
                    ..
                } => {
                    touch(*input, &mut live);
                    if let Some(i2) = input2 {
                        touch(*i2, &mut live);
                    }
                    touch(*output, &mut live);
                }
                Step::CpuFused { inputs, output, .. } => {
                    for b in inputs {
                        touch(*b, &mut live);
                    }
                    touch(*output, &mut live);
                }
            }
        }
        for o in &p.outputs {
            live[o.0].1 = n;
        }
        for a in &p.buffers {
            for b in &p.buffers {
                if a.id >= b.id || a.size == 0 || b.size == 0 {
                    continue;
                }
                let (af, al) = live[a.id.0];
                let (bf, bl) = live[b.id.0];
                let overlap_life = af <= bl && bf <= al;
                let overlap_mem = a.offset < b.offset + b.size && b.offset < a.offset + a.size;
                assert!(
                    !(overlap_life && overlap_mem),
                    "buffers {} and {} overlap while both live",
                    a.name,
                    b.name
                );
            }
        }
    }
}
