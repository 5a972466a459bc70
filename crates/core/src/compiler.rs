//! The compiler driver.

use crate::dispatch::rule_engine;
use crate::{diana_patterns, engine_accepts, DeployConfig};
use htvm_codegen::{extract, lower, Artifact, LowerError, LowerOptions};
use htvm_dory::{LayerGeometry, TileCache, TilingObjective};
use htvm_ir::{passes, Graph, IrError};
use htvm_pattern::partition;
use htvm_soc::{DianaConfig, EngineKind};
use htvm_trace::{tracks, Tracer};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// A user-supplied dispatch override, the paper's escape hatch: *"When
/// multiple accelerators on the platform can execute the pattern, the flow
/// selects the one best optimized for that given operation. This choice is
/// based on factors like bit widths, layer geometries, or other
/// user-defined parameters."*
///
/// The hook receives each matched layer's geometry and the built-in rule's
/// decision, and returns the final engine (`None` = CPU). Its answer
/// passes through the same [`engine_accepts`](crate::engine_accepts)
/// checks as the rule's, the deploy configuration included: an engine the
/// deploy lacks, the CPU itself, or one whose capability or tiling the
/// layer fails leaves the layer on the CPU.
pub type DispatchHook =
    Arc<dyn Fn(&LayerGeometry, Option<EngineKind>) -> Option<EngineKind> + Send + Sync>;

/// Errors from compilation.
#[derive(Debug)]
#[non_exhaustive]
pub enum CompileError {
    /// An IR error. [`Compiler::compile`] itself never returns it — every
    /// [`Graph`] is well-formed by construction — but callers that run the
    /// IR passes themselves convert their errors into this variant.
    Ir(IrError),
    /// Lowering failed (tiling, memory planning, unsupported constructs).
    Lower(LowerError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Ir(e) => write!(f, "invalid graph: {e}"),
            CompileError::Lower(e) => write!(f, "lowering failed: {e}"),
        }
    }
}

impl Error for CompileError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CompileError::Ir(e) => Some(e),
            CompileError::Lower(e) => Some(e),
        }
    }
}

impl From<IrError> for CompileError {
    fn from(e: IrError) -> Self {
        CompileError::Ir(e)
    }
}

impl From<LowerError> for CompileError {
    fn from(e: LowerError) -> Self {
        CompileError::Lower(e)
    }
}

/// The HTVM compiler: optimizes a graph, partitions it with
/// the DIANA pattern table and dispatch rules, and lowers it to a runnable
/// [`Artifact`].
///
/// See the [crate-level example](crate) for end-to-end usage.
#[derive(Clone)]
pub struct Compiler {
    platform: DianaConfig,
    deploy: DeployConfig,
    /// Also holds the compiler's one tile cache (always `Some`) and its
    /// one tracer, which every compile's phases and lowering share.
    lower_opts: LowerOptions,
    dispatch_hook: Option<DispatchHook>,
}

impl fmt::Debug for Compiler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Compiler")
            .field("platform", &self.platform)
            .field("deploy", &self.deploy)
            .field("lower_opts", &self.lower_opts)
            .field(
                "dispatch_hook",
                &self.dispatch_hook.as_ref().map(|_| "<hook>"),
            )
            .finish()
    }
}

impl Default for Compiler {
    fn default() -> Self {
        Compiler::new()
    }
}

impl Compiler {
    /// A compiler for the default DIANA platform, deploying to both
    /// accelerators.
    #[must_use]
    pub fn new() -> Self {
        Compiler {
            platform: DianaConfig::default(),
            deploy: DeployConfig::Both,
            lower_opts: LowerOptions {
                tile_cache: Some(TileCache::new()),
                ..LowerOptions::default()
            },
            dispatch_hook: None,
        }
    }

    /// Installs a span collector: every subsequent [`Compiler::compile`]
    /// records a wall-time span per phase (`fold_constants`, `partition`,
    /// `solve`, `emit`, `l2_plan`),
    /// one span per region solve, and a [`TileCache`] counter snapshot
    /// (hits, misses, negative entries). Collect the result with
    /// [`Tracer::take`]; see `docs/OBSERVABILITY.md`.
    ///
    /// Tracing is observational only: artifacts are byte-identical with
    /// it on or off.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.lower_opts.tracer = tracer;
        self
    }

    /// The installed span collector (disabled unless
    /// [`Compiler::with_tracer`] was called).
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.lower_opts.tracer
    }

    /// The tiling-solve memo table every [`Compiler::compile`] call solves
    /// through (clones of the compiler share it too): solves are pure
    /// functions of `(geometry, budget, objective)`, so recompiles and
    /// repeated layer geometries skip the solver entirely. Counters and
    /// contents accumulate across compiles.
    #[must_use]
    pub fn tile_cache(&self) -> &TileCache {
        self.lower_opts
            .tile_cache
            .as_ref()
            .expect("a compiler always holds a tile cache")
    }

    /// Installs a user dispatch override (see [`DispatchHook`]).
    #[must_use]
    pub fn with_dispatch_hook(mut self, hook: DispatchHook) -> Self {
        self.dispatch_hook = Some(hook);
        self
    }

    /// Selects the deployment configuration (Table I column group).
    ///
    /// `CpuTvm` also switches to plain TVM's naive (no-reuse) L2
    /// allocation, which is what makes MobileNet run out of memory.
    #[must_use]
    pub fn with_deploy(mut self, deploy: DeployConfig) -> Self {
        self.deploy = deploy;
        self.lower_opts.naive_l2 = deploy.naive_l2();
        self
    }

    /// Replaces the platform description (memory sizes, cost constants).
    #[must_use]
    pub fn with_platform(mut self, platform: DianaConfig) -> Self {
        self.platform = platform;
        self
    }

    /// Replaces the tiling objectives DORY minimizes on the digital and
    /// the analog engine (the paper's Eq. 3–5 heuristics by default; see
    /// [`TilingObjective::calibrated`] for a measured cost model).
    #[must_use]
    pub fn with_objectives(mut self, digital: TilingObjective, analog: TilingObjective) -> Self {
        self.lower_opts.digital_objective = digital;
        self.lower_opts.analog_objective = analog;
        self
    }

    /// The platform this compiler targets.
    #[must_use]
    pub fn platform(&self) -> &DianaConfig {
        &self.platform
    }

    /// The active deployment configuration.
    #[must_use]
    pub fn deploy(&self) -> DeployConfig {
        self.deploy
    }

    /// The lowering options this compiler passes to the DORY backend.
    /// Beyond platform and deployment, only their two tiling objectives
    /// change artifact bytes, so cache keys must cover those.
    #[must_use]
    pub fn lower_options(&self) -> &LowerOptions {
        &self.lower_opts
    }

    /// Compiles a graph to a deployment artifact.
    ///
    /// Pipeline (paper Fig. 1): constant-fold / DCE → pattern match +
    /// accelerator-aware dispatch → per-region DORY lowering + CPU fusion
    /// → L2 memory schedule → artifact. The graph is not re-verified: every
    /// [`Graph`] is well-formed where it is built (builder, import,
    /// deserialization), and each constant was range-checked there, once.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Lower`] when tiling or L2 planning fails
    /// (including the out-of-memory case for oversized CPU-only
    /// deployments).
    pub fn compile(&self, graph: &Graph) -> Result<Artifact, CompileError> {
        // A `Graph` is well-formed by construction, and folding builds only
        // in-range constants: nothing is verified here. Folding that
        // changes nothing builds nothing, and the caller's graph is the one
        // partitioned and lowered.
        let folded = {
            let _span = self.tracer().scope(tracks::PHASES, "fold_constants");
            passes::simplify(graph).map(|(folded, _)| {
                debug_assert!(passes::verify(&folded).is_ok());
                folded
            })
        };
        let graph = folded.as_ref().unwrap_or(graph);

        let patterns = if self.deploy == DeployConfig::CpuTvm {
            Vec::new()
        } else {
            diana_patterns()
        };
        // The `partition` span times dispatch too: the callback below
        // extracts each match and asks which engines accept it.
        let tracer = self.tracer();
        let partition_span = tracer
            .is_enabled()
            .then(|| (tracer.elapsed_us(), std::time::Instant::now()));
        let part = partition(graph, &patterns, |p, m| {
            let layer = extract(graph, &p.name, m).ok()?;
            let base = rule_engine(&self.platform, self.deploy, &layer);
            let Some(hook) = &self.dispatch_hook else {
                return base;
            };
            let chosen = hook(&layer.geom, base)?;
            engine_accepts(&self.platform, self.deploy, &layer, chosen)
                .is_ok()
                .then_some(chosen)
        });
        if let Some((start, opened)) = partition_span {
            tracer.record(
                htvm_trace::Span::new(
                    "partition",
                    tracks::PHASES,
                    start,
                    opened.elapsed().as_micros() as u64,
                )
                .with_arg("patterns", patterns.len())
                .with_arg("regions", part.regions.len()),
            );
        }
        Ok(lower(graph, &part, &self.platform, &self.lower_opts)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htvm_ir::{DType, GraphBuilder, Tensor};
    use htvm_soc::{EngineKind, Machine};

    /// conv(i8) → conv(ternary) → pool → flatten → dense(i8) → softmax.
    fn mixed_graph() -> Graph {
        let mut b = GraphBuilder::new();
        let x = b.input("x", &[16, 16, 16], DType::I8);
        let w1 = b.constant("w1", Tensor::zeros(DType::I8, &[16, 16, 3, 3]));
        let b1 = b.constant("b1", Tensor::zeros(DType::I32, &[16]));
        let c = b.conv2d(x, w1, (1, 1), (1, 1, 1, 1)).unwrap();
        let c = b.bias_add(c, b1).unwrap();
        let c = b.requantize(c, 7, true).unwrap();
        let w2 = b.constant("w2", Tensor::zeros(DType::Ternary, &[16, 16, 3, 3]));
        let b2 = b.constant("b2", Tensor::zeros(DType::I32, &[16]));
        let c2 = b.conv2d(c, w2, (1, 1), (1, 1, 1, 1)).unwrap();
        let c2 = b.bias_add(c2, b2).unwrap();
        let c2 = b.requantize(c2, 4, true).unwrap();
        let p = b.global_avg_pool(c2).unwrap();
        let f = b.flatten(p).unwrap();
        let wd = b.constant("wd", Tensor::zeros(DType::I8, &[10, 16]));
        let d = b.dense(f, wd).unwrap();
        let q = b.requantize(d, 5, false).unwrap();
        let s = b.softmax(q).unwrap();
        b.finish(&[s]).unwrap()
    }

    #[test]
    fn both_config_uses_both_engines() {
        let artifact = Compiler::new().compile(&mixed_graph()).unwrap();
        assert_eq!(artifact.steps_on(EngineKind::Digital), 2); // i8 conv + dense
        assert_eq!(artifact.steps_on(EngineKind::Analog), 1); // ternary conv
        assert!(artifact.steps_on(EngineKind::Cpu) >= 1); // pool/softmax
    }

    #[test]
    fn cpu_tvm_offloads_nothing() {
        let artifact = Compiler::new()
            .with_deploy(DeployConfig::CpuTvm)
            .compile(&mixed_graph())
            .unwrap();
        assert_eq!(artifact.offload_fraction(), 0.0);
    }

    #[test]
    fn all_configs_agree_functionally() {
        let g = mixed_graph();
        let mut input = Tensor::zeros(DType::I8, &[16, 16, 16]);
        for (i, v) in input.data_mut().iter_mut().enumerate() {
            *v = (i as i32 % 31) - 15;
        }
        let reference = htvm_kernels::evaluate(&g, std::slice::from_ref(&input)).unwrap();
        for deploy in [
            DeployConfig::CpuTvm,
            DeployConfig::Digital,
            DeployConfig::Analog,
            DeployConfig::Both,
        ] {
            let compiler = Compiler::new().with_deploy(deploy);
            let artifact = compiler.compile(&g).unwrap();
            let machine = Machine::new(*compiler.platform());
            let report = machine
                .run(&artifact.program, std::slice::from_ref(&input))
                .unwrap();
            assert_eq!(report.outputs[0], reference[0], "config {deploy:?}");
        }
    }

    #[test]
    fn offload_reduces_latency() {
        let g = mixed_graph();
        let input = Tensor::zeros(DType::I8, &[16, 16, 16]);
        let mut cycles = std::collections::HashMap::new();
        for deploy in [DeployConfig::CpuTvm, DeployConfig::Both] {
            let compiler = Compiler::new().with_deploy(deploy);
            let artifact = compiler.compile(&g).unwrap();
            let machine = Machine::new(*compiler.platform());
            let report = machine
                .run(&artifact.program, std::slice::from_ref(&input))
                .unwrap();
            cycles.insert(deploy, report.total_cycles());
        }
        assert!(
            cycles[&DeployConfig::Both] * 5 < cycles[&DeployConfig::CpuTvm],
            "offload should be >5x faster: {cycles:?}"
        );
    }

    #[test]
    fn dispatch_hook_overrides_engine_choice() {
        use crate::DispatchHook;
        use htvm_dory::LayerKind;
        use std::sync::Arc;
        let g = mixed_graph();
        // A policy the rule does not have: keep dense layers on the CPU.
        let hook: DispatchHook = Arc::new(|geom, base| {
            if geom.kind == LayerKind::Dense {
                None
            } else {
                base
            }
        });
        let with_hook = Compiler::new()
            .with_dispatch_hook(hook)
            .compile(&g)
            .unwrap();
        let without = Compiler::new().compile(&g).unwrap();
        assert_eq!(without.steps_on(EngineKind::Digital), 2);
        assert_eq!(with_hook.steps_on(EngineKind::Digital), 1); // dense gone
                                                                // Functional equivalence is preserved under any dispatch policy.
        let input = Tensor::zeros(DType::I8, &[16, 16, 16]);
        let m = Machine::new(DianaConfig::default());
        let a = m
            .run(&with_hook.program, std::slice::from_ref(&input))
            .unwrap();
        let b = m
            .run(&without.program, std::slice::from_ref(&input))
            .unwrap();
        assert_eq!(a.outputs, b.outputs);
    }

    /// One `kernel`×`kernel` conv with `stride` on a 16×16×16 input.
    fn conv_graph(stride: usize, kernel: usize) -> Graph {
        let mut b = GraphBuilder::new();
        let x = b.input("x", &[16, 16, 16], DType::I8);
        let weights = (0..16 * 16 * kernel * kernel).map(|i| i as i32 % 7 - 3);
        let w = b.constant(
            "w",
            Tensor::new(DType::I8, &[16, 16, kernel, kernel], weights.collect()).unwrap(),
        );
        let pad = kernel / 2;
        let c = b
            .conv2d(x, w, (stride, stride), (pad, pad, pad, pad))
            .unwrap();
        let q = b.requantize(c, 7, true).unwrap();
        b.finish(&[q]).unwrap()
    }

    #[test]
    fn dispatch_hook_infeasible_choices_fall_back_to_cpu() {
        use crate::DispatchHook;
        use htvm_models::{ds_cnn, QuantScheme};
        use std::sync::Arc;
        let ds_cnn = ds_cnn(QuantScheme::Int8);
        // (case, graph, input, deploy, the hook's answer for every layer,
        // expected digital and analog steps). A choice `engine_accepts`
        // refuses leaves the layer on the CPU rather than producing an
        // unsound program.
        let zeros = || Tensor::zeros(DType::I8, &[16, 16, 16]);
        for (case, graph, input, deploy, forced, expected) in [
            // i8 layers are not analog-capable; the ternary conv is.
            (
                "analog everywhere",
                mixed_graph(),
                zeros(),
                DeployConfig::Both,
                EngineKind::Analog,
                (0, 1),
            ),
            (
                "digital under the analog-only deploy",
                ds_cnn.graph.clone(),
                ds_cnn.input(7),
                DeployConfig::Analog,
                EngineKind::Digital,
                (0, 0),
            ),
            (
                "stride 3",
                conv_graph(3, 3),
                zeros(),
                DeployConfig::Both,
                EngineKind::Digital,
                (0, 0),
            ),
            (
                "13x13 filter",
                conv_graph(1, 13),
                zeros(),
                DeployConfig::Both,
                EngineKind::Digital,
                (0, 0),
            ),
            // The CPU is never a region: the layer simply stays on it.
            (
                "the CPU",
                conv_graph(1, 3),
                zeros(),
                DeployConfig::Both,
                EngineKind::Cpu,
                (0, 0),
            ),
        ] {
            let hook: DispatchHook = Arc::new(move |_, _| Some(forced));
            let compiler = Compiler::new().with_deploy(deploy).with_dispatch_hook(hook);
            let artifact = compiler
                .compile(&graph)
                .unwrap_or_else(|e| panic!("{case}: {e}"));
            let placed = (
                artifact.steps_on(EngineKind::Digital),
                artifact.steps_on(EngineKind::Analog),
            );
            assert_eq!(placed, expected, "{case}: (digital, analog) steps");
            assert!(artifact.steps_on(EngineKind::Cpu) >= 1, "{case}");
            let out = Machine::new(*compiler.platform())
                .run(&artifact.program, std::slice::from_ref(&input))
                .unwrap();
            let reference = htvm_kernels::evaluate(&graph, &[input]).unwrap();
            assert_eq!(out.outputs, reference, "{case}");
        }
    }

    #[test]
    fn a_supplied_tracer_is_the_compilers_own() {
        let tracer = Tracer::new();
        let compiler = Compiler::new().with_tracer(tracer.clone());
        compiler.compile(&mixed_graph()).unwrap();
        let trace = tracer.take(htvm_trace::TimeDomain::WallMicros, tracks::compile());
        assert!(trace.span("partition").is_some(), "the compiler's phase");
        assert!(trace.span("solve").is_some(), "lowering's phase");
    }

    #[test]
    fn objectives_and_deploy_commute() {
        use htvm_models::{mobilenet_v1, QuantScheme};
        let objectives = |c: Compiler| {
            c.with_objectives(
                TilingObjective::memory_only(),
                TilingObjective::memory_only(),
            )
        };
        let both_orders = |deploy, scheme| {
            let model = mobilenet_v1(scheme);
            let first = objectives(Compiler::new()).with_deploy(deploy);
            let last = objectives(Compiler::new().with_deploy(deploy));
            (first.compile(&model.graph), last.compile(&model.graph))
        };
        // Table I: plain TVM's naive L2 allocation cannot hold the 8-bit
        // MobileNet, whichever setter ran first.
        let (first, last) = both_orders(DeployConfig::CpuTvm, QuantScheme::Int8);
        for e in [first.unwrap_err(), last.unwrap_err()] {
            assert!(
                matches!(e, CompileError::Lower(LowerError::OutOfMemory(_))),
                "{e}"
            );
        }
        let (first, last) = both_orders(DeployConfig::Both, QuantScheme::Mixed);
        assert_eq!(
            serde_json::to_string(&first.unwrap()).unwrap(),
            serde_json::to_string(&last.unwrap()).unwrap()
        );
    }

    #[test]
    fn compile_is_deterministic() {
        let g = mixed_graph();
        let a = Compiler::new().compile(&g).unwrap();
        let b = Compiler::new().compile(&g).unwrap();
        assert_eq!(a, b);
    }
}
