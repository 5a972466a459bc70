//! Accelerator-aware dispatch rules.

use htvm_codegen::{engine_budget, extract, ExtractedLayer};
use htvm_dory::{feasible, tile_fits, LayerKind, TileConfig};
use htvm_ir::{DType, Graph};
use htvm_pattern::{Match, NamedPattern};
use htvm_soc::{DianaConfig, EngineKind};
use serde::{Deserialize, Serialize};

/// Which DIANA configuration to deploy for — the four column groups of
/// Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeployConfig {
    /// Plain TVM baseline: RISC-V CPU only, naive per-tensor L2 allocation
    /// (no lifetime reuse), no accelerator offload.
    CpuTvm,
    /// CPU + the 8-bit digital accelerator.
    Digital,
    /// CPU + the ternary analog accelerator.
    Analog,
    /// CPU + both accelerators (the paper's "mixed" configuration).
    Both,
}

impl DeployConfig {
    /// Does this configuration include `engine`? The host CPU is part of
    /// every configuration.
    #[must_use]
    pub fn enables(self, engine: EngineKind) -> bool {
        match engine {
            EngineKind::Cpu => true,
            EngineKind::Digital => matches!(self, DeployConfig::Digital | DeployConfig::Both),
            EngineKind::Analog => matches!(self, DeployConfig::Analog | DeployConfig::Both),
        }
    }

    /// Does this configuration use the plain-TVM naive L2 allocator?
    #[must_use]
    pub fn naive_l2(self) -> bool {
        self == DeployConfig::CpuTvm
    }

    /// The stable id every command line, query string and report spells
    /// this configuration with: `cpu_tvm`, `digital`, `analog` or `both`.
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            DeployConfig::CpuTvm => "cpu_tvm",
            DeployConfig::Digital => "digital",
            DeployConfig::Analog => "analog",
            DeployConfig::Both => "both",
        }
    }
}

impl std::str::FromStr for DeployConfig {
    type Err = String;

    /// Parses a [`DeployConfig::id`]; any other string is an error
    /// naming the accepted ids.
    fn from_str(id: &str) -> Result<Self, String> {
        [
            DeployConfig::CpuTvm,
            DeployConfig::Digital,
            DeployConfig::Analog,
            DeployConfig::Both,
        ]
        .into_iter()
        .find(|deploy| deploy.id() == id)
        .ok_or_else(|| format!("unknown deploy '{id}' (expected cpu_tvm|digital|analog|both)"))
    }
}

/// Why [`engine_accepts`] refused an engine for a layer: the name of the
/// first check that failed, in the order they run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Refusal {
    /// The deploy configuration does not include the engine.
    NotInDeploy,
    /// The engine is the host CPU, which is never a region target.
    NotAccelerator,
    /// Activations are not `i8`.
    ActDType,
    /// Weights the engine cannot hold: digital takes `i8`, analog ternary.
    WeightDType,
    /// A layer kind the engine has no datapath for (analog: depthwise and
    /// matmul, whose rhs is a runtime operand).
    Kind,
    /// A stride outside 1 or 2.
    Stride,
    /// A filter wider or taller than 11.
    Kernel,
    /// The DORY solver finds no tile that fits the engine's memories.
    NoTileFits,
    /// A fused output pool (its windows may not cross tile borders), but
    /// the whole layer does not fit in L1.
    PoolNeedsUntiled,
}

/// The one capability table of the DIANA engines: can `engine` run
/// `layer` under `deploy`? [`dispatch_rule`] and a
/// [`DispatchHook`](crate::DispatchHook)'s answer both ask it. The cheap
/// checks run before the tiling search, so refusing on them costs no
/// solver work.
///
/// # Errors
///
/// The [`Refusal`] naming the first check that fails.
pub fn engine_accepts(
    cfg: &DianaConfig,
    deploy: DeployConfig,
    layer: &ExtractedLayer,
    engine: EngineKind,
) -> Result<(), Refusal> {
    let g = &layer.geom;
    if !deploy.enables(engine) {
        return Err(Refusal::NotInDeploy);
    }
    let budget = engine_budget(cfg, engine).ok_or(Refusal::NotAccelerator)?;
    if g.act_dtype != DType::I8 {
        return Err(Refusal::ActDType);
    }
    match (engine, g.kind) {
        (_, LayerKind::Add) => {}
        (EngineKind::Analog, LayerKind::DepthwiseConv2d | LayerKind::MatMul) => {
            return Err(Refusal::Kind)
        }
        (EngineKind::Analog, _) if g.w_dtype != DType::Ternary => return Err(Refusal::WeightDType),
        (EngineKind::Digital, _) if g.w_dtype != DType::I8 => return Err(Refusal::WeightDType),
        _ => {}
    }
    if !matches!(g.strides, (1 | 2, 1 | 2)) {
        return Err(Refusal::Stride);
    }
    if g.fy > 11 || g.fx > 11 {
        return Err(Refusal::Kernel);
    }
    if !feasible(g, &budget) {
        return Err(Refusal::NoTileFits);
    }
    if layer.pool.is_some() && !tile_fits(g, &TileConfig::full(g), &budget) {
        return Err(Refusal::PoolNeedsUntiled);
    }
    Ok(())
}

/// The built-in choice for an extracted layer: the first of `Digital`,
/// then `Analog`, that [`engine_accepts`] it.
pub(crate) fn rule_engine(
    cfg: &DianaConfig,
    deploy: DeployConfig,
    layer: &ExtractedLayer,
) -> Option<EngineKind> {
    [EngineKind::Digital, EngineKind::Analog]
        .into_iter()
        .find(|&engine| engine_accepts(cfg, deploy, layer, engine).is_ok())
}

/// The accelerator-aware rule layer behind the pattern matcher (paper
/// §III-A): decides whether a structurally matched chain is offloaded, and
/// to which engine.
///
/// The paper's DIANA rule is quoted directly: *"Since both accelerators
/// support convolutions, we discern which accelerator to use by simply
/// looking at the provided weights' bit-width of the convolution: 8-bit
/// precision goes to digital, and ternary precision goes to analog."*
/// Here that falls out of [`engine_accepts`]: the chain goes to the first
/// of `Digital`, then `Analog`, that accepts it, and each engine accepts
/// only its own weight bit-width. Residual adds, which carry no weights,
/// therefore prefer digital.
///
/// Returns the chosen engine, or `None` to leave the chain to the CPU.
#[must_use]
pub fn dispatch_rule(
    cfg: &DianaConfig,
    deploy: DeployConfig,
    graph: &Graph,
    pattern: &NamedPattern,
    m: &Match,
) -> Option<EngineKind> {
    rule_engine(cfg, deploy, &extract(graph, &pattern.name, m).ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diana_patterns;
    use htvm_ir::{GraphBuilder, Tensor};
    use htvm_pattern::match_at;

    fn conv_graph(w_dtype: DType) -> (Graph, htvm_ir::NodeId) {
        let mut b = GraphBuilder::new();
        let x = b.input("x", &[16, 16, 16], DType::I8);
        let w = b.constant("w", Tensor::zeros(w_dtype, &[16, 16, 3, 3]));
        let bias = b.constant("b", Tensor::zeros(DType::I32, &[16]));
        let c = b.conv2d(x, w, (1, 1), (1, 1, 1, 1)).unwrap();
        let c = b.bias_add(c, bias).unwrap();
        let q = b.requantize(c, 7, true).unwrap();
        (b.finish(&[q]).unwrap(), q)
    }

    fn rule_for(g: &Graph, root: htvm_ir::NodeId, deploy: DeployConfig) -> Option<EngineKind> {
        let cfg = DianaConfig::default();
        for p in diana_patterns() {
            if let Some(m) = match_at(g, &p.pattern, root) {
                return dispatch_rule(&cfg, deploy, g, &p, &m);
            }
        }
        None
    }

    #[test]
    fn deploy_ids_parse_back_and_nothing_else_does() {
        for deploy in [
            DeployConfig::CpuTvm,
            DeployConfig::Digital,
            DeployConfig::Analog,
            DeployConfig::Both,
        ] {
            assert_eq!(deploy.id().parse::<DeployConfig>(), Ok(deploy));
        }
        for alias in ["cpu", "tvm", "dig", "ana", "mixed", "Both", ""] {
            let err = alias.parse::<DeployConfig>().unwrap_err();
            assert!(err.contains("cpu_tvm|digital|analog|both"), "{err}");
        }
    }

    #[test]
    fn bitwidth_selects_engine() {
        let (g8, r8) = conv_graph(DType::I8);
        let (gt, rt) = conv_graph(DType::Ternary);
        assert_eq!(
            rule_for(&g8, r8, DeployConfig::Both),
            Some(EngineKind::Digital)
        );
        assert_eq!(
            rule_for(&gt, rt, DeployConfig::Both),
            Some(EngineKind::Analog)
        );
    }

    #[test]
    fn disabled_engines_reject() {
        let (g8, r8) = conv_graph(DType::I8);
        let (gt, rt) = conv_graph(DType::Ternary);
        assert_eq!(rule_for(&g8, r8, DeployConfig::Analog), None);
        assert_eq!(rule_for(&gt, rt, DeployConfig::Digital), None);
        assert_eq!(rule_for(&g8, r8, DeployConfig::CpuTvm), None);
    }

    #[test]
    fn depthwise_never_goes_analog() {
        let mut b = GraphBuilder::new();
        let x = b.input("x", &[16, 16, 16], DType::I8);
        let w = b.constant("w", Tensor::zeros(DType::I8, &[16, 3, 3]));
        let c = b.depthwise_conv2d(x, w, (1, 1), (1, 1, 1, 1)).unwrap();
        let q = b.requantize(c, 7, true).unwrap();
        let g = b.finish(&[q]).unwrap();
        assert_eq!(rule_for(&g, q, DeployConfig::Analog), None);
        assert_eq!(
            rule_for(&g, q, DeployConfig::Both),
            Some(EngineKind::Digital)
        );
    }

    #[test]
    fn large_strides_fall_back() {
        let mut b = GraphBuilder::new();
        let x = b.input("x", &[4, 16, 16], DType::I8);
        let w = b.constant("w", Tensor::zeros(DType::I8, &[4, 4, 3, 3]));
        let c = b.conv2d(x, w, (4, 4), (1, 1, 1, 1)).unwrap();
        let q = b.requantize(c, 7, false).unwrap();
        let g = b.finish(&[q]).unwrap();
        assert_eq!(rule_for(&g, q, DeployConfig::Both), None);
    }

    #[test]
    fn matmul_routes_digital_only() {
        let mut b = GraphBuilder::new();
        let x = b.input("x", &[2, 16, 8], DType::I8);
        let m = b.matmul(x, x, true).unwrap();
        let q = b.requantize(m, 6, false).unwrap();
        let g = b.finish(&[q]).unwrap();
        assert_eq!(
            rule_for(&g, q, DeployConfig::Both),
            Some(EngineKind::Digital)
        );
        assert_eq!(
            rule_for(&g, q, DeployConfig::Digital),
            Some(EngineKind::Digital)
        );
        // The analog array cannot stage runtime operands as weights.
        assert_eq!(rule_for(&g, q, DeployConfig::Analog), None);
        assert_eq!(rule_for(&g, q, DeployConfig::CpuTvm), None);
    }

    #[test]
    fn engine_accepts_names_the_first_failed_check() {
        use htvm_dory::LayerGeometry;
        use htvm_ir::PoolKind;
        use htvm_soc::FusedPool;
        use DeployConfig::{Analog, Both};
        use EngineKind::{Cpu, Digital};

        let layer = |geom| ExtractedLayer {
            geom,
            weights: None,
            bias: None,
            shift: 0,
            relu: false,
            pool: None,
            data_inputs: Vec::new(),
        };
        let conv = LayerGeometry::conv2d(16, 16, 16, 16, 3, 3, (1, 1), (1, 1, 1, 1));
        let with = |edit: fn(&mut LayerGeometry)| {
            let mut geom = conv.clone();
            edit(&mut geom);
            layer(geom)
        };
        let ternary = with(|g| g.w_dtype = DType::Ternary);
        // 256 KiB of input: it tiles, but never sits in L1 whole.
        let big = LayerGeometry::conv2d(64, 64, 64, 64, 3, 3, (1, 1), (1, 1, 1, 1));
        let pooled = |geom| ExtractedLayer {
            pool: Some(FusedPool {
                kind: PoolKind::Avg,
                kernel: (2, 2),
                strides: (2, 2),
                padding: (0, 0, 0, 0).into(),
            }),
            ..layer(geom)
        };
        let roomy = DianaConfig::default();
        let tiny_l1 = DianaConfig {
            l1_act_bytes: 8,
            ..roomy
        };
        for (deploy, cfg, layer, engine, verdict) in [
            (Both, roomy, layer(conv.clone()), Digital, Ok(())),
            (Both, roomy, ternary.clone(), EngineKind::Analog, Ok(())),
            (Both, roomy, layer(big.clone()), Digital, Ok(())),
            (Both, roomy, pooled(conv.clone()), Digital, Ok(())),
            (
                Analog,
                roomy,
                layer(conv.clone()),
                Digital,
                Err(Refusal::NotInDeploy),
            ),
            (
                Both,
                roomy,
                layer(conv.clone()),
                Cpu,
                Err(Refusal::NotAccelerator),
            ),
            (
                Both,
                roomy,
                with(|g| g.act_dtype = DType::I16),
                Digital,
                Err(Refusal::ActDType),
            ),
            (Both, roomy, ternary, Digital, Err(Refusal::WeightDType)),
            (
                Both,
                roomy,
                layer(conv.clone()),
                EngineKind::Analog,
                Err(Refusal::WeightDType),
            ),
            (
                Both,
                roomy,
                layer(LayerGeometry::depthwise(
                    16,
                    16,
                    16,
                    3,
                    3,
                    (1, 1),
                    (1, 1, 1, 1),
                )),
                EngineKind::Analog,
                Err(Refusal::Kind),
            ),
            (
                Both,
                roomy,
                with(|g| g.strides = (3, 3)),
                Digital,
                Err(Refusal::Stride),
            ),
            (
                Both,
                roomy,
                with(|g| (g.fy, g.fx) = (13, 13)),
                Digital,
                Err(Refusal::Kernel),
            ),
            (
                Both,
                tiny_l1,
                layer(conv.clone()),
                Digital,
                Err(Refusal::NoTileFits),
            ),
            (
                Both,
                roomy,
                pooled(big),
                Digital,
                Err(Refusal::PoolNeedsUntiled),
            ),
        ] {
            assert_eq!(
                engine_accepts(&cfg, deploy, &layer, engine),
                verdict,
                "{:?} on {engine:?} under {deploy:?}",
                layer.geom
            );
        }
    }

    #[test]
    fn add_prefers_digital_but_accepts_analog() {
        let mut b = GraphBuilder::new();
        let x = b.input("x", &[4, 8, 8], DType::I8);
        let y = b.input("y", &[4, 8, 8], DType::I8);
        let s = b.add(x, y).unwrap();
        let q = b.requantize(s, 0, false).unwrap();
        let g = b.finish(&[q]).unwrap();
        assert_eq!(
            rule_for(&g, q, DeployConfig::Both),
            Some(EngineKind::Digital)
        );
        assert_eq!(
            rule_for(&g, q, DeployConfig::Analog),
            Some(EngineKind::Analog)
        );
    }
}
