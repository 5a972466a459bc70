//! Accelerator-aware dispatch rules.

use htvm_codegen::{engine_budget, extract};
use htvm_dory::{feasible, LayerKind};
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
    /// Is the digital engine available?
    #[must_use]
    pub fn digital_enabled(self) -> bool {
        matches!(self, DeployConfig::Digital | DeployConfig::Both)
    }

    /// Is the analog engine available?
    #[must_use]
    pub fn analog_enabled(self) -> bool {
        matches!(self, DeployConfig::Analog | DeployConfig::Both)
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

/// Checks whether `engine` can execute `geom` at all: capability (kind and
/// weight bit-width) plus tileability under the engine's memory system.
/// Used both by the built-in [`dispatch_rule`] and to validate user
/// dispatch overrides (the paper's "other user-defined parameters").
#[must_use]
pub fn engine_feasible(
    cfg: &DianaConfig,
    geom: &htvm_dory::LayerGeometry,
    engine: EngineKind,
) -> bool {
    let capable = match (engine, geom.kind, geom.w_dtype) {
        (EngineKind::Cpu, ..) => return true,
        (_, LayerKind::Add, _) => true,
        (EngineKind::Digital, LayerKind::DepthwiseConv2d, DType::I8) => true,
        (EngineKind::Digital, LayerKind::Conv2d | LayerKind::Dense, DType::I8) => true,
        // Activation×activation matmul stages its i8 rhs through the
        // digital weight memory; the analog array cannot host runtime
        // operands at all.
        (EngineKind::Digital, LayerKind::MatMul, DType::I8) => true,
        (EngineKind::Analog, LayerKind::Conv2d | LayerKind::Dense, DType::Ternary) => true,
        _ => false,
    };
    capable && engine_budget(cfg, engine).is_some_and(|budget| feasible(geom, &budget))
}

/// The accelerator-aware rule layer behind the pattern matcher (paper
/// §III-A): decides whether a structurally matched chain is offloaded, and
/// to which engine.
///
/// The paper's DIANA rule is quoted directly: *"Since both accelerators
/// support convolutions, we discern which accelerator to use by simply
/// looking at the provided weights' bit-width of the convolution: 8-bit
/// precision goes to digital, and ternary precision goes to analog."*
/// On top of that, per-engine capability checks apply:
///
/// - the analog array does not support depthwise convolutions (they fall
///   back to digital, or the CPU in the analog-only configuration),
/// - strides are limited to 1 or 2 and filters to ≤ 11 per side,
/// - the layer must be *tileable* for the engine's memory system — the
///   DORY solver must find a feasible tile (a dense layer whose single
///   row exceeds the digital weight memory, say, is rejected).
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
    let e = extract(graph, &pattern.name, m).ok()?;
    let g = &e.geom;
    if g.act_dtype != DType::I8 {
        return None;
    }
    if !matches!(g.strides, (1, 1) | (2, 2) | (1, 2) | (2, 1)) || g.fy > 11 || g.fx > 11 {
        return None;
    }
    let engine = match (g.kind, g.w_dtype) {
        (LayerKind::Add, _) => {
            // Both engines support residual addition; prefer digital.
            if deploy.digital_enabled() {
                EngineKind::Digital
            } else if deploy.analog_enabled() {
                EngineKind::Analog
            } else {
                return None;
            }
        }
        (LayerKind::DepthwiseConv2d, DType::I8) if deploy.digital_enabled() => EngineKind::Digital,
        (LayerKind::MatMul, DType::I8) if deploy.digital_enabled() => EngineKind::Digital,
        (LayerKind::Conv2d | LayerKind::Dense, DType::I8) if deploy.digital_enabled() => {
            EngineKind::Digital
        }
        (LayerKind::Conv2d | LayerKind::Dense, DType::Ternary) if deploy.analog_enabled() => {
            EngineKind::Analog
        }
        _ => return None,
    };
    // The layer must actually be tileable on the chosen engine.
    if !engine_feasible(cfg, g, engine) {
        return None;
    }
    // Fused output pooling only works when the whole layer sits in L1:
    // pooling windows may not cross tile borders.
    if e.pool.is_some() {
        let budget = engine_budget(cfg, engine)?;
        if !htvm_dory::tile_fits(g, &htvm_dory::TileConfig::full(g), &budget) {
            return None;
        }
    }
    Some(engine)
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
