//! The device program: what HTVM's code generation emits and the
//! [`Machine`](crate::Machine) executes.
//!
//! On real DIANA silicon HTVM emits C that the RISC-V host runs; here the
//! equivalent artifact is a [`Program`]: L2 buffer declarations with
//! planned offsets plus a sequence of [`Step`]s — accelerator layer calls
//! (with their DORY tile configuration baked in) and fused CPU kernels.

use htvm_dory::{LayerGeometry, TileConfig};
use htvm_ir::{Graph, Padding2d, PoolKind, Shape, Tensor};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A pooling stage fused into an accelerator layer's output path (paper
/// §III-C: both DIANA accelerators execute "some pooling operations at the
/// output"). Fused pooling is only dispatched for layers that fit L1
/// untiled, since pooling windows may not cross tile borders.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FusedPool {
    /// Average or max pooling.
    pub kind: PoolKind,
    /// Window `(ky, kx)`.
    pub kernel: (usize, usize),
    /// Stride `(sy, sx)`.
    pub strides: (usize, usize),
    /// Zero padding.
    pub padding: Padding2d,
}

/// Which engine executes a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EngineKind {
    /// The RISC-V host running TVM-style fused C kernels.
    Cpu,
    /// The digital 16×16 PE accelerator.
    Digital,
    /// The analog in-memory-compute accelerator.
    Analog,
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            EngineKind::Cpu => "cpu",
            EngineKind::Digital => "digital",
            EngineKind::Analog => "analog",
        })
    }
}

/// Identifier of an L2 buffer within one [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BufferId(pub usize);

/// The role of a buffer in the deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BufferKind {
    /// External network input, written by the caller before `run`.
    Input,
    /// Network output, read by the caller after `run`.
    Output,
    /// Intermediate activation, planned into L2 by the memory schedule.
    Intermediate,
}

/// One L2 activation buffer with its planned placement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BufferDecl {
    /// Identifier referenced by steps.
    pub id: BufferId,
    /// Debug name (usually the producing layer).
    pub name: String,
    /// Logical tensor shape.
    pub shape: Shape,
    /// Element type.
    pub dtype: htvm_ir::DType,
    /// Planned byte offset in the L2 activation arena.
    pub offset: usize,
    /// Size in bytes at the nominal precision.
    pub size: usize,
    /// Role of the buffer.
    pub kind: BufferKind,
}

/// A coarse-grained accelerator layer call: one matched pattern lowered
/// through the DORY backend, carrying everything the engine needs —
/// geometry, the solved tile configuration, weights/bias in the layout the
/// engine consumes, and the fused requantization parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccelLayerDesc {
    /// Layer name (for profiles and reports).
    pub name: String,
    /// The layer geometry (also identifies the kind: conv/dw/dense/add).
    pub geom: LayerGeometry,
    /// The tile configuration chosen by the DORY solver.
    pub tile: TileConfig,
    /// Weights (`[K,C,Fy,Fx]`, `[C,Fy,Fx]` or `[K,C]`); `None` for add.
    pub weights: Option<Tensor>,
    /// Per-output-channel bias (`[K]`, i32); `None` when the pattern had
    /// no bias.
    pub bias: Option<Tensor>,
    /// Requantization right-shift applied on the accelerator output path.
    pub shift: u32,
    /// Whether a fused ReLU follows requantization.
    pub relu: bool,
    /// Optional pooling stage on the accelerator output path.
    pub pool: Option<FusedPool>,
}

/// One step of the generated single entry-point function (the paper's
/// "single C function that executes all kernels sequentially").
// Programs hold at most a few dozen steps, so the size skew between the
// fat accelerator descriptor and the CPU variant costs nothing; boxing
// would only add indirection on the executor's hot path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Step {
    /// Offloaded layer on an accelerator.
    Accel {
        /// Digital or analog.
        engine: EngineKind,
        /// The lowered layer.
        desc: AccelLayerDesc,
        /// Input activation buffer.
        input: BufferId,
        /// Second operand for element-wise add layers.
        input2: Option<BufferId>,
        /// Output activation buffer.
        output: BufferId,
    },
    /// A fused CPU kernel: a connected sub-graph executed by TVM-generated
    /// host code. The sub-graph's inputs map to `inputs` in order.
    CpuFused {
        /// Kernel name (for profiles).
        name: String,
        /// The operator chain as an executable graph.
        graph: Graph,
        /// L2 buffers feeding the sub-graph inputs, in graph-input order.
        inputs: Vec<BufferId>,
        /// Output buffer.
        output: BufferId,
    },
}

impl Step {
    /// The engine this step runs on.
    #[must_use]
    pub fn engine(&self) -> EngineKind {
        match self {
            Step::Accel { engine, .. } => *engine,
            Step::CpuFused { .. } => EngineKind::Cpu,
        }
    }

    /// The step's display name.
    #[must_use]
    pub fn name(&self) -> &str {
        match self {
            Step::Accel { desc, .. } => &desc.name,
            Step::CpuFused { name, .. } => name,
        }
    }

    /// The step's output buffer.
    #[must_use]
    pub fn output(&self) -> BufferId {
        match self {
            Step::Accel { output, .. } | Step::CpuFused { output, .. } => *output,
        }
    }
}

/// A compiled deployment for the simulated SoC.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Program {
    /// All L2 activation buffers (inputs, outputs, intermediates).
    pub buffers: Vec<BufferDecl>,
    /// The execution schedule.
    pub steps: Vec<Step>,
    /// Network input buffers in signature order.
    pub inputs: Vec<BufferId>,
    /// Network output buffers in signature order.
    pub outputs: Vec<BufferId>,
    /// Peak bytes of the planned L2 activation arena.
    pub activation_peak: usize,
    /// The compiler's record of each accelerator step's DMA descriptor
    /// program. The simulator never reads this field: the machine
    /// linearizes every step from its descriptor, so the table cannot
    /// change a cycle or a bit. It stays in the artifact format until its
    /// deletion takes the cache-format bump.
    #[serde(default)]
    pub dma: crate::DmaTable,
}

impl Program {
    /// Looks up a buffer declaration.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a buffer of this program.
    #[must_use]
    pub fn buffer(&self, id: BufferId) -> &BufferDecl {
        &self.buffers[id.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_display() {
        assert_eq!(EngineKind::Cpu.to_string(), "cpu");
        assert_eq!(EngineKind::Digital.to_string(), "digital");
        assert_eq!(EngineKind::Analog.to_string(), "analog");
    }
}
