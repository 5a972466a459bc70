//! Pseudo-C listing of a compiled program.
//!
//! On silicon, HTVM emits C: a single entry function that calls
//! DORY-generated tile loops and TVM-generated fused kernels. The
//! simulator executes a structured [`Program`] instead, but the listing
//! here renders that program in the shape of the generated code — tile
//! loops, DMA calls, accelerator triggers — so the compiler's output can
//! be inspected and diffed like DORY's.

use crate::{EngineKind, Program, Step};
use htvm_dory::tiles;
use std::fmt::Write as _;

/// Renders the program as a pseudo-C listing.
///
/// # Examples
///
/// For a compiled ResNet-8 the listing looks like:
///
/// ```text
/// // generated by htvm-rs — single sequential entry point
/// static i8 l2_0   /* image  */ at 0x000000; // 3072 bytes, Input
/// ...
/// void network_run(void) {
///   // conv2d_bias_requant_8 [digital]: Conv2d c=3 k=16 32x32 f3x3 ...
///   for (tile = 0; tile < 1; ++tile) {
///     dma_in(l2_0, l1_in, 3072 bytes, 1 transfers);
///     digital_load_weights(l1_w);
///     digital_trigger(); digital_wait();
///     if (last_reduction_slice) dma_out(l1_out, l2_2, requant(shift=13, relu=true));
///   }
///   ...
/// }
/// ```
#[must_use]
pub fn render_listing(program: &Program) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "// generated by htvm-rs — single sequential entry point");
    let _ = writeln!(
        s,
        "// l2 activation arena: {} bytes peak",
        program.activation_peak
    );
    for b in &program.buffers {
        let _ = writeln!(
            s,
            "static {} l2_{:<3} /* {:<24} */ at 0x{:06x}; // {} bytes, {:?}",
            b.dtype, b.id.0, b.name, b.offset, b.size, b.kind
        );
    }
    let _ = writeln!(s, "\nvoid network_run(void) {{");
    for step in &program.steps {
        match step {
            Step::Accel {
                engine,
                desc,
                input,
                input2,
                output,
            } => {
                let geom = &desc.geom;
                let _ = writeln!(
                    s,
                    "  // {} [{}]: {:?} c={} k={} {}x{} f{}x{} tile(c={},k={},oy={},ox={})",
                    desc.name,
                    engine,
                    geom.kind,
                    geom.c,
                    geom.k,
                    geom.iy,
                    geom.ix,
                    geom.fy,
                    geom.fx,
                    desc.tile.c_t,
                    desc.tile.k_t,
                    desc.tile.oy_t,
                    desc.tile.ox_t
                );
                let instances = tiles(geom, &desc.tile);
                let _ = writeln!(s, "  for (tile = 0; tile < {}; ++tile) {{", instances.len());
                let example = &instances[0];
                let in2 = input2.map_or(String::new(), |b| format!(" + l2_{}", b.0));
                let _ = writeln!(
                    s,
                    "    dma_in(l2_{}{in2}, l1_in, {} bytes, {} transfers);",
                    input.0,
                    example.input_bytes(geom),
                    example.input_chunks(geom)
                );
                match engine {
                    EngineKind::Digital => {
                        let _ = writeln!(s, "    digital_load_weights(l1_w);");
                        let _ = writeln!(s, "    digital_trigger(); digital_wait();");
                    }
                    EngineKind::Analog => {
                        let _ = writeln!(s, "    aimc_program_rows();");
                        let _ = writeln!(s, "    aimc_trigger(); aimc_wait();");
                    }
                    EngineKind::Cpu => {}
                }
                let _ = writeln!(
                    s,
                    "    if (last_reduction_slice) dma_out(l1_out, l2_{}, requant(shift={}, relu={}));",
                    output.0, desc.shift, desc.relu
                );
                let _ = writeln!(s, "  }}");
                if let Some(pool) = &desc.pool {
                    let _ = writeln!(
                        s,
                        "  output_pool({:?}, {}x{}, stride {}x{});",
                        pool.kind, pool.kernel.0, pool.kernel.1, pool.strides.0, pool.strides.1
                    );
                }
            }
            Step::CpuFused {
                name,
                graph,
                inputs,
                output,
            } => {
                let args: Vec<String> = inputs.iter().map(|b| format!("l2_{}", b.0)).collect();
                let ops: Vec<&str> = graph
                    .nodes()
                    .filter_map(|(_, n)| n.op().map(htvm_ir::Op::name))
                    .collect();
                let _ = writeln!(
                    s,
                    "  {}({}, l2_{}); // fused: {}",
                    name,
                    args.join(", "),
                    output.0,
                    ops.join(" -> ")
                );
            }
        }
    }
    let _ = writeln!(s, "}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccelLayerDesc, BufferDecl, BufferId, BufferKind};
    use htvm_dory::{LayerGeometry, TileConfig};
    use htvm_ir::{DType, Shape, Tensor};

    fn one_layer_program() -> Program {
        let geom = LayerGeometry::conv2d(4, 4, 8, 8, 3, 3, (1, 1), (1, 1, 1, 1));
        let tile = TileConfig {
            c_t: 4,
            k_t: 4,
            oy_t: 4,
            ox_t: 8,
        };
        Program {
            buffers: vec![
                BufferDecl {
                    id: BufferId(0),
                    name: "input".into(),
                    shape: Shape::new(&[4, 8, 8]),
                    dtype: DType::I8,
                    offset: 0,
                    size: 256,
                    kind: BufferKind::Input,
                },
                BufferDecl {
                    id: BufferId(1),
                    name: "out".into(),
                    shape: Shape::new(&[4, 8, 8]),
                    dtype: DType::I8,
                    offset: 256,
                    size: 256,
                    kind: BufferKind::Output,
                },
            ],
            steps: vec![Step::Accel {
                engine: EngineKind::Digital,
                desc: AccelLayerDesc {
                    name: "conv".into(),
                    weights: Some(Tensor::zeros(DType::I8, &[4, 4, 3, 3])),
                    bias: None,
                    shift: 5,
                    relu: true,
                    pool: None,
                    geom,
                    tile,
                },
                input: BufferId(0),
                input2: None,
                output: BufferId(1),
            }],
            inputs: vec![BufferId(0)],
            outputs: vec![BufferId(1)],
            activation_peak: 512,
            dma: crate::DmaTable::default(),
        }
    }

    #[test]
    fn listing_shows_tile_loop_and_dma() {
        let s = render_listing(&one_layer_program());
        assert!(s.contains("void network_run"));
        assert!(s.contains("for (tile = 0; tile < 2; ++tile)"));
        assert!(s.contains("dma_in(l2_0"));
        assert!(s.contains("digital_trigger()"));
        assert!(s.contains("requant(shift=5, relu=true)"));
        assert!(s.contains("at 0x000100")); // offset 256
    }

    #[test]
    fn listing_names_fused_cpu_kernels() {
        use htvm_ir::GraphBuilder;
        let mut b = GraphBuilder::new();
        let x = b.input("x", &[4], DType::I8);
        let y = b.softmax(x).unwrap();
        let g = b.finish(&[y]).unwrap();
        let mut p = one_layer_program();
        p.steps.push(Step::CpuFused {
            name: "cpu_softmax".into(),
            graph: g,
            inputs: vec![BufferId(1)],
            output: BufferId(0),
        });
        let s = render_listing(&p);
        assert!(s.contains("cpu_softmax(l2_1, l2_0); // fused: nn.softmax"));
    }
}
