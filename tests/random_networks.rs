//! End-to-end fuzzing: random network topologies through the whole
//! pipeline — pattern matching, dispatch, tiling, memory planning,
//! simulation — must stay bit-exact against the reference interpreter in
//! every deployment configuration.

use htvm::{Compiler, DeployConfig, Machine};
use htvm_ir::{DType, Graph, GraphBuilder, NodeId, PoolKind, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Debug, Clone, Copy)]
enum Block {
    Conv {
        k: usize,
        stride: usize,
        relu: bool,
        ternary: bool,
        /// Requantization tail: clip bounds and cast dtype.
        tail: (i32, i32, DType),
    },
    Depthwise,
    Residual,
    MaxPool,
    AvgPoolHead, // global avg pool + dense classifier; terminal-ish
}

/// The accelerator epilogue's requantization tail.
const I8_TAIL: (i32, i32, DType) = (-128, 127, DType::I8);

/// Tails a conv block draws from: mostly the i8 epilogue, plus a narrower
/// clip and a wider cast, which no accelerator computes as written.
const TAILS: [(i32, i32, DType); 5] = [
    I8_TAIL,
    I8_TAIL,
    I8_TAIL,
    (0, 100, DType::I8),
    (-128, 127, DType::I16),
];

fn block_strategy() -> impl Strategy<Value = Block> {
    prop_oneof![
        (
            prop_oneof![Just(8usize), Just(12), Just(16)],
            1usize..=2,
            any::<bool>(),
            any::<bool>(),
            0..TAILS.len()
        )
            .prop_map(|(k, stride, relu, ternary, tail)| Block::Conv {
                k,
                stride,
                relu,
                ternary,
                tail: TAILS[tail],
            }),
        Just(Block::Depthwise),
        Just(Block::Residual),
        Just(Block::MaxPool),
        Just(Block::AvgPoolHead),
    ]
}

fn rand_tensor(rng: &mut StdRng, dtype: DType, dims: &[usize]) -> Tensor {
    let mut t = Tensor::zeros(dtype, dims);
    let (lo, hi) = match dtype {
        DType::I32 => (-512, 512),
        d => d.range(),
    };
    for v in t.data_mut() {
        *v = rng.gen_range(lo..=hi);
    }
    t
}

/// Builds a random-but-valid network over a [4, 12, 12] input. Returns
/// `None` if the random block sequence degenerates (spatial dims too
/// small to continue).
fn build(blocks: &[Block], seed: u64) -> Option<Graph> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new();
    let x = b.input("x", &[4, 12, 12], DType::I8);
    let mut cur = x;
    let mut skip: Option<NodeId> = None;
    for (i, block) in blocks.iter().enumerate() {
        let dims = b.shape_of(cur).ok()?.dims().to_vec();
        if dims.len() != 3 {
            break; // a head block already flattened the network
        }
        let (c, h, w) = (dims[0], dims[1], dims[2]);
        match *block {
            Block::Conv {
                k,
                stride,
                relu,
                ternary,
                tail: (min, max, to),
            } => {
                if h < 3 || w < 3 {
                    continue;
                }
                let dtype = if ternary { DType::Ternary } else { DType::I8 };
                let wt = b.constant(
                    &format!("w{i}"),
                    rand_tensor(&mut rng, dtype, &[k, c, 3, 3]),
                );
                let bias = b.constant(&format!("b{i}"), rand_tensor(&mut rng, DType::I32, &[k]));
                let pad = if stride == 1 {
                    (1, 1, 1, 1)
                } else {
                    (0, 1, 0, 1)
                };
                let conv = b.conv2d(cur, wt, (stride, stride), pad).ok()?;
                let conv = b.bias_add(conv, bias).ok()?;
                skip = None;
                let shifted = b.right_shift(conv, 8).ok()?;
                let clipped = b.clip(shifted, min, max).ok()?;
                cur = b.cast(clipped, to).ok()?;
                if relu {
                    cur = b.relu(cur).ok()?;
                }
            }
            Block::Depthwise => {
                if h < 3 || w < 3 {
                    continue;
                }
                let wt = b.constant(
                    &format!("dw{i}"),
                    rand_tensor(&mut rng, DType::I8, &[c, 3, 3]),
                );
                let bias = b.constant(&format!("db{i}"), rand_tensor(&mut rng, DType::I32, &[c]));
                let d = b.depthwise_conv2d(cur, wt, (1, 1), (1, 1, 1, 1)).ok()?;
                let d = b.bias_add(d, bias).ok()?;
                skip = Some(cur);
                cur = b.requantize(d, 6, true).ok()?;
            }
            Block::Residual => {
                if let Some(s) = skip.take() {
                    let same = |id| (b.shape_of(id).ok().cloned(), b.dtype_of(id).ok());
                    if same(s) == same(cur) {
                        let sum = b.add(cur, s).ok()?;
                        cur = b.requantize(sum, 1, false).ok()?;
                    }
                }
            }
            Block::MaxPool => {
                if h < 2 || w < 2 {
                    continue;
                }
                skip = None;
                cur = b
                    .pool2d(cur, PoolKind::Max, (2, 2), (2, 2), (0, 0, 0, 0))
                    .ok()?;
            }
            Block::AvgPoolHead => {
                let p = b.global_avg_pool(cur).ok()?;
                let f = b.flatten(p).ok()?;
                let wt = b.constant(&format!("fc{i}"), rand_tensor(&mut rng, DType::I8, &[5, c]));
                let d = b.dense(f, wt).ok()?;
                cur = b.requantize(d, 7, false).ok()?;
                skip = None;
            }
        }
    }
    b.finish(&[cur]).ok()
}

proptest! {
    // Whole-pipeline runs are expensive; a modest case count still covers
    // a wide topology space across CI runs thanks to proptest's RNG.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_networks_stay_bit_exact(
        blocks in prop::collection::vec(block_strategy(), 1..10),
        seed in 0u64..1_000,
    ) {
        let Some(graph) = build(&blocks, seed) else {
            return Ok(()); // degenerate sequence; nothing to check
        };
        let input = htvm_models::random_input(seed ^ 0xABCD, &[4, 12, 12]);
        let expected =
            htvm_kernels::evaluate(&graph, std::slice::from_ref(&input)).expect("reference");
        for deploy in [
            DeployConfig::CpuTvm,
            DeployConfig::Digital,
            DeployConfig::Analog,
            DeployConfig::Both,
        ] {
            let compiler = Compiler::new().with_deploy(deploy);
            let artifact = match compiler.compile(&graph) {
                Ok(a) => a,
                // Tiny L2 overflows can legitimately happen for naive
                // allocation of pathological stacks; that is a valid
                // outcome, not a soundness failure.
                Err(htvm::CompileError::Lower(htvm::LowerError::OutOfMemory(_))) => continue,
                Err(e) => return Err(TestCaseError::fail(format!("{deploy:?}: {e}"))),
            };
            let machine = Machine::new(*compiler.platform());
            let report = machine
                .run(&artifact.program, std::slice::from_ref(&input))
                .map_err(|e| TestCaseError::fail(format!("{deploy:?}: {e}")))?;
            prop_assert_eq!(&report.outputs[0], &expected[0], "config {:?}", deploy);
            prop_assert!(report.peak_cycles() <= report.total_cycles());
        }
    }
}

#[test]
fn generator_produces_nontrivial_networks() {
    // Guard against the fuzz test silently degenerating: a known block
    // sequence must build a graph with accelerator-eligible layers, and
    // the Both config must offload them.
    let blocks = [
        Block::Conv {
            k: 8,
            stride: 1,
            relu: true,
            ternary: false,
            tail: I8_TAIL,
        },
        Block::Depthwise,
        Block::Residual,
        Block::Conv {
            k: 12,
            stride: 2,
            relu: true,
            ternary: true,
            tail: I8_TAIL,
        },
        Block::MaxPool,
        Block::AvgPoolHead,
    ];
    let graph = build(&blocks, 7).expect("builds");
    assert!(graph.total_macs() > 10_000, "macs: {}", graph.total_macs());
    let artifact = Compiler::new()
        .with_deploy(DeployConfig::Both)
        .compile(&graph)
        .expect("compiles");
    assert!(artifact.offload_fraction() > 0.9);
    assert!(artifact.steps_on(htvm::EngineKind::Analog) >= 1);
    assert!(artifact.steps_on(htvm::EngineKind::Digital) >= 2);
}
