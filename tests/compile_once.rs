//! A compile touches each constant once: the weights an artifact carries
//! are the allocations of the graph it was compiled from (and of the host
//! graph a fault derives from a step), and a graph that really does fold
//! still goes through the full fold → re-verify path.

use htvm::{Compiler, DType, DeployConfig, Graph, GraphBuilder, Step, Tensor};
use htvm_models::{resnet8, QuantScheme};
use htvm_soc::cpu_fallback;
use std::collections::HashMap;

/// Payload address → name, for every constant of `graph`.
fn constant_allocations(graph: &Graph) -> HashMap<*const i32, &str> {
    graph
        .nodes()
        .filter_map(|(_, n)| Some((n.constant()?.data().as_ptr(), n.name.as_str())))
        .collect()
}

/// Compiles `graph` and returns how many accelerator steps the artifact
/// has and the distinct graph constants its steps alias — after asserting
/// that every constant it carries *is* one of the graph's allocations.
fn aliased_constants(graph: &Graph, deploy: DeployConfig) -> (usize, usize) {
    let owned = constant_allocations(graph);
    let artifact = Compiler::new()
        .with_deploy(deploy)
        .compile(graph)
        .expect("compiles");

    let mut aliased = Vec::new();
    let mut check = |what: String, t: &Tensor| {
        let ptr = t.data().as_ptr();
        assert!(
            owned.contains_key(&ptr),
            "{what} was copied out of the graph"
        );
        aliased.push(ptr);
    };
    let mut accel_steps = 0;
    for step in &artifact.program.steps {
        match step {
            Step::Accel { desc, .. } => {
                accel_steps += 1;
                // The host graph an engine-off fault derives from the step
                // shares the descriptor's payloads: degrading copies no weight.
                let fallback = cpu_fallback(desc).expect("emitted steps have a host form");
                let fallback_constant = |name: &str| {
                    fallback
                        .nodes()
                        .find(|(_, n)| n.name == name)
                        .and_then(|(_, n)| n.constant())
                };
                for (operand, in_desc, in_fallback) in [
                    ("weights", &desc.weights, fallback_constant("w")),
                    ("bias", &desc.bias, fallback_constant("bias")),
                ] {
                    assert_eq!(in_desc.as_ref(), in_fallback, "{} {operand}", desc.name);
                    if let (Some(d), Some(f)) = (in_desc, in_fallback) {
                        assert_eq!(d.data().as_ptr(), f.data().as_ptr());
                        check(format!("{} {operand}", desc.name), d);
                    }
                }
            }
            Step::CpuFused { name, graph, .. } => {
                for (_, n) in graph.nodes() {
                    if let Some(t) = n.constant() {
                        check(format!("{name} constant {}", n.name), t);
                    }
                }
            }
        }
    }
    aliased.sort_unstable();
    aliased.dedup();
    (accel_steps, aliased.len())
}

#[test]
fn artifact_constants_alias_the_input_graph() {
    // ResNet-8: 10 weighted layers, each with weights and a bias. Offloaded
    // (`extract`, `cpu_fallback`) or fused into CPU kernels
    // (`build_segment`), all 20 constants reach the artifact uncopied.
    let mixed = resnet8(QuantScheme::Mixed);
    assert_eq!(
        aliased_constants(&mixed.graph, DeployConfig::Both),
        (13, 20)
    );
    let int8 = resnet8(QuantScheme::Int8);
    assert_eq!(
        aliased_constants(&int8.graph, DeployConfig::CpuTvm),
        (0, 20)
    );

    // The copying pass signatures copy nodes, not payloads.
    let owned = constant_allocations(&mixed.graph);
    for rewritten in [
        htvm_ir::passes::fold_constants(&mixed.graph).0,
        htvm_ir::passes::eliminate_dead_nodes(&mixed.graph).0,
    ] {
        assert_eq!(constant_allocations(&rewritten).len(), owned.len());
        for (ptr, name) in constant_allocations(&rewritten) {
            assert_eq!(owned.get(&ptr), Some(&name));
        }
    }
}

#[test]
fn folding_graph_still_folds_reverifies_and_compiles_as_before() {
    // `passes/fold.rs`'s chain: const -> shift -> clip -> cast, added to
    // an input. Three ops fold into one constant.
    let mut b = GraphBuilder::new();
    let c = b.constant(
        "c",
        Tensor::new(DType::I32, &[3], vec![-5, 0, 900]).unwrap(),
    );
    let s = b.right_shift(c, 1).unwrap();
    let cl = b.clip(s, -128, 127).unwrap();
    let cast = b.cast(cl, DType::I8).unwrap();
    let x = b.input("x", &[3], DType::I8);
    let y = b.add(x, cast).unwrap();
    let g = b.finish(&[y]).unwrap();

    let (folded, n) = htvm_ir::passes::simplify(&g).expect("the chain folds");
    assert_eq!((n, folded.len()), (3, 3));
    assert_eq!(htvm_ir::passes::fold_constants(&g), (folded.clone(), 3));
    assert!(htvm_ir::passes::simplify(&folded).is_none(), "fixed point");

    // The steps and buffers recorded at the commit before constants were
    // shared (PR 17): the CPU kernel carries the folded constant.
    let artifact = Compiler::new().compile(&g).expect("compiles");
    assert_eq!(
        serde_json::to_string(&artifact.program.steps).unwrap(),
        concat!(
            r#"[{"CpuFused":{"name":"cpu_2","graph":{"nodes":["#,
            r#"{"name":"x","kind":"Input","shape":[3],"dtype":"I8"},"#,
            r#"{"name":"cast_3_folded","kind":{"Constant":{"dtype":"I8","shape":[3],"#,
            r#""data":"/QB/"}},"shape":[3],"dtype":"I8"},"#,
            r#"{"name":"add_2","kind":{"Op":{"op":"Add","inputs":[0,1]}},"#,
            r#""shape":[3],"dtype":"I32"}],"inputs":[0],"outputs":[2]},"#,
            r#""inputs":[0],"output":1}}]"#
        )
    );
    assert_eq!(
        serde_json::to_string(&artifact.program.buffers).unwrap(),
        concat!(
            r#"[{"id":0,"name":"x","shape":[3],"dtype":"I8","offset":12,"size":3,"kind":"Input"},"#,
            r#"{"id":1,"name":"add_5","shape":[3],"dtype":"I32","offset":0,"size":12,"#,
            r#""kind":"Output"}]"#
        )
    );
    // Compiling the pre-folded graph is the same compile.
    assert_eq!(artifact, Compiler::new().compile(&folded).unwrap());
}
