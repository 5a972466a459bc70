//! Image classification: deploy the MLPerf™ Tiny ResNet-8 and audit the
//! compiler's decisions — per-layer engine assignment, tile configurations
//! chosen by the DORY solver, the L2 memory schedule, and the cycle
//! breakdown the paper reads from DIANA's hardware counters.
//!
//! ```sh
//! cargo run --release -p htvm --example image_classification
//! ```

use htvm::{Compiler, DeployConfig, Machine};
use htvm_models::{resnet8, QuantScheme};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = resnet8(QuantScheme::Int8);
    let compiler = Compiler::new().with_deploy(DeployConfig::Digital);
    let artifact = compiler.compile(&model.graph)?;

    println!("ResNet-8 on simulated DIANA (digital configuration)\n");
    println!("== layer assignment ==");
    for a in artifact.assignments() {
        println!(
            "  {:<28} -> {:<8} {:<24} {:>9} MACs, {} tiles",
            a.name,
            a.engine.to_string(),
            a.pattern.unwrap_or("(tvm fused kernel)"),
            a.macs,
            a.n_tiles
        );
    }

    println!("\n== l2 memory schedule ==");
    println!(
        "  activation arena peak: {} bytes (of {} byte L2, {} kB binary)",
        artifact.program.activation_peak,
        compiler.platform().l2_bytes,
        artifact.binary.total_kb()
    );
    for buf in &artifact.program.buffers {
        println!(
            "  {:<28} {:?}{:<14} @ {:>6} (+{} bytes)",
            buf.name,
            buf.kind,
            buf.shape.to_string(),
            buf.offset,
            buf.size
        );
    }

    let machine = Machine::new(*compiler.platform());
    let report = machine.run(&artifact.program, &[model.input(1)])?;
    println!("\n== cycle breakdown ==");
    println!(
        "  {:<28} {:>10} {:>10} {:>10} {:>10}",
        "layer", "compute", "dma", "weights", "overhead"
    );
    for l in &report.layers {
        println!(
            "  {:<28} {:>10} {:>10} {:>10} {:>10}",
            l.name, l.cycles.compute, l.cycles.dma, l.cycles.weight_load, l.cycles.overhead
        );
    }
    println!(
        "\ntotal: {} cycles = {:.3} ms @260 MHz (peak {:.3} ms)",
        report.total_cycles(),
        compiler.platform().cycles_to_ms(report.total_cycles()),
        compiler.platform().cycles_to_ms(report.peak_cycles()),
    );

    // Top-1 result of the (synthetic-weight) classifier, to show the
    // artifact really computes.
    let probs = &report.outputs[0];
    let top = probs
        .data()
        .iter()
        .enumerate()
        .max_by_key(|(_, &v)| v)
        .map(|(i, _)| i)
        .expect("non-empty output");
    println!("predicted class (synthetic weights): {top}");
    Ok(())
}
