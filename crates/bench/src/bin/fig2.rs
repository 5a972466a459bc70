//! Regenerates **Fig. 2** of the HTVM paper: the time diagram of a neural
//! network deployed with HTVM — one sequential kernel stream hopping
//! between the CPU and the two accelerators, with DMA/runtime fringes
//! around the accelerator bursts.
//!
//! ```sh
//! cargo run --release -p htvm-bench --bin fig2 [-- --model <name>]
//! ```

use htvm::{Compiler, DeployConfig, Machine};
use htvm_models::{all_models, QuantScheme};
use htvm_soc::render_timeline;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let model_name = args
        .iter()
        .position(|a| a == "--model")
        .and_then(|i| args.get(i + 1))
        .map_or("resnet8", String::as_str);
    let model = all_models(QuantScheme::Mixed)
        .into_iter()
        .find(|m| m.name == model_name)
        .unwrap_or_else(|| {
            eprintln!("unknown model '{model_name}', using resnet8");
            all_models(QuantScheme::Mixed)
                .into_iter()
                .find(|m| m.name == "resnet8")
                .expect("resnet8 exists")
        });

    let compiler = Compiler::new().with_deploy(DeployConfig::Both);
    let artifact = compiler.compile(&model.graph).expect("compiles");
    let machine = Machine::new(*compiler.platform());
    let report = machine
        .run(&artifact.program, &[model.input(7)])
        .expect("runs");

    println!(
        "FIG. 2: time diagram of {} deployed with HTVM (mixed configuration)\n",
        model.name
    );
    print!("{}", render_timeline(&report));
    println!(
        "\nend-to-end: {:.3} ms @260 MHz; engines used: cpu {}, digital {}, analog {}",
        compiler.platform().cycles_to_ms(report.total_cycles()),
        artifact.steps_on(htvm::EngineKind::Cpu),
        artifact.steps_on(htvm::EngineKind::Digital),
        artifact.steps_on(htvm::EngineKind::Analog),
    );
}
