//! `htvmc` — a small command-line front end to the HTVM-RS compiler:
//! deploy an MLPerf™ Tiny model to a DIANA configuration and print the
//! compilation report, per-layer profile and latency/size/energy summary.
//!
//! ```text
//! htvmc --model resnet8 --deploy digital [--scheme int8] [--profile] [--json]
//!
//!   --model      ds_cnn | mobilenet_v1 | resnet8 | toyadmos_dae
//!   --from-file  path to an HTF model file (docs/FRONTEND.md); overrides
//!                --model; input defaults to seeded random data
//!   --deploy     cpu_tvm | digital | analog | both  (default: both)
//!   --scheme     int8 | ternary | mixed             (default: paper's
//!                recipe for the chosen deployment)
//!   --profile    print the per-layer cycle breakdown
//!   --listing    print the generated pseudo-C program (tile loops, DMA)
//!   --json       machine-readable output
//! ```

use htvm::{Compiler, DeployConfig, Machine};
use htvm_bench::report::import_file;
use htvm_bench::scheme_for;
use htvm_models::{all_models, Model, QuantScheme};
use htvm_soc::EnergyConfig;
use std::process::ExitCode;

struct Args {
    model: String,
    model_path: Option<String>,
    deploy: DeployConfig,
    scheme: Option<QuantScheme>,
    profile: bool,
    listing: bool,
    json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        model: String::new(),
        model_path: None,
        deploy: DeployConfig::Both,
        scheme: None,
        profile: false,
        listing: false,
        json: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--model" => {
                args.model = it.next().ok_or("--model needs a value")?;
            }
            "--from-file" => {
                args.model_path = Some(it.next().ok_or("--from-file needs a value")?);
            }
            "--deploy" => {
                args.deploy = it.next().ok_or("--deploy needs a value")?.parse()?;
            }
            "--scheme" => {
                args.scheme = Some(match it.next().ok_or("--scheme needs a value")?.as_str() {
                    "int8" | "i8" => QuantScheme::Int8,
                    "ternary" => QuantScheme::Ternary,
                    "mixed" => QuantScheme::Mixed,
                    other => return Err(format!("unknown scheme '{other}'")),
                });
            }
            "--profile" => args.profile = true,
            "--listing" => args.listing = true,
            "--json" => args.json = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.model.is_empty() && args.model_path.is_none() {
        return Err("missing --model or --from-file".into());
    }
    Ok(args)
}

fn find_model(name: &str, scheme: QuantScheme) -> Option<Model> {
    all_models(scheme).into_iter().find(|m| m.name == name)
}

/// Imports an HTF model file as a model; the input shape comes from the
/// graph's first declared input.
fn load_model_file(path: &str) -> Result<Model, String> {
    let graph = import_file(path).map_err(|e| e.to_string())?;
    let &first = graph
        .inputs()
        .first()
        .ok_or_else(|| "graph declares no inputs".to_owned())?;
    if graph.inputs().len() != 1 {
        return Err("htvmc drives single-input graphs only".into());
    }
    let input_dims = graph.node(first).shape.dims().to_vec();
    Ok(Model {
        name: "external",
        graph,
        input_dims,
        scheme: QuantScheme::Int8,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}\n");
            }
            eprintln!(
                "usage: htvmc --model <ds_cnn|mobilenet_v1|resnet8|toyadmos_dae> | \
                 --from-file <model.htf> \
                 [--deploy cpu_tvm|digital|analog|both] [--scheme int8|ternary|mixed] \
                 [--profile] [--listing] [--json]"
            );
            return ExitCode::from(2);
        }
    };
    let scheme = args.scheme.unwrap_or_else(|| scheme_for(args.deploy));
    let model = if let Some(path) = &args.model_path {
        match load_model_file(path) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        let Some(model) = find_model(&args.model, scheme) else {
            eprintln!("error: unknown model '{}'", args.model);
            return ExitCode::from(2);
        };
        model
    };

    let compiler = Compiler::new().with_deploy(args.deploy);
    let artifact = match compiler.compile(&model.graph) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("compilation failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let machine = Machine::new(*compiler.platform());
    let report = match machine.run(&artifact.program, &[model.input(7)]) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("execution failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cfg = compiler.platform();
    let energy = EnergyConfig::default();

    if args.json {
        let layers: Vec<serde_json::Value> = report
            .layers
            .iter()
            .map(|l| {
                serde_json::json!({
                    "name": l.name,
                    "engine": l.engine.to_string(),
                    "cycles": l.cycles.total(),
                    "macs": l.macs,
                    "tiles": l.n_tiles,
                })
            })
            .collect();
        let out = serde_json::json!({
            "model": model.name,
            "scheme": format!("{scheme:?}"),
            "deploy": format!("{:?}", args.deploy),
            "latency_ms": cfg.cycles_to_ms(report.total_cycles()),
            "peak_ms": cfg.cycles_to_ms(report.peak_cycles()),
            "binary_kb": artifact.binary.total_kb(),
            "energy_uj": energy.run_uj(&report),
            "offload_fraction": artifact.offload_fraction(),
            "activation_peak_bytes": artifact.program.activation_peak,
            "layers": if args.profile { serde_json::Value::Array(layers) } else { serde_json::Value::Null },
        });
        println!(
            "{}",
            serde_json::to_string_pretty(&out).expect("serializable")
        );
        return ExitCode::SUCCESS;
    }

    println!("{} ({scheme:?}) on DIANA [{:?}]", model.name, args.deploy);
    println!(
        "  latency   : {:.3} ms ({} cycles; peak {:.3} ms)",
        cfg.cycles_to_ms(report.total_cycles()),
        report.total_cycles(),
        cfg.cycles_to_ms(report.peak_cycles())
    );
    println!(
        "  binary    : {} kB ({} code + {} weights)",
        artifact.binary.total_kb(),
        artifact.binary.code,
        artifact.binary.weights
    );
    println!("  energy    : {:.1} uJ/inference", energy.run_uj(&report));
    println!(
        "  offload   : {:.1}% of MACs, L2 activation peak {} B",
        100.0 * artifact.offload_fraction(),
        artifact.program.activation_peak
    );
    if args.listing {
        println!("\n== generated program ==");
        print!("{}", htvm_soc::render_listing(&artifact.program));
    }
    if args.profile {
        println!("  layers:");
        for l in &report.layers {
            println!(
                "    {:<28} {:<8} {:>9} cycles  {:>10} MACs  {:>4} tiles",
                l.name,
                l.engine.to_string(),
                l.cycles.total(),
                l.macs,
                l.n_tiles
            );
        }
    }
    ExitCode::SUCCESS
}
