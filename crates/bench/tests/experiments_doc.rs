//! EXPERIMENTS.md's "ours" cells are what the paper bins print.
//!
//! Runs `table1`, `table2` and `fig5` with `--json`, renders every "ours"
//! cell of Table I (latency and binary size), Table II and the §IV claims
//! index from that output at the precision the document prints it, and
//! fails naming the section, row and column of each cell that differs.
//! A table row this test does not render fails too, so no copy of a
//! result goes unchecked. The "paper" cells are the paper's and are not
//! checked.
//!
//! `fig4` takes about a minute in a debug build and about a second in a
//! release build, so the one §IV row it feeds ("heuristic tiling
//! speedup") is checked only when `debug_assertions` are off; CI's
//! `cargo test --workspace --release` step covers it. `ablation` has no
//! `--json`, and its prose is not checked.

use serde_json::Value;
use std::process::{Child, Command, Stdio};

const DOC: &str = include_str!("../../../EXPERIMENTS.md");

/// Zoo model name in the bins' output → row label in the document.
const NETWORKS: [(&str, &str); 4] = [
    ("ds_cnn", "DS-CNN"),
    ("mobilenet_v1", "MobileNet"),
    ("resnet8", "ResNet"),
    ("toyadmos_dae", "ToyAdmos"),
];

/// `table1`'s configuration label → the latency table's row label and
/// the size table's column.
const CONFIGS: [(&str, &str, &str); 4] = [
    ("CPU (TVM)", "CPU (TVM)", "TVM"),
    ("CPU + Dig.", "CPU+Dig", "CPU+Dig"),
    ("CPU + Ana.", "CPU+Ana", "CPU+Ana"),
    ("CPU + Both", "CPU+Both", "CPU+Both"),
];

/// `table2`'s member → Table II's column.
const PLATFORMS: [(&str, &str); 4] = [
    ("stm32_tvm_ms", "TVM/STM32"),
    ("stm32_cmsis_ms", "+CMSIS-NN"),
    ("gap9_ms", "GAPflow/GAP9"),
    ("diana_htvm_ms", "HTVM/DIANA dig"),
];

fn spawn(bin: &str) -> Child {
    Command::new(bin)
        .arg("--json")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| panic!("{bin} starts: {e}"))
}

fn rows_of(bin: &str, child: Child) -> Vec<Value> {
    let out = child.wait_with_output().expect("bin runs");
    assert!(
        out.status.success(),
        "{bin} --json failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("--json prints UTF-8");
    let rows: Value = serde_json::from_str(&text).expect("--json prints JSON");
    rows.as_array().expect("--json prints an array").clone()
}

fn num(v: &Value, member: &str) -> f64 {
    v[member]
        .as_f64()
        .unwrap_or_else(|| panic!("{member} is a number in {v:?}"))
}

/// A markdown table of EXPERIMENTS.md: the first one under the heading
/// that starts with `section`.
struct Table {
    section: &'static str,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

fn cells(line: &str) -> Vec<String> {
    line.trim()
        .trim_matches('|')
        .split('|')
        .map(|c| c.trim().to_owned())
        .collect()
}

fn table(section: &'static str) -> Table {
    let mut lines = DOC.lines().skip_while(|l| {
        !(l.starts_with('#') && l.trim_start_matches('#').trim().starts_with(section))
    });
    assert!(
        lines.next().is_some(),
        "EXPERIMENTS.md has no section {section:?}"
    );
    let mut rows = lines
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .map(cells);
    let header = rows
        .next()
        .unwrap_or_else(|| panic!("{section:?} has no table"));
    Table {
        section,
        header,
        rows: rows.skip(1).collect(),
    }
}

/// Compares rendered cells with one table and collects every drift.
struct Check<'a> {
    table: Table,
    drifts: &'a mut Vec<String>,
    checked: Vec<usize>,
}

impl<'a> Check<'a> {
    fn new(section: &'static str, drifts: &'a mut Vec<String>) -> Self {
        Check {
            table: table(section),
            drifts,
            checked: Vec::new(),
        }
    }

    /// The document's cell at the row whose leading cells are `row` and
    /// at `column`.
    fn cell(&mut self, row: &[&str], column: &str) -> Option<String> {
        let col = self.table.header.iter().position(|h| h == column);
        let at = self
            .table
            .rows
            .iter()
            .position(|r| r.len() >= row.len() && r.iter().zip(row).all(|(a, b)| a == b));
        match (at, col) {
            (Some(at), Some(col)) => {
                self.checked.push(at);
                self.table.rows[at].get(col).cloned()
            }
            _ => {
                self.drifts.push(format!(
                    "{}: no row {row:?} with a column {column:?}",
                    self.table.section
                ));
                None
            }
        }
    }

    /// Checks the cell against `want(doc cell)`.
    fn expect(&mut self, row: &[&str], column: &str, want: impl FnOnce(&str) -> String) {
        if let Some(doc) = self.cell(row, column) {
            let want = want(&doc);
            if doc != want {
                self.drifts.push(format!(
                    "{} / {} / {column}: EXPERIMENTS.md says {doc:?}, the bins give {want:?}",
                    self.table.section,
                    row.join(" / ")
                ));
            }
        }
    }

    /// Checks a number, rounded to as many decimals as the document's
    /// cell shows.
    fn number(&mut self, row: &[&str], column: &str, value: f64) {
        self.expect(row, column, |doc| {
            let decimals = doc.split_once('.').map_or(0, |(_, frac)| frac.len());
            format!("{value:.decimals$}")
        });
    }

    /// Every row of the table was rendered, but for `unchecked` ones.
    fn covered(self, unchecked: &[&str]) {
        for (i, row) in self.table.rows.iter().enumerate() {
            if !self.checked.contains(&i) && !unchecked.contains(&row[0].as_str()) {
                self.drifts.push(format!(
                    "{} / {}: a row no bin output renders",
                    self.table.section,
                    row.join(" / ")
                ));
            }
        }
    }
}

/// "x% slower" or "x% faster": `a`'s latency against `b`'s.
fn relative(a: f64, b: f64) -> String {
    let pct = 100.0 * (a / b - 1.0);
    if pct >= 0.0 {
        format!("{pct:.1}% slower")
    } else {
        format!("{:.1}% faster", -pct)
    }
}

#[test]
fn every_ours_cell_is_what_the_paper_bins_print() {
    let fig4 = (!cfg!(debug_assertions)).then(|| spawn(env!("CARGO_BIN_EXE_fig4")));
    let table1 = spawn(env!("CARGO_BIN_EXE_table1"));
    let table2 = spawn(env!("CARGO_BIN_EXE_table2"));
    let fig5 = spawn(env!("CARGO_BIN_EXE_fig5"));
    let table1 = rows_of("table1", table1);
    let table2 = rows_of("table2", table2);
    let fig5 = rows_of("fig5", fig5);
    let fig4 = fig4.map(|child| rows_of("fig4", child));

    let cell1 = |network: &str, config: &str| -> &Value {
        table1
            .iter()
            .find(|r| r["network"] == network && r["config"] == config)
            .unwrap_or_else(|| panic!("table1 prints {network} / {config}"))
    };
    let row2 = |network: &str| -> &Value {
        table2
            .iter()
            .find(|r| r["network"] == network)
            .unwrap_or_else(|| panic!("table2 prints {network}"))
    };
    let full = |network: &str, config: &str| num(cell1(network, config), "htvm_ms");
    let size = |network: &str, config: &str| num(cell1(network, config), "size_kb");
    let ms2 = |network: &str, member: &str| num(row2(network), member);
    let sweeps = |keep: &dyn Fn(&str) -> bool, member: &str| -> Vec<f64> {
        let values: Vec<f64> = fig5
            .iter()
            .filter(|r| keep(r["sweep"].as_str().expect("sweep is a string")))
            .map(|r| num(r, member))
            .collect();
        assert!(!values.is_empty(), "fig5 prints the sweep");
        values
    };
    let max = |v: &[f64]| v.iter().copied().fold(f64::MIN, f64::max);
    let min = |v: &[f64]| v.iter().copied().fold(f64::MAX, f64::min);

    let mut drifts = Vec::new();

    let mut latency = Check::new("Latency, HTVM full-kernel rows", &mut drifts);
    for (network, label) in NETWORKS {
        for (config, row, _) in CONFIGS {
            let cell = cell1(network, config);
            for (column, member) in [("ours", "htvm_ms"), ("ours peak", "peak_ms")] {
                if cell["oom"].as_bool() == Some(true) {
                    latency.expect(&[label, row], column, |_| "OoM".into());
                } else {
                    latency.number(&[label, row], column, num(cell, member));
                }
            }
        }
    }
    latency.covered(&[]);

    let mut sizes = Check::new("Binary size (kB)", &mut drifts);
    for (network, label) in NETWORKS {
        for (config, _, column) in CONFIGS {
            sizes.number(&[label], column, size(network, config));
        }
    }
    sizes.covered(&[]);

    let mut table_ii = Check::new("Table II", &mut drifts);
    for (network, label) in NETWORKS {
        let ours = format!("{label} (ours)");
        for (member, column) in PLATFORMS {
            table_ii.number(&[&ours], column, ms2(network, member));
        }
    }
    let paper_rows: Vec<String> = NETWORKS
        .iter()
        .map(|(_, l)| format!("{l} (paper)"))
        .collect();
    table_ii.covered(&paper_rows.iter().map(String::as_str).collect::<Vec<_>>());

    let analog = sweeps(&|s| s.starts_with("analog Conv2D"), "loss_pct");
    let digital = sweeps(&|s| s.starts_with("digital Conv2D"), "loss_pct");
    let fc = sweeps(&|s| s.contains("FC"), "loss_pct");
    let dw = sweeps(&|s| s.contains("DWConv2D"), "loss_pct");
    let dw_peak = sweeps(&|s| s.contains("DWConv2D"), "peak_macs_per_cycle");
    let mean = analog.iter().sum::<f64>() / analog.len() as f64;
    let times = |a: f64, b: f64| format!("{:.0}×", a / b);
    let mobilenet_tvm = cell1("mobilenet_v1", "CPU (TVM)");
    let mut claims = vec![
        (
            "analog conv throughput loss",
            format!("{mean:.1}% avg / {:.1}% min", min(&analog)),
        ),
        ("digital conv loss (best)", format!("{:.1}%", min(&digital))),
        ("FC worst loss", format!("up to {:.1}%", max(&fc))),
        (
            "DW peak / loss bound",
            format!("{:.2} MAC/cyc, ≤{:.1}%", max(&dw_peak), max(&dw)),
        ),
        (
            "ResNet digital speedup",
            times(full("resnet8", "CPU (TVM)"), full("resnet8", "CPU + Dig.")),
        ),
        (
            "ResNet mixed speedup",
            times(full("resnet8", "CPU (TVM)"), full("resnet8", "CPU + Both")),
        ),
        (
            "ResNet mixed vs digital",
            relative(full("resnet8", "CPU + Both"), full("resnet8", "CPU + Dig.")),
        ),
        (
            "ResNet size shrink",
            format!(
                "{:.1}%",
                100.0 * (1.0 - size("resnet8", "CPU + Dig.") / size("resnet8", "CPU (TVM)"))
            ),
        ),
        (
            "MobileNet TVM",
            if mobilenet_tvm["oom"].as_bool() == Some(true) {
                "OoM".into()
            } else {
                format!("{:.2} ms", num(mobilenet_tvm, "htvm_ms"))
            },
        ),
        (
            "DS-CNN mixed vs analog",
            format!(
                "{:.1}×",
                full("ds_cnn", "CPU + Ana.") / full("ds_cnn", "CPU + Both")
            ),
        ),
        (
            "vs TVM/STM32 (ResNet)",
            times(
                ms2("resnet8", "stm32_tvm_ms"),
                ms2("resnet8", "diana_htvm_ms"),
            ),
        ),
        (
            "vs CMSIS-NN (MobileNet)",
            times(
                ms2("mobilenet_v1", "stm32_cmsis_ms"),
                ms2("mobilenet_v1", "diana_htvm_ms"),
            ),
        ),
        (
            "vs GAP9 (ResNet)",
            relative(ms2("resnet8", "diana_htvm_ms"), ms2("resnet8", "gap9_ms")),
        ),
    ];
    if let Some(fig4) = &fig4 {
        let speedup = fig4
            .iter()
            .filter_map(|r| r["speedup"].as_f64())
            .fold(f64::MIN, f64::max);
        claims.push(("heuristic tiling speedup", format!("up to {speedup:.1}×")));
    }
    let mut index = Check::new("§IV claims index", &mut drifts);
    for (claim, want) in claims {
        index.expect(&[claim], "ours", |_| want);
    }
    index.covered(if fig4.is_some() {
        &[]
    } else {
        &["heuristic tiling speedup"]
    });

    assert!(
        drifts.is_empty(),
        "EXPERIMENTS.md drifted from the paper bins:\n{}",
        drifts.join("\n")
    );
}
