//! Execution timeline rendering (the paper's Fig. 2).
//!
//! Fig. 2 of the paper shows the time diagram of a deployed network: one
//! sequential stream of kernels, each bar on the engine that executes it,
//! with DMA/setup fringes around the accelerator bursts. [`render_timeline`]
//! reproduces that diagram as text from a [`RunReport`].

use crate::{EngineKind, RunReport};

/// Character width of the time axis.
const WIDTH: usize = 72;

/// Renders the run as an ASCII time diagram: one swim-lane per engine,
/// kernels in execution order (the single sequential entry function of
/// the paper's Fig. 2), `#` for engine-busy time and `.` for the
/// DMA/overhead fringe around accelerator calls, then one cycle
/// annotation line per layer. A layer narrower than one column still gets
/// one cell, drawn as whichever of its busy and fringe cycles dominates.
///
/// # Examples
///
/// Produced by `cargo run --release -p htvm-bench --bin fig2`.
#[must_use]
pub fn render_timeline(report: &RunReport) -> String {
    use std::fmt::Write as _;
    let total: u64 = report.total_cycles().max(1);
    let scale = |c: u64| -> usize { ((c as u128 * WIDTH as u128) / total as u128) as usize };

    let lanes = [EngineKind::Cpu, EngineKind::Digital, EngineKind::Analog];
    let mut rows: Vec<String> = lanes.iter().map(|_| String::new()).collect();
    let mut cursor = 0usize;
    let mut legend = String::new();

    for (i, layer) in report.layers.iter().enumerate() {
        let start = cursor;
        let busy_cycles = layer.cycles.compute + layer.cycles.weight_load;
        let fringe_cycles = layer.cycles.dma + layer.cycles.overhead;
        let (mut busy, mut fringe) = (scale(busy_cycles), scale(fringe_cycles));
        if busy + fringe == 0 {
            if busy_cycles >= fringe_cycles {
                busy = 1;
            } else {
                fringe = 1;
            }
        }
        let len = busy + fringe;
        let lane = lanes
            .iter()
            .position(|&e| e == layer.engine)
            .expect("every engine has a lane");
        for (l, row) in rows.iter_mut().enumerate() {
            while row.len() < start {
                row.push(' ');
            }
            if l == lane {
                for j in 0..len {
                    row.push(if j < busy { '#' } else { '.' });
                }
            } else {
                for _ in 0..len {
                    row.push(' ');
                }
            }
        }
        cursor = start + len;
        let _ = writeln!(
            legend,
            "  [{i:>2}] {:<28} {:<8} {:>9} cycles",
            layer.name,
            layer.engine.to_string(),
            layer.cycles.total()
        );
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "time -> ({} cycles total; '#' engine busy, '.' dma/overhead fringe)",
        total
    );
    for (lane, row) in lanes.iter().zip(&rows) {
        let _ = writeln!(out, "{:>8} |{row}", lane.to_string());
    }
    out.push_str(&legend);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CycleBreakdown, LayerProfile};

    fn layer(name: &str, engine: EngineKind, compute: u64, dma: u64) -> LayerProfile {
        LayerProfile {
            name: name.into(),
            engine,
            cycles: CycleBreakdown {
                compute,
                dma,
                ..CycleBreakdown::default()
            },
            macs: 0,
            n_tiles: 1,
        }
    }

    fn sample() -> RunReport {
        RunReport {
            outputs: vec![],
            layers: vec![
                layer("conv1", EngineKind::Digital, 600, 200),
                layer("conv2", EngineKind::Analog, 400, 100),
                layer("softmax", EngineKind::Cpu, 300, 0),
            ],
        }
    }

    #[test]
    fn lanes_are_disjoint_and_sequential() {
        let s = render_timeline(&sample());
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].starts_with("time ->"));
        let lanes: Vec<&str> = lines[1..4].iter().map(|l| &l[10..]).collect();
        // At every column, at most one lane is non-blank (sequential
        // execution: no engine overlap in the paper's Fig. 2).
        let max_len = lanes.iter().map(|l| l.len()).max().unwrap();
        for col in 0..max_len {
            let busy = lanes
                .iter()
                .filter(|l| l.as_bytes().get(col).is_some_and(|&b| b != b' '))
                .count();
            assert!(busy <= 1, "column {col} has {busy} active lanes");
        }
    }

    #[test]
    fn annotations_list_every_layer() {
        let s = render_timeline(&sample());
        assert!(s.contains("conv1"));
        assert!(s.contains("conv2"));
        assert!(s.contains("softmax"));
    }

    #[test]
    fn busy_marks_reflect_compute_share() {
        let s = render_timeline(&sample());
        let digital_row = s.lines().nth(2).expect("digital lane");
        let hashes = digital_row.matches('#').count();
        let dots = digital_row.matches('.').count();
        // conv1: 600 compute vs 200 dma -> roughly 3:1.
        assert!(hashes > dots * 2, "hashes {hashes} vs dots {dots}");
    }

    #[test]
    fn empty_report_renders() {
        let r = RunReport {
            outputs: vec![],
            layers: vec![],
        };
        let s = render_timeline(&r);
        assert!(s.contains("time ->"));
    }

    #[test]
    fn sub_column_layers_draw_their_dominant_mark() {
        // Both short layers are far narrower than one column: the CPU one
        // is pure compute, so its floor cell is busy; the digital one is
        // mostly DMA, so its floor cell is fringe.
        let r = RunReport {
            outputs: vec![],
            layers: vec![
                layer("conv1", EngineKind::Digital, 100_000, 20_000),
                layer("softmax", EngineKind::Cpu, 10, 0),
                layer("fc", EngineKind::Digital, 2, 10),
            ],
        };
        let s = render_timeline(&r);
        let lines: Vec<&str> = s.lines().collect();
        let (cpu_row, digital_row) = (&lines[1][10..], &lines[2][10..]);
        for row in [cpu_row, digital_row] {
            assert!(row.chars().all(|c| matches!(c, '#' | '.' | ' ')), "{s}");
        }
        assert_eq!(cpu_row.trim(), "#", "{s}");
        assert!(digital_row.ends_with(" ."), "{s}");
    }
}
