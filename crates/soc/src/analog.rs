//! Analog in-memory-compute accelerator cost model.

use crate::AnalogConfig;
use htvm_dory::{mapped_weight_rows, LayerGeometry, LayerKind, TileInstance};

/// Cycles to write a tile's weights into the IMC macro.
///
/// The array is weight-stationary: before computing, `Cᵗ·Fy·Fx` rows of
/// ternary cells must be programmed, at [`AnalogConfig::row_load_cycles`]
/// per row. This is the per-layer overhead the paper cites for the
/// analog-only configurations ("the overhead of filling the analog
/// accelerator weight memory for each layer") and the reason small-channel
/// networks run slower on the analog engine despite its huge peak.
#[must_use]
pub fn analog_weight_load_cycles(
    cfg: &AnalogConfig,
    geom: &LayerGeometry,
    tile: &TileInstance,
) -> u64 {
    mapped_weight_rows(geom, tile.c.len()).min(cfg.rows) as u64 * cfg.row_load_cycles
}

/// Compute cycles for one tile invocation on the analog array.
///
/// Each output spatial position is one analog pass: the DAC drives the
/// mapped input rows, every mapped column integrates simultaneously, and
/// the ADC reads out up to `cols` output channels — so a pass retires up to
/// `rows × cols` MACs in [`AnalogConfig::pass_cycles`] cycles:
///
/// ```text
/// cycles = o_yᵗ · o_xᵗ · ⌈Kᵗ/cols⌉ · pass_cycles / efficiency
/// ```
///
/// (The row dimension never needs multiple passes per tile: the tiling
/// solver's array constraint caps `Cᵗ·Fy·Fx` at the row count.)
#[must_use]
pub fn analog_tile_cycles(cfg: &AnalogConfig, geom: &LayerGeometry, tile: &TileInstance) -> u64 {
    let ideal = match geom.kind {
        LayerKind::Conv2d | LayerKind::Dense => {
            let positions = (tile.oy.len() * tile.ox.len()) as u64;
            let col_passes = tile.k.len().div_ceil(cfg.cols) as u64;
            positions * col_passes * cfg.pass_cycles
        }
        // Residual add / pooling run on the analog engine's digital output
        // stage at SIMD-ish rate.
        LayerKind::Add => {
            let elems = (tile.k.len() * tile.oy.len() * tile.ox.len()) as u64;
            elems.div_ceil(16)
        }
        LayerKind::DepthwiseConv2d | LayerKind::MatMul => {
            unreachable!("depthwise/matmul are never dispatched to analog")
        }
    };
    (ideal * 100).div_ceil(cfg.efficiency_pct.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use htvm_dory::{tiles, TileConfig};
    use htvm_ir::DType;

    fn cfg() -> AnalogConfig {
        AnalogConfig {
            efficiency_pct: 100,
            ..crate::DianaConfig::default().analog
        }
    }

    fn one_tile(g: &LayerGeometry) -> TileInstance {
        tiles(g, &TileConfig::full(g)).remove(0)
    }

    #[test]
    fn weight_load_scales_with_mapped_rows() {
        let g = LayerGeometry::conv2d(64, 64, 16, 16, 3, 3, (1, 1), (1, 1, 1, 1))
            .with_weight_dtype(DType::Ternary);
        let t = one_tile(&g);
        // 64 * 9 = 576 rows.
        assert_eq!(
            analog_weight_load_cycles(&cfg(), &g, &t),
            576 * cfg().row_load_cycles
        );
    }

    #[test]
    fn compute_is_per_spatial_position() {
        let g = LayerGeometry::conv2d(64, 64, 16, 16, 3, 3, (1, 1), (1, 1, 1, 1))
            .with_weight_dtype(DType::Ternary);
        let t = one_tile(&g);
        // 16x16 output positions, K=64 <= 512 cols -> one pass each.
        assert_eq!(analog_tile_cycles(&cfg(), &g, &t), 256 * cfg().pass_cycles);
    }

    #[test]
    fn wide_k_needs_multiple_column_passes() {
        // K > cols: not representable in one tile on the real array, but
        // the cost model still charges the extra passes defensively.
        let g = LayerGeometry::conv2d(8, 1024, 4, 4, 1, 1, (1, 1), (0, 0, 0, 0))
            .with_weight_dtype(DType::Ternary);
        let t = one_tile(&g);
        assert_eq!(
            analog_tile_cycles(&cfg(), &g, &t),
            16 * 2 * cfg().pass_cycles
        );
    }

    #[test]
    fn small_layer_is_load_dominated() {
        // The DS-CNN pointwise shape: tiny compute, non-trivial load.
        let g = LayerGeometry::conv2d(64, 64, 25, 5, 1, 1, (1, 1), (0, 0, 0, 0))
            .with_weight_dtype(DType::Ternary);
        let t = one_tile(&g);
        let load = analog_weight_load_cycles(&cfg(), &g, &t);
        let compute = analog_tile_cycles(&cfg(), &g, &t);
        assert!(
            load > compute * 5,
            "load {load} should dominate compute {compute}"
        );
    }

    #[test]
    fn dense_maps_c_rows() {
        let g = LayerGeometry::dense(640, 128).with_weight_dtype(DType::Ternary);
        let t = one_tile(&g);
        assert_eq!(
            analog_weight_load_cycles(&cfg(), &g, &t),
            640 * cfg().row_load_cycles
        );
        assert_eq!(analog_tile_cycles(&cfg(), &g, &t), cfg().pass_cycles);
    }
}
