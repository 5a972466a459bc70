//! L1 memory budgets and per-tile memory accounting (the paper's Eq. 2).

use crate::{staged_weight_elems, LayerGeometry, LayerKind, TileConfig};
use htvm_ir::DType;
use serde::{Deserialize, Serialize};

/// Geometry of a 2-D in-memory-compute weight array (DIANA's analog macro
/// is 1152 rows × 512 columns of ternary SRAM cells).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ArrayDims {
    /// Array rows; a tile maps `Cᵗ·Fy·Fx` weight rows.
    pub rows: usize,
    /// Array columns; a tile maps `Kᵗ` output channels.
    pub cols: usize,
}

/// The L1 capacity constraints a tile must satisfy (Eq. 2 of the paper,
/// split per DIANA's physical memories).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MemoryBudget {
    /// Shared input/output activation scratchpad in bytes (DIANA: 256 kB
    /// shared between both accelerators).
    pub act_bytes: usize,
    /// Dedicated weight memory in bytes, if the engine streams weights
    /// (DIANA digital: 64 kB). `None` when weights live in a compute array.
    pub weight_bytes: Option<usize>,
    /// In-memory-compute array geometry, if weights are spatially mapped
    /// (DIANA analog: 1152×512). Constrains `Cᵗ·Fy·Fx` and `Kᵗ` directly.
    pub array: Option<ArrayDims>,
}

impl MemoryBudget {
    /// A single unified L1 of `bytes` with no separate weight store —
    /// weights count against the same budget (the textbook DORY Eq. 2).
    #[must_use]
    pub fn unified(bytes: usize) -> Self {
        MemoryBudget {
            act_bytes: bytes,
            weight_bytes: None,
            array: None,
        }
    }
}

/// Per-tile L1 memory use, the `L1ʷ`, `L1ⁱⁿ`, `L1ᵒᵘᵗ` terms of Eq. 1–2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TileMemory {
    /// Input activation bytes (doubled for element-wise add: two operands).
    pub input: usize,
    /// Output bytes; widened to 4-byte accumulators while a tile splits the
    /// reduction dimension (partial sums must stay resident).
    pub output: usize,
    /// Weight bytes at the weight precision (packed for ternary).
    pub weight: usize,
}

impl TileMemory {
    /// Total bytes across the three classes.
    #[must_use]
    pub fn total(&self) -> usize {
        self.input + self.output + self.weight
    }
}

/// Computes the L1 bytes a tile occupies for a layer.
///
/// Input-side extents follow the halo formula via
/// [`TileConfig::in_dims`]. The output tile is held as 32-bit partial sums
/// whenever the tile splits the reduction dimension (`c_t < c` for
/// conv/dense), since requantization can only happen after the last channel
/// slice — exactly DORY's accumulator-residency rule.
///
/// # Panics
///
/// Panics if the tile is invalid for the geometry (checked by
/// [`TileConfig::validate`]).
#[must_use]
pub fn tile_memory(geom: &LayerGeometry, tile: &TileConfig) -> TileMemory {
    tile.validate(geom);
    let act = geom.act_dtype;
    let (iy_t, ix_t) = tile.in_dims(geom);
    let in_elems = tile.c_t * iy_t * ix_t;
    let input = match geom.kind {
        LayerKind::Add => 2 * act.storage_bytes(in_elems),
        _ => act.storage_bytes(in_elems),
    };
    let out_elems = tile.k_t * tile.oy_t * tile.ox_t;
    let splits_reduction = matches!(
        geom.kind,
        LayerKind::Conv2d | LayerKind::Dense | LayerKind::MatMul
    ) && tile.c_t < geom.c;
    let output = if splits_reduction {
        DType::I32.storage_bytes(out_elems)
    } else {
        act.storage_bytes(out_elems)
    };
    // For matmul: the staged b-operand slab, an N×D rectangle per resident
    // batch column — the rectangular L1 partition conv tiles never exercise.
    let weight_elems = staged_weight_elems(geom, tile.k_t, tile.c_t, tile.ox_t);
    let weight = geom.w_dtype.storage_bytes(weight_elems);
    TileMemory {
        input,
        output,
        weight,
    }
}

/// Checks the Eq. 2 constraint: does `tile` fit `budget`?
///
/// With a separate weight memory, activations and weights are checked
/// against their own capacities; with a unified budget the three terms sum.
/// An in-memory-compute array instead constrains the tile's weight
/// footprint geometrically (`Cᵗ·Fy·Fx ≤ rows`, `Kᵗ ≤ cols`).
#[must_use]
pub fn tile_fits(geom: &LayerGeometry, tile: &TileConfig, budget: &MemoryBudget) -> bool {
    let mem = tile_memory(geom, tile);
    if let Some(array) = budget.array {
        if geom.kind != LayerKind::Add {
            let rows_needed = match geom.kind {
                LayerKind::DepthwiseConv2d => geom.fy * geom.fx,
                _ => tile.c_t * geom.fy * geom.fx,
            };
            if rows_needed > array.rows || tile.k_t > array.cols {
                return false;
            }
        }
        mem.input + mem.output <= budget.act_bytes
    } else if let Some(wb) = budget.weight_bytes {
        mem.input + mem.output <= budget.act_bytes && mem.weight <= wb
    } else {
        mem.total() <= budget.act_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tile(c: usize, k: usize, oy: usize, ox: usize) -> TileConfig {
        TileConfig {
            c_t: c,
            k_t: k,
            oy_t: oy,
            ox_t: ox,
        }
    }

    #[test]
    fn full_tile_memory_matches_layer_sizes() {
        let g = LayerGeometry::conv2d(16, 32, 8, 8, 3, 3, (1, 1), (0, 0, 0, 0));
        let t = TileConfig::full(&g); // oy = ox = 6
        let m = tile_memory(&g, &t);
        assert_eq!(m.input, 16 * 64);
        assert_eq!(m.weight, 32 * 16 * 9);
        assert_eq!(m.output, 32 * 36); // no reduction split -> i8
        assert_eq!(m.total(), m.input + m.output + m.weight);
    }

    #[test]
    fn partial_channel_tiles_widen_output() {
        let g = LayerGeometry::conv2d(16, 32, 8, 8, 3, 3, (1, 1), (0, 0, 0, 0));
        let m = tile_memory(&g, &tile(8, 32, 6, 6));
        assert_eq!(m.output, 32 * 36 * 4); // i32 partial sums
    }

    #[test]
    fn halo_grows_input_tile() {
        let g = LayerGeometry::conv2d(4, 4, 16, 16, 3, 3, (1, 1), (1, 1, 1, 1));
        // Half the output rows need (8-1)*1+3 = 10 input rows, not 8.
        let m = tile_memory(&g, &tile(4, 4, 8, 16));
        assert_eq!(m.input, 4 * 10 * 16);
    }

    #[test]
    fn depthwise_never_splits_reduction() {
        let g = LayerGeometry::depthwise(16, 8, 8, 3, 3, (1, 1), (0, 0, 0, 0));
        let m = tile_memory(&g, &tile(8, 8, 6, 6));
        assert_eq!(m.output, 8 * 36); // stays i8
        assert_eq!(m.weight, 8 * 9);
    }

    #[test]
    fn add_counts_two_operands() {
        let g = LayerGeometry::add(8, 4, 4);
        let m = tile_memory(&g, &tile(8, 8, 4, 4));
        assert_eq!(m.input, 2 * 8 * 16);
        assert_eq!(m.weight, 0);
    }

    #[test]
    fn matmul_tiles_partition_rectangles() {
        // D=32, N=128, M=128, H=2.
        let g = LayerGeometry::matmul(32, 128, 128, 2, true);
        let full = TileConfig::full(&g);
        let m = tile_memory(&g, &full);
        assert_eq!(m.input, 32 * 128 * 2);
        assert_eq!(m.weight, 128 * 32 * 2, "whole staged b operand");
        assert_eq!(m.output, 128 * 128 * 2);
        // Halving sequence rows halves input and output but leaves the
        // staged slab alone; halving output columns shrinks the slab.
        let rows = tile_memory(&g, &tile(32, 128, 64, 2));
        assert_eq!(rows.input, 32 * 64 * 2);
        assert_eq!(rows.output, 128 * 64 * 2);
        assert_eq!(rows.weight, m.weight);
        let cols = tile_memory(&g, &tile(32, 64, 128, 2));
        assert_eq!(cols.weight, 64 * 32 * 2);
        // Splitting the reduction widens outputs to i32 partial sums.
        let red = tile_memory(&g, &tile(16, 128, 128, 2));
        assert_eq!(red.output, 128 * 128 * 2 * 4);
    }

    #[test]
    fn split_budget_checks_both_memories() {
        let g = LayerGeometry::conv2d(16, 32, 8, 8, 3, 3, (1, 1), (0, 0, 0, 0));
        let t = TileConfig::full(&g);
        let m = tile_memory(&g, &t);
        let fits = MemoryBudget {
            act_bytes: m.input + m.output,
            weight_bytes: Some(m.weight),
            array: None,
        };
        assert!(tile_fits(&g, &t, &fits));
        let tight_w = MemoryBudget {
            weight_bytes: Some(m.weight - 1),
            ..fits
        };
        assert!(!tile_fits(&g, &t, &tight_w));
        let tight_a = MemoryBudget {
            act_bytes: m.input + m.output - 1,
            ..fits
        };
        assert!(!tile_fits(&g, &t, &tight_a));
    }

    #[test]
    fn unified_budget_sums_all_terms() {
        let g = LayerGeometry::dense(64, 64);
        let t = TileConfig::full(&g);
        let m = tile_memory(&g, &t);
        assert!(tile_fits(&g, &t, &MemoryBudget::unified(m.total())));
        assert!(!tile_fits(&g, &t, &MemoryBudget::unified(m.total() - 1)));
    }

    #[test]
    fn imc_array_constrains_geometrically() {
        use htvm_ir::DType;
        let budget = MemoryBudget {
            act_bytes: 256 * 1024,
            weight_bytes: None,
            array: Some(ArrayDims {
                rows: 1152,
                cols: 512,
            }),
        };
        // 128*9 = 1152 rows exactly, 512 cols exactly: fits.
        let g = LayerGeometry::conv2d(128, 512, 8, 8, 3, 3, (1, 1), (1, 1, 1, 1))
            .with_weight_dtype(DType::Ternary);
        assert!(tile_fits(&g, &TileConfig::full(&g), &budget));
        // One more channel's worth of rows does not fit: must tile c.
        let g2 = LayerGeometry::conv2d(129, 512, 8, 8, 3, 3, (1, 1), (1, 1, 1, 1))
            .with_weight_dtype(DType::Ternary);
        assert!(!tile_fits(&g2, &TileConfig::full(&g2), &budget));
        let halved = TileConfig {
            c_t: 64,
            ..TileConfig::full(&g2)
        };
        assert!(tile_fits(&g2, &halved, &budget));
    }
}
