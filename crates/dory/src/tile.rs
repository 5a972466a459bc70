//! Tile configurations and the tile loop.

use crate::{LayerGeometry, LayerKind};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// A tile size choice: how much of each layer dimension one accelerator
/// invocation processes.
///
/// Tiles are expressed on the *output* space (`Kᵗ`, `o_yᵗ`, `o_xᵗ`) plus the
/// reduction slice `Cᵗ`; the input-side sizes `i_yᵗ`, `i_xᵗ` that the
/// paper's heuristics reference (Eq. 4–5) follow from the halo formula
/// `i^t = (o^t − 1)·s + f` and are available via [`TileConfig::in_dims`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TileConfig {
    /// Input-channel (reduction) slice `Cᵗ`.
    pub c_t: usize,
    /// Output-channel slice `Kᵗ`.
    pub k_t: usize,
    /// Output rows per tile `o_yᵗ`.
    pub oy_t: usize,
    /// Output columns per tile `o_xᵗ`.
    pub ox_t: usize,
}

impl TileConfig {
    /// The tile covering the entire layer (no tiling).
    #[must_use]
    pub fn full(geom: &LayerGeometry) -> Self {
        TileConfig {
            c_t: geom.c,
            k_t: geom.k,
            oy_t: geom.oy(),
            ox_t: geom.ox(),
        }
    }

    /// Derived input-tile extent `(i_yᵗ, i_xᵗ)` for an interior tile,
    /// capped at the real input size (border tiles shrink further).
    #[must_use]
    pub fn in_dims(&self, geom: &LayerGeometry) -> (usize, usize) {
        let iy_t = ((self.oy_t - 1) * geom.strides.0 + geom.fy).min(geom.iy);
        let ix_t = ((self.ox_t - 1) * geom.strides.1 + geom.fx).min(geom.ix);
        (iy_t, ix_t)
    }

    /// Checks structural validity of the tile for a geometry.
    ///
    /// # Panics
    ///
    /// Panics if a tile dimension is zero, exceeds the layer dimension, or
    /// (for depthwise/add layers) `c_t != k_t` — these layers have a single
    /// channel dimension.
    pub fn validate(&self, geom: &LayerGeometry) {
        assert!(
            self.c_t >= 1 && self.c_t <= geom.c,
            "c_t {} out of 1..={}",
            self.c_t,
            geom.c
        );
        assert!(
            self.k_t >= 1 && self.k_t <= geom.k,
            "k_t {} out of 1..={}",
            self.k_t,
            geom.k
        );
        assert!(
            self.oy_t >= 1 && self.oy_t <= geom.oy(),
            "oy_t {} out of 1..={}",
            self.oy_t,
            geom.oy()
        );
        assert!(
            self.ox_t >= 1 && self.ox_t <= geom.ox(),
            "ox_t {} out of 1..={}",
            self.ox_t,
            geom.ox()
        );
        if matches!(geom.kind, LayerKind::DepthwiseConv2d | LayerKind::Add) {
            assert_eq!(
                self.c_t, self.k_t,
                "depthwise/add tiles have one channel dimension"
            );
        }
    }

    /// Total number of accelerator invocations (tiles) for the layer: the
    /// length of [`tiles`], counted per axis.
    #[must_use]
    pub fn num_tiles(&self, geom: &LayerGeometry) -> usize {
        self.validate(geom);
        // Depthwise and add walk their channels in the k loop.
        let c_slices = match geom.kind {
            LayerKind::DepthwiseConv2d | LayerKind::Add => 1,
            _ => geom.c.div_ceil(self.c_t),
        };
        let (oy, ox) = (geom.oy(), geom.ox());
        geom.k.div_ceil(self.k_t) * oy.div_ceil(self.oy_t) * ox.div_ceil(self.ox_t) * c_slices
    }

    /// Returns `true` if this tile covers the whole layer in one shot.
    #[must_use]
    pub fn is_full(&self, geom: &LayerGeometry) -> bool {
        *self == TileConfig::full(geom)
    }
}

/// One iteration of the tile loop: the output sub-block to produce and the
/// reduction slice to accumulate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileInstance {
    /// Output channels produced.
    pub k: Range<usize>,
    /// Output rows produced.
    pub oy: Range<usize>,
    /// Output columns produced.
    pub ox: Range<usize>,
    /// Input channels accumulated in this invocation.
    pub c: Range<usize>,
    /// Whether this is the first reduction slice for its output block
    /// (accumulator initialization).
    pub first_c: bool,
    /// Whether this is the last reduction slice (requantization happens
    /// after it).
    pub last_c: bool,
}

impl TileInstance {
    /// The input rows this tile must load, clamped into the real (unpadded)
    /// input. Padding rows are synthesized by the accelerator and need no
    /// DMA.
    #[must_use]
    pub fn input_rows(&self, geom: &LayerGeometry) -> Range<usize> {
        row_window(geom, self.oy.clone())
    }

    /// The input columns this tile must load, clamped into the real input.
    #[must_use]
    pub fn input_cols(&self, geom: &LayerGeometry) -> Range<usize> {
        col_window(geom, self.ox.clone())
    }

    /// Bytes of input activation DMA'd in for this tile (per operand; the
    /// element-wise add layer loads two operands of this size).
    #[must_use]
    pub fn input_bytes(&self, geom: &LayerGeometry) -> usize {
        let rows = self.input_rows(geom).len();
        let cols = self.input_cols(geom).len();
        geom.act_dtype.storage_bytes(self.c.len() * rows * cols)
    }

    /// Contiguous 1-D DMA transfers that fetch this tile's input from a
    /// C–y–x laid-out L2 tensor, by the rule the closed-form cost model
    /// shares (`tile::input_chunks` over its window extents).
    #[must_use]
    pub fn input_chunks(&self, geom: &LayerGeometry) -> usize {
        let rows = self.input_rows(geom).len();
        let cols = self.input_cols(geom).len();
        input_chunks(geom, self.c.len(), rows, cols)
    }

    /// Bytes of output DMA'd back to L2 after this tile (zero for
    /// non-final reduction slices, which stay resident in L1).
    #[must_use]
    pub fn output_bytes(&self, geom: &LayerGeometry) -> usize {
        if !self.last_c {
            return 0;
        }
        geom.act_dtype
            .storage_bytes(self.k.len() * self.oy.len() * self.ox.len())
    }

    /// Contiguous 1-D DMA transfers for the output tile (`tile::output_chunks`
    /// over its extents; zero for non-final reduction slices, which store
    /// nothing).
    #[must_use]
    pub fn output_chunks(&self, geom: &LayerGeometry) -> usize {
        if !self.last_c {
            return 0;
        }
        output_chunks(geom, self.k.len(), self.oy.len(), self.ox.len())
    }

    /// The weight slice this tile computes with. The tile walk stages
    /// weights whenever a tile's slice differs from the previous tile's:
    /// conv, depthwise and dense key on `(k, c)`, and matmul's staged `b`
    /// slab also varies with the batch (`ox`) slice.
    #[must_use]
    pub fn weight_slice(&self, geom: &LayerGeometry) -> [Range<usize>; 3] {
        let batch = if weights_follow_batch(geom.kind) {
            self.ox.clone()
        } else {
            0..0
        };
        [self.k.clone(), self.c.clone(), batch]
    }

    /// Multiply-accumulate operations performed by this invocation.
    #[must_use]
    pub fn macs(&self, geom: &LayerGeometry) -> u64 {
        let spatial = (self.oy.len() * self.ox.len()) as u64;
        match geom.kind {
            LayerKind::Conv2d => (self.k.len() * self.c.len() * geom.fy * geom.fx) as u64 * spatial,
            LayerKind::DepthwiseConv2d => (self.c.len() * geom.fy * geom.fx) as u64 * spatial,
            LayerKind::Dense => (self.k.len() * self.c.len()) as u64,
            LayerKind::Add => 0,
            LayerKind::MatMul => (self.k.len() * self.c.len()) as u64 * spatial,
        }
    }
}

/// Contiguous 1-D DMA transfers that fetch a `c × rows × cols` input slice
/// from a C–y–x laid-out L2 tensor: one per (channel, row), one per
/// channel once the slice spans full rows, and one in all once it spans
/// full planes, since channel slices are then adjacent. This is what the
/// paper's `H_DMA = i_yᵗ` heuristic optimizes (fewer, longer transfers).
#[must_use]
pub(crate) fn input_chunks(geom: &LayerGeometry, c: usize, rows: usize, cols: usize) -> usize {
    if cols != geom.ix {
        c * rows
    } else if rows != geom.iy {
        c
    } else {
        1
    }
}

/// Contiguous 1-D DMA transfers that store a `k × oy × ox` output block to
/// a K–y–x laid-out L2 tensor: one per (channel, row), one per channel
/// once the block spans full rows, and one in all for the whole output.
#[must_use]
pub(crate) fn output_chunks(geom: &LayerGeometry, k: usize, oy: usize, ox: usize) -> usize {
    if ox != geom.ox() {
        k * oy
    } else if oy != geom.oy() || k != geom.k {
        k
    } else {
        1
    }
}

/// Weight elements one `k × c` weight slice stages (for matmul: the `b`
/// slab of `ox` batch columns).
#[must_use]
pub fn staged_weight_elems(geom: &LayerGeometry, k: usize, c: usize, ox: usize) -> usize {
    match geom.kind {
        LayerKind::Conv2d => k * c * geom.fy * geom.fx,
        LayerKind::DepthwiseConv2d => c * geom.fy * geom.fx,
        LayerKind::Dense => k * c,
        LayerKind::Add => 0,
        LayerKind::MatMul => k * c * ox,
    }
}

/// Weight rows a `c`-channel slice programs into an in-memory-compute
/// array: `c·Fy·Fx` for conv, `c` for dense. Depthwise and matmul never
/// map onto one, and add has no weights.
#[must_use]
pub fn mapped_weight_rows(geom: &LayerGeometry, c: usize) -> usize {
    match geom.kind {
        LayerKind::Conv2d => c * geom.fy * geom.fx,
        LayerKind::Dense => c,
        LayerKind::DepthwiseConv2d | LayerKind::Add | LayerKind::MatMul => 0,
    }
}

/// Whether a layer's weight slice varies with the output-column (batch)
/// axis ([`TileInstance::weight_slice`]).
pub(crate) fn weights_follow_batch(kind: LayerKind) -> bool {
    kind == LayerKind::MatMul
}

/// The input rows that output rows `oy` read, clamped into the real input.
pub(crate) fn row_window(geom: &LayerGeometry, oy: Range<usize>) -> Range<usize> {
    window(oy, geom.strides.0, geom.fy, geom.padding.top, geom.iy)
}

/// The input columns that output columns `ox` read, clamped into the real
/// input.
pub(crate) fn col_window(geom: &LayerGeometry, ox: Range<usize>) -> Range<usize> {
    window(ox, geom.strides.1, geom.fx, geom.padding.left, geom.ix)
}

fn window(
    out: Range<usize>,
    stride: usize,
    kernel: usize,
    pad_lo: usize,
    input: usize,
) -> Range<usize> {
    let lo = (out.start * stride) as isize - pad_lo as isize;
    let hi = ((out.end - 1) * stride + kernel) as isize - pad_lo as isize;
    let lo = lo.max(0) as usize;
    let hi = (hi.max(0) as usize).min(input);
    lo..hi.max(lo)
}

/// Enumerates the tile loop for a layer under a tile configuration.
///
/// Iteration order matches DORY's generated loop nest: output channels
/// outermost, then output rows, then output columns, with the reduction
/// slices innermost so partial sums complete before the next output block.
/// Together the instances cover every output element exactly once and every
/// reduction slice exactly once per output block — the coverage invariant
/// the property tests enforce.
///
/// # Panics
///
/// Panics if `tile` is invalid for `geom` (see [`TileConfig::validate`]).
#[must_use]
pub fn tiles(geom: &LayerGeometry, tile: &TileConfig) -> Vec<TileInstance> {
    tile.validate(geom);
    let (oy, ox) = (geom.oy(), geom.ox());
    let mut out = Vec::new();
    let lockstep = matches!(geom.kind, LayerKind::DepthwiseConv2d | LayerKind::Add);
    for k0 in (0..geom.k).step_by(tile.k_t) {
        let k1 = (k0 + tile.k_t).min(geom.k);
        for y0 in (0..oy).step_by(tile.oy_t) {
            let y1 = (y0 + tile.oy_t).min(oy);
            for x0 in (0..ox).step_by(tile.ox_t) {
                let x1 = (x0 + tile.ox_t).min(ox);
                if lockstep {
                    // Depthwise/add: the channel dimension is the k loop.
                    out.push(TileInstance {
                        k: k0..k1,
                        oy: y0..y1,
                        ox: x0..x1,
                        c: k0..k1,
                        first_c: true,
                        last_c: true,
                    });
                } else {
                    let mut c0 = 0usize;
                    while c0 < geom.c {
                        let c1 = (c0 + tile.c_t).min(geom.c);
                        out.push(TileInstance {
                            k: k0..k1,
                            oy: y0..y1,
                            ox: x0..x1,
                            c: c0..c1,
                            first_c: c0 == 0,
                            last_c: c1 == geom.c,
                        });
                        c0 = c1;
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv() -> LayerGeometry {
        LayerGeometry::conv2d(8, 12, 16, 16, 3, 3, (1, 1), (1, 1, 1, 1))
    }

    #[test]
    fn full_tile_is_one_instance() {
        let g = conv();
        let t = TileConfig::full(&g);
        assert!(t.is_full(&g));
        let instances = tiles(&g, &t);
        assert_eq!(instances.len(), 1);
        let i = &instances[0];
        assert!(i.first_c && i.last_c);
        assert_eq!(i.k, 0..12);
        assert_eq!(i.oy, 0..16);
    }

    #[test]
    fn coverage_is_exact() {
        let g = conv();
        let t = TileConfig {
            c_t: 3,
            k_t: 5,
            oy_t: 7,
            ox_t: 16,
        };
        let mut cover = vec![0u32; g.k * g.oy() * g.ox()];
        let mut reduction = vec![0u32; g.c];
        for inst in tiles(&g, &t) {
            if inst.last_c {
                for k in inst.k.clone() {
                    for y in inst.oy.clone() {
                        for x in inst.ox.clone() {
                            cover[(k * g.oy() + y) * g.ox() + x] += 1;
                        }
                    }
                }
            }
            if inst.k.start == 0 && inst.oy.start == 0 && inst.ox.start == 0 {
                for c in inst.c.clone() {
                    reduction[c] += 1;
                }
            }
        }
        assert!(cover.iter().all(|&v| v == 1), "every output exactly once");
        assert!(
            reduction.iter().all(|&v| v == 1),
            "every channel exactly once"
        );
    }

    #[test]
    fn halo_window_clamps_at_borders() {
        let g = conv(); // pad 1, stride 1, fy 3, iy 16
        let t = TileConfig {
            c_t: 8,
            k_t: 12,
            oy_t: 8,
            ox_t: 16,
        };
        let instances = tiles(&g, &t);
        assert_eq!(instances.len(), 2);
        // First tile: output rows 0..8 need input rows -1..9 -> clamped 0..9.
        assert_eq!(instances[0].input_rows(&g), 0..9);
        // Second tile: output rows 8..16 need input rows 7..17 -> 7..16.
        assert_eq!(instances[1].input_rows(&g), 7..16);
    }

    #[test]
    fn in_dims_halo_formula() {
        let g = conv();
        let t = TileConfig {
            c_t: 8,
            k_t: 12,
            oy_t: 4,
            ox_t: 8,
        };
        assert_eq!(t.in_dims(&g), (6, 10)); // (4-1)*1+3, (8-1)*1+3
        let full = TileConfig::full(&g);
        assert_eq!(full.in_dims(&g), (16, 16)); // capped at input size
    }

    #[test]
    fn chunk_model_rewards_full_width() {
        let g = conv();
        let full_width = TileConfig {
            c_t: 8,
            k_t: 12,
            oy_t: 4,
            ox_t: 16,
        };
        let split_width = TileConfig {
            c_t: 8,
            k_t: 12,
            oy_t: 4,
            ox_t: 8,
        };
        let fw = &tiles(&g, &full_width)[0];
        let sw = &tiles(&g, &split_width)[0];
        assert_eq!(fw.input_chunks(&g), 8); // one per channel
        assert_eq!(sw.input_chunks(&g), 8 * sw.input_rows(&g).len());
    }

    #[test]
    fn depthwise_locksteps_channels() {
        let g = LayerGeometry::depthwise(6, 8, 8, 3, 3, (1, 1), (1, 1, 1, 1));
        let t = TileConfig {
            c_t: 4,
            k_t: 4,
            oy_t: 8,
            ox_t: 8,
        };
        let instances = tiles(&g, &t);
        assert_eq!(instances.len(), 2);
        assert_eq!(instances[0].c, instances[0].k);
        assert!(instances.iter().all(|i| i.first_c && i.last_c));
    }

    #[test]
    fn partial_sums_suppress_output_dma() {
        let g = conv();
        let t = TileConfig {
            c_t: 4,
            k_t: 12,
            oy_t: 16,
            ox_t: 16,
        };
        let instances = tiles(&g, &t);
        assert_eq!(instances.len(), 2);
        assert_eq!(instances[0].output_bytes(&g), 0); // first c slice
        assert!(instances[1].output_bytes(&g) > 0); // last c slice
    }

    #[test]
    fn macs_sum_to_layer_total() {
        let g = conv();
        let t = TileConfig {
            c_t: 3,
            k_t: 5,
            oy_t: 6,
            ox_t: 7,
        };
        let total: u64 = tiles(&g, &t).iter().map(|i| i.macs(&g)).sum();
        assert_eq!(total, g.macs());
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        #[test]
        fn num_tiles_is_the_walk_length(
            kind in 0usize..5,
            c in 1usize..=9,
            k in 1usize..=9,
            iy in 1usize..=9,
            ix in 1usize..=9,
            f in 1usize..=3,
            s in 1usize..=2,
            p in 0usize..=1,
        ) {
            let (iy, ix) = (iy.max(f), ix.max(f));
            let g = match kind {
                0 => LayerGeometry::conv2d(c, k, iy, ix, f, f, (s, s), (p, p, p, p)),
                1 => LayerGeometry::depthwise(c, iy, ix, f, f, (s, s), (p, p, p, p)),
                2 => LayerGeometry::dense(c, k),
                3 => LayerGeometry::matmul(c, k, iy, ix.min(3), p == 1),
                _ => LayerGeometry::add(c, iy, ix),
            };
            let lockstep = matches!(g.kind, LayerKind::DepthwiseConv2d | LayerKind::Add);
            for c_t in 1..=g.c {
                for k_t in 1..=g.k {
                    if lockstep && k_t != c_t {
                        continue;
                    }
                    for oy_t in 1..=g.oy() {
                        for ox_t in 1..=g.ox() {
                            let t = TileConfig { c_t, k_t, oy_t, ox_t };
                            proptest::prop_assert_eq!(t.num_tiles(&g), tiles(&g, &t).len(), "{:?} {:?}", g, t);
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of 1..=")]
    fn oversized_tile_panics() {
        let g = conv();
        let t = TileConfig {
            c_t: 9,
            k_t: 12,
            oy_t: 16,
            ox_t: 16,
        };
        t.validate(&g);
    }
}
