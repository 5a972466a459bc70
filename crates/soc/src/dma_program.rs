//! Compile-time DMA descriptor programs.
//!
//! The DORY tile loop's temporal model is a pure function of the layer
//! descriptor and the platform configuration: which (c, oy, ox) input
//! slices get fetched, when the (k, c) weight slice is restaged, how many
//! bytes and 1-D chunks each transaction moves. On real DIANA silicon
//! HTVM resolves all of this at *compile* time — the generated C contains
//! literal DMA calls, not geometry math. This module gives the simulator
//! the same structure, and it is the *only* definition of what an
//! accelerator step is charged for: [`linearize_step`] walks the tile loop
//! once and flattens every DMA transaction into a [`DmaDescriptor`] list
//! (plus compute/pool/weight-programming cycles pre-summed), and the
//! [`Machine`](crate::Machine) times a step by replaying those
//! descriptors. Every unit is priced by the platform's
//! [`CostModel`](htvm_dory::CostModel), the tiler's own price list.
//!
//! Descriptors are recorded in issue order (input operands → digital
//! weight staging → output store, per tile). The machine derives every
//! step's program from the step's own descriptor each time it runs it, so
//! nothing an artifact stores can change a cycle. The compiler still
//! records the programs in the artifact's [`DmaTable`], which the
//! simulator never reads.

use crate::{AccelLayerDesc, DianaConfig, EngineKind};
use htvm_dory::{staged_weight_elems, tiles, EngineModel, LayerKind, TileInstance};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Direction/target of one pre-linearized DMA transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DmaDir {
    /// Activation fetch, L2 → L1 (one operand; element-wise add records
    /// two consecutive `In` descriptors per fetched slice).
    In,
    /// Digital weight staging into the accelerator's weight memory.
    /// Analog row programming is *not* a DMA transaction and never
    /// appears as a descriptor (it lands in [`StepDma::analog_weight`]).
    Weight,
    /// Output store, L1 → L2. Recorded even for zero-byte reduction
    /// slices, so every tile has exactly one store slot.
    Out,
}

/// One pre-resolved DMA transaction of an accelerator step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct DmaDescriptor {
    /// What the transaction moves.
    pub dir: DmaDir,
    /// Payload bytes (may be 0 for final-reduction-only output slots).
    pub bytes: u64,
    /// Contiguous 1-D chunks the payload is split over.
    pub chunks: u64,
}

/// The flattened temporal program of one accelerator step: every DMA
/// transaction in issue order, plus the loop-invariant cycle sums that
/// replay needs (compute, fused pooling, analog row programming).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct StepDma {
    /// Tile instances the step executes (drives per-tile host overhead
    /// and the double-buffering fill estimate).
    pub n_tiles: u64,
    /// Datapath compute cycles summed over all tiles, *excluding* fused
    /// pooling (double-buffering overlaps DMA with this sum only, exactly
    /// as the interpreter does).
    pub compute: u64,
    /// Fused output-pooling cycles, added to compute after the
    /// double-buffering adjustment.
    pub pool: u64,
    /// Analog macro row-programming cycles (not DMA).
    pub analog_weight: u64,
    /// Every DMA transaction in global issue order.
    pub descriptors: Vec<DmaDescriptor>,
}

/// The compiler's record of the DMA programs of a
/// [`Program`](crate::Program)'s accelerator steps, keyed by step index.
///
/// A sorted vector rather than a map keeps the serialized form stable
/// and human-readable. The [`Machine`](crate::Machine) never reads it:
/// it linearizes every step for its own configuration, so a table can
/// only describe a run, never alter one.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct DmaTable {
    entries: Vec<(usize, StepDma)>,
}

impl DmaTable {
    /// Registers (or replaces) the DMA program for step `step`.
    pub fn insert(&mut self, step: usize, program: StepDma) {
        match self.entries.binary_search_by_key(&step, |(s, _)| *s) {
            Ok(pos) => self.entries[pos].1 = program,
            Err(pos) => self.entries.insert(pos, (step, program)),
        }
    }

    /// Number of steps carrying a DMA program.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no steps were linearized.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates `(step index, program)` in step order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &StepDma)> {
        self.entries.iter().map(|(s, p)| (*s, p))
    }
}

/// Fused output-pooling cycles for one accelerator layer: runs in the
/// output SIMD stage, one window element per SIMD beat (paper §III-C).
/// Pool output dims follow `kernels::pool2d`'s shape rule,
/// `(padded − kernel) / stride + 1`, so they equal the tensor-derived count.
fn pool_cycles(engine: &EngineModel, desc: &AccelLayerDesc) -> u64 {
    let Some(pool) = &desc.pool else { return 0 };
    let (geom, pad) = (&desc.geom, &pool.padding);
    let oy = (geom.oy() + pad.top + pad.bottom - pool.kernel.0) / pool.strides.0 + 1;
    let ox = (geom.ox() + pad.left + pad.right - pool.kernel.1) / pool.strides.1 + 1;
    let window = (pool.kernel.0 * pool.kernel.1) as u64;
    engine.output_stage_cycles((geom.k * oy * ox) as u64 * window)
}

/// Walks one accelerator step's tile loop and flattens its temporal model
/// into a [`StepDma`]: every DMA transaction as a descriptor in issue
/// order, compute/pool/row-programming cycles pre-summed.
///
/// This walk *is* the temporal model of the DORY tile loop — input-slice
/// residency, the weight restaging rule, the transaction order; the
/// exact-cycle goldens and the frozen table in `machine.rs` pin it down.
///
/// # Panics
///
/// Panics if `engine` is [`EngineKind::Cpu`]; CPU steps have no tile loop.
#[must_use]
pub fn linearize_step(cfg: &DianaConfig, engine: EngineKind, desc: &AccelLayerDesc) -> StepDma {
    linearize_tiles(cfg, engine, desc, &tiles(&desc.geom, &desc.tile))
}

/// [`linearize_step`] over an already enumerated tile loop (`instances`
/// must be `tiles(&desc.geom, &desc.tile)`), for the machine, which holds
/// that list anyway to execute the step.
pub(crate) fn linearize_tiles(
    cfg: &DianaConfig,
    engine: EngineKind,
    desc: &AccelLayerDesc,
    instances: &[TileInstance],
) -> StepDma {
    let model = cfg.cost_model(engine).engine;
    let geom = &desc.geom;
    let mut program = StepDma {
        n_tiles: instances.len() as u64,
        pool: pool_cycles(&model, desc),
        ..StepDma::default()
    };

    let mut prev_weights: Option<[Range<usize>; 3]> = None;
    let mut prev_input: Option<(Range<usize>, Range<usize>, Range<usize>)> = None;
    for inst in instances {
        // Activation fetch (two operands for element-wise add). The L1
        // input buffer is single-buffered per layer, so consecutive
        // instances over the same (c, oy, ox) slice — e.g. successive
        // output-channel blocks of an untiled-input layer — reuse the
        // resident tile without a new transfer.
        let input_slice = (inst.c.clone(), inst.oy.clone(), inst.ox.clone());
        if prev_input.as_ref() != Some(&input_slice) {
            let operand_count = if geom.kind == LayerKind::Add { 2 } else { 1 };
            let fetch = DmaDescriptor {
                dir: DmaDir::In,
                bytes: inst.input_bytes(geom) as u64,
                chunks: inst.input_chunks(geom) as u64,
            };
            for _ in 0..operand_count {
                program.descriptors.push(fetch);
            }
            prev_input = Some(input_slice);
        }
        // Weight staging whenever the tile's weight slice changes.
        if geom.kind != LayerKind::Add {
            let slice = inst.weight_slice(geom);
            if prev_weights.as_ref() != Some(&slice) {
                match model {
                    EngineModel::Digital { .. } => {
                        let elems =
                            staged_weight_elems(geom, inst.k.len(), inst.c.len(), inst.ox.len());
                        program.descriptors.push(DmaDescriptor {
                            dir: DmaDir::Weight,
                            bytes: geom.w_dtype.storage_bytes(elems) as u64,
                            chunks: 1,
                        });
                    }
                    EngineModel::Analog { .. } => {
                        program.analog_weight += model.program_cycles(geom, inst.c.len());
                    }
                }
                prev_weights = Some(slice);
            }
        }
        program.compute += model.tile_cycles(geom, inst);
        // Output store (final reduction slice only, but the transaction
        // slot exists for every tile — zero-byte stores included).
        program.descriptors.push(DmaDescriptor {
            dir: DmaDir::Out,
            bytes: inst.output_bytes(geom) as u64,
            chunks: inst.output_chunks(geom) as u64,
        });
    }
    program
}

#[cfg(test)]
mod tests {
    use super::*;
    use htvm_dory::{LayerGeometry, TileConfig};
    use htvm_ir::{DType, Tensor};

    fn conv_desc(tile: TileConfig) -> AccelLayerDesc {
        let geom = LayerGeometry::conv2d(4, 6, 8, 8, 3, 3, (1, 1), (1, 1, 1, 1));
        AccelLayerDesc {
            name: "conv".into(),
            geom,
            tile,
            weights: Some(Tensor::zeros(DType::I8, &[6, 4, 3, 3])),
            bias: None,
            shift: 0,
            relu: false,
            pool: None,
        }
    }

    #[test]
    fn zero_byte_descriptor_is_free_but_keeps_its_transaction_slot() {
        // A non-final reduction slice stores 0 bytes over its (nonzero)
        // chunk pattern: no cycles, but every tile keeps its store slot.
        let cfg = DianaConfig::default();
        let d = DmaDescriptor {
            dir: DmaDir::Out,
            bytes: 0,
            chunks: 5,
        };
        let dma = cfg.cost_model(EngineKind::Digital);
        assert_eq!(dma.transfer_cycles(d.bytes, d.chunks), 0);

        // c-split conv: every non-final c slice emits a zero-byte store.
        let desc = conv_desc(TileConfig {
            c_t: 2,
            k_t: 6,
            oy_t: 8,
            ox_t: 8,
        });
        let program = linearize_step(&cfg, EngineKind::Digital, &desc);
        let zero_stores = program
            .descriptors
            .iter()
            .filter(|d| d.dir == DmaDir::Out && d.bytes == 0)
            .count();
        assert_eq!(zero_stores, 1, "first of two c-slices stores nothing");
        let out_slots = program
            .descriptors
            .iter()
            .filter(|d| d.dir == DmaDir::Out)
            .count();
        assert_eq!(out_slots as u64, program.n_tiles, "one slot per tile");
    }

    #[test]
    fn single_byte_tail_pays_setup_plus_one_beat() {
        let cfg = DianaConfig::default();
        let d = DmaDescriptor {
            dir: DmaDir::In,
            bytes: 1,
            chunks: 1,
        };
        assert_eq!(
            cfg.cost_model(EngineKind::Digital)
                .transfer_cycles(d.bytes, d.chunks),
            cfg.dma.setup_cycles + 1,
            "a 1-byte tail still costs one full setup and one bus beat"
        );
    }

    #[test]
    fn untiled_layer_linearizes_to_three_transactions() {
        let cfg = DianaConfig::default();
        let desc = conv_desc(TileConfig {
            c_t: 4,
            k_t: 6,
            oy_t: 8,
            ox_t: 8,
        });
        let program = linearize_step(&cfg, EngineKind::Digital, &desc);
        assert_eq!(program.n_tiles, 1);
        let dirs: Vec<DmaDir> = program.descriptors.iter().map(|d| d.dir).collect();
        assert_eq!(dirs, vec![DmaDir::In, DmaDir::Weight, DmaDir::Out]);
        assert!(program.compute > 0);
        assert_eq!(program.analog_weight, 0);
    }

    #[test]
    fn analog_weight_programming_is_not_a_descriptor() {
        let cfg = DianaConfig::default();
        let desc = conv_desc(TileConfig {
            c_t: 4,
            k_t: 3,
            oy_t: 8,
            ox_t: 8,
        });
        let program = linearize_step(&cfg, EngineKind::Analog, &desc);
        assert!(program.analog_weight > 0, "rows were programmed");
        assert!(
            program.descriptors.iter().all(|d| d.dir != DmaDir::Weight),
            "analog row programming must not occupy a DMA transaction slot"
        );
    }

    #[test]
    fn input_residency_dedup_matches_tile_order() {
        // k split with full input: the (c, oy, ox) slice never changes, so
        // exactly one input fetch is recorded across all k tiles.
        let cfg = DianaConfig::default();
        let desc = conv_desc(TileConfig {
            c_t: 4,
            k_t: 2,
            oy_t: 8,
            ox_t: 8,
        });
        let program = linearize_step(&cfg, EngineKind::Digital, &desc);
        assert_eq!(program.n_tiles, 3);
        let fetches = program
            .descriptors
            .iter()
            .filter(|d| d.dir == DmaDir::In)
            .count();
        assert_eq!(fetches, 1, "resident input is fetched once");
        let weights = program
            .descriptors
            .iter()
            .filter(|d| d.dir == DmaDir::Weight)
            .count();
        assert_eq!(weights, 3, "each k slice restages weights");
    }

    #[test]
    fn table_insert_replaces_an_entry() {
        let cfg = DianaConfig::default();
        let desc = conv_desc(TileConfig {
            c_t: 4,
            k_t: 6,
            oy_t: 8,
            ox_t: 8,
        });
        let program = linearize_step(&cfg, EngineKind::Digital, &desc);
        let mut table = DmaTable::default();
        table.insert(0, StepDma::default());
        table.insert(0, program.clone());
        let entries: Vec<(usize, &StepDma)> = table.iter().collect();
        assert_eq!(entries, vec![(0, &program)], "insert replaces an entry");
    }

    #[test]
    fn table_round_trips_through_serde() {
        let cfg = DianaConfig::default();
        let desc = conv_desc(TileConfig {
            c_t: 2,
            k_t: 3,
            oy_t: 4,
            ox_t: 8,
        });
        let mut table = DmaTable::default();
        table.insert(0, linearize_step(&cfg, EngineKind::Digital, &desc));
        let json = serde_json::to_string(&table).unwrap();
        let back: DmaTable = serde_json::from_str(&json).unwrap();
        assert_eq!(table, back);
    }
}
