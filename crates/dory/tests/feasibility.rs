//! `feasible` is `solve(..).is_ok()`: dispatch asks the first, lowering
//! runs the second, and a layer the two disagree on either fails to
//! compile or loses its accelerator.

use htvm_dory::{
    feasible, solve, tile_fits, ArrayDims, LayerGeometry, MemoryBudget, TileConfig, TilingError,
    TilingObjective,
};
use htvm_ir::DType;
use proptest::prelude::*;

fn separate(act_bytes: usize, weight_bytes: usize) -> MemoryBudget {
    MemoryBudget {
        act_bytes,
        weight_bytes: Some(weight_bytes),
        array: None,
    }
}

fn analog(act_bytes: usize, rows: usize, cols: usize) -> MemoryBudget {
    MemoryBudget {
        act_bytes,
        weight_bytes: None,
        array: Some(ArrayDims { rows, cols }),
    }
}

fn assert_agrees(geom: &LayerGeometry, budget: &MemoryBudget) -> bool {
    let answer = feasible(geom, budget);
    for objective in [
        TilingObjective::diana_digital(),
        TilingObjective::diana_analog(),
    ] {
        let solved = solve(geom, budget, &objective);
        assert_eq!(
            answer,
            solved.is_ok(),
            "feasible says {answer}, solve says {solved:?} for {geom:?} in {budget:?}"
        );
    }
    answer
}

/// Conv / depthwise / dense / matmul / add over small dimensions, dense
/// wide enough to cross the solver's pruned-candidate threshold (96).
fn geometry() -> impl Strategy<Value = LayerGeometry> {
    (
        0usize..5,   // kind
        1usize..=40, // c
        1usize..=40, // k
        1usize..=20, // iy
        1usize..=20, // ix
        1usize..=5,  // filter
        1usize..=2,  // stride
        0usize..=1,  // pad
    )
        .prop_map(|(kind, c, k, iy, ix, f, s, p)| match kind {
            0 => LayerGeometry::conv2d(c, k, iy.max(f), ix.max(f), f, f, (s, s), (p, p, p, p)),
            1 => LayerGeometry::depthwise(c, iy.max(f), ix.max(f), f, f, (s, s), (p, p, p, p)),
            2 => LayerGeometry::dense(c * 17, k * 5),
            3 => LayerGeometry::matmul(c, k, iy, ix.min(4), p == 1),
            _ => LayerGeometry::add(c, iy, ix),
        })
}

/// The three budget shapes, activation budgets log-spread over
/// 1 B ..= 256 kB so the infeasible edge is hit as often as the roomy end.
fn budget() -> impl Strategy<Value = MemoryBudget> {
    (0usize..3, 0u32..=18, 0usize..1024, 0usize..4).prop_map(|(shape, exp, frac, small)| {
        let act_bytes = ((1usize << exp) + (frac << exp) / 1024).min(256 * 1024);
        match shape {
            0 => separate(act_bytes, [16, 1024, 8 * 1024, 64 * 1024][small]),
            1 => analog(
                act_bytes,
                [8, 64, 1152, 1152][small],
                [4, 512, 16, 512][small],
            ),
            _ => MemoryBudget::unified(act_bytes),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn feasible_is_solve_is_ok(geom in geometry(), ternary in any::<bool>(), budget in budget()) {
        let geom = if ternary { geom.with_weight_dtype(DType::Ternary) } else { geom };
        assert_agrees(&geom, &budget);
    }
}

#[test]
fn toyadmos_first_dense_is_feasible_and_tiled() {
    // 640 -> 128: 80 kB of weights against the 64 kB digital store.
    let geom = LayerGeometry::dense(640, 128);
    let budget = separate(128 * 1024, 64 * 1024);
    assert!(assert_agrees(&geom, &budget));
    let solved = solve(&geom, &budget, &TilingObjective::diana_digital()).unwrap();
    assert!(!solved.fits_untiled && solved.n_tiles > 1);
}

#[test]
fn analog_filter_taller_than_the_array_is_infeasible() {
    // 35 * 35 = 1225 weight rows per input channel: even c_t = 1 cannot
    // be placed on 1152 rows, whatever the activation budget.
    let geom = LayerGeometry::conv2d(4, 8, 40, 40, 35, 35, (1, 1), (0, 0, 0, 0))
        .with_weight_dtype(DType::Ternary);
    let budget = analog(128 * 1024, 1152, 512);
    assert!(!assert_agrees(&geom, &budget));
    assert!(matches!(
        solve(&geom, &budget, &TilingObjective::diana_analog()),
        Err(TilingError::DoesNotFit { .. })
    ));
}

#[test]
fn smallest_tile_is_not_the_feasibility_question() {
    // The reduction-split trap. On 4 bytes of activation memory the full
    // tile (8 + 4 B) does not fit, and neither does the smallest one:
    // c_t = 1 splits the reduction, so its single output is a 4-byte
    // partial sum next to 1 input byte. c_t = c holds 2 input bytes and a
    // 1-byte output — a "smallest tile fits" shortcut answers wrong.
    let geom = LayerGeometry::conv2d(2, 1, 2, 2, 1, 1, (1, 1), (0, 0, 0, 0));
    let budget = separate(4, 64 * 1024);
    let tile = |c_t| TileConfig {
        c_t,
        k_t: 1,
        oy_t: 1,
        ox_t: 1,
    };
    assert!(!tile_fits(&geom, &TileConfig::full(&geom), &budget));
    assert!(!tile_fits(&geom, &tile(1), &budget));
    assert!(tile_fits(&geom, &tile(2), &budget));
    assert!(assert_agrees(&geom, &budget));
}
