//! The kernel microbenchmark: wall time of each `htvm-kernels` fast
//! body and its `_ref` oracle over paper-representative layer shapes.
//!
//! Complements `BENCH.json` (whole-network sweeps) with a focused view of
//! the kernels so a regression is visible as *which kernel slowed
//! down*, not just "the sweep got slower". Emitted as
//! `KERNELS_BENCH.json` — a separate document with its own schema so the
//! pinned `BENCH.json` schema stays untouched — and compared warn-only by
//! `bench-diff --kernels` (wall time is hardware-dependent; it never
//! gates).

use htvm_ir::{DType, Padding2d, Tensor};
use htvm_kernels::{
    conv2d_accumulate_ref, conv2d_accumulate_with, dense_accumulate, dense_accumulate_ref,
    depthwise_conv2d_region, depthwise_conv2d_region_ref, layer_norm, matmul_accumulate_region,
    matmul_accumulate_region_ref, softmax, KernelScratch,
};
use serde::{Deserialize, Serialize};
use std::hint::black_box;
use std::time::Instant;

/// Schema version of `KERNELS_BENCH.json`.
pub const KERNELS_SCHEMA_VERSION: u32 = 2;

/// One timed kernel body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KernelEntry {
    /// Shape label, e.g. `conv3x3_c64_k64_16x16`.
    pub name: String,
    /// Which body ran: `reference` (the `_ref` oracle) or `fast`.
    pub tier: String,
    /// Best wall time of one kernel invocation, in microseconds.
    pub wall_us: f64,
}

/// The full microbenchmark report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KernelsReport {
    /// Schema version ([`KERNELS_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// All timed kernel bodies.
    pub kernels: Vec<KernelEntry>,
}

/// Deterministic pseudo-random tensor in the i8 value range.
fn tensor(dims: &[usize], seed: i32) -> Tensor {
    let len: usize = dims.iter().product();
    let data = (0..len as i32)
        .map(|i| (i.wrapping_mul(2654435761_u32 as i32).wrapping_add(seed)) % 127 - 63)
        .collect();
    Tensor::new(DType::I32, dims, data).expect("values fit i32")
}

/// Best wall time of `f` over a few repetitions, after one warmup (the
/// minimum is the repeatable part of a microsecond-scale timing; the rest
/// is the host).
fn time_us(mut f: impl FnMut()) -> f64 {
    const REPS: usize = 7;
    f(); // warmup: page in buffers, settle the branch predictor
    (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e6
        })
        .fold(f64::INFINITY, f64::min)
}

/// Runs the microbenchmark: conv, depthwise conv, dense and attention
/// kernels over shapes representative of the paper's MLPerf-Tiny
/// workloads (ResNet blocks, MobileNet pointwise/depthwise pairs, DS-CNN,
/// classifier heads) and of the tiny-transformer's attention block, each
/// timed on its `_ref` oracle and on its fast body.
#[must_use]
pub fn collect() -> KernelsReport {
    let mut kernels = Vec::new();

    // Standard convolutions: (label, C, K, H/W, Fy/Fx, stride, pad).
    let convs = [
        ("conv3x3_c16_k16_32x32", 16, 16, 32, 3, 1, 1), // ResNet-8 body
        ("conv3x3_c64_k64_8x8", 64, 64, 8, 3, 1, 1),    // ResNet-8 deep stage
        ("conv1x1_c64_k128_16x16", 64, 128, 16, 1, 1, 0), // MobileNet pointwise
        ("conv3x3_s2_c3_k16_32x32", 3, 16, 32, 3, 2, 1), // strided stem
    ];
    for (name, c, k, hw, f, s, p) in convs {
        let x = tensor(&[c, hw, hw], 3);
        let w = tensor(&[k, c, f, f], 17);
        let oy = (hw + 2 * p - f) / s + 1;
        for (label, reference) in [("reference", true), ("fast", false)] {
            let mut scratch = KernelScratch::new();
            let mut out = Tensor::zeros(DType::I32, &[k, oy, oy]);
            let (strides, pad) = ((s, s), Padding2d::same(p));
            let wall_us = time_us(|| {
                if reference {
                    conv2d_accumulate_ref(&x, &w, &mut out, strides, pad, 0..k, 0..oy, 0..oy, 0..c);
                } else {
                    conv2d_accumulate_with(
                        &mut scratch,
                        &x,
                        &w,
                        &mut out,
                        strides,
                        pad,
                        0..k,
                        0..oy,
                        0..oy,
                        0..c,
                    );
                }
            });
            kernels.push(KernelEntry {
                name: name.to_string(),
                tier: label.to_string(),
                wall_us,
            });
        }
    }

    // Depthwise convolutions: (label, C, H/W, F, stride).
    let dwconvs = [
        ("dwconv3x3_c64_16x16", 64, 16, 3, 1), // MobileNet depthwise
        ("dwconv3x3_s2_c128_8x8", 128, 8, 3, 2),
    ];
    for (name, c, hw, f, s) in dwconvs {
        let x = tensor(&[c, hw, hw], 5);
        let w = tensor(&[c, f, f], 23);
        let oy = (hw + 2 - f) / s + 1;
        for (label, reference) in [("reference", true), ("fast", false)] {
            let mut out = Tensor::zeros(DType::I32, &[c, oy, oy]);
            let wall_us = time_us(|| {
                if reference {
                    depthwise_conv2d_region_ref(
                        &x,
                        &w,
                        &mut out,
                        (s, s),
                        Padding2d::same(1),
                        0..c,
                        0..oy,
                        0..oy,
                    );
                } else {
                    depthwise_conv2d_region(
                        &x,
                        &w,
                        &mut out,
                        (s, s),
                        Padding2d::same(1),
                        0..c,
                        0..oy,
                        0..oy,
                    );
                }
            });
            kernels.push(KernelEntry {
                name: name.to_string(),
                tier: label.to_string(),
                wall_us,
            });
        }
    }

    // Dense layers: (label, K, C).
    let denses = [
        ("dense_k12_c64", 12, 64),     // DS-CNN classifier head
        ("dense_k256_c640", 256, 640), // ToyADMOS autoencoder bottleneck
    ];
    for (name, k, c) in denses {
        let x = tensor(&[c], 7);
        let w = tensor(&[k, c], 29);
        for (label, reference) in [("reference", true), ("fast", false)] {
            let mut out = Tensor::zeros(DType::I32, &[k]);
            let wall_us = time_us(|| {
                if reference {
                    dense_accumulate_ref(&x, &w, &mut out, 0..k, 0..c);
                } else {
                    dense_accumulate(&x, &w, &mut out, 0..k, 0..c);
                }
            });
            kernels.push(KernelEntry {
                name: name.to_string(),
                tier: label.to_string(),
                wall_us,
            });
        }
    }

    // The tiny-transformer's attention block on i8 activations, scores =
    // x·xᵀ then context = probs·x: (label, transpose_b, a dims, b dims).
    let (qkt, pv) = ("matmul_qkt_h2_m256_d32", "matmul_pv_h2_m256_d256_n32");
    let matmuls = [
        (qkt, true, [2, 256, 32], [2, 256, 32]),
        (pv, false, [2, 256, 256], [2, 256, 32]),
    ];
    for (name, transpose_b, a_dims, b_dims) in matmuls {
        let a = tensor(&a_dims, 11).saturating_cast(DType::I8);
        let b = tensor(&b_dims, 13).saturating_cast(DType::I8);
        let [h, m, d] = a_dims;
        let n = if transpose_b { b_dims[1] } else { b_dims[2] };
        for (label, reference) in [("reference", true), ("fast", false)] {
            let mut out = Tensor::zeros(DType::I32, &[h, m, n]);
            let wall_us = time_us(|| {
                if reference {
                    matmul_accumulate_region_ref(
                        &a,
                        &b,
                        transpose_b,
                        &mut out,
                        0..h,
                        0..m,
                        0..n,
                        0..d,
                    );
                } else {
                    matmul_accumulate_region(&a, &b, transpose_b, &mut out, 0..h, 0..m, 0..n, 0..d);
                }
            });
            kernels.push(KernelEntry {
                name: name.to_string(),
                tier: label.to_string(),
                wall_us,
            });
        }
    }
    // ... and the two CPU-side ops around them (one body each).
    let scores = tensor(&[2, 256, 256], 19).saturating_cast(DType::I8);
    let context = tensor(&[2, 256, 32], 31).saturating_cast(DType::I8);
    let softmax_us = time_us(|| drop(black_box(softmax(&scores))));
    let layer_norm_us = time_us(|| drop(black_box(layer_norm(&context))));
    for (name, wall_us) in [
        ("softmax_2x256x256", softmax_us),
        ("layer_norm_2x256x32", layer_norm_us),
    ] {
        kernels.push(KernelEntry {
            name: name.to_string(),
            tier: "fast".to_string(),
            wall_us,
        });
    }

    KernelsReport {
        schema_version: KERNELS_SCHEMA_VERSION,
        kernels,
    }
}

/// Compares two kernel microbenchmark reports. Purely informational:
/// returns `(warnings, improvements)` strings and never gates — kernel
/// wall time depends on the host CPU, so `bench-diff` prints these
/// warn-only, mirroring its existing wall-time fields.
#[must_use]
pub fn diff_kernels(
    base: &KernelsReport,
    new: &KernelsReport,
    tol_pct: f64,
) -> (Vec<String>, Vec<String>) {
    let mut warnings = Vec::new();
    let mut improvements = Vec::new();
    if base.schema_version != new.schema_version {
        warnings.push(format!(
            "kernel bench schema changed: v{} -> v{}",
            base.schema_version, new.schema_version
        ));
        return (warnings, improvements);
    }
    for b in &base.kernels {
        let Some(n) = new
            .kernels
            .iter()
            .find(|n| n.name == b.name && n.tier == b.tier)
        else {
            warnings.push(format!("{}/{}: missing from new report", b.name, b.tier));
            continue;
        };
        if b.wall_us <= 0.0 {
            continue;
        }
        let delta_pct = (n.wall_us - b.wall_us) / b.wall_us * 100.0;
        if delta_pct > tol_pct {
            warnings.push(format!(
                "{}/{}: kernel wall time regressed {:+.1}% ({:.1} us -> {:.1} us)",
                b.name, b.tier, delta_pct, b.wall_us, n.wall_us
            ));
        } else if delta_pct < -tol_pct {
            improvements.push(format!(
                "{}/{}: kernel wall time improved {:+.1}% ({:.1} us -> {:.1} us)",
                b.name, b.tier, delta_pct, b.wall_us, n.wall_us
            ));
        }
    }
    (warnings, improvements)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_times_every_tier() {
        let r = collect();
        assert_eq!(r.schema_version, KERNELS_SCHEMA_VERSION);
        assert!(r.kernels.iter().all(|k| k.wall_us > 0.0));
        // Every kernel with a `_ref` oracle carries both rows.
        for prefix in ["conv", "dwconv", "dense", "matmul_qkt", "matmul_pv"] {
            for tier in ["reference", "fast"] {
                assert!(
                    r.kernels
                        .iter()
                        .any(|k| k.name.starts_with(prefix) && k.tier == tier),
                    "missing {prefix} {tier}"
                );
            }
        }
        for cpu_op in ["softmax", "layer_norm"] {
            assert!(
                r.kernels
                    .iter()
                    .any(|k| k.name.starts_with(cpu_op) && k.tier == "fast"),
                "missing attention kernel {cpu_op}"
            );
        }
    }

    #[test]
    fn diff_flags_regressions_and_improvements_only() {
        let base = KernelsReport {
            schema_version: KERNELS_SCHEMA_VERSION,
            kernels: vec![
                KernelEntry {
                    name: "a".into(),
                    tier: "reference".into(),
                    wall_us: 100.0,
                },
                KernelEntry {
                    name: "b".into(),
                    tier: "fast".into(),
                    wall_us: 100.0,
                },
            ],
        };
        let mut new = base.clone();
        new.kernels[0].wall_us = 300.0; // regression
        new.kernels[1].wall_us = 10.0; // improvement
        let (warn, good) = diff_kernels(&base, &new, 50.0);
        assert_eq!(warn.len(), 1);
        assert!(warn[0].contains("a/reference"));
        assert_eq!(good.len(), 1);
        assert!(good[0].contains("b/fast"));
        // Within tolerance: silent.
        let (warn, good) = diff_kernels(&base, &base, 50.0);
        assert!(warn.is_empty() && good.is_empty());
    }
}
