//! Declarative platform/capability manifests for heterogeneous fleets.
//!
//! A serving fleet is rarely one SoC: the same compile tier fronts DIANA
//! boards next to plain MCUs and commercial clusters. A
//! [`PlatformManifest`] is the declarative description of that fleet —
//! one [`PlatformSpec`] per platform, each carrying:
//!
//! - a stable **id** the serving layer routes jobs by,
//! - the **SoC model** ([`DianaConfig`]) the compiler and simulator use
//!   (memories, engines, clock — everything that feeds the artifact),
//! - the **capabilities** the platform physically has (which engines a
//!   deploy target may dispatch to), and
//! - optionally the Table II **reference model**
//!   ([`crate::platforms::PlatformModel`]) the latency comparisons are
//!   calibrated against.
//!
//! The manifest is plain serde data — it round-trips through JSON
//! ([`PlatformManifest::from_json`]) so a deployment can describe its
//! fleet in a config file instead of code. [`PlatformManifest::builtin`]
//! keys the platforms this repository already models: the default DIANA
//! SoC plus the three Table II comparison platforms from
//! [`platforms`](crate::platforms), each as a capability-gated SoC
//! config calibrated from its published MLPerf™ Tiny cost model.

use crate::config::{CpuConfig, DianaConfig};
use crate::platforms::PlatformModel;
use serde::{Deserialize, Serialize};

/// Which engines a platform physically has. The serving layer refuses
/// (typed, never a panic) any deploy target that needs an engine the
/// platform lacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Capabilities {
    /// A host CPU that can run TVM-style fused kernels. Every real
    /// platform has one; a manifest entry without it is invalid.
    pub cpu: bool,
    /// The 16×16-PE digital accelerator.
    pub digital: bool,
    /// The analog in-memory-compute accelerator.
    pub analog: bool,
}

impl Capabilities {
    /// CPU only — the MCU-class comparison platforms.
    #[must_use]
    pub fn cpu_only() -> Self {
        Capabilities {
            cpu: true,
            digital: false,
            analog: false,
        }
    }

    /// Everything DIANA has: CPU plus both accelerators.
    #[must_use]
    pub fn full() -> Self {
        Capabilities {
            cpu: true,
            digital: true,
            analog: true,
        }
    }
}

/// One platform in the fleet: identity, SoC model, capabilities.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlatformSpec {
    /// Stable routing id: lowercase ASCII letters, digits, `-` and `_`.
    pub id: String,
    /// One-line human description.
    pub summary: String,
    /// The SoC model compilation and simulation run against. This feeds
    /// the artifact cache key, so two specs with different `soc` fields
    /// can never alias a cached artifact.
    pub soc: DianaConfig,
    /// Which engines deploy targets may dispatch to.
    pub capabilities: Capabilities,
    /// The Table II reference cost model this spec was calibrated from,
    /// when there is one (`None` for DIANA itself, which the full
    /// simulator covers).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub reference_model: Option<PlatformModel>,
}

/// Why a manifest failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManifestError {
    /// The manifest declares no platforms at all.
    Empty,
    /// A platform id is empty or uses characters outside
    /// `[a-z0-9_-]`.
    BadId(String),
    /// Two platforms share one id.
    DuplicateId(String),
    /// A platform declares no CPU — nothing could execute fallback or
    /// host kernels there.
    NoCpu(String),
    /// A platform's SoC sets a field the cost model divides by, e.g.
    /// `dma.bytes_per_cycle`, to zero: `(platform id, field)`.
    ZeroDivisor(String, &'static str),
}

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ManifestError::Empty => write!(f, "manifest declares no platforms"),
            ManifestError::BadId(id) => write!(
                f,
                "platform id {id:?} is invalid (want non-empty [a-z0-9_-])"
            ),
            ManifestError::DuplicateId(id) => write!(f, "duplicate platform id {id:?}"),
            ManifestError::NoCpu(id) => write!(f, "platform {id:?} declares no host CPU"),
            ManifestError::ZeroDivisor(id, field) => {
                write!(f, "platform {id:?} sets soc.{field} to zero")
            }
        }
    }
}

impl std::error::Error for ManifestError {}

/// A declarative fleet description: every platform the serving tier
/// compiles for. Construct with [`PlatformManifest::builtin`], from
/// JSON, or literally; [`PlatformManifest::validate`] is called by the
/// serving layer before any routing table is built.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlatformManifest {
    /// The platforms, in declaration order (stats and routing tables
    /// preserve this order).
    pub platforms: Vec<PlatformSpec>,
}

/// The id of the platform a request that names none is routed to.
pub const DEFAULT_PLATFORM: &str = "diana";

impl PlatformManifest {
    /// The built-in fleet: DIANA plus the three Table II comparison
    /// platforms, each as a capability-gated SoC config.
    #[must_use]
    pub fn builtin() -> Self {
        let manifest = PlatformManifest {
            platforms: vec![
                PlatformSpec {
                    id: DEFAULT_PLATFORM.to_owned(),
                    summary: "DIANA: RISC-V host + 16x16 digital + analog IMC (paper Table I)"
                        .to_owned(),
                    soc: DianaConfig::default(),
                    capabilities: Capabilities::full(),
                    reference_model: None,
                },
                PlatformSpec {
                    id: "stm32l4r5-tvm".to_owned(),
                    summary: "STM32L4R5 (Cortex-M4 class) running plain TVM kernels".to_owned(),
                    soc: mcu_soc(&PlatformModel::stm32_tvm(), 640 * 1024),
                    capabilities: Capabilities::cpu_only(),
                    reference_model: Some(PlatformModel::stm32_tvm()),
                },
                PlatformSpec {
                    id: "stm32l4r5-cmsis".to_owned(),
                    summary: "STM32L4R5 with CMSIS-NN SIMD kernels".to_owned(),
                    soc: mcu_soc(&PlatformModel::stm32_cmsis_nn(), 640 * 1024),
                    capabilities: Capabilities::cpu_only(),
                    reference_model: Some(PlatformModel::stm32_cmsis_nn()),
                },
                PlatformSpec {
                    id: "gap9".to_owned(),
                    summary: "GAP9 8-core RISC-V cluster with GAPflow kernels".to_owned(),
                    soc: mcu_soc(&PlatformModel::gap9_gapflow(), 1536 * 1024),
                    capabilities: Capabilities::cpu_only(),
                    reference_model: Some(PlatformModel::gap9_gapflow()),
                },
            ],
        };
        manifest
            .validate()
            .expect("the builtin manifest is valid by construction");
        manifest
    }

    /// Checks ids (non-empty, `[a-z0-9_-]`, unique), capabilities (every
    /// platform has a CPU) and that no rate the cost model divides by is
    /// zero.
    ///
    /// # Errors
    ///
    /// The first [`ManifestError`] found, in declaration order.
    pub fn validate(&self) -> Result<(), ManifestError> {
        if self.platforms.is_empty() {
            return Err(ManifestError::Empty);
        }
        let mut seen = std::collections::HashSet::new();
        for spec in &self.platforms {
            let ok_id = !spec.id.is_empty()
                && spec.id.bytes().all(|b| {
                    b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-' || b == b'_'
                });
            if !ok_id {
                return Err(ManifestError::BadId(spec.id.clone()));
            }
            if !seen.insert(spec.id.as_str()) {
                return Err(ManifestError::DuplicateId(spec.id.clone()));
            }
            if !spec.capabilities.cpu {
                return Err(ManifestError::NoCpu(spec.id.clone()));
            }
            if let Some(field) = zero_divisor(&spec.soc) {
                return Err(ManifestError::ZeroDivisor(spec.id.clone(), field));
            }
        }
        Ok(())
    }

    /// Looks a platform up by id.
    #[must_use]
    pub fn get(&self, id: &str) -> Option<&PlatformSpec> {
        self.platforms.iter().find(|spec| spec.id == id)
    }

    /// The declared ids, in declaration order.
    #[must_use]
    pub fn ids(&self) -> Vec<&str> {
        self.platforms.iter().map(|spec| spec.id.as_str()).collect()
    }

    /// Parses and validates a manifest from its JSON encoding.
    ///
    /// # Errors
    ///
    /// A human-readable message for both parse and validation failures.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let manifest: PlatformManifest =
            serde_json::from_str(json).map_err(|e| format!("manifest does not parse: {e}"))?;
        manifest
            .validate()
            .map_err(|e| format!("manifest is invalid: {e}"))?;
        Ok(manifest)
    }

    /// The manifest's JSON encoding.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("manifests serialize infallibly")
    }
}

impl Default for PlatformManifest {
    fn default() -> Self {
        PlatformManifest::builtin()
    }
}

/// The first field of `soc` that [`DianaConfig::cost_model`]'s prices
/// divide by and that is zero.
fn zero_divisor(soc: &DianaConfig) -> Option<&'static str> {
    let (d, a) = (&soc.digital, &soc.analog);
    [
        ("digital.pe_rows", d.pe_rows as u64),
        ("digital.pe_cols", d.pe_cols as u64),
        ("digital.dw_macs_per_cycle_x100", d.dw_macs_per_cycle_x100),
        ("digital.add_elems_per_cycle", d.add_elems_per_cycle),
        ("analog.cols", a.cols as u64),
        ("dma.bytes_per_cycle", soc.dma.bytes_per_cycle),
    ]
    .into_iter()
    .find_map(|(field, value)| (value == 0).then_some(field))
}

/// Derives a CPU-only SoC config from a Table II cost model: the CPU
/// cycle rates come from the model's cycles-per-MAC columns (×100 fixed
/// point, rounded up so no rate truncates to free), memories from the
/// platform's datasheet SRAM, and the accelerator blocks stay at DIANA
/// defaults — they are unreachable behind `Capabilities::cpu_only`.
fn mcu_soc(model: &PlatformModel, sram_bytes: usize) -> DianaConfig {
    let x100 = |cpm: f64| -> u64 { (cpm * 100.0).ceil().max(1.0) as u64 };
    DianaConfig {
        clock_mhz: model.clock_mhz.round().max(1.0) as u64,
        l2_bytes: sram_bytes,
        cpu: CpuConfig {
            conv_cycles_per_mac_x100: x100(model.conv_cpm),
            dw_cycles_per_mac_x100: x100(model.dw_cpm),
            dense_cycles_per_mac_x100: x100(model.dense_cpm),
            elem_cycles_x100: x100(model.elem_cpe),
            pool_cycles_x100: x100(model.elem_cpe),
            softmax_cycles_per_elem: x100(model.elem_cpe).div_ceil(100).max(1),
            kernel_call_overhead: model.kernel_overhead.round().max(0.0) as u64,
        },
        ..DianaConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_manifest_is_valid_and_keyed() {
        let manifest = PlatformManifest::builtin();
        assert_eq!(manifest.validate(), Ok(()));
        assert_eq!(
            manifest.ids(),
            vec![DEFAULT_PLATFORM, "stm32l4r5-tvm", "stm32l4r5-cmsis", "gap9"]
        );
        let diana = manifest.get(DEFAULT_PLATFORM).expect("diana is declared");
        assert_eq!(diana.soc, DianaConfig::default());
        assert_eq!(diana.capabilities, Capabilities::full());
        assert!(diana.reference_model.is_none());
        for id in ["stm32l4r5-tvm", "stm32l4r5-cmsis", "gap9"] {
            let spec = manifest.get(id).expect("table II platform is declared");
            assert_eq!(spec.capabilities, Capabilities::cpu_only());
            assert!(spec.reference_model.is_some(), "{id} carries its model");
        }
        assert!(manifest.get("nope").is_none());
    }

    #[test]
    fn mcu_socs_inherit_their_cost_models() {
        let manifest = PlatformManifest::builtin();
        let tvm = &manifest.get("stm32l4r5-tvm").unwrap().soc;
        assert_eq!(tvm.cpu.conv_cycles_per_mac_x100, 374);
        assert_eq!(tvm.cpu.dw_cycles_per_mac_x100, 1400);
        assert_eq!(tvm.cpu.kernel_call_overhead, 2000);
        assert_eq!(tvm.l2_bytes, 640 * 1024);
        let cmsis = &manifest.get("stm32l4r5-cmsis").unwrap().soc;
        assert!(
            cmsis.cpu.dw_cycles_per_mac_x100 < tvm.cpu.dw_cycles_per_mac_x100,
            "CMSIS-NN depthwise must beat plain TVM"
        );
        let gap9 = &manifest.get("gap9").unwrap().soc;
        assert!(
            gap9.cpu.conv_cycles_per_mac_x100 < cmsis.cpu.conv_cycles_per_mac_x100,
            "the GAP9 cluster must beat the MCU"
        );
        assert!(gap9.cpu.conv_cycles_per_mac_x100 >= 1, "no rate is free");
    }

    #[test]
    fn validation_rejects_bad_manifests() {
        let empty = PlatformManifest { platforms: vec![] };
        assert_eq!(empty.validate(), Err(ManifestError::Empty));

        let mut manifest = PlatformManifest::builtin();
        manifest.platforms[1].id = String::from("Bad Id!");
        assert_eq!(
            manifest.validate(),
            Err(ManifestError::BadId(String::from("Bad Id!")))
        );

        let mut manifest = PlatformManifest::builtin();
        manifest.platforms[1].id = DEFAULT_PLATFORM.to_owned();
        assert_eq!(
            manifest.validate(),
            Err(ManifestError::DuplicateId(DEFAULT_PLATFORM.to_owned()))
        );

        let mut manifest = PlatformManifest::builtin();
        manifest.platforms[0].capabilities.cpu = false;
        assert_eq!(
            manifest.validate(),
            Err(ManifestError::NoCpu(DEFAULT_PLATFORM.to_owned()))
        );
    }

    /// DIANA's spec with one divisor zeroed must fail to parse, naming the
    /// platform and the field, instead of dividing by zero in its first
    /// accelerator job.
    fn rejects_zero(field: &'static str, zero: fn(&mut DianaConfig)) {
        let mut manifest = PlatformManifest::builtin();
        zero(&mut manifest.platforms[0].soc);
        let expected = ManifestError::ZeroDivisor(DEFAULT_PLATFORM.to_owned(), field);
        assert_eq!(manifest.validate(), Err(expected.clone()));
        let err = PlatformManifest::from_json(&manifest.to_json()).unwrap_err();
        assert!(err.contains(&expected.to_string()), "{err}");
    }

    #[test]
    fn zero_pe_rows_is_rejected() {
        rejects_zero("digital.pe_rows", |soc| soc.digital.pe_rows = 0);
    }

    #[test]
    fn zero_pe_cols_is_rejected() {
        rejects_zero("digital.pe_cols", |soc| soc.digital.pe_cols = 0);
    }

    #[test]
    fn zero_depthwise_rate_is_rejected() {
        rejects_zero("digital.dw_macs_per_cycle_x100", |soc| {
            soc.digital.dw_macs_per_cycle_x100 = 0;
        });
    }

    #[test]
    fn zero_add_rate_is_rejected() {
        rejects_zero("digital.add_elems_per_cycle", |soc| {
            soc.digital.add_elems_per_cycle = 0;
        });
    }

    #[test]
    fn zero_analog_cols_is_rejected() {
        rejects_zero("analog.cols", |soc| soc.analog.cols = 0);
    }

    #[test]
    fn zero_dma_rate_is_rejected() {
        rejects_zero("dma.bytes_per_cycle", |soc| soc.dma.bytes_per_cycle = 0);
    }

    #[test]
    fn manifest_round_trips_through_json() {
        let manifest = PlatformManifest::builtin();
        let json = manifest.to_json();
        let back = PlatformManifest::from_json(&json).expect("round trip parses");
        assert_eq!(back, manifest);
        assert!(PlatformManifest::from_json("{]").is_err());
        assert!(
            PlatformManifest::from_json(r#"{"platforms":[]}"#)
                .unwrap_err()
                .contains("no platforms"),
            "validation runs on parsed manifests"
        );
    }
}
