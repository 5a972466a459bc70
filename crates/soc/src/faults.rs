//! Deterministic fault injection for the simulated SoC.
//!
//! A production deployment stack must stay *correct* when the hardware
//! misbehaves: a DMA transfer times out, the shared L1 arbiter denies an
//! allocation, an accelerator is taken offline for power or thermal
//! reasons. This module models those events as a [`FaultPlan`]: a seeded,
//! serializable schedule of injectable faults consumed by
//! [`Machine::run_with_faults`](crate::Machine::run_with_faults).
//!
//! The fault model is built around one invariant, enforced by the
//! differential test harness (`tests/fault_injection.rs`): **faults may
//! change cycle counts, never numerics**. Transient faults (DMA
//! stalls/failures, L1 denials) are retried with a bounded, cycle-accounted
//! backoff; permanent faults (an engine offline) trigger a graceful
//! degradation to the step's host form, derived from its descriptor
//! ([`cpu_fallback`](crate::cpu_fallback)). Only when recovery is
//! impossible — retries exhausted, or a descriptor with no host form —
//! does the run abort, with a [`RunError`](crate::RunError) naming the
//! failing layer and engine.
//!
//! Everything is deterministic: the same plan against the same program
//! yields the same outputs, the same cycle counts and the same
//! [`PerfCounters`](crate::PerfCounters), which is what makes differential
//! testing (faulted run vs. fault-free run) possible at all.

use crate::EngineKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One injectable hardware event.
///
/// Transfer indices count every DMA transaction of the run in issue order
/// (activation loads, digital weight staging, output stores); layer
/// indices are step indices into [`Program::steps`](crate::Program).
/// Events that reference a transfer or step the program never reaches
/// simply do not fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultEvent {
    /// The `transfer`-th DMA transaction completes, but only after an
    /// extra `cycles` bus stall (arbitration loss, congested interconnect).
    DmaStall {
        /// Zero-based global DMA transaction index.
        transfer: u64,
        /// Stall cycles added on top of the nominal transfer time.
        cycles: u64,
    },
    /// The `transfer`-th DMA transaction fails `attempts` times before
    /// succeeding. Each failed attempt costs the full transfer time again
    /// plus the retry backoff; more failures than
    /// [`RetryPolicy::max_retries`] aborts the run.
    DmaFail {
        /// Zero-based global DMA transaction index.
        transfer: u64,
        /// Consecutive failures before the transfer goes through.
        attempts: u32,
    },
    /// `engine` is permanently offline from step `layer` onwards. Steps
    /// dispatched to it degrade to the CPU fallback derived from their
    /// descriptor (or abort with
    /// [`RunError::EngineUnavailable`](crate::RunError) if the descriptor
    /// has no host form).
    EngineOffline {
        /// The engine taken offline.
        engine: EngineKind,
        /// First step index affected.
        layer: usize,
    },
    /// The shared-L1 allocation for step `layer` is denied `attempts`
    /// times before being granted; each retry waits out the backoff.
    /// More denials than [`RetryPolicy::max_retries`] aborts the run.
    L1Deny {
        /// Step index whose L1 allocation is denied.
        layer: usize,
        /// Consecutive denials before the grant.
        attempts: u32,
    },
}

/// Bounded-retry policy for transient faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Maximum re-issues of a failed transfer / denied allocation before
    /// the run aborts.
    pub max_retries: u32,
    /// Base backoff wait in cycles; retry `i` waits `base << (i-1)`
    /// (exponential, shift-capped).
    pub backoff_base: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            backoff_base: 64,
        }
    }
}

impl RetryPolicy {
    /// Backoff wait before retry `attempt` (1-based): exponential in the
    /// attempt number, capped so the shift cannot overflow.
    #[must_use]
    pub fn backoff_cycles(&self, attempt: u32) -> u64 {
        self.backoff_base << attempt.saturating_sub(1).min(16)
    }
}

/// A deterministic, serializable schedule of injectable faults.
///
/// # Examples
///
/// ```
/// use htvm_soc::{EngineKind, FaultEvent, FaultPlan};
/// let plan = FaultPlan::none()
///     .with_event(FaultEvent::DmaStall { transfer: 3, cycles: 500 })
///     .with_event(FaultEvent::EngineOffline { engine: EngineKind::Digital, layer: 0 });
/// assert_eq!(plan.events.len(), 2);
/// assert!(!plan.is_empty());
/// assert!(FaultPlan::none().is_empty());
/// // Seeded plans are deterministic.
/// assert_eq!(FaultPlan::seeded(7, 10), FaultPlan::seeded(7, 10));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The scheduled events, in no particular order.
    pub events: Vec<FaultEvent>,
    /// Retry/backoff policy for transient faults.
    #[serde(default)]
    pub retry: RetryPolicy,
}

impl FaultPlan {
    /// The empty plan: [`Machine::run_with_faults`] with it is
    /// cycle-identical to [`Machine::run`].
    ///
    /// [`Machine::run_with_faults`]: crate::Machine::run_with_faults
    /// [`Machine::run`]: crate::Machine::run
    #[must_use]
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// `true` if no events are scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Adds one event (builder style).
    #[must_use]
    pub fn with_event(mut self, event: FaultEvent) -> Self {
        self.events.push(event);
        self
    }

    /// A deterministic random plan for a program with `layers` steps.
    ///
    /// The generated plan is always *recoverable*: transient-fault attempt
    /// counts stay within the retry budget, and engine-off events degrade
    /// to the host form every emitter-produced descriptor has. Any seeded
    /// plan must therefore leave a compiled program's outputs bit-exact —
    /// the property the differential harness sweeps.
    #[must_use]
    pub fn seeded(seed: u64, layers: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFA01_7B1A_57ED_C0DE);
        let mut plan = FaultPlan::none();
        // Transfer indices target the early part of the run so small
        // programs still see faults fire.
        let transfer_span = (layers as u64 * 64).max(64);
        for _ in 0..rng.gen_range(0usize..=3) {
            plan.events.push(FaultEvent::DmaStall {
                transfer: rng.gen_range(0..transfer_span),
                cycles: rng.gen_range(1..=10_000),
            });
        }
        for _ in 0..rng.gen_range(0usize..=2) {
            plan.events.push(FaultEvent::DmaFail {
                transfer: rng.gen_range(0..transfer_span),
                attempts: rng.gen_range(1..=plan.retry.max_retries),
            });
        }
        if layers > 0 && rng.gen_bool(0.4) {
            let engine = if rng.gen_bool(0.5) {
                EngineKind::Digital
            } else {
                EngineKind::Analog
            };
            plan.events.push(FaultEvent::EngineOffline {
                engine,
                layer: rng.gen_range(0..layers),
            });
        }
        for _ in 0..rng.gen_range(0usize..=2) {
            plan.events.push(FaultEvent::L1Deny {
                layer: rng.gen_range(0..layers.max(1)),
                attempts: rng.gen_range(1..=plan.retry.max_retries),
            });
        }
        plan
    }
}

/// A DMA transfer whose failures exceeded the retry budget; converted by
/// the machine into [`RunError::DmaFailed`](crate::RunError) with the
/// layer context attached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DmaAbort {
    pub transfer: u64,
    pub attempts: u32,
}

/// Per-run fault-injection state: the plan pre-indexed for O(1) lookups,
/// the global transfer counter, the run-level [`PerfCounters`] and the
/// per-layer stall/retry scratch the executor drains into each
/// [`LayerProfile`](crate::LayerProfile).
#[derive(Debug, Default)]
pub(crate) struct FaultCtx {
    dma_stall: HashMap<u64, u64>,
    dma_fail: HashMap<u64, u32>,
    engine_off: Vec<(EngineKind, usize)>,
    l1_deny: HashMap<usize, u32>,
    retry: RetryPolicy,
    transfer_idx: u64,
    pub counters: crate::PerfCounters,
    layer_stall: u64,
    layer_retries: u64,
}

impl FaultCtx {
    /// Indexes a plan. Duplicate events targeting the same transfer/layer
    /// are merged conservatively: stall cycles add up, attempt counts take
    /// the maximum, engine-off takes the earliest layer.
    pub fn from_plan(plan: &FaultPlan) -> Self {
        let mut ctx = FaultCtx {
            retry: plan.retry,
            ..FaultCtx::default()
        };
        for event in &plan.events {
            match *event {
                FaultEvent::DmaStall { transfer, cycles } => {
                    *ctx.dma_stall.entry(transfer).or_insert(0) += cycles;
                }
                FaultEvent::DmaFail { transfer, attempts } => {
                    let e = ctx.dma_fail.entry(transfer).or_insert(0);
                    *e = (*e).max(attempts);
                }
                FaultEvent::EngineOffline { engine, layer } => {
                    match ctx.engine_off.iter_mut().find(|(e, _)| *e == engine) {
                        Some((_, l)) => *l = (*l).min(layer),
                        None => ctx.engine_off.push((engine, layer)),
                    }
                }
                FaultEvent::L1Deny { layer, attempts } => {
                    let e = ctx.l1_deny.entry(layer).or_insert(0);
                    *e = (*e).max(attempts);
                }
            }
        }
        ctx
    }

    /// A context that injects nothing (the [`Machine::run`] path).
    ///
    /// [`Machine::run`]: crate::Machine::run
    pub fn inert() -> Self {
        FaultCtx::default()
    }

    /// Accounts one DMA transaction of nominal cost `base`, applying any
    /// stall or failure scheduled for its global index. Extra cycles land
    /// in the per-layer stall scratch and the run counters.
    pub fn dma_transfer(&mut self, base: u64) -> Result<(), DmaAbort> {
        let idx = self.transfer_idx;
        self.transfer_idx += 1;
        if self.dma_stall.is_empty() && self.dma_fail.is_empty() {
            return Ok(());
        }
        if let Some(&stall) = self.dma_stall.get(&idx) {
            self.layer_stall += stall;
            self.counters.dma_stall_cycles += stall;
        }
        if let Some(&attempts) = self.dma_fail.get(&idx) {
            if attempts > self.retry.max_retries {
                return Err(DmaAbort {
                    transfer: idx,
                    attempts,
                });
            }
            for attempt in 1..=attempts {
                let wait = base + self.retry.backoff_cycles(attempt);
                self.layer_stall += wait;
                self.counters.dma_stall_cycles += wait;
            }
            self.layer_retries += u64::from(attempts);
            self.counters.dma_retries += u64::from(attempts);
        }
        Ok(())
    }

    /// Applies any L1-allocation denial scheduled for step `layer`,
    /// waiting out the backoff per retry. Returns the denial count when it
    /// exceeds the retry budget.
    pub fn l1_allocation(&mut self, layer: usize) -> Result<(), u32> {
        let Some(&attempts) = self.l1_deny.get(&layer) else {
            return Ok(());
        };
        if attempts > self.retry.max_retries {
            return Err(attempts);
        }
        for attempt in 1..=attempts {
            let wait = self.retry.backoff_cycles(attempt);
            self.layer_stall += wait;
            self.counters.l1_stall_cycles += wait;
        }
        self.layer_retries += u64::from(attempts);
        self.counters.l1_retries += u64::from(attempts);
        Ok(())
    }

    /// Is `engine` offline at step `layer`?
    pub fn engine_offline(&self, engine: EngineKind, layer: usize) -> bool {
        self.engine_off
            .iter()
            .any(|&(e, from)| e == engine && layer >= from)
    }

    /// Drains the per-layer stall/retry scratch (called once per layer).
    pub fn take_layer_faults(&mut self) -> (u64, u64) {
        (
            std::mem::take(&mut self.layer_stall),
            std::mem::take(&mut self.layer_retries),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::seeded(1, 12);
        let b = FaultPlan::seeded(1, 12);
        assert_eq!(a, b);
        // Across a window of seeds at least one differing plan exists.
        assert!((0..16).any(|s| FaultPlan::seeded(s, 12) != a));
    }

    #[test]
    fn seeded_plans_are_recoverable() {
        for seed in 0..256 {
            let plan = FaultPlan::seeded(seed, 20);
            for event in &plan.events {
                match *event {
                    FaultEvent::DmaFail { attempts, .. } | FaultEvent::L1Deny { attempts, .. } => {
                        assert!(attempts <= plan.retry.max_retries, "seed {seed}");
                    }
                    FaultEvent::EngineOffline { layer, .. } => assert!(layer < 20),
                    FaultEvent::DmaStall { cycles, .. } => assert!(cycles > 0),
                }
            }
        }
    }

    #[test]
    fn plan_serialization_round_trips() {
        let plan = FaultPlan::seeded(42, 8);
        let json = serde_json::to_string(&plan).expect("serializes");
        let back: FaultPlan = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(plan, back);
    }

    #[test]
    fn backoff_grows_exponentially_and_is_capped() {
        let retry = RetryPolicy::default();
        assert_eq!(retry.backoff_cycles(1), retry.backoff_base);
        assert_eq!(retry.backoff_cycles(2), retry.backoff_base * 2);
        assert_eq!(retry.backoff_cycles(3), retry.backoff_base * 4);
        // Far-out attempts do not overflow the shift.
        assert_eq!(retry.backoff_cycles(1000), retry.backoff_base << 16);
    }

    #[test]
    fn ctx_merges_duplicate_events_conservatively() {
        let plan = FaultPlan::none()
            .with_event(FaultEvent::DmaStall {
                transfer: 5,
                cycles: 100,
            })
            .with_event(FaultEvent::DmaStall {
                transfer: 5,
                cycles: 50,
            })
            .with_event(FaultEvent::EngineOffline {
                engine: EngineKind::Digital,
                layer: 7,
            })
            .with_event(FaultEvent::EngineOffline {
                engine: EngineKind::Digital,
                layer: 3,
            });
        let mut ctx = FaultCtx::from_plan(&plan);
        for _ in 0..5 {
            ctx.dma_transfer(10).unwrap();
        }
        ctx.dma_transfer(10).unwrap(); // index 5: stalls 150
        let (stall, retries) = ctx.take_layer_faults();
        assert_eq!(stall, 150);
        assert_eq!(retries, 0);
        assert!(!ctx.engine_offline(EngineKind::Digital, 2));
        assert!(ctx.engine_offline(EngineKind::Digital, 3));
        assert!(ctx.engine_offline(EngineKind::Digital, 9));
        assert!(!ctx.engine_offline(EngineKind::Analog, 9));
    }

    #[test]
    fn exhausted_retries_abort() {
        let plan = FaultPlan::none().with_event(FaultEvent::DmaFail {
            transfer: 0,
            attempts: 99,
        });
        let mut ctx = FaultCtx::from_plan(&plan);
        let err = ctx.dma_transfer(10).unwrap_err();
        assert_eq!(err.transfer, 0);
        assert_eq!(err.attempts, 99);
        let plan = FaultPlan::none().with_event(FaultEvent::L1Deny {
            layer: 2,
            attempts: 99,
        });
        let mut ctx = FaultCtx::from_plan(&plan);
        assert_eq!(ctx.l1_allocation(2), Err(99));
        assert_eq!(ctx.l1_allocation(1), Ok(()));
    }

    #[test]
    fn inert_ctx_injects_nothing() {
        let mut ctx = FaultCtx::inert();
        for _ in 0..1000 {
            ctx.dma_transfer(123).unwrap();
        }
        ctx.l1_allocation(0).unwrap();
        assert_eq!(ctx.take_layer_faults(), (0, 0));
        assert_eq!(ctx.counters, crate::PerfCounters::default());
    }
}
