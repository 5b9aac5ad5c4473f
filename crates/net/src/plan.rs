//! The compiled network fast path.
//!
//! [`Fabric::delay`] samples the mesh's latency model once per message —
//! a cost the engine pays several times per request, millions of times
//! per run. A [`FabricPlan`] is compiled **once** from a fabric: when the
//! mesh's delay is a constant (the paper's 50 µs mesh) every hop
//! collapses to a single precomputed delta — timestamping a message
//! becomes one add, with no model match and no RNG touch. Jittered
//! meshes (uniform, log-normal, spiky) fall back to the per-message draw
//! *through the same interface*, consuming the caller's RNG stream
//! identically to the uncompiled fabric, so results are byte-identical
//! by construction (`brb-lab`'s `net_differential` test enforces this
//! for every registry preset).
//!
//! Only [`LatencyModel::Constant`] compiles to a delta: a degenerate
//! `Uniform { lo == hi }` still consumes one RNG draw per sample, so
//! folding it into a constant would shift every later draw in the
//! stream and silently change results against the slow path.

use crate::fabric::{Fabric, NetNodeId};
use crate::latency::LatencyModel;
use brb_sim::SimDuration;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Whether delays resolve through the compiled plan or are forced
/// through the historical per-message fabric draw.
///
/// `PerMessage` exists for the differential test harness and the
/// `kernel_bench` before/after comparison: it is the exact pre-plan
/// code path ([`Fabric::delay`] per message), kept callable so any
/// behavioural divergence in the fast path is a test failure rather
/// than a silent drift.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum PlanMode {
    /// Resolve hops through the precomputed delta (the fast path).
    #[default]
    Compiled,
    /// Draw through `Fabric::delay` per message (the reference slow
    /// path).
    PerMessage,
}

/// A fabric compiled into one mesh-wide hop resolution.
#[derive(Debug, Clone)]
pub struct FabricPlan {
    fabric: Fabric,
    /// The delta every hop takes on a compiled constant mesh; `None`
    /// when hops draw through the fabric per message.
    uniform: Option<SimDuration>,
}

impl FabricPlan {
    /// Compiles `fabric` into the fast path.
    ///
    /// `num_nodes` is ignored — every hop of a uniform mesh resolves the
    /// same way — and stays in the signature for the perf ledger's hop
    /// probe.
    pub fn compile(fabric: Fabric, _num_nodes: u64) -> Self {
        Self::with_mode(fabric, PlanMode::Compiled)
    }

    /// Builds a plan in the given mode.
    pub fn with_mode(fabric: Fabric, mode: PlanMode) -> Self {
        let uniform = match (mode, &fabric.model) {
            (PlanMode::Compiled, LatencyModel::Constant { delay_ns }) => {
                Some(SimDuration::from_nanos(*delay_ns))
            }
            _ => None,
        };
        FabricPlan { fabric, uniform }
    }

    /// The underlying fabric.
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// The single mesh-wide constant delta, when every hop of a compiled
    /// plan is the same constant (the paper's fabric). This is what lets
    /// the engine batch hops into the calendar's fixed-delta lane;
    /// `None` means hops need a per-message draw (a jittered mesh, or a
    /// forced slow path).
    pub fn uniform_const(&self) -> Option<SimDuration> {
        self.uniform
    }

    /// Samples the one-way delay of one message — the drop-in
    /// replacement for [`Fabric::delay`]. Constant hops never touch
    /// `rng`; jittered hops (and the forced slow path) consume it
    /// exactly as the uncompiled fabric would.
    ///
    /// `from`, `to` and `bytes` are ignored — no delay depends on them —
    /// and stay in the signature for the perf ledger's hop probe.
    #[inline]
    pub fn delay<R: Rng + ?Sized>(
        &self,
        _from: NetNodeId,
        _to: NetNodeId,
        _bytes: u64,
        rng: &mut R,
    ) -> SimDuration {
        match self.uniform {
            Some(d) => d,
            None => self.fabric.delay(rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn node(i: u64) -> NetNodeId {
        NetNodeId::new(i)
    }

    #[test]
    fn constant_mesh_compiles_to_one_delta() {
        let plan = FabricPlan::compile(Fabric::paper_default(), 28);
        assert_eq!(plan.uniform_const(), Some(SimDuration::from_micros(50)));
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(
            plan.delay(node(0), node(19), 1 << 20, &mut rng),
            SimDuration::from_micros(50)
        );
    }

    #[test]
    fn per_message_mode_reports_no_constants() {
        let plan = FabricPlan::with_mode(Fabric::paper_default(), PlanMode::PerMessage);
        assert_eq!(plan.uniform_const(), None);
        // ... but still answers delays, through the fabric.
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(
            plan.delay(node(0), node(1), 64, &mut rng),
            SimDuration::from_micros(50)
        );
    }

    #[test]
    fn jittered_mesh_falls_back_to_sampling_identically() {
        let fabric = Fabric::uniform(LatencyModel::Uniform {
            lo_ns: 10_000,
            hi_ns: 90_000,
        });
        let plan = FabricPlan::compile(fabric.clone(), 8);
        assert_eq!(plan.uniform_const(), None);
        // Identical RNG consumption: the same seed gives the same draw
        // sequence through the plan and through the raw fabric.
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..1_000 {
            assert_eq!(
                plan.delay(node(1), node(2), 100, &mut a),
                fabric.delay(&mut b)
            );
        }
    }

    #[test]
    fn plan_mode_default_is_compiled() {
        assert_eq!(PlanMode::default(), PlanMode::Compiled);
        let json = serde_json::to_string(&PlanMode::PerMessage).unwrap();
        let back: PlanMode = serde_json::from_str(&json).unwrap();
        assert_eq!(back, PlanMode::PerMessage);
    }
}
