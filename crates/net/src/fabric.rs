//! A uniform full-mesh fabric: one latency model on every link.
//!
//! The engine asks the fabric how long a message takes from one node to
//! another; every directed pair shares the same [`LatencyModel`], so the
//! answer is one draw from that model. The paper models a fixed 50 µs
//! one-way propagation, which is the default.

use crate::latency::LatencyModel;
use brb_sim::{define_id, SimDuration};
use rand::Rng;

define_id!(
    /// Identifies a node attached to the fabric (clients, servers and the
    /// controller all get fabric node ids). Every pair shares one
    /// latency model, so no delay depends on it; it stays in
    /// [`crate::FabricPlan::delay`]'s signature for the perf ledger's
    /// hop probe.
    NetNodeId
);

/// A full-mesh fabric whose every link follows one latency model.
#[derive(Debug, Clone)]
pub struct Fabric {
    pub(crate) model: LatencyModel,
}

impl Fabric {
    /// Creates a fabric where every pair uses `model` and transfer time
    /// ignores message size (the paper's model).
    pub fn uniform(model: LatencyModel) -> Self {
        model.validate().expect("invalid latency model");
        Fabric { model }
    }

    /// The paper's fabric: constant 50 µs one-way everywhere.
    pub fn paper_default() -> Self {
        Fabric::uniform(LatencyModel::paper_constant())
    }

    /// Samples the one-way delay of one message.
    pub fn delay<R: Rng + ?Sized>(&self, rng: &mut R) -> SimDuration {
        self.model.sample(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn paper_default_is_size_independent_50us() {
        // No message size reaches the delay: every hop is the paper's
        // 50 µs, drawn without touching the RNG.
        let f = Fabric::paper_default();
        let mut rng = StdRng::seed_from_u64(1);
        let mut untouched = rng.clone();
        assert_eq!(f.delay(&mut rng), SimDuration::from_micros(50));
        assert_eq!(rng.next_u64(), untouched.next_u64());
    }
}
