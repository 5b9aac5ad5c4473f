//! Property-based tests on ring placement and service-time calibration.

use brb_store::ids::{GroupId, ServerId};
use brb_store::partition::Ring;
use brb_store::service::{ServiceModel, ServiceNoise};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    /// For any valid ring shape: every key maps to exactly R distinct
    /// replicas, membership is consistent in both directions, and every
    /// server belongs to at most R groups.
    #[test]
    fn ring_membership_invariants(
        servers in 1u32..32,
        partitions_mult in 1u32..4,
        replication in 1u32..8,
        keys in proptest::collection::vec(0u64..u64::MAX, 1..50),
    ) {
        let replication = replication.min(servers);
        let ring = Ring::new(servers, servers * partitions_mult, replication);

        for key in keys {
            let replicas = ring.replicas_of_key(key);
            prop_assert_eq!(replicas.len(), replication as usize);
            let distinct: std::collections::HashSet<_> = replicas.iter().collect();
            prop_assert_eq!(distinct.len(), replication as usize, "duplicate replicas");
            let group = ring.group_of_key(key);
            for s in &replicas {
                prop_assert!(ring.server_in_group(*s, group));
            }
        }

        for s in 0..servers as u64 {
            let groups: Vec<GroupId> = ring.groups_of_server(ServerId::new(s)).collect();
            prop_assert!(groups.len() <= replication as usize);
            for g in groups {
                prop_assert!(ring.replicas_of_group(g).contains(&ServerId::new(s)));
            }
        }
    }

    /// Group ids are always within range and stable.
    #[test]
    fn groups_in_range(servers in 1u32..64, key in 0u64..u64::MAX) {
        let ring = Ring::new(servers, servers, 1.max(servers / 3));
        let g = ring.group_of_key(key);
        prop_assert!(g.raw() < ring.num_groups() as u64);
        prop_assert_eq!(ring.group_of_key(key), g);
        let _ = GroupId::new(g.raw()); // usable as an id
    }

    /// Calibration: for any target rate and mean size, the size-linear
    /// model's expected time at the mean size equals the target, and the
    /// empirical mean under noise converges to it.
    #[test]
    fn service_calibration_holds(
        rate in 100.0f64..100_000.0,
        mean_bytes in 10.0f64..100_000.0,
        base_fraction in 0.0f64..=1.0,
    ) {
        let mean_ns = 1e9 / rate;
        let m = ServiceModel::calibrated_size_linear(
            mean_ns, mean_bytes, base_fraction, ServiceNoise::None,
        );
        let expect = m.expected_ns(mean_bytes.round() as u64);
        let rel = (expect - mean_ns).abs() / mean_ns;
        prop_assert!(rel < 0.01, "calibration off by {rel}");
        // Size monotonicity.
        prop_assert!(m.expected_ns(1) <= m.expected_ns(1_000_000));
    }

    /// Noise never changes the forecast, only the sample; samples stay
    /// positive.
    #[test]
    fn noise_only_affects_samples(
        sigma in 0.0f64..1.0,
        bytes in 1u64..1_000_000,
    ) {
        let clean = ServiceModel::calibrated_size_linear(
            285_714.0, 300.0, 0.2, ServiceNoise::None,
        );
        let noisy = ServiceModel::calibrated_size_linear(
            285_714.0, 300.0, 0.2, ServiceNoise::LogNormal { sigma },
        );
        prop_assert_eq!(clean.expected_ns(bytes), noisy.expected_ns(bytes));
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..32 {
            prop_assert!(noisy.sample(bytes, &mut rng).as_nanos() >= 1);
        }
    }
}
