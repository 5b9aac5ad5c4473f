//! Ring placement: keys → partitions → replica groups → servers.
//!
//! The paper's system model: "every server belongs to R replica groups and
//! can service requests for any of the replica groups it is part of. A
//! replica group is a collection of servers each of which contains a
//! replica of a data partition."
//!
//! We reproduce the Cassandra-style layout the paper's baseline (C3)
//! targets: servers sit on a ring; partition `p` is stored on the `R`
//! consecutive servers starting at `p mod N`. With `partitions = N` every
//! server belongs to exactly `R` replica groups, matching the model.

use crate::ids::{GroupId, PartitionId, ServerId};
use serde::{Deserialize, Serialize};

/// Ring configuration mapping keys to partitions and partitions to
/// replica servers.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Ring {
    num_servers: u32,
    num_partitions: u32,
    replication: u32,
}

impl Ring {
    /// Creates a ring of `num_servers` servers, `num_partitions`
    /// partitions and replication factor `replication`.
    ///
    /// # Panics
    /// Panics if any parameter is zero, or `replication > num_servers`
    /// (a partition cannot have more replicas than servers).
    pub fn new(num_servers: u32, num_partitions: u32, replication: u32) -> Self {
        assert!(num_servers > 0, "need at least one server");
        assert!(num_partitions > 0, "need at least one partition");
        assert!(replication > 0, "replication factor must be >= 1");
        assert!(
            replication <= num_servers,
            "replication {replication} exceeds server count {num_servers}"
        );
        Ring {
            num_servers,
            num_partitions,
            replication,
        }
    }

    /// The paper's evaluation ring: 9 servers, 9 partitions, R = 3.
    pub fn paper_default() -> Self {
        Ring::new(9, 9, 3)
    }

    /// Number of servers.
    pub fn num_servers(&self) -> u32 {
        self.num_servers
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> u32 {
        self.num_partitions
    }

    /// Replication factor R.
    pub fn replication(&self) -> u32 {
        self.replication
    }

    /// Number of *distinct* replica groups. With consecutive placement a
    /// group is determined by its starting server, so there are
    /// `min(num_servers, num_partitions)` distinct groups.
    pub fn num_groups(&self) -> u32 {
        self.num_servers.min(self.num_partitions)
    }

    /// Hashes a key to its partition.
    pub fn partition_of_key(&self, key: u64) -> PartitionId {
        PartitionId::new(splitmix64(key) % self.num_partitions as u64)
    }

    /// The replica group of a partition (groups are keyed by the
    /// partition's starting position on the ring).
    pub fn group_of_partition(&self, p: PartitionId) -> GroupId {
        GroupId::new(p.raw() % self.num_servers as u64)
    }

    /// Convenience: the replica group serving a key.
    pub fn group_of_key(&self, key: u64) -> GroupId {
        self.group_of_partition(self.partition_of_key(key))
    }

    /// The servers of replica group `g`, in ring order starting at the
    /// primary.
    pub fn replicas_of_group(&self, g: GroupId) -> Vec<ServerId> {
        assert!(g.raw() < self.num_servers as u64, "group out of range");
        (0..self.replication as u64)
            .map(|i| ServerId::new((g.raw() + i) % self.num_servers as u64))
            .collect()
    }

    /// The servers holding a replica of partition `p`.
    pub fn replicas_of_partition(&self, p: PartitionId) -> Vec<ServerId> {
        self.replicas_of_group(self.group_of_partition(p))
    }

    /// The servers holding a replica of `key`.
    pub fn replicas_of_key(&self, key: u64) -> Vec<ServerId> {
        self.replicas_of_group(self.group_of_key(key))
    }

    /// Whether `server` can serve keys of replica group `g`.
    pub fn server_in_group(&self, server: ServerId, g: GroupId) -> bool {
        let n = self.num_servers as u64;
        let dist = (server.raw() + n - g.raw() % n) % n;
        dist < self.replication as u64
    }

    /// The replica groups `server` belongs to (exactly R groups when
    /// `num_partitions >= num_servers`), the group it is primary of
    /// first. Computed as it is iterated — no allocation, so a global
    /// queue can scan them on every pull.
    pub fn groups_of_server(&self, server: ServerId) -> impl Iterator<Item = GroupId> {
        assert!(
            server.raw() < self.num_servers as u64,
            "server out of range"
        );
        let n = self.num_servers as u64;
        let num_groups = self.num_groups() as u64;
        (0..self.replication as u64)
            .map(move |i| GroupId::new((server.raw() + n - i) % n))
            .filter(move |g| g.raw() < num_groups)
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn paper_ring_shape() {
        let r = Ring::paper_default();
        assert_eq!(r.num_servers(), 9);
        assert_eq!(r.num_partitions(), 9);
        assert_eq!(r.replication(), 3);
        assert_eq!(r.num_groups(), 9);
    }

    #[test]
    fn replicas_are_consecutive_and_distinct() {
        let r = Ring::paper_default();
        for g in 0..9u64 {
            let reps = r.replicas_of_group(GroupId::new(g));
            assert_eq!(reps.len(), 3);
            assert_eq!(reps[0], ServerId::new(g));
            assert_eq!(reps[1], ServerId::new((g + 1) % 9));
            assert_eq!(reps[2], ServerId::new((g + 2) % 9));
            let distinct: std::collections::HashSet<_> = reps.iter().collect();
            assert_eq!(distinct.len(), 3);
        }
    }

    #[test]
    fn every_server_in_r_groups() {
        let r = Ring::paper_default();
        for s in 0..9u64 {
            let groups: Vec<GroupId> = r.groups_of_server(ServerId::new(s)).collect();
            // Primary group first, then walking back round the ring: the
            // order the global queue scans (and breaks exact ties) in.
            let want: Vec<GroupId> = [s, (s + 8) % 9, (s + 7) % 9]
                .into_iter()
                .map(GroupId::new)
                .collect();
            assert_eq!(groups, want, "server {s}");
            for g in groups {
                assert!(r.server_in_group(ServerId::new(s), g));
                assert!(r.replicas_of_group(g).contains(&ServerId::new(s)));
            }
        }
    }

    #[test]
    fn membership_agrees_with_replica_lists() {
        let r = Ring::new(7, 7, 2);
        for g in 0..7u64 {
            let g = GroupId::new(g);
            let reps = r.replicas_of_group(g);
            for s in 0..7u64 {
                let s = ServerId::new(s);
                assert_eq!(r.server_in_group(s, g), reps.contains(&s));
            }
        }
    }

    #[test]
    fn keys_spread_over_partitions() {
        let r = Ring::paper_default();
        let mut counts: HashMap<u64, u64> = HashMap::new();
        let n = 90_000;
        for key in 0..n {
            *counts.entry(r.partition_of_key(key).raw()).or_default() += 1;
        }
        assert_eq!(counts.len(), 9);
        for (&p, &c) in &counts {
            let expected = n as f64 / 9.0;
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.05, "partition {p} has {c} keys ({dev:+.2})");
        }
    }

    #[test]
    fn key_to_replicas_consistency() {
        let r = Ring::paper_default();
        for key in 0..1000u64 {
            let g = r.group_of_key(key);
            assert_eq!(r.replicas_of_key(key), r.replicas_of_group(g));
            for s in r.replicas_of_key(key) {
                assert!(r.server_in_group(s, g));
            }
        }
    }

    #[test]
    fn replication_one_means_single_replica() {
        let r = Ring::new(5, 5, 1);
        for g in 0..5u64 {
            assert_eq!(r.replicas_of_group(GroupId::new(g)).len(), 1);
        }
    }

    #[test]
    fn more_partitions_than_servers() {
        let r = Ring::new(4, 16, 3);
        assert_eq!(r.num_groups(), 4);
        // Partitions 0, 4, 8, 12 share replica group 0.
        for p in [0u64, 4, 8, 12] {
            assert_eq!(r.group_of_partition(PartitionId::new(p)), GroupId::new(0));
        }
    }

    #[test]
    #[should_panic(expected = "replication 4 exceeds server count 3")]
    fn over_replication_rejected() {
        Ring::new(3, 3, 4);
    }
}
