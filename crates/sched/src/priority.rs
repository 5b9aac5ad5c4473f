//! The priority type shared by policies, queues and servers.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A scheduling priority. **Lower values serve first.**
///
/// Priorities are forecast costs (nanoseconds) or deadlines, so they are
/// naturally comparable across clients without coordination — a property
/// the decentralized design depends on: two clients that never talk still
/// rank each other's requests consistently.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Priority(pub u64);

impl Priority {
    /// The most urgent priority.
    pub const URGENT: Priority = Priority(0);

    /// Builds a priority from a forecast cost in nanoseconds.
    pub const fn from_cost_ns(ns: u64) -> Self {
        Priority(ns)
    }

    /// Builds a priority from an absolute deadline in nanoseconds.
    pub const fn from_deadline_ns(ns: u64) -> Self {
        Priority(ns)
    }

    /// The raw ordering key.
    pub const fn key(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Priority({})", self.0)
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lower_is_more_urgent() {
        assert!(Priority::from_cost_ns(100) < Priority::from_cost_ns(200));
        assert!(Priority::URGENT < Priority::from_cost_ns(1));
    }

    #[test]
    fn round_trips_key() {
        assert_eq!(Priority::from_cost_ns(42).key(), 42);
        assert_eq!(Priority::from_deadline_ns(7).key(), 7);
    }
}
