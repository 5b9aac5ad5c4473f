//! Typed failures of the live runtime.
//!
//! The threaded cluster can fail in ways the simulator cannot: an OS
//! thread panics mid-run, or the cluster stops while a task is still
//! waiting (or being submitted). Both used to surface as a client-side
//! panic (or, worse, a hang on a silent queue); they now flow out as
//! [`RtError`] so the lab backend fails a run with a typed error
//! instead of poisoning the harness.

use std::fmt;

/// A live-runtime run failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RtError {
    /// A worker or the credits controller thread panicked mid-run. The
    /// cluster's panic flag is sticky: every in-flight and subsequent
    /// wait fails fast instead of blocking on replies that will never
    /// arrive.
    WorkerPanicked,
    /// The cluster stopped (shutdown, drop, or thread death) before the
    /// task resolved: a submit was handed back, or the reply channel
    /// disconnected.
    ClusterDown,
}

impl fmt::Display for RtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtError::WorkerPanicked => {
                write!(f, "a live cluster thread panicked mid-run")
            }
            RtError::ClusterDown => {
                write!(f, "the live cluster shut down before the task resolved")
            }
        }
    }
}

impl std::error::Error for RtError {}
