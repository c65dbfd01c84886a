//! # vtrain-flow — contention-aware fair-sharing network model
//!
//! The paper's Equation (1) family prices every collective in isolation:
//! a cost is a function of bytes, group size, and one tier's effective
//! bandwidth. That is exact when a link carries one transfer at a time —
//! and silently wrong when overlapping DP/TP/PP collectives, or
//! co-scheduled jobs, share an inter-node link. This module supplies the
//! missing regime as a *pluggable backend*, selected by
//! [`NetworkBackend`]:
//!
//! * [`FlowPhase`] / [`FlowProgram`] — the demand shape of one
//!   collective: an ordered list of (tier, work, latency) phases compiled
//!   by [`collective::plan`](crate::collective::plan). Pricing a program
//!   against a quiet link reproduces the closed-form cost bit-for-bit.
//! * [`max_min_rates`] — deterministic progressive-filling max-min fair
//!   allocation over link capacities (`TierSpec::effective_bandwidth`),
//!   order-independent at the bit level.
//! * [`FlowSim`] — an event-driven replay where joins, leaves, and phase
//!   changes trigger a refill that linearly rescales every affected
//!   flow's remaining work. Each phase crosses one tier, so a refill is
//!   each tier's equal split (the max-min allocation, bit for bit). No
//!   per-byte stepping; `O(flows)` per refill.
//!
//! With a single flow in flight the backend is equivalent to the closed
//! form within quantisation (the golden tests pin exact equality), so
//! every validated figure is unchanged when contention is absent.

use serde::{Deserialize, Serialize};

pub mod fair;
mod program;
mod sim;

pub use fair::max_min_rates;
pub use program::{FlowPhase, FlowProgram};
pub use sim::{FlowId, FlowSim};

/// Which network-cost regime the estimator runs under.
///
/// Serialises by variant name; the scenario schema and CLI use the
/// kebab-case spellings via [`NetworkBackend::parse`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NetworkBackend {
    /// Per-collective closed-form costs (paper Equation (1) family);
    /// every transfer sees the full effective bandwidth of its tier.
    #[default]
    ClosedForm,
    /// Progressive-filling max-min fair sharing: concurrent transfers on
    /// a tier split its effective bandwidth; overlap lengthens drains.
    FairSharing,
}

impl NetworkBackend {
    /// Parses the kebab-case scenario/CLI spelling (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "closed-form" => Some(NetworkBackend::ClosedForm),
            "fair-sharing" => Some(NetworkBackend::FairSharing),
            _ => None,
        }
    }

    /// The canonical kebab-case name.
    pub fn name(self) -> &'static str {
        match self {
            NetworkBackend::ClosedForm => "closed-form",
            NetworkBackend::FairSharing => "fair-sharing",
        }
    }
}
