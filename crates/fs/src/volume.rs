//! Redundant volume layouts and the hedged-read policy.
//!
//! A *volume* is a mount backed by more than one block device. The layout
//! decides what the extra devices hold:
//!
//! * [`VolumeLayout::Mirrored`] — every extent exists in full on every
//!   member device (n-way replication). A read is served by the cheapest
//!   *available* copy; an offline primary reroutes to a mirror instead of
//!   surfacing `Eio`, and a degraded or queue-saturated primary triggers a
//!   *hedged* read against the next-cheapest copy.
//! * [`VolumeLayout::Striped`] — extents are round-robined across member
//!   devices in `stripe_pages` chunks. No redundancy: striping is a pure
//!   placement policy that spreads queue pressure.
//! * [`VolumeLayout::Coded`] — a (k, n) erasure code: each extent is cut
//!   into `k` fragments plus `n - k` parity fragments, one per device, and
//!   a read completes when the `k` cheapest available fragments arrive.
//!   The extent's delivery cost is therefore the **k-th cheapest** fragment
//!   (the straggler of the chosen k), and the extent is unavailable only
//!   when fewer than `k` members are online.
//!
//! [`HedgePolicy`] bounds redundant work: at most `max_hedges` extra
//! requests per primary command ([`HedgePolicy::extra`]), each loser
//! cancelled and charged an explicit `cancel_cost`
//! ([`HedgePolicy::cancelled`]) so per-tenant attribution still sums
//! exactly (the conservation law `own_service + queue_wait == observed`
//! holds by construction — a cancel is just a tiny service-time row). The
//! bound and the loser's price come from the policy and nowhere else: no
//! other function builds a cancelled [`DeviceCost`].

use sleds_sim_core::SimDuration;
use sleds_trace::{CostOutcome, DeviceCost};

/// How a volume lays data across its member devices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VolumeLayout {
    /// Full n-way replication: every member holds every byte.
    Mirrored,
    /// Round-robin striping in `stripe_pages` chunks; no redundancy.
    Striped {
        /// Pages per stripe chunk (clamped to at least 1).
        stripe_pages: u64,
    },
    /// (k, n) erasure code: any `k` of the `n` members reconstruct.
    Coded {
        /// Data fragments needed to reconstruct (1 ≤ k < n).
        k: u32,
    },
}

impl VolumeLayout {
    /// Short layout name used in traces, captures and reports.
    pub fn name(&self) -> &'static str {
        match self {
            VolumeLayout::Mirrored => "mirrored",
            VolumeLayout::Striped { .. } => "striped",
            VolumeLayout::Coded { .. } => "coded",
        }
    }

    /// Minimum member count this layout is meaningful with.
    pub fn min_devices(&self) -> usize {
        match self {
            VolumeLayout::Mirrored => 2,
            VolumeLayout::Striped { .. } => 2,
            VolumeLayout::Coded { k } => *k as usize + 1,
        }
    }

    /// For coded layouts, the `k` of (k, n); otherwise `None`.
    pub fn coded_k(&self) -> Option<u32> {
        match self {
            VolumeLayout::Coded { k } => Some(*k),
            _ => None,
        }
    }
}

/// When and how the kernel issues a redundant (hedged) read, and what a
/// cancelled loser costs.
///
/// Hedging triggers when the chosen replica's device sits inside a fault
/// window (degraded) or its queue wait alone exceeds
/// `deadline_mult ×` the SLED-predicted healthy service time. The kernel
/// then prices every candidate with live fault-epoch costs, issues the
/// real command on the predicted winner, and charges each loser exactly
/// [`HedgePolicy::cancel_cost`] of service time on its own queue.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HedgePolicy {
    /// Upper bound on redundant requests per primary command. `0`
    /// disables hedging entirely (retry-only behavior).
    pub max_hedges: u32,
    /// Deadline multiplier over the healthy-profile service estimate;
    /// exceeding it (on queue wait) triggers a hedge.
    pub deadline_mult: f64,
    /// Service time charged to a cancelled loser's queue — the cost of
    /// issuing and revoking the redundant command.
    pub cancel_cost: SimDuration,
}

impl HedgePolicy {
    /// Hedging disabled: reads retry on their chosen replica only.
    pub fn disabled() -> HedgePolicy {
        HedgePolicy {
            max_hedges: 0,
            ..HedgePolicy::default()
        }
    }

    /// How many redundant requests to issue beside the chosen copy when
    /// `available` copies (the chosen one included) could serve the read:
    /// never more than `max_hedges`, never more than there are other
    /// copies, and none when hedging is disabled.
    pub fn extra(&self, available: usize) -> usize {
        (self.max_hedges as usize).min(available.saturating_sub(1))
    }

    /// The cost event of a hedge loser: `at_submit` — the request as
    /// issued — revoked because a request on a `winner_class` device beat
    /// it, holding its queue for exactly [`HedgePolicy::cancel_cost`].
    ///
    /// ```
    /// use sleds_fs::trace::{CostOutcome, DeviceCost};
    /// use sleds_fs::HedgePolicy;
    ///
    /// let policy = HedgePolicy::default();
    /// let loser = policy.cancelled(DeviceCost::default(), 1);
    /// assert_eq!(loser.service, policy.cancel_cost);
    /// assert_eq!(loser.outcome, CostOutcome::Cancelled { winner_class: 1 });
    /// ```
    ///
    /// No call takes a free-standing cancel cost, so a loser priced at
    /// whatever the call site makes up — a hedge that is never revoked —
    /// has no constructor:
    ///
    /// ```compile_fail
    /// use sleds_fs::trace::DeviceCost;
    /// use sleds_sim_core::SimDuration;
    ///
    /// let loser = DeviceCost::default().hedge_loser(SimDuration::ZERO, 1);
    /// ```
    pub fn cancelled(&self, at_submit: DeviceCost, winner_class: u64) -> DeviceCost {
        DeviceCost {
            service: self.cancel_cost,
            outcome: CostOutcome::Cancelled { winner_class },
            ..at_submit
        }
    }
}

impl Default for HedgePolicy {
    /// One hedge per command, a 4× deadline, and a 50 µs cancel charge.
    fn default() -> HedgePolicy {
        HedgePolicy {
            max_hedges: 1,
            deadline_mult: 4.0,
            cancel_cost: SimDuration::from_micros(50),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_names_and_minimums() {
        assert_eq!(VolumeLayout::Mirrored.name(), "mirrored");
        assert_eq!(VolumeLayout::Striped { stripe_pages: 8 }.name(), "striped");
        assert_eq!(VolumeLayout::Coded { k: 2 }.name(), "coded");
        assert_eq!(VolumeLayout::Mirrored.min_devices(), 2);
        assert_eq!(VolumeLayout::Coded { k: 2 }.min_devices(), 3);
        assert_eq!(VolumeLayout::Coded { k: 2 }.coded_k(), Some(2));
        assert_eq!(VolumeLayout::Mirrored.coded_k(), None);
    }

    #[test]
    fn default_policy_hedges_once_and_disabled_never() {
        let d = HedgePolicy::default();
        assert_eq!(d.max_hedges, 1);
        assert!(d.deadline_mult > 1.0);
        assert!(d.cancel_cost > SimDuration::ZERO);
        assert_eq!(HedgePolicy::disabled().max_hedges, 0);
    }

    #[test]
    fn extra_is_bounded_by_the_policy_and_by_the_copies_there_are() {
        let two = HedgePolicy {
            max_hedges: 2,
            ..HedgePolicy::default()
        };
        assert_eq!(two.extra(0), 0);
        assert_eq!(two.extra(1), 0, "the chosen copy is not its own hedge");
        assert_eq!(two.extra(2), 1);
        assert_eq!(two.extra(3), 2);
        assert_eq!(two.extra(9), 2, "never more than max_hedges");
        assert_eq!(HedgePolicy::disabled().extra(9), 0);
    }

    #[test]
    fn cancelled_keeps_the_submission_and_prices_it_at_cancel_cost() {
        let policy = HedgePolicy::default();
        let at_submit = DeviceCost {
            tenant: 3,
            dev: 2,
            class: 1,
            sector: 64,
            sectors: 8,
            queue_wait: SimDuration::from_millis(9),
            ..DeviceCost::default()
        };
        let loser = policy.cancelled(at_submit, 4);
        let expect = DeviceCost {
            service: policy.cancel_cost,
            outcome: CostOutcome::Cancelled { winner_class: 4 },
            ..at_submit
        };
        assert_eq!(loser, expect);
    }
}
