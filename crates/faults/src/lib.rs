//! Deterministic fault injection for the storage stack.
//!
//! Real devices fail: commands bounce (`EAGAIN`-class transients), service
//! times balloon (a scrubbing disk, a congested NFS link), and whole devices
//! drop off the bus (a jammed tape robot, an unreachable server). The SLEDs
//! stack has to keep its latency estimates honest through all of that, so
//! this crate provides the *cause*: a [`FaultPlan`] that schedules faults on
//! the **virtual clock** — never the wall clock, never ambient randomness —
//! and per-device [`FaultInjector`]s the device models consult on every
//! command submission.
//!
//! Three fault shapes, mirroring what the retry/degradation machinery above
//! must handle:
//!
//! * **transient** — the next `budget` submissions inside the window fail
//!   with `EAGAIN` after burning a fixed fail cost; the kernel's bounded
//!   retry (`sleds_sim_core::retry`) is expected to mask these. The first submission that
//!   succeeds after a failure pays a resubmission overhead, recorded by the
//!   device as a `Retry` phase.
//! * **degraded** — commands succeed but take `multiplier`× as long; the
//!   surplus is recorded as a `Fault` phase so spans still sum to service
//!   time.
//! * **offline** — every submission inside the window fails fast with `EIO`
//!   after a short probe cost. Not retryable: the device is gone until the
//!   window closes.
//!
//! Everything is a pure function of `(plan, command sequence, virtual
//! time)`: the same seed replays byte-identically, which is what lets the
//! fault-storm experiment diff its report in CI.

// Kernel path (DESIGN §5c): fail with a typed `SimError`, never abort the
// simulation; a narrowing cast names the bound that makes it lossless.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable,
        clippy::cast_possible_truncation
    )
)]

use sleds_sim_core::{DetRng, Errno, SimDuration, SimTime};

/// One scheduled fault interval on one device. Half-open: `[start, end)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultWindow {
    /// The first `budget` submissions in the window fail with `EAGAIN`.
    Transient {
        /// Window start (inclusive).
        start: SimTime,
        /// Window end (exclusive).
        end: SimTime,
        /// How many submissions fail before the fault clears.
        budget: u32,
        /// Virtual time burned by each failed submission.
        fail_cost: SimDuration,
    },
    /// Commands succeed but run `multiplier`× slower.
    Degraded {
        /// Window start (inclusive).
        start: SimTime,
        /// Window end (exclusive).
        end: SimTime,
        /// Service-time multiplier, clamped to at least 1.0.
        multiplier: f64,
    },
    /// Every submission fails fast with `EIO`.
    Offline {
        /// Window start (inclusive).
        start: SimTime,
        /// Window end (exclusive).
        end: SimTime,
        /// Virtual time burned discovering the device is gone.
        probe_cost: SimDuration,
    },
}

impl FaultWindow {
    fn start(&self) -> SimTime {
        match *self {
            FaultWindow::Transient { start, .. }
            | FaultWindow::Degraded { start, .. }
            | FaultWindow::Offline { start, .. } => start,
        }
    }

    fn end(&self) -> SimTime {
        match *self {
            FaultWindow::Transient { end, .. }
            | FaultWindow::Degraded { end, .. }
            | FaultWindow::Offline { end, .. } => end,
        }
    }

    fn active_at(&self, now: SimTime) -> bool {
        self.start() <= now && now < self.end()
    }
}

/// What the device should do with the submission it is about to serve.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Decision {
    /// Serve the command. `multiplier` inflates the mechanical service time
    /// (1.0 = clean; the surplus is logged as a `Fault` phase) and `resume`
    /// is the resubmission overhead owed for recovering from an immediately
    /// preceding transient failure (logged as a `Retry` phase).
    Proceed {
        /// Service-time multiplier, always >= 1.0.
        multiplier: f64,
        /// Recovery overhead for the first post-failure success.
        resume: SimDuration,
    },
    /// Fail the submission after burning `cost` (logged as a `Fault` phase).
    Fail {
        /// Error the device surfaces (`EAGAIN` transient, `EIO` offline).
        errno: Errno,
        /// Virtual time the failed submission still consumed.
        cost: SimDuration,
    },
}

impl Decision {
    /// The clean-path decision: serve at full speed, nothing owed.
    pub const CLEAN: Decision = Decision::Proceed {
        multiplier: 1.0,
        resume: SimDuration::ZERO,
    };
}

/// Coarse device health at an instant, for SLED pricing.
///
/// Unlike [`FaultInjector::decide`], this is a pure query: it never consumes
/// transient budget, so `FSLEDS_GET` can price extents without perturbing
/// the fault sequence.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultState {
    /// No window active: estimates need no correction.
    Healthy,
    /// Degraded window active: inflate latency, deflate bandwidth by the
    /// multiplier.
    Degraded(f64),
    /// Offline window active: extents are unavailable (infinite latency).
    Offline,
}

/// The per-device fault schedule plus its replay state.
///
/// Installed into a device model, consulted once per command submission.
/// All mutation is driven by `decide`, which the device calls in its service
/// path — identical command sequences therefore replay identical fault
/// sequences, traced or not.
#[derive(Clone, Debug, Default)]
pub struct FaultInjector {
    windows: Vec<FaultWindow>,
    /// Transient budget already consumed, indexed like `windows`.
    spent: Vec<u32>,
    /// Resubmission overhead owed to the next successful submission.
    pending_resume: SimDuration,
}

impl FaultInjector {
    fn new(mut windows: Vec<FaultWindow>) -> Self {
        windows.sort_by_key(|w| (w.start().as_nanos(), w.end().as_nanos()));
        let spent = vec![0; windows.len()];
        FaultInjector {
            windows,
            spent,
            pending_resume: SimDuration::ZERO,
        }
    }

    /// Decides the fate of a command submitted at `now`.
    ///
    /// Priority: offline beats transient beats degraded — a device that is
    /// off the bus cannot also limp. Transient failures consume window
    /// budget and arm the `Retry`-phase resume overhead.
    pub fn decide(&mut self, now: SimTime) -> Decision {
        // Offline dominates: fail fast, keep transient budget untouched.
        for w in &self.windows {
            if let FaultWindow::Offline { probe_cost, .. } = *w {
                if w.active_at(now) {
                    return Decision::Fail {
                        errno: Errno::Eio,
                        cost: probe_cost,
                    };
                }
            }
        }
        for (i, w) in self.windows.iter().enumerate() {
            if let FaultWindow::Transient {
                budget, fail_cost, ..
            } = *w
            {
                if w.active_at(now) && self.spent[i] < budget {
                    self.spent[i] += 1;
                    // Recovery costs half of what failing did: the retried
                    // command re-arbitrates the bus but skips the timeout.
                    self.pending_resume = fail_cost / 2;
                    return Decision::Fail {
                        errno: Errno::Eagain,
                        cost: fail_cost,
                    };
                }
            }
        }
        let resume = self.pending_resume;
        self.pending_resume = SimDuration::ZERO;
        let mut multiplier = 1.0f64;
        for w in &self.windows {
            if let FaultWindow::Degraded { multiplier: m, .. } = *w {
                if w.active_at(now) {
                    multiplier = multiplier.max(m.max(1.0));
                }
            }
        }
        Decision::Proceed { multiplier, resume }
    }

    /// Coarse health at `now`, without consuming any budget.
    pub fn state(&self, now: SimTime) -> FaultState {
        let mut degraded = 1.0f64;
        for w in &self.windows {
            if !w.active_at(now) {
                continue;
            }
            match *w {
                FaultWindow::Offline { .. } => return FaultState::Offline,
                FaultWindow::Degraded { multiplier, .. } => {
                    degraded = degraded.max(multiplier.max(1.0));
                }
                FaultWindow::Transient { .. } => {}
            }
        }
        if degraded > 1.0 {
            FaultState::Degraded(degraded)
        } else {
            FaultState::Healthy
        }
    }

    /// Fault epoch at `now`: the number of window boundaries (starts and
    /// ends) at or before `now`.
    ///
    /// Monotone in `now` and pure, so the kernel can fold it into
    /// `sled_generation` — a SLED vector stamped with it goes stale
    /// whenever a device's health regime changes.
    pub fn epoch(&self, now: SimTime) -> u64 {
        let mut n = 0u64;
        for w in &self.windows {
            if w.start() <= now {
                n += 1;
            }
            if w.end() <= now {
                n += 1;
            }
        }
        n
    }

    /// The scheduled windows, sorted by start time.
    pub fn windows(&self) -> &[FaultWindow] {
        &self.windows
    }
}

/// A complete fault schedule: per-device-name window lists.
///
/// Built either explicitly (window by window, for curated scenarios) or from
/// a seed via [`FaultPlan::seeded_storm`]. Device names match the names the
/// device models report (`BlockDevice::name`).
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    // BTreeMap keeps iteration deterministic (`clippy.toml` bans HashMap).
    devices: std::collections::BTreeMap<String, Vec<FaultWindow>>,
}

impl FaultPlan {
    /// An empty plan: every device stays healthy.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a transient window: the first `budget` submissions of `dev` in
    /// `[start, end)` fail with `EAGAIN` after burning `fail_cost` each.
    pub fn transient(
        mut self,
        dev: &str,
        start: SimTime,
        end: SimTime,
        budget: u32,
        fail_cost: SimDuration,
    ) -> Self {
        self.push(
            dev,
            FaultWindow::Transient {
                start,
                end,
                budget,
                fail_cost,
            },
        );
        self
    }

    /// Adds a degraded window: commands on `dev` in `[start, end)` take
    /// `multiplier`× as long (clamped to at least 1.0 at decision time).
    pub fn degraded(mut self, dev: &str, start: SimTime, end: SimTime, multiplier: f64) -> Self {
        self.push(
            dev,
            FaultWindow::Degraded {
                start,
                end,
                multiplier,
            },
        );
        self
    }

    /// Adds an offline window: every submission on `dev` in `[start, end)`
    /// fails fast with `EIO` after burning `probe_cost`.
    pub fn offline(
        mut self,
        dev: &str,
        start: SimTime,
        end: SimTime,
        probe_cost: SimDuration,
    ) -> Self {
        self.push(
            dev,
            FaultWindow::Offline {
                start,
                end,
                probe_cost,
            },
        );
        self
    }

    /// Generates a storm over `horizon`: each named device gets a derived,
    /// stream-split [`DetRng`] and draws 1–3 windows of mixed shape. Same
    /// seed, same device list, same horizon → bit-identical plan.
    pub fn seeded_storm(seed: u64, devices: &[&str], horizon: SimDuration) -> Self {
        let root = DetRng::new(seed);
        let mut plan = FaultPlan::new();
        let span = horizon.as_nanos().max(1);
        for (i, dev) in devices.iter().enumerate() {
            let mut rng = root.derive(i as u64);
            let n = rng.range_u64(1, 4);
            for _ in 0..n {
                let a = rng.range_u64(0, span);
                let len = rng.range_u64(span / 64 + 1, span / 8 + 2);
                let start = SimTime::from_nanos(a);
                let end = SimTime::from_nanos(a.saturating_add(len));
                let cost = SimDuration::from_micros(rng.range_u64(50, 2_000));
                plan = match rng.range_u64(0, 3) {
                    0 => {
                        let budget = u32::try_from(rng.range_u64(1, 4)).unwrap_or(1);
                        plan.transient(dev, start, end, budget, cost)
                    }
                    1 => {
                        let mult = 2.0 + rng.unit_f64() * 6.0;
                        plan.degraded(dev, start, end, mult)
                    }
                    _ => plan.offline(dev, start, end, cost),
                };
            }
        }
        plan
    }

    fn push(&mut self, dev: &str, w: FaultWindow) {
        self.devices.entry(dev.to_string()).or_default().push(w);
    }

    /// Builds the injector for `dev`, or `None` if the plan never touches
    /// it (the device then runs the zero-cost clean path).
    pub fn injector_for(&self, dev: &str) -> Option<FaultInjector> {
        self.devices
            .get(dev)
            .map(|ws| FaultInjector::new(ws.clone()))
    }

    /// Device names the plan schedules faults for, sorted.
    pub fn device_names(&self) -> impl Iterator<Item = &str> {
        self.devices.keys().map(|s| s.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_nanos(secs * 1_000_000_000)
    }

    #[test]
    fn clean_injector_always_proceeds() {
        let mut inj = FaultInjector::default();
        assert_eq!(inj.decide(t(0)), Decision::CLEAN);
        assert_eq!(inj.state(t(5)), FaultState::Healthy);
        assert_eq!(inj.epoch(t(100)), 0);
    }

    #[test]
    fn transient_burns_budget_then_resumes_with_overhead() {
        let cost = SimDuration::from_millis(2);
        let plan = FaultPlan::new().transient("hda", t(1), t(10), 2, cost);
        let mut inj = plan.injector_for("hda").unwrap();
        assert_eq!(inj.decide(t(0)), Decision::CLEAN, "before the window");
        assert_eq!(
            inj.decide(t(2)),
            Decision::Fail {
                errno: Errno::Eagain,
                cost
            }
        );
        assert_eq!(
            inj.decide(t(2)),
            Decision::Fail {
                errno: Errno::Eagain,
                cost
            }
        );
        // Budget exhausted: the next submission succeeds but owes the
        // resubmission overhead exactly once.
        assert_eq!(
            inj.decide(t(3)),
            Decision::Proceed {
                multiplier: 1.0,
                resume: cost / 2
            }
        );
        assert_eq!(inj.decide(t(3)), Decision::CLEAN);
        // Transient windows never change the coarse health state.
        assert_eq!(inj.state(t(2)), FaultState::Healthy);
    }

    #[test]
    fn offline_dominates_and_preserves_transient_budget() {
        let probe = SimDuration::from_micros(300);
        let plan = FaultPlan::new()
            .transient("st0", t(0), t(20), 1, SimDuration::from_millis(1))
            .offline("st0", t(5), t(10), probe);
        let mut inj = plan.injector_for("st0").unwrap();
        assert_eq!(
            inj.decide(t(6)),
            Decision::Fail {
                errno: Errno::Eio,
                cost: probe
            }
        );
        assert_eq!(inj.state(t(6)), FaultState::Offline);
        // After the outage the transient budget is still intact.
        assert_eq!(
            inj.decide(t(12)),
            Decision::Fail {
                errno: Errno::Eagain,
                cost: SimDuration::from_millis(1)
            }
        );
    }

    #[test]
    fn degraded_multiplier_applies_and_is_clamped() {
        let plan =
            FaultPlan::new()
                .degraded("nfs", t(1), t(10), 4.0)
                .degraded("nfs", t(1), t(10), 0.5);
        let mut inj = plan.injector_for("nfs").unwrap();
        assert_eq!(
            inj.decide(t(5)),
            Decision::Proceed {
                multiplier: 4.0,
                resume: SimDuration::ZERO
            }
        );
        assert_eq!(inj.state(t(5)), FaultState::Degraded(4.0));
        assert_eq!(inj.state(t(11)), FaultState::Healthy);
    }

    #[test]
    fn epoch_counts_boundaries_monotonically() {
        let plan = FaultPlan::new().degraded("hda", t(2), t(4), 2.0).offline(
            "hda",
            t(6),
            t(8),
            SimDuration::ZERO,
        );
        let inj = plan.injector_for("hda").unwrap();
        let epochs: Vec<u64> = (0..10).map(|s| inj.epoch(t(s))).collect();
        assert_eq!(epochs, vec![0, 0, 1, 1, 2, 2, 3, 3, 4, 4]);
        for w in epochs.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn seeded_storm_is_reproducible_and_seed_sensitive() {
        let horizon = SimDuration::from_secs(100);
        let a = FaultPlan::seeded_storm(42, &["hda", "nfs", "st0"], horizon);
        let b = FaultPlan::seeded_storm(42, &["hda", "nfs", "st0"], horizon);
        for dev in ["hda", "nfs", "st0"] {
            let wa = a.injector_for(dev).unwrap();
            let wb = b.injector_for(dev).unwrap();
            assert_eq!(wa.windows(), wb.windows(), "{dev}: same seed, same plan");
            assert!(!wa.windows().is_empty());
        }
        let c = FaultPlan::seeded_storm(43, &["hda", "nfs", "st0"], horizon);
        let differs = ["hda", "nfs", "st0"]
            .iter()
            .any(|d| a.injector_for(d).unwrap().windows() != c.injector_for(d).unwrap().windows());
        assert!(differs, "different seeds should draw different storms");
    }

    #[test]
    fn plan_without_device_yields_no_injector() {
        let plan = FaultPlan::new().degraded("hda", t(0), t(1), 2.0);
        assert!(plan.injector_for("hdb").is_none());
        assert_eq!(plan.device_names().collect::<Vec<_>>(), vec!["hda"]);
    }
}
