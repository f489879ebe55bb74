//! Min-cost replica selection for redundant volumes.
//!
//! A redundant extent can be served from more than one device; `FSLEDS_GET`
//! quotes the price of the copy the kernel would actually pick. The rule
//! lives with the rest of SLED construction in [`sleds_fs::sled`]; this
//! module re-exports it and keeps the unit tests of its cases.

pub use sleds_fs::sled::{degrade, select_min_cost};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SledsEntry;
    use sleds_devices::FaultState;

    fn entry(latency: f64, bandwidth: f64) -> SledsEntry {
        SledsEntry { latency, bandwidth }
    }

    #[test]
    fn mirror_picks_cheapest_available() {
        let cands = [
            (entry(0.018, 9e6), FaultState::Healthy),
            (entry(0.002, 20e6), FaultState::Healthy),
        ];
        let got = select_min_cost(&cands, None, 1 << 20).unwrap();
        assert_eq!(got.latency, 0.002);
    }

    #[test]
    fn mirror_reroutes_around_offline_primary() {
        let cands = [
            (entry(0.002, 20e6), FaultState::Offline),
            (entry(0.018, 9e6), FaultState::Healthy),
        ];
        let got = select_min_cost(&cands, None, 1 << 20).unwrap();
        assert_eq!(got.latency, 0.018, "offline member must not win");
    }

    #[test]
    fn mirror_with_all_offline_is_unavailable() {
        let cands = [
            (entry(0.002, 20e6), FaultState::Offline),
            (entry(0.018, 9e6), FaultState::Offline),
        ];
        assert!(select_min_cost(&cands, None, 4096).is_none());
    }

    #[test]
    fn degraded_member_is_priced_up_not_excluded() {
        // Degrading the fast member 20x makes the slow one win, at its
        // healthy price.
        let cands = [
            (entry(0.002, 20e6), FaultState::Degraded(20.0)),
            (entry(0.018, 9e6), FaultState::Healthy),
        ];
        let got = select_min_cost(&cands, None, 1 << 20).unwrap();
        assert_eq!(got.latency, 0.018);
        // A mild degradation leaves the fast member in front, priced up.
        let cands = [
            (entry(0.002, 20e6), FaultState::Degraded(2.0)),
            (entry(0.018, 9e6), FaultState::Healthy),
        ];
        let got = select_min_cost(&cands, None, 4096).unwrap();
        assert!((got.latency - 0.004).abs() < 1e-12);
        assert!((got.bandwidth - 10e6).abs() < 1.0);
    }

    #[test]
    fn coded_prices_the_kth_cheapest_fragment() {
        let cands = [
            (entry(0.001, 20e6), FaultState::Healthy),
            (entry(0.010, 9e6), FaultState::Healthy),
            (entry(0.080, 2e6), FaultState::Healthy),
        ];
        // k = 2 of 3: the straggler among the two chosen is the middle one.
        let got = select_min_cost(&cands, Some(2), 4096).unwrap();
        assert_eq!(got.latency, 0.010);
    }

    #[test]
    fn coded_needs_k_available_members() {
        let cands = [
            (entry(0.001, 20e6), FaultState::Healthy),
            (entry(0.010, 9e6), FaultState::Offline),
            (entry(0.080, 2e6), FaultState::Offline),
        ];
        assert!(select_min_cost(&cands, Some(2), 4096).is_none());
        // One member back: exactly k available, priced by the slower one.
        let cands = [
            (entry(0.001, 20e6), FaultState::Healthy),
            (entry(0.010, 9e6), FaultState::Healthy),
            (entry(0.080, 2e6), FaultState::Offline),
        ];
        let got = select_min_cost(&cands, Some(2), 4096).unwrap();
        assert_eq!(got.latency, 0.010);
    }

    #[test]
    fn empty_candidate_set_is_unavailable() {
        assert!(select_min_cost(&[], None, 4096).is_none());
        assert!(select_min_cost(&[], Some(1), 4096).is_none());
    }
}
