//! Min-cost replica selection vs brute force.
//!
//! [`sleds::select_min_cost`] must agree with an exhaustive oracle on
//! every randomized candidate set: for mirrors, enumerate every available
//! member and take the cheapest delivery time; for (k, n) codes,
//! enumerate every k-subset of available members and take the subset
//! whose straggler is cheapest. The oracle is quadratic-to-exponential
//! and obviously correct; the library is sort-based. They must agree to
//! the bit on the quoted entry.
//!
//! Runs under the in-repo `check` harness; case count scales with
//! `SLEDS_CHECK_CASES`.

use sleds::{select_min_cost, SledsEntry};
use sleds_devices::FaultState;
use sleds_sim_core::{check, DetRng};

fn delivery(e: &SledsEntry, length: u64) -> f64 {
    if e.bandwidth <= 0.0 {
        return f64::INFINITY;
    }
    e.latency + length as f64 / e.bandwidth
}

fn degrade_oracle(e: SledsEntry, s: FaultState) -> Option<SledsEntry> {
    match s {
        FaultState::Healthy => Some(e),
        FaultState::Degraded(m) => Some(SledsEntry {
            latency: e.latency * m,
            bandwidth: e.bandwidth / m,
        }),
        FaultState::Offline => None,
    }
}

/// Exhaustive mirror oracle: cheapest available member, ties broken by
/// first appearance (stable, like the library's stable sort).
fn mirror_oracle(cands: &[(SledsEntry, FaultState)], length: u64) -> Option<SledsEntry> {
    let mut best: Option<SledsEntry> = None;
    for &(e, s) in cands {
        let Some(e) = degrade_oracle(e, s) else {
            continue;
        };
        let better = match &best {
            None => true,
            Some(b) => delivery(&e, length).total_cmp(&delivery(b, length)).is_lt(),
        };
        if better {
            best = Some(e);
        }
    }
    best
}

/// Exhaustive coded oracle: over every k-subset of available members,
/// the subset straggler (max delivery) that is cheapest. That minimax is
/// exactly the k-th cheapest available member, but the oracle earns the
/// claim by enumeration instead of assuming it.
fn coded_oracle(cands: &[(SledsEntry, FaultState)], k: usize, length: u64) -> Option<SledsEntry> {
    let avail: Vec<SledsEntry> = cands
        .iter()
        .filter_map(|&(e, s)| degrade_oracle(e, s))
        .collect();
    if avail.len() < k || k == 0 {
        return None;
    }
    let mut best: Option<SledsEntry> = None;
    // Enumerate k-subsets by bitmask; candidate sets are small (≤ 8).
    for mask in 0u32..(1u32 << avail.len()) {
        if mask.count_ones() as usize != k {
            continue;
        }
        let mut straggler: Option<SledsEntry> = None;
        for (i, e) in avail.iter().enumerate() {
            if mask & (1 << i) == 0 {
                continue;
            }
            let slower = match &straggler {
                None => true,
                Some(s) => delivery(e, length).total_cmp(&delivery(s, length)).is_gt(),
            };
            if slower {
                straggler = Some(*e);
            }
        }
        let s = straggler.expect("non-empty subset");
        let better = match &best {
            None => true,
            Some(b) => delivery(&s, length).total_cmp(&delivery(b, length)).is_lt(),
        };
        if better {
            best = Some(s);
        }
    }
    best
}

fn random_candidates(rng: &mut DetRng) -> Vec<(SledsEntry, FaultState)> {
    let n = rng.range_usize(0, 9);
    (0..n)
        .map(|_| {
            // Latencies from sub-ms to tape-scale; bandwidths likewise
            // spread, with occasional exact duplicates to exercise ties.
            let entry = if rng.chance(0.2) {
                SledsEntry {
                    latency: 0.018,
                    bandwidth: 9e6,
                }
            } else {
                SledsEntry {
                    latency: rng.range_u64(1, 100_000_000) as f64 * 1e-9,
                    bandwidth: rng.range_u64(1, 50_000) as f64 * 1e3,
                }
            };
            let state = match rng.range_u64(0, 4) {
                0 => FaultState::Offline,
                1 => FaultState::Degraded(rng.range_u64(2, 40) as f64 / 2.0),
                _ => FaultState::Healthy,
            };
            (entry, state)
        })
        .collect()
}

fn delivery_bits(e: Option<SledsEntry>, length: u64) -> Option<u64> {
    e.map(|e| delivery(&e, length).to_bits())
}

fn mirror_scenario(rng: &mut DetRng) {
    let cands = random_candidates(rng);
    let length = rng.range_u64(1, 1 << 24);
    let got = select_min_cost(&cands, None, length);
    let want = mirror_oracle(&cands, length);
    assert_eq!(
        delivery_bits(got, length),
        delivery_bits(want, length),
        "mirror selection disagrees with brute force on {cands:?} length {length}"
    );
}

fn coded_scenario(rng: &mut DetRng) {
    let cands = random_candidates(rng);
    let length = rng.range_u64(1, 1 << 24);
    let k = rng.range_u64(1, 5) as u32;
    let got = select_min_cost(&cands, Some(k), length);
    let want = coded_oracle(&cands, k as usize, length);
    assert_eq!(
        delivery_bits(got, length),
        delivery_bits(want, length),
        "coded selection disagrees with brute force on {cands:?} k {k} length {length}"
    );
}

#[test]
fn mirror_selection_matches_brute_force() {
    check::run("replica_mirror_vs_brute_force", mirror_scenario);
}

#[test]
fn coded_selection_matches_brute_force() {
    check::run("replica_coded_vs_brute_force", coded_scenario);
}
