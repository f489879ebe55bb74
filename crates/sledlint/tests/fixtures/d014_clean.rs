// D014 clean fixture: the hedge site bounds its fan-out by the policy
// and cancels every loser; code that merely reads hedge counters is not
// a hedge site at all.

fn hedge_bounded_and_revoked(k: &mut Kernel, policy: &HedgePolicy) {
    for extra in k.mirror_picks(policy.max_hedges) {
        let loser = k.cost_at_submit(extra).hedge_loser(policy.cancel_cost, 1);
        k.post(&loser);
    }
}

fn renders_counters_only(u: &Rusage) -> u64 {
    u.hedges + u.hedge_wins
}
