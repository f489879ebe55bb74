// D014 fixture: hedge sites that never bound their redundant requests,
// or never cancel the losing copy.

// Neither a bound nor the policy's cancel cost: every slow pick fans out,
// forever, and what the loser holds its queue for is made up on the spot.
fn hedge_everything(k: &mut Kernel, dev: DeviceId) {
    if k.queue_pressure(dev) > k.deadline(dev) {
        let loser = k.cost_at_submit(dev).hedge_loser(k.revoke_cost(), 1);
        k.post(&loser);
    }
}

// Bounded by the policy, but the loser is posted at zero cost instead of
// the policy's cancel cost: redundant work nobody accounts for.
fn hedge_without_revoke(k: &mut Kernel, policy: &HedgePolicy) {
    for extra in k.mirror_picks(policy.max_hedges) {
        let loser = k.cost_at_submit(extra).hedge_loser(SimDuration::ZERO, 1);
        k.post(&loser);
    }
}
