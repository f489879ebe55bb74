//! Redundant volumes in the kernel: mounting one, laying a file out
//! across its members, and routing a read that misses the cache to the
//! cheapest copy (mirrors, with hedging and failover) or the k cheapest
//! fragments (codes).

use sleds_devices::{BlockDevice, FaultState};
use sleds_sim_core::{Errno, Pages, Sectors, SimDuration, SimError, SimResult, SimTime};
use sleds_trace::{DeviceCost, Wait};

use super::cost::Attempt;
use super::{DeviceId, Kernel, MountId, VolumeState};
use crate::inode::{Ino, PageMap, PagePlace};
use crate::volume::{HedgePolicy, VolumeLayout};

impl Kernel {
    /// Mounts a redundant volume at `path`: one mount spanning several
    /// member devices under `layout`. The first device is the primary
    /// (the mount's allocator device); the rest hold mirrors, stripes or
    /// coded fragments. Files created or installed on the mount get the
    /// layout automatically; reads reroute and hedge across members per
    /// the machine's [`HedgePolicy`].
    pub fn mount_volume(
        &mut self,
        path: &str,
        layout: VolumeLayout,
        mut members: Vec<Box<dyn BlockDevice>>,
    ) -> SimResult<MountId> {
        if members.len() < layout.min_devices() {
            return Err(SimError::new(
                Errno::Einval,
                format!(
                    "mount_volume({path}): {} layout needs at least {} devices, got {}",
                    layout.name(),
                    layout.min_devices(),
                    members.len()
                ),
            ));
        }
        if let VolumeLayout::Coded { k } = layout {
            if k == 0 {
                return Err(SimError::new(
                    Errno::Einval,
                    format!("mount_volume({path}): coded layout needs k >= 1"),
                ));
            }
        }
        let rest = members.split_off(1);
        let primary = members.pop().ok_or_else(|| {
            SimError::new(Errno::Einval, format!("mount_volume({path}): no devices"))
        })?;
        let id = self.mount_device(path, primary, false)?;
        let mut devices = vec![self.mounts[id.0].dev];
        let mut replica_next = Vec::new();
        for d in rest {
            devices.push(self.add_device(d));
            // Same metadata reservation as the primary allocator.
            replica_next.push(Sectors::new(2048));
        }
        self.mounts[id.0].volume = Some(VolumeState {
            layout,
            devices,
            replica_next,
            stripe_cursor: 0,
        });
        Ok(id)
    }

    /// The layout of a volume mount, or `None` for ordinary mounts.
    pub fn volume_layout(&self, m: MountId) -> Option<VolumeLayout> {
        self.mounts.get(m.0)?.volume.as_ref().map(|v| v.layout)
    }

    /// Member devices of a volume mount (primary first); empty for
    /// ordinary mounts.
    pub fn volume_members(&self, m: MountId) -> Vec<DeviceId> {
        self.mounts
            .get(m.0)
            .and_then(|mt| mt.volume.as_ref())
            .map(|v| v.devices.clone())
            .unwrap_or_default()
    }

    /// Replaces the machine's hedged-read policy. Setup mutation: not
    /// capturable mid-recording.
    pub fn set_hedge_policy(&mut self, policy: HedgePolicy) {
        self.rec_unsupported("set_hedge_policy");
        self.cfg.hedge = policy;
    }

    /// The hedged-read policy in force.
    pub fn hedge_policy(&self) -> HedgePolicy {
        self.cfg.hedge
    }

    // ------------------------------------------------------------------
    // Redundant reads: reroute, hedging, coded fan-out
    // ------------------------------------------------------------------

    /// The volume layout governing `ino`, if its mount is a volume.
    pub(super) fn volume_of(&self, ino: Ino) -> Option<VolumeLayout> {
        let mount = self.inodes.get(ino.0)?.mount?;
        self.mounts.get(mount.0)?.volume.as_ref().map(|v| v.layout)
    }

    /// Every place that can serve pages starting at `first_page` of `ino`:
    /// `(member index, device, first sector)`, primary first.
    fn replica_candidates(
        &self,
        ino: Ino,
        primary: PagePlace,
        first_page: Pages,
    ) -> SimResult<Vec<(usize, DeviceId, Sectors)>> {
        let f = self.file_of(ino)?;
        let mut out = vec![(0usize, primary.dev, primary.sector)];
        for (i, map) in f.replicas.iter().enumerate() {
            if let Some(p) = map.place_of(first_page) {
                out.push((i + 1, p.dev, p.sector));
            }
        }
        Ok(out)
    }

    /// Healthy-profile service estimate for moving `bytes` off `dev` —
    /// the SLED-predicted deadline basis for hedging.
    fn nominal_estimate(&self, dev: DeviceId, bytes: u64) -> SimDuration {
        let p = self.devices[dev.0].profile();
        p.nominal_latency + p.nominal_bandwidth.transfer_time(bytes)
    }

    /// Live fault-priced completion prediction for a command of `bytes`
    /// submitted to `dev` at `now`: queue wait plus the profile estimate
    /// inflated by the device's current fault state.
    fn predicted_completion(&self, dev: DeviceId, bytes: u64, now: SimTime) -> SimDuration {
        let qwait = self.queues[dev.0].queue_wait(now);
        let est = self.nominal_estimate(dev, bytes);
        let est = match self.devices[dev.0].fault_state(now) {
            FaultState::Degraded(m) => SimDuration::from_secs_f64(est.as_secs_f64() * m),
            _ => est,
        };
        qwait + est
    }

    /// Issues the device read(s) for one missing run, routing across the
    /// file's volume members. Unreplicated and striped files issue the
    /// single primary command they always did; mirrored files pick the
    /// cheapest available copy (with hedging and failover); coded files
    /// fan out to the k cheapest fragments.
    pub(super) fn redundant_read(
        &mut self,
        ino: Ino,
        primary: PagePlace,
        first_page: Pages,
        pages: Pages,
    ) -> SimResult<()> {
        match self.volume_of(ino) {
            Some(VolumeLayout::Mirrored) => self.mirrored_read(ino, primary, first_page, pages),
            Some(coded @ VolumeLayout::Coded { .. }) => {
                self.coded_read(ino, primary, first_page, pages, coded)
            }
            _ => self.device_command(primary.dev, primary.sector, pages.sectors(), false),
        }
    }

    /// A mirrored read: pick the cheapest *available* copy by healthy
    /// profile (offline members reroute instead of erroring), hedge a
    /// redundant request when the pick sits in a fault window or its
    /// queue wait alone exceeds the SLED-predicted deadline, and fail
    /// over to the remaining copies if the winner's device gives up.
    fn mirrored_read(
        &mut self,
        ino: Ino,
        primary: PagePlace,
        first_page: Pages,
        pages: Pages,
    ) -> SimResult<()> {
        let sectors = pages.sectors();
        let bytes = sectors.bytes();
        let now = self.now();
        let mut cands = self.replica_candidates(ino, primary, first_page)?;
        // Cheapest healthy-profile copy first; member order breaks ties,
        // keeping the primary preferred among equals.
        cands.sort_by(|a, b| {
            self.nominal_estimate(a.1, bytes)
                .cmp(&self.nominal_estimate(b.1, bytes))
                .then(a.0.cmp(&b.0))
        });
        let available: Vec<(usize, DeviceId, Sectors)> = cands
            .iter()
            .copied()
            .filter(|&(_, dev, _)| {
                !matches!(self.devices[dev.0].fault_state(now), FaultState::Offline)
            })
            .collect();
        if available.is_empty() {
            return Err(SimError::new(
                Errno::Eio,
                "mirrored volume: all replicas offline",
            ));
        }
        let chosen = available[0];
        let policy = self.cfg.hedge;
        let qwait = self.queues[chosen.1 .0].queue_wait(now);
        let deadline = SimDuration::from_secs_f64(
            self.nominal_estimate(chosen.1, bytes).as_secs_f64() * policy.deadline_mult,
        );
        let in_fault_window = matches!(
            self.devices[chosen.1 .0].fault_state(now),
            FaultState::Degraded(_)
        );
        // Every redundant request is either the winner or cancelled below.
        let mut contenders = vec![chosen];
        if in_fault_window || qwait > deadline {
            let extra = policy.extra(available.len());
            contenders.extend(available.iter().skip(1).take(extra).copied());
        }
        let mut winner_at = 0usize;
        for i in 1..contenders.len() {
            if self.predicted_completion(contenders[i].1, bytes, now)
                < self.predicted_completion(contenders[winner_at].1, bytes, now)
            {
                winner_at = i;
            }
        }
        let winner = contenders[winner_at];
        let winner_class = self.devices[winner.1 .0].class().code();
        for (i, &(_, dev, sector)) in contenders.iter().enumerate() {
            if i == winner_at {
                continue;
            }
            // The loser is issued and revoked: `CostOutcome::Cancelled`.
            let loser = policy.cancelled(self.cost_at_submit(dev, sector, sectors), winner_class);
            self.post(&loser);
        }
        if winner.0 != chosen.0 {
            self.ledger.counts.hedge_wins += 1;
        }
        // Winner first, then the remaining available copies as failover
        // targets; bounded by the member count.
        let mut last_err: Option<SimError> = None;
        let order =
            std::iter::once(winner).chain(available.iter().copied().filter(|c| c.0 != winner.0));
        for (_, dev, sector) in order {
            match self.device_command(dev, sector, sectors, false) {
                Ok(_) => return Ok(()),
                Err(e) if matches!(e.errno, Errno::Eio | Errno::Etimedout) => {
                    last_err = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            SimError::new(Errno::Eio, "mirrored volume: no replica could serve")
        }))
    }

    /// A (k, n)-coded read: fan out to the k cheapest available fragment
    /// homes (fault-priced), let them run concurrently, and charge the
    /// caller to the straggler's completion — the k-th cheapest fragment,
    /// exactly the SLED the pricing layer quotes. A fragment failed by an
    /// injected fault is excluded and replaced by the next-cheapest
    /// member (bounded by the member count); fewer than k available
    /// members is the only hard failure.
    fn coded_read(
        &mut self,
        ino: Ino,
        primary: PagePlace,
        first_page: Pages,
        pages: Pages,
        coded: VolumeLayout,
    ) -> SimResult<()> {
        let k = coded.quorum();
        let frag_sectors = coded.fragment(pages.sectors());
        let frag_bytes = frag_sectors.bytes();
        let cands = self.replica_candidates(ino, primary, first_page)?;
        // Members already used: served (their events are in `done`, and
        // survive re-picks) or excluded by a fault.
        let mut used: Vec<usize> = Vec::new();
        let mut done: Vec<DeviceCost> = Vec::new();
        // Every pass either finishes the k fragments or uses up at least
        // one more member, so one pass per member (and a last one that
        // finds none left) is all there can be.
        for _ in 0..=cands.len() {
            if done.len() == k {
                break;
            }
            let now = self.now();
            let mut avail: Vec<(usize, DeviceId, Sectors)> = cands
                .iter()
                .copied()
                .filter(|&(m, dev, _)| {
                    !used.contains(&m)
                        && !matches!(self.devices[dev.0].fault_state(now), FaultState::Offline)
                })
                .collect();
            let have = avail.len() + done.len();
            if have < k {
                let why = format!("coded volume: only {have} of {k} fragments available");
                return Err(SimError::new(Errno::Eio, why));
            }
            avail.sort_by(|a, b| {
                self.predicted_completion(a.1, frag_bytes, now)
                    .cmp(&self.predicted_completion(b.1, frag_bytes, now))
                    .then(a.0.cmp(&b.0))
            });
            let need = k - done.len();
            for &(m, dev, sector) in avail.iter().take(need) {
                used.push(m);
                match self.submit(dev, sector, frag_sectors, false, 1, Wait::Overlapped) {
                    Attempt::Served(ev) => done.push(ev),
                    Attempt::Refused(err) => return Err(err),
                    // Posted and paid for serially like any faulted attempt;
                    // the member stays excluded and the pick is repeated.
                    Attempt::Faulted(_) => break,
                }
            }
        }
        // Charge to the straggler: the fan-out completes when its slowest
        // chosen fragment does (the first such, on a tie). Split the
        // straggler's own queue wait out of the I/O charge so queue-wait
        // accounting stays meaningful.
        if let Some(ev) = done.iter().rev().max_by_key(|ev| ev.complete()) {
            let gap = ev.complete().duration_since(self.now());
            let qpart = ev.queue_wait.min(gap);
            self.ledger.queue_wait(qpart);
            self.ledger.io(gap - qpart);
        }
        Ok(())
    }

    /// Allocates `pages` contiguous pages on volume member `member` of
    /// `mount` and returns `(device, first sector)`. Member 0 is the
    /// primary and goes through the mount's ordinary allocator (honoring
    /// fragmentation); replica members use their own bump cursor —
    /// replicas are laid out contiguously, the simulation's stand-in for
    /// a freshly synced copy.
    pub(super) fn allocate_member(
        &mut self,
        mount: MountId,
        member: usize,
        pages: Pages,
    ) -> SimResult<(DeviceId, Sectors)> {
        if member == 0 {
            let first = self.allocate_sectors(mount, pages)?;
            return Ok((self.mounts[mount.0].dev, first));
        }
        let (dev, first) = {
            let v = self.mounts[mount.0].volume.as_ref().ok_or_else(|| {
                SimError::new(Errno::Einval, "replica allocation on non-volume mount")
            })?;
            let dev = *v.devices.get(member).ok_or_else(|| {
                SimError::new(Errno::Einval, format!("volume has no member {member}"))
            })?;
            (dev, v.replica_next[member - 1])
        };
        let end = self.allocation_end(dev, first, pages)?;
        if let Some(v) = self.mounts[mount.0].volume.as_mut() {
            v.replica_next[member - 1] = end;
        }
        Ok((dev, first))
    }

    /// Lays out `pages` pages on `mount` by its allocator, honoring
    /// fragmentation, without charging any time. On a striped volume the
    /// chunks round-robin across the members instead.
    pub(super) fn layout_pages(&mut self, mount: MountId, pages: Pages) -> SimResult<PageMap> {
        let striped = match self.mounts[mount.0].volume.as_ref() {
            Some(v) => match v.layout {
                VolumeLayout::Striped { stripe_pages } => {
                    Some((Pages::new(stripe_pages.max(1)), v.devices.len()))
                }
                _ => None,
            },
            None => None,
        };
        let mut map = PageMap::new();
        let mut left = pages;
        while left > Pages::ZERO {
            if let Some((stripe, n)) = striped {
                let take = stripe.min(left);
                let member = {
                    let v = self.mounts[mount.0]
                        .volume
                        .as_mut()
                        .ok_or_else(|| SimError::new(Errno::Einval, "volume vanished"))?;
                    let m = v.stripe_cursor % n;
                    v.stripe_cursor = (v.stripe_cursor + 1) % n;
                    m
                };
                let (dev, first) = self.allocate_member(mount, member, take)?;
                map.append_run(dev, first, take);
                left = left - take;
            } else {
                let take = match &self.mounts[mount.0].frag {
                    Some(f) => f.chunk_pages.min(left),
                    None => left,
                };
                let first = self.allocate_sectors(mount, take)?;
                let dev = self.mounts[mount.0].dev;
                map.append_run(dev, first, take);
                left = left - take;
            }
        }
        Ok(map)
    }

    /// Grows `replicas`, the replica maps of a file on `mount`, by `added`
    /// pages: one run on each member past the primary, in member order, on
    /// mirrored and coded volumes and none elsewhere. A map a member lacks
    /// starts empty, so laying out a new file is growth from zero pages.
    /// Coded replicas reserve the full page range too — a simulation
    /// simplification standing in for fragment placement, so every member
    /// can serve any page of the file.
    pub(super) fn grow_replicas(
        &mut self,
        mount: MountId,
        replicas: &mut Vec<PageMap>,
        added: Pages,
    ) -> SimResult<()> {
        let members = match &self.mounts[mount.0].volume {
            Some(v)
                if matches!(
                    v.layout,
                    VolumeLayout::Mirrored | VolumeLayout::Coded { .. }
                ) =>
            {
                v.devices.len()
            }
            _ => 0,
        };
        for member in 1..members {
            let (dev, first) = self.allocate_member(mount, member, added)?;
            if replicas.len() < member {
                replicas.push(PageMap::new());
            }
            replicas[member - 1].append_run(dev, first, added);
        }
        Ok(())
    }
}
