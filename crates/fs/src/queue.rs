//! Per-device bounded command queues: queue-wait pricing, saturation
//! telemetry, and the saturation report folded from it.
//!
//! The kernel owns one [`CmdQueue`] per attached device. Service is FIFO
//! in submission order: the queue remembers when the device is busy until,
//! and a command submitted at `now` waits `busy_until - now` before its
//! service starts. In a single-tenant run the caller's clock has always
//! advanced past the previous command's completion, so the wait is zero
//! and this layer is invisible — queue wait only appears when several
//! tenants' timelines interleave on one device.
//!
//! Besides pricing the wait, the queue is the saturation observatory's
//! sensor: it keeps a bounded drop-oldest history of occupancy segments
//! (who held the device when) used to attribute each wait to the tenants
//! it was spent behind, and one [`CostRow`] per tenant — the queue's
//! totals are their sum, never a second counter. All counters are
//! integers and all containers are bounded (by [`CmdQueue::new`]'s
//! capacity) or keyed by registered tenants, so snapshots replay
//! bit-identically.

use std::collections::{BTreeMap, VecDeque};

use sleds_sim_core::stats::LogHistogram;
use sleds_sim_core::time::NANOS_PER_SEC;
use sleds_sim_core::{index, SimDuration, SimTime};
use sleds_trace::{CostRow, DeviceCost};

/// Occupancy segments retained per device queue (drop-oldest beyond this).
pub const CMD_QUEUE_CAPACITY: usize = 64;

/// A device is *saturated* when it was busy for at least this share
/// (parts per million) of its active window and someone actually waited.
pub const SATURATION_UTIL_PPM: u64 = 800_000;

/// A tenant is a *bully* when its demand share of a saturated device is
/// at least this (parts per million).
pub const BULLY_SHARE_PPM: u64 = 250_000;

/// One past service interval on the device, tagged with its owner.
#[derive(Clone, Copy, Debug)]
struct Segment {
    owner: u64,
    start: SimTime,
    end: SimTime,
}

/// The bounded FIFO command queue and telemetry for one device.
#[derive(Debug)]
pub struct CmdQueue {
    /// Bound on retained segments.
    capacity: usize,
    /// The device services commands in submission order; it is busy until
    /// this instant.
    busy_until: SimTime,
    /// Recent occupancy segments, oldest first, bounded drop-oldest.
    segments: VecDeque<Segment>,
    /// First submission seen (the active window opens here).
    first_submit: Option<SimTime>,
    /// Deepest line any command joined.
    depth_high_water: u64,
    /// Hedged commands revoked on this queue before (full) service.
    cancels: u64,
    /// Per-tenant cumulative cost; [`CmdQueue::total`] is their sum.
    per_tenant: BTreeMap<u64, CostRow>,
    /// Cross-tenant wait attribution: `(waiter, owner) -> ns` the waiter
    /// spent queued behind the owner's occupancy. Sums exactly to the
    /// total queue wait.
    waits: BTreeMap<(u64, u64), u64>,
    /// Per-command service time (fixed 64 log buckets: bounded).
    service_hist: LogHistogram,
    /// Per-command queue wait (fixed 64 log buckets: bounded).
    queue_wait_hist: LogHistogram,
}

impl CmdQueue {
    /// A queue retaining at most `capacity` (at least 1) segments.
    pub fn new(capacity: usize) -> CmdQueue {
        CmdQueue {
            capacity: capacity.max(1),
            busy_until: SimTime::ZERO,
            segments: VecDeque::new(),
            first_submit: None,
            depth_high_water: 0,
            cancels: 0,
            per_tenant: BTreeMap::new(),
            waits: BTreeMap::new(),
            service_hist: LogHistogram::new(),
            queue_wait_hist: LogHistogram::new(),
        }
    }

    /// How long a command submitted at `now` waits before service starts.
    /// Pure query: zero whenever the device is already idle.
    pub fn queue_wait(&self, now: SimTime) -> SimDuration {
        self.busy_until.duration_since(now)
    }

    /// Records one occupancy: submitted at `ev.submit`, waited
    /// `ev.queue_wait`, held the device for `ev.service`, moved `ev.bytes`.
    /// Updates occupancy, depth and the tenant's row, and attributes the
    /// wait to the tenants whose retained occupancy segments it overlapped
    /// (any portion older than the retained history goes to the oldest
    /// retained owner, so the attribution still sums exactly to the total
    /// wait).
    pub fn note_command(&mut self, ev: &DeviceCost) {
        let (tenant, now, qwait, service) = (ev.tenant, ev.submit, ev.queue_wait, ev.service);
        if self.first_submit.is_none() {
            self.first_submit = Some(now);
        }
        // Depth at submission: how many retained occupancies were still
        // scheduled to finish after we arrived.
        let depth = self.segments.iter().filter(|s| s.end > now).count() as u64;
        self.depth_high_water = self.depth_high_water.max(depth);

        // Attribute the wait interval [now, busy_until) across the
        // retained segments it was spent behind.
        if !qwait.is_zero() {
            let mut covered = 0u64;
            for seg in &self.segments {
                let lo = if seg.start > now { seg.start } else { now };
                let hi = if seg.end < self.busy_until {
                    seg.end
                } else {
                    self.busy_until
                };
                let part = hi.duration_since(lo).as_nanos();
                if part > 0 {
                    *self.waits.entry((tenant, seg.owner)).or_insert(0) += part;
                    covered = covered.saturating_add(part);
                }
            }
            let leftover = qwait.as_nanos().saturating_sub(covered);
            if leftover > 0 {
                // History older than the retained window: charge the
                // oldest retained owner (or ourselves if nothing is left).
                let owner = self.segments.front().map_or(tenant, |s| s.owner);
                *self.waits.entry((tenant, owner)).or_insert(0) += leftover;
            }
        }

        // The new occupancy: service starts when the wait ends.
        let start = now + qwait;
        let end = start + service;
        self.busy_until = end;
        if self.segments.len() == self.capacity {
            self.segments.pop_front();
        }
        self.segments.push_back(Segment {
            owner: tenant,
            start,
            end,
        });

        self.service_hist.record(service.as_nanos());
        self.queue_wait_hist.record(qwait.as_nanos());
        self.per_tenant.entry(tenant).or_default().add(ev);
    }

    /// Records a hedged command revoked before full service: it holds the
    /// queue *tail* for exactly `ev.service` (the issue-and-revoke
    /// overhead) and moves no bytes. Modeled as an ordinary zero-wait
    /// occupancy segment at the tail instant, so `busy_until` stays
    /// monotone and the per-segment wait attribution holds by construction.
    pub fn note_cancel(&mut self, ev: &DeviceCost) {
        self.cancels += 1;
        self.note_command(&DeviceCost {
            submit: self.busy_until.max(ev.submit),
            ..*ev
        });
    }

    /// Hedged commands revoked on this queue.
    pub fn cancels(&self) -> u64 {
        self.cancels
    }

    /// Everything the device did: the sum of the per-tenant rows.
    pub fn total(&self) -> CostRow {
        self.per_tenant.values().sum()
    }

    /// Deepest line any command joined.
    pub fn depth_high_water(&self) -> u64 {
        self.depth_high_water
    }

    /// The active window: first submission to last completion, nanoseconds.
    pub fn window_ns(&self) -> u64 {
        match self.first_submit {
            Some(t0) => self.busy_until.duration_since(t0).as_nanos(),
            None => 0,
        }
    }

    /// Device utilization over its active window, parts per million.
    pub fn utilization_ppm(&self) -> u64 {
        CostRow::ppm(self.total().service_ns, self.window_ns())
    }

    /// Per-tenant cumulative cost rows, ascending by tenant.
    pub fn tenant_rows(&self) -> impl Iterator<Item = (u64, &CostRow)> + '_ {
        self.per_tenant.iter().map(|(&t, row)| (t, row))
    }

    /// Cross-tenant wait attribution rows `((waiter, owner), ns)`,
    /// ascending by key.
    pub fn wait_rows(&self) -> impl Iterator<Item = ((u64, u64), u64)> + '_ {
        self.waits.iter().map(|(&k, &v)| (k, v))
    }

    /// Per-command service-time histogram.
    pub fn service_hist(&self) -> &LogHistogram {
        &self.service_hist
    }

    /// Per-command queue-wait histogram.
    pub fn queue_wait_hist(&self) -> &LogHistogram {
        &self.queue_wait_hist
    }

    /// Clears the cumulative telemetry (used between a warm-up and a
    /// measured run). Occupancy state — `busy_until` and the retained
    /// segments — persists: like a disk arm position, the device's
    /// schedule is physical reality, not a counter.
    pub fn reset_telemetry(&mut self) {
        self.first_submit = None;
        self.depth_high_water = 0;
        self.cancels = 0;
        self.per_tenant.clear();
        self.waits.clear();
        self.service_hist = LogHistogram::new();
        self.queue_wait_hist = LogHistogram::new();
    }
}

// ---------------------------------------------------------------------
// Saturation report
// ---------------------------------------------------------------------

/// A four-point latency summary (count-weighted bucket means from a
/// [`LogHistogram`]): monotone `p50 <= p90 <= p99 <= p999` by
/// construction, integer nanoseconds, so reports replay bit-identically.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Median, nanoseconds.
    pub p50_ns: u64,
    /// 90th percentile, nanoseconds.
    pub p90_ns: u64,
    /// 99th percentile, nanoseconds.
    pub p99_ns: u64,
    /// 99.9th percentile, nanoseconds.
    pub p999_ns: u64,
}

impl LatencySummary {
    /// Summarizes a histogram at the report's four quantiles.
    pub fn of(h: &LogHistogram) -> LatencySummary {
        LatencySummary {
            p50_ns: h.p50(),
            p90_ns: h.p90(),
            p99_ns: h.p99(),
            p999_ns: h.p999(),
        }
    }
}

/// One tenant's share of one device, derived for the report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TenantShare {
    /// The tenant.
    pub tenant: u64,
    /// Its cumulative cost on this device.
    pub cost: CostRow,
    /// Its share of the device's busy time, parts per million.
    pub demand_share_ppm: u64,
    /// True when the device is saturated and this share crosses
    /// [`BULLY_SHARE_PPM`].
    pub bully: bool,
}

/// Saturation state of one device.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeviceSaturation {
    /// Device index (the kernel's `DeviceId`).
    pub device: usize,
    /// Device name.
    pub name: String,
    /// Device-class code (as in trace events).
    pub class_code: u64,
    /// Active window (first submission to last completion), nanoseconds.
    pub window_ns: u64,
    /// Everything the device did; `service_ns` is its busy time inside
    /// the window. The sum of the shares' rows.
    pub cost: CostRow,
    /// `busy / window`, parts per million.
    pub utilization_ppm: u64,
    /// Bytes over busy time, bytes per second.
    pub throughput_bytes_per_sec: u64,
    /// Deepest queue any command joined.
    pub depth_high_water: u64,
    /// Utilization at or above [`SATURATION_UTIL_PPM`] with nonzero wait.
    pub saturated: bool,
    /// Per-command service-time quantiles.
    pub service_latency: LatencySummary,
    /// Per-command queue-wait quantiles.
    pub queue_wait_latency: LatencySummary,
    /// Per-tenant shares, ascending by tenant id.
    pub shares: Vec<TenantShare>,
}

/// One tenant's latency attribution across every device.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TenantAttribution {
    /// The tenant.
    pub tenant: u64,
    /// Its registered name.
    pub name: String,
    /// Nanoseconds devices spent servicing its own commands.
    pub own_service_ns: u64,
    /// Nanoseconds its commands waited in queues.
    pub queue_wait_ns: u64,
    /// Observed device latency (wait + service) charged to its clock:
    /// [`CostRow::observed_ns`] of the row the other two come from.
    pub observed_ns: u64,
    /// Who the waiting was behind: `(owner tenant, ns)`, descending by
    /// ns then ascending by owner. Sums exactly to `queue_wait_ns`.
    pub waited_on: Vec<(u64, u64)>,
}

/// The `FSLEDS_SATSTAT` payload: who is saturating what, and who pays.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SaturationReport {
    /// Per-device saturation rows, ascending by device index.
    pub devices: Vec<DeviceSaturation>,
    /// Per-tenant attribution rows, ascending by tenant id.
    pub tenants: Vec<TenantAttribution>,
}

impl SaturationReport {
    /// Tenants flagged as bullies on any saturated device, ascending,
    /// deduplicated.
    pub fn bullies(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .devices
            .iter()
            .flat_map(|d| d.shares.iter().filter(|s| s.bully).map(|s| s.tenant))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Folds the per-device queues into the report, linear in their tenant and
/// wait rows: each tenant row is merged into its device share and its
/// attribution as it is read. `devices` yields every queue with its
/// device's name and class code in device order, `tenants` every
/// registered tenant's name in id order. Rows of an unregistered tenant id
/// count toward their device but get no attribution row.
pub(crate) fn saturation_report<'a>(
    devices: impl Iterator<Item = (&'a CmdQueue, &'a str, u64)>,
    tenants: impl Iterator<Item = &'a str>,
) -> SaturationReport {
    // Per tenant: its cost on every device, and whom it waited behind.
    let mut acc: Vec<(&str, CostRow, BTreeMap<u64, u64>)> = tenants
        .map(|name| (name, CostRow::default(), BTreeMap::new()))
        .collect();
    let mut report = SaturationReport::default();
    for (device, (q, name, class_code)) in devices.enumerate() {
        let cost = q.total();
        if cost.commands == 0 {
            continue;
        }
        let utilization_ppm = q.utilization_ppm();
        let saturated = utilization_ppm >= SATURATION_UTIL_PPM && cost.queue_wait_ns > 0;
        let mut shares = Vec::with_capacity(q.per_tenant.len());
        for (&tenant, row) in &q.per_tenant {
            if let Some((_, sum, _)) = acc.get_mut(index(tenant)) {
                sum.merge(row);
            }
            let demand_share_ppm = CostRow::ppm(row.service_ns, cost.service_ns);
            shares.push(TenantShare {
                tenant,
                cost: *row,
                demand_share_ppm,
                bully: saturated && demand_share_ppm >= BULLY_SHARE_PPM,
            });
        }
        for (&(waiter, owner), &ns) in &q.waits {
            if let Some((_, _, waited)) = acc.get_mut(index(waiter)) {
                *waited.entry(owner).or_insert(0) += ns;
            }
        }
        let throughput_bytes_per_sec = match cost.service_ns {
            0 => 0,
            busy => {
                u64::try_from(u128::from(cost.bytes) * u128::from(NANOS_PER_SEC) / u128::from(busy))
                    .unwrap_or(u64::MAX)
            }
        };
        report.devices.push(DeviceSaturation {
            device,
            name: name.to_string(),
            class_code,
            window_ns: q.window_ns(),
            cost,
            utilization_ppm,
            throughput_bytes_per_sec,
            depth_high_water: q.depth_high_water,
            saturated,
            service_latency: LatencySummary::of(&q.service_hist),
            queue_wait_latency: LatencySummary::of(&q.queue_wait_hist),
            shares,
        });
    }
    report.tenants = acc
        .into_iter()
        .enumerate()
        .map(|(id, (name, cost, waited))| {
            // Who the waiting was behind, worst offender first.
            let mut waited_on: Vec<(u64, u64)> = waited.into_iter().collect();
            waited_on.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            TenantAttribution {
                tenant: id as u64,
                name: name.to_string(),
                own_service_ns: cost.service_ns,
                queue_wait_ns: cost.queue_wait_ns,
                observed_ns: cost.observed_ns(),
                waited_on,
            }
        })
        .collect();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(n: u64) -> SimDuration {
        SimDuration::from_nanos(n)
    }

    fn at(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    /// `tenant`'s command submitted at `submit`: waits `queue_wait`, holds
    /// the device for `service`, moves `bytes`.
    fn cmd(
        tenant: u64,
        submit: SimTime,
        queue_wait: SimDuration,
        service: SimDuration,
        bytes: u64,
    ) -> DeviceCost {
        DeviceCost {
            tenant,
            submit,
            queue_wait,
            service,
            bytes,
            ..DeviceCost::default()
        }
    }

    #[test]
    fn idle_device_has_no_wait() {
        let mut q = CmdQueue::new(8);
        assert!(q.queue_wait(at(0)).is_zero());
        q.note_command(&cmd(0, at(0), ns(0), ns(100), 512));
        // The caller's clock has advanced past completion, as in any
        // single-tenant run: still no wait.
        assert!(q.queue_wait(at(100)).is_zero());
        assert_eq!(
            q.total(),
            CostRow {
                commands: 1,
                bytes: 512,
                queue_wait_ns: 0,
                service_ns: 100,
            }
        );
    }

    #[test]
    fn wait_is_attributed_to_the_occupying_tenant() {
        let mut q = CmdQueue::new(8);
        // Tenant 1 holds the device for [0, 100).
        q.note_command(&cmd(1, at(0), ns(0), ns(100), 512));
        // Tenant 2 arrives at 40, waits 60 behind tenant 1.
        let w = q.queue_wait(at(40));
        assert_eq!(w.as_nanos(), 60);
        q.note_command(&cmd(2, at(40), w, ns(50), 512));
        assert_eq!(q.busy_until, at(150));
        assert_eq!(q.total().queue_wait_ns, 60);
        let waits: Vec<_> = q.wait_rows().collect();
        assert_eq!(waits, vec![((2, 1), 60)]);
        let rows: Vec<_> = q.tenant_rows().map(|(t, r)| (t, *r)).collect();
        assert_eq!(rows[1].0, 2);
        assert_eq!(rows[1].1.queue_wait_ns, 60);
        assert_eq!(rows[1].1.service_ns, 50);
        assert_eq!(rows[1].1.observed_ns(), 110);
    }

    #[test]
    fn wait_spanning_two_owners_splits_exactly() {
        let mut q = CmdQueue::new(8);
        q.note_command(&cmd(1, at(0), ns(0), ns(100), 0)); // [0,100) owner 1
        let w2 = q.queue_wait(at(100));
        assert!(w2.is_zero());
        q.note_command(&cmd(2, at(100), w2, ns(50), 0)); // [100,150) owner 2

        // Tenant 3 arrives at 30: waits 120 = 70 behind 1 + 50 behind 2.
        let w3 = q.queue_wait(at(30));
        assert_eq!(w3.as_nanos(), 120);
        q.note_command(&cmd(3, at(30), w3, ns(10), 0));
        let waits: Vec<_> = q.wait_rows().collect();
        assert_eq!(waits, vec![((3, 1), 70), ((3, 2), 50)]);
        // Attribution sums exactly to the total wait.
        let total: u64 = q.wait_rows().map(|(_, v)| v).sum();
        assert_eq!(total, q.total().queue_wait_ns);
    }

    #[test]
    fn dropped_history_still_sums_exactly() {
        let mut q = CmdQueue::new(1); // retain only the newest segment
        q.note_command(&cmd(1, at(0), ns(0), ns(100), 0));
        q.note_command(&cmd(2, at(100), ns(0), ns(100), 0)); // drops owner 1's segment
        let w = q.queue_wait(at(10));
        assert_eq!(w.as_nanos(), 190);
        q.note_command(&cmd(3, at(10), w, ns(5), 0));
        // [100,200) is retained (owner 2); the [10,100) remainder is
        // charged to the oldest retained owner — still tenant 2 here.
        let total: u64 = q.wait_rows().map(|(_, v)| v).sum();
        assert_eq!(total, q.total().queue_wait_ns);
        assert_eq!(total, 190);
    }

    #[test]
    fn depth_and_segments_are_bounded() {
        let mut q = CmdQueue::new(4);
        let mut now = at(0);
        for i in 0..10u64 {
            let w = q.queue_wait(now);
            q.note_command(&cmd(i % 3, now, w, ns(100), 64));
            now += ns(10); // arrivals outpace service: depth grows
        }
        assert_eq!(q.segments.len(), 4);
        assert!(q.depth_high_water() >= 1);
        assert_eq!(q.total().commands, 10);
    }

    #[test]
    fn utilization_and_throughput_are_integer_exact() {
        let mut q = CmdQueue::new(8);
        q.note_command(&cmd(0, at(0), ns(0), ns(400), 4_000));
        // Window [0,1000): second command at 600 (idle 200 in between).
        q.note_command(&cmd(0, at(600), ns(0), ns(400), 4_000));
        assert_eq!(q.window_ns(), 1_000);
        assert_eq!(q.total().service_ns, 800);
        assert_eq!(q.utilization_ppm(), 800_000);
        let report = saturation_report([(&q, "hda", 1)].into_iter(), std::iter::empty());
        let d = &report.devices[0];
        assert_eq!(d.throughput_bytes_per_sec, 8_000 * NANOS_PER_SEC / 800);
        assert!(report.tenants.is_empty());
    }

    #[test]
    fn report_sums_tenants_across_queues_and_flags_bullies() {
        let (mut disk, mut tape) = (CmdQueue::new(8), CmdQueue::new(8));
        // The disk, busy throughout [0, 300): tenant 1 holds 200 ns of it,
        // tenant 2 waits 200 ns behind it and holds 100.
        disk.note_command(&cmd(1, at(0), ns(0), ns(200), 4_096));
        disk.note_command(&cmd(2, at(0), disk.queue_wait(at(0)), ns(100), 512));
        // The tape: tenant 2 again, and tenant 7, whom nobody registered.
        tape.note_command(&cmd(2, at(0), ns(0), ns(1_000), 0));
        tape.note_command(&cmd(7, at(5_000), ns(0), ns(1_000), 0));
        let report = saturation_report(
            [(&disk, "hda", 1), (&tape, "st0", 4)].into_iter(),
            ["main", "bulk", "web"].into_iter(),
        );

        let hda = &report.devices[0];
        assert!(hda.saturated && !report.devices[1].saturated);
        assert_eq!(hda.utilization_ppm, 1_000_000);
        let shares: Vec<_> = hda
            .shares
            .iter()
            .map(|s| (s.tenant, s.demand_share_ppm, s.bully))
            .collect();
        assert_eq!(shares, [(1, 666_666, true), (2, 333_333, true)]);
        assert_eq!(report.bullies(), [1, 2]);
        assert_eq!(report.devices[1].cost.commands, 2, "tenant 7 still counts");

        let web = &report.tenants[2];
        assert_eq!(report.tenants.len(), 3);
        assert_eq!(
            (web.own_service_ns, web.queue_wait_ns, web.observed_ns),
            (1_100, 200, 1_300)
        );
        assert_eq!(web.waited_on, [(1, 200)]);
        assert_eq!(report.tenants[0].observed_ns, 0);
    }

    #[test]
    fn reset_keeps_occupancy_but_clears_telemetry() {
        let mut q = CmdQueue::new(8);
        q.note_command(&cmd(0, at(0), ns(0), ns(100), 512));
        q.reset_telemetry();
        assert_eq!(q.total(), CostRow::default());
        assert_eq!(q.busy_until, at(100), "schedule is physical reality");
        assert!(q.queue_wait(at(50)).as_nanos() == 50);
    }
}
