//! Tenant identity and a deterministic virtual-clock submitter.
//!
//! A *tenant* is one virtual client of the simulated machine: its requests
//! carry its [`TenantId`] through the kernel so queue wait, rusage, and
//! trace events can be attributed to whoever caused them. The
//! [`VirtualSubmitter`] interleaves N tenants' request streams on the
//! virtual clock: each tenant has a lane with a "next request ready at"
//! instant, and the submitter always picks the lane with the earliest
//! ready time (ties broken by lane index, so the interleave is a pure
//! function of the ready times and replays bit-identically).
//!
//! The submitter deliberately knows nothing about what a request *is* —
//! the driver runs the request against the kernel under the chosen
//! tenant, then reschedules the lane at `completion + think` or retires
//! it. Service discipline at the devices is FIFO in submission order;
//! a scheduler proper can replace the pick rule later without touching
//! the attribution machinery.

use crate::time::SimTime;

/// Identity of one tenant (virtual client) of the simulated machine.
///
/// Tenant 0 always exists and is the "main" tenant single-tenant
/// workloads run as; additional tenants are registered explicitly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u64);

/// `pos` entry of a retired lane: past the end of any heap.
const RETIRED: usize = usize::MAX;

/// Deterministic interleaver of N tenants' request streams.
///
/// Lanes are identified by the index [`VirtualSubmitter::add`] returned;
/// the mapping from lane to [`TenantId`] is the driver's. The submitter
/// holds exactly one entry per lane (no growth per request), so its
/// memory is bounded by the tenant count.
///
/// The live lanes sit in a binary min-heap of `(ready, lane)` with a
/// position per lane, so the pick is a peek and a reschedule moves one
/// lane O(log lanes) places. The order is total (lane indices are
/// distinct), so the heap's shape never decides a pick.
#[derive(Clone, Debug, Default)]
pub struct VirtualSubmitter {
    /// Each lane's position in `heap`, [`RETIRED`] when not live.
    pos: Vec<usize>,
    /// The live lanes as `(ready, lane)`, smallest first.
    heap: Vec<(SimTime, usize)>,
}

impl VirtualSubmitter {
    /// An empty submitter.
    pub fn new() -> VirtualSubmitter {
        VirtualSubmitter::default()
    }

    /// Adds a lane whose first request is ready at `ready`; returns the
    /// lane index.
    pub fn add(&mut self, ready: SimTime) -> usize {
        let lane = self.pos.len();
        self.pos.push(RETIRED);
        self.enqueue(lane, ready);
        lane
    }

    /// Total lanes ever added.
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    /// True when no lanes have been added.
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }

    /// Lanes still live (not retired).
    pub fn live(&self) -> usize {
        self.heap.len()
    }

    /// The lane to run next: the live lane with the earliest ready time,
    /// lowest index on ties. `None` when every lane has been retired.
    pub fn next(&self) -> Option<usize> {
        self.heap.first().map(|&(_, lane)| lane)
    }

    /// When `lane`'s next request is ready; `None` for retired or unknown
    /// lanes.
    pub fn ready_at(&self, lane: usize) -> Option<SimTime> {
        let (ready, _) = self.heap.get(*self.pos.get(lane)?)?;
        Some(*ready)
    }

    /// Reschedules `lane`'s next request at `ready`, reviving the lane if
    /// it had been retired. Unknown lanes are ignored.
    pub fn reschedule(&mut self, lane: usize, ready: SimTime) {
        match self.pos.get(lane) {
            None => {}
            Some(&RETIRED) => self.enqueue(lane, ready),
            Some(&at) => {
                self.heap[at].0 = ready;
                self.settle(at);
            }
        }
    }

    /// Retires `lane`: its stream is exhausted.
    pub fn finish(&mut self, lane: usize) {
        let Some(&at) = self.pos.get(lane).filter(|&&at| at != RETIRED) else {
            return;
        };
        self.pos[lane] = RETIRED;
        self.heap.swap_remove(at);
        if let Some(&(_, moved)) = self.heap.get(at) {
            self.pos[moved] = at;
            self.settle(at);
        }
    }

    fn enqueue(&mut self, lane: usize, ready: SimTime) {
        self.pos[lane] = self.heap.len();
        self.heap.push((ready, lane));
        self.settle(self.heap.len() - 1);
    }

    /// Restores heap order around position `at`, whose key alone changed:
    /// lifts the entry out, slides the entries in its way into the gap, and
    /// puts it down where the gap ends up.
    fn settle(&mut self, mut at: usize) {
        let entry = self.heap[at];
        while at > 0 && entry < self.heap[(at - 1) / 2] {
            self.place(at, self.heap[(at - 1) / 2]);
            at = (at - 1) / 2;
        }
        loop {
            let mut least = (at, entry);
            for child in [2 * at + 1, 2 * at + 2] {
                if self.heap.get(child).is_some_and(|&c| c < least.1) {
                    least = (child, self.heap[child]);
                }
            }
            if least.0 == at {
                break;
            }
            self.place(at, least.1);
            at = least.0;
        }
        self.place(at, entry);
    }

    fn place(&mut self, at: usize, entry: (SimTime, usize)) {
        self.heap[at] = entry;
        self.pos[entry.1] = at;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_earliest_ready_lane_with_index_ties() {
        let mut s = VirtualSubmitter::new();
        let a = s.add(SimTime::from_nanos(100));
        let b = s.add(SimTime::from_nanos(50));
        let c = s.add(SimTime::from_nanos(50));
        assert_eq!(s.next(), Some(b), "earliest ready wins");
        s.reschedule(b, SimTime::from_nanos(200));
        assert_eq!(s.next(), Some(c), "ties break by lowest index");
        s.finish(c);
        assert_eq!(s.next(), Some(a));
        s.finish(a);
        s.finish(b);
        assert_eq!(s.next(), None);
        assert_eq!(s.live(), 0);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn interleave_is_a_pure_function_of_ready_times() {
        let drive = || {
            let mut s = VirtualSubmitter::new();
            for i in 0..8u64 {
                s.add(SimTime::from_nanos(i * 7 % 5));
            }
            let mut order = Vec::new();
            let mut served = [0u32; 8];
            while let Some(lane) = s.next() {
                order.push(lane);
                served[lane] += 1;
                if served[lane] == 3 {
                    s.finish(lane);
                } else {
                    let t = s.ready_at(lane).unwrap();
                    s.reschedule(lane, t + crate::SimDuration::from_nanos(lane as u64 + 1));
                }
            }
            order
        };
        assert_eq!(drive(), drive());
        assert_eq!(drive().len(), 24);
    }

    #[test]
    fn retired_lanes_report_no_ready_time() {
        let mut s = VirtualSubmitter::new();
        let a = s.add(SimTime::ZERO);
        assert_eq!(s.ready_at(a), Some(SimTime::ZERO));
        s.finish(a);
        assert_eq!(s.ready_at(a), None);
        assert_eq!(s.ready_at(99), None);
    }

    /// The submitter as it was before the heap: every pick scans every
    /// lane. Kept as the oracle for the pick sequence.
    #[derive(Default)]
    struct ScanSubmitter {
        lanes: Vec<(SimTime, bool)>,
    }

    impl ScanSubmitter {
        fn next(&self) -> Option<usize> {
            let mut best: Option<(SimTime, usize)> = None;
            for (i, &(ready, live)) in self.lanes.iter().enumerate() {
                if !live {
                    continue;
                }
                match best {
                    Some((t, _)) if t <= ready => {}
                    _ => best = Some((ready, i)),
                }
            }
            best.map(|(_, i)| i)
        }

        fn ready_at(&self, lane: usize) -> Option<SimTime> {
            self.lanes.get(lane).filter(|l| l.1).map(|l| l.0)
        }

        fn reschedule(&mut self, lane: usize, ready: SimTime) {
            if let Some(l) = self.lanes.get_mut(lane) {
                *l = (ready, true);
            }
        }

        fn finish(&mut self, lane: usize) {
            if let Some(l) = self.lanes.get_mut(lane) {
                l.1 = false;
            }
        }
    }

    /// Seeded schedules — ties, lanes added late, retired lanes revived by
    /// `reschedule`, lanes that do not exist, 1 to 300 lanes — pick the
    /// same lane as the scan at every step.
    #[test]
    fn heap_picks_what_the_linear_scan_picked() {
        for seed in 0..40u64 {
            let mut rng = crate::DetRng::new(0x5EED).derive(seed);
            let lanes = [1, 2, 3, 224, 300][seed as usize % 5].min(1 + seed as usize * 9);
            // A small range of instants makes ties the common case.
            let spread = [1, 4, 1000][seed as usize % 3];
            let mut heap = VirtualSubmitter::new();
            let mut scan = ScanSubmitter::default();
            for step in 0..4000 {
                let at = SimTime::from_nanos(rng.range_u64(0, spread));
                let lane = rng.range_usize(0, lanes + 2);
                match rng.range_u64(0, 10) {
                    0 if heap.len() < lanes => {
                        scan.lanes.push((at, true));
                        assert_eq!(heap.add(at), scan.lanes.len() - 1);
                    }
                    1 => {
                        heap.finish(lane);
                        scan.finish(lane);
                    }
                    2 => {
                        heap.reschedule(lane, at);
                        scan.reschedule(lane, at);
                    }
                    _ => {
                        // The driver's loop: run the pick, move it on.
                        if let Some(pick) = scan.next() {
                            let later =
                                scan.lanes[pick].0 + crate::SimDuration::from_nanos(at.as_nanos());
                            heap.reschedule(pick, later);
                            scan.reschedule(pick, later);
                        }
                    }
                }
                assert_eq!(heap.next(), scan.next(), "seed {seed} step {step}");
                assert_eq!(heap.ready_at(lane), scan.ready_at(lane));
                assert_eq!(heap.live(), scan.lanes.iter().filter(|l| l.1).count());
                assert_eq!(heap.len(), scan.lanes.len());
            }
        }
    }
}
