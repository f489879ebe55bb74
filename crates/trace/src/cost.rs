//! The accounting event: one device occupancy, stated once.
//!
//! Every sink that bills, attributes or draws device time — the command
//! queue, the flight recorder, `Rusage`, the tracer and its [`Metrics`] —
//! folds the same [`DeviceCost`] value, posted exactly once by the kernel
//! (`Kernel::post`). Nothing is retained: each sink folds the event online,
//! so the identities between the sinks hold because they were all told the
//! same numbers, not because five call sites were kept in step.
//!
//! [`Metrics`]: crate::Metrics

use sleds_sim_core::{SimDuration, SimTime};

/// How a device occupancy ended, which decides what each sink receives.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CostOutcome {
    /// The command completed and moved `bytes`. Feeds every sink: queue
    /// and recorder rows, the caller's `Rusage` (unless the wait is
    /// [`Wait::Overlapped`]), the device span with its phases, the
    /// `Metrics` class row, and the `device_reads`/`device_writes` count.
    #[default]
    Served,
    /// An injected fault failed submission number `attempt` after the
    /// device burned `service`; no bytes moved. It held the bus, so it
    /// feeds the queue, the recorder and — always serially — the caller's
    /// `Rusage`, and leaves a [`Mark::FaultInject`](crate::Mark::FaultInject)
    /// mark, which `Metrics::faults_injected` counts; it draws no device
    /// span, no `Metrics` class row, and is not a
    /// `device_reads`/`device_writes`.
    Faulted {
        /// 1-based submission number of the logical command that failed.
        attempt: u32,
    },
    /// A hedge loser, issued and revoked: it holds its queue's *tail* (not
    /// the submit instant) for `service` — the cancel cost — at zero wait
    /// and moves nothing. The caller pays `service` as `hedge_wait` and
    /// counts it in `Rusage::hedges` (the only hedge counter), the
    /// recorder counts one hedge plus the occupancy row, and the trace
    /// gets a [`Mark::IoHedge`](crate::Mark::IoHedge) naming the winner's
    /// class.
    Cancelled {
        /// Device-class code of the request that won the race.
        winner_class: u64,
    },
}

/// Whether the caller's clock waits for the occupancy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Wait {
    /// The caller blocks: queue wait and service are charged as they occur.
    #[default]
    Serial,
    /// One fragment of a fan-out running beside its siblings: a served
    /// fragment feeds the device-side sinks only, and the caller is charged
    /// once, to the straggler's completion, by whoever fanned out.
    Overlapped,
}

/// One device occupancy: everything any sink needs to know about it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeviceCost {
    /// Tenant the occupancy is billed to.
    pub tenant: u64,
    /// Index of the device (the kernel's `DeviceId`).
    pub dev: usize,
    /// Device-class code (decoded by [`class_label`](crate::class_label)).
    pub class: u64,
    /// True for a write command.
    pub write: bool,
    /// Submission instant on the issuing tenant's timeline.
    pub submit: SimTime,
    /// Time queued behind earlier commands before service began.
    pub queue_wait: SimDuration,
    /// Time the device was held: service time, fault cost or cancel cost.
    pub service: SimDuration,
    /// First sector addressed.
    pub sector: u64,
    /// Sectors addressed.
    pub sectors: u64,
    /// Payload bytes actually moved (zero unless [`CostOutcome::Served`]).
    pub bytes: u64,
    /// How the occupancy ended.
    pub outcome: CostOutcome,
    /// Whether the caller's clock waits for it.
    pub wait: Wait,
}

impl DeviceCost {
    /// The instant the occupancy ends on the submitter's timeline:
    /// `submit + queue_wait + service`.
    pub fn complete(&self) -> SimTime {
        self.submit + self.queue_wait + self.service
    }
}

/// The one fold every report makes of [`DeviceCost`] events — per tenant
/// and device (the command queue), per tenant and class (`Metrics`), per
/// class and op (the flight recorder). A total is the [`merge`] of its
/// rows, and observed latency is [`observed_ns`], derived and never
/// stored, so "rows sum to the total" and "service + queue wait ==
/// observed" hold by construction. Sums saturate.
///
/// [`merge`]: CostRow::merge
/// [`observed_ns`]: CostRow::observed_ns
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CostRow {
    /// Occupancies folded: served, faulted or cancelled.
    pub commands: u64,
    /// Payload bytes they moved.
    pub bytes: u64,
    /// Nanoseconds they queued before service.
    pub queue_wait_ns: u64,
    /// Nanoseconds they held the device: service, fault or cancel cost.
    pub service_ns: u64,
}

impl CostRow {
    /// Folds one occupancy in.
    pub fn add(&mut self, ev: &DeviceCost) {
        self.merge(&CostRow {
            commands: 1,
            bytes: ev.bytes,
            queue_wait_ns: ev.queue_wait.as_nanos(),
            service_ns: ev.service.as_nanos(),
        });
    }

    /// Folds another row in.
    pub fn merge(&mut self, other: &CostRow) {
        self.commands = self.commands.saturating_add(other.commands);
        self.bytes = self.bytes.saturating_add(other.bytes);
        self.queue_wait_ns = self.queue_wait_ns.saturating_add(other.queue_wait_ns);
        self.service_ns = self.service_ns.saturating_add(other.service_ns);
    }

    /// Device latency as the callers saw it: queue wait + service.
    pub fn observed_ns(&self) -> u64 {
        self.queue_wait_ns.saturating_add(self.service_ns)
    }

    /// `part / whole` in parts per million, integer-exact; zero when
    /// `whole` is.
    pub fn ppm(part: u64, whole: u64) -> u64 {
        if whole == 0 {
            return 0;
        }
        u64::try_from(u128::from(part) * 1_000_000 / u128::from(whole)).unwrap_or(u64::MAX)
    }
}

impl<'a> std::iter::Sum<&'a CostRow> for CostRow {
    fn sum<I: Iterator<Item = &'a CostRow>>(rows: I) -> CostRow {
        rows.fold(CostRow::default(), |mut total, row| {
            total.merge(row);
            total
        })
    }
}
