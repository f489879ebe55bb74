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
    /// `Rusage`, and leaves a `fault.inject` mark; it draws no device span,
    /// no `Metrics` class row, and is not a `device_reads`/`device_writes`.
    Faulted {
        /// 1-based submission number of the logical command that failed.
        attempt: u32,
    },
    /// A hedge loser, issued and revoked: it holds its queue's *tail* (not
    /// the submit instant) for `service` — the cancel cost — at zero wait
    /// and moves nothing. The caller pays `service` as `hedge_wait`, the
    /// recorder counts one hedge plus the occupancy row, and the trace
    /// gets an `io.hedge` mark naming the winner's class.
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
