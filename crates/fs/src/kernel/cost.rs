//! The accounting spine: [`Ledger`] is the one place virtual time moves,
//! and every move is billed in the same body; [`Kernel::submit`] is the one
//! place a device command is priced, issued and classified, and
//! [`Kernel::post`] the one place its cost reaches the sinks (queue,
//! recorder, `Rusage`, tracer). DESIGN.md §"The accounting spine"
//! tabulates who receives what.

use sleds_devices::DeviceClass;
use sleds_sim_core::{Clock, Sectors, SimDuration, SimError, SimTime};
use sleds_trace::{CostOutcome, DeviceCost, Mark, Wait};

use super::{DeviceId, Kernel};
use crate::rusage::Rusage;

/// The kernel's clock and the bill for it. Every number the paper reports
/// is `elapsed = CPU + I/O wait` read off `rusage`, so the two must move
/// together: the clock and both time columns are private to this module —
/// `kernel.rs`, the parent, cannot name them — and the only methods that
/// move time, [`Ledger::cpu`] and [`Ledger::io`], advance the clock and
/// bill the same duration to one column in one body. Nobody else can
/// advance without billing, or bill without advancing, so on every
/// tenant's timeline `elapsed == cpu + io_wait` exactly.
///
/// ```
/// use sleds_fs::Kernel;
/// use sleds_sim_core::SimDuration;
///
/// let mut k = Kernel::table2();
/// let d = SimDuration::from_micros(7);
/// k.charge_cpu(d);
/// assert_eq!(k.now().as_nanos(), d.as_nanos());
/// assert_eq!(k.usage().cpu, d);
/// ```
///
/// Time that passes unbilled — advance the clock, bill no column — has no
/// spelling, from outside the crate or from `kernel.rs`:
///
/// ```compile_fail
/// use sleds_fs::Kernel;
/// use sleds_sim_core::SimDuration;
///
/// let mut k = Kernel::table2();
/// k.ledger.clock.advance(SimDuration::from_micros(7));
/// ```
#[derive(Default)]
pub(super) struct Ledger {
    clock: Clock,
    cpu: SimDuration,
    io_wait: SimDuration,
    /// The event counters, and the columns that break `io_wait` down
    /// (`queue_wait`, `retry_backoff`, `hedge_wait`). Its own `cpu` and
    /// `io_wait` are never read: [`Ledger::usage`] reports the private
    /// columns above.
    pub(super) counts: Rusage,
}

impl Ledger {
    /// The running timeline's current instant.
    pub(super) fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Cumulative usage: the billed time plus the counters.
    pub(super) fn usage(&self) -> Rusage {
        Rusage {
            cpu: self.cpu,
            io_wait: self.io_wait,
            ..self.counts
        }
    }

    /// Zeroes the bill and the counters, not the clock (`reset_counters`,
    /// between a warm-up and a measured run): from here on the identity
    /// holds for what is billed after the reset.
    pub(super) fn reset_usage(&mut self) {
        self.cpu = SimDuration::ZERO;
        self.io_wait = SimDuration::ZERO;
        self.counts = Rusage::default();
    }

    /// `d` of computation: the clock moves and `cpu` is billed.
    pub(super) fn cpu(&mut self, d: SimDuration) {
        self.clock.advance(d);
        self.cpu += d;
    }

    /// `d` of waiting on a device: the clock moves and `io_wait` is billed.
    pub(super) fn io(&mut self, d: SimDuration) {
        self.clock.advance(d);
        self.io_wait += d;
    }

    /// Queue wait is I/O wait the caller pays before the device moves;
    /// also mirrored into its own column so tenants can see how much of
    /// their I/O time was spent behind other tenants.
    pub(super) fn queue_wait(&mut self, d: SimDuration) {
        self.io(d);
        self.counts.queue_wait = self.counts.queue_wait.saturating_add(d);
    }

    /// Parks the running timeline and resumes the one parked at `at`,
    /// returning where the parked one stands. The only clock move that
    /// bills nothing: no time passes on either timeline.
    pub(super) fn switch_timeline(&mut self, at: SimTime) -> SimTime {
        std::mem::replace(&mut self.clock, Clock::resume_at(at)).now()
    }
}

/// What became of one submission to a device.
pub(super) enum Attempt {
    /// Served; the posted event carries its wait, service and completion.
    Served(DeviceCost),
    /// Failed by an injected fault after holding the device: already
    /// posted and charged to the caller, who decides whether to go on.
    Faulted(SimError),
    /// Refused before the device moved (bounds, read-only media, or an
    /// injected fault that burned nothing): nothing posted or charged.
    Refused(SimError),
}

impl Kernel {
    /// A zero-cost event for a read of `dev` submitted now by the active
    /// tenant; callers fill in what the device then did.
    pub(super) fn cost_at_submit(
        &self,
        dev: DeviceId,
        sector: Sectors,
        sectors: Sectors,
    ) -> DeviceCost {
        DeviceCost {
            tenant: self.active_tenant as u64,
            dev: dev.0,
            class: self.devices[dev.0].class().code(),
            submit: self.now(),
            sector: sector.get(),
            sectors: sectors.get(),
            ..DeviceCost::default()
        }
    }

    /// Submits one command to `dev` and posts what it cost. `attempt`
    /// numbers the submission within its logical command. The queue is
    /// FIFO (see `queue.rs`): the device sees the (monotone) service start
    /// when it falls idle, never the wait before it.
    pub(super) fn submit(
        &mut self,
        dev: DeviceId,
        sector: Sectors,
        sectors: Sectors,
        write: bool,
        attempt: u32,
        wait: Wait,
    ) -> Attempt {
        let mut ev = self.cost_at_submit(dev, sector, sectors);
        ev.write = write;
        ev.queue_wait = self.queues[dev.0].queue_wait(ev.submit);
        ev.wait = wait;
        let start = ev.submit + ev.queue_wait;
        let device = &mut self.devices[dev.0];
        let r = if write {
            device.write(sector.get(), sectors.get(), start)
        } else {
            device.read(sector.get(), sectors.get(), start)
        };
        match r {
            Ok(service) => {
                ev.service = service;
                ev.bytes = sectors.bytes();
                self.post(&ev);
                Attempt::Served(ev)
            }
            Err(err) => match err.fault_cost() {
                Some(cost) if !cost.is_zero() => {
                    ev.service = cost;
                    ev.outcome = CostOutcome::Faulted { attempt };
                    self.post(&ev);
                    Attempt::Faulted(err)
                }
                _ => Attempt::Refused(err),
            },
        }
    }

    /// Posts one device occupancy to every sink, in the order the charges
    /// land on the virtual clock. [`CostOutcome`] documents what each
    /// outcome feeds; this is the only code that does the feeding.
    pub(super) fn post(&mut self, ev: &DeviceCost) {
        let cancelled = matches!(ev.outcome, CostOutcome::Cancelled { .. });
        if cancelled {
            self.queues[ev.dev].note_cancel(ev);
        } else {
            self.queues[ev.dev].note_command(ev);
        }
        if let Some(rec) = self.recorder.as_mut() {
            if cancelled {
                rec.note_hedge();
            }
            rec.note_device(ev);
        }
        let overlapped = ev.outcome == CostOutcome::Served && ev.wait == Wait::Overlapped;
        if !overlapped {
            self.ledger.queue_wait(ev.queue_wait);
            self.ledger.io(ev.service);
        }
        let (now, cost_ns) = (self.now(), ev.service.as_nanos());
        match ev.outcome {
            CostOutcome::Faulted { attempt } => {
                let mark = Mark::FaultInject {
                    class: ev.class,
                    attempt: u64::from(attempt),
                    cost_ns,
                };
                self.tracer.mark(now, mark);
            }
            CostOutcome::Cancelled { winner_class } => {
                let counts = &mut self.ledger.counts;
                counts.hedges += 1;
                counts.hedge_wait = counts.hedge_wait.saturating_add(ev.service);
                let mark = Mark::IoHedge {
                    winner: winner_class,
                    loser: ev.class,
                    cancel_ns: cost_ns,
                };
                self.tracer.mark(now, mark);
            }
            CostOutcome::Served if ev.write => self.ledger.counts.device_writes += 1,
            CostOutcome::Served => self.ledger.counts.device_reads += 1,
        }
        if ev.outcome != CostOutcome::Served || !self.tracer.is_enabled() {
            return;
        }
        // The served command's span: queue wait, then the device's own phase
        // breakdown (seek/rotation/transfer, locate/stream, rpc/link, ...).
        let d = &self.devices[ev.dev];
        let mut phases: Vec<(&'static str, SimDuration)> = Vec::new();
        let mut transfer_ns = 0u64;
        for p in d.last_phases() {
            phases.push((p.kind.label(), p.dur));
            if p.kind.is_transfer() {
                transfer_ns += p.dur.as_nanos();
            }
        }
        let name = device_event_name(d.class(), ev.write);
        self.tracer.device(ev, name, transfer_ns, &phases);
    }
}

fn device_event_name(class: DeviceClass, write: bool) -> &'static str {
    match (class, write) {
        (DeviceClass::Memory, false) => "memory.read",
        (DeviceClass::Memory, true) => "memory.write",
        (DeviceClass::Disk, false) => "disk.read",
        (DeviceClass::Disk, true) => "disk.write",
        (DeviceClass::CdRom, false) => "cdrom.read",
        (DeviceClass::CdRom, true) => "cdrom.write",
        (DeviceClass::Network, false) => "nfs.read",
        (DeviceClass::Network, true) => "nfs.write",
        (DeviceClass::Tape, false) => "tape.read",
        (DeviceClass::Tape, true) => "tape.write",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_move_of_the_clock_is_billed_to_exactly_one_column() {
        let mut l = Ledger::default();
        let (a, b, c) = (
            SimDuration::from_micros(5),
            SimDuration::from_millis(3),
            SimDuration::from_nanos(70),
        );
        l.cpu(a);
        l.io(b);
        l.queue_wait(c);
        let u = l.usage();
        assert_eq!((u.cpu, u.io_wait, u.queue_wait), (a, b + c, c));
        assert_eq!(l.now(), SimTime::ZERO + a + b + c);
        // Counters ride along; the time columns cannot be reached through them.
        l.counts.syscalls += 2;
        l.counts.cpu = SimDuration::from_secs(9);
        assert_eq!(l.usage().syscalls, 2);
        assert_eq!(l.usage().cpu, a);
    }

    #[test]
    fn switching_timelines_bills_nothing_and_resetting_usage_keeps_the_clock() {
        let mut l = Ledger::default();
        l.cpu(SimDuration::from_micros(40));
        let other = SimTime::from_nanos(7);
        let parked = l.switch_timeline(other);
        assert_eq!(parked.as_nanos(), 40_000);
        assert_eq!(
            l.now(),
            other,
            "a timeline may resume behind the parked one"
        );
        assert_eq!(l.usage().cpu, SimDuration::from_micros(40));
        l.io(SimDuration::from_nanos(3));
        l.reset_usage();
        assert_eq!(l.usage(), Rusage::default());
        assert_eq!(l.now().as_nanos(), 10);
    }
}
