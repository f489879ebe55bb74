//! The accounting spine: [`Kernel::submit`] is the one place a device
//! command is priced, issued and classified, and [`Kernel::post`] the one
//! place its cost reaches the sinks (queue, recorder, `Rusage`, tracer).
//! DESIGN.md §"The accounting spine" tabulates who receives what.

use sleds_devices::PhaseKind;
use sleds_sim_core::{SimDuration, SimError, SECTOR_SIZE};
use sleds_trace::{CostOutcome, DeviceCost, Wait};

use super::{device_event_name, DeviceId, Kernel};

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
    pub(super) fn cost_at_submit(&self, dev: DeviceId, sector: u64, sectors: u64) -> DeviceCost {
        DeviceCost {
            tenant: self.active_tenant as u64,
            dev: dev.0,
            class: self.devices[dev.0].class().code(),
            submit: self.clock.now(),
            sector,
            sectors,
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
        sector: u64,
        sectors: u64,
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
            device.write(sector, sectors, start)
        } else {
            device.read(sector, sectors, start)
        };
        match r {
            Ok(service) => {
                ev.service = service;
                ev.bytes = sectors * SECTOR_SIZE;
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
            self.charge_queue_wait(ev.queue_wait);
            self.charge_io(ev.service);
        }
        let (now, cost_ns) = (self.clock.now(), ev.service.as_nanos());
        match ev.outcome {
            CostOutcome::Faulted { attempt } => {
                let nth = u64::from(attempt);
                self.tracer.fault_inject(now, ev.class, nth, cost_ns);
            }
            CostOutcome::Cancelled { winner_class } => {
                self.usage.hedges += 1;
                self.usage.hedge_wait = self.usage.hedge_wait.saturating_add(ev.service);
                self.tracer.io_hedge(now, winner_class, ev.class, cost_ns);
            }
            CostOutcome::Served if ev.write => self.usage.device_writes += 1,
            CostOutcome::Served => self.usage.device_reads += 1,
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
            // Time the device spent actually moving data, as opposed to
            // positioning for it — the first-byte/bandwidth split the
            // recalibrator rebuilds SLED rows from.
            if matches!(
                p.kind,
                PhaseKind::Transfer | PhaseKind::Stream | PhaseKind::Link
            ) {
                transfer_ns += p.dur.as_nanos();
            }
        }
        let name = device_event_name(d.class(), ev.write);
        self.tracer.device(ev, name, transfer_ns, &phases);
    }
}
