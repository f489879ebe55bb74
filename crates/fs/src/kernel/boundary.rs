//! The syscall boundary: the one door every kernel entry passes through,
//! and [`Kernel::syscall`], which runs an owned [`Syscall`] through it.

use sleds_sim_core::{index, Errno, SimDuration, SimError, SimResult, SimTime};
use sleds_trace::{span, Layer, Mark, SpanHost, Tracer};

use super::Kernel;
use crate::machine::RING_OP_CPU;
use crate::ring::{RingCompletion, SubmissionRing};
use crate::syscall::{self as sys, Charge, Entry, Record, Ring, Syscall, SyscallRet};

/// What [`span`] needs of the kernel: its tracer and its clock.
impl SpanHost for Kernel {
    fn tracer(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    fn now(&self) -> SimTime {
        self.ledger.now()
    }
}

impl Kernel {
    /// The one kernel boundary. Every entry — typed method, ring
    /// submission, ioctl, [`Kernel::syscall`] — runs its `body` through
    /// here, and what surrounds a call happens here and nowhere else:
    ///
    /// * the trace span `e.span` with `args`;
    /// * the flight recorder: `call` builds the owned [`Syscall`] only when
    ///   a capture is armed, `outcome` reads the recorded scalar and
    ///   payload off the result, and an uncapturable entry poisons the
    ///   capture under its own name;
    /// * the crossing charge `e.charge` — or, while `ring_enter` is
    ///   dispatching a submission (`ring_slot`), [`RING_OP_CPU`], no span,
    ///   and the call filed under the enclosing batch instead of as an op
    ///   of its own.
    pub(super) fn enter<T>(
        &mut self,
        e: &Entry,
        args: [u64; 3],
        call: Option<impl FnOnce() -> Syscall>,
        outcome: for<'a> fn(&'a T) -> (u64, Option<&'a [u8]>),
        body: impl FnOnce(&mut Kernel) -> SimResult<T>,
    ) -> SimResult<T> {
        let slot = self.ring_slot;
        if slot.is_none() && e.ring == Ring::Only {
            return Err(SimError::new(
                Errno::Einval,
                format!("{}: only valid as a ring submission", e.name),
            ));
        }
        let run = |k: &mut Kernel| {
            // Recorder first: the submit stamp precedes the charge. Only a
            // trapped, captured call has an op of its own to finish.
            let recording = match (e.record, call) {
                (Record::Capture, Some(call)) if k.recorder.is_some() => {
                    let tenant = k.active_tenant as u64;
                    let submit_ns = k.now().as_nanos();
                    let epoch = k.fault_epoch_total();
                    if let Some(rec) = k.recorder.as_mut() {
                        match slot {
                            Some(user_data) => rec.ring_op(user_data, call()),
                            None => rec.begin(call(), tenant, submit_ns, epoch),
                        }
                    }
                    slot.is_none()
                }
                (Record::Poison, _) => {
                    k.rec_unsupported(e.name);
                    false
                }
                _ => false,
            };
            let cpu = match (slot, e.charge) {
                (Some(_), _) => {
                    k.ledger.counts.syscalls += 1;
                    k.ring_ops += 1;
                    RING_OP_CPU
                }
                (None, Charge::Trap) => {
                    k.ledger.counts.syscalls += 1;
                    k.ledger.counts.syscall_crossings += 1;
                    k.cfg.syscall_cpu
                }
                (None, Charge::Crossing) => {
                    k.ledger.counts.syscall_crossings += 1;
                    k.cfg.syscall_cpu
                }
                (None, Charge::Free) => SimDuration::ZERO,
            };
            k.charge_cpu(cpu);
            let r = body(k);
            if recording {
                let now = k.now().as_nanos();
                if let Some(rec) = k.recorder.as_mut() {
                    match &r {
                        Ok(v) => {
                            let (ret, data) = outcome(v);
                            rec.finish_ok(ret, data, now);
                        }
                        Err(err) => rec.finish_err(err.errno, now),
                    }
                }
            }
            r
        };
        match e.span {
            Some(name) if slot.is_none() => span(self, Layer::Syscall, name, args, run),
            _ => run(self),
        }
    }

    /// A [`Syscall`]-vocabulary entry: captured as `call()` with the
    /// result's [`SyscallRet::scalar`] and [`SyscallRet::payload`].
    pub(super) fn sys(
        &mut self,
        e: &Entry,
        args: [u64; 3],
        call: impl FnOnce() -> Syscall,
        body: impl FnOnce(&mut Kernel) -> SimResult<SyscallRet>,
    ) -> SimResult<SyscallRet> {
        self.enter(e, args, Some(call), |r| (r.scalar(), r.payload()), body)
    }

    /// An entry outside the vocabulary (the SLEDs ioctls and residency
    /// queries): spanned and charged at the same door, never captured.
    pub(super) fn ioctl<T>(
        &mut self,
        e: &Entry,
        args: [u64; 3],
        body: impl FnOnce(&mut Kernel) -> SimResult<T>,
    ) -> SimResult<T> {
        self.enter(e, args, None::<fn() -> Syscall>, |_| (0, None), body)
    }

    /// Runs an owned [`Syscall`] — the door ring batches, replay and
    /// generated call sequences come through. Identical in every effect
    /// (result, clock, rusage, trace, capture) to the typed method of the
    /// same name, which is what each arm calls.
    pub fn syscall(&mut self, call: &Syscall) -> SimResult<SyscallRet> {
        match call {
            Syscall::Open { path, flags } => self.open(path, *flags).map(SyscallRet::Fd),
            Syscall::Close { fd } => self.close(*fd).map(|()| SyscallRet::Unit),
            Syscall::Lseek { fd, offset, whence } => {
                self.lseek(*fd, *offset, *whence).map(SyscallRet::Count)
            }
            Syscall::Read { fd, len } => self.read(*fd, *len).map(SyscallRet::Bytes),
            Syscall::Pread { fd, pos, len } => self.pread(*fd, *pos, *len).map(SyscallRet::Bytes),
            Syscall::Write { fd, data } => self
                .write_as(*fd, data, Some(data))
                .map(|n| SyscallRet::Count(n as u64)),
            Syscall::Fsync { fd } => self.fsync(*fd).map(|()| SyscallRet::Unit),
            Syscall::Stat { path } => self.stat(path).map(SyscallRet::Stat),
            Syscall::Fstat { fd } => self.fstat(*fd).map(SyscallRet::Stat),
            Syscall::Mkdir { path } => self.mkdir(path).map(|()| SyscallRet::Unit),
            Syscall::Readdir { path } => self.readdir(path).map(SyscallRet::Names),
            Syscall::Unlink { path } => self.unlink(path).map(|()| SyscallRet::Unit),
            Syscall::FsledsGet { fd, pricing } => {
                let make = || call.clone();
                self.sys(call.entry(), [0; 3], make, |k| {
                    let of = k.openfile(*fd)?;
                    k.sleds_of(of.ino, pricing).map(SyscallRet::Sleds)
                })
            }
            Syscall::TenantRegister { name } => Ok(SyscallRet::Tenant(self.tenant_register(name))),
            Syscall::RingEnter { capacity, ops } => {
                let mut ring = SubmissionRing::with_tenant(*capacity, self.active_tenant());
                for (user_data, op) in ops {
                    ring.push(*user_data, op.clone())?;
                }
                self.ring_enter(&mut ring)?;
                Ok(SyscallRet::Completions(self.ring_reap(&mut ring)))
            }
        }
    }
}

impl Kernel {
    /// Ring batches serviced so far (one boundary crossing each).
    pub fn ring_enters(&self) -> u64 {
        self.ring_enters
    }

    /// Ring operations serviced so far, across all batches.
    pub fn ring_ops_serviced(&self) -> u64 {
        self.ring_ops
    }

    /// `ring_enter`: services the ring's queued submissions in **one**
    /// boundary crossing. Charges `syscall_cpu` once for the crossing and
    /// [`RING_OP_CPU`] per serviced op; each op then performs exactly the
    /// same work (and faulting/memcpy/device accounting) as its sequential
    /// twin. Stops early when the completion queue fills — the leftovers
    /// stay queued for the next enter. Returns the number serviced.
    pub fn ring_enter(&mut self, ring: &mut SubmissionRing) -> SimResult<usize> {
        // The ring's ops run on (and are charged to) the ring owner's
        // timeline, whoever drives the enter — asynchronous submission:
        // the driver's own clock does not advance for the batch.
        let prev = self.active_tenant();
        self.tenant_switch(ring.tenant())?;
        let submitted = ring.sq_len() as u64;
        let capacity = ring.capacity();
        let make = || Syscall::RingEnter {
            capacity,
            ops: Vec::new(),
        };
        let r = self.sys(&sys::RING_ENTER, [submitted, 0, 0], make, |k| {
            k.ring_enters += 1;
            let mut serviced = 0u64;
            while ring.cq_has_room() {
                let Some((user_data, op)) = ring.pop_op() else {
                    break;
                };
                k.ring_slot = Some(user_data);
                let result = k.syscall(&op);
                k.ring_slot = None;
                ring.complete(RingCompletion { user_data, result });
                serviced += 1;
            }
            k.mark(Mark::RingSubmit {
                submitted,
                serviced,
            });
            Ok(SyscallRet::Count(serviced))
        });
        self.tenant_switch(prev)?;
        r?.count().map(index)
    }

    /// Reaps every pending completion. The queues live in user-mapped
    /// memory, so reaping crosses nothing and charges nothing.
    pub fn ring_reap(&mut self, ring: &mut SubmissionRing) -> Vec<RingCompletion> {
        let out = ring.drain_completions();
        let reaped = out.len() as u64;
        self.mark(Mark::RingReap { reaped });
        out
    }
}
