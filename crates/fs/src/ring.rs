//! The batched submission ring: many syscalls, one boundary crossing.
//!
//! An io_uring-style pair of bounded queues. The application fills the
//! submission queue with ring-able [`Syscall`]s, calls `Kernel::ring_enter` — which
//! charges **one** boundary crossing (`syscall_cpu`) plus a small
//! per-operation dispatch cost (`ring_op_cpu`) — and then drains the
//! completion queue with `Kernel::ring_reap` for free (the queues live in
//! user-mapped memory; reaping crosses nothing).
//!
//! Every serviced operation still counts as one logical syscall in rusage
//! (`syscalls`), and performs *exactly* the same faulting, memcpy and
//! device accounting as its sequential twin — the equivalence suite pins
//! batched and sequential runs byte-identical in output and identical in
//! rusage except for `syscall_crossings` and the crossing CPU they carry.
//!
//! Both queues are bounded by the same `capacity` ([`SubmissionRing::new`]
//! is the only constructor, so no ring exists without one): submission past a
//! full SQ fails with `EAGAIN`, and `ring_enter` stops servicing when the
//! CQ is full, leaving the remaining submissions queued for the next
//! enter — exactly how a fixed-size shared-memory ring degrades.

use std::collections::VecDeque;

use sleds_sim_core::{Errno, SimError, SimResult, TenantId};

use crate::sled::SledsTable;
use crate::syscall::{Ring, Syscall, SyscallRet};

/// Default ring size used by the apps' batched modes.
pub const DEFAULT_RING_ENTRIES: usize = 64;

/// A ring submission is a [`Syscall`]; the old name survives for callers
/// outside the workspace.
pub type RingOp = Syscall;

/// A ring completion's value is a [`SyscallRet`]; see [`RingOp`].
pub type RingPayload = SyscallRet;

/// A ring op is priced from the [`SledsTable`] it carries; the old name
/// survives only for `benchmark/`, which spells it and is not edited here.
pub type ProgPricing = SledsTable;

/// One completion queue entry.
#[derive(Clone, Debug, PartialEq)]
pub struct RingCompletion {
    /// The tag the submitter attached to the op.
    pub user_data: u64,
    /// The op's outcome — the same `SimResult` its sequential twin
    /// returns, error text included.
    pub result: SimResult<SyscallRet>,
}

/// The bounded submission/completion queue pair.
#[derive(Debug)]
pub struct SubmissionRing {
    /// Bound on each queue's length.
    capacity: usize,
    /// Tenant every op in this ring is charged to; `ring_enter` runs the
    /// batch on that tenant's timeline.
    tenant: TenantId,
    sq: VecDeque<(u64, Syscall)>,
    cq: VecDeque<RingCompletion>,
}

impl SubmissionRing {
    /// A ring with room for `entries` (at least 1) in each queue, owned by
    /// the main tenant.
    pub fn new(entries: usize) -> SubmissionRing {
        SubmissionRing::with_tenant(entries, TenantId(0))
    }

    /// A ring owned by `tenant`: every serviced op is charged to that
    /// tenant's clock and rusage, whoever calls `ring_enter`.
    pub fn with_tenant(entries: usize, tenant: TenantId) -> SubmissionRing {
        SubmissionRing {
            capacity: entries.max(1),
            tenant,
            sq: VecDeque::new(),
            cq: VecDeque::new(),
        }
    }

    /// The tenant this ring's ops are charged to.
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// The per-queue bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Queued, not-yet-serviced submissions.
    pub fn sq_len(&self) -> usize {
        self.sq.len()
    }

    /// Enqueues an op tagged `user_data`. Fails with `EINVAL` for a call
    /// that has no ring form, and with `EAGAIN` when the submission queue
    /// is at capacity.
    pub fn push(&mut self, user_data: u64, op: Syscall) -> SimResult<()> {
        if op.entry().ring == Ring::No {
            return Err(SimError::new(
                Errno::Einval,
                format!("ring: {} cannot be submitted through a ring", op.name()),
            ));
        }
        if self.sq.len() >= self.capacity {
            return Err(SimError::new(
                Errno::Eagain,
                format!("ring: submission queue full ({} entries)", self.capacity),
            ));
        }
        self.sq.push_back((user_data, op));
        Ok(())
    }

    /// Room left in the completion queue.
    pub(crate) fn cq_has_room(&self) -> bool {
        self.cq.len() < self.capacity
    }

    /// Next submission to service (kernel side).
    pub(crate) fn pop_op(&mut self) -> Option<(u64, Syscall)> {
        self.sq.pop_front()
    }

    /// Posts a completion (kernel side).
    pub(crate) fn complete(&mut self, c: RingCompletion) {
        self.cq.push_back(c);
    }

    /// Drains the completion queue (user side, via `Kernel::ring_reap`).
    pub(crate) fn drain_completions(&mut self) -> Vec<RingCompletion> {
        self.cq.drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syscall::Fd;

    #[test]
    fn push_respects_capacity() {
        let mut r = SubmissionRing::new(2);
        assert_eq!(r.capacity(), 2);
        r.push(0, Syscall::Close { fd: Fd(3) }).unwrap();
        r.push(1, Syscall::Close { fd: Fd(4) }).unwrap();
        let err = r.push(2, Syscall::Close { fd: Fd(5) }).unwrap_err();
        assert_eq!(err.errno, Errno::Eagain);
        assert_eq!(r.sq_len(), 2);
    }

    #[test]
    fn push_rejects_calls_with_no_ring_form() {
        let mut r = SubmissionRing::new(2);
        let err = r.push(0, Syscall::Fsync { fd: Fd(3) }).unwrap_err();
        assert_eq!(err.errno, Errno::Einval);
        assert_eq!(r.sq_len(), 0);
    }

    #[test]
    fn zero_entry_ring_still_holds_one() {
        let r = SubmissionRing::new(0);
        assert_eq!(r.capacity(), 1);
    }

    #[test]
    fn completions_drain_in_order() {
        let mut r = SubmissionRing::new(4);
        r.complete(RingCompletion {
            user_data: 7,
            result: Ok(SyscallRet::Unit),
        });
        r.complete(RingCompletion {
            user_data: 8,
            result: Ok(SyscallRet::Unit),
        });
        let out = r.drain_completions();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].user_data, 7);
        assert_eq!(out[1].user_data, 8);
        assert!(r.drain_completions().is_empty());
    }
}
