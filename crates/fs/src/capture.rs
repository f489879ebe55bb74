//! Lossless workload capture: the flight recorder.
//!
//! Unlike the trace ring — which is a bounded, drop-oldest *observation*
//! channel — the [`WorkloadRecorder`] hooks the syscall boundary and
//! records **every** kernel entry while armed: the [`Syscall`] (and the
//! path its fd meant), the tenant it ran as, the submit
//! [`SimTime`](sleds_sim_core::SimTime) on that tenant's timeline, the
//! device-fault epoch at submit, ring batches op by op, and the outcome
//! (result, completion time, and the exact queue-wait/service attribution
//! the per-device command queues priced into the op). The recording is either *complete* — every charging
//! kernel entry between arm and disarm was captured — or it is marked
//! incomplete with a reason, so a capture that overflowed its budget or
//! saw an uncapturable call can never be silently replayed.
//!
//! The recorder is deliberately dumb storage: the kernel feeds it via
//! narrow hooks ([`WorkloadRecorder::begin`], [`WorkloadRecorder::note_device`],
//! [`WorkloadRecorder::finish_ok`]/[`WorkloadRecorder::finish_err`]), and
//! the `sleds-replay` crate serializes the result to the schema-versioned
//! `CAPTURE_*.jsonl` format and replays it. Data payloads are captured as
//! length + [`fold_bytes`], not bytes: the recorder is lossless about the
//! *workload* (every op, every cost), not a content backup.

use std::collections::BTreeMap;
use std::sync::Arc;

use sleds_sim_core::{index, Errno, PAGE_SIZE};
use sleds_trace::{CostRow, DeviceCost};

use crate::syscall::Syscall;

/// Schema tag the on-disk capture format carries; bump on any shape change.
/// v2: volume mounts in setup, the hedge policy in the header, and the
/// per-op hedged-read count in outcomes. v3: `data_fold` is the four-lane
/// word fold below, no longer FNV-1a. v4: `write` and `install_file`
/// payloads are padded standard base64, no longer hex.
pub const CAPTURE_SCHEMA: &str = "sleds-capture-v4";

const FOLD_SEEDS: [u64; 4] = [
    0x243f_6a88_85a3_08d3,
    0x1319_8a2e_0370_7344,
    0xa409_3822_299f_31d0,
    0x082e_fa98_ec4e_6c89,
];
const FOLD_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// One lane step; a bijection of `lane` for a fixed `word` and of `word`
/// for a fixed `lane`, so a change confined to one word always shows.
#[inline(always)]
fn fold_word(lane: u64, word: u64) -> u64 {
    (lane ^ word).wrapping_mul(FOLD_MUL).rotate_left(29)
}

/// The little-endian `u64` in the first eight bytes of `w`.
#[inline(always)]
fn word(w: &[u8]) -> u64 {
    u64::from_le_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]])
}

/// The deterministic fold captures use to pin data payloads without
/// storing them, fed piece by piece: little-endian `u64` word `i` of the
/// whole payload goes into lane `i % 4`, the lanes are combined, the up to
/// seven tail bytes and then the length are mixed in (DESIGN §5j gives the
/// ten-line reference this must equal). How the payload is cut into pieces
/// does not show in the result. Four lanes, because one multiply chain is
/// latency-bound at a word per five cycles and the recorder folds every
/// byte a captured read returns.
#[derive(Clone, Debug)]
pub struct PayloadFold {
    lanes: [u64; 4],
    /// Bytes fed so far.
    len: u64,
    /// The `len % 32` bytes fed since the last whole 32-byte block.
    carry: [u8; 32],
}

impl Default for PayloadFold {
    fn default() -> Self {
        PayloadFold {
            lanes: FOLD_SEEDS,
            len: 0,
            carry: [0; 32],
        }
    }
}

impl PayloadFold {
    /// The fold of no bytes yet.
    pub fn new() -> PayloadFold {
        PayloadFold::default()
    }

    /// Feeds the next `piece` of the payload; any length, empty included.
    pub fn feed(&mut self, mut piece: &[u8]) {
        let carried = (self.len % 32) as usize;
        self.len += piece.len() as u64;
        if carried > 0 {
            let fill = piece.len().min(32 - carried);
            self.carry[carried..carried + fill].copy_from_slice(&piece[..fill]);
            piece = &piece[fill..];
            if carried + fill < 32 {
                return;
            }
            let block = self.carry;
            self.blocks(std::iter::once(&block[..]));
        }
        let blocks = piece.chunks_exact(32);
        let rest = blocks.remainder();
        self.blocks(blocks);
        self.carry[..rest.len()].copy_from_slice(rest);
    }

    /// Folds whole 32-byte blocks, a word to each lane: the only place
    /// payload words meet the lanes before [`PayloadFold::finish`].
    #[inline(always)]
    fn blocks<'a>(&mut self, blocks: impl Iterator<Item = &'a [u8]>) {
        let [mut a, mut b, mut c, mut d] = self.lanes;
        for block in blocks {
            a = fold_word(a, word(&block[0..8]));
            b = fold_word(b, word(&block[8..16]));
            c = fold_word(c, word(&block[16..24]));
            d = fold_word(d, word(&block[24..32]));
        }
        self.lanes = [a, b, c, d];
    }

    /// The fold of everything fed.
    pub fn finish(self) -> u64 {
        let mut lanes = self.lanes;
        let mut words = self.carry[..(self.len % 32) as usize].chunks_exact(8);
        for (lane, w) in lanes.iter_mut().zip(words.by_ref()) {
            *lane = fold_word(*lane, word(w));
        }
        let [a, b, c, d] = lanes;
        let mut h = a ^ b.rotate_left(17) ^ c.rotate_left(34) ^ d.rotate_left(51);
        for &byte in words.remainder() {
            h = (h ^ u64::from(byte)).wrapping_mul(FOLD_MUL);
        }
        h ^= self.len;
        h ^= h >> 32;
        h = h.wrapping_mul(FOLD_MUL);
        h ^ (h >> 29)
    }
}

/// [`PayloadFold`] over a payload that is already in one piece.
pub fn fold_bytes(data: &[u8]) -> u64 {
    let mut fold = PayloadFold::new();
    fold.feed(data);
    fold.finish()
}

/// How a captured op ended: result, completion time, and the exact
/// per-phase device attribution accumulated while it was in flight.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OpOutcome {
    /// Whether the call returned `Ok`.
    pub ok: bool,
    /// The errno when it did not.
    pub errno: Option<Errno>,
    /// Primary scalar result (fd for `open`, new offset for `lseek`,
    /// bytes for `read`/`write`, serviced count for `ring_enter`, ...).
    pub ret: u64,
    /// Returned payload length (reads).
    pub data_len: u64,
    /// [`fold_bytes`] of the returned payload (reads) — pins data equality
    /// across replays without storing the bytes.
    pub data_fold: u64,
    /// Completion time on the issuing tenant's timeline, nanoseconds.
    pub complete_ns: u64,
    /// The device commands issued while this op was in flight, one row
    /// per device class (code as in the trace layer), strictly ascending
    /// by class. [`OpOutcome::device`] is their sum.
    pub classes: Vec<(u64, CostRow)>,
    /// Hedged (redundant) reads issued while this op was in flight. Each
    /// one's cancelled loser is already in a `classes` row, so the totals
    /// stay exact; this count pins that replay hedged identically.
    pub hedges: u64,
}

impl OpOutcome {
    /// Everything the op cost on devices: the sum of its class rows.
    pub fn device(&self) -> CostRow {
        self.classes.iter().map(|(_, row)| row).sum()
    }
}

/// One fully captured kernel entry.
#[derive(Clone, Debug, PartialEq)]
pub struct CapturedOp {
    /// Position in the global capture order (0-based).
    pub seq: u64,
    /// Tenant the op ran as.
    pub tenant: u64,
    /// Submit time on that tenant's timeline, nanoseconds.
    pub submit_ns: u64,
    /// Sum of every device's fault epoch at submit — which fault windows
    /// the op ran under.
    pub fault_epoch: u64,
    /// The path the op's fd resolved to at submit, when it had one —
    /// the fd→path half of the record, for readability and audits. Shared
    /// with every other op on the same open.
    pub path: Option<Arc<str>>,
    /// The call itself. A `RingEnter` holds the submissions that enter
    /// serviced (only `Open`, `Close`, `Pread` and `Stat` can appear).
    pub call: Syscall,
    /// How it ended.
    pub outcome: OpOutcome,
}

/// A finished recording: every op between arm and disarm, plus the
/// explicit completeness verdict a replayer must honor.
#[derive(Clone, Debug, PartialEq)]
pub struct Capture {
    /// True iff every charging kernel entry was captured and the budget
    /// was never exceeded. Incomplete captures must never be replayed.
    pub complete: bool,
    /// Why the capture is incomplete, when it is.
    pub incomplete_reason: Option<String>,
    /// The op budget the recorder was armed with.
    pub budget: usize,
    /// Virtual time when the recorder was armed (the active tenant's
    /// clock). The replayer measures the first pre-registration think
    /// gap from here — setup work before the capture is not think time.
    pub base_ns: u64,
    /// The ops, in global capture order.
    pub ops: Vec<CapturedOp>,
}

/// In-flight accumulator for the op currently inside the kernel.
#[derive(Debug)]
struct InFlight {
    tenant: u64,
    submit_ns: u64,
    fault_epoch: u64,
    path: Option<Arc<str>>,
    call: Syscall,
    /// Class-sorted; becomes [`OpOutcome::classes`] as it stands.
    classes: Vec<(u64, CostRow)>,
    hedges: u64,
    /// Length and fold of the payload the read path built for this op, when
    /// it folded while it copied ([`WorkloadRecorder::note_payload`]). It
    /// lives here so that it ends with the call it was computed for.
    payload: Option<(u64, u64)>,
}

/// The flight recorder the kernel arms via `Kernel::start_capture`.
///
/// Bounded: holds at most `budget` ops; hitting the budget marks
/// the capture incomplete and stops retaining further ops, it never
/// drops silently.
#[derive(Debug)]
pub struct WorkloadRecorder {
    budget: usize,
    base_ns: u64,
    complete: bool,
    incomplete_reason: Option<String>,
    ops: Vec<CapturedOp>,
    /// Live fd→path table so each op can record what its fd meant. The
    /// path is copied once, at `open`; ops on the fd share it.
    fd_paths: BTreeMap<u64, Arc<str>>,
    inflight: Option<InFlight>,
    /// `zero_pages[k]`: the four lanes after `k` whole zero pages from the
    /// seeds, grown on demand by [`WorkloadRecorder::fold_zeros`]. At 32
    /// bytes a page it stays under 1/128 of the longest hole read so far.
    zero_pages: Vec<[u64; 4]>,
}

impl WorkloadRecorder {
    /// A recorder that retains at most `budget` ops (at least 1), armed
    /// at virtual time `base_ns`.
    pub fn new(budget: usize, base_ns: u64) -> WorkloadRecorder {
        WorkloadRecorder {
            budget: budget.max(1),
            base_ns,
            complete: true,
            incomplete_reason: None,
            ops: Vec::new(),
            fd_paths: BTreeMap::new(),
            inflight: None,
            zero_pages: vec![FOLD_SEEDS],
        }
    }

    /// Ops retained so far.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when nothing has been captured yet.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Marks the capture incomplete; the first reason wins.
    pub fn poison(&mut self, reason: String) {
        if self.complete {
            self.complete = false;
            self.incomplete_reason = Some(reason);
        }
    }

    /// Records a charging kernel entry the recorder cannot replay
    /// (ioctls, cache drops, setup mutations mid-capture).
    pub fn unsupported(&mut self, name: &str) {
        self.poison(format!("uncapturable call during capture: {name}"));
    }

    /// Arms the in-flight accumulator for one kernel entry. Called at
    /// the syscall boundary, before any charge.
    pub fn begin(&mut self, call: Syscall, tenant: u64, submit_ns: u64, fault_epoch: u64) {
        if self.inflight.is_some() {
            // Kernel entries never nest; seeing one means a hook bug.
            self.poison(format!("nested capture begin: {}", call.name()));
        }
        if self.ops.len() >= self.budget {
            self.poison(format!("capture budget overflowed ({} ops)", self.budget));
            self.inflight = None;
            return;
        }
        let path = call.fd().and_then(|fd| self.fd_paths.get(&fd.0).cloned());
        self.inflight = Some(InFlight {
            tenant,
            submit_ns,
            fault_epoch,
            path,
            call,
            classes: Vec::new(),
            hedges: 0,
            payload: None,
        });
    }

    /// True while the op in flight is a trapped `read`/`pread` — the one
    /// case where the read path should fold the payload it returns and
    /// hand the result to [`WorkloadRecorder::note_payload`]. A ring
    /// submission is in flight as its `RingEnter`, whose payloads are not
    /// folded.
    pub fn folds_payload(&self) -> bool {
        matches!(
            self.inflight.as_ref().map(|f| &f.call),
            Some(Syscall::Read { .. } | Syscall::Pread { .. })
        )
    }

    /// Takes the length and [`PayloadFold`] result of the payload the op in
    /// flight is about to return, so [`WorkloadRecorder::finish_ok`] need
    /// not read the bytes again. No-op when no op is in flight.
    pub fn note_payload(&mut self, len: u64, fold: u64) {
        if let Some(f) = self.inflight.as_mut() {
            f.payload = Some((len, fold));
        }
    }

    /// [`fold_bytes`] of `n` zero bytes — what a read wholly inside a hole
    /// returns — without the bytes. A page is a whole number of 32-byte
    /// blocks, so the lanes after `k` zero pages do not depend on what
    /// follows: they are looked up (each page is folded once per recorder)
    /// and only the `n % PAGE_SIZE` bytes past them are fed.
    pub(crate) fn fold_zeros(&mut self, n: u64) -> u64 {
        const ZERO_PAGE: [u8; index(PAGE_SIZE)] = [0; index(PAGE_SIZE)];
        let pages = index(n / PAGE_SIZE);
        for k in self.zero_pages.len()..=pages {
            let mut fold = PayloadFold {
                lanes: self.zero_pages[k - 1],
                ..PayloadFold::default()
            };
            fold.feed(&ZERO_PAGE);
            self.zero_pages.push(fold.lanes);
        }
        let mut fold = PayloadFold {
            lanes: self.zero_pages[pages],
            len: pages as u64 * PAGE_SIZE,
            ..PayloadFold::default()
        };
        fold.feed(&ZERO_PAGE[..index(n % PAGE_SIZE)]);
        fold.finish()
    }

    /// Accumulates one device occupancy's exact pricing into the in-flight
    /// op. No-op when no op is in flight (setup traffic).
    pub fn note_device(&mut self, ev: &DeviceCost) {
        if let Some(f) = self.inflight.as_mut() {
            // There are five device classes and most ops reach one: a
            // sorted vec, allocated for exactly that one row.
            let rows = &mut f.classes;
            let at = rows.partition_point(|&(class, _)| class < ev.class);
            if rows.get(at).is_none_or(|&(class, _)| class != ev.class) {
                if rows.is_empty() {
                    rows.reserve_exact(1);
                }
                rows.insert(at, (ev.class, CostRow::default()));
            }
            rows[at].1.add(ev);
        }
    }

    /// Counts one hedged (redundant) read issued by the in-flight op. The
    /// loser's cancel cost arrives separately via
    /// [`WorkloadRecorder::note_device`]. No-op outside an op (setup).
    pub fn note_hedge(&mut self) {
        if let Some(f) = self.inflight.as_mut() {
            f.hedges += 1;
        }
    }

    /// Appends one serviced submission to the in-flight `RingEnter`.
    pub fn ring_op(&mut self, user_data: u64, call: Syscall) {
        match self.inflight.as_mut() {
            Some(InFlight {
                call: Syscall::RingEnter { ops, .. },
                ..
            }) => ops.push((user_data, call)),
            _ => self.poison("ring op captured outside a ring_enter".to_string()),
        }
    }

    /// Completes the in-flight op successfully. `data` is the returned
    /// payload, folded rather than stored — by the read path when it noted
    /// a fold, here otherwise.
    pub fn finish_ok(&mut self, ret: u64, data: Option<&[u8]>, complete_ns: u64) {
        let noted = self.inflight.as_ref().and_then(|f| f.payload);
        let (data_len, data_fold) = match (data, noted) {
            (Some(d), Some((len, fold))) if len == d.len() as u64 => {
                debug_assert_eq!(fold, fold_bytes(d), "fold of a {len}-byte payload");
                (len, fold)
            }
            (Some(d), _) => (d.len() as u64, fold_bytes(d)),
            (None, _) => (0, 0),
        };
        self.finish(OpOutcome {
            ok: true,
            ret,
            data_len,
            data_fold,
            complete_ns,
            ..OpOutcome::default()
        });
    }

    /// Completes the in-flight op with an error.
    pub fn finish_err(&mut self, errno: Errno, complete_ns: u64) {
        self.finish(OpOutcome {
            errno: Some(errno),
            complete_ns,
            ..OpOutcome::default()
        });
    }

    fn finish(&mut self, mut outcome: OpOutcome) {
        let Some(f) = self.inflight.take() else {
            // begin() refused (budget) or was never called; nothing to do.
            return;
        };
        outcome.classes = f.classes;
        outcome.hedges = f.hedges;
        if outcome.ok {
            // Keep the fd→path table live so later ops resolve.
            match &f.call {
                Syscall::Open { path, .. } => {
                    self.fd_paths.insert(outcome.ret, Arc::from(path.as_str()));
                }
                Syscall::Close { fd } => {
                    self.fd_paths.remove(&fd.0);
                }
                Syscall::RingEnter { ops, .. } => {
                    // Ring opens allocate fds sequentially in service
                    // order; closes retire theirs. Outcomes per ring op
                    // are not recorded individually, so track paths
                    // conservatively: opens are resolved by the replayer
                    // from its own fd sequence.
                    for (_, op) in ops {
                        if let Syscall::Close { fd } = op {
                            self.fd_paths.remove(&fd.0);
                        }
                    }
                }
                _ => {}
            }
        }
        self.ops.push(CapturedOp {
            seq: self.ops.len() as u64,
            tenant: f.tenant,
            submit_ns: f.submit_ns,
            fault_epoch: f.fault_epoch,
            path: f.path,
            call: f.call,
            outcome,
        });
    }

    /// Disarms the recorder and returns the finished capture. An op
    /// still in flight (kernel re-entered during teardown) poisons it.
    pub fn into_capture(mut self) -> Capture {
        if self.inflight.is_some() {
            self.poison("capture stopped with an op in flight".to_string());
        }
        Capture {
            complete: self.complete,
            incomplete_reason: self.incomplete_reason,
            budget: self.budget,
            base_ns: self.base_ns,
            ops: self.ops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syscall::{Fd, OpenFlags};
    use sleds_sim_core::SimDuration;

    /// A disk (class 1) command priced at `queue_wait_ns` + `service_ns`.
    fn disk_cmd(queue_wait_ns: u64, service_ns: u64, bytes: u64) -> DeviceCost {
        DeviceCost {
            class: 1,
            queue_wait: SimDuration::from_nanos(queue_wait_ns),
            service: SimDuration::from_nanos(service_ns),
            bytes,
            ..DeviceCost::default()
        }
    }

    fn begin_simple(r: &mut WorkloadRecorder, seq: u64) {
        r.begin(Syscall::Fsync { fd: Fd(3) }, 0, seq * 10, 0);
    }

    #[test]
    fn open_then_read_resolves_fd_to_path() {
        let mut r = WorkloadRecorder::new(16, 0);
        r.begin(
            Syscall::Open {
                path: "/disk/a".to_string(),
                flags: OpenFlags::default(),
            },
            0,
            100,
            0,
        );
        r.finish_ok(3, None, 200);
        r.begin(Syscall::Read { fd: Fd(3), len: 8 }, 0, 300, 0);
        r.note_device(&disk_cmd(10, 20, 4096));
        r.note_device(&disk_cmd(5, 7, 4096));
        r.finish_ok(8, Some(b"abcdefgh"), 400);
        let cap = r.into_capture();
        assert!(cap.complete);
        assert_eq!(cap.ops.len(), 2);
        let read = &cap.ops[1];
        assert_eq!(read.path.as_deref(), Some("/disk/a"));
        assert_eq!(
            read.outcome.device(),
            CostRow {
                commands: 2,
                bytes: 8192,
                queue_wait_ns: 15,
                service_ns: 27,
            }
        );
        assert_eq!(read.outcome.data_fold, fold_bytes(b"abcdefgh"));
        assert_eq!(read.outcome.classes.len(), 1);
    }

    #[test]
    fn budget_overflow_is_loud_and_final() {
        let mut r = WorkloadRecorder::new(2, 0);
        for i in 0..3 {
            begin_simple(&mut r, i);
            r.finish_ok(0, None, i * 10 + 5);
        }
        let cap = r.into_capture();
        assert!(!cap.complete);
        assert_eq!(cap.ops.len(), 2, "ops beyond the budget are not retained");
        let reason = cap.incomplete_reason.unwrap_or_default();
        assert!(reason.contains("budget"), "{reason}");
    }

    #[test]
    fn unsupported_call_poisons() {
        let mut r = WorkloadRecorder::new(8, 0);
        begin_simple(&mut r, 0);
        r.finish_ok(0, None, 5);
        r.unsupported("ioctl.fsleds_stat");
        let cap = r.into_capture();
        assert!(!cap.complete);
        assert!(cap
            .incomplete_reason
            .unwrap_or_default()
            .contains("fsleds_stat"));
    }

    #[test]
    fn ring_ops_accumulate_into_the_batch() {
        let mut r = WorkloadRecorder::new(8, 0);
        r.begin(
            Syscall::RingEnter {
                capacity: 4,
                ops: Vec::new(),
            },
            2,
            1000,
            0,
        );
        r.ring_op(
            7,
            Syscall::Pread {
                fd: Fd(3),
                pos: 0,
                len: 16,
            },
        );
        r.note_device(&disk_cmd(100, 200, 4096));
        r.finish_ok(1, None, 2000);
        let cap = r.into_capture();
        assert!(cap.complete);
        match &cap.ops[0].call {
            Syscall::RingEnter { ops, .. } => {
                assert_eq!(ops.len(), 1);
                assert_eq!(ops[0].0, 7);
            }
            other => panic!("unexpected call {other:?}"),
        }
        assert_eq!(cap.ops[0].outcome.device().queue_wait_ns, 100);
    }

    #[test]
    fn ring_op_outside_batch_poisons() {
        let mut r = WorkloadRecorder::new(8, 0);
        r.ring_op(0, Syscall::Close { fd: Fd(3) });
        assert!(!r.into_capture().complete);
    }

    #[test]
    fn stop_mid_flight_poisons() {
        let mut r = WorkloadRecorder::new(8, 0);
        begin_simple(&mut r, 0);
        let cap = r.into_capture();
        assert!(!cap.complete);
    }
}
