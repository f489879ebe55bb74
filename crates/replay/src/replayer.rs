//! The deterministic replayer: re-issues a captured workload on the
//! virtual clock against a candidate kernel configuration.
//!
//! Replay preserves what the application controlled — per-tenant submit
//! order and think-time gaps — and lets the kernel re-derive everything
//! it controls: queue waits, service times, cache hits, fault retries.
//! Before each op the replayer switches to the op's tenant and charges
//! the *original* gap between the tenant's previous completion and this
//! submit as CPU think time; the candidate kernel then prices the op
//! itself. Under the identity candidate every charge lands on the same
//! nanosecond, so the re-capture is byte-identical to the original —
//! the pinned determinism property.
//!
//! Incomplete captures (`complete: false`) are refused loudly: an
//! overflowed or poisoned capture can never be silently replayed. So is
//! one armed anywhere but where its spec leaves the clock.

use sleds_fs::{Capture, CapturedOp, Kernel, Syscall, SyscallRet, TenantId};
use sleds_sim_core::SimDuration;

use crate::file::CaptureFile;
use crate::setup::{build_kernel, CandidateConfig, WorkloadSpec};

/// A finished replay: the candidate spec it ran under, the re-captured
/// workload (same shape as the original — diff them), and the kernel it
/// ran on (for saturation reports or further inspection).
pub struct Replayed {
    /// The spec the replay actually ran under (captured spec with the
    /// candidate's overrides applied).
    pub spec: WorkloadSpec,
    /// The re-captured workload.
    pub capture: Capture,
    /// The post-replay kernel.
    pub kernel: Kernel,
}

impl Replayed {
    /// Repackages as a capture file — serialize it to byte-compare with
    /// the original for the identity property.
    pub fn into_file(self) -> CaptureFile {
        CaptureFile {
            spec: self.spec,
            capture: self.capture,
        }
    }
}

/// Replays `file` against `candidate`'s overrides of its spec.
///
/// Errors on incomplete captures, on specs that cannot be rebuilt, and
/// on structural divergence (an op whose success/failure or returned fd
/// differs from the capture — later fd-based ops would dereference the
/// wrong file, so replay stops loudly instead).
pub fn replay(file: &CaptureFile, candidate: &CandidateConfig) -> Result<Replayed, String> {
    if !file.capture.complete {
        let why = file
            .capture
            .incomplete_reason
            .as_deref()
            .unwrap_or("no reason recorded");
        return Err(format!(
            "refusing to replay an incomplete capture ({why}); \
             re-capture with a larger budget or without unsupported calls"
        ));
    }
    let spec = candidate.apply(&file.spec);
    let mut k = build_kernel(&spec)?;
    // Think gaps are replayed from the capture's base, so the rebuilt
    // clock must stand there: a capture armed after work its spec does not
    // hold would replay with every timestamp shifted.
    let built_ns = k.now().as_nanos();
    if file.capture.base_ns != built_ns {
        return Err(format!(
            "capture base_ns {} is not where its spec leaves the clock ({built_ns} ns): \
             work ran between setup and the capture that no step records",
            file.capture.base_ns
        ));
    }
    // Same budget as the original so the re-captured header (and thus
    // the identity byte-comparison) lines up.
    k.start_capture(file.capture.budget);

    // Per-tenant original completion times, indexed by tenant id: the
    // basis for think gaps. Tenant 0 ("main") starts at the original
    // capture-arm instant — setup work before the capture is not think
    // time. An id is only ever stored after the kernel accepted it, so
    // the file cannot size this beyond one slot per registered tenant.
    let mut prev_complete: Vec<u64> = vec![file.capture.base_ns];

    for op in &file.capture.ops {
        k.tenant_switch(TenantId(op.tenant))
            .map_err(|e| format!("op {}: {e}", op.seq))?;
        let prev = usize::try_from(op.tenant)
            .ok()
            .and_then(|t| prev_complete.get(t).copied())
            .unwrap_or(0);
        let gap = op.submit_ns.saturating_sub(prev);
        if gap > 0 {
            k.charge_cpu(SimDuration::from_nanos(gap));
        }
        replay_op(&mut k, op, &mut prev_complete)?;
        note_complete(&mut prev_complete, op.tenant, op.outcome.complete_ns);
    }

    let capture = k
        .stop_capture()
        .ok_or_else(|| "replay recorder vanished mid-run".to_string())?;
    if !capture.complete {
        let why = capture
            .incomplete_reason
            .as_deref()
            .unwrap_or("no reason recorded");
        return Err(format!("replay re-capture went incomplete ({why})"));
    }
    Ok(Replayed {
        spec,
        capture,
        kernel: k,
    })
}

/// Records that `tenant` — an id the kernel has accepted — last completed
/// at `complete_ns`.
fn note_complete(prev_complete: &mut Vec<u64>, tenant: u64, complete_ns: u64) {
    if let Ok(t) = usize::try_from(tenant) {
        if t >= prev_complete.len() {
            prev_complete.resize(t + 1, 0);
        }
        prev_complete[t] = complete_ns;
    }
}

/// Checks that an op's replayed success/failure matches the capture.
fn expect_ok<T>(
    op: &CapturedOp,
    r: Result<T, sleds_sim_core::SimError>,
) -> Result<Option<T>, String> {
    match (r, op.outcome.ok) {
        (Ok(v), true) => Ok(Some(v)),
        (Err(_), false) => Ok(None),
        (Ok(_), false) => Err(format!(
            "op {} ({}): succeeded in replay but failed in capture",
            op.seq,
            op.call.name()
        )),
        (Err(e), true) => Err(format!(
            "op {} ({}): failed in replay ({e}) but succeeded in capture",
            op.seq,
            op.call.name()
        )),
    }
}

/// Re-issues one captured call through [`Kernel::syscall`] and checks the
/// structure later ops depend on: same success/failure, same fd from
/// `open`, same id from `tenant_register`.
fn replay_op(k: &mut Kernel, op: &CapturedOp, prev_complete: &mut Vec<u64>) -> Result<(), String> {
    let want = op.outcome.ret;
    match (&op.call, expect_ok(op, k.syscall(&op.call))?) {
        (Syscall::Open { path, .. }, Some(SyscallRet::Fd(fd))) if fd.0 != want => Err(format!(
            "op {}: open({path:?}) returned fd {} (capture had {want})",
            op.seq, fd.0
        )),
        (Syscall::TenantRegister { .. }, Some(SyscallRet::Tenant(t))) => {
            if t.0 != want {
                return Err(format!(
                    "op {}: tenant_register produced id {} (capture had {want})",
                    op.seq, t.0
                ));
            }
            // The new tenant's clock parks at the registration instant;
            // its first op's think gap is measured from there.
            note_complete(prev_complete, t.0, op.outcome.complete_ns);
            Ok(())
        }
        _ => Ok(()),
    }
}
