//! The simulated storage-stack kernel.
//!
//! This crate stands in for the paper's modified Linux 2.2: a virtual file
//! system layer with a syscall-style API (`open`/`read`/`write`/`lseek`/
//! `stat`/`readdir`/...), a page cache (from `sleds-pagecache`), block
//! devices (from `sleds-devices`), mount points, per-job resource usage, and
//! — the hook the SLEDs API needs — a page-residency walk
//! ([`Kernel::page_extents`]) that reports, extent by extent, whether an
//! open file's pages are in the buffer cache and on which device sectors
//! they live otherwise. The walk is run-length throughout: file layout is a
//! [`inode::PageMap`] of maximal device-contiguous runs, residency is the
//! page cache's extent index, and the walk's cost is one probe per extent
//! plus a per-page floor rather than one probe per page. [`sled`] turns that
//! walk into the SLED vector — for the library above the syscall boundary
//! and for the ring ops and pick programs below it alike.
//!
//! Unlike a real kernel, file *contents* are held in memory (`Vec<u8>`) so
//! applications compute real answers, while all *costs* are charged against
//! the device models and a virtual clock. Time and bytes are decoupled:
//! correctness of data and fidelity of timing are separate mechanisms.
//!
//! A hierarchical storage manager is included ([`Kernel::mount_hsm`]):
//! files can be migrated to tape and are staged back to the disk cache
//! chunk-by-chunk on access, which is the regime where the paper expects
//! SLEDs to shine the most.

// Kernel path (DESIGN §5c): fail with a typed `SimError`, never abort the
// simulation; a narrowing cast names the bound that makes it lossless.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable,
        clippy::cast_possible_truncation
    )
)]
#![cfg_attr(
    test,
    expect(
        clippy::float_cmp,
        reason = "unit tests pin exact, deterministic float results"
    )
)]

pub mod aio;
pub mod capture;
pub mod inode;
pub mod kernel;
pub mod machine;
pub mod payload;
pub mod prog;
pub mod queue;
pub mod ring;
pub mod rusage;
pub mod sled;
pub mod syscall;
pub mod volume;

pub use aio::AioReport;
pub use capture::{
    fold_bytes, Capture, CapturedOp, OpOutcome, PayloadFold, WorkloadRecorder, CAPTURE_SCHEMA,
};
pub use inode::{FileKind, Ino, LayoutRun, PageMap, PagePlace, Stat, SECTORS_PER_PAGE};
pub use kernel::{
    DeviceId, Fd, Kernel, MountId, OpenFlags, PageExtent, PageLocation, RedundantExtent,
    ReplicaPlace, Whence,
};
pub use machine::MachineConfig;
pub use payload::Payload;
pub use prog::{
    prog_inputs, CostCert, PickProgram, ProgInputs, ProgInst, ProgOrder, WalkEntry,
    MAX_PROG_COST_NS, MAX_PROG_LEN, MAX_PROG_STACK,
};
pub use queue::{
    CmdQueue, DeviceSaturation, LatencySummary, SaturationReport, TenantAttribution, TenantShare,
    BULLY_SHARE_PPM, CMD_QUEUE_CAPACITY, SATURATION_UTIL_PPM,
};
pub use ring::{
    ProgPricing, RingCompletion, RingOp, RingPayload, SubmissionRing, DEFAULT_RING_ENTRIES,
};
pub use rusage::{JobReport, JobTimer, Rusage};
pub use sled::{Sled, SledsEntry, SledsTable};
pub use sleds_sim_core::{TenantId, VirtualSubmitter};
pub use sleds_trace as trace;
pub use syscall::{Charge, Entry, Record, Ring, Syscall, SyscallRet};
pub use volume::{HedgePolicy, VolumeLayout};
