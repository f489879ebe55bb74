//! Workload flight recorder: lossless capture, deterministic replay,
//! and what-if latency diffing.
//!
//! The trace ring answers "what just happened" and drops oldest under
//! pressure; this crate answers "what would have happened" and refuses
//! to lose anything. A [`sleds_fs::WorkloadRecorder`] armed via
//! `Kernel::start_capture` records every kernel entry losslessly (or
//! marks the capture incomplete — never silently partial). This crate
//! then:
//!
//! - serializes captures to the schema-versioned `CAPTURE_*.jsonl`
//!   format ([`file::CaptureFile`]), environment included;
//! - replays them on the virtual clock against a candidate kernel
//!   config ([`replayer::replay`] + [`setup::CandidateConfig`]) —
//!   different SLED table, queue retention, or fault plan — preserving
//!   per-tenant submit order and think-time gaps;
//! - diffs original against replayed completion times with exact
//!   per-phase attribution ([`diff::diff_captures`]), emitting
//!   `results/REPLAY_diff.json`.
//!
//! The identity property — replaying under the captured config
//! reproduces the capture byte for byte — is pinned by the fs crate's
//! determinism suite.

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
#![warn(missing_docs)]

pub mod diff;
pub mod file;
pub mod json;
pub mod replayer;
pub mod setup;

pub use diff::{
    class_name, diff_captures, DiffError, GroupDelta, OpDelta, ReplayDiff, DIFF_SCHEMA,
};
pub use file::CaptureFile;
pub use replayer::{replay, Replayed};
pub use setup::{build_disk, build_kernel, CandidateConfig, SetupStep, WorkloadSpec, DISK_MODELS};
