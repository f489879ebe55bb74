//! Storage Latency Estimation Descriptors (SLEDs).
//!
//! This crate is the paper's contribution: an API that lets applications see
//! the *dynamic state* of the storage system — which parts of a file are in
//! the buffer cache, which are on disk, CD-ROM, NFS or tape — expressed in a
//! device-independent vocabulary of `(offset, length, latency, bandwidth)`
//! descriptors (Figure 2 of the paper):
//!
//! ```c
//! struct sled {
//!     long offset;     /* into the file */
//!     long length;     /* of the segment */
//!     float latency;   /* in seconds */
//!     float bandwidth; /* in bytes/sec */
//! };
//! ```
//!
//! The pieces, mirroring the paper's implementation section:
//!
//! * [`SledsTable`] — the kernel's per-device latency/bandwidth table,
//!   filled at boot from lmbench-style measurements (`FSLEDS_FILL`;
//!   `sleds-lmbench` produces it in this workspace);
//! * [`fsleds_get`] — the `FSLEDS_GET` ioctl: walk an open file's pages,
//!   assign each the latency/bandwidth of its current home, and coalesce
//!   equal neighbours into SLEDs;
//! * [`pick`] — the user-space pick library (`sleds_pick_init` /
//!   `sleds_pick_next_read` / `sleds_pick_finish`) that orders reads
//!   lowest-latency-first, including record-boundary adjustment (Figure 4);
//! * [`estimate`] — `sleds_total_delivery_time` with its `attack_plan`
//!   argument (`SLEDS_LINEAR` / `SLEDS_BEST`);
//! * [`predicate`] — the `find -latency [+|-][m|u]n` predicate;
//! * [`report`] — the gmc-style human-readable rendering.

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

pub mod estimate;
pub mod forecast;
pub mod get;
pub mod pick;
pub mod predicate;
pub mod program;
pub mod recal;
pub mod replica;
pub mod report;
pub mod table;

pub use estimate::{estimate_seconds, total_delivery_time, AttackPlan};
pub use forecast::{forecast, SledForecast};
pub use get::fsleds_get;
pub use pick::{PickConfig, PickSession, UnavailablePolicy};
pub use predicate::LatencyPredicate;
pub use program::{compile_latency, pricing_from, sleds_from_prog};
pub use recal::{recalibrate, RecalOutcome, RecalPolicy};
pub use report::{ObservedError, SledReport};
pub use sleds_fs::sled::{select_min_cost, Sled};
pub use table::{SledsEntry, SledsTable};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_time_combines_latency_and_bandwidth() {
        let s = Sled {
            offset: 0,
            length: 1_000_000,
            latency: 0.5,
            bandwidth: 1e6,
        };
        assert!((s.delivery_time() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn empty_segment_is_free() {
        let s = Sled {
            offset: 10,
            length: 0,
            latency: 5.0,
            bandwidth: 1.0,
        };
        assert_eq!(s.delivery_time(), 0.0);
    }

    #[test]
    fn zero_bandwidth_is_infinite() {
        let s = Sled {
            offset: 0,
            length: 1,
            latency: 0.0,
            bandwidth: 0.0,
        };
        assert!(s.delivery_time().is_infinite());
    }

    #[test]
    fn end_and_same_level() {
        let a = Sled {
            offset: 4096,
            length: 8192,
            latency: 0.018,
            bandwidth: 9e6,
        };
        assert_eq!(a.end(), 12288);
        let b = Sled { offset: 0, ..a };
        assert!(a.same_level(&b));
        let c = Sled { latency: 0.0, ..a };
        assert!(!a.same_level(&c));
    }
}
