//! Substrate for the SLEDs storage-system simulator.
//!
//! This crate provides the pieces every other crate in the workspace builds
//! on: a virtual clock ([`SimTime`], [`SimDuration`]), byte/bandwidth units,
//! deterministic random number generation, error codes modeled on Unix
//! `errno`, and the statistics used by the evaluation harness (means,
//! Student-t confidence intervals, CDFs).
//!
//! Everything in the simulator is *virtual time*: devices report how long an
//! operation would take, the kernel advances the clock, and elapsed times in
//! the reproduced figures are sums of those model costs. No wall-clock time
//! is ever consulted, which makes every experiment deterministic and
//! repeatable.

#![cfg_attr(
    test,
    expect(
        clippy::float_cmp,
        reason = "unit tests pin exact, deterministic float results"
    )
)]

pub mod check;
pub mod error;
pub mod retry;
pub mod rng;
pub mod stats;
pub mod table;
pub mod tenant;
pub mod time;
pub mod units;

pub use error::{Errno, SimError, SimResult};
pub use rng::DetRng;
pub use table::{IdTable, IdWindow};
pub use tenant::{TenantId, VirtualSubmitter};
pub use time::{Clock, SimDuration, SimTime};
pub use units::{
    index, Bandwidth, ByteSize, Pages, Sectors, PAGE_SIZE, SECTORS_PER_PAGE, SECTOR_SIZE,
};
