//! Umbrella crate for the SLEDs reproduction.
//!
//! Re-exports the workspace crates so the top-level `examples/` and `tests/`
//! can exercise the whole stack through one dependency. See `README.md` for a
//! tour and `DESIGN.md` for the system inventory.

pub use sleds;
pub use sleds_apps as apps;
pub use sleds_devices as devices;
pub use sleds_faults as faults;
pub use sleds_fits as fits;
pub use sleds_fs as fs;
pub use sleds_lmbench as lmbench;
pub use sleds_pagecache as pagecache;
pub use sleds_replay as replay;
pub use sleds_sim_core as sim_core;
pub use sleds_textmatch as textmatch;
pub use sleds_trace as trace;

pub mod scenarios;

/// Where the `examples/` reports land: `$SLEDS_RESULTS`, or the committed
/// `results/` directory when unset.
pub fn results_dir() -> std::path::PathBuf {
    std::env::var("SLEDS_RESULTS")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| "results".into())
}
