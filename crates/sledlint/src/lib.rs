//! `sledlint` — a hermetic domain lint for the SLEDs simulator.
//!
//! The simulator's claim to reproduce SLEDs (Van Meter & Gao, OSDI 2000)
//! rests on a deterministic virtual clock and a trustworthy cost model. One
//! stray `Instant::now()`, one `HashMap` iteration in simulation state, or
//! one silent `as` truncation in a latency formula corrupts results without
//! failing a test. This crate makes those invariants machine-enforced:
//!
//! - [`lexer`] — a minimal Rust lexer (strings, comments, lifetimes, raw
//!   strings handled correctly; no parser).
//! - [`parser`] — shape parsing: `fn` item discovery and body ranges.
//! - [`flow`] — `D013`, unit flow through `let` aliases within one fn.
//! - [`rules`] — the rule table (`D001`–`D007`, `D009`, `D013`, plus waiver
//!   hygiene `W001`/`W002`) and the scope policy deciding where each
//!   rule applies.
//! - [`engine`] — token-pattern detection, `#[cfg(test)]` region tracking,
//!   and `// sledlint::allow(RULE, reason)` waiver resolution.
//! - [`walk`] — workspace discovery and the file walk.
//!
//! What the lint does not check: clock/charge completeness, the residency
//! generation, span balance, bounded retry and bounded hedging were rules
//! here (`D008`, `D010`–`D012`, `D014`) until each became a property of a
//! type — `Ledger`, `Residency`, `sleds_trace::span`,
//! `RetryPolicy::attempts`, `HedgePolicy` — whose violation does not
//! compile. DESIGN.md §5c has the table.
//!
//! The crate is deliberately dependency-free: PR 1 made the workspace
//! hermetic, and the lint gate must not be the thing that breaks that.

pub mod engine;
pub mod flow;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod walk;

pub use engine::{scan_source, Finding};
pub use walk::{find_workspace_root, scan_workspace, workspace_files};
