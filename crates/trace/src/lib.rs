//! Virtual-clock tracing for the SLEDs simulator.
//!
//! The paper's claim is that SLEDs *predict* delivery latency well enough
//! for applications to reorder and prune their I/O. This crate is the
//! instrument that checks the claim: a bounded ring buffer of structured
//! [`TraceEvent`]s stamped with [`SimTime`](sleds_sim_core::SimTime), per-layer
//! [`Metrics`] (counters plus log-bucket latency histograms), a Chrome
//! `trace_event` JSON exporter, a folded-stack flamegraph summary, and a
//! prediction-accuracy audit that pairs each `sleds_total_delivery_time`
//! estimate with the traced actual virtual duration of the reads it covered.
//!
//! Two properties are load-bearing:
//!
//! * **Virtual time only.** Every timestamp is the kernel's [`SimTime`](sleds_sim_core::SimTime);
//!   no wall clock is ever consulted (`clippy.toml` bans `Instant` here as
//!   everywhere), so traces replay bit-identically.
//! * **Zero-cost observer.** Tracing never advances the virtual clock and
//!   never touches `Rusage`, whether enabled or not. A traced run and an
//!   untraced run of the same workload produce byte-identical virtual
//!   results; the trace is a pure projection of what happened.
//!
//! The buffer is bounded (drop-oldest on overflow, with a dropped-event
//! counter) so long workloads cannot grow memory without bound.

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

mod audit;
mod chrome;
mod cost;
mod event;
mod flame;
mod metrics;
mod ring;
mod tracer;

pub use audit::{
    audit_accuracy, summarize_class, AccuracySample, AccuracyTracker, AuditReport, ClassAccuracy,
};
pub use chrome::{chrome_trace_json, chrome_trace_json_named, json_escape};
pub use cost::{CostOutcome, CostRow, DeviceCost, Wait};
pub use event::{
    class_label, pack_class_generation, unpack_class_generation, EventPhase, Layer, TraceEvent,
};
pub use flame::folded_stacks;
pub use metrics::{AccuracyWindow, ClassMetrics, Metrics, ACCURACY_WINDOW, NUM_DEVICE_CLASSES};
pub use ring::RingBuffer;
pub use tracer::{span, SpanHost, Tracer, DEFAULT_CAPACITY};
