//! The event vocabulary: layers, phases, and the event record itself.

use sleds_sim_core::{SimDuration, SimTime};

/// Which layer of the stack emitted an event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// Kernel entry points: `open`, `read`, `write`, the `FSLEDS_*` ioctls.
    Syscall,
    /// Page-cache decisions: hits, misses, evictions, writebacks.
    Cache,
    /// Device service: whole commands and their mechanical phases.
    Device,
    /// Application-level spans and markers (pick sessions, predictions).
    App,
}

impl Layer {
    /// Short lowercase label, used as the Chrome trace category.
    pub fn label(self) -> &'static str {
        match self {
            Layer::Syscall => "syscall",
            Layer::Cache => "cache",
            Layer::Device => "device",
            Layer::App => "app",
        }
    }
}

/// Event phase, mirroring the Chrome `trace_event` phases we export.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventPhase {
    /// Span start (`ph:"B"`). Paired with the next matching [`EventPhase::End`].
    Begin,
    /// Span end (`ph:"E"`). Carries the span duration in `dur` for
    /// consumers that read the buffer directly.
    End,
    /// A complete span with a known duration (`ph:"X"`), used for device
    /// commands and their phases.
    Complete,
    /// A zero-width marker (Chrome's instant event, `ph:"i"`). Named
    /// `Mark` so that `Instant` keeps meaning one thing in this tree: the
    /// wall clock `clippy.toml` bans.
    Mark,
}

/// One trace record.
///
/// `Copy` and fixed-size on purpose: pushing an event is a few stores into
/// the ring buffer, names are `&'static str` so no allocation or hashing
/// happens on the hot path, and the whole record compares bitwise for the
/// determinism tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Monotonic sequence number (counts emitted events, including any
    /// later overwritten by ring overflow).
    pub seq: u64,
    /// Virtual timestamp of the event (span start for `Complete`).
    pub ts: SimTime,
    /// Span duration for `Complete` and `End` events; zero otherwise.
    pub dur: SimDuration,
    /// Phase of the event.
    pub phase: EventPhase,
    /// Emitting layer.
    pub layer: Layer,
    /// Tenant on whose behalf the event happened (0 is the main tenant
    /// single-tenant workloads run as). The Chrome exporter maps this to
    /// the `pid` lane.
    pub tenant: u64,
    /// Event name (e.g. `"read"`, `"cache.miss"`, `"disk.seek"`).
    pub name: &'static str,
    /// Event-specific payload; meaning documented per emission site
    /// (typically fd/page/sector in `args[0]`, a count in `args[1]`,
    /// a device-class code in `args[2]`).
    pub args: [u64; 3],
}

/// Human label for a device-class code as carried in event payloads.
///
/// Codes follow the order of `sleds_devices::DeviceClass` (memory, disk,
/// CD-ROM, network, tape); this crate deliberately does not depend on the
/// device crate, so the mapping is by value.
pub fn class_label(code: u64) -> &'static str {
    match code {
        0 => "memory",
        1 => "disk",
        2 => "cdrom",
        3 => "network",
        4 => "tape",
        _ => "unknown",
    }
}

/// Packs a device-class code and a sleds-table generation into the third
/// `sleds.predict` argument: class in the low 8 bits, generation above.
/// Generation 0 leaves the argument equal to the bare class code, so
/// pre-generation traces decode unchanged.
pub fn pack_class_generation(class: u64, generation: u64) -> u64 {
    (class & 0xff) | (generation << 8)
}

/// Inverse of [`pack_class_generation`]: `(class, generation)`.
pub fn unpack_class_generation(arg: u64) -> (u64, u64) {
    (arg & 0xff, arg >> 8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_generation_packing_roundtrips() {
        for (class, generation) in [(0u64, 0u64), (4, 0), (1, 1), (3, 7_000_000)] {
            let packed = pack_class_generation(class, generation);
            assert_eq!(unpack_class_generation(packed), (class, generation));
        }
        // Generation 0 is the identity: old traces decode as before.
        assert_eq!(pack_class_generation(2, 0), 2);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Layer::Syscall.label(), "syscall");
        assert_eq!(Layer::Device.label(), "device");
        assert_eq!(class_label(0), "memory");
        assert_eq!(class_label(4), "tape");
        assert_eq!(class_label(99), "unknown");
    }
}
