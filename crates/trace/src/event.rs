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

/// One zero-width event, the only thing [`Tracer::mark`](crate::Tracer::mark)
/// emits. `Mark::encode` states each variant's layer, name and argument
/// layout, and nothing else does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mark {
    /// `cache.hit`: a page found resident (`[page, 1, ino]`).
    CacheHit {
        /// Page index within the file.
        page: u64,
        /// Inode number.
        ino: u64,
    },
    /// `cache.miss`: a run of missing pages (`[page, pages, ino]`).
    CacheMiss {
        /// First missing page.
        page: u64,
        /// Pages in the run.
        pages: u64,
        /// Inode number.
        ino: u64,
    },
    /// `cache.evict`: a page evicted (`[page, dirty, ino]`).
    CacheEvict {
        /// Page index within the file.
        page: u64,
        /// The page needed writeback.
        dirty: bool,
        /// Inode number.
        ino: u64,
    },
    /// `cache.writeback`: one dirty page written back (`[page, 1, ino]`).
    CacheWriteback {
        /// Page index within the file.
        page: u64,
        /// Inode number.
        ino: u64,
    },
    /// `fault.inject`: one device command failed by an injected fault
    /// (`[class, attempt, cost_ns]`).
    FaultInject {
        /// Device class code.
        class: u64,
        /// Attempt number that failed.
        attempt: u64,
        /// Device time the failed command burned, nanoseconds.
        cost_ns: u64,
    },
    /// `io.retry`: one retry backoff (`[class, attempt, backoff_ns]`).
    IoRetry {
        /// Device class code.
        class: u64,
        /// Attempt that just failed.
        attempt: u64,
        /// Backoff wait, nanoseconds.
        backoff_ns: u64,
    },
    /// `io.hedge`: a hedged read's loser cancelled
    /// (`[winner, loser, cancel_ns]`).
    IoHedge {
        /// Winning device class code.
        winner: u64,
        /// Losing device class code.
        loser: u64,
        /// Cancel cost, nanoseconds.
        cancel_ns: u64,
    },
    /// `sleds.predict`: a delivery-time prediction for an fd
    /// (`[fd, predicted_ns, class | generation << 8]`). The audit pairs it
    /// with the later read spans on the fd.
    Predict {
        /// File descriptor.
        fd: u64,
        /// Predicted delivery time, nanoseconds.
        predicted_ns: u64,
        /// Device class code of the device serving the file.
        class: u64,
        /// Sleds-table generation the estimate was priced from.
        generation: u64,
    },
    /// `sleds.recal`: a sleds-table recalibration; later predictions are
    /// priced from `generation` (`[generation, 0, 0]`).
    Recal {
        /// The new table generation.
        generation: u64,
    },
    /// `ring.submit`: one serviced ring batch (`[submitted, serviced, 0]`).
    RingSubmit {
        /// Ops queued when the batch entered.
        submitted: u64,
        /// Ops serviced this crossing.
        serviced: u64,
    },
    /// `ring.reap`: one completion-queue reap (`[reaped, 0, 0]`). Reaping
    /// crosses nothing, so this is the only trace of it.
    RingReap {
        /// Completions returned.
        reaped: u64,
    },
    /// `prog.eval`: one in-kernel pick-program evaluation
    /// (`[len, matched, estimate_ns]`).
    ProgEval {
        /// Program length in instructions.
        len: u64,
        /// The verdict.
        matched: bool,
        /// The delivery estimate, nanoseconds when finite.
        estimate_ns: u64,
    },
}

impl Mark {
    /// The layer, name and arguments the mark is recorded with.
    pub(crate) fn encode(self) -> (Layer, &'static str, [u64; 3]) {
        match self {
            Mark::CacheHit { page, ino } => (Layer::Cache, "cache.hit", [page, 1, ino]),
            Mark::CacheMiss { page, pages, ino } => {
                (Layer::Cache, "cache.miss", [page, pages, ino])
            }
            Mark::CacheEvict { page, dirty, ino } => {
                (Layer::Cache, "cache.evict", [page, u64::from(dirty), ino])
            }
            Mark::CacheWriteback { page, ino } => (Layer::Cache, "cache.writeback", [page, 1, ino]),
            Mark::FaultInject {
                class,
                attempt,
                cost_ns,
            } => (Layer::Device, "fault.inject", [class, attempt, cost_ns]),
            Mark::IoRetry {
                class,
                attempt,
                backoff_ns,
            } => (Layer::Device, "io.retry", [class, attempt, backoff_ns]),
            Mark::IoHedge {
                winner,
                loser,
                cancel_ns,
            } => (Layer::Device, "io.hedge", [winner, loser, cancel_ns]),
            Mark::Predict {
                fd,
                predicted_ns,
                class,
                generation,
            } => (
                Layer::App,
                "sleds.predict",
                [fd, predicted_ns, pack_class_generation(class, generation)],
            ),
            Mark::Recal { generation } => (Layer::App, "sleds.recal", [generation, 0, 0]),
            Mark::RingSubmit {
                submitted,
                serviced,
            } => (Layer::Syscall, "ring.submit", [submitted, serviced, 0]),
            Mark::RingReap { reaped } => (Layer::Syscall, "ring.reap", [reaped, 0, 0]),
            Mark::ProgEval {
                len,
                matched,
                estimate_ns,
            } => (
                Layer::Syscall,
                "prog.eval",
                [len, u64::from(matched), estimate_ns],
            ),
        }
    }
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
