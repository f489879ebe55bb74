//! The tracer the kernel owns.
//!
//! Disabled is the default and costs one pointer-null check per call
//! ([`span`], [`Tracer::mark`], [`Tracer::device`]); no allocation, no
//! event, no metric. Enabled, every call stamps the caller's [`SimTime`]
//! into the ring buffer — the tracer itself never advances the clock or
//! touches `Rusage`, so traced and untraced runs produce byte-identical
//! virtual results.

use sleds_sim_core::{SimDuration, SimTime};

use crate::audit::Pairing;
use crate::cost::DeviceCost;
use crate::event::{EventPhase, Layer, Mark, TraceEvent};
use crate::metrics::Metrics;
use crate::ring::RingBuffer;

/// Default ring-buffer capacity (events retained).
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// What an event is: its layer, name and arguments.
type What = (Layer, &'static str, [u64; 3]);

struct Inner {
    ring: RingBuffer,
    metrics: Metrics,
    /// Pairs predictions with reads as the events go by, feeding the
    /// metrics' accuracy windows.
    pairing: Pairing,
    seq: u64,
    /// Open spans, innermost last. The simulator is single-threaded and
    /// synchronous, so begin/end nest like a call stack.
    stack: Vec<(SimTime, What)>,
}

impl Inner {
    fn emit(
        &mut self,
        tenant: u64,
        ts: SimTime,
        dur: SimDuration,
        phase: EventPhase,
        (layer, name, args): What,
    ) {
        let ev = TraceEvent {
            seq: self.seq,
            ts,
            dur,
            phase,
            layer,
            tenant,
            name,
            args,
        };
        self.seq += 1;
        if let Some(settled) = self.pairing.observe(&ev) {
            self.metrics.note_settled(settled);
        }
        self.ring.push(ev);
        // Mirror the ring's truncation state into the metrics so an
        // `FSLEDS_STAT` snapshot can flag audits over a clipped buffer.
        self.metrics.trace_dropped = self.ring.dropped();
        self.metrics.trace_high_water = self.ring.high_water();
    }
}

/// Event sink owned by the kernel; a no-op unless enabled.
#[derive(Default)]
pub struct Tracer {
    inner: Option<Box<Inner>>,
    /// Tenant stamped into every emitted event. Lives outside `inner` so
    /// switching tenants stays one store whether or not tracing is on —
    /// the zero-cost-observer property covers tenant bookkeeping too.
    tenant: u64,
}

/// What owns a [`Tracer`] and the clock its spans are stamped from — the
/// kernel. A span's body needs the whole host back (`&mut Kernel`, which
/// owns the tracer), so a guard object borrowing the tracer cannot work;
/// a closure handed the host can.
pub trait SpanHost {
    /// The tracer spans are recorded in.
    fn tracer(&mut self) -> &mut Tracer;
    /// The virtual instant to stamp.
    fn now(&self) -> SimTime;
}

/// Runs `body` inside a span: opened at the host's clock before it, closed
/// at the host's clock after it, on every way out of `body` short of a
/// panic — a `?` inside `body` returns from the closure, not past the end.
/// This is the only way to open a span from outside this crate, so a span
/// left open is not something a caller can write:
///
/// ```
/// use sleds_sim_core::{SimDuration, SimTime};
/// use sleds_trace::{span, EventPhase, Layer, SpanHost, Tracer};
///
/// struct Host(Tracer, SimTime);
/// impl SpanHost for Host {
///     fn tracer(&mut self) -> &mut Tracer {
///         &mut self.0
///     }
///     fn now(&self) -> SimTime {
///         self.1
///     }
/// }
///
/// let mut host = Host(Tracer::enabled(), SimTime::ZERO);
/// let r: Result<(), &str> = span(&mut host, Layer::Syscall, "read", [3, 0, 0], |h| {
///     h.1 += SimDuration::from_nanos(600);
///     Err("EIO")?; // the early exit the old begin/end pair could skip past
///     Ok(())
/// });
/// assert!(r.is_err());
/// let evs = host.0.events();
/// assert_eq!(evs.len(), 2);
/// assert_eq!((evs[0].phase, evs[1].phase), (EventPhase::Begin, EventPhase::End));
/// assert_eq!(evs[1].dur.as_nanos(), 600);
/// ```
///
/// The unbalanced form — open a span, return early, never close it —
/// does not compile outside `sleds-trace`:
///
/// ```compile_fail
/// use sleds_sim_core::SimTime;
/// use sleds_trace::{Layer, Tracer};
///
/// fn submit() -> Result<u64, ()> {
///     Err(())
/// }
/// fn traced_io(tracer: &mut Tracer) -> Result<u64, ()> {
///     tracer.begin(Layer::Syscall, "io", SimTime::ZERO, [0; 3]);
///     let r = submit()?; // leaves the span open
///     tracer.end(SimTime::ZERO);
///     Ok(r)
/// }
/// ```
#[inline]
pub fn span<H: SpanHost, T>(
    host: &mut H,
    layer: Layer,
    name: &'static str,
    args: [u64; 3],
    body: impl FnOnce(&mut H) -> T,
) -> T {
    let t0 = host.now();
    host.tracer().begin(layer, name, t0, args);
    let r = body(host);
    let t1 = host.now();
    host.tracer().end(t1);
    r
}

impl Tracer {
    /// A disabled tracer: every call is a null check.
    pub fn disabled() -> Tracer {
        Tracer {
            inner: None,
            tenant: 0,
        }
    }

    /// An enabled tracer with the default buffer capacity.
    pub fn enabled() -> Tracer {
        Tracer::with_capacity(DEFAULT_CAPACITY)
    }

    /// An enabled tracer retaining at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            inner: Some(Box::new(Inner {
                ring: RingBuffer::new(capacity),
                metrics: Metrics::default(),
                pairing: Pairing::default(),
                seq: 0,
                stack: Vec::new(),
            })),
            tenant: 0,
        }
    }

    /// True when events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Sets the tenant stamped into subsequently emitted events. One
    /// store; safe to call whether or not tracing is enabled.
    pub fn set_tenant(&mut self, tenant: u64) {
        self.tenant = tenant;
    }

    /// The tenant currently being stamped.
    pub fn tenant(&self) -> u64 {
        self.tenant
    }

    /// Opens a span. Crate-private: outside this crate the only way to
    /// open one is [`span`], which also closes it.
    pub(crate) fn begin(&mut self, layer: Layer, name: &'static str, ts: SimTime, args: [u64; 3]) {
        let tenant = self.tenant;
        let Some(inner) = self.inner.as_mut() else {
            return;
        };
        inner.stack.push((ts, (layer, name, args)));
        inner.emit(
            tenant,
            ts,
            SimDuration::ZERO,
            EventPhase::Begin,
            (layer, name, args),
        );
    }

    /// Closes the innermost open span, stamping its duration and feeding
    /// the layer's latency histogram. Unbalanced calls are ignored.
    pub(crate) fn end(&mut self, ts: SimTime) {
        let tenant = self.tenant;
        let Some(inner) = self.inner.as_mut() else {
            return;
        };
        let Some((began, what)) = inner.stack.pop() else {
            return;
        };
        let dur = ts.duration_since(began);
        match what.0 {
            Layer::Syscall => inner.metrics.note_syscall(dur.as_nanos()),
            Layer::App => inner.metrics.app_spans += 1,
            Layer::Cache | Layer::Device => {}
        }
        inner.emit(tenant, ts, dur, EventPhase::End, what);
    }

    /// Records a zero-width marker: the one emitter of every [`Mark`].
    pub fn mark(&mut self, ts: SimTime, mark: Mark) {
        let tenant = self.tenant;
        let Some(inner) = self.inner.as_mut() else {
            return;
        };
        inner.metrics.note_mark(mark);
        inner.emit(
            tenant,
            ts,
            SimDuration::ZERO,
            EventPhase::Mark,
            mark.encode(),
        );
    }

    /// Records one served device command as a complete span with its queue
    /// wait and mechanical phases nested inside it.
    ///
    /// The span starts at `ev.submit` and covers `ev.queue_wait +
    /// ev.service`, with a leading `queue_wait` phase when the wait is
    /// nonzero, so the nested phases still sum exactly to the span.
    /// `phases` is the device's own breakdown of the service time, as
    /// `(name, duration)` pairs in service order; each is laid out
    /// back-to-back so viewers show them as children of the command span.
    /// `transfer_ns` is the portion of the service the device spent moving
    /// `ev.bytes` (its transfer/stream/link phases); the split feeds the
    /// per-class first-byte and effective-bandwidth observables. Events
    /// carry `ev.tenant`, the tenant the occupancy is billed to, not the
    /// tracer's own stamp.
    pub fn device(
        &mut self,
        ev: &DeviceCost,
        name: &'static str,
        transfer_ns: u64,
        phases: &[(&'static str, SimDuration)],
    ) {
        let Some(inner) = self.inner.as_mut() else {
            return;
        };
        inner.metrics.note_device(ev, transfer_ns);
        inner.emit(
            ev.tenant,
            ev.submit,
            ev.queue_wait + ev.service,
            EventPhase::Complete,
            (Layer::Device, name, [ev.sector, ev.sectors, ev.class]),
        );
        let mut at = ev.submit;
        let train = [("queue_wait", ev.queue_wait)];
        for &(pname, pdur) in train.iter().chain(phases) {
            if pdur.is_zero() {
                continue;
            }
            inner.emit(
                ev.tenant,
                at,
                pdur,
                EventPhase::Complete,
                (Layer::Device, pname, [ev.sector, 0, ev.class]),
            );
            at += pdur;
        }
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        match &self.inner {
            Some(inner) => inner.ring.to_vec(),
            None => Vec::new(),
        }
    }

    /// Metrics snapshot; `None` when disabled.
    pub fn metrics(&self) -> Option<&Metrics> {
        self.inner.as_ref().map(|i| &i.metrics)
    }

    /// Owned metrics snapshot with the still-open prediction pairs folded
    /// in; `None` when disabled. This is what `FSLEDS_STAT` and
    /// `FSLEDS_RECAL` hand out: mid-run, a prediction whose file is still
    /// being read has partial actual time, and the snapshot should reflect
    /// it without settling the live pair.
    pub fn metrics_snapshot(&self) -> Option<Metrics> {
        self.inner.as_ref().map(|i| {
            let mut m = i.metrics.clone();
            i.pairing
                .pending()
                .for_each(|settled| m.note_settled(settled));
            m
        })
    }

    /// Events overwritten by ring overflow.
    pub fn dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.ring.dropped())
    }

    /// Ring retention high-water mark: most events held at once.
    pub fn high_water(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.ring.high_water())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_inert() {
        let mut t = Tracer::disabled();
        t.begin(Layer::Syscall, "read", SimTime::ZERO, [0; 3]);
        t.end(SimTime::from_nanos(10));
        t.mark(SimTime::ZERO, Mark::CacheHit { page: 0, ino: 0 });
        assert!(!t.is_enabled());
        assert!(t.events().is_empty());
        assert!(t.metrics().is_none());
    }

    #[test]
    fn spans_pair_and_feed_metrics() {
        let mut t = Tracer::enabled();
        t.begin(Layer::Syscall, "read", SimTime::from_nanos(100), [3, 0, 0]);
        t.end(SimTime::from_nanos(700));
        let evs = t.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].phase, EventPhase::Begin);
        assert_eq!(evs[1].phase, EventPhase::End);
        assert_eq!(evs[1].dur.as_nanos(), 600);
        assert_eq!(evs[1].args, [3, 0, 0]);
        let m = t.metrics().unwrap();
        assert_eq!(m.syscalls, 1);
        assert_eq!(m.syscall_latency.count(), 1);
    }

    /// Every mark emits the layer, name and arguments the exporters and
    /// the audit read, and moves at most one `Metrics` counter — none
    /// where `Rusage` or the kernel keeps the count.
    #[test]
    fn every_mark_emits_its_event_and_moves_at_most_one_counter() {
        type Bump = fn(&mut Metrics);
        let none: Bump = |_| {};
        let table: [(Mark, Layer, &str, [u64; 3], Bump); 12] = [
            (
                Mark::CacheHit { page: 7, ino: 9 },
                Layer::Cache,
                "cache.hit",
                [7, 1, 9],
                none,
            ),
            (
                Mark::CacheMiss {
                    page: 7,
                    pages: 4,
                    ino: 9,
                },
                Layer::Cache,
                "cache.miss",
                [7, 4, 9],
                |m| m.cache_misses += 1,
            ),
            (
                Mark::CacheEvict {
                    page: 7,
                    dirty: true,
                    ino: 9,
                },
                Layer::Cache,
                "cache.evict",
                [7, 1, 9],
                |m| m.cache_evictions += 1,
            ),
            (
                Mark::CacheWriteback { page: 7, ino: 9 },
                Layer::Cache,
                "cache.writeback",
                [7, 1, 9],
                |m| m.cache_writebacks += 1,
            ),
            (
                Mark::FaultInject {
                    class: 2,
                    attempt: 3,
                    cost_ns: 500,
                },
                Layer::Device,
                "fault.inject",
                [2, 3, 500],
                |m| m.faults_injected += 1,
            ),
            (
                Mark::IoRetry {
                    class: 2,
                    attempt: 3,
                    backoff_ns: 600,
                },
                Layer::Device,
                "io.retry",
                [2, 3, 600],
                none,
            ),
            (
                Mark::IoHedge {
                    winner: 1,
                    loser: 3,
                    cancel_ns: 700,
                },
                Layer::Device,
                "io.hedge",
                [1, 3, 700],
                none,
            ),
            (
                Mark::Predict {
                    fd: 5,
                    predicted_ns: 800,
                    class: 4,
                    generation: 2,
                },
                Layer::App,
                "sleds.predict",
                [5, 800, 4 | 2 << 8],
                none,
            ),
            (
                Mark::Recal { generation: 2 },
                Layer::App,
                "sleds.recal",
                [2, 0, 0],
                none,
            ),
            (
                Mark::RingSubmit {
                    submitted: 6,
                    serviced: 5,
                },
                Layer::Syscall,
                "ring.submit",
                [6, 5, 0],
                none,
            ),
            (
                Mark::RingReap { reaped: 4 },
                Layer::Syscall,
                "ring.reap",
                [4, 0, 0],
                |m| m.ring_reaps += 1,
            ),
            (
                Mark::ProgEval {
                    len: 12,
                    matched: true,
                    estimate_ns: 900,
                },
                Layer::Syscall,
                "prog.eval",
                [12, 1, 900],
                |m| m.prog_evals += 1,
            ),
        ];
        for (mark, layer, name, args, bump) in table {
            let mut t = Tracer::enabled();
            t.set_tenant(3);
            t.mark(SimTime::from_nanos(42), mark);
            let ev = TraceEvent {
                seq: 0,
                ts: SimTime::from_nanos(42),
                dur: SimDuration::ZERO,
                phase: EventPhase::Mark,
                layer,
                tenant: 3,
                name,
                args,
            };
            assert_eq!(t.events(), [ev], "{mark:?}");
            let mut want = Metrics {
                trace_high_water: 1,
                ..Metrics::default()
            };
            bump(&mut want);
            assert_eq!(t.metrics(), Some(&want), "{mark:?}");
        }
    }

    /// A 16-sector disk read at sector 8, submitted at 1 µs, serviced in
    /// 30 ns after `queue_wait`. Billed to tenant 9, not the tracer's
    /// tenant, so the tests show which one the events carry.
    fn disk_read(queue_wait: SimDuration) -> DeviceCost {
        DeviceCost {
            tenant: 9,
            class: 1,
            submit: SimTime::from_nanos(1_000),
            queue_wait,
            service: SimDuration::from_nanos(30),
            sector: 8,
            sectors: 16,
            bytes: 16 * 512,
            ..DeviceCost::default()
        }
    }

    #[test]
    fn device_phases_nest_back_to_back() {
        let mut t = Tracer::enabled();
        t.device(
            &disk_read(SimDuration::ZERO),
            "disk.read",
            20,
            &[
                ("disk.seek", SimDuration::from_nanos(10)),
                ("disk.rotation", SimDuration::ZERO),
                ("disk.transfer", SimDuration::from_nanos(20)),
            ],
        );
        let evs = t.events();
        assert_eq!(evs.len(), 3); // zero-length phase (and zero queue wait) elided
        assert_eq!(evs[0].name, "disk.read");
        assert_eq!(evs[1].name, "disk.seek");
        assert_eq!(evs[1].ts.as_nanos(), 1_000);
        assert_eq!(evs[2].name, "disk.transfer");
        assert_eq!(evs[2].ts.as_nanos(), 1_010);
        assert_eq!(t.metrics().unwrap().device[1].reads, 1);
    }

    #[test]
    fn queue_wait_leads_the_phase_train() {
        let mut t = Tracer::enabled();
        t.set_tenant(2);
        t.device(
            &disk_read(SimDuration::from_nanos(40)),
            "disk.read",
            20,
            &[
                ("disk.seek", SimDuration::from_nanos(10)),
                ("disk.transfer", SimDuration::from_nanos(20)),
            ],
        );
        let evs = t.events();
        assert_eq!(evs.len(), 4);
        // The command span covers wait + service from the submission instant.
        assert_eq!(evs[0].name, "disk.read");
        assert_eq!(evs[0].ts.as_nanos(), 1_000);
        assert_eq!(evs[0].dur.as_nanos(), 70);
        // Every event names the billed tenant, not the tracer's.
        assert!(evs.iter().all(|e| e.tenant == 9));
        // queue_wait is the first nested phase; service phases follow it.
        assert_eq!(evs[1].name, "queue_wait");
        assert_eq!(evs[1].ts.as_nanos(), 1_000);
        assert_eq!(evs[1].dur.as_nanos(), 40);
        assert_eq!(evs[2].name, "disk.seek");
        assert_eq!(evs[2].ts.as_nanos(), 1_040);
        assert_eq!(evs[3].name, "disk.transfer");
        assert_eq!(evs[3].ts.as_nanos(), 1_050);
        // Nested phases sum exactly to the span.
        let nested: u64 = evs[1..].iter().map(|e| e.dur.as_nanos()).sum();
        assert_eq!(nested, evs[0].dur.as_nanos());
        // Metrics: the service histogram sees service time only.
        let m = t.metrics().unwrap();
        assert_eq!(m.device[1].service.max(), 30);
    }

    struct Host {
        tracer: Tracer,
        now: SimTime,
    }

    impl SpanHost for Host {
        fn tracer(&mut self) -> &mut Tracer {
            &mut self.tracer
        }
        fn now(&self) -> SimTime {
            self.now
        }
    }

    #[test]
    fn nested_spans_close_innermost_first_at_the_hosts_clock() {
        let mut h = Host {
            tracer: Tracer::enabled(),
            now: SimTime::from_nanos(10),
        };
        let got = span(&mut h, Layer::App, "wc", [0; 3], |h| {
            h.now += SimDuration::from_nanos(5);
            span(h, Layer::Syscall, "read", [3, 0, 0], |h| {
                h.now += SimDuration::from_nanos(70);
                42
            })
        });
        assert_eq!(got, 42);
        let evs = h.tracer.events();
        let shape: Vec<_> = evs
            .iter()
            .map(|e| (e.phase, e.name, e.ts.as_nanos(), e.dur.as_nanos()))
            .collect();
        assert_eq!(
            shape,
            [
                (EventPhase::Begin, "wc", 10, 0),
                (EventPhase::Begin, "read", 15, 0),
                (EventPhase::End, "read", 85, 70),
                (EventPhase::End, "wc", 85, 75),
            ]
        );
        let m = h.tracer.metrics().unwrap();
        assert_eq!((m.app_spans, m.syscalls), (1, 1));
    }

    #[test]
    fn unbalanced_end_is_ignored() {
        let mut t = Tracer::enabled();
        t.end(SimTime::from_nanos(5));
        assert!(t.events().is_empty());
    }
}
