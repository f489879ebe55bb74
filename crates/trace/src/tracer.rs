//! The tracer the kernel owns.
//!
//! Disabled is the default and costs one pointer-null check per hook; no
//! allocation, no event, no metric. Enabled, every hook stamps the caller's
//! [`SimTime`] into the ring buffer — the tracer itself never advances the
//! clock or touches `Rusage`, so traced and untraced runs produce
//! byte-identical virtual results.

use sleds_sim_core::{SimDuration, SimTime};

use crate::audit::AccuracyTracker;
use crate::cost::DeviceCost;
use crate::event::{pack_class_generation, EventPhase, Layer, TraceEvent};
use crate::metrics::Metrics;
use crate::ring::RingBuffer;

/// Default ring-buffer capacity (events retained).
pub const DEFAULT_CAPACITY: usize = 1 << 16;

struct Inner {
    ring: RingBuffer,
    metrics: Metrics,
    tracker: AccuracyTracker,
    seq: u64,
    /// Open spans, innermost last. The simulator is single-threaded and
    /// synchronous, so begin/end nest like a call stack.
    stack: Vec<(Layer, &'static str, SimTime, [u64; 3])>,
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
    /// A disabled tracer: every hook is a null check.
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
                tracker: AccuracyTracker::default(),
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

    #[expect(
        clippy::too_many_arguments,
        reason = "the fields of one TraceEvent, passed apart so callers keep a split borrow of `inner`"
    )]
    fn emit(
        inner: &mut Inner,
        tenant: u64,
        ts: SimTime,
        dur: SimDuration,
        phase: EventPhase,
        layer: Layer,
        name: &'static str,
        args: [u64; 3],
    ) {
        let seq = inner.seq;
        inner.seq += 1;
        inner.ring.push(TraceEvent {
            seq,
            ts,
            dur,
            phase,
            layer,
            tenant,
            name,
            args,
        });
        // Mirror the ring's truncation state into the metrics so an
        // `FSLEDS_STAT` snapshot can flag audits over a clipped buffer.
        inner.metrics.trace_dropped = inner.ring.dropped();
        inner.metrics.trace_high_water = inner.ring.high_water();
    }

    /// Opens a span. Crate-private: outside this crate the only way to
    /// open one is [`span`], which also closes it.
    pub(crate) fn begin(&mut self, layer: Layer, name: &'static str, ts: SimTime, args: [u64; 3]) {
        let tenant = self.tenant;
        let Some(inner) = self.inner.as_mut() else {
            return;
        };
        inner.stack.push((layer, name, ts, args));
        Self::emit(
            inner,
            tenant,
            ts,
            SimDuration::ZERO,
            EventPhase::Begin,
            layer,
            name,
            args,
        );
    }

    /// Closes the innermost open span, stamping its duration and feeding
    /// the layer's latency histogram. Unbalanced calls are ignored.
    pub(crate) fn end(&mut self, ts: SimTime) {
        let tenant = self.tenant;
        let Some(inner) = self.inner.as_mut() else {
            return;
        };
        let Some((layer, name, began, args)) = inner.stack.pop() else {
            return;
        };
        let dur = ts.duration_since(began);
        match layer {
            Layer::Syscall => {
                inner.metrics.note_syscall(dur.as_nanos());
                // Feed the continuous accuracy tracker: read spans extend
                // the open prediction on their fd, close finalizes it.
                match name {
                    "read" | "pread" => {
                        inner
                            .tracker
                            .note_read(&mut inner.metrics, args[0], dur.as_nanos());
                    }
                    "close" => inner.tracker.note_close(&mut inner.metrics, args[0]),
                    _ => {}
                }
            }
            Layer::App => inner.metrics.app_spans += 1,
            Layer::Cache | Layer::Device => {}
        }
        Self::emit(inner, tenant, ts, dur, EventPhase::End, layer, name, args);
    }

    /// Emits a zero-width marker.
    pub fn instant(&mut self, layer: Layer, name: &'static str, ts: SimTime, args: [u64; 3]) {
        let tenant = self.tenant;
        let Some(inner) = self.inner.as_mut() else {
            return;
        };
        Self::emit(
            inner,
            tenant,
            ts,
            SimDuration::ZERO,
            EventPhase::Mark,
            layer,
            name,
            args,
        );
    }

    /// Records a page-cache hit (`args`: page index within file, ino).
    pub fn cache_hit(&mut self, ts: SimTime, page: u64, ino: u64) {
        let tenant = self.tenant;
        let Some(inner) = self.inner.as_mut() else {
            return;
        };
        inner.metrics.cache_hits += 1;
        Self::emit(
            inner,
            tenant,
            ts,
            SimDuration::ZERO,
            EventPhase::Mark,
            Layer::Cache,
            "cache.hit",
            [page, 1, ino],
        );
    }

    /// Records a page-cache miss run (`pages` missing pages starting at `page`).
    pub fn cache_miss(&mut self, ts: SimTime, page: u64, pages: u64, ino: u64) {
        let tenant = self.tenant;
        let Some(inner) = self.inner.as_mut() else {
            return;
        };
        inner.metrics.cache_misses += 1;
        Self::emit(
            inner,
            tenant,
            ts,
            SimDuration::ZERO,
            EventPhase::Mark,
            Layer::Cache,
            "cache.miss",
            [page, pages, ino],
        );
    }

    /// Records an eviction (`dirty` is 1 when the page needed writeback).
    pub fn cache_evict(&mut self, ts: SimTime, page: u64, dirty: u64, ino: u64) {
        let tenant = self.tenant;
        let Some(inner) = self.inner.as_mut() else {
            return;
        };
        inner.metrics.cache_evictions += 1;
        Self::emit(
            inner,
            tenant,
            ts,
            SimDuration::ZERO,
            EventPhase::Mark,
            Layer::Cache,
            "cache.evict",
            [page, dirty, ino],
        );
    }

    /// Records one injected device fault (`args`: device class code,
    /// attempt number that failed, cost of the failed command in ns).
    pub fn fault_inject(&mut self, ts: SimTime, class: u64, attempt: u64, cost_ns: u64) {
        let tenant = self.tenant;
        let Some(inner) = self.inner.as_mut() else {
            return;
        };
        inner.metrics.faults_injected += 1;
        Self::emit(
            inner,
            tenant,
            ts,
            SimDuration::ZERO,
            EventPhase::Mark,
            Layer::Device,
            "fault.inject",
            [class, attempt, cost_ns],
        );
    }

    /// Records one hedged read: a redundant request was issued and the
    /// loser cancelled (`args`: winning device class code, losing device
    /// class code, cancel cost in ns).
    pub fn io_hedge(&mut self, ts: SimTime, winner_class: u64, loser_class: u64, cancel_ns: u64) {
        let tenant = self.tenant;
        let Some(inner) = self.inner.as_mut() else {
            return;
        };
        inner.metrics.hedges += 1;
        Self::emit(
            inner,
            tenant,
            ts,
            SimDuration::ZERO,
            EventPhase::Mark,
            Layer::Device,
            "io.hedge",
            [winner_class, loser_class, cancel_ns],
        );
    }

    /// Records one retry backoff (`args`: device class code, attempt that
    /// just failed, backoff wait in ns).
    pub fn io_retry(&mut self, ts: SimTime, class: u64, attempt: u64, backoff_ns: u64) {
        let tenant = self.tenant;
        let Some(inner) = self.inner.as_mut() else {
            return;
        };
        inner.metrics.io_retries += 1;
        Self::emit(
            inner,
            tenant,
            ts,
            SimDuration::ZERO,
            EventPhase::Mark,
            Layer::Device,
            "io.retry",
            [class, attempt, backoff_ns],
        );
    }

    /// Records one dirty-page writeback.
    pub fn cache_writeback(&mut self, ts: SimTime, page: u64, ino: u64) {
        let tenant = self.tenant;
        let Some(inner) = self.inner.as_mut() else {
            return;
        };
        inner.metrics.cache_writebacks += 1;
        Self::emit(
            inner,
            tenant,
            ts,
            SimDuration::ZERO,
            EventPhase::Mark,
            Layer::Cache,
            "cache.writeback",
            [page, 1, ino],
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
    /// carry the tracer's own tenant stamp, like every other hook.
    pub fn device(
        &mut self,
        ev: &DeviceCost,
        name: &'static str,
        transfer_ns: u64,
        phases: &[(&'static str, SimDuration)],
    ) {
        let tenant = self.tenant;
        let Some(inner) = self.inner.as_mut() else {
            return;
        };
        inner.metrics.note_device(ev, transfer_ns);
        Self::emit(
            inner,
            tenant,
            ev.submit,
            ev.queue_wait + ev.service,
            EventPhase::Complete,
            Layer::Device,
            name,
            [ev.sector, ev.sectors, ev.class],
        );
        let mut at = ev.submit;
        let train = [("queue_wait", ev.queue_wait)];
        for &(pname, pdur) in train.iter().chain(phases) {
            if pdur.is_zero() {
                continue;
            }
            Self::emit(
                inner,
                tenant,
                at,
                pdur,
                EventPhase::Complete,
                Layer::Device,
                pname,
                [ev.sector, 0, ev.class],
            );
            at += pdur;
        }
    }

    /// Records a delivery-time prediction for `fd` (nanoseconds, device
    /// class of the file's home device, sleds-table generation the
    /// estimate was priced from). The accuracy audit pairs this marker
    /// with the subsequent traced read spans on the same fd, and the
    /// generation lets it discard pairs that straddle a recalibration.
    pub fn predict(
        &mut self,
        ts: SimTime,
        fd: u64,
        predicted_ns: u64,
        class: u64,
        generation: u64,
    ) {
        let tenant = self.tenant;
        let Some(inner) = self.inner.as_mut() else {
            return;
        };
        inner
            .tracker
            .note_predict(&mut inner.metrics, fd, predicted_ns, class, generation);
        Self::emit(
            inner,
            tenant,
            ts,
            SimDuration::ZERO,
            EventPhase::Mark,
            Layer::App,
            "sleds.predict",
            [fd, predicted_ns, pack_class_generation(class, generation)],
        );
    }

    /// Records one serviced ring batch (`args`: ops submitted when the
    /// batch entered, ops actually serviced this crossing).
    pub fn ring_submit(&mut self, ts: SimTime, submitted: u64, serviced: u64) {
        let tenant = self.tenant;
        let Some(inner) = self.inner.as_mut() else {
            return;
        };
        inner.metrics.ring_enters += 1;
        inner.metrics.ring_ops += serviced;
        Self::emit(
            inner,
            tenant,
            ts,
            SimDuration::ZERO,
            EventPhase::Mark,
            Layer::Syscall,
            "ring.submit",
            [submitted, serviced, 0],
        );
    }

    /// Records one completion-queue reap (`reaped` completions returned).
    /// Reaping crosses nothing, so this is the only trace of it.
    pub fn ring_reap(&mut self, ts: SimTime, reaped: u64) {
        let tenant = self.tenant;
        let Some(inner) = self.inner.as_mut() else {
            return;
        };
        inner.metrics.ring_reaps += 1;
        Self::emit(
            inner,
            tenant,
            ts,
            SimDuration::ZERO,
            EventPhase::Mark,
            Layer::Syscall,
            "ring.reap",
            [reaped, 0, 0],
        );
    }

    /// Records one in-kernel pick-program evaluation (`args`: program
    /// length in instructions, verdict 1/0, estimate in ns when finite).
    pub fn prog_eval(&mut self, ts: SimTime, prog_len: u64, matched: u64, estimate_ns: u64) {
        let tenant = self.tenant;
        let Some(inner) = self.inner.as_mut() else {
            return;
        };
        inner.metrics.prog_evals += 1;
        Self::emit(
            inner,
            tenant,
            ts,
            SimDuration::ZERO,
            EventPhase::Mark,
            Layer::Syscall,
            "prog.eval",
            [prog_len, matched, estimate_ns],
        );
    }

    /// Records a sleds-table recalibration: predictions emitted after this
    /// marker were priced from table generation `generation`.
    pub fn recal(&mut self, ts: SimTime, generation: u64) {
        let tenant = self.tenant;
        let Some(inner) = self.inner.as_mut() else {
            return;
        };
        inner.tracker.note_recal(generation);
        Self::emit(
            inner,
            tenant,
            ts,
            SimDuration::ZERO,
            EventPhase::Mark,
            Layer::App,
            "sleds.recal",
            [generation, 0, 0],
        );
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

    /// Owned metrics snapshot with the accuracy tracker's still-open
    /// prediction pairs folded in; `None` when disabled. This is what
    /// `FSLEDS_STAT` and `FSLEDS_RECAL` hand out: mid-run, a prediction
    /// whose file is still being read has partial actual time, and the
    /// snapshot should reflect it without disturbing the live tracker.
    pub fn metrics_snapshot(&self) -> Option<Metrics> {
        self.inner.as_ref().map(|i| {
            let mut m = i.metrics.clone();
            i.tracker.flush_into(&mut m);
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

    /// Total events emitted (including overwritten ones).
    pub fn emitted(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.seq)
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
        t.cache_hit(SimTime::ZERO, 0, 0);
        assert!(!t.is_enabled());
        assert!(t.events().is_empty());
        assert!(t.metrics().is_none());
        assert_eq!(t.emitted(), 0);
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

    /// A 16-sector disk read at sector 8, submitted at 1 µs, serviced in
    /// 30 ns after `queue_wait`. Billed to tenant 9 so the tests show the
    /// tracer stamping its own tenant instead.
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
        assert_eq!(evs[0].tenant, 2);
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
