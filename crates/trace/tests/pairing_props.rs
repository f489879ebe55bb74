//! The live and post-hoc prediction audits run one pairing machine; this
//! checks both against the pairing rules restated here.
//!
//! Each case drives one `Tracer` through a generated sequence:
//! predictions on several fds (some priced from a stale table), `sleds.recal`
//! fences, read and pread spans with fault and retry marks inside and
//! outside them, closes, new fds and re-predictions after reads. Then
//! `audit_accuracy` over the events must report exactly the model's pairs,
//! unread and cross-generation counts, and the tracer's snapshot windows
//! must hold exactly the model's read pairs per class. Case count scales
//! with `SLEDS_CHECK_CASES`.

use std::collections::BTreeMap;

use sleds_sim_core::{check, DetRng, SimDuration, SimTime};
use sleds_trace::{
    audit_accuracy, span, Layer, Mark, SpanHost, Tracer, ACCURACY_WINDOW, NUM_DEVICE_CLASSES,
};

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

/// One prediction and the reads paired with it so far.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Pair {
    fd: u64,
    class: u64,
    generation: u64,
    predicted_ns: u64,
    actual_ns: u64,
    faulted: bool,
}

/// The pairing rules, stated over the generated steps rather than the
/// events: a read under another generation drops its pair; a fault or
/// retry inside a read tags it; close and re-prediction settle it; a pair
/// with no read time is unread.
#[derive(Default)]
struct Model {
    generation: u64,
    open: BTreeMap<u64, Pair>,
    read: Vec<Pair>,
    unread: usize,
    cross_generation: usize,
}

impl Model {
    fn settle(&mut self, pair: Pair) {
        if pair.actual_ns == 0 {
            self.unread += 1;
        } else {
            self.read.push(pair);
        }
    }
}

fn fault_or_retry(rng: &mut DetRng) -> Mark {
    let (class, attempt) = (rng.range_u64(0, 5), rng.range_u64(1, 4));
    let ns = rng.range_u64(1, 1 << 30);
    if rng.chance(0.5) {
        Mark::FaultInject {
            class,
            attempt,
            cost_ns: ns,
        }
    } else {
        Mark::IoRetry {
            class,
            attempt,
            backoff_ns: ns,
        }
    }
}

/// Plays one generated sequence into a tracer and the model.
fn play(rng: &mut DetRng) -> (Tracer, Model) {
    let mut h = Host {
        tracer: Tracer::enabled(),
        now: SimTime::ZERO,
    };
    let mut m = Model::default();
    let mut fds = vec![3u64];
    let mut next_fd = 4;
    // At most one read pair per step, so no class window overflows.
    for _ in 0..rng.range_usize(1, ACCURACY_WINDOW + 1) {
        h.now += SimDuration::from_nanos(rng.range_u64(1, 1_000));
        let fd = fds[rng.range_usize(0, fds.len())];
        match rng.range_u64(0, 12) {
            0..=2 => {
                let stale = m.generation > 0 && rng.chance(0.2);
                let pair = Pair {
                    fd,
                    class: rng.range_u64(0, NUM_DEVICE_CLASSES as u64),
                    generation: m.generation - u64::from(stale),
                    predicted_ns: rng.range_u64(1, 1 << 24),
                    actual_ns: 0,
                    faulted: false,
                };
                let mark = Mark::Predict {
                    fd,
                    predicted_ns: pair.predicted_ns,
                    class: pair.class,
                    generation: pair.generation,
                };
                h.tracer.mark(h.now, mark);
                if let Some(prev) = m.open.insert(fd, pair) {
                    m.settle(prev);
                }
            }
            3 => {
                m.generation += 1;
                let generation = m.generation;
                h.tracer.mark(h.now, Mark::Recal { generation });
            }
            4..=7 => {
                let name = if rng.chance(0.5) { "read" } else { "pread" };
                let dur = if rng.chance(0.1) {
                    0
                } else {
                    rng.range_u64(1, 1 << 20)
                };
                let faults = if rng.chance(0.3) {
                    rng.range_usize(1, 3)
                } else {
                    0
                };
                let marks: Vec<Mark> = (0..faults).map(|_| fault_or_retry(rng)).collect();
                span(&mut h, Layer::Syscall, name, [fd, 0, 0], |h| {
                    for &mark in &marks {
                        h.tracer.mark(h.now, mark);
                    }
                    h.now += SimDuration::from_nanos(dur);
                });
                if let Some(pair) = m.open.get_mut(&fd) {
                    pair.faulted |= !marks.is_empty();
                    if pair.generation != m.generation {
                        m.open.remove(&fd);
                        m.cross_generation += 1;
                    } else {
                        pair.actual_ns += dur;
                    }
                }
            }
            8 => {
                let mark = fault_or_retry(rng);
                h.tracer.mark(h.now, mark);
            }
            9 => {
                span(&mut h, Layer::Syscall, "close", [fd, 0, 0], |h| {
                    h.now += SimDuration::from_nanos(300);
                });
                if let Some(pair) = m.open.remove(&fd) {
                    m.settle(pair);
                }
                // fds are never reused.
                fds.retain(|&f| f != fd);
                if fds.is_empty() {
                    fds.push(next_fd);
                    next_fd += 1;
                }
            }
            _ => {
                span(&mut h, Layer::Syscall, "open", [0, 0, 0], |h| {
                    h.now += SimDuration::from_nanos(200);
                });
                fds.push(next_fd);
                next_fd += 1;
            }
        }
    }
    for pair in std::mem::take(&mut m.open).into_values() {
        m.settle(pair);
    }
    (h.tracer, m)
}

/// Sorted `(predicted, actual)` pairs of one class.
fn class_pairs(pairs: impl Iterator<Item = (u64, u64, u64)>, class: u64) -> Vec<(u64, u64)> {
    let mut out: Vec<(u64, u64)> = pairs
        .filter(|&(c, ..)| c == class)
        .map(|(_, p, a)| (p, a))
        .collect();
    out.sort_unstable();
    out
}

#[test]
fn live_windows_and_the_post_hoc_audit_pair_alike() {
    check::run("live_windows_and_the_post_hoc_audit_pair_alike", |rng| {
        let (tracer, mut model) = play(rng);
        let audit = audit_accuracy(&tracer.events());
        // The audit against the model: every pair, fd order, stable.
        model.read.sort_by_key(|p| p.fd);
        let got: Vec<Pair> = audit
            .samples
            .iter()
            .map(|s| Pair {
                fd: s.fd,
                class: s.class,
                generation: s.generation,
                predicted_ns: s.predicted_ns,
                actual_ns: s.actual_ns,
                faulted: s.faulted,
            })
            .collect();
        assert_eq!(got, model.read);
        assert_eq!(audit.unread_predictions, model.unread);
        assert_eq!(audit.cross_generation, model.cross_generation);
        let faulted = model.read.iter().filter(|p| p.faulted).count();
        assert_eq!(audit.faulted_requests, faulted);
        // The live windows against the audit, class by class.
        let snap = tracer.metrics_snapshot().unwrap();
        for (class, row) in snap.device.iter().enumerate() {
            let class = class as u64;
            let live = row.accuracy.samples().map(|(p, a)| (class, p, a));
            let post_hoc = audit
                .samples
                .iter()
                .map(|s| (s.class, s.predicted_ns, s.actual_ns));
            assert_eq!(
                class_pairs(live, class),
                class_pairs(post_hoc, class),
                "class {class}"
            );
        }
        assert_eq!(
            snap.accuracy_cross_generation,
            audit.cross_generation as u64
        );
    });
}
