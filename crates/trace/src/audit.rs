//! Prediction-accuracy audit: post-hoc over a trace buffer
//! ([`audit_accuracy`]), and continuous in the tracer's per-class
//! [`AccuracyWindow`](crate::AccuracyWindow)s. Both run one pairing
//! machine, `Pairing`, over the same events.
//!
//! For every fd that published a `sleds.predict` marker (the
//! `sleds_total_delivery_time` estimate captured when a pick session
//! started), the audit sums the traced durations of the subsequent
//! `read`/`pread` syscall spans on that fd — the actual virtual time spent
//! delivering the data, device waits and cache copies included — and
//! reports the error distribution per device class. File descriptors are
//! never reused by the simulated kernel, so the pairing is exact.
//!
//! Predictions are tagged with the sleds-table generation they were
//! computed under (packed into the marker's class argument), and a
//! `sleds.recal` marker announces each `FSLEDS_RECAL` generation bump.
//! Reads are paired only with predictions made under the generation
//! current at read time: a prediction from a stale table says nothing
//! about the refreshed one, so cross-generation pairs are dropped and
//! counted instead of polluting the error distributions.
//!
//! A pair is settled when its fd is closed, when the fd is predicted
//! again, or when the events run out; one with no read time is unread. A
//! fault or retry mark inside one of its read spans tags it faulted.

use std::collections::BTreeMap;

use sleds_sim_core::stats::Ecdf;

use crate::event::{class_label, unpack_class_generation, EventPhase, Layer, TraceEvent};

/// One audited (prediction, actual) pair.
#[derive(Clone, Copy, Debug)]
pub struct AccuracySample {
    /// File descriptor the prediction was made for.
    pub fd: u64,
    /// Device class code of the file's home device.
    pub class: u64,
    /// Sleds-table generation the prediction was computed under.
    pub generation: u64,
    /// Predicted delivery time, nanoseconds.
    pub predicted_ns: u64,
    /// Traced actual delivery time (sum of read-span durations), nanoseconds.
    pub actual_ns: u64,
    /// True when an injected fault or a retry landed inside one of the
    /// paired read spans — the prediction was scored against a degraded
    /// device, not a clean one.
    pub faulted: bool,
}

impl AccuracySample {
    /// Signed relative error `(predicted - actual) / actual`.
    pub fn rel_err(&self) -> f64 {
        (self.predicted_ns as f64 - self.actual_ns as f64) / self.actual_ns as f64
    }
}

/// Error distribution for one device class.
#[derive(Clone, Debug)]
pub struct ClassAccuracy {
    /// Device class code.
    pub class: u64,
    /// Human label for the class.
    pub label: &'static str,
    /// Number of audited requests.
    pub n: usize,
    /// Mean predicted delivery time, seconds.
    pub mean_predicted_s: f64,
    /// Mean actual delivery time, seconds.
    pub mean_actual_s: f64,
    /// Mean signed relative error (positive = overprediction).
    pub mean_rel_err: f64,
    /// Mean absolute relative error.
    pub mean_abs_rel_err: f64,
    /// Median absolute relative error.
    pub p50_abs_rel_err: f64,
    /// 90th-percentile absolute relative error.
    pub p90_abs_rel_err: f64,
    /// Worst absolute relative error.
    pub max_abs_rel_err: f64,
}

/// Summarizes a set of samples as one [`ClassAccuracy`] row; `None` for an
/// empty set. `class` must be uniform across `samples`.
pub fn summarize_class(class: u64, samples: &[AccuracySample]) -> Option<ClassAccuracy> {
    if samples.is_empty() {
        return None;
    }
    let n = samples.len();
    let inv = 1.0 / n as f64;
    let mean_predicted_s = samples.iter().map(|s| s.predicted_ns as f64).sum::<f64>() * inv / 1e9;
    let mean_actual_s = samples.iter().map(|s| s.actual_ns as f64).sum::<f64>() * inv / 1e9;
    let abs_errs: Vec<f64> = samples.iter().map(|s| s.rel_err().abs()).collect();
    let mean_rel_err = samples.iter().map(|s| s.rel_err()).sum::<f64>() * inv;
    let mean_abs_rel_err = abs_errs.iter().sum::<f64>() * inv;
    let (p50, p90, max) = match Ecdf::of(&abs_errs) {
        Some(e) => (e.quantile(0.50), e.quantile(0.90), e.quantile(1.0)),
        None => (0.0, 0.0, 0.0),
    };
    Some(ClassAccuracy {
        class,
        label: class_label(class),
        n,
        mean_predicted_s,
        mean_actual_s,
        mean_rel_err,
        mean_abs_rel_err,
        p50_abs_rel_err: p50,
        p90_abs_rel_err: p90,
        max_abs_rel_err: max,
    })
}

/// The audit result: all samples plus per-class distributions.
#[derive(Clone, Debug, Default)]
pub struct AuditReport {
    /// Every audited pair, in fd order; one fd's pairs in prediction order.
    pub samples: Vec<AccuracySample>,
    /// Predictions settled with no traced read time (e.g. `find -latency`
    /// estimates that pruned the file) — excluded from the distributions.
    pub unread_predictions: usize,
    /// Predictions dropped because their fd was read under a different
    /// sleds-table generation than the prediction was made under.
    pub cross_generation: usize,
    /// Audited pairs whose reads were hit by injected faults or retries.
    pub faulted_requests: usize,
    /// Per-class error distributions, in class-code order.
    pub classes: Vec<ClassAccuracy>,
}

/// Runs the audit over a trace buffer.
pub fn audit_accuracy(events: &[TraceEvent]) -> AuditReport {
    let mut pairing = Pairing::default();
    let mut report = AuditReport::default();
    for ev in events {
        if let Some(settled) = pairing.observe(ev) {
            report.note(settled);
        }
    }
    pairing.pending().for_each(|settled| report.note(settled));
    // Stable: a re-predicted fd keeps its pairs in prediction order.
    report.samples.sort_by_key(|s| s.fd);

    let mut by_class: BTreeMap<u64, Vec<AccuracySample>> = BTreeMap::new();
    for s in &report.samples {
        by_class.entry(s.class).or_default().push(*s);
    }
    for (class, samples) in by_class {
        if let Some(c) = summarize_class(class, &samples) {
            report.classes.push(c);
        }
    }
    report
}

/// How a prediction pair ended.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Settled {
    /// Settled with reads: a sample.
    Read(AccuracySample),
    /// Settled with no reads.
    Unread,
    /// Dropped: its fd was read under another sleds-table generation.
    CrossGeneration,
}

/// The pairing machine: pairs each `sleds.predict` mark with the read
/// spans that follow it on its fd. It holds only integer state keyed by
/// fd (fds are never reused), so it replays bit-identically.
#[derive(Debug, Default)]
pub(crate) struct Pairing {
    /// The sleds-table generation in force (the last `sleds.recal`).
    generation: u64,
    /// Open pairs by fd; `actual_ns` is the read time so far.
    open: BTreeMap<u64, AccuracySample>,
    /// The fd of the read or pread span now open. The simulator is
    /// single-threaded and synchronous, so a fault or retry mark emitted
    /// inside a read belongs to that read.
    reading: Option<u64>,
}

impl Pairing {
    /// Feeds one event; returns the pair it settled, if any.
    pub(crate) fn observe(&mut self, ev: &TraceEvent) -> Option<Settled> {
        use EventPhase::{Begin, End, Mark};
        match (ev.phase, ev.layer, ev.name) {
            (Begin, Layer::Syscall, "read" | "pread") => self.reading = Some(ev.args[0]),
            (End, Layer::Syscall, "read" | "pread") => {
                self.reading = None;
                let fd = ev.args[0];
                let pair = self.open.get_mut(&fd)?;
                if pair.generation != self.generation {
                    self.open.remove(&fd);
                    return Some(Settled::CrossGeneration);
                }
                pair.actual_ns = pair.actual_ns.saturating_add(ev.dur.as_nanos());
            }
            (End, Layer::Syscall, "close") => return self.open.remove(&ev.args[0]).map(settle),
            (Mark, Layer::App, "sleds.predict") => {
                let (class, generation) = unpack_class_generation(ev.args[2]);
                let pair = AccuracySample {
                    fd: ev.args[0],
                    class,
                    generation,
                    predicted_ns: ev.args[1],
                    actual_ns: 0,
                    faulted: false,
                };
                return self.open.insert(pair.fd, pair).map(settle);
            }
            (Mark, Layer::App, "sleds.recal") => self.generation = ev.args[0],
            (Mark, Layer::Device, "fault.inject" | "io.retry") => {
                if let Some(pair) = self.reading.and_then(|fd| self.open.get_mut(&fd)) {
                    pair.faulted = true;
                }
            }
            _ => {}
        }
        None
    }

    /// How every still-open pair would settle now, in fd order; the pairs
    /// stay open.
    pub(crate) fn pending(&self) -> impl Iterator<Item = Settled> + '_ {
        self.open.values().map(|&pair| settle(pair))
    }
}

fn settle(pair: AccuracySample) -> Settled {
    if pair.actual_ns == 0 {
        Settled::Unread
    } else {
        Settled::Read(pair)
    }
}

impl AuditReport {
    fn note(&mut self, settled: Settled) {
        match settled {
            Settled::Read(pair) => {
                self.faulted_requests += usize::from(pair.faulted);
                self.samples.push(pair);
            }
            Settled::Unread => self.unread_predictions += 1,
            Settled::CrossGeneration => self.cross_generation += 1,
        }
    }

    /// Serializes the report in the house results-JSON style
    /// (cf. `results/AUDIT_recal.json`). Hand-rolled and
    /// fixed-precision so identical runs serialize identically.
    pub fn to_json(&self, regenerate: &str) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"audit\": \"prediction accuracy: sleds_total_delivery_time vs traced actual delivery time\",\n");
        out.push_str(&format!("  \"regenerate\": \"{regenerate}\",\n"));
        out.push_str("  \"units\": {\"predicted\": \"seconds\", \"actual\": \"seconds\", \"errors\": \"relative (predicted-actual)/actual\"},\n");
        out.push_str(&format!(
            "  \"audited_requests\": {},\n  \"unread_predictions\": {},\n  \"cross_generation\": {},\n  \"faulted_requests\": {},\n",
            self.samples.len(),
            self.unread_predictions,
            self.cross_generation,
            self.faulted_requests
        ));
        out.push_str("  \"classes\": [\n");
        for (i, c) in self.classes.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "    {{\"class\": \"{}\", \"n\": {}, \"mean_predicted_s\": {:.6}, \"mean_actual_s\": {:.6}, \"mean_rel_err\": {:.4}, \"mean_abs_rel_err\": {:.4}, \"p50_abs_rel_err\": {:.4}, \"p90_abs_rel_err\": {:.4}, \"max_abs_rel_err\": {:.4}}}",
                c.label,
                c.n,
                c.mean_predicted_s,
                c.mean_actual_s,
                c.mean_rel_err,
                c.mean_abs_rel_err,
                c.p50_abs_rel_err,
                c.p90_abs_rel_err,
                c.max_abs_rel_err
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// One-line-per-class text table.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "audited {} requests ({} predictions unread, {} cross-generation, {} faulted)\n",
            self.samples.len(),
            self.unread_predictions,
            self.cross_generation,
            self.faulted_requests
        ));
        for c in &self.classes {
            out.push_str(&format!(
                "{:>8}: n={:<4} predicted {:>10.6}s actual {:>10.6}s rel_err mean {:+.3} |mean| {:.3} p50 {:.3} p90 {:.3} max {:.3}\n",
                c.label,
                c.n,
                c.mean_predicted_s,
                c.mean_actual_s,
                c.mean_rel_err,
                c.mean_abs_rel_err,
                c.p50_abs_rel_err,
                c.p90_abs_rel_err,
                c.max_abs_rel_err
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Mark;
    use crate::tracer::Tracer;
    use sleds_sim_core::SimTime;

    fn syscall(t: &mut Tracer, name: &'static str, fd: u64, at: u64, dur: u64) {
        t.begin(Layer::Syscall, name, SimTime::from_nanos(at), [fd, 0, 0]);
        t.end(SimTime::from_nanos(at + dur));
    }

    fn traced_read(t: &mut Tracer, fd: u64, at: u64, dur: u64) {
        syscall(t, "read", fd, at, dur);
    }

    fn predict(t: &mut Tracer, at: u64, fd: u64, predicted_ns: u64, class: u64, generation: u64) {
        let mark = Mark::Predict {
            fd,
            predicted_ns,
            class,
            generation,
        };
        t.mark(SimTime::from_nanos(at), mark);
    }

    #[test]
    fn pairs_predictions_with_read_spans_per_class() {
        let mut t = Tracer::enabled();
        // fd 3 on disk: predicted 1ms, actual 2 reads x 600us = 1.2ms.
        predict(&mut t, 0, 3, 1_000_000, 1, 0);
        traced_read(&mut t, 3, 100, 600_000);
        traced_read(&mut t, 3, 700_200, 600_000);
        // fd 4 on tape: predicted 2s, actual 1s.
        predict(&mut t, 2_000_000, 4, 2_000_000_000, 4, 0);
        traced_read(&mut t, 4, 3_000_000, 1_000_000_000);
        // fd 5: predicted but never read.
        predict(&mut t, 5_000_000, 5, 42, 1, 0);
        let rep = audit_accuracy(&t.events());
        assert_eq!(rep.samples.len(), 2);
        assert_eq!(rep.unread_predictions, 1);
        assert_eq!(rep.cross_generation, 0);
        assert_eq!(rep.classes.len(), 2);
        let disk = &rep.classes[0];
        assert_eq!(disk.label, "disk");
        assert_eq!(disk.n, 1);
        assert!((disk.mean_rel_err - (-1.0 / 6.0)).abs() < 1e-9);
        let tape = &rep.classes[1];
        assert_eq!(tape.label, "tape");
        assert!((tape.mean_rel_err - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cross_generation_reads_are_dropped_not_polluting() {
        let mut t = Tracer::enabled();
        // Prediction under generation 0, but the table is recalibrated
        // (generation 1) before any read lands: the pair must be dropped.
        predict(&mut t, 0, 3, 1_000_000, 1, 0);
        t.mark(SimTime::from_nanos(50), Mark::Recal { generation: 1 });
        traced_read(&mut t, 3, 100, 999); // stale; must not pair
                                          // A fresh prediction under generation 1 pairs normally.
        predict(&mut t, 2_000, 4, 5_000, 1, 1);
        traced_read(&mut t, 4, 3_000, 4_000);
        let rep = audit_accuracy(&t.events());
        assert_eq!(rep.cross_generation, 1);
        assert_eq!(rep.samples.len(), 1);
        assert_eq!(rep.samples[0].fd, 4);
        assert_eq!(rep.samples[0].generation, 1);
        assert_eq!(rep.samples[0].actual_ns, 4_000);
    }

    #[test]
    fn close_and_reprediction_settle_the_open_pair() {
        let mut t = Tracer::enabled();
        // fd 3: read, then predicted again — two pairs, in that order.
        predict(&mut t, 0, 3, 1_000, 1, 0);
        traced_read(&mut t, 3, 10, 800);
        predict(&mut t, 900, 3, 2_000, 1, 0);
        traced_read(&mut t, 3, 1_000, 1_500);
        // fd 4: predicted twice with no read between — one unread.
        predict(&mut t, 3_000, 4, 7, 2, 0);
        predict(&mut t, 3_001, 4, 9, 2, 0);
        syscall(&mut t, "close", 4, 3_002, 5);
        // A fault inside a read tags its pair; one outside tags nothing.
        predict(&mut t, 4_000, 5, 100, 3, 0);
        let fault = Mark::FaultInject {
            class: 3,
            attempt: 1,
            cost_ns: 50,
        };
        t.mark(SimTime::from_nanos(4_001), fault);
        t.begin(
            Layer::Syscall,
            "pread",
            SimTime::from_nanos(4_010),
            [5, 0, 0],
        );
        t.mark(SimTime::from_nanos(4_020), fault);
        t.end(SimTime::from_nanos(4_110));
        let rep = audit_accuracy(&t.events());
        let pairs: Vec<_> = rep
            .samples
            .iter()
            .map(|s| (s.fd, s.predicted_ns, s.actual_ns, s.faulted))
            .collect();
        assert_eq!(
            pairs,
            [
                (3, 1_000, 800, false),
                (3, 2_000, 1_500, false),
                (5, 100, 100, true)
            ]
        );
        assert_eq!((rep.unread_predictions, rep.faulted_requests), (2, 1));
    }

    #[test]
    fn tracker_maintains_rolling_windows() {
        let mut t = Tracer::enabled();
        predict(&mut t, 0, 3, 1_000, 1, 0);
        traced_read(&mut t, 3, 10, 800);
        traced_read(&mut t, 3, 900, 400);
        // A snapshot mid-file sees the open pair.
        let snap = t.metrics_snapshot().unwrap();
        assert_eq!(snap.device[1].accuracy.len(), 1);
        assert_eq!(
            snap.device[1].accuracy.samples().next(),
            Some((1_000, 1_200))
        );
        // The live metrics see it only on close.
        assert!(t.metrics().unwrap().device[1].accuracy.is_empty());
        syscall(&mut t, "close", 3, 2_000, 5);
        assert_eq!(t.metrics().unwrap().device[1].accuracy.len(), 1);
        // Reads with no open prediction are ignored.
        traced_read(&mut t, 99, 3_000, 5);
        assert_eq!(t.metrics_snapshot().unwrap().device[1].accuracy.len(), 1);
    }

    #[test]
    fn tracker_drops_cross_generation_pairs() {
        let mut t = Tracer::enabled();
        predict(&mut t, 0, 3, 1_000, 1, 0);
        t.mark(SimTime::from_nanos(5), Mark::Recal { generation: 1 });
        traced_read(&mut t, 3, 10, 800);
        assert_eq!(t.metrics().unwrap().accuracy_cross_generation, 1);
        syscall(&mut t, "close", 3, 900, 5);
        assert!(t.metrics().unwrap().device[1].accuracy.is_empty());
    }

    #[test]
    fn json_is_deterministic_and_balanced() {
        let mut t = Tracer::enabled();
        predict(&mut t, 0, 3, 500, 1, 0);
        traced_read(&mut t, 3, 10, 400);
        let rep = audit_accuracy(&t.events());
        let a = rep.to_json("cargo run --release --example trace_viewer");
        let b = rep.to_json("cargo run --release --example trace_viewer");
        assert_eq!(a, b);
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        assert!(a.contains("\"audited_requests\": 1"));
        let text = rep.render_text();
        assert!(text.contains("disk"));
    }

    #[test]
    fn empty_trace_audits_empty() {
        let rep = audit_accuracy(&[]);
        assert!(rep.samples.is_empty());
        assert!(rep.classes.is_empty());
    }
}
