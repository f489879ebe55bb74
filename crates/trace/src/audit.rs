//! Prediction-accuracy audit: post-hoc over a trace buffer, and
//! continuous via [`AccuracyTracker`].
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

use std::collections::BTreeMap;

use sleds_sim_core::stats::Ecdf;

use crate::event::{class_label, unpack_class_generation, EventPhase, Layer, TraceEvent};
use crate::metrics::Metrics;

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
    /// Every audited pair, in fd order.
    pub samples: Vec<AccuracySample>,
    /// Predictions whose fd saw no traced reads (e.g. `find -latency`
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
    // fd -> (predicted_ns, class, generation, actual_ns so far, faulted).
    let mut by_fd: BTreeMap<u64, (u64, u64, u64, u64, bool)> = BTreeMap::new();
    let mut report = AuditReport::default();
    let mut current_generation = 0u64;
    // The fd of the read/pread span currently open, if any. The simulator
    // is single-threaded and synchronous, so a fault or retry mark emitted
    // between a read's begin and end belongs to that read.
    let mut open_read_fd: Option<u64> = None;
    for ev in events {
        match ev.phase {
            EventPhase::Begin
                if ev.layer == Layer::Syscall && (ev.name == "read" || ev.name == "pread") =>
            {
                open_read_fd = Some(ev.args[0]);
            }
            EventPhase::Mark if ev.name == "sleds.predict" => {
                let (class, generation) = unpack_class_generation(ev.args[2]);
                by_fd.insert(ev.args[0], (ev.args[1], class, generation, 0, false));
            }
            EventPhase::Mark if ev.name == "sleds.recal" => {
                current_generation = ev.args[0];
            }
            EventPhase::Mark if ev.name == "fault.inject" || ev.name == "io.retry" => {
                if let Some(entry) = open_read_fd.and_then(|fd| by_fd.get_mut(&fd)) {
                    entry.4 = true;
                }
            }
            EventPhase::End
                if ev.layer == Layer::Syscall && (ev.name == "read" || ev.name == "pread") =>
            {
                let fd = ev.args[0];
                open_read_fd = None;
                let Some(entry) = by_fd.get_mut(&fd) else {
                    continue;
                };
                if entry.2 != current_generation {
                    // Prediction from a stale table; discard the pair.
                    by_fd.remove(&fd);
                    report.cross_generation += 1;
                    continue;
                }
                entry.3 = entry.3.saturating_add(ev.dur.as_nanos());
            }
            _ => {}
        }
    }

    let mut by_class: BTreeMap<u64, Vec<AccuracySample>> = BTreeMap::new();
    for (fd, (predicted_ns, class, generation, actual_ns, faulted)) in by_fd {
        if actual_ns == 0 {
            report.unread_predictions += 1;
            continue;
        }
        let s = AccuracySample {
            fd,
            class,
            generation,
            predicted_ns,
            actual_ns,
            faulted,
        };
        if faulted {
            report.faulted_requests += 1;
        }
        report.samples.push(s);
        by_class.entry(class).or_default().push(s);
    }

    for (class, samples) in by_class {
        if let Some(c) = summarize_class(class, &samples) {
            report.classes.push(c);
        }
    }
    report
}

/// The continuous half of the audit: pairs predictions with read spans as
/// they happen, feeding completed pairs into the per-class
/// [`AccuracyWindow`](crate::metrics::AccuracyWindow)s of a [`Metrics`]
/// snapshot — so `FSLEDS_STAT` reports rolling prediction error mid-run
/// instead of only after the fact.
///
/// The tracer owns one and drives it from its hooks; it holds only
/// integer state keyed by fd (fds are never reused), so it replays
/// bit-identically.
#[derive(Debug, Default)]
pub struct AccuracyTracker {
    /// The sleds-table generation currently in force (last `FSLEDS_RECAL`).
    generation: u64,
    /// Open predictions: fd -> (class, generation, predicted_ns, actual_ns).
    open: BTreeMap<u64, (u64, u64, u64, u64)>,
}

impl AccuracyTracker {
    /// Records a new prediction for `fd`, finalizing any previous one on
    /// the same fd into `metrics`.
    pub fn note_predict(
        &mut self,
        metrics: &mut Metrics,
        fd: u64,
        predicted_ns: u64,
        class: u64,
        generation: u64,
    ) {
        if let Some(prev) = self.open.insert(fd, (class, generation, predicted_ns, 0)) {
            Self::finalize(metrics, prev);
        }
    }

    /// Accumulates one traced read span into the open prediction for `fd`.
    /// A read under a different generation than the prediction drops the
    /// pair (counted in `metrics.accuracy_cross_generation`).
    pub fn note_read(&mut self, metrics: &mut Metrics, fd: u64, dur_ns: u64) {
        let Some(entry) = self.open.get_mut(&fd) else {
            return;
        };
        if entry.1 != self.generation {
            self.open.remove(&fd);
            metrics.accuracy_cross_generation += 1;
            return;
        }
        entry.3 = entry.3.saturating_add(dur_ns);
    }

    /// Finalizes the open prediction for `fd` (the file was closed).
    pub fn note_close(&mut self, metrics: &mut Metrics, fd: u64) {
        if let Some(entry) = self.open.remove(&fd) {
            Self::finalize(metrics, entry);
        }
    }

    /// Notes a sleds-table generation bump (`FSLEDS_RECAL`).
    pub fn note_recal(&mut self, generation: u64) {
        self.generation = generation;
    }

    /// Copies still-open pairs into `metrics` without consuming them, so a
    /// snapshot taken mid-file still reflects the reads so far.
    pub fn flush_into(&self, metrics: &mut Metrics) {
        for entry in self.open.values() {
            Self::finalize(metrics, *entry);
        }
    }

    fn finalize(
        metrics: &mut Metrics,
        (class, _generation, predicted_ns, actual_ns): (u64, u64, u64, u64),
    ) {
        if actual_ns > 0 {
            metrics.note_accuracy(class, predicted_ns, actual_ns);
        }
    }
}

impl AuditReport {
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
    use crate::tracer::Tracer;
    use sleds_sim_core::SimTime;

    fn traced_read(t: &mut Tracer, fd: u64, at: u64, dur: u64) {
        t.begin(Layer::Syscall, "read", SimTime::from_nanos(at), [fd, 0, 0]);
        t.end(SimTime::from_nanos(at + dur));
    }

    #[test]
    fn pairs_predictions_with_read_spans_per_class() {
        let mut t = Tracer::enabled();
        // fd 3 on disk: predicted 1ms, actual 2 reads x 600us = 1.2ms.
        t.predict(SimTime::ZERO, 3, 1_000_000, 1, 0);
        traced_read(&mut t, 3, 100, 600_000);
        traced_read(&mut t, 3, 700_200, 600_000);
        // fd 4 on tape: predicted 2s, actual 1s.
        t.predict(SimTime::from_nanos(2_000_000), 4, 2_000_000_000, 4, 0);
        traced_read(&mut t, 4, 3_000_000, 1_000_000_000);
        // fd 5: predicted but never read.
        t.predict(SimTime::from_nanos(5_000_000), 5, 42, 1, 0);
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
        t.predict(SimTime::ZERO, 3, 1_000_000, 1, 0);
        t.recal(SimTime::from_nanos(50), 1);
        traced_read(&mut t, 3, 100, 999); // stale; must not pair
                                          // A fresh prediction under generation 1 pairs normally.
        t.predict(SimTime::from_nanos(2_000), 4, 5_000, 1, 1);
        traced_read(&mut t, 4, 3_000, 4_000);
        let rep = audit_accuracy(&t.events());
        assert_eq!(rep.cross_generation, 1);
        assert_eq!(rep.samples.len(), 1);
        assert_eq!(rep.samples[0].fd, 4);
        assert_eq!(rep.samples[0].generation, 1);
        assert_eq!(rep.samples[0].actual_ns, 4_000);
    }

    #[test]
    fn tracker_maintains_rolling_windows() {
        let mut m = Metrics::default();
        let mut tr = AccuracyTracker::default();
        tr.note_predict(&mut m, 3, 1_000, 1, 0);
        tr.note_read(&mut m, 3, 800);
        tr.note_read(&mut m, 3, 400);
        // Snapshot mid-file sees the open pair.
        let mut snap = m.clone();
        tr.flush_into(&mut snap);
        assert_eq!(snap.device[1].accuracy.len(), 1);
        assert_eq!(
            snap.device[1].accuracy.samples().next(),
            Some((1_000, 1_200))
        );
        // The live metrics see it only on close.
        assert!(m.device[1].accuracy.is_empty());
        tr.note_close(&mut m, 3);
        assert_eq!(m.device[1].accuracy.len(), 1);
        // Reads with no open prediction are ignored.
        tr.note_read(&mut m, 99, 5);
        assert_eq!(m.device[1].accuracy.len(), 1);
    }

    #[test]
    fn tracker_drops_cross_generation_pairs() {
        let mut m = Metrics::default();
        let mut tr = AccuracyTracker::default();
        tr.note_predict(&mut m, 3, 1_000, 1, 0);
        tr.note_recal(1);
        tr.note_read(&mut m, 3, 800);
        assert_eq!(m.accuracy_cross_generation, 1);
        tr.note_close(&mut m, 3);
        assert!(m.device[1].accuracy.is_empty());
    }

    #[test]
    fn json_is_deterministic_and_balanced() {
        let mut t = Tracer::enabled();
        t.predict(SimTime::ZERO, 3, 500, 1, 0);
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
