//! Per-layer monotonic counters and latency histograms.
//!
//! Built on [`LogHistogram`] from `sim-core::stats`: power-of-two
//! nanosecond buckets, integer-only, so the metrics replay bit-identically
//! and are safe to snapshot from kernel paths (`FSLEDS_STAT`).
//!
//! Device-class rows are indexed by the same class codes the prediction
//! audit uses (`sleds_trace::class_label` decodes them), so a recalibration
//! pass can join "what we predicted per class" against "what we measured
//! per class" without any remapping.

use std::collections::VecDeque;

use sleds_sim_core::index;
use sleds_sim_core::stats::LogHistogram;

use crate::cost::DeviceCost;
use crate::event::class_label;

/// Number of device classes tracked (memory, disk, CD-ROM, network, tape).
pub const NUM_DEVICE_CLASSES: usize = 5;

/// Rolling (prediction, actual) pairs retained per class.
pub const ACCURACY_WINDOW: usize = 128;

/// A rolling window of audited (predicted, actual) delivery-time pairs.
///
/// Integer nanoseconds only, bounded at [`ACCURACY_WINDOW`] samples
/// (drop-oldest), so it is safe to embed in kernel-path metrics and
/// replays bit-identically. Error ratios are derived on demand and never
/// stored.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AccuracyWindow {
    /// Retained `(predicted_ns, actual_ns)` pairs, oldest first.
    samples: VecDeque<(u64, u64)>,
}

impl AccuracyWindow {
    /// Records one completed pair, evicting the oldest beyond the window.
    pub fn push(&mut self, predicted_ns: u64, actual_ns: u64) {
        if self.samples.len() == ACCURACY_WINDOW {
            self.samples.pop_front();
        }
        self.samples.push_back((predicted_ns, actual_ns));
    }

    /// Pairs currently retained.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no pairs have been retained.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Iterates retained `(predicted_ns, actual_ns)` pairs, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.samples.iter().copied()
    }

    /// Mean signed relative error `(predicted - actual) / actual` over the
    /// window; `None` when empty. Positive means overprediction.
    pub fn mean_rel_err(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let sum: f64 = self
            .samples
            .iter()
            .map(|&(p, a)| (p as f64 - a as f64) / (a as f64).max(1.0))
            .sum();
        Some(sum / self.samples.len() as f64)
    }

    /// Mean absolute relative error over the window; `None` when empty.
    pub fn mean_abs_rel_err(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let sum: f64 = self
            .samples
            .iter()
            .map(|&(p, a)| ((p as f64 - a as f64) / (a as f64).max(1.0)).abs())
            .sum();
        Some(sum / self.samples.len() as f64)
    }
}

/// Counters and service-time histograms for one device class.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClassMetrics {
    /// Read commands serviced.
    pub reads: u64,
    /// Write commands serviced.
    pub writes: u64,
    /// Per-command service time, nanoseconds.
    pub service: LogHistogram,
    /// Per-read-command time to the first byte: service time minus the
    /// data-moving phases (transfer/stream/link). This is the observable
    /// the sleds-table latency column models, so its p50 drives
    /// recalibration.
    pub first_byte: LogHistogram,
    /// Bytes moved by read commands.
    pub read_bytes: u64,
    /// Nanoseconds read commands spent in data-moving phases.
    pub read_transfer_ns: u64,
    /// Rolling audited (predicted, actual) delivery-time pairs for files
    /// served by this class — the continuous accuracy observatory.
    pub accuracy: AccuracyWindow,
}

impl ClassMetrics {
    /// Observed streaming bandwidth in bytes per second: bytes moved by
    /// read commands over the time spent moving them. `None` until a read
    /// command has spent time transferring. This is the observable the
    /// sleds-table bandwidth column models.
    pub fn effective_bandwidth(&self) -> Option<f64> {
        if self.read_transfer_ns == 0 {
            return None;
        }
        Some(self.read_bytes as f64 * 1e9 / self.read_transfer_ns as f64)
    }
}

/// Per-layer metrics snapshot.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Syscall spans completed.
    pub syscalls: u64,
    /// Per-syscall latency (entry to exit), nanoseconds.
    pub syscall_latency: LogHistogram,
    /// Page-cache hits observed.
    pub cache_hits: u64,
    /// Page-cache misses (major-fault runs) observed.
    pub cache_misses: u64,
    /// Pages evicted.
    pub cache_evictions: u64,
    /// Dirty pages written back.
    pub cache_writebacks: u64,
    /// Device command counters and service histograms, indexed by class code.
    pub device: [ClassMetrics; NUM_DEVICE_CLASSES],
    /// Device commands failed by an injected fault.
    pub faults_injected: u64,
    /// Device commands reissued after a transient fault.
    pub io_retries: u64,
    /// Redundant (hedged) read commands issued against replica devices;
    /// each carries exactly one cancelled loser per issuance.
    pub hedges: u64,
    /// Application-level spans completed.
    pub app_spans: u64,
    /// Ring batches serviced (`ring_enter` calls that crossed).
    pub ring_enters: u64,
    /// Ring operations serviced across all batches.
    pub ring_ops: u64,
    /// Completion-queue reaps (crossing-free).
    pub ring_reaps: u64,
    /// In-kernel pick-program evaluations.
    pub prog_evals: u64,
    /// Events the trace ring overwrote (drop-oldest overflow). Non-zero
    /// means audits over the event buffer saw a truncated input.
    pub trace_dropped: u64,
    /// Ring high-water mark: most events retained at once.
    pub trace_high_water: u64,
    /// Read spans whose prediction was made under an older sleds-table
    /// generation and therefore excluded from the accuracy windows.
    pub accuracy_cross_generation: u64,
}

impl Metrics {
    /// Records one completed syscall span.
    pub fn note_syscall(&mut self, dur_ns: u64) {
        self.syscalls += 1;
        self.syscall_latency.record(dur_ns);
    }

    /// Records one served device command. The class rows see `ev.service`
    /// alone, so queueing leaves their observables unchanged; who waited
    /// behind whom is the command queues' record (`CmdQueue`'s tenant rows).
    /// `transfer_ns` is the portion of the service spent in data-moving
    /// phases; the remainder is first-byte time (positioning, rpc, mount...).
    pub fn note_device(&mut self, ev: &DeviceCost, transfer_ns: u64) {
        let dur_ns = ev.service.as_nanos();
        let idx = index(ev.class).min(NUM_DEVICE_CLASSES - 1);
        let m = &mut self.device[idx];
        if ev.write {
            m.writes += 1;
        } else {
            m.reads += 1;
            m.first_byte.record(dur_ns.saturating_sub(transfer_ns));
            m.read_bytes += ev.bytes;
            m.read_transfer_ns += transfer_ns;
        }
        m.service.record(dur_ns);
    }

    /// Records one completed (prediction, actual) accuracy pair.
    pub fn note_accuracy(&mut self, class: u64, predicted_ns: u64, actual_ns: u64) {
        let idx = index(class).min(NUM_DEVICE_CLASSES - 1);
        self.device[idx].accuracy.push(predicted_ns, actual_ns);
    }

    /// Total device commands across every class.
    pub fn device_commands(&self) -> u64 {
        self.device.iter().map(|m| m.reads + m.writes).sum()
    }

    /// Observability health warnings: conditions under which the other
    /// numbers in this snapshot are clipped or partial. Empty means the
    /// snapshot saw everything. Surfaced verbatim in `FSLEDS_STAT`
    /// text output and Chrome trace metadata.
    pub fn warnings(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.trace_dropped > 0 {
            out.push(format!(
                "TRUNCATED trace ring: dropped {} events (high water {}); audits and \
                 exports over the event buffer saw a clipped window",
                self.trace_dropped, self.trace_high_water
            ));
        }
        if self.accuracy_cross_generation > 0 {
            out.push(format!(
                "{} reads excluded from prediction-accuracy windows \
                 (sleds-table generation changed mid-read)",
                self.accuracy_cross_generation
            ));
        }
        out
    }

    /// Compact human-readable dump, one line per populated row.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "syscalls {} (mean {} ns, p90 {} ns, p999 {} ns, max {} ns)\n",
            self.syscalls,
            self.syscall_latency.mean(),
            self.syscall_latency.p90(),
            self.syscall_latency.p999(),
            self.syscall_latency.max(),
        ));
        out.push_str(&format!(
            "cache hits {} misses {} evictions {} writebacks {}\n",
            self.cache_hits, self.cache_misses, self.cache_evictions, self.cache_writebacks,
        ));
        for (code, m) in self.device.iter().enumerate() {
            if m.reads + m.writes == 0 {
                continue;
            }
            out.push_str(&format!(
                "device[{}] reads {} writes {} service p50 {} ns p90 {} ns p99 {} ns \
                 p999 {} ns max {} ns\n",
                class_label(code as u64),
                m.reads,
                m.writes,
                m.service.p50(),
                m.service.p90(),
                m.service.p99(),
                m.service.p999(),
                m.service.max(),
            ));
            if m.reads > 0 {
                let bw = m
                    .effective_bandwidth()
                    .map(|b| format!("{:.2} MB/s", b / 1e6))
                    .unwrap_or_else(|| "n/a".to_string());
                out.push_str(&format!(
                    "device[{}] first_byte p50 {} ns effective bandwidth {}\n",
                    class_label(code as u64),
                    m.first_byte.p50(),
                    bw,
                ));
            }
            if !m.accuracy.is_empty() {
                out.push_str(&format!(
                    "device[{}] prediction error |mean| {:.3} over {} requests\n",
                    class_label(code as u64),
                    m.accuracy.mean_abs_rel_err().unwrap_or(0.0),
                    m.accuracy.len(),
                ));
            }
        }
        if self.faults_injected + self.io_retries > 0 {
            out.push_str(&format!(
                "faults injected {} retries {}\n",
                self.faults_injected, self.io_retries
            ));
        }
        if self.hedges > 0 {
            out.push_str(&format!("hedged reads {}\n", self.hedges));
        }
        if self.app_spans > 0 {
            out.push_str(&format!("app spans {}\n", self.app_spans));
        }
        if self.ring_enters + self.prog_evals > 0 {
            out.push_str(&format!(
                "ring enters {} ops {} reaps {} prog evals {}\n",
                self.ring_enters, self.ring_ops, self.ring_reaps, self.prog_evals
            ));
        }
        for w in self.warnings() {
            out.push_str(&format!("warning: {w}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sleds_sim_core::SimDuration;

    /// A served read of `bytes` holding a `class` device for `service_ns`.
    fn served(class: u64, service_ns: u64, bytes: u64) -> DeviceCost {
        DeviceCost {
            class,
            service: SimDuration::from_nanos(service_ns),
            bytes,
            ..DeviceCost::default()
        }
    }

    #[test]
    fn note_paths_update_the_right_rows() {
        let mut m = Metrics::default();
        m.note_syscall(5_000);
        m.note_syscall(7_000);
        m.note_device(&served(1, 18_000_000, 65_536), 7_000_000);
        m.note_device(
            &DeviceCost {
                write: true,
                ..served(1, 20_000_000, 65_536)
            },
            8_000_000,
        );
        m.note_device(&served(4, 40_000_000_000, 1 << 20), 1_000_000_000);
        assert_eq!(m.syscalls, 2);
        assert_eq!(m.syscall_latency.count(), 2);
        assert_eq!(m.device[1].reads, 1);
        assert_eq!(m.device[1].writes, 1);
        assert_eq!(m.device[4].reads, 1);
        assert_eq!(m.device_commands(), 3);
        let text = m.render_text();
        assert!(text.contains("device[disk]"));
        assert!(text.contains("device[tape]"));
        assert!(!text.contains("device[memory]"));
    }

    #[test]
    fn out_of_range_class_clamps() {
        let mut m = Metrics::default();
        m.note_device(&served(77, 10, 0), 0);
        assert_eq!(m.device[NUM_DEVICE_CLASSES - 1].reads, 1);
    }

    #[test]
    fn first_byte_and_bandwidth_split_reads_only() {
        let mut m = Metrics::default();
        // Read: 18ms service, 7ms of it transferring 64KiB.
        m.note_device(&served(1, 18_000_000, 65_536), 7_000_000);
        // Write: must not feed the read-side observables.
        m.note_device(
            &DeviceCost {
                write: true,
                ..served(1, 30_000_000, 65_536)
            },
            9_000_000,
        );
        let d = &m.device[1];
        assert_eq!(d.first_byte.count(), 1);
        assert_eq!(d.first_byte.p50(), 11_000_000);
        assert_eq!(d.read_bytes, 65_536);
        assert_eq!(d.read_transfer_ns, 7_000_000);
        let bw = d.effective_bandwidth().unwrap();
        assert!((bw - 65_536.0 * 1e9 / 7_000_000.0).abs() < 1e-6);
        assert_eq!(d.service.count(), 2);
    }

    #[test]
    fn effective_bandwidth_needs_transfer_time() {
        let m = ClassMetrics::default();
        assert!(m.effective_bandwidth().is_none());
    }

    #[test]
    fn accuracy_window_rolls_and_summarizes() {
        let mut w = AccuracyWindow::default();
        assert!(w.mean_abs_rel_err().is_none());
        w.push(150, 100); // +50%
        w.push(50, 100); // -50%
        assert_eq!(w.len(), 2);
        assert!((w.mean_rel_err().unwrap() - 0.0).abs() < 1e-12);
        assert!((w.mean_abs_rel_err().unwrap() - 0.5).abs() < 1e-12);
        for i in 0..2 * ACCURACY_WINDOW as u64 {
            w.push(i, i + 1);
        }
        assert_eq!(w.len(), ACCURACY_WINDOW);
        let oldest = ACCURACY_WINDOW as u64;
        assert_eq!(w.samples().next(), Some((oldest, oldest + 1)));
    }

    #[test]
    fn truncation_is_loud_in_render() {
        let mut m = Metrics::default();
        assert!(!m.render_text().contains("TRUNCATED"));
        m.trace_dropped = 9;
        m.trace_high_water = 16;
        assert!(m.render_text().contains("TRUNCATED"));
    }
}
