//! Host-time spans recorded by the harness around its own calls into the
//! simulator's public functions.
//!
//! Spans live only in the benchmark: the simulator has no host timers
//! (ROADMAP item 2c). They are kept in a pre-sized `Vec`, written out once
//! at exit in Chrome `trace_event` form, and folded into per-name *self
//! time* — a span's duration minus the part its children cover — which is
//! what the host per-layer figures are made of.

use std::collections::BTreeMap;

use crate::hostclock::HostClock;

/// Upper bound on recorded spans; beyond it spans are counted as dropped,
/// never silently lost.
const SPAN_CAPACITY: usize = 1 << 16;

const NO_PARENT: u32 = u32::MAX;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    pass: u32,
    /// How many homogeneous units of work the span covered (calls, files,
    /// MiB, ...): per-unit cost is self time divided by this.
    units: f64,
}

/// An open span; hand it back to [`Recorder::end`].
#[must_use]
pub struct Open {
    idx: u32,
    /// Set when the clock was read at the start.
    start_ns: Option<u64>,
}

/// Per-name fold of the recorded spans.
#[derive(Clone, Copy, Default)]
pub struct Fold {
    /// Duration minus the part child spans cover.
    pub self_ns: u64,
    /// Duration, children included.
    pub total_ns: u64,
    pub units: f64,
}

impl Fold {
    /// Self time per unit of work, zero when the span never ran.
    pub fn ns_per_unit(&self) -> f64 {
        if self.units > 0.0 {
            self.self_ns as f64 / self.units
        } else {
            0.0
        }
    }
}

pub struct Recorder {
    clock: HostClock,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<u32>,
    pass: u32,
    dropped: u64,
}

impl Recorder {
    pub fn new(clock: HostClock) -> Recorder {
        Recorder {
            clock,
            enabled: false,
            spans: Vec::new(),
            stack: Vec::new(),
            pass: 0,
            dropped: 0,
        }
    }

    /// Turns recording on for the traced repetition.
    pub fn enable(&mut self) {
        self.enabled = true;
        self.spans.reserve_exact(SPAN_CAPACITY);
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a new pass; spans carry the id so one pass reads as one lane
    /// in the trace viewer.
    pub fn next_pass(&mut self) {
        self.pass += 1;
    }

    /// Opens a span. A disabled recorder does not read the clock.
    pub fn begin(&mut self, name: &'static str) -> Open {
        self.open(name, false)
    }

    /// Opens a span whose duration [`Recorder::end`] returns whether or not
    /// spans are being recorded: the set-up and measured phases.
    pub fn phase(&mut self, name: &'static str) -> Open {
        self.open(name, true)
    }

    fn open(&mut self, name: &'static str, timed: bool) -> Open {
        if !self.enabled && !timed {
            return Open {
                idx: NO_PARENT,
                start_ns: None,
            };
        }
        let start_ns = self.clock.now_ns();
        let mut idx = NO_PARENT;
        if self.enabled && self.spans.len() == SPAN_CAPACITY {
            self.dropped += 1;
        } else if self.enabled {
            idx = self.spans.len() as u32;
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: 0,
                parent: self.stack.last().copied().unwrap_or(NO_PARENT),
                pass: self.pass,
                units: 0.0,
            });
            self.stack.push(idx);
        }
        Open {
            idx,
            start_ns: Some(start_ns),
        }
    }

    /// Closes `open`, noting how many units of work it covered. Returns
    /// its duration in nanoseconds (zero if the clock was never read).
    pub fn end(&mut self, open: Open, units: f64) -> u64 {
        let Some(start_ns) = open.start_ns else {
            return 0;
        };
        let now = self.clock.now_ns();
        if open.idx != NO_PARENT {
            let popped = self.stack.pop();
            assert_eq!(popped, Some(open.idx), "spans must close innermost first");
            let span = &mut self.spans[open.idx as usize];
            span.end_ns = now;
            span.units = units;
        }
        now - start_ns
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Folds the spans into per-name self time and unit counts.
    pub fn fold(&self) -> BTreeMap<&'static str, Fold> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Fold> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let f = out.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            f.self_ns += dur.saturating_sub(covered);
            f.total_ns += dur;
            f.units += s.units;
        }
        out
    }

    /// The spans as a Chrome `trace_event` document (open in
    /// `chrome://tracing` or Perfetto). Timestamps are host microseconds.
    pub fn chrome_json(&self, workload: &str) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 160);
        out.push_str("{\"displayTimeUnit\": \"ms\", \"otherData\": {");
        out.push_str(&format!(
            "\"workload\": \"{workload}\", \"clock\": \"host\", \"dropped_spans\": {}}},\n",
            self.dropped
        ));
        out.push_str("\"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {parent}, \"units\": {}}}}}{}\n",
                s.name,
                s.pass,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.units,
                if i + 1 < self.spans.len() { "," } else { "" },
            ));
        }
        out.push_str("]}\n");
        out
    }
}
