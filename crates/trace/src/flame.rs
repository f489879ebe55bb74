//! Folded-stack ("flamegraph") summary of a trace.
//!
//! Spans are recovered from begin/end pairs and complete events, nested by
//! interval containment (the simulator is single-threaded, so containment
//! is unambiguous), and each stack path's *self* time — its duration minus
//! its direct children — is accumulated. The output is the classic folded
//! format, one `path self_ns` line per stack, sorted by path, which both
//! humans and `flamegraph.pl`-style tools can read.

use std::collections::BTreeMap;

use crate::event::{EventPhase, TraceEvent};

struct Span {
    start: u64,
    end: u64,
    seq: u64,
    label: String,
}

fn collect_spans(events: &[TraceEvent]) -> Vec<Span> {
    let mut spans = Vec::new();
    let mut open: Vec<(&TraceEvent, usize)> = Vec::new();
    for ev in events {
        match ev.phase {
            EventPhase::Begin => open.push((ev, 0)),
            EventPhase::End => {
                // A truncated buffer can orphan an End; ignore it.
                if let Some((b, _)) = open.pop() {
                    spans.push(Span {
                        start: b.ts.as_nanos(),
                        end: ev.ts.as_nanos(),
                        seq: b.seq,
                        label: format!("{}:{}", b.layer.label(), b.name),
                    });
                }
            }
            EventPhase::Complete => spans.push(Span {
                start: ev.ts.as_nanos(),
                end: ev.ts.as_nanos().saturating_add(ev.dur.as_nanos()),
                seq: ev.seq,
                label: format!("{}:{}", ev.layer.label(), ev.name),
            }),
            EventPhase::Mark => {}
        }
    }
    // Zero-width spans carry no time and only clutter the fold.
    spans.retain(|s| s.end > s.start);
    // Outermost-first at equal starts; seq breaks exact ties.
    spans.sort_by(|a, b| {
        a.start
            .cmp(&b.start)
            .then(b.end.cmp(&a.end))
            .then(a.seq.cmp(&b.seq))
    });
    spans
}

/// Renders the folded-stack summary of a trace buffer.
pub fn folded_stacks(events: &[TraceEvent]) -> String {
    let spans = collect_spans(events);
    let mut totals: BTreeMap<String, u64> = BTreeMap::new();
    // Active ancestry: (end, path, own duration, direct-child time).
    let mut stack: Vec<(u64, String, u64, u64)> = Vec::new();
    fn flush(totals: &mut BTreeMap<String, u64>, entry: (u64, String, u64, u64)) {
        let (_, path, dur, child) = entry;
        let self_ns = dur.saturating_sub(child);
        if self_ns > 0 {
            *totals.entry(path).or_insert(0) += self_ns;
        }
    }
    for s in &spans {
        while stack.last().is_some_and(|top| top.0 <= s.start) {
            if let Some(entry) = stack.pop() {
                flush(&mut totals, entry);
            }
        }
        let path = match stack.last() {
            Some((_, parent, _, _)) => format!("{};{}", parent, s.label),
            None => s.label.clone(),
        };
        let dur = s.end - s.start;
        if let Some(top) = stack.last_mut() {
            top.3 += dur;
        }
        stack.push((s.end, path, dur, 0));
    }
    while let Some(entry) = stack.pop() {
        flush(&mut totals, entry);
    }
    let mut out = String::new();
    for (path, ns) in &totals {
        out.push_str(path);
        out.push(' ');
        out.push_str(&ns.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::DeviceCost;
    use crate::event::Layer;
    use crate::tracer::Tracer;
    use sleds_sim_core::{SimDuration, SimTime};

    #[test]
    fn nests_device_time_under_syscall() {
        let mut t = Tracer::enabled();
        t.begin(Layer::Syscall, "read", SimTime::from_nanos(0), [0; 3]);
        let ev = DeviceCost {
            class: 1,
            submit: SimTime::from_nanos(100),
            service: SimDuration::from_nanos(500),
            sectors: 8,
            bytes: 8 * 512,
            ..DeviceCost::default()
        };
        t.device(
            &ev,
            "disk.read",
            300,
            &[
                ("disk.seek", SimDuration::from_nanos(200)),
                ("disk.transfer", SimDuration::from_nanos(300)),
            ],
        );
        t.end(SimTime::from_nanos(1_000));
        let folded = folded_stacks(&t.events());
        let lines: Vec<&str> = folded.lines().collect();
        assert!(lines.contains(&"syscall:read 500"));
        assert!(lines.contains(&"syscall:read;device:disk.read;device:disk.seek 200"));
        assert!(lines.contains(&"syscall:read;device:disk.read;device:disk.transfer 300"));
        // The command span's time is fully attributed to its phases.
        assert!(!folded.contains("syscall:read;device:disk.read 0"));
    }

    #[test]
    fn sibling_spans_accumulate() {
        let mut t = Tracer::enabled();
        for i in 0..2u64 {
            t.begin(
                Layer::Syscall,
                "read",
                SimTime::from_nanos(i * 1_000),
                [0; 3],
            );
            t.end(SimTime::from_nanos(i * 1_000 + 400));
        }
        let folded = folded_stacks(&t.events());
        assert_eq!(folded, "syscall:read 800\n");
    }

    #[test]
    fn empty_trace_folds_to_nothing() {
        assert_eq!(folded_stacks(&[]), "");
    }
}
