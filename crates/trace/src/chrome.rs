//! Chrome `trace_event` JSON export.
//!
//! Produces the "JSON Array Format" that `chrome://tracing` and Perfetto
//! load directly. Timestamps are microseconds; we format them as exact
//! integer-nanosecond fractions (`"{}.{:03}"`) rather than printing floats,
//! so two identical runs export byte-identical JSON.
//!
//! Lane layout: each tenant gets its own process lane (`pid` = tenant + 1,
//! so the main tenant lands on Chrome's conventional pid 1), and within a
//! tenant's lane device commands fan out onto per-class threads (`tid` =
//! 10 + class code) while syscall/cache/app events share `tid` 1. Metadata
//! events name the lanes so the viewer shows tenant and device labels
//! instead of bare numbers.

use std::collections::BTreeSet;

use crate::event::{class_label, EventPhase, Layer, TraceEvent};

/// `tid` for non-device events within a tenant's process lane.
const TID_MAIN: u64 = 1;

/// Base `tid` for device lanes: `TID_DEVICE_BASE + class_code`.
const TID_DEVICE_BASE: u64 = 10;

fn push_us(out: &mut String, ns: u64) {
    out.push_str(&format!("{}.{:03}", ns / 1_000, ns % 1_000));
}

/// Escapes a string for embedding inside a JSON string literal. Tenant
/// names are caller-supplied, so quotes, backslashes, and control bytes
/// must not be able to break the document.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out
}

/// The device-class code an event carries: a device mark (`fault.inject`,
/// `io.retry`, `io.hedge`) leads with it and ends with nanoseconds, every
/// other event carries it in `args[2]`.
fn class_code(ev: &TraceEvent) -> u64 {
    match (ev.layer, ev.phase) {
        (Layer::Device, EventPhase::Mark) => ev.args[0],
        _ => ev.args[2],
    }
}

fn lane(ev: &TraceEvent) -> (u64, u64) {
    let pid = ev.tenant + 1;
    let tid = if matches!(ev.layer, Layer::Device) {
        TID_DEVICE_BASE + class_code(ev)
    } else {
        TID_MAIN
    };
    (pid, tid)
}

fn push_metadata(out: &mut String, name: &str, pid: u64, tid: Option<u64>, label: &str) {
    out.push_str("{\"name\":\"");
    out.push_str(name);
    out.push_str(&format!("\",\"ph\":\"M\",\"pid\":{pid}"));
    if let Some(tid) = tid {
        out.push_str(&format!(",\"tid\":{tid}"));
    }
    out.push_str(",\"args\":{\"name\":\"");
    out.push_str(&json_escape(label));
    out.push_str("\"}}");
}

/// Serializes events into a Chrome trace JSON document.
///
/// `dropped` (from [`crate::Tracer::dropped`]) is recorded in the trace
/// metadata so a truncated buffer is visible in the viewer. Tenant lanes
/// fall back to `tenant-N` labels; use [`chrome_trace_json_named`] to
/// label them with registered tenant names.
pub fn chrome_trace_json(events: &[TraceEvent], dropped: u64) -> String {
    chrome_trace_json_named(events, dropped, 0, &[])
}

/// Serializes events into a Chrome trace JSON document with tenant lanes
/// labeled by name.
///
/// `high_water` is the ring's retention high-water mark; together with
/// `dropped` it lands in the trace metadata, and a non-zero drop count
/// adds an explicit entry to the metadata `warnings` array so a clipped
/// trace announces itself in the viewer.
///
/// `tenant_names` maps tenant ids to display names; tenants that appear in
/// the events without a row here are labeled `tenant-N`. Names are escaped,
/// so arbitrary registered names cannot break the JSON.
pub fn chrome_trace_json_named(
    events: &[TraceEvent],
    dropped: u64,
    high_water: u64,
    tenant_names: &[(u64, String)],
) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 128);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"otherData\":{\"clock\":\"virtual\",");
    out.push_str(&format!(
        "\"droppedEvents\":{dropped},\"ringHighWater\":{high_water},\"warnings\":["
    ));
    if dropped > 0 {
        out.push_str(&format!(
            "\"trace ring dropped {dropped} events (high water {high_water}): \
             oldest spans are missing from this trace\""
        ));
    }
    out.push_str("]},\"traceEvents\":[\n");
    // Metadata events first: name every (pid, tid) lane the events touch.
    let lanes: BTreeSet<(u64, u64)> = events.iter().map(lane).collect();
    let tenants: BTreeSet<u64> = lanes.iter().map(|&(pid, _)| pid - 1).collect();
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
    };
    for &tenant in &tenants {
        let label = tenant_names
            .iter()
            .find(|&&(id, _)| id == tenant)
            .map(|(_, name)| name.clone())
            .unwrap_or_else(|| format!("tenant-{tenant}"));
        sep(&mut out);
        push_metadata(&mut out, "process_name", tenant + 1, None, &label);
    }
    for &(pid, tid) in &lanes {
        let label = if tid == TID_MAIN {
            "vfs".to_string()
        } else {
            format!("device.{}", class_label(tid - TID_DEVICE_BASE))
        };
        sep(&mut out);
        push_metadata(&mut out, "thread_name", pid, Some(tid), &label);
    }
    for ev in events {
        sep(&mut out);
        let ph = match ev.phase {
            EventPhase::Begin => "B",
            EventPhase::End => "E",
            EventPhase::Complete => "X",
            EventPhase::Mark => "i",
        };
        out.push_str("{\"name\":\"");
        out.push_str(ev.name);
        out.push_str("\",\"cat\":\"");
        out.push_str(ev.layer.label());
        out.push_str("\",\"ph\":\"");
        out.push_str(ph);
        out.push_str("\",\"ts\":");
        push_us(&mut out, ev.ts.as_nanos());
        if matches!(ev.phase, EventPhase::Complete) {
            out.push_str(",\"dur\":");
            push_us(&mut out, ev.dur.as_nanos());
        }
        if matches!(ev.phase, EventPhase::Mark) {
            out.push_str(",\"s\":\"t\"");
        }
        let (pid, tid) = lane(ev);
        out.push_str(&format!(",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"a0\":"));
        out.push_str(&ev.args[0].to_string());
        out.push_str(",\"a1\":");
        out.push_str(&ev.args[1].to_string());
        out.push_str(",\"class\":\"");
        out.push_str(class_label(class_code(ev)));
        out.push_str("\"}}");
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Layer;
    use sleds_sim_core::{SimDuration, SimTime};

    fn sample() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                seq: 0,
                ts: SimTime::from_nanos(5_250),
                dur: SimDuration::ZERO,
                phase: EventPhase::Begin,
                layer: Layer::Syscall,
                tenant: 0,
                name: "read",
                args: [3, 4096, 0],
            },
            TraceEvent {
                seq: 1,
                ts: SimTime::from_nanos(6_000),
                dur: SimDuration::from_nanos(750),
                phase: EventPhase::Complete,
                layer: Layer::Device,
                tenant: 0,
                name: "disk.read",
                args: [8, 16, 1],
            },
            TraceEvent {
                seq: 2,
                ts: SimTime::from_nanos(7_000),
                dur: SimDuration::from_nanos(1_750),
                phase: EventPhase::End,
                layer: Layer::Syscall,
                tenant: 0,
                name: "read",
                args: [3, 4096, 0],
            },
        ]
    }

    #[test]
    fn exports_wellformed_phases_and_timestamps() {
        let json = chrome_trace_json(&sample(), 7);
        assert!(json.starts_with('{'));
        assert!(json.trim_end().ends_with('}'));
        assert!(json.contains("\"droppedEvents\":7"));
        assert!(json.contains("\"ph\":\"B\",\"ts\":5.250"));
        assert!(json.contains("\"ph\":\"X\",\"ts\":6.000,\"dur\":0.750"));
        assert!(json.contains("\"ph\":\"E\""));
        assert!(json.contains("\"class\":\"disk\""));
        // Main tenant keeps Chrome's conventional pid 1; device commands
        // land on the per-class thread lane.
        assert!(json.contains("\"pid\":1,\"tid\":1"));
        assert!(json.contains("\"pid\":1,\"tid\":11"));
        // Balanced braces/brackets — a cheap structural validity check.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn identical_inputs_export_identical_bytes() {
        let a = chrome_trace_json(&sample(), 0);
        let b = chrome_trace_json(&sample(), 0);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_trace_is_valid() {
        let json = chrome_trace_json(&[], 0);
        assert!(json.contains("\"traceEvents\":[\n\n]"));
    }

    #[test]
    fn tenants_map_to_pid_lanes_with_metadata() {
        let mut events = sample();
        events[1].tenant = 3;
        let names = vec![(3u64, "acct-\"batch\"\\scan".to_string())];
        let json = chrome_trace_json_named(&events, 0, 0, &names);
        // Tenant 3 → pid 4, device class 1 → tid 11.
        assert!(json.contains("\"pid\":4,\"tid\":11"));
        // Metadata labels both lanes; the tenant name is escaped.
        assert!(json.contains(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":4,\"args\":{\"name\":\"acct-\\\"batch\\\"\\\\scan\"}}"
        ));
        assert!(json.contains(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"tenant-0\"}}"
        ));
        assert!(json.contains(
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":4,\"tid\":11,\"args\":{\"name\":\"device.disk\"}}"
        ));
        assert!(json.contains(
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"vfs\"}}"
        ));
        let opens = json.matches('{').count();
        assert_eq!(opens, json.matches('}').count());
    }

    #[test]
    fn device_marks_share_their_class_lane() {
        let mut events = sample();
        for (i, (name, args)) in [
            ("fault.inject", [1, 2, 31_000]),
            ("io.retry", [1, 2, 250_000]),
            ("io.hedge", [1, 3, 41_000]),
        ]
        .into_iter()
        .enumerate()
        {
            events.push(TraceEvent {
                seq: 3 + i as u64,
                ts: SimTime::from_nanos(8_000),
                dur: SimDuration::ZERO,
                phase: EventPhase::Mark,
                layer: Layer::Device,
                tenant: 0,
                name,
                args,
            });
        }
        let json = chrome_trace_json(&events, 0);
        // The disk command and all three marks sit on the disk lane: no
        // lane keyed by a nanosecond count, none labelled unknown.
        assert_eq!(json.matches("\"thread_name\"").count(), 2);
        assert!(!json.contains("unknown"));
        for name in ["fault.inject", "io.retry", "io.hedge"] {
            assert!(json.contains(&format!(
                "\"name\":\"{name}\",\"cat\":\"device\",\"ph\":\"i\",\"ts\":8.000,\"s\":\"t\",\"pid\":1,\"tid\":11,"
            )));
        }
    }

    #[test]
    fn json_escape_handles_control_and_quote_bytes() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
