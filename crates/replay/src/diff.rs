//! The what-if diff engine: pairs a base capture with a replayed one
//! and attributes every nanosecond of completion-time movement.
//!
//! Ops pair by position — replay preserves submit order, so op `i` of
//! the candidate *is* op `i` of the base, re-priced. Each pair yields a
//! completion-time delta split into queue-wait and service movement
//! (the per-op attribution PR 8's saturation observatory introduced);
//! whatever those two do not explain is the *residual* (CPU-side
//! movement — a different machine table, or fault retries burning
//! syscall time). The report totals exact ops (residual zero) so a
//! claim like "queue-wait + service deltas sum to the completion-time
//! delta" is checkable, not asserted.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use sleds_fs::{Capture, LatencySummary, Syscall};
use sleds_sim_core::stats::LogHistogram;

/// Schema tag for `results/REPLAY_diff.json`.
pub const DIFF_SCHEMA: &str = "sleds-replay-diff-v1";

/// How many largest-movement ops the report lists individually.
pub const TOP_MOVERS: usize = 10;

/// Device-class code → stable report name (mirrors the kernel's
/// class numbering).
pub fn class_name(code: u64) -> &'static str {
    match code {
        0 => "memory",
        1 => "disk",
        2 => "cdrom",
        3 => "network",
        4 => "tape",
        _ => "unknown",
    }
}

/// One paired op's movement, all in signed nanoseconds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpDelta {
    /// Capture sequence number (same in both captures).
    pub seq: u64,
    /// Owning tenant.
    pub tenant: u64,
    /// Call name (`"pread"`, `"ring_enter"`, ...).
    pub call: &'static str,
    /// Resolved path, when the call had one.
    pub path: Option<Arc<str>>,
    /// Base completion latency (complete − submit).
    pub base_latency_ns: u64,
    /// Candidate completion latency.
    pub cand_latency_ns: u64,
    /// Candidate − base latency.
    pub d_latency_ns: i64,
    /// Candidate − base device queue wait.
    pub d_queue_wait_ns: i64,
    /// Candidate − base device service time.
    pub d_service_ns: i64,
    /// `d_latency − d_queue_wait − d_service`: movement the device
    /// phases do not explain (CPU-side). Zero means exact attribution.
    pub residual_ns: i64,
}

/// Aggregated movement for one grouping key (tenant or device class).
#[derive(Clone, Debug, Default)]
pub struct GroupDelta {
    /// Ops in the group.
    pub ops: u64,
    /// Sum of latency deltas.
    pub d_latency_ns: i64,
    /// Sum of queue-wait deltas.
    pub d_queue_wait_ns: i64,
    /// Sum of service deltas.
    pub d_service_ns: i64,
    /// Base-side latency quantiles.
    pub base: LatencySummary,
    /// Candidate-side latency quantiles.
    pub cand: LatencySummary,
}

/// The full diff of a base capture against a candidate replay.
pub struct ReplayDiff {
    /// Paired ops in sequence order.
    pub ops: Vec<OpDelta>,
    /// Ops whose residual is exactly zero.
    pub exact_ops: u64,
    /// Whole-workload aggregate.
    pub total: GroupDelta,
    /// Per-tenant aggregates keyed by tenant id, with names.
    pub tenants: BTreeMap<u64, (String, GroupDelta)>,
    /// Per-device-class aggregates keyed by class code.
    pub classes: BTreeMap<u64, GroupDelta>,
}

struct GroupAcc {
    ops: u64,
    d_latency: i64,
    d_queue_wait: i64,
    d_service: i64,
    base_hist: LogHistogram,
    cand_hist: LogHistogram,
}

impl GroupAcc {
    fn new() -> GroupAcc {
        GroupAcc {
            ops: 0,
            d_latency: 0,
            d_queue_wait: 0,
            d_service: 0,
            base_hist: LogHistogram::new(),
            cand_hist: LogHistogram::new(),
        }
    }

    fn note(&mut self, d: &OpDelta) {
        self.ops += 1;
        self.d_latency += d.d_latency_ns;
        self.d_queue_wait += d.d_queue_wait_ns;
        self.d_service += d.d_service_ns;
        self.base_hist.record(d.base_latency_ns);
        self.cand_hist.record(d.cand_latency_ns);
    }

    fn into_group(self) -> GroupDelta {
        GroupDelta {
            ops: self.ops,
            d_latency_ns: self.d_latency,
            d_queue_wait_ns: self.d_queue_wait,
            d_service_ns: self.d_service,
            base: LatencySummary::of(&self.base_hist),
            cand: LatencySummary::of(&self.cand_hist),
        }
    }
}

fn signed_delta(cand: u64, base: u64) -> Result<i64, String> {
    let c = i64::try_from(cand).map_err(|_| format!("value {cand} overflows i64"))?;
    let b = i64::try_from(base).map_err(|_| format!("value {base} overflows i64"))?;
    Ok(c - b)
}

/// Pairs `base` against `cand` op-by-op and aggregates the movement.
///
/// Errors if the captures are structurally different (op counts, call
/// kinds, tenants) — a diff between mismatched workloads would silently
/// attribute nonsense.
pub fn diff_captures(base: &Capture, cand: &Capture) -> Result<ReplayDiff, String> {
    if base.ops.len() != cand.ops.len() {
        return Err(format!(
            "op count mismatch: base has {}, candidate has {}",
            base.ops.len(),
            cand.ops.len()
        ));
    }
    let mut tenant_names: BTreeMap<u64, String> = BTreeMap::new();
    tenant_names.insert(0, "main".to_string());

    let mut ops = Vec::with_capacity(base.ops.len());
    let mut total = GroupAcc::new();
    let mut tenants: BTreeMap<u64, GroupAcc> = BTreeMap::new();
    let mut classes: BTreeMap<u64, GroupAcc> = BTreeMap::new();
    let mut exact_ops = 0u64;

    for (b, c) in base.ops.iter().zip(cand.ops.iter()) {
        if b.call.name() != c.call.name() || b.tenant != c.tenant {
            return Err(format!(
                "op {} mismatch: base {}@tenant{}, candidate {}@tenant{}",
                b.seq,
                b.call.name(),
                b.tenant,
                c.call.name(),
                c.tenant
            ));
        }
        if let Syscall::TenantRegister { name } = &b.call {
            tenant_names.insert(b.outcome.ret, name.clone());
        }
        let base_latency = b.outcome.complete_ns.saturating_sub(b.submit_ns);
        let cand_latency = c.outcome.complete_ns.saturating_sub(c.submit_ns);
        let d_latency = signed_delta(cand_latency, base_latency)?;
        let d_queue_wait = signed_delta(c.outcome.queue_wait_ns, b.outcome.queue_wait_ns)?;
        let d_service = signed_delta(c.outcome.service_ns, b.outcome.service_ns)?;
        let d = OpDelta {
            seq: b.seq,
            tenant: b.tenant,
            call: b.call.name(),
            path: b.path.clone(),
            base_latency_ns: base_latency,
            cand_latency_ns: cand_latency,
            d_latency_ns: d_latency,
            d_queue_wait_ns: d_queue_wait,
            d_service_ns: d_service,
            residual_ns: d_latency - d_queue_wait - d_service,
        };
        if d.residual_ns == 0 {
            exact_ops += 1;
        }
        total.note(&d);
        tenants
            .entry(d.tenant)
            .or_insert_with(GroupAcc::new)
            .note(&d);
        // Class movement comes from the per-class cost rows, paired by
        // class code across the two outcomes.
        let mut codes: Vec<u64> = b.outcome.classes.iter().map(|x| x.class).collect();
        for x in &c.outcome.classes {
            if !codes.contains(&x.class) {
                codes.push(x.class);
            }
        }
        codes.sort_unstable();
        for code in codes {
            let bc = b.outcome.classes.iter().find(|x| x.class == code);
            let cc = c.outcome.classes.iter().find(|x| x.class == code);
            let b_q = bc.map(|x| x.queue_wait_ns).unwrap_or(0);
            let b_s = bc.map(|x| x.service_ns).unwrap_or(0);
            let c_q = cc.map(|x| x.queue_wait_ns).unwrap_or(0);
            let c_s = cc.map(|x| x.service_ns).unwrap_or(0);
            let acc = classes.entry(code).or_insert_with(GroupAcc::new);
            acc.ops += 1;
            acc.d_queue_wait += signed_delta(c_q, b_q)?;
            acc.d_service += signed_delta(c_s, b_s)?;
            acc.d_latency += signed_delta(c_q + c_s, b_q + b_s)?;
            acc.base_hist.record(b_q + b_s);
            acc.cand_hist.record(c_q + c_s);
        }
        ops.push(d);
    }

    Ok(ReplayDiff {
        ops,
        exact_ops,
        total: total.into_group(),
        tenants: tenants
            .into_iter()
            .map(|(id, acc)| {
                let name = tenant_names.get(&id).cloned().unwrap_or_default();
                (id, (name, acc.into_group()))
            })
            .collect(),
        classes: classes
            .into_iter()
            .map(|(k, v)| (k, v.into_group()))
            .collect(),
    })
}

fn summary_json(s: &LatencySummary) -> String {
    format!(
        "{{\"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{},\"p999_ns\":{}}}",
        s.p50_ns, s.p90_ns, s.p99_ns, s.p999_ns
    )
}

fn group_json(g: &GroupDelta) -> String {
    format!(
        "{{\"ops\":{},\"d_latency_ns\":{},\"d_queue_wait_ns\":{},\"d_service_ns\":{},\
         \"base\":{},\"candidate\":{}}}",
        g.ops,
        g.d_latency_ns,
        g.d_queue_wait_ns,
        g.d_service_ns,
        summary_json(&g.base),
        summary_json(&g.cand)
    )
}

impl ReplayDiff {
    /// The ops with the largest absolute latency movement, biggest
    /// first (ties broken by sequence for determinism).
    pub fn top_movers(&self, n: usize) -> Vec<&OpDelta> {
        let mut movers: Vec<&OpDelta> = self.ops.iter().collect();
        movers.sort_by(|a, b| {
            b.d_latency_ns
                .unsigned_abs()
                .cmp(&a.d_latency_ns.unsigned_abs())
                .then(a.seq.cmp(&b.seq))
        });
        movers.truncate(n);
        movers
    }

    /// Renders the report (`results/REPLAY_diff.json`). Deterministic.
    pub fn to_json(&self, base_label: &str, cand_label: &str) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\n  \"schema\": \"{DIFF_SCHEMA}\",\n  \"base\": \"{}\",\n  \
             \"candidate\": \"{}\",\n  \"ops\": {},\n  \"exact_ops\": {},\n  \
             \"residual_ops\": {},\n  \"total\": {},\n  \"tenants\": [",
            crate::json::escape(base_label),
            crate::json::escape(cand_label),
            self.ops.len(),
            self.exact_ops,
            self.ops.len() as u64 - self.exact_ops,
            group_json(&self.total),
        );
        for (i, (id, (name, g))) in self.tenants.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\n    {{\"tenant\":{},\"name\":\"{}\",\"delta\":{}}}",
                id,
                crate::json::escape(name),
                group_json(g)
            );
        }
        s.push_str("\n  ],\n  \"classes\": [");
        for (i, (code, g)) in self.classes.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\n    {{\"class\":{},\"name\":\"{}\",\"delta\":{}}}",
                code,
                class_name(*code),
                group_json(g)
            );
        }
        s.push_str("\n  ],\n  \"top_movers\": [");
        for (i, d) in self.top_movers(TOP_MOVERS).iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\n    {{\"seq\":{},\"tenant\":{},\"call\":\"{}\",\"path\":{},\
                 \"base_latency_ns\":{},\"cand_latency_ns\":{},\"d_latency_ns\":{},\
                 \"d_queue_wait_ns\":{},\"d_service_ns\":{},\"residual_ns\":{}}}",
                d.seq,
                d.tenant,
                d.call,
                match &d.path {
                    Some(p) => format!("\"{}\"", crate::json::escape(p)),
                    None => "null".to_string(),
                },
                d.base_latency_ns,
                d.cand_latency_ns,
                d.d_latency_ns,
                d.d_queue_wait_ns,
                d.d_service_ns,
                d.residual_ns
            );
        }
        s.push_str("\n  ]\n}\n");
        s
    }
}
