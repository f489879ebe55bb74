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
use std::fmt::{self, Write as _};
use std::sync::Arc;

use sleds_fs::trace::CostRow;
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

/// Why two captures could not be diffed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DiffError {
    /// The captures hold different numbers of ops.
    OpCount {
        /// Ops in the base capture.
        base: usize,
        /// Ops in the candidate.
        cand: usize,
    },
    /// Op `seq` is a different call, or ran as a different tenant, on the
    /// two sides: a diff would attribute nonsense.
    OpMismatch {
        /// The op's capture sequence number.
        seq: u64,
        /// `(call, tenant)` in the base capture.
        base: (&'static str, u64),
        /// `(call, tenant)` in the candidate.
        cand: (&'static str, u64),
    },
    /// A delta or sum derived from op `seq` leaves the integer range.
    Overflow {
        /// The op's capture sequence number.
        seq: u64,
        /// Which figure overflowed.
        what: &'static str,
    },
}

impl fmt::Display for DiffError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiffError::OpCount { base, cand } => write!(
                f,
                "op count mismatch: base has {base}, candidate has {cand}"
            ),
            DiffError::OpMismatch { seq, base, cand } => write!(
                f,
                "op {seq} mismatch: base {}@tenant{}, candidate {}@tenant{}",
                base.0, base.1, cand.0, cand.1
            ),
            DiffError::Overflow { seq, what } => write!(f, "op {seq}: {what} overflows"),
        }
    }
}

impl std::error::Error for DiffError {}

impl From<DiffError> for String {
    fn from(e: DiffError) -> String {
        e.to_string()
    }
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

    /// Adds one op's `(latency, queue wait, service)` deltas and its two
    /// latencies; `None`, adding nothing, when a sum would overflow.
    fn note(&mut self, d: (i64, i64, i64), base: u64, cand: u64) -> Option<()> {
        let sums = (
            self.d_latency.checked_add(d.0)?,
            self.d_queue_wait.checked_add(d.1)?,
            self.d_service.checked_add(d.2)?,
        );
        (self.d_latency, self.d_queue_wait, self.d_service) = sums;
        self.ops += 1;
        self.base_hist.record(base);
        self.cand_hist.record(cand);
        Some(())
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

/// `cand - base`, when it fits an `i64`.
fn signed_delta(cand: u64, base: u64) -> Option<i64> {
    i64::try_from(i128::from(cand) - i128::from(base)).ok()
}

/// Pairs `base` against `cand` op-by-op and aggregates the movement.
///
/// Errors if the captures are structurally different (op counts, call
/// kinds, tenants) — a diff between mismatched workloads would silently
/// attribute nonsense — or if a figure leaves the integer range.
pub fn diff_captures(base: &Capture, cand: &Capture) -> Result<ReplayDiff, DiffError> {
    if base.ops.len() != cand.ops.len() {
        return Err(DiffError::OpCount {
            base: base.ops.len(),
            cand: cand.ops.len(),
        });
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
            return Err(DiffError::OpMismatch {
                seq: b.seq,
                base: (b.call.name(), b.tenant),
                cand: (c.call.name(), c.tenant),
            });
        }
        if let Syscall::TenantRegister { name } = &b.call {
            tenant_names.insert(b.outcome.ret, name.clone());
        }
        let overflow = |what| DiffError::Overflow { seq: b.seq, what };
        let delta = |cand, base, what| signed_delta(cand, base).ok_or_else(|| overflow(what));
        let (b_dev, c_dev) = (b.outcome.device(), c.outcome.device());
        let base_latency = b.outcome.complete_ns.saturating_sub(b.submit_ns);
        let cand_latency = c.outcome.complete_ns.saturating_sub(c.submit_ns);
        let d_latency = delta(cand_latency, base_latency, "latency delta")?;
        let d_queue_wait = delta(c_dev.queue_wait_ns, b_dev.queue_wait_ns, "queue-wait delta")?;
        let d_service = delta(c_dev.service_ns, b_dev.service_ns, "service delta")?;
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
            residual_ns: d_latency
                .checked_sub(d_queue_wait)
                .and_then(|r| r.checked_sub(d_service))
                .ok_or_else(|| overflow("residual"))?,
        };
        if d.residual_ns == 0 {
            exact_ops += 1;
        }
        let deltas = (d_latency, d_queue_wait, d_service);
        total
            .note(deltas, base_latency, cand_latency)
            .ok_or_else(|| overflow("total"))?;
        tenants
            .entry(d.tenant)
            .or_insert_with(GroupAcc::new)
            .note(deltas, base_latency, cand_latency)
            .ok_or_else(|| overflow("tenant total"))?;
        // Class movement comes from the per-class cost rows, paired by
        // class code across the two outcomes (a class one side never
        // reached pairs with a zero row).
        let mut pairs: BTreeMap<u64, (CostRow, CostRow)> = BTreeMap::new();
        for &(code, row) in &b.outcome.classes {
            pairs.entry(code).or_default().0.merge(&row);
        }
        for &(code, row) in &c.outcome.classes {
            pairs.entry(code).or_default().1.merge(&row);
        }
        for (code, (bc, cc)) in pairs {
            let latency = |r: CostRow| {
                r.queue_wait_ns
                    .checked_add(r.service_ns)
                    .ok_or_else(|| overflow("class latency"))
            };
            let (b_lat, c_lat) = (latency(bc)?, latency(cc)?);
            let deltas = (
                delta(c_lat, b_lat, "class latency delta")?,
                delta(cc.queue_wait_ns, bc.queue_wait_ns, "class queue-wait delta")?,
                delta(cc.service_ns, bc.service_ns, "class service delta")?,
            );
            classes
                .entry(code)
                .or_insert_with(GroupAcc::new)
                .note(deltas, b_lat, c_lat)
                .ok_or_else(|| overflow("class total"))?;
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
