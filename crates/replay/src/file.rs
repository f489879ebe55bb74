//! The schema-versioned on-disk capture format: `CAPTURE_*.jsonl`.
//!
//! Line 1 is the header — schema tag, completeness verdict, machine and
//! queue configuration, setup steps, fault plan. Every following line is
//! one captured op, in global capture order. The format is deterministic
//! (fields in one fixed order, integers in decimal, every `f64` as its
//! IEEE bits), so byte-comparing two capture files *is* the identity
//! property.

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::sync::Arc;

use sleds_faults::{FaultPlan, FaultWindow};
use sleds_fs::trace::CostRow;
use sleds_fs::{
    Capture, CapturedOp, Fd, OpOutcome, OpenFlags, Syscall, VolumeLayout, Whence, CAPTURE_SCHEMA,
};
use sleds_sim_core::{Errno, SimDuration, SimTime};

use crate::json::{self, hex_encode, need, push_escaped, push_u64, Reader};
use crate::setup::{SetupStep, WorkloadSpec};

/// A capture plus the environment it ran in — everything replay needs.
#[derive(Clone, Debug)]
pub struct CaptureFile {
    /// The rebuildable environment.
    pub spec: WorkloadSpec,
    /// The recorded workload.
    pub capture: Capture,
}

/// Bytes an op line takes beyond its strings and hex payload: more than
/// the fixed keys and a row of twenty-digit numbers come to.
const OP_LINE_ROOM: usize = 768;

/// A lower bound on an op line: the keys alone are longer.
const OP_LINE_MIN: usize = 256;

impl CaptureFile {
    /// Serializes to the JSONL format. Deterministic byte-for-byte.
    pub fn to_jsonl(&self) -> String {
        // One buffer, sized once: a 10 MB capture must not be built by
        // doubling (twice the memory at the last step) or line by line.
        let payload = |call: &Syscall| match call {
            Syscall::Write { data, .. } => 2 * data.len(),
            Syscall::RingEnter { ops, .. } => OP_LINE_ROOM / 4 * ops.len(),
            _ => 0,
        };
        let ops: usize = self.capture.ops.iter().map(|op| payload(&op.call)).sum();
        let setup: usize = self
            .spec
            .setup
            .iter()
            .map(|step| match step {
                SetupStep::InstallFile { data, .. } => 2 * data.len(),
                _ => 0,
            })
            .sum();
        let lines = 4 + self.capture.ops.len() + self.spec.setup.len();
        let mut out = String::with_capacity(ops + setup + OP_LINE_ROOM * lines);
        write_header(&mut out, &self.spec, &self.capture);
        out.push('\n');
        for op in &self.capture.ops {
            write_op(&mut out, op);
            out.push('\n');
        }
        out
    }

    /// Parses the JSONL format back; rejects unknown schema tags.
    pub fn parse(text: &str) -> Result<CaptureFile, String> {
        let mut r = Reader::new(text);
        if r.at_end() {
            return Err("empty capture".to_string());
        }
        let (mut file, declared_ops) = r
            .line(read_header)
            .and_then(|header| header.ok_or_else(|| "blank line".to_string()))
            .map_err(|e| format!("header: {e}"))?;
        // The count is the file's claim; the file's length bounds it.
        let ops = &mut file.capture.ops;
        ops.reserve_exact(declared_ops.min(text.len() / OP_LINE_MIN));
        let (mut line, mut paths) = (1, BTreeSet::new());
        while !r.at_end() {
            line += 1;
            let op = r
                .line(|r| read_op(r, &mut paths))
                .map_err(|e| format!("op line {line}: {e}"))?;
            ops.extend(op);
        }
        if ops.len() != declared_ops {
            return Err(format!(
                "header declares {declared_ops} ops, file carries {}",
                ops.len()
            ));
        }
        Ok(file)
    }
}

/// Writes one JSON object into a caller's buffer, field by field, in the
/// order the calls are made.
struct ObjWriter<'a> {
    out: &'a mut String,
    /// `{` before the first field, `,` before the rest.
    lead: char,
}

impl<'a> ObjWriter<'a> {
    fn new(out: &'a mut String) -> ObjWriter<'a> {
        ObjWriter { out, lead: '{' }
    }

    /// Writes `"key":` and hands back the buffer for the value.
    fn key(&mut self, key: &str) -> &mut String {
        self.out.push(self.lead);
        self.lead = ',';
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\":");
        self.out
    }

    fn u64(&mut self, key: &str, n: u64) {
        push_u64(self.key(key), n);
    }

    fn bool(&mut self, key: &str, b: bool) {
        self.key(key).push_str(if b { "true" } else { "false" });
    }

    fn str(&mut self, key: &str, s: &str) {
        let out = self.key(key);
        out.push('"');
        push_escaped(out, s);
        out.push('"');
    }

    fn opt_str(&mut self, key: &str, s: Option<&str>) {
        match s {
            Some(s) => self.str(key, s),
            None => self.key(key).push_str("null"),
        }
    }

    fn hex(&mut self, key: &str, data: &[u8]) {
        let out = self.key(key);
        out.push('"');
        hex_encode(out, data);
        out.push('"');
    }

    fn array<T>(
        &mut self,
        key: &str,
        items: impl IntoIterator<Item = T>,
        mut each: impl FnMut(&mut String, T),
    ) {
        let out = self.key(key);
        out.push('[');
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            each(out, item);
        }
        out.push(']');
    }

    /// Closes the object; every object of the schema has a first field.
    fn end(self) {
        self.out.push('}');
    }
}

fn write_header(out: &mut String, spec: &WorkloadSpec, cap: &Capture) {
    let mut o = ObjWriter::new(out);
    o.str("schema", CAPTURE_SCHEMA);
    o.bool("complete", cap.complete);
    o.opt_str("incomplete_reason", cap.incomplete_reason.as_deref());
    o.u64("budget", cap.budget as u64);
    o.u64("base_ns", cap.base_ns);
    o.u64("ops", cap.ops.len() as u64);
    o.str("machine", &spec.machine);
    o.u64("cmd_queue_capacity", spec.cmd_queue_capacity as u64);
    o.u64("hedge_max", u64::from(spec.hedge.max_hedges));
    o.u64(
        "hedge_deadline_mult_bits",
        spec.hedge.deadline_mult.to_bits(),
    );
    o.u64("hedge_cancel_ns", spec.hedge.cancel_cost.as_nanos());
    o.array("setup", &spec.setup, write_step);
    let plan = &spec.fault_plan;
    let faulted = plan
        .device_names()
        .filter_map(|dev| Some((dev, plan.injector_for(dev)?)));
    o.array("faults", faulted, |out, (dev, inj)| {
        let mut o = ObjWriter::new(out);
        o.str("dev", dev);
        o.array("windows", inj.windows(), write_window);
        o.end();
    });
    o.end();
}

fn write_window(out: &mut String, w: &FaultWindow) {
    let mut o = ObjWriter::new(out);
    let span = |o: &mut ObjWriter, kind: &str, start: SimTime, end: SimTime| {
        o.str("kind", kind);
        o.u64("start_ns", start.as_nanos());
        o.u64("end_ns", end.as_nanos());
    };
    match *w {
        FaultWindow::Transient {
            start,
            end,
            budget,
            fail_cost,
        } => {
            span(&mut o, "transient", start, end);
            o.u64("budget", u64::from(budget));
            o.u64("fail_cost_ns", fail_cost.as_nanos());
        }
        FaultWindow::Degraded {
            start,
            end,
            multiplier,
        } => {
            span(&mut o, "degraded", start, end);
            o.u64("multiplier_bits", multiplier.to_bits());
        }
        FaultWindow::Offline {
            start,
            end,
            probe_cost,
        } => {
            span(&mut o, "offline", start, end);
            o.u64("probe_cost_ns", probe_cost.as_nanos());
        }
    }
    o.end();
}

fn write_step(out: &mut String, step: &SetupStep) {
    let mut o = ObjWriter::new(out);
    // `{"step":…,"path":…,"model":…,"name":…}`: the three plain mounts.
    let mount = |o: &mut ObjWriter, step: &str, path: &str, model: &str, name: &str| {
        o.str("step", step);
        o.str("path", path);
        o.str("model", model);
        o.str("name", name);
    };
    match step {
        SetupStep::Mkdir { path } => {
            o.str("step", "mkdir");
            o.str("path", path);
        }
        SetupStep::MountDisk { path, model, name } => {
            mount(&mut o, "mount_disk", path, model, name)
        }
        SetupStep::MountNfs { path, model, name } => mount(&mut o, "mount_nfs", path, model, name),
        SetupStep::MountCdrom { path, model, name } => {
            mount(&mut o, "mount_cdrom", path, model, name)
        }
        SetupStep::MountHsm {
            path,
            disk_model,
            disk_name,
            tape_model,
            tape_name,
            chunk_pages,
        } => {
            o.str("step", "mount_hsm");
            o.str("path", path);
            o.str("disk_model", disk_model);
            o.str("disk_name", disk_name);
            o.str("tape_model", tape_model);
            o.str("tape_name", tape_name);
            o.u64("chunk_pages", *chunk_pages);
        }
        SetupStep::MountVolume {
            path,
            layout,
            members,
        } => {
            o.str("step", "mount_volume");
            o.str("path", path);
            o.str("layout", layout.name());
            match layout {
                VolumeLayout::Mirrored => {}
                VolumeLayout::Striped { stripe_pages } => o.u64("stripe_pages", *stripe_pages),
                VolumeLayout::Coded { k } => o.u64("k", u64::from(*k)),
            }
            o.array("members", members, |out, (model, name)| {
                let mut o = ObjWriter::new(out);
                o.str("model", model);
                o.str("name", name);
                o.end();
            });
        }
        SetupStep::InstallFile { path, data } => {
            o.str("step", "install_file");
            o.str("path", path);
            o.hex("data", data);
        }
        SetupStep::InstallSparseFile { path, size } => {
            o.str("step", "install_sparse_file");
            o.str("path", path);
            o.u64("size", *size);
        }
        SetupStep::WarmFilePages {
            path,
            first_page,
            pages,
        } => {
            o.str("step", "warm_file_pages");
            o.str("path", path);
            o.u64("first_page", *first_page);
            o.u64("pages", *pages);
        }
        SetupStep::HsmMigrate { path, free } => {
            o.str("step", "hsm_migrate");
            o.str("path", path);
            o.bool("free", *free);
        }
        SetupStep::DropCaches => o.str("step", "drop_caches"),
    }
    o.end();
}

/// `(letter, is it set)` per open flag, in the order they are written.
fn flag_letters(flags: &OpenFlags) -> [(char, bool); 5] {
    [
        ('r', flags.read),
        ('w', flags.write),
        ('c', flags.create),
        ('t', flags.truncate),
        ('a', flags.append),
    ]
}

fn write_call(out: &mut String, call: &Syscall) {
    let mut o = ObjWriter::new(out);
    o.str("op", call.name());
    match call {
        Syscall::TenantRegister { name } => o.str("name", name),
        Syscall::Open { path, flags } => {
            o.str("path", path);
            let out = o.key("flags");
            out.push('"');
            out.extend(
                flag_letters(flags)
                    .into_iter()
                    .filter_map(|(c, on)| on.then_some(c)),
            );
            out.push('"');
        }
        Syscall::Close { fd } | Syscall::Fsync { fd } | Syscall::Fstat { fd } => o.u64("fd", fd.0),
        Syscall::Lseek { fd, offset, whence } => {
            o.u64("fd", fd.0);
            let out = o.key("offset");
            if *offset < 0 {
                out.push('-');
            }
            push_u64(out, offset.unsigned_abs());
            o.u64("whence", *whence as u64);
        }
        Syscall::Read { fd, len } => {
            o.u64("fd", fd.0);
            o.u64("len", *len as u64);
        }
        Syscall::Pread { fd, pos, len } => {
            o.u64("fd", fd.0);
            o.u64("pos", *pos);
            o.u64("len", *len as u64);
        }
        Syscall::Write { fd, data } => {
            o.u64("fd", fd.0);
            o.hex("data", data);
        }
        Syscall::Stat { path }
        | Syscall::Mkdir { path }
        | Syscall::Readdir { path }
        | Syscall::Unlink { path } => o.str("path", path),
        Syscall::RingEnter { capacity, ops } => {
            o.u64("capacity", *capacity as u64);
            o.array("ops", ops, |out, (user_data, call)| {
                let mut o = ObjWriter::new(out);
                o.u64("user_data", *user_data);
                write_call(o.key("call"), call);
                o.end();
            });
        }
        // Not capturable (their pricing tables have no capture form): a
        // recorder poisons instead of storing one, and `parse_call`
        // rejects the name, so a hand-built capture fails loudly on load.
        Syscall::FsledsGet { .. } | Syscall::PickAdvice { .. } => {}
    }
    o.end();
}

fn write_op(out: &mut String, op: &CapturedOp) {
    let mut o = ObjWriter::new(out);
    o.u64("seq", op.seq);
    o.u64("tenant", op.tenant);
    o.u64("submit_ns", op.submit_ns);
    o.u64("fault_epoch", op.fault_epoch);
    o.opt_str("path", op.path.as_deref());
    write_call(o.key("call"), &op.call);
    write_outcome(o.key("outcome"), &op.outcome);
    o.end();
}

/// The op's device totals are written beside its class rows, under their
/// own keys, so a reader sees them without summing; the parser refuses a
/// file in which they are not that sum.
fn write_outcome(out: &mut String, outcome: &OpOutcome) {
    let mut o = ObjWriter::new(out);
    o.bool("ok", outcome.ok);
    o.opt_str("errno", outcome.errno.map(Errno::name));
    o.u64("ret", outcome.ret);
    o.u64("data_len", outcome.data_len);
    o.u64("data_fold", outcome.data_fold);
    o.u64("complete_ns", outcome.complete_ns);
    let device = outcome.device();
    o.u64("queue_wait_ns", device.queue_wait_ns);
    o.u64("service_ns", device.service_ns);
    o.u64("device_commands", device.commands);
    o.u64("device_bytes", device.bytes);
    o.u64("hedges", outcome.hedges);
    o.array("classes", &outcome.classes, |out, (class, row)| {
        let mut o = ObjWriter::new(out);
        o.u64("class", *class);
        o.u64("commands", row.commands);
        o.u64("queue_wait_ns", row.queue_wait_ns);
        o.u64("service_ns", row.service_ns);
        o.u64("bytes", row.bytes);
        o.end();
    });
    o.end();
}

/// Reads an array, one item with `read` each, into an exactly sized `Vec`:
/// a capture holds one per op that reached a device.
fn list<'a, T>(
    r: &mut Reader<'a>,
    mut read: impl FnMut(&mut Reader<'a>) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let mut items = Vec::new();
    r.array(|r| {
        items.push(read(r)?);
        Ok(())
    })?;
    items.shrink_to_fit();
    Ok(items)
}

/// `n` as the narrower integer type a field holds.
fn narrow<T: TryFrom<u64>>(n: u64, key: &str) -> Result<T, String> {
    T::try_from(n).map_err(|_| format!("{key} {n} out of range"))
}

/// A string field, owned.
fn owned(slot: Option<Cow<'_, str>>, key: &str) -> Result<String, String> {
    need(slot, key).map(Cow::into_owned)
}

/// Tagged objects — a call's `op`, a setup step's `step`, a window's
/// `kind`, a fault entry's `dev` — hold the keys their tag's value names,
/// so the tag comes first, as the writer puts it. Reads the tag when `key`
/// is it (`None`), else returns the tag read before.
fn tagged<'a, 's>(
    r: &mut Reader<'a>,
    slot: &'s mut Option<Cow<'a, str>>,
    tag: &str,
    key: &str,
    at: usize,
) -> Result<Option<&'s str>, String> {
    if key == tag {
        r.fill(slot, key, at, Reader::string)?;
        return Ok(None);
    }
    slot.as_deref()
        .map(Some)
        .ok_or_else(|| format!("{key:?} at offset {at} comes before {tag:?}"))
}

/// Reads an `f64` from its bits. Every multiplier in a capture scales a
/// service time: NaN, an infinity, zero or a negative would replay
/// "successfully" into nonsense.
fn multiplier(r: &mut Reader, key: &str) -> Result<f64, String> {
    let bits = r.u64()?;
    let m = f64::from_bits(bits);
    if m.is_finite() && m > 0.0 {
        Ok(m)
    } else {
        Err(format!(
            "{key} {bits} is {m}, not a finite positive multiplier"
        ))
    }
}

/// The header: the capture without its ops, and how many ops it declares.
fn read_header(r: &mut Reader) -> Result<(CaptureFile, usize), String> {
    let [mut budget, mut ops, mut queue] = [None; 3];
    let [mut base_ns, mut cancel_ns] = [None; 2];
    let (mut schema, mut complete, mut reason, mut machine) = (None, None, None, None);
    let (mut hedge_max, mut hedge_mult, mut setup, mut faults) = (None, None, None, None);
    r.object(|r, key, at| match key {
        "schema" => r.fill(&mut schema, key, at, |r| match r.string()? {
            s if s == CAPTURE_SCHEMA => Ok(()),
            s => Err(format!(
                "unknown capture schema {s:?} (expected {CAPTURE_SCHEMA:?})"
            )),
        }),
        "complete" => r.fill(&mut complete, key, at, Reader::bool),
        "incomplete_reason" => r.fill(&mut reason, key, at, |r| {
            r.nullable(|r| r.string().map(Cow::into_owned))
        }),
        "budget" | "ops" | "cmd_queue_capacity" => {
            let slot = match key {
                "budget" => &mut budget,
                "ops" => &mut ops,
                _ => &mut queue,
            };
            r.fill(slot, key, at, |r| narrow(r.u64()?, key))
        }
        "base_ns" => r.fill(&mut base_ns, key, at, Reader::u64),
        "machine" => r.fill(&mut machine, key, at, Reader::string),
        "hedge_max" => r.fill(&mut hedge_max, key, at, |r| narrow(r.u64()?, key)),
        "hedge_deadline_mult_bits" => r.fill(&mut hedge_mult, key, at, |r| multiplier(r, key)),
        "hedge_cancel_ns" => r.fill(&mut cancel_ns, key, at, Reader::u64),
        "setup" => r.fill(&mut setup, key, at, |r| list(r, read_step)),
        "faults" => r.fill(&mut faults, key, at, |r| {
            let mut plan = FaultPlan::new();
            r.array(|r| read_fault_entry(r, &mut plan))?;
            Ok(plan)
        }),
        _ => Err(json::unknown(key, at)),
    })?;
    need(schema, "schema")?;
    let spec = WorkloadSpec {
        machine: owned(machine, "machine")?,
        cmd_queue_capacity: need(queue, "cmd_queue_capacity")?,
        setup: need(setup, "setup")?,
        fault_plan: need(faults, "faults")?,
        hedge: sleds_fs::HedgePolicy {
            max_hedges: need(hedge_max, "hedge_max")?,
            deadline_mult: need(hedge_mult, "hedge_deadline_mult_bits")?,
            cancel_cost: SimDuration::from_nanos(need(cancel_ns, "hedge_cancel_ns")?),
        },
    };
    let capture = Capture {
        complete: need(complete, "complete")?,
        incomplete_reason: need(reason, "incomplete_reason")?,
        budget: need(budget, "budget")?,
        base_ns: need(base_ns, "base_ns")?,
        ops: Vec::new(),
    };
    Ok((CaptureFile { spec, capture }, need(ops, "ops")?))
}

/// One `{"dev":…,"windows":[…]}` entry, added to `plan`.
fn read_fault_entry(r: &mut Reader, plan: &mut FaultPlan) -> Result<(), String> {
    let (mut dev, mut windows) = (None, None);
    r.object(|r, key, at| {
        let Some(dev) = tagged(r, &mut dev, "dev", key, at)? else {
            return Ok(());
        };
        match key {
            "windows" => r.fill(&mut windows, key, at, |r| {
                let mut i = 0;
                r.array(|r| {
                    let taken = std::mem::take(&mut *plan);
                    *plan =
                        read_window(r, taken, dev).map_err(|e| format!("{dev} window {i}: {e}"))?;
                    i += 1;
                    Ok(())
                })
            }),
            _ => Err(json::unknown(key, at)),
        }
    })?;
    need(dev, "dev")?;
    need(windows, "windows")
}

/// One fault window on `dev`, added to `plan`.
fn read_window(r: &mut Reader, plan: FaultPlan, dev: &str) -> Result<FaultPlan, String> {
    let mut kind = None;
    let [mut start, mut end, mut fail_cost, mut probe_cost] = [None; 4];
    let (mut budget, mut mult) = (None, None);
    r.object(|r, key, at| {
        let Some(kind) = tagged(r, &mut kind, "kind", key, at)? else {
            return Ok(());
        };
        let slot = match (kind, key) {
            (_, "start_ns") => &mut start,
            (_, "end_ns") => &mut end,
            ("transient", "fail_cost_ns") => &mut fail_cost,
            ("transient", "budget") => {
                return r.fill(&mut budget, key, at, |r| narrow(r.u64()?, key))
            }
            ("degraded", "multiplier_bits") => {
                return r.fill(&mut mult, key, at, |r| multiplier(r, key))
            }
            ("offline", "probe_cost_ns") => &mut probe_cost,
            _ => return Err(json::unknown(key, at)),
        };
        r.fill(slot, key, at, Reader::u64)
    })?;
    let (start, end) = (need(start, "start_ns")?, need(end, "end_ns")?);
    if end <= start {
        return Err(format!("end_ns {end} is not after start_ns {start}"));
    }
    let (start, end) = (SimTime::from_nanos(start), SimTime::from_nanos(end));
    let ns = |slot, key| need(slot, key).map(SimDuration::from_nanos);
    Ok(match &*need(kind, "kind")? {
        "transient" => plan.transient(
            dev,
            start,
            end,
            need(budget, "budget")?,
            ns(fail_cost, "fail_cost_ns")?,
        ),
        "degraded" => plan.degraded(dev, start, end, need(mult, "multiplier_bits")?),
        "offline" => plan.offline(dev, start, end, ns(probe_cost, "probe_cost_ns")?),
        other => return Err(format!("unknown fault window kind {other:?}")),
    })
}

fn read_step(r: &mut Reader) -> Result<SetupStep, String> {
    let mut step = None;
    let [mut path, mut model, mut name, mut layout] = [const { None }; 4];
    let [mut disk_model, mut disk_name, mut tape_model, mut tape_name] = [const { None }; 4];
    let [mut chunk_pages, mut stripe_pages, mut size, mut first_page, mut pages] = [None; 5];
    let (mut k, mut members, mut data, mut free) = (None, None, None, None);
    r.object(|r, key, at| {
        let Some(step) = tagged(r, &mut step, "step", key, at)? else {
            return Ok(());
        };
        let string = Reader::string;
        match (step, key) {
            ("drop_caches", _) => Err(json::unknown(key, at)),
            (_, "path") => r.fill(&mut path, key, at, string),
            ("mount_disk" | "mount_nfs" | "mount_cdrom", "model") => {
                r.fill(&mut model, key, at, string)
            }
            ("mount_disk" | "mount_nfs" | "mount_cdrom", "name") => {
                r.fill(&mut name, key, at, string)
            }
            ("mount_hsm", "disk_model") => r.fill(&mut disk_model, key, at, string),
            ("mount_hsm", "disk_name") => r.fill(&mut disk_name, key, at, string),
            ("mount_hsm", "tape_model") => r.fill(&mut tape_model, key, at, string),
            ("mount_hsm", "tape_name") => r.fill(&mut tape_name, key, at, string),
            ("mount_hsm", "chunk_pages") => r.fill(&mut chunk_pages, key, at, Reader::u64),
            // A volume's layout is the tag of the key that follows it, if any.
            ("mount_volume", "layout") => r.fill(&mut layout, key, at, string),
            ("mount_volume", "stripe_pages") if layout.as_deref() == Some("striped") => {
                r.fill(&mut stripe_pages, key, at, Reader::u64)
            }
            ("mount_volume", "k") if layout.as_deref() == Some("coded") => {
                r.fill(&mut k, key, at, |r| narrow(r.u64()?, key))
            }
            ("mount_volume", "members") => r.fill(&mut members, key, at, |r| list(r, read_member)),
            ("install_file", "data") => r.fill(&mut data, key, at, Reader::hex),
            ("install_sparse_file", "size") => r.fill(&mut size, key, at, Reader::u64),
            ("warm_file_pages", "first_page") => r.fill(&mut first_page, key, at, Reader::u64),
            ("warm_file_pages", "pages") => r.fill(&mut pages, key, at, Reader::u64),
            ("hsm_migrate", "free") => r.fill(&mut free, key, at, Reader::bool),
            _ => Err(json::unknown(key, at)),
        }
    })?;
    let path = || owned(path, "path");
    Ok(match &*need(step, "step")? {
        "mkdir" => SetupStep::Mkdir { path: path()? },
        "mount_disk" => SetupStep::MountDisk {
            path: path()?,
            model: owned(model, "model")?,
            name: owned(name, "name")?,
        },
        "mount_nfs" => SetupStep::MountNfs {
            path: path()?,
            model: owned(model, "model")?,
            name: owned(name, "name")?,
        },
        "mount_cdrom" => SetupStep::MountCdrom {
            path: path()?,
            model: owned(model, "model")?,
            name: owned(name, "name")?,
        },
        "mount_hsm" => SetupStep::MountHsm {
            path: path()?,
            disk_model: owned(disk_model, "disk_model")?,
            disk_name: owned(disk_name, "disk_name")?,
            tape_model: owned(tape_model, "tape_model")?,
            tape_name: owned(tape_name, "tape_name")?,
            chunk_pages: need(chunk_pages, "chunk_pages")?,
        },
        "mount_volume" => SetupStep::MountVolume {
            path: path()?,
            layout: match &*need(layout, "layout")? {
                "mirrored" => VolumeLayout::Mirrored,
                "striped" => VolumeLayout::Striped {
                    stripe_pages: need(stripe_pages, "stripe_pages")?,
                },
                "coded" => VolumeLayout::Coded { k: need(k, "k")? },
                other => return Err(format!("unknown volume layout {other:?}")),
            },
            members: need(members, "members")?,
        },
        "install_file" => SetupStep::InstallFile {
            path: path()?,
            data: need(data, "data")?,
        },
        "install_sparse_file" => SetupStep::InstallSparseFile {
            path: path()?,
            size: need(size, "size")?,
        },
        "warm_file_pages" => SetupStep::WarmFilePages {
            path: path()?,
            first_page: need(first_page, "first_page")?,
            pages: need(pages, "pages")?,
        },
        "hsm_migrate" => SetupStep::HsmMigrate {
            path: path()?,
            free: need(free, "free")?,
        },
        "drop_caches" => SetupStep::DropCaches,
        other => return Err(format!("unknown setup step {other:?}")),
    })
}

/// A volume member: `(model, name)`.
fn read_member(r: &mut Reader) -> Result<(String, String), String> {
    let (mut model, mut name) = (None, None);
    r.object(|r, key, at| {
        let slot = match key {
            "model" => &mut model,
            "name" => &mut name,
            _ => return Err(json::unknown(key, at)),
        };
        r.fill(slot, key, at, Reader::string)
    })?;
    Ok((owned(model, "model")?, owned(name, "name")?))
}

fn parse_flags(s: &str) -> Result<OpenFlags, String> {
    let mut flags = OpenFlags::default();
    for c in s.chars() {
        match c {
            'r' => flags.read = true,
            'w' => flags.write = true,
            'c' => flags.create = true,
            't' => flags.truncate = true,
            'a' => flags.append = true,
            other => return Err(format!("unknown open flag {other:?}")),
        }
    }
    Ok(flags)
}

fn read_call(r: &mut Reader) -> Result<Syscall, String> {
    let [mut op, mut path, mut name] = [const { None }; 3];
    let [mut fd, mut pos] = [None; 2];
    let [mut len, mut capacity] = [None; 2];
    let (mut offset, mut whence, mut flags, mut data, mut ring) = (None, None, None, None, None);
    r.object(|r, key, at| {
        let Some(op) = tagged(r, &mut op, "op", key, at)? else {
            return Ok(());
        };
        match (op, key) {
            ("close" | "fsync" | "fstat" | "lseek" | "read" | "pread" | "write", "fd") => {
                r.fill(&mut fd, key, at, Reader::u64)
            }
            ("pread", "pos") => r.fill(&mut pos, key, at, Reader::u64),
            ("read" | "pread", "len") | ("ring_enter", "capacity") => {
                let slot = if key == "len" {
                    &mut len
                } else {
                    &mut capacity
                };
                r.fill(slot, key, at, |r| narrow(r.u64()?, key))
            }
            ("open" | "stat" | "mkdir" | "readdir" | "unlink", "path") => {
                r.fill(&mut path, key, at, Reader::string)
            }
            ("tenant_register", "name") => r.fill(&mut name, key, at, Reader::string),
            ("open", "flags") => r.fill(&mut flags, key, at, |r| parse_flags(&r.string()?)),
            ("lseek", "offset") => r.fill(&mut offset, key, at, Reader::i64),
            ("lseek", "whence") => r.fill(&mut whence, key, at, |r| {
                let code = r.u64()?;
                Whence::from_code(code).ok_or_else(|| format!("unknown whence code {code}"))
            }),
            ("write", "data") => r.fill(&mut data, key, at, Reader::hex),
            ("ring_enter", "ops") => r.fill(&mut ring, key, at, |r| list(r, read_ring_op)),
            _ => Err(json::unknown(key, at)),
        }
    })?;
    let fd = || need(fd, "fd").map(Fd);
    let path = || owned(path, "path");
    Ok(match &*need(op, "op")? {
        "tenant_register" => Syscall::TenantRegister {
            name: owned(name, "name")?,
        },
        "open" => Syscall::Open {
            path: path()?,
            flags: need(flags, "flags")?,
        },
        "close" => Syscall::Close { fd: fd()? },
        "lseek" => Syscall::Lseek {
            fd: fd()?,
            offset: need(offset, "offset")?,
            whence: need(whence, "whence")?,
        },
        "read" => Syscall::Read {
            fd: fd()?,
            len: need(len, "len")?,
        },
        "pread" => Syscall::Pread {
            fd: fd()?,
            pos: need(pos, "pos")?,
            len: need(len, "len")?,
        },
        "write" => Syscall::Write {
            fd: fd()?,
            data: need(data, "data")?,
        },
        "fsync" => Syscall::Fsync { fd: fd()? },
        "stat" => Syscall::Stat { path: path()? },
        "fstat" => Syscall::Fstat { fd: fd()? },
        "mkdir" => Syscall::Mkdir { path: path()? },
        "readdir" => Syscall::Readdir { path: path()? },
        "unlink" => Syscall::Unlink { path: path()? },
        "ring_enter" => Syscall::RingEnter {
            capacity: need(capacity, "capacity")?,
            ops: need(ring, "ops")?,
        },
        other => return Err(format!("unknown or uncapturable op {other:?}")),
    })
}

/// A ring op: `(user_data, call)`.
fn read_ring_op(r: &mut Reader) -> Result<(u64, Syscall), String> {
    let (mut user_data, mut call) = (None, None);
    r.object(|r, key, at| match key {
        "user_data" => r.fill(&mut user_data, key, at, Reader::u64),
        "call" => r.fill(&mut call, key, at, read_call),
        _ => Err(json::unknown(key, at)),
    })?;
    Ok((need(user_data, "user_data")?, need(call, "call")?))
}

/// A class row: `(class, cost)`.
fn read_class(r: &mut Reader) -> Result<(u64, CostRow), String> {
    let [mut class, mut commands, mut bytes, mut queue_wait_ns, mut service_ns] = [None; 5];
    r.object(|r, key, at| {
        let slot = match key {
            "class" => &mut class,
            "commands" => &mut commands,
            "queue_wait_ns" => &mut queue_wait_ns,
            "service_ns" => &mut service_ns,
            "bytes" => &mut bytes,
            _ => return Err(json::unknown(key, at)),
        };
        r.fill(slot, key, at, Reader::u64)
    })?;
    let row = CostRow {
        commands: need(commands, "commands")?,
        bytes: need(bytes, "bytes")?,
        queue_wait_ns: need(queue_wait_ns, "queue_wait_ns")?,
        service_ns: need(service_ns, "service_ns")?,
    };
    Ok((need(class, "class")?, row))
}

/// The outcome, whose device totals must be the sum of its class rows.
fn read_outcome(r: &mut Reader) -> Result<OpOutcome, String> {
    let [mut ret, mut data_len, mut data_fold, mut complete_ns, mut hedges] = [None; 5];
    let [mut commands, mut bytes, mut queue_wait_ns, mut service_ns] = [None; 4];
    let (mut ok, mut errno, mut classes) = (None, None, None);
    r.object(|r, key, at| {
        let slot = match key {
            "ok" => return r.fill(&mut ok, key, at, Reader::bool),
            "errno" => {
                return r.fill(&mut errno, key, at, |r| {
                    r.nullable(|r| {
                        let name = r.string()?;
                        Errno::from_name(&name).ok_or_else(|| format!("unknown errno {name:?}"))
                    })
                })
            }
            "ret" => &mut ret,
            "data_len" => &mut data_len,
            "data_fold" => &mut data_fold,
            "complete_ns" => &mut complete_ns,
            "queue_wait_ns" => &mut queue_wait_ns,
            "service_ns" => &mut service_ns,
            "device_commands" => &mut commands,
            "device_bytes" => &mut bytes,
            "hedges" => &mut hedges,
            "classes" => return r.fill(&mut classes, key, at, |r| list(r, read_class)),
            _ => return Err(json::unknown(key, at)),
        };
        r.fill(slot, key, at, Reader::u64)
    })?;
    let classes: Vec<(u64, CostRow)> = need(classes, "classes")?;
    if let Some(pair) = classes.windows(2).find(|pair| pair[0].0 >= pair[1].0) {
        return Err(format!(
            "class row {} after row {}: rows must ascend strictly",
            pair[1].0, pair[0].0
        ));
    }
    let outcome = OpOutcome {
        ok: need(ok, "ok")?,
        errno: need(errno, "errno")?,
        ret: need(ret, "ret")?,
        data_len: need(data_len, "data_len")?,
        data_fold: need(data_fold, "data_fold")?,
        complete_ns: need(complete_ns, "complete_ns")?,
        hedges: need(hedges, "hedges")?,
        classes,
    };
    let totals = CostRow {
        commands: need(commands, "device_commands")?,
        bytes: need(bytes, "device_bytes")?,
        queue_wait_ns: need(queue_wait_ns, "queue_wait_ns")?,
        service_ns: need(service_ns, "service_ns")?,
    };
    if outcome.device() != totals {
        return Err(format!(
            "outcome totals {totals:?} are not the sum of its class rows {:?}",
            outcome.device()
        ));
    }
    Ok(outcome)
}

/// One `Arc` per distinct path, shared by every op that names it, as the
/// recorder shares one per open: a capture names a few hundred paths in
/// thousands of ops.
fn interned(paths: &mut BTreeSet<Arc<str>>, path: &str) -> Arc<str> {
    if let Some(shared) = paths.get(path) {
        return Arc::clone(shared);
    }
    let shared: Arc<str> = Arc::from(path);
    paths.insert(Arc::clone(&shared));
    shared
}

fn read_op(r: &mut Reader, paths: &mut BTreeSet<Arc<str>>) -> Result<CapturedOp, String> {
    let [mut seq, mut tenant, mut submit_ns, mut fault_epoch] = [None; 4];
    let (mut path, mut call, mut outcome) = (None, None, None);
    r.object(|r, key, at| {
        let slot = match key {
            "seq" => &mut seq,
            "tenant" => &mut tenant,
            "submit_ns" => &mut submit_ns,
            "fault_epoch" => &mut fault_epoch,
            "path" => {
                return r.fill(&mut path, key, at, |r| {
                    r.nullable(|r| r.string().map(|p| interned(paths, &p)))
                })
            }
            "call" => return r.fill(&mut call, key, at, read_call),
            "outcome" => return r.fill(&mut outcome, key, at, read_outcome),
            _ => return Err(json::unknown(key, at)),
        };
        r.fill(slot, key, at, Reader::u64)
    })?;
    Ok(CapturedOp {
        seq: need(seq, "seq")?,
        tenant: need(tenant, "tenant")?,
        submit_ns: need(submit_ns, "submit_ns")?,
        fault_epoch: need(fault_epoch, "fault_epoch")?,
        path: need(path, "path")?,
        call: need(call, "call")?,
        outcome: need(outcome, "outcome")?,
    })
}
