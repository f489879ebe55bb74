//! The schema-versioned on-disk capture format: `CAPTURE_*.jsonl`.
//!
//! Line 1 is the header — schema tag, completeness verdict, machine and
//! queue configuration, setup steps, fault plan. Every following line is
//! one captured op, in global capture order. The format is deterministic
//! (fields in one fixed order, integers in decimal, every `f64` as its
//! IEEE bits), so byte-comparing two capture files *is* the identity
//! property.

use std::sync::Arc;

use sleds_faults::{FaultPlan, FaultWindow};
use sleds_fs::{
    Capture, CapturedOp, ClassCost, Fd, OpOutcome, OpenFlags, Syscall, VolumeLayout, Whence,
    CAPTURE_SCHEMA,
};
use sleds_sim_core::{Errno, SimDuration, SimTime};

use crate::json::{self, hex_decode, hex_encode, push_escaped, push_u64, Json};
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
        let mut lines = text.lines();
        let header_line = lines.next().ok_or_else(|| "empty capture".to_string())?;
        let header = json::parse(header_line).map_err(|e| format!("header: {e}"))?;
        let schema = header.field("schema", "header")?.as_str("schema")?;
        if schema != CAPTURE_SCHEMA {
            return Err(format!(
                "unknown capture schema {schema:?} (expected {CAPTURE_SCHEMA:?})"
            ));
        }
        let spec = parse_spec(&header)?;
        let complete = header.field("complete", "header")?.as_bool("complete")?;
        let incomplete_reason = match header.opt_field("incomplete_reason", "header")? {
            Some(v) => Some(v.as_str("incomplete_reason")?.to_string()),
            None => None,
        };
        let budget = header.field("budget", "header")?.as_usize("budget")?;
        let base_ns = header.field("base_ns", "header")?.as_u64("base_ns")?;
        let declared_ops = header.field("ops", "header")?.as_usize("ops")?;
        // The count is the file's claim; the file's length bounds it.
        let mut ops = Vec::with_capacity(declared_ops.min(text.len() / OP_LINE_MIN));
        for (i, line) in lines.enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let v = json::parse(line).map_err(|e| format!("op line {}: {e}", i + 2))?;
            ops.push(parse_op(&v).map_err(|e| format!("op line {}: {e}", i + 2))?);
        }
        if ops.len() != declared_ops {
            return Err(format!(
                "header declares {declared_ops} ops, file carries {}",
                ops.len()
            ));
        }
        Ok(CaptureFile {
            spec,
            capture: Capture {
                complete,
                incomplete_reason,
                budget,
                base_ns,
                ops,
            },
        })
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

fn write_outcome(out: &mut String, outcome: &OpOutcome) {
    let mut o = ObjWriter::new(out);
    o.bool("ok", outcome.ok);
    o.opt_str("errno", outcome.errno.map(Errno::name));
    o.u64("ret", outcome.ret);
    o.u64("data_len", outcome.data_len);
    o.u64("data_fold", outcome.data_fold);
    o.u64("complete_ns", outcome.complete_ns);
    o.u64("queue_wait_ns", outcome.queue_wait_ns);
    o.u64("service_ns", outcome.service_ns);
    o.u64("device_commands", outcome.device_commands);
    o.u64("device_bytes", outcome.device_bytes);
    o.u64("hedges", outcome.hedges);
    o.array("classes", &outcome.classes, |out, c| {
        let mut o = ObjWriter::new(out);
        o.u64("class", c.class);
        o.u64("commands", c.commands);
        o.u64("queue_wait_ns", c.queue_wait_ns);
        o.u64("service_ns", c.service_ns);
        o.u64("bytes", c.bytes);
        o.end();
    });
    o.end();
}

fn parse_spec(header: &Json) -> Result<WorkloadSpec, String> {
    let machine = header.field("machine", "header")?.as_str("machine")?;
    let mut spec = WorkloadSpec::new(machine);
    spec.cmd_queue_capacity = header
        .field("cmd_queue_capacity", "header")?
        .as_usize("cmd_queue_capacity")?;
    spec.hedge = sleds_fs::HedgePolicy {
        max_hedges: {
            let m = header.field("hedge_max", "header")?.as_u64("hedge_max")?;
            u32::try_from(m).map_err(|_| format!("hedge_max {m} out of range"))?
        },
        deadline_mult: multiplier(header, "hedge_deadline_mult_bits", "header")?,
        cancel_cost: SimDuration::from_nanos(
            header
                .field("hedge_cancel_ns", "header")?
                .as_u64("hedge_cancel_ns")?,
        ),
    };
    for v in header.field("setup", "header")?.as_arr("setup")? {
        spec.setup.push(parse_step(v)?);
    }
    let mut plan = FaultPlan::new();
    for entry in header.field("faults", "header")?.as_arr("faults")? {
        let dev = entry.field("dev", "fault entry")?.as_str("dev")?;
        let windows = entry.field("windows", "fault entry")?.as_arr("windows")?;
        for (i, w) in windows.iter().enumerate() {
            plan = parse_window(plan, dev, w).map_err(|e| format!("{dev} window {i}: {e}"))?;
        }
    }
    spec.fault_plan = plan;
    Ok(spec)
}

/// Field `key` of `v` as the `f64` whose bits it holds. Every multiplier
/// in a capture scales a service time: NaN, an infinity, zero or a
/// negative would replay "successfully" into nonsense.
fn multiplier(v: &Json, key: &str, what: &str) -> Result<f64, String> {
    let bits = v.field(key, what)?.as_u64(key)?;
    let m = f64::from_bits(bits);
    if m.is_finite() && m > 0.0 {
        Ok(m)
    } else {
        Err(format!(
            "{what}: {key} {bits} is {m}, not a finite positive multiplier"
        ))
    }
}

fn parse_window(plan: FaultPlan, dev: &str, w: &Json) -> Result<FaultPlan, String> {
    let kind = w.field("kind", "window")?.as_str("kind")?;
    let start = SimTime::from_nanos(w.field("start_ns", "window")?.as_u64("start_ns")?);
    let end = SimTime::from_nanos(w.field("end_ns", "window")?.as_u64("end_ns")?);
    match kind {
        "transient" => {
            let budget = w.field("budget", "window")?.as_u64("budget")?;
            let budget =
                u32::try_from(budget).map_err(|_| format!("budget {budget} out of range"))?;
            let cost =
                SimDuration::from_nanos(w.field("fail_cost_ns", "window")?.as_u64("fail_cost_ns")?);
            Ok(plan.transient(dev, start, end, budget, cost))
        }
        "degraded" => {
            Ok(plan.degraded(dev, start, end, multiplier(w, "multiplier_bits", "window")?))
        }
        "offline" => {
            let cost = SimDuration::from_nanos(
                w.field("probe_cost_ns", "window")?
                    .as_u64("probe_cost_ns")?,
            );
            Ok(plan.offline(dev, start, end, cost))
        }
        other => Err(format!("unknown fault window kind {other:?}")),
    }
}

fn parse_step(v: &Json) -> Result<SetupStep, String> {
    let kind = v.field("step", "setup step")?.as_str("step")?;
    let path = |key: &str| -> Result<String, String> {
        Ok(v.field(key, "setup step")?.as_str(key)?.to_string())
    };
    match kind {
        "mkdir" => Ok(SetupStep::Mkdir {
            path: path("path")?,
        }),
        "mount_disk" => Ok(SetupStep::MountDisk {
            path: path("path")?,
            model: path("model")?,
            name: path("name")?,
        }),
        "mount_nfs" => Ok(SetupStep::MountNfs {
            path: path("path")?,
            model: path("model")?,
            name: path("name")?,
        }),
        "mount_cdrom" => Ok(SetupStep::MountCdrom {
            path: path("path")?,
            model: path("model")?,
            name: path("name")?,
        }),
        "mount_hsm" => Ok(SetupStep::MountHsm {
            path: path("path")?,
            disk_model: path("disk_model")?,
            disk_name: path("disk_name")?,
            tape_model: path("tape_model")?,
            tape_name: path("tape_name")?,
            chunk_pages: v
                .field("chunk_pages", "setup step")?
                .as_u64("chunk_pages")?,
        }),
        "mount_volume" => {
            let layout = match v.field("layout", "setup step")?.as_str("layout")? {
                "mirrored" => VolumeLayout::Mirrored,
                "striped" => VolumeLayout::Striped {
                    stripe_pages: v
                        .field("stripe_pages", "setup step")?
                        .as_u64("stripe_pages")?,
                },
                "coded" => VolumeLayout::Coded {
                    k: {
                        let k = v.field("k", "setup step")?.as_u64("k")?;
                        u32::try_from(k).map_err(|_| format!("coded k {k} out of range"))?
                    },
                },
                other => return Err(format!("unknown volume layout {other:?}")),
            };
            let mut members = Vec::new();
            for m in v.field("members", "setup step")?.as_arr("members")? {
                members.push((
                    m.field("model", "volume member")?
                        .as_str("model")?
                        .to_string(),
                    m.field("name", "volume member")?
                        .as_str("name")?
                        .to_string(),
                ));
            }
            Ok(SetupStep::MountVolume {
                path: path("path")?,
                layout,
                members,
            })
        }
        "install_file" => {
            let mut data = Vec::new();
            hex_decode(v.field("data", "setup step")?.as_str("data")?, &mut data)?;
            Ok(SetupStep::InstallFile {
                path: path("path")?,
                data,
            })
        }
        "install_sparse_file" => Ok(SetupStep::InstallSparseFile {
            path: path("path")?,
            size: v.field("size", "setup step")?.as_u64("size")?,
        }),
        "warm_file_pages" => Ok(SetupStep::WarmFilePages {
            path: path("path")?,
            first_page: v.field("first_page", "setup step")?.as_u64("first_page")?,
            pages: v.field("pages", "setup step")?.as_u64("pages")?,
        }),
        "hsm_migrate" => Ok(SetupStep::HsmMigrate {
            path: path("path")?,
            free: v.field("free", "setup step")?.as_bool("free")?,
        }),
        "drop_caches" => Ok(SetupStep::DropCaches),
        other => Err(format!("unknown setup step {other:?}")),
    }
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

fn parse_call(v: &Json) -> Result<Syscall, String> {
    let op = v.field("op", "call")?.as_str("op")?;
    let fd = || -> Result<Fd, String> { Ok(Fd(v.field("fd", "call")?.as_u64("fd")?)) };
    let len = || -> Result<usize, String> { v.field("len", "call")?.as_usize("len") };
    let path =
        || -> Result<String, String> { Ok(v.field("path", "call")?.as_str("path")?.to_string()) };
    Ok(match op {
        "tenant_register" => Syscall::TenantRegister {
            name: v.field("name", "call")?.as_str("name")?.to_string(),
        },
        "open" => Syscall::Open {
            path: path()?,
            flags: parse_flags(v.field("flags", "call")?.as_str("flags")?)?,
        },
        "close" => Syscall::Close { fd: fd()? },
        "lseek" => {
            let code = v.field("whence", "call")?.as_u64("whence")?;
            Syscall::Lseek {
                fd: fd()?,
                offset: v.field("offset", "call")?.as_i64("offset")?,
                whence: Whence::from_code(code)
                    .ok_or_else(|| format!("unknown whence code {code}"))?,
            }
        }
        "read" => Syscall::Read {
            fd: fd()?,
            len: len()?,
        },
        "pread" => Syscall::Pread {
            fd: fd()?,
            pos: v.field("pos", "call")?.as_u64("pos")?,
            len: len()?,
        },
        "write" => {
            let mut data = Vec::new();
            hex_decode(v.field("data", "call")?.as_str("data")?, &mut data)?;
            Syscall::Write { fd: fd()?, data }
        }
        "fsync" => Syscall::Fsync { fd: fd()? },
        "stat" => Syscall::Stat { path: path()? },
        "fstat" => Syscall::Fstat { fd: fd()? },
        "mkdir" => Syscall::Mkdir { path: path()? },
        "readdir" => Syscall::Readdir { path: path()? },
        "unlink" => Syscall::Unlink { path: path()? },
        "ring_enter" => {
            let subs = v.field("ops", "call")?.as_arr("ops")?;
            let mut ops = Vec::with_capacity(subs.len());
            for r in subs {
                ops.push((
                    r.field("user_data", "ring op")?.as_u64("user_data")?,
                    parse_call(r.field("call", "ring op")?)?,
                ));
            }
            Syscall::RingEnter {
                capacity: v.field("capacity", "call")?.as_usize("capacity")?,
                ops,
            }
        }
        other => return Err(format!("unknown or uncapturable op {other:?}")),
    })
}

fn parse_op(v: &Json) -> Result<CapturedOp, String> {
    let o = v.field("outcome", "op")?;
    let rows = o.field("classes", "outcome")?.as_arr("classes")?;
    let mut classes = Vec::with_capacity(rows.len());
    for c in rows {
        classes.push(ClassCost {
            class: c.field("class", "class cost")?.as_u64("class")?,
            commands: c.field("commands", "class cost")?.as_u64("commands")?,
            queue_wait_ns: c
                .field("queue_wait_ns", "class cost")?
                .as_u64("queue_wait_ns")?,
            service_ns: c.field("service_ns", "class cost")?.as_u64("service_ns")?,
            bytes: c.field("bytes", "class cost")?.as_u64("bytes")?,
        });
    }
    Ok(CapturedOp {
        seq: v.field("seq", "op")?.as_u64("seq")?,
        tenant: v.field("tenant", "op")?.as_u64("tenant")?,
        submit_ns: v.field("submit_ns", "op")?.as_u64("submit_ns")?,
        fault_epoch: v.field("fault_epoch", "op")?.as_u64("fault_epoch")?,
        path: match v.opt_field("path", "op")? {
            Some(p) => Some(Arc::from(p.as_str("path")?)),
            None => None,
        },
        call: parse_call(v.field("call", "op")?)?,
        outcome: OpOutcome {
            ok: o.field("ok", "outcome")?.as_bool("ok")?,
            errno: match o.opt_field("errno", "outcome")? {
                Some(e) => {
                    let name = e.as_str("errno")?;
                    Some(Errno::from_name(name).ok_or_else(|| format!("unknown errno {name:?}"))?)
                }
                None => None,
            },
            ret: o.field("ret", "outcome")?.as_u64("ret")?,
            data_len: o.field("data_len", "outcome")?.as_u64("data_len")?,
            data_fold: o.field("data_fold", "outcome")?.as_u64("data_fold")?,
            complete_ns: o.field("complete_ns", "outcome")?.as_u64("complete_ns")?,
            queue_wait_ns: o
                .field("queue_wait_ns", "outcome")?
                .as_u64("queue_wait_ns")?,
            service_ns: o.field("service_ns", "outcome")?.as_u64("service_ns")?,
            device_commands: o
                .field("device_commands", "outcome")?
                .as_u64("device_commands")?,
            device_bytes: o.field("device_bytes", "outcome")?.as_u64("device_bytes")?,
            hedges: o.field("hedges", "outcome")?.as_u64("hedges")?,
            classes,
        },
    })
}
