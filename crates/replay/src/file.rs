//! The schema-versioned on-disk capture format: `CAPTURE_*.jsonl`.
//!
//! Line 1 is the header — schema tag, completeness verdict, machine and
//! queue configuration, setup steps, fault plan. Every following line is
//! one captured op, in global capture order. The format is deterministic
//! (fields in one fixed order, integers in decimal, every `f64` as its
//! IEEE bits), so byte-comparing two capture files *is* the identity
//! property.
//!
//! Each `read_*` is its `write_*` run backwards: the same keys in the same
//! order, each through [`Reader::field`]; a tagged object (a call's `op`, a
//! setup step's `step`, a window's `kind`, a volume's `layout`) reads its
//! tag, then `match`es on it for the keys that follow. A field is one write
//! line and one read line, and the reader refuses any key but the next one
//! the writer puts.

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::sync::Arc;

use sleds_faults::{FaultPlan, FaultWindow};
use sleds_fs::trace::CostRow;
use sleds_fs::{
    Capture, CapturedOp, Fd, OpOutcome, OpenFlags, Syscall, VolumeLayout, Whence, CAPTURE_SCHEMA,
};
use sleds_sim_core::{Errno, SimDuration, SimTime};

use crate::json::{b64_encode, push_escaped, push_u64, Reader};
use crate::setup::{SetupStep, WorkloadSpec};

/// A capture plus the environment it ran in — everything replay needs.
#[derive(Clone, Debug)]
pub struct CaptureFile {
    /// The rebuildable environment.
    pub spec: WorkloadSpec,
    /// The recorded workload.
    pub capture: Capture,
}

/// Bytes an op line takes beyond its strings and base64 payload: more than
/// the fixed keys and a row of twenty-digit numbers come to.
const OP_LINE_ROOM: usize = 768;

/// A lower bound on an op line: the keys alone are longer.
const OP_LINE_MIN: usize = 256;

impl CaptureFile {
    /// Serializes to the JSONL format. Deterministic byte-for-byte.
    pub fn to_jsonl(&self) -> String {
        // One buffer, sized once: a 10 MB capture must not be built by
        // doubling (twice the memory at the last step) or line by line.
        let base64 = |data: &[u8]| data.len().div_ceil(3) * 4;
        let payload = |call: &Syscall| match call {
            Syscall::Write { data, .. } => base64(data),
            Syscall::RingEnter { ops, .. } => OP_LINE_ROOM / 4 * ops.len(),
            _ => 0,
        };
        let ops: usize = self.capture.ops.iter().map(|op| payload(&op.call)).sum();
        let setup: usize = self
            .spec
            .setup
            .iter()
            .map(|step| match step {
                SetupStep::InstallFile { data, .. } => base64(data),
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
                .line(|r| read_op(r, &mut paths, ops.len()))
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

    fn base64(&mut self, key: &str, data: &[u8]) {
        let out = self.key(key);
        out.push('"');
        b64_encode(out, data);
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
            o.base64("data", data);
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
            o.base64("data", data);
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
        // Not capturable (its pricing table has no capture form): a
        // recorder poisons instead of storing one, and `read_call`
        // rejects the name, so a hand-built capture fails loudly on load.
        Syscall::FsledsGet { .. } => {}
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

/// An integer field, as the type that holds it: a `u64`, or a narrower
/// one whose range it must fit.
fn int<T: TryFrom<u64>>(r: &mut Reader, key: &str) -> Result<T, String> {
    r.field(key, |r| {
        let n = r.u64()?;
        T::try_from(n).map_err(|_| format!("{key} {n} out of range"))
    })
}

/// A string field, owned.
fn text(r: &mut Reader, key: &str) -> Result<String, String> {
    r.field(key, |r| r.string().map(Cow::into_owned))
}

/// Reads an `f64` from its bits. Every multiplier in a capture scales a
/// service time: NaN, an infinity, zero or a negative would replay
/// "successfully" into nonsense.
fn multiplier(r: &mut Reader, key: &str) -> Result<f64, String> {
    r.field(key, |r| {
        let bits = r.u64()?;
        let m = f64::from_bits(bits);
        if m.is_finite() && m > 0.0 {
            Ok(m)
        } else {
            Err(format!(
                "{key} {bits} is {m}, not a finite positive multiplier"
            ))
        }
    })
}

/// The header: the capture without its ops, and how many ops it declares.
fn read_header(r: &mut Reader) -> Result<(CaptureFile, usize), String> {
    r.object(|r| {
        r.field("schema", |r| match r.string()? {
            s if s == CAPTURE_SCHEMA => Ok(()),
            s => Err(format!(
                "unknown capture schema {s:?} (expected {CAPTURE_SCHEMA:?})"
            )),
        })?;
        let complete = r.field("complete", Reader::bool)?;
        let incomplete_reason = r.field("incomplete_reason", |r| {
            r.nullable(|r| r.string().map(Cow::into_owned))
        })?;
        // The recorder sets both together: a reason on a complete capture
        // is a file edited after the fact.
        if complete == incomplete_reason.is_some() {
            return Err(format!(
                "complete is {complete} but incomplete_reason is {incomplete_reason:?}"
            ));
        }
        let capture = Capture {
            complete,
            incomplete_reason,
            budget: int(r, "budget")?,
            base_ns: int(r, "base_ns")?,
            ops: Vec::new(),
        };
        let ops = int(r, "ops")?;
        let spec = WorkloadSpec {
            machine: text(r, "machine")?,
            cmd_queue_capacity: int(r, "cmd_queue_capacity")?,
            hedge: sleds_fs::HedgePolicy {
                max_hedges: int(r, "hedge_max")?,
                deadline_mult: multiplier(r, "hedge_deadline_mult_bits")?,
                cancel_cost: SimDuration::from_nanos(int(r, "hedge_cancel_ns")?),
            },
            setup: r.field("setup", |r| list(r, read_step))?,
            fault_plan: r.field("faults", |r| {
                let mut plan = FaultPlan::new();
                r.array(|r| read_fault_entry(r, &mut plan))?;
                Ok(plan)
            })?,
        };
        Ok((CaptureFile { spec, capture }, ops))
    })
}

/// One `{"dev":…,"windows":[…]}` entry, added to `plan`.
fn read_fault_entry(r: &mut Reader, plan: &mut FaultPlan) -> Result<(), String> {
    r.object(|r| {
        let dev = r.field("dev", Reader::string)?;
        r.field("windows", |r| {
            let mut i = 0;
            r.array(|r| {
                let taken = std::mem::take(&mut *plan);
                *plan =
                    read_window(r, taken, &dev).map_err(|e| format!("{dev} window {i}: {e}"))?;
                i += 1;
                Ok(())
            })
        })
    })
}

/// One fault window on `dev`, added to `plan`.
fn read_window(r: &mut Reader, plan: FaultPlan, dev: &str) -> Result<FaultPlan, String> {
    r.object(|r| {
        let kind = r.field("kind", Reader::string)?;
        let (start, end) = (int(r, "start_ns")?, int(r, "end_ns")?);
        if end <= start {
            return Err(format!("end_ns {end} is not after start_ns {start}"));
        }
        let (start, end) = (SimTime::from_nanos(start), SimTime::from_nanos(end));
        let ns = |r: &mut Reader, key| int(r, key).map(SimDuration::from_nanos);
        Ok(match &*kind {
            "transient" => {
                plan.transient(dev, start, end, int(r, "budget")?, ns(r, "fail_cost_ns")?)
            }
            "degraded" => plan.degraded(dev, start, end, multiplier(r, "multiplier_bits")?),
            "offline" => plan.offline(dev, start, end, ns(r, "probe_cost_ns")?),
            other => return Err(format!("unknown fault window kind {other:?}")),
        })
    })
}

fn read_step(r: &mut Reader) -> Result<SetupStep, String> {
    r.object(|r| {
        let step = r.field("step", Reader::string)?;
        // `{"step":…,"path":…,"model":…,"name":…}`: the three plain mounts.
        let mount = |r: &mut Reader| -> Result<[String; 3], String> {
            Ok([text(r, "path")?, text(r, "model")?, text(r, "name")?])
        };
        Ok(match &*step {
            "mkdir" => SetupStep::Mkdir {
                path: text(r, "path")?,
            },
            "mount_disk" => {
                let [path, model, name] = mount(r)?;
                SetupStep::MountDisk { path, model, name }
            }
            "mount_nfs" => {
                let [path, model, name] = mount(r)?;
                SetupStep::MountNfs { path, model, name }
            }
            "mount_cdrom" => {
                let [path, model, name] = mount(r)?;
                SetupStep::MountCdrom { path, model, name }
            }
            "mount_hsm" => SetupStep::MountHsm {
                path: text(r, "path")?,
                disk_model: text(r, "disk_model")?,
                disk_name: text(r, "disk_name")?,
                tape_model: text(r, "tape_model")?,
                tape_name: text(r, "tape_name")?,
                chunk_pages: int(r, "chunk_pages")?,
            },
            "mount_volume" => SetupStep::MountVolume {
                path: text(r, "path")?,
                layout: match &*r.field("layout", Reader::string)? {
                    "mirrored" => VolumeLayout::Mirrored,
                    "striped" => VolumeLayout::Striped {
                        stripe_pages: int(r, "stripe_pages")?,
                    },
                    "coded" => VolumeLayout::Coded { k: int(r, "k")? },
                    other => return Err(format!("unknown volume layout {other:?}")),
                },
                members: r.field("members", |r| {
                    list(r, |r| {
                        r.object(|r| Ok((text(r, "model")?, text(r, "name")?)))
                    })
                })?,
            },
            "install_file" => SetupStep::InstallFile {
                path: text(r, "path")?,
                data: r.field("data", Reader::base64)?,
            },
            "install_sparse_file" => SetupStep::InstallSparseFile {
                path: text(r, "path")?,
                size: int(r, "size")?,
            },
            "warm_file_pages" => SetupStep::WarmFilePages {
                path: text(r, "path")?,
                first_page: int(r, "first_page")?,
                pages: int(r, "pages")?,
            },
            "hsm_migrate" => SetupStep::HsmMigrate {
                path: text(r, "path")?,
                free: r.field("free", Reader::bool)?,
            },
            "drop_caches" => SetupStep::DropCaches,
            other => return Err(format!("unknown setup step {other:?}")),
        })
    })
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
    r.object(|r| {
        let op = r.field("op", Reader::string)?;
        let fd = |r: &mut Reader| int(r, "fd").map(Fd);
        Ok(match &*op {
            "tenant_register" => Syscall::TenantRegister {
                name: text(r, "name")?,
            },
            "open" => Syscall::Open {
                path: text(r, "path")?,
                flags: r.field("flags", |r| parse_flags(&r.string()?))?,
            },
            "close" => Syscall::Close { fd: fd(r)? },
            "lseek" => Syscall::Lseek {
                fd: fd(r)?,
                offset: r.field("offset", Reader::i64)?,
                whence: r.field("whence", |r| {
                    let code = r.u64()?;
                    Whence::from_code(code).ok_or_else(|| format!("unknown whence code {code}"))
                })?,
            },
            "read" => Syscall::Read {
                fd: fd(r)?,
                len: int(r, "len")?,
            },
            "pread" => Syscall::Pread {
                fd: fd(r)?,
                pos: int(r, "pos")?,
                len: int(r, "len")?,
            },
            "write" => Syscall::Write {
                fd: fd(r)?,
                data: r.field("data", Reader::base64)?,
            },
            "fsync" => Syscall::Fsync { fd: fd(r)? },
            "stat" => Syscall::Stat {
                path: text(r, "path")?,
            },
            "fstat" => Syscall::Fstat { fd: fd(r)? },
            "mkdir" => Syscall::Mkdir {
                path: text(r, "path")?,
            },
            "readdir" => Syscall::Readdir {
                path: text(r, "path")?,
            },
            "unlink" => Syscall::Unlink {
                path: text(r, "path")?,
            },
            "ring_enter" => Syscall::RingEnter {
                capacity: int(r, "capacity")?,
                ops: r.field("ops", |r| {
                    list(r, |r| {
                        r.object(|r| Ok((int(r, "user_data")?, r.field("call", read_call)?)))
                    })
                })?,
            },
            other => return Err(format!("unknown or uncapturable op {other:?}")),
        })
    })
}

/// The outcome, whose device totals must be the sum of its class rows.
fn read_outcome(r: &mut Reader) -> Result<OpOutcome, String> {
    r.object(|r| {
        let mut outcome = OpOutcome {
            ok: r.field("ok", Reader::bool)?,
            errno: r.field("errno", |r| {
                r.nullable(|r| {
                    let name = r.string()?;
                    Errno::from_name(&name).ok_or_else(|| format!("unknown errno {name:?}"))
                })
            })?,
            ret: int(r, "ret")?,
            data_len: int(r, "data_len")?,
            data_fold: int(r, "data_fold")?,
            complete_ns: int(r, "complete_ns")?,
            ..OpOutcome::default()
        };
        let totals = CostRow {
            queue_wait_ns: int(r, "queue_wait_ns")?,
            service_ns: int(r, "service_ns")?,
            commands: int(r, "device_commands")?,
            bytes: int(r, "device_bytes")?,
        };
        outcome.hedges = int(r, "hedges")?;
        outcome.classes = r.field("classes", |r| {
            list(r, |r| {
                r.object(|r| {
                    let class = int(r, "class")?;
                    let row = CostRow {
                        commands: int(r, "commands")?,
                        queue_wait_ns: int(r, "queue_wait_ns")?,
                        service_ns: int(r, "service_ns")?,
                        bytes: int(r, "bytes")?,
                    };
                    Ok((class, row))
                })
            })
        })?;
        let classes = &outcome.classes;
        if let Some(pair) = classes.windows(2).find(|pair| pair[0].0 >= pair[1].0) {
            return Err(format!(
                "class row {} after row {}: rows must ascend strictly",
                pair[1].0, pair[0].0
            ));
        }
        if outcome.device() != totals {
            return Err(format!(
                "outcome totals {totals:?} are not the sum of its class rows {:?}",
                outcome.device()
            ));
        }
        Ok(outcome)
    })
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

/// The op at 0-based `index` in the file: its `seq` must be that index, as
/// the recorder numbers ops and as diffs name them.
fn read_op(
    r: &mut Reader,
    paths: &mut BTreeSet<Arc<str>>,
    index: usize,
) -> Result<CapturedOp, String> {
    r.object(|r| {
        let seq = int(r, "seq")?;
        if seq != index as u64 {
            return Err(format!("seq {seq} is not the op's index {index}"));
        }
        Ok(CapturedOp {
            seq,
            tenant: int(r, "tenant")?,
            submit_ns: int(r, "submit_ns")?,
            fault_epoch: int(r, "fault_epoch")?,
            path: r.field("path", |r| {
                r.nullable(|r| r.string().map(|p| interned(paths, &p)))
            })?,
            call: r.field("call", read_call)?,
            outcome: r.field("outcome", read_outcome)?,
        })
    })
}
