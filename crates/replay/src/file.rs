//! The schema-versioned on-disk capture format: `CAPTURE_*.jsonl`.
//!
//! Line 1 is the header — schema tag, completeness verdict, machine and
//! queue configuration, setup steps, fault plan. Every following line is
//! one captured op, in global capture order. The format is deterministic
//! (BTreeMap-backed, integers in decimal, the one `f64` as IEEE bits),
//! so byte-comparing two capture files *is* the identity property.

use std::fmt::Write as _;

use sleds_faults::{FaultPlan, FaultWindow};
use sleds_fs::{Capture, CapturedOp, ClassCost, Fd, OpOutcome, Syscall, Whence, CAPTURE_SCHEMA};
use sleds_sim_core::{SimDuration, SimTime};

use crate::json::{self, escape, hex_decode, hex_encode, Json};
use crate::setup::{SetupStep, WorkloadSpec};

/// A capture plus the environment it ran in — everything replay needs.
#[derive(Clone, Debug)]
pub struct CaptureFile {
    /// The rebuildable environment.
    pub spec: WorkloadSpec,
    /// The recorded workload.
    pub capture: Capture,
}

impl CaptureFile {
    /// Serializes to the JSONL format. Deterministic byte-for-byte.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        out.push_str(&header_json(&self.spec, &self.capture));
        out.push('\n');
        for op in &self.capture.ops {
            out.push_str(&op_json(op));
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
        let mut ops = Vec::new();
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

fn header_json(spec: &WorkloadSpec, cap: &Capture) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"schema\":\"{CAPTURE_SCHEMA}\",\"complete\":{},\"incomplete_reason\":{},\
         \"budget\":{},\"base_ns\":{},\"ops\":{},\"machine\":\"{}\",\"cmd_queue_capacity\":{},\
         \"hedge_max\":{},\"hedge_deadline_mult_bits\":{},\"hedge_cancel_ns\":{},",
        cap.complete,
        match &cap.incomplete_reason {
            Some(r) => format!("\"{}\"", escape(r)),
            None => "null".to_string(),
        },
        cap.budget,
        cap.base_ns,
        cap.ops.len(),
        escape(&spec.machine),
        spec.cmd_queue_capacity,
        spec.hedge.max_hedges,
        spec.hedge.deadline_mult.to_bits(),
        spec.hedge.cancel_cost.as_nanos(),
    );
    s.push_str("\"setup\":[");
    for (i, step) in spec.setup.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&step_json(step));
    }
    s.push_str("],\"faults\":[");
    let mut first = true;
    for dev in spec.fault_plan.device_names() {
        let Some(inj) = spec.fault_plan.injector_for(dev) else {
            continue;
        };
        if !first {
            s.push(',');
        }
        first = false;
        let _ = write!(s, "{{\"dev\":\"{}\",\"windows\":[", escape(dev));
        for (j, w) in inj.windows().iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            s.push_str(&window_json(w));
        }
        s.push_str("]}");
    }
    s.push_str("]}");
    s
}

fn window_json(w: &FaultWindow) -> String {
    match *w {
        FaultWindow::Transient {
            start,
            end,
            budget,
            fail_cost,
        } => format!(
            "{{\"kind\":\"transient\",\"start_ns\":{},\"end_ns\":{},\"budget\":{},\
             \"fail_cost_ns\":{}}}",
            start.as_nanos(),
            end.as_nanos(),
            budget,
            fail_cost.as_nanos()
        ),
        FaultWindow::Degraded {
            start,
            end,
            multiplier,
        } => format!(
            "{{\"kind\":\"degraded\",\"start_ns\":{},\"end_ns\":{},\"multiplier_bits\":{}}}",
            start.as_nanos(),
            end.as_nanos(),
            multiplier.to_bits()
        ),
        FaultWindow::Offline {
            start,
            end,
            probe_cost,
        } => format!(
            "{{\"kind\":\"offline\",\"start_ns\":{},\"end_ns\":{},\"probe_cost_ns\":{}}}",
            start.as_nanos(),
            end.as_nanos(),
            probe_cost.as_nanos()
        ),
    }
}

fn layout_json(layout: &sleds_fs::VolumeLayout) -> String {
    use sleds_fs::VolumeLayout;
    match layout {
        VolumeLayout::Mirrored => "\"layout\":\"mirrored\"".to_string(),
        VolumeLayout::Striped { stripe_pages } => {
            format!("\"layout\":\"striped\",\"stripe_pages\":{stripe_pages}")
        }
        VolumeLayout::Coded { k } => format!("\"layout\":\"coded\",\"k\":{k}"),
    }
}

fn step_json(step: &SetupStep) -> String {
    match step {
        SetupStep::Mkdir { path } => {
            format!("{{\"step\":\"mkdir\",\"path\":\"{}\"}}", escape(path))
        }
        SetupStep::MountDisk { path, model, name } => format!(
            "{{\"step\":\"mount_disk\",\"path\":\"{}\",\"model\":\"{}\",\"name\":\"{}\"}}",
            escape(path),
            escape(model),
            escape(name)
        ),
        SetupStep::MountNfs { path, model, name } => format!(
            "{{\"step\":\"mount_nfs\",\"path\":\"{}\",\"model\":\"{}\",\"name\":\"{}\"}}",
            escape(path),
            escape(model),
            escape(name)
        ),
        SetupStep::MountCdrom { path, model, name } => format!(
            "{{\"step\":\"mount_cdrom\",\"path\":\"{}\",\"model\":\"{}\",\"name\":\"{}\"}}",
            escape(path),
            escape(model),
            escape(name)
        ),
        SetupStep::MountHsm {
            path,
            disk_model,
            disk_name,
            tape_model,
            tape_name,
            chunk_pages,
        } => format!(
            "{{\"step\":\"mount_hsm\",\"path\":\"{}\",\"disk_model\":\"{}\",\
             \"disk_name\":\"{}\",\"tape_model\":\"{}\",\"tape_name\":\"{}\",\
             \"chunk_pages\":{}}}",
            escape(path),
            escape(disk_model),
            escape(disk_name),
            escape(tape_model),
            escape(tape_name),
            chunk_pages
        ),
        SetupStep::MountVolume {
            path,
            layout,
            members,
        } => {
            let mut s = format!(
                "{{\"step\":\"mount_volume\",\"path\":\"{}\",{},\"members\":[",
                escape(path),
                layout_json(layout)
            );
            for (i, (model, name)) in members.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(
                    s,
                    "{{\"model\":\"{}\",\"name\":\"{}\"}}",
                    escape(model),
                    escape(name)
                );
            }
            s.push_str("]}");
            s
        }
        SetupStep::InstallFile { path, data } => format!(
            "{{\"step\":\"install_file\",\"path\":\"{}\",\"data\":\"{}\"}}",
            escape(path),
            hex_encode(data)
        ),
        SetupStep::InstallSparseFile { path, size } => format!(
            "{{\"step\":\"install_sparse_file\",\"path\":\"{}\",\"size\":{}}}",
            escape(path),
            size
        ),
        SetupStep::WarmFilePages {
            path,
            first_page,
            pages,
        } => format!(
            "{{\"step\":\"warm_file_pages\",\"path\":\"{}\",\"first_page\":{},\"pages\":{}}}",
            escape(path),
            first_page,
            pages
        ),
        SetupStep::HsmMigrate { path, free } => format!(
            "{{\"step\":\"hsm_migrate\",\"path\":\"{}\",\"free\":{}}}",
            escape(path),
            free
        ),
        SetupStep::DropCaches => "{\"step\":\"drop_caches\"}".to_string(),
    }
}

fn flags_json(flags: &sleds_fs::OpenFlags) -> String {
    let mut s = String::new();
    if flags.read {
        s.push('r');
    }
    if flags.write {
        s.push('w');
    }
    if flags.create {
        s.push('c');
    }
    if flags.truncate {
        s.push('t');
    }
    if flags.append {
        s.push('a');
    }
    s
}

fn call_json(call: &Syscall) -> String {
    let op = call.name();
    match call {
        Syscall::TenantRegister { name } => {
            format!("{{\"op\":\"{op}\",\"name\":\"{}\"}}", escape(name))
        }
        Syscall::Open { path, flags } => format!(
            "{{\"op\":\"{op}\",\"path\":\"{}\",\"flags\":\"{}\"}}",
            escape(path),
            flags_json(flags)
        ),
        Syscall::Close { fd } | Syscall::Fsync { fd } | Syscall::Fstat { fd } => {
            format!("{{\"op\":\"{op}\",\"fd\":{}}}", fd.0)
        }
        Syscall::Lseek { fd, offset, whence } => format!(
            "{{\"op\":\"{op}\",\"fd\":{},\"offset\":{offset},\"whence\":{}}}",
            fd.0, *whence as u64
        ),
        Syscall::Read { fd, len } => format!("{{\"op\":\"{op}\",\"fd\":{},\"len\":{len}}}", fd.0),
        Syscall::Pread { fd, pos, len } => {
            format!(
                "{{\"op\":\"{op}\",\"fd\":{},\"pos\":{pos},\"len\":{len}}}",
                fd.0
            )
        }
        Syscall::Write { fd, data } => format!(
            "{{\"op\":\"{op}\",\"fd\":{},\"data\":\"{}\"}}",
            fd.0,
            hex_encode(data)
        ),
        Syscall::Stat { path }
        | Syscall::Mkdir { path }
        | Syscall::Readdir { path }
        | Syscall::Unlink { path } => {
            format!("{{\"op\":\"{op}\",\"path\":\"{}\"}}", escape(path))
        }
        Syscall::RingEnter { capacity, ops } => {
            let mut s = format!("{{\"op\":\"{op}\",\"capacity\":{capacity},\"ops\":[");
            for (i, (user_data, call)) in ops.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(
                    s,
                    "{{\"user_data\":{user_data},\"call\":{}}}",
                    call_json(call)
                );
            }
            s.push_str("]}");
            s
        }
        // Not capturable (their pricing tables have no capture form): a
        // recorder poisons instead of storing one, and `parse_call`
        // rejects the name, so a hand-built capture fails loudly on load.
        Syscall::FsledsGet { .. } | Syscall::PickAdvice { .. } => {
            format!("{{\"op\":\"{op}\"}}")
        }
    }
}

fn op_json(op: &CapturedOp) -> String {
    let o = &op.outcome;
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"seq\":{},\"tenant\":{},\"submit_ns\":{},\"fault_epoch\":{},\"path\":{},\
         \"call\":{},\"outcome\":{{\"ok\":{},\"errno\":{},\"ret\":{},\"data_len\":{},\
         \"data_fold\":{},\"complete_ns\":{},\"queue_wait_ns\":{},\"service_ns\":{},\
         \"device_commands\":{},\"device_bytes\":{},\"hedges\":{},\"classes\":[",
        op.seq,
        op.tenant,
        op.submit_ns,
        op.fault_epoch,
        match &op.path {
            Some(p) => format!("\"{}\"", escape(p)),
            None => "null".to_string(),
        },
        call_json(&op.call),
        o.ok,
        match &o.errno {
            Some(e) => format!("\"{}\"", escape(e)),
            None => "null".to_string(),
        },
        o.ret,
        o.data_len,
        o.data_fold,
        o.complete_ns,
        o.queue_wait_ns,
        o.service_ns,
        o.device_commands,
        o.device_bytes,
        o.hedges,
    );
    for (i, c) in o.classes.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"class\":{},\"commands\":{},\"queue_wait_ns\":{},\"service_ns\":{},\
             \"bytes\":{}}}",
            c.class, c.commands, c.queue_wait_ns, c.service_ns, c.bytes
        );
    }
    s.push_str("]}}");
    s
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
        deadline_mult: f64::from_bits(
            header
                .field("hedge_deadline_mult_bits", "header")?
                .as_u64("hedge_deadline_mult_bits")?,
        ),
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
        for w in entry.field("windows", "fault entry")?.as_arr("windows")? {
            plan = parse_window(plan, dev, w)?;
        }
    }
    spec.fault_plan = plan;
    Ok(spec)
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
            let bits = w
                .field("multiplier_bits", "window")?
                .as_u64("multiplier_bits")?;
            Ok(plan.degraded(dev, start, end, f64::from_bits(bits)))
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
            use sleds_fs::VolumeLayout;
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
        "install_file" => Ok(SetupStep::InstallFile {
            path: path("path")?,
            data: hex_decode(v.field("data", "setup step")?.as_str("data")?)?,
        }),
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

fn parse_flags(s: &str) -> Result<sleds_fs::OpenFlags, String> {
    let mut flags = sleds_fs::OpenFlags::default();
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
        "write" => Syscall::Write {
            fd: fd()?,
            data: hex_decode(v.field("data", "call")?.as_str("data")?)?,
        },
        "fsync" => Syscall::Fsync { fd: fd()? },
        "stat" => Syscall::Stat { path: path()? },
        "fstat" => Syscall::Fstat { fd: fd()? },
        "mkdir" => Syscall::Mkdir { path: path()? },
        "readdir" => Syscall::Readdir { path: path()? },
        "unlink" => Syscall::Unlink { path: path()? },
        "ring_enter" => {
            let mut ops = Vec::new();
            for r in v.field("ops", "call")?.as_arr("ops")? {
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
    let mut classes = Vec::new();
    for c in o.field("classes", "outcome")?.as_arr("classes")? {
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
            Some(p) => Some(p.as_str("path")?.to_string()),
            None => None,
        },
        call: parse_call(v.field("call", "op")?)?,
        outcome: OpOutcome {
            ok: o.field("ok", "outcome")?.as_bool("ok")?,
            errno: match o.opt_field("errno", "outcome")? {
                Some(e) => Some(e.as_str("errno")?.to_string()),
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
