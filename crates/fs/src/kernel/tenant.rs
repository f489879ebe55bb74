//! Tenants: interleaved timelines on shared devices, and the saturation
//! report that attributes each device's queue to them.

use sleds_sim_core::{index, Errno, SimDuration, SimError, SimResult, SimTime, TenantId};

use super::{Kernel, TenantState};
use crate::queue::{self, SaturationReport};
use crate::rusage::Rusage;
use crate::syscall::{self as sys, Syscall, SyscallRet};

impl Kernel {
    /// Registers a new tenant named `name`; its timeline starts at the
    /// current virtual time. Returns its id. Tenant 0 ("main") always
    /// exists — it is the tenant every kernel boots as.
    pub fn tenant_register(&mut self, name: &str) -> TenantId {
        // Registration cannot fail: the id is the row the body pushes.
        let id = TenantId(self.tenants.len() as u64);
        let make = || Syscall::TenantRegister {
            name: name.to_string(),
        };
        let _ = self.sys(&sys::TENANT_REGISTER, [0; 3], make, |k| {
            let now = k.now();
            k.tenants.push(TenantState {
                name: name.to_string(),
                clock_at: now,
                registered_at: now,
                usage: Rusage::default(),
            });
            Ok(SyscallRet::Tenant(id))
        });
        id
    }

    /// Makes `t` the active tenant: parks the current tenant's clock and
    /// usage share, and resumes `t`'s timeline where it left off. The
    /// virtual clock may move *backward* across a switch — tenants are
    /// concurrent processes, each with its own monotone timeline — but a
    /// device's command queue keeps every device's schedule monotone, so
    /// queue waits (and only queue waits) reflect the interleaving.
    pub fn tenant_switch(&mut self, t: TenantId) -> SimResult<()> {
        let idx = index(t.0);
        if idx >= self.tenants.len() {
            return Err(SimError::new(
                Errno::Einval,
                format!("tenant_switch: no tenant {}", t.0),
            ));
        }
        if idx == self.active_tenant {
            return Ok(());
        }
        // Flush the outgoing tenant's usage share and park its clock.
        let usage = self.usage();
        let delta = usage.since(&self.tenant_snapshot);
        self.tenants[self.active_tenant].usage.accumulate(&delta);
        self.tenant_snapshot = usage;
        let resume_at = self.tenants[idx].clock_at;
        self.tenants[self.active_tenant].clock_at = self.ledger.switch_timeline(resume_at);
        self.active_tenant = idx;
        self.tracer.set_tenant(t.0);
        Ok(())
    }

    /// The tenant whose timeline the kernel clock currently is.
    pub fn active_tenant(&self) -> TenantId {
        TenantId(self.active_tenant as u64)
    }

    /// Number of registered tenants (including the implicit main tenant).
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// `(id, name)` rows for every registered tenant, ascending by id —
    /// the shape the Chrome exporter's lane labeling takes.
    pub fn tenant_names(&self) -> Vec<(u64, String)> {
        self.tenants
            .iter()
            .enumerate()
            .map(|(i, s)| (i as u64, s.name.clone()))
            .collect()
    }

    /// A tenant's accumulated resource usage, including the active
    /// tenant's not-yet-flushed share. Per-tenant rows sum exactly to
    /// [`Kernel::usage`].
    pub fn tenant_usage(&self, t: TenantId) -> Option<Rusage> {
        let idx = index(t.0);
        self.tenants.get(idx).map(|s| {
            let mut u = s.usage;
            if idx == self.active_tenant {
                u.accumulate(&self.usage().since(&self.tenant_snapshot));
            }
            u
        })
    }

    /// Where a tenant's timeline currently stands (the kernel clock for
    /// the active tenant, its parked clock otherwise).
    pub fn tenant_now(&self, t: TenantId) -> Option<SimTime> {
        let idx = index(t.0);
        self.tenants.get(idx).map(|s| {
            if idx == self.active_tenant {
                self.now()
            } else {
                s.clock_at
            }
        })
    }

    /// Virtual time elapsed on a tenant's timeline since it registered.
    pub fn tenant_elapsed(&self, t: TenantId) -> Option<SimDuration> {
        let idx = index(t.0);
        let registered = self.tenants.get(idx)?.registered_at;
        self.tenant_now(t).map(|now| now.duration_since(registered))
    }

    /// Builds the saturation/attribution report from the per-device queue
    /// telemetry: per-device utilization and per-tenant demand shares
    /// (bullies flagged), and per-tenant latency attribution whose
    /// own-service + queue-wait sums exactly to the observed device time.
    /// Pure query: charges nothing, and a capture stays complete across it.
    pub fn saturation_report(&self) -> SaturationReport {
        let devices = self.devices.iter().map(|d| (d.name(), d.class().code()));
        queue::saturation_report(
            self.queues
                .iter()
                .zip(devices)
                .map(|(q, (name, class))| (q, name, class)),
            self.tenants.iter().map(|t| t.name.as_str()),
        )
    }
}
