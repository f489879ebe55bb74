//! `gmc`: the file manager's SLEDs properties panel.
//!
//! The paper added a panel to GNOME Midnight Commander's file-properties
//! dialog showing each SLED of the file and the estimated total delivery
//! time (its Figure 6), so users can decide whether a file is worth opening
//! — the pure *reporting* use of SLEDs. This module produces that panel.

use sleds::{fsleds_get, AttackPlan, ObservedError, SledReport, SledsTable};
use sleds_fs::{Kernel, OpenFlags};
use sleds_sim_core::SimResult;

/// The information the panel displays.
#[derive(Clone, Debug)]
pub struct PropertiesPanel {
    /// Formatted report (per-SLED rows + totals).
    pub report: SledReport,
    /// File size in bytes.
    pub size: u64,
    /// Estimated delivery (linear plan), seconds.
    pub linear_secs: f64,
    /// Estimated delivery (reordered plan), seconds.
    pub best_secs: f64,
    /// Fraction of bytes at the cheapest level.
    pub cached_fraction: f64,
    /// Forecast (section 3.4 extension): competing bytes the cache can
    /// absorb before the cheapest SLED starts degrading, when predictable.
    pub stable_for_bytes: Option<u64>,
}

// [sleds:begin]
/// Builds the SLEDs properties panel for `path`.
pub fn properties_panel(
    kernel: &mut Kernel,
    table: &SledsTable,
    path: &str,
) -> SimResult<PropertiesPanel> {
    let size = kernel.stat(path)?.size;
    let fd = kernel.open(path, OpenFlags::RDONLY)?;
    let sleds = fsleds_get(kernel, fd, table)?;
    let forecasts = sleds::forecast(kernel, table, fd)?;
    // Observed prediction error for the class that would serve this file,
    // from the kernel's rolling accuracy windows. The ioctl is issued
    // unconditionally so a traced panel costs the same virtual time as an
    // untraced one; an untraced kernel just returns empty windows.
    let class = kernel.serving_class_code(fd)?;
    let stats = kernel.fsleds_stat(fd)?;
    let eta_error = stats
        .device
        .get(class as usize)
        .and_then(|cm| {
            cm.accuracy
                .mean_abs_rel_err()
                .map(|e| (e, cm.accuracy.len()))
        })
        .map(|(e, n)| ObservedError {
            mean_abs_rel_err: e,
            samples: n,
        });
    kernel.close(fd)?;
    let stable_for_bytes = forecasts.iter().filter_map(|f| f.survives_bytes()).min();
    let report = SledReport::new(path, sleds).with_observed_error(eta_error);
    Ok(PropertiesPanel {
        linear_secs: report.total_secs(AttackPlan::Linear),
        best_secs: report.total_secs(AttackPlan::Best),
        cached_fraction: report.cached_fraction(),
        size,
        report,
        stable_for_bytes,
    })
}
// [sleds:end]

impl std::fmt::Display for PropertiesPanel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.report)?;
        writeln!(
            f,
            "  size {} bytes, {:.0}% cached",
            self.size,
            self.cached_fraction * 100.0
        )?;
        if let Some(b) = self.stable_for_bytes {
            writeln!(
                f,
                "  cached portion stable for ~{} MiB of competing traffic",
                b >> 20
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sleds_devices::DiskDevice;
    use sleds_fs::Whence;
    use sleds_lmbench::fill_table;
    use sleds_sim_core::PAGE_SIZE;

    #[test]
    fn panel_reflects_cache_state() {
        let mut k = Kernel::table2();
        k.mkdir("/data").unwrap();
        let m = k
            .mount_disk("/data", DiskDevice::table2_disk("hda"))
            .unwrap();
        let data = vec![0u8; 16 * PAGE_SIZE as usize];
        k.install_file("/data/f", &data).unwrap();
        let t = fill_table(&mut k, &[("/data", m)]).unwrap();

        let cold = properties_panel(&mut k, &t, "/data/f").unwrap();
        assert_eq!(cold.size, data.len() as u64);
        assert_eq!(cold.cached_fraction, 0.0);
        assert!(cold.linear_secs > 0.01, "cold file needs a disk access");

        // Warm half the file.
        let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
        k.lseek(fd, 8 * PAGE_SIZE as i64, Whence::Set).unwrap();
        k.read(fd, 8 * PAGE_SIZE as usize).unwrap();
        k.close(fd).unwrap();

        let warm = properties_panel(&mut k, &t, "/data/f").unwrap();
        assert!((warm.cached_fraction - 0.5).abs() < 0.01);
        assert!(warm.best_secs < cold.best_secs);
        assert!(warm.best_secs <= warm.linear_secs + 1e-12);
        assert!(
            warm.stable_for_bytes.is_some(),
            "LRU cache state is forecastable"
        );
        assert!(
            cold.stable_for_bytes.is_none(),
            "nothing cached, nothing to hold"
        );
        let text = format!("{warm}");
        assert!(text.contains("50% cached"));
        assert!(text.contains("estimated delivery"));
        assert!(text.contains("stable for"));
    }

    #[test]
    fn panel_carries_observed_error_bar_when_traced() {
        let mut k = Kernel::table2();
        k.enable_tracing();
        k.mkdir("/data").unwrap();
        let m = k
            .mount_disk("/data", DiskDevice::table2_disk("hda"))
            .unwrap();
        let data = vec![7u8; 8 * PAGE_SIZE as usize];
        k.install_file("/data/f", &data).unwrap();
        let t = fill_table(&mut k, &[("/data", m)]).unwrap();

        // No audited predictions yet: panel renders without an error bar.
        let before = properties_panel(&mut k, &t, "/data/f").unwrap();
        assert!(!format!("{before}").contains("observed error"));

        // Predict, read to completion, close — one audited pair.
        let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
        sleds::total_delivery_time(&mut k, &t, fd, AttackPlan::Linear).unwrap();
        k.read(fd, data.len()).unwrap();
        k.close(fd).unwrap();

        let after = properties_panel(&mut k, &t, "/data/f").unwrap();
        assert!(format!("{after}").contains("observed error: ±"));
        assert!(format!("{after}").contains("over last 1 predictions"));
    }

    #[test]
    fn panel_on_missing_file_fails() {
        let mut k = Kernel::table2();
        let t = SledsTable::new();
        assert!(properties_panel(&mut k, &t, "/nope").is_err());
    }
}
