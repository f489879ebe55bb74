//! Every spec in `sleds_repro::scenarios`, built with the arguments, fault
//! plans and hedge policies the examples give it, is data: it survives the
//! capture codec byte for byte, the parsed copy builds the same kernel as
//! the original, and its fault plan names only devices its steps create.

use sleds_repro::faults::FaultPlan;
use sleds_repro::fs::{HedgePolicy, Kernel, VolumeLayout};
use sleds_repro::replay::{build_kernel, CaptureFile, SetupStep, WorkloadSpec};
use sleds_repro::scenarios::{disk_nfs_hsm, disks, four_levels, volume};
use sleds_repro::sim_core::{SimDuration, SimTime};

/// `n` sparse files `dir/{stem}{i}` of `size` bytes.
fn sparse(dir: &str, stem: &str, n: usize, size: u64) -> Vec<(String, u64)> {
    (0..n).map(|i| (format!("{dir}/{stem}{i}"), size)).collect()
}

/// Each example's specs, with its arguments, plans and hedge policies
/// (`replay_whatif`'s file names without their suffixes).
fn every_spec() -> Vec<(&'static str, WorkloadSpec)> {
    let secs = |s| SimTime::ZERO + SimDuration::from_secs(s);
    let forever = SimTime::from_nanos(u64::MAX);
    let ms = SimDuration::from_millis;
    let offline = |dev| FaultPlan::new().offline(dev, SimTime::ZERO, forever, ms(1));
    let with = |fault_plan, hedge, spec: WorkloadSpec| WorkloadSpec {
        fault_plan,
        hedge,
        ..spec
    };
    let storm = FaultPlan::seeded_storm(0x5EED5, &["primary"], SimDuration::from_secs(60))
        .degraded("primary", secs(60), secs(90), 8.0)
        .offline("primary", secs(95), secs(120), ms(1));
    let primary = ("table2_disk", "primary");
    let coded = [
        primary,
        ("nfs_metro", "replica1"),
        ("nfs_regional", "replica2"),
    ];
    let saturation = [
        sparse("/disk", "bulk", 2, 128 << 20),
        sparse("/disk", "web", 192, 1 << 20),
        sparse("/nfs", "client", 20, 1 << 20),
        sparse("/hsm", "vault", 6, 1 << 20),
    ];
    let whatif = [
        sparse("/disk", "bulk", 2, 8 << 20),
        sparse("/disk", "web", 8, 128 << 10),
        sparse("/disk", "ring", 1, 128 << 10),
        sparse("/nfs", "home", 3, 256 << 10),
        sparse("/hsm", "arch", 2, 256 << 10),
    ];
    let d = HedgePolicy::default();
    vec![
        ("saturation_report", disk_nfs_hsm(&saturation.concat())),
        ("replay_whatif", disk_nfs_hsm(&whatif.concat())),
        ("trace_viewer", four_levels(0, 0)),
        ("recal_loop", four_levels(3, 12)),
        (
            "fault_storm storm",
            with(
                FaultPlan::seeded_storm(0xBADD, &["hda", "hdb"], SimDuration::from_secs(60)),
                d,
                disks(&[("/data", "hda"), ("/mirror", "hdb")], 6, 8),
            ),
        ),
        (
            "fault_storm masking",
            with(
                FaultPlan::new().transient("hda", SimTime::ZERO, secs(600), 3, ms(2)),
                d,
                disks(&[("/data", "hda")], 4, 6),
            ),
        ),
        ("fault_storm routing", disks(&[("/data", "hda")], 1, 8)),
        (
            "fault_storm flat",
            with(offline("hda"), d, disks(&[("/flat", "hda")], 4, 6)),
        ),
        (
            "fault_storm mirror",
            with(
                offline("vd0"),
                d,
                volume(
                    VolumeLayout::Mirrored,
                    &[("table2_disk", "vd0"), ("table2_disk", "vd1")],
                    4,
                    6,
                ),
            ),
        ),
        ("fault_storm recovery", disks(&[("/data", "hda")], 24, 1)),
        (
            "redundancy_report flat",
            with(
                storm.clone(),
                HedgePolicy::disabled(),
                disks(&[("/vol", "primary")], 6, 6),
            ),
        ),
        (
            "redundancy_report mirror",
            with(
                storm.clone(),
                d,
                volume(
                    VolumeLayout::Mirrored,
                    &[primary, ("table2_disk", "replica1")],
                    6,
                    6,
                ),
            ),
        ),
        (
            "redundancy_report coded",
            with(storm, d, volume(VolumeLayout::Coded { k: 2 }, &coded, 6, 6)),
        ),
    ]
}

/// The spec in a capture file that captured nothing.
fn empty_file(spec: &WorkloadSpec) -> CaptureFile {
    let mut k = build_kernel(spec).expect("the spec builds");
    k.start_capture(0);
    let capture = k.stop_capture().expect("capture armed");
    CaptureFile {
        spec: spec.clone(),
        capture,
    }
}

#[test]
fn every_spec_roundtrips_through_the_codec() {
    for (name, spec) in every_spec() {
        let text = empty_file(&spec).to_jsonl();
        let parsed = CaptureFile::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(parsed.to_jsonl(), text, "{name}");
    }
}

/// Every path a step installs, in step order.
fn installed(spec: &WorkloadSpec) -> Vec<&str> {
    let paths = spec.setup.iter().filter_map(|step| match step {
        SetupStep::InstallFile { path, .. } | SetupStep::InstallSparseFile { path, .. } => {
            Some(path.as_str())
        }
        _ => None,
    });
    paths.collect()
}

#[test]
fn every_parsed_spec_builds_the_kernel_its_original_does() {
    for (name, spec) in every_spec() {
        let parsed = CaptureFile::parse(&empty_file(&spec).to_jsonl())
            .expect("parses")
            .spec;
        let [mut a, mut b]: [Kernel; 2] =
            [&spec, &parsed].map(|s| build_kernel(s).expect("builds"));
        assert_eq!(a.now(), b.now(), "{name}: clock");
        assert_eq!(
            a.cache_resident_pages(),
            b.cache_resident_pages(),
            "{name}: resident pages"
        );
        // Device names, classes and queues, in attach order.
        assert_eq!(a.saturation_report(), b.saturation_report(), "{name}");
        let paths = installed(&spec);
        assert!(!paths.is_empty() || name == "trace_viewer", "{name}");
        for path in paths {
            let (sa, sb) = (a.stat(path), b.stat(path));
            assert!(sa.is_ok(), "{name}: {path}");
            assert_eq!(sa, sb, "{name}: stat({path})");
        }
    }
}

#[test]
fn every_fault_plan_names_only_devices_the_steps_create() {
    for (name, spec) in every_spec() {
        let created: Vec<&str> = spec
            .setup
            .iter()
            .flat_map(|step| match step {
                SetupStep::MountDisk { name, .. }
                | SetupStep::MountNfs { name, .. }
                | SetupStep::MountCdrom { name, .. } => vec![name.as_str()],
                SetupStep::MountHsm {
                    disk_name,
                    tape_name,
                    ..
                } => vec![disk_name.as_str(), tape_name.as_str()],
                SetupStep::MountVolume { members, .. } => {
                    members.iter().map(|(_, n)| n.as_str()).collect()
                }
                _ => Vec::new(),
            })
            .collect();
        for dev in spec.fault_plan.device_names() {
            assert!(created.contains(&dev), "{name}: plan faults {dev:?}");
        }
    }
}
