//! HSM integration: migration, staging, the offline bit, find -latency,
//! and the jukebox's mount dynamics — the regime where the paper expects
//! SLEDs' gains to be "much more pronounced".

use sleds_repro::apps::find::{find, FindOptions};
use sleds_repro::apps::wc::wc;
use sleds_repro::devices::jukebox::JukeboxParams;
use sleds_repro::devices::{DiskDevice, Jukebox, TapeDevice};
use sleds_repro::fs::{Kernel, OpenFlags};
use sleds_repro::lmbench::fill_table;
use sleds_repro::sim_core::{DetRng, SimDuration, PAGE_SIZE};
use sleds_repro::sleds::{fsleds_get, LatencyPredicate, Sled, SledsEntry, SledsTable};

fn corpus(n: usize, seed: u64) -> Vec<u8> {
    let mut rng = DetRng::new(seed);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        for _ in 0..rng.range_u64(4, 9) {
            out.push(b'a' + rng.range_u64(0, 26) as u8);
        }
        out.push(if rng.chance(0.2) { b'\n' } else { b' ' });
    }
    out.truncate(n);
    out
}

fn hsm_env() -> (Kernel, SledsTable) {
    let mut k = Kernel::table2();
    k.mkdir("/hsm").unwrap();
    let m = k
        .mount_hsm(
            "/hsm",
            Box::new(DiskDevice::table2_disk("hda")),
            Box::new(TapeDevice::dlt("st0")),
            512,
        )
        .unwrap();
    let t = fill_table(&mut k, &[("/hsm", m)]).unwrap();
    k.reset_counters();
    (k, t)
}

/// The table rows `path`'s SLEDs are priced at, in file order.
fn levels(k: &mut Kernel, t: &SledsTable, path: &str) -> Vec<SledsEntry> {
    let fd = k.open(path, OpenFlags::RDONLY).unwrap();
    let sleds = fsleds_get(k, fd, t).unwrap();
    k.close(fd).unwrap();
    sleds.iter().map(Sled::level).collect()
}

#[test]
fn migrate_stage_roundtrip_preserves_data() {
    let (mut k, t) = hsm_env();
    let m = k.find_mount("/hsm").unwrap();
    let disk = t.device(k.device_of_mount(m).unwrap()).unwrap();
    let tape = t.device(k.tape_of_mount(m).unwrap()).unwrap();
    let data = corpus(6 << 20, 1);
    k.install_file("/hsm/f.dat", &data).unwrap();
    k.hsm_migrate("/hsm/f.dat", true).unwrap();
    assert_eq!(levels(&mut k, &t, "/hsm/f.dat"), [tape], "offline");

    let fd = k.open("/hsm/f.dat", OpenFlags::RDONLY).unwrap();
    let mut got = Vec::new();
    loop {
        let chunk = k.read(fd, 1 << 20).unwrap();
        if chunk.is_empty() {
            break;
        }
        got.extend_from_slice(&chunk);
    }
    k.close(fd).unwrap();
    assert_eq!(got, data, "staged bytes must match the original");
    k.drop_caches().unwrap();
    assert_eq!(levels(&mut k, &t, "/hsm/f.dat"), [disk], "file now on disk");
}

#[test]
fn staged_reread_is_orders_of_magnitude_faster() {
    let (mut k, _) = hsm_env();
    let data = corpus(4 << 20, 2);
    k.install_file("/hsm/f.dat", &data).unwrap();
    k.hsm_migrate("/hsm/f.dat", true).unwrap();

    let j = k.start_job();
    wc(&mut k, "/hsm/f.dat", None).unwrap();
    let cold = k.finish_job(&j).elapsed;
    assert!(
        cold > SimDuration::from_secs(40),
        "mount+locate dominates: {cold}"
    );

    let j = k.start_job();
    wc(&mut k, "/hsm/f.dat", None).unwrap();
    let warm = k.finish_job(&j).elapsed;
    assert!(
        warm.as_secs_f64() * 100.0 < cold.as_secs_f64(),
        "cached reread ({warm}) should be >100x faster than staging ({cold})"
    );
}

#[test]
fn sleds_report_offline_files_with_tape_latency() {
    let (mut k, t) = hsm_env();
    let data = corpus(2 << 20, 3);
    k.install_file("/hsm/f.dat", &data).unwrap();
    k.hsm_migrate("/hsm/f.dat", true).unwrap();
    let fd = k.open("/hsm/f.dat", OpenFlags::RDONLY).unwrap();
    let sleds = sleds_repro::sleds::fsleds_get(&mut k, fd, &t).unwrap();
    assert_eq!(sleds.len(), 1);
    assert!(
        sleds[0].latency > 10.0,
        "tape-resident SLED should report tens of seconds, got {}",
        sleds[0].latency
    );
    k.close(fd).unwrap();
}

#[test]
fn find_latency_tracks_migration_state() {
    let (mut k, t) = hsm_env();
    for i in 0..4 {
        k.install_file(&format!("/hsm/f{i}.dat"), &corpus(1 << 20, 10 + i))
            .unwrap();
    }
    k.hsm_migrate("/hsm/f1.dat", true).unwrap();
    k.hsm_migrate("/hsm/f3.dat", true).unwrap();

    let cheap = find(
        &mut k,
        "/hsm",
        &FindOptions {
            latency: Some(LatencyPredicate::parse("-5").unwrap()),
            ..Default::default()
        },
        Some(&t),
    )
    .unwrap();
    let names: Vec<&str> = cheap.iter().map(|h| h.path.as_str()).collect();
    assert_eq!(names, vec!["/hsm/f0.dat", "/hsm/f2.dat"]);

    // Stage f1 back in by reading it; it becomes cheap.
    wc(&mut k, "/hsm/f1.dat", None).unwrap();
    let cheap = find(
        &mut k,
        "/hsm",
        &FindOptions {
            latency: Some(LatencyPredicate::parse("-5").unwrap()),
            ..Default::default()
        },
        Some(&t),
    )
    .unwrap();
    assert_eq!(cheap.len(), 3, "staged file should now pass the predicate");
}

#[test]
fn jukebox_backed_hsm_pays_robot_time_once_per_cartridge() {
    let mut k = Kernel::table2();
    k.mkdir("/hsm").unwrap();
    let jb = Jukebox::new("jb0", 4, 1, JukeboxParams::default());
    k.mount_hsm(
        "/hsm",
        Box::new(DiskDevice::table2_disk("hda")),
        Box::new(jb),
        512,
    )
    .unwrap();
    let data = vec![5u8; 64 * PAGE_SIZE as usize];
    k.install_file("/hsm/a.dat", &data).unwrap();
    k.install_file("/hsm/b.dat", &data).unwrap();
    k.hsm_migrate("/hsm/a.dat", true).unwrap();
    k.hsm_migrate("/hsm/b.dat", true).unwrap();

    // Both files land on cartridge 0 (sequential tape allocation), so the
    // second staging should not pay another mount.
    let j = k.start_job();
    wc(&mut k, "/hsm/a.dat", None).unwrap();
    let first = k.finish_job(&j).elapsed;
    let j = k.start_job();
    wc(&mut k, "/hsm/b.dat", None).unwrap();
    let second = k.finish_job(&j).elapsed;
    assert!(first > SimDuration::from_secs(50), "cold mount: {first}");
    assert!(
        second < first / 5,
        "warm cartridge ({second}) must skip the robot+load of ({first})"
    );
}
