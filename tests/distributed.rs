//! Distributed SLEDs: the paper's proposal that SLEDs be "the vocabulary of
//! communication between clients and servers as well as between
//! applications and operating systems" (§2, §6), exercised end to end over
//! a modeled LAN NFS server with its own cache and disk.

use sleds_repro::apps::find::{find_prog, find_report, FindOptions};
use sleds_repro::apps::grep::{grep, GrepOptions};
use sleds_repro::apps::wc::wc;
use sleds_repro::devices::NfsServerDevice;
use sleds_repro::fs::{Kernel, MachineConfig, OpenFlags, Whence};
use sleds_repro::sim_core::{ByteSize, DetRng, PAGE_SIZE};
use sleds_repro::sleds::{fsleds_get, LatencyPredicate, SledsEntry, SledsTable};
use sleds_repro::textmatch::Regex;

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

/// A small client machine mounted on a LAN server. Returns the kernel and
/// a table with a flat NFS row (server reports off by default).
fn lan_env() -> (Kernel, SledsTable) {
    let mut cfg = MachineConfig::table2();
    cfg.ram = ByteSize::mib(2); // small client cache: the server's matters
    let mut k = Kernel::new(cfg);
    k.mkdir("/lan").unwrap();
    let m = k
        .mount_device("/lan", Box::new(NfsServerDevice::lan_mount("lan0")), false)
        .unwrap();
    let dev = k.device_of_mount(m).unwrap();
    let mut t = SledsTable::new();
    t.fill_memory(SledsEntry::new(175e-9, 48e6));
    // Flat row: the pessimistic "everything is a server disk access" view.
    t.fill_device(dev, SledsEntry::new(0.019, 5e6));
    (k, t)
}

#[test]
fn server_cache_state_flows_to_client_sleds() {
    let (mut k, mut t) = lan_env();
    let n = 64 * PAGE_SIZE as usize;
    k.install_file("/lan/f.txt", &corpus(n, 1)).unwrap();
    let fd = k.open("/lan/f.txt", OpenFlags::RDONLY).unwrap();
    // Touch the tail through the mount, then flush the client's own cache.
    k.lseek(fd, (n / 2) as i64, Whence::Set).unwrap();
    k.read(fd, n / 2).unwrap();
    k.drop_caches().unwrap();

    t.set_trust_device_reports(true);
    let sleds = fsleds_get(&mut k, fd, &t).unwrap();
    assert_eq!(sleds.len(), 2);
    assert!(
        sleds[1].latency < sleds[0].latency / 2.0,
        "server-hot tail must be much cheaper: {} vs {}",
        sleds[1].latency,
        sleds[0].latency
    );
    k.close(fd).unwrap();
}

#[test]
fn server_aware_first_match_skips_server_disk() {
    // Fresh environment per mode: the measured run must not inherit server
    // cache state from the other mode's scan.
    let run = |aware: bool| -> f64 {
        let (mut k, mut t) = lan_env();
        let n = 256 * PAGE_SIZE as usize; // 1 MiB
        let mut text = corpus(n, 2);
        let pos = (n * 7 / 8) & !4095;
        text[pos..pos + 4].copy_from_slice(b"ZQXJ");
        k.install_file("/lan/hay.txt", &text).unwrap();

        // Another client (or an earlier session) read the tail: hot on the
        // SERVER, absent from this client's cache.
        let fd = k.open("/lan/hay.txt", OpenFlags::RDONLY).unwrap();
        k.lseek(fd, (3 * n / 4) as i64, Whence::Set).unwrap();
        k.read(fd, n / 4).unwrap();
        k.close(fd).unwrap();
        k.drop_caches().unwrap();
        k.reset_counters();

        t.set_trust_device_reports(aware);
        let re = Regex::new("ZQXJ").unwrap();
        let opts = GrepOptions {
            first_match_only: true,
        };
        let j = k.start_job();
        let r = grep(&mut k, "/lan/hay.txt", &re, &opts, Some(&t)).unwrap();
        assert!(r.stopped_early);
        k.finish_job(&j).elapsed.as_secs_f64()
    };

    // Flat: one uniform NFS level, scan from the front through the
    // server's disk. Server-aware: read the server-hot tail first and find
    // the match without any server-disk access.
    let flat = run(false);
    let aware = run(true);
    assert!(
        aware < 0.5 * flat,
        "server-aware {aware:.4}s vs flat {flat:.4}s"
    );
}

#[test]
fn wc_results_identical_over_the_server_mount() {
    let (mut k, mut t) = lan_env();
    let n = 128 * PAGE_SIZE as usize;
    k.install_file("/lan/f.txt", &corpus(n, 3)).unwrap();
    let base = wc(&mut k, "/lan/f.txt", None).unwrap();
    t.set_trust_device_reports(true);
    let with = wc(&mut k, "/lan/f.txt", Some(&t)).unwrap();
    assert_eq!(base, with);
}

#[test]
fn pushed_down_find_prices_from_the_trusting_table() {
    // Two of four files are hot on the server and absent from this client.
    // The kernel prices the pushed-down walk from the same trusting table,
    // so the server's cache state decides its verdicts as it decides the
    // sequential walk's.
    let (mut k, mut t) = lan_env();
    let n = 16 * PAGE_SIZE as usize;
    for (i, name) in ["a", "b", "c", "d"].into_iter().enumerate() {
        let path = format!("/lan/{name}.txt");
        k.install_file(&path, &corpus(n, 10 + i as u64)).unwrap();
        if i % 2 == 0 {
            let fd = k.open(&path, OpenFlags::RDONLY).unwrap();
            k.read(fd, n).unwrap();
            k.close(fd).unwrap();
        }
    }
    k.drop_caches().unwrap();
    t.set_trust_device_reports(true);
    // The flat row prices every file at 19 ms + 64 KiB at 5 MB/s ≈ 32 ms.
    for (spec, want) in [
        ("-m10", ["/lan/a.txt", "/lan/c.txt"]),
        ("+m10", ["/lan/b.txt", "/lan/d.txt"]),
    ] {
        let opts = FindOptions {
            latency: Some(LatencyPredicate::parse(spec).unwrap()),
            ..Default::default()
        };
        let seq = find_report(&mut k, "/lan", &opts, Some(&t)).unwrap();
        let prog = find_prog(&mut k, "/lan", &opts, &t).unwrap();
        assert_eq!(seq, prog, "same hits and estimates for {spec}");
        let paths: Vec<&str> = prog.hits.iter().map(|h| h.path.as_str()).collect();
        assert_eq!(paths, want, "{spec}");
    }
}
