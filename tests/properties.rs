//! Property-based integration tests: invariants of the SLEDs stack under
//! randomized cache states, file sizes and workloads.
//!
//! Runs under the in-repo `check` harness; case count scales with
//! `SLEDS_CHECK_CASES`.

use sleds_repro::apps::grep::{grep, GrepOptions};
use sleds_repro::apps::wc::wc;
use sleds_repro::devices::DiskDevice;
use sleds_repro::fs::{Kernel, MachineConfig, OpenFlags, Whence};
use sleds_repro::sim_core::{check, ByteSize, DetRng, PAGE_SIZE};
use sleds_repro::sleds::{
    estimate_seconds, fsleds_get, AttackPlan, PickConfig, PickSession, SledsEntry, SledsTable,
};
use sleds_repro::textmatch::Regex;

/// A small kernel + static table (no lmbench — property tests need speed).
fn tiny_env() -> (Kernel, SledsTable) {
    let mut cfg = MachineConfig::table2();
    cfg.ram = ByteSize::mib(2);
    let mut k = Kernel::new(cfg);
    k.mkdir("/d").unwrap();
    let m = k.mount_disk("/d", DiskDevice::table2_disk("hda")).unwrap();
    let dev = k.device_of_mount(m).unwrap();
    let mut t = SledsTable::new();
    t.fill_memory(SledsEntry::new(175e-9, 48e6));
    t.fill_device(dev, SledsEntry::new(0.018, 9e6));
    (k, t)
}

/// Random page ranges in the shape the old strategies produced.
fn random_ranges(rng: &mut DetRng, max_count: usize) -> Vec<(u64, u64)> {
    let n = rng.range_usize(0, max_count + 1);
    (0..n)
        .map(|_| (rng.range_u64(0, 64), rng.range_u64(0, 8)))
        .collect()
}

/// Warm an arbitrary set of page ranges.
fn warm(k: &mut Kernel, path: &str, ranges: &[(u64, u64)], npages: u64) {
    if npages == 0 {
        return;
    }
    let fd = k.open(path, OpenFlags::RDONLY).unwrap();
    for &(a, b) in ranges {
        let lo = a % npages;
        let hi = (lo + 1 + b % 8).min(npages);
        k.lseek(fd, (lo * PAGE_SIZE) as i64, Whence::Set).unwrap();
        k.read(fd, ((hi - lo) * PAGE_SIZE) as usize).unwrap();
    }
    k.close(fd).unwrap();
}

/// SLEDs tile the file exactly: sorted, contiguous, complete, and
/// alternating in level.
#[test]
fn sleds_tile_the_file() {
    check::run("sleds_tile_the_file", |rng| {
        let size = rng.range_usize(1, 200_000);
        let ranges = random_ranges(rng, 3);
        let (mut k, t) = tiny_env();
        k.install_file("/d/f", &vec![9u8; size]).unwrap();
        let npages = (size as u64).div_ceil(PAGE_SIZE);
        warm(&mut k, "/d/f", &ranges, npages);
        let fd = k.open("/d/f", OpenFlags::RDONLY).unwrap();
        let sleds = fsleds_get(&mut k, fd, &t).unwrap();
        let mut expect = 0u64;
        for w in sleds.windows(2) {
            assert!(!w[0].same_level(&w[1]), "adjacent SLEDs must differ");
        }
        for s in &sleds {
            assert_eq!(s.offset, expect);
            assert!(s.length > 0);
            expect = s.end();
        }
        assert_eq!(expect, size as u64);
    });
}

/// The pick plan covers every byte exactly once, whatever the cache
/// state and chunk size — byte mode.
#[test]
fn pick_plan_covers_exactly_once() {
    check::run("pick_plan_covers_exactly_once", |rng| {
        let size = rng.range_usize(1, 150_000);
        let preferred = rng.range_usize(1, 40_000);
        let ranges = random_ranges(rng, 3);
        let (mut k, t) = tiny_env();
        k.install_file("/d/f", &vec![1u8; size]).unwrap();
        let npages = (size as u64).div_ceil(PAGE_SIZE);
        warm(&mut k, "/d/f", &ranges, npages);
        let fd = k.open("/d/f", OpenFlags::RDONLY).unwrap();
        let mut p = PickSession::init(&mut k, &t, fd, PickConfig::bytes(preferred)).unwrap();
        let mut covered = vec![0u8; size];
        while let Some((off, len)) = p.next_read() {
            assert!(len <= preferred);
            for c in &mut covered[off as usize..off as usize + len] {
                *c += 1;
            }
        }
        assert!(covered.iter().all(|&c| c == 1));
    });
}

/// ... and in record mode, where SLED edges move to separators.
#[test]
fn record_mode_still_covers_exactly_once() {
    check::run("record_mode_still_covers_exactly_once", |rng| {
        let nparas = rng.range_usize(1, 6);
        let paragraphs: Vec<usize> = (0..nparas).map(|_| rng.range_usize(1, 4000)).collect();
        let preferred = rng.range_usize(512, 20_000);
        let ranges = random_ranges(rng, 2);
        let mut data = Vec::new();
        for (i, len) in paragraphs.iter().enumerate() {
            data.extend(std::iter::repeat_n(b'a' + (i % 26) as u8, *len));
            data.push(b'\n');
        }
        let (mut k, t) = tiny_env();
        k.install_file("/d/f", &data).unwrap();
        let npages = (data.len() as u64).div_ceil(PAGE_SIZE);
        warm(&mut k, "/d/f", &ranges, npages);
        let fd = k.open("/d/f", OpenFlags::RDONLY).unwrap();
        let mut p =
            PickSession::init(&mut k, &t, fd, PickConfig::records(preferred, b'\n')).unwrap();
        let mut covered = vec![0u8; data.len()];
        while let Some((off, len)) = p.next_read() {
            for c in &mut covered[off as usize..off as usize + len] {
                *c += 1;
            }
        }
        assert!(covered.iter().all(|&c| c == 1));
    });
}

/// wc agrees between baseline and SLEDs modes for arbitrary byte soup
/// and cache states.
#[test]
fn wc_mode_equivalence() {
    check::run("wc_mode_equivalence", |rng| {
        let data = check::bytes(rng, 60_000);
        let ranges = random_ranges(rng, 3);
        let (mut k, t) = tiny_env();
        k.install_file("/d/f", &data).unwrap();
        let base = wc(&mut k, "/d/f", None).unwrap();
        let npages = (data.len() as u64).div_ceil(PAGE_SIZE);
        warm(&mut k, "/d/f", &ranges, npages);
        let with = wc(&mut k, "/d/f", Some(&t)).unwrap();
        assert_eq!(base, with);
    });
}

/// grep (all matches) agrees between modes: same matches, same line
/// numbers, same offsets — on random line-structured text.
#[test]
fn grep_mode_equivalence() {
    check::run("grep_mode_equivalence", |rng| {
        let nlines = rng.range_usize(1, 60);
        let mut data = Vec::new();
        for _ in 0..nlines {
            let linelen = rng.range_usize(0, 41);
            let hit = rng.range_u64(0, 10);
            if hit == 0 {
                data.extend_from_slice(b"xZQXJx");
            }
            for _ in 0..linelen {
                data.push(b"abcdefghijklmnopqrstuvwxyz "[rng.range_usize(0, 27)]);
            }
            data.push(b'\n');
        }
        let ranges = random_ranges(rng, 3);
        let (mut k, t) = tiny_env();
        k.install_file("/d/f", &data).unwrap();
        let re = Regex::new("ZQXJ").unwrap();
        let base = grep(&mut k, "/d/f", &re, &GrepOptions::default(), None).unwrap();
        let npages = (data.len() as u64).div_ceil(PAGE_SIZE);
        warm(&mut k, "/d/f", &ranges, npages);
        let with = grep(&mut k, "/d/f", &re, &GrepOptions::default(), Some(&t)).unwrap();
        assert_eq!(base, with);
    });
}

/// Delivery estimates: Best never exceeds Linear, and both are
/// monotone under adding cached bytes... i.e. warming pages never
/// increases the estimate.
#[test]
fn warming_never_increases_estimate() {
    check::run("warming_never_increases_estimate", |rng| {
        let size = rng.range_usize(PAGE_SIZE as usize, 300_000);
        let ranges = random_ranges(rng, 3)
            .into_iter()
            .chain([(0, 4)])
            .collect::<Vec<_>>();
        let (mut k, t) = tiny_env();
        k.install_file("/d/f", &vec![0u8; size]).unwrap();
        let fd = k.open("/d/f", OpenFlags::RDONLY).unwrap();
        let cold = fsleds_get(&mut k, fd, &t).unwrap();
        let cold_linear = estimate_seconds(&cold, AttackPlan::Linear);
        let cold_best = estimate_seconds(&cold, AttackPlan::Best);
        assert!(cold_best <= cold_linear + 1e-12);
        let npages = (size as u64).div_ceil(PAGE_SIZE);
        warm(&mut k, "/d/f", &ranges, npages);
        let warm_sleds = fsleds_get(&mut k, fd, &t).unwrap();
        let warm_best = estimate_seconds(&warm_sleds, AttackPlan::Best);
        assert!(
            warm_best <= cold_best + 1e-9,
            "warming increased estimate {cold_best} -> {warm_best}"
        );
    });
}

/// The regex engine agrees with a naive substring search for literal
/// patterns on arbitrary haystacks.
#[test]
fn regex_literal_agrees_with_naive() {
    check::run("regex_literal_agrees_with_naive", |rng| {
        let needle: String = (0..rng.range_usize(1, 5))
            .map(|_| b"abc"[rng.range_usize(0, 3)] as char)
            .collect();
        let hay: Vec<u8> = (0..rng.range_usize(0, 200))
            .map(|_| b"abc\n"[rng.range_usize(0, 4)])
            .collect();
        let re = Regex::literal(&needle);
        let naive = hay.windows(needle.len()).any(|w| w == needle.as_bytes());
        assert_eq!(re.is_match(&hay), naive);
    });
}
