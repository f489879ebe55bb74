//! Micro-benchmarks of the implementation's real-time costs.
//!
//! These measure *our code* (how fast the simulator itself runs), not the
//! paper's virtual-time results — those come from the `figures` binary.
//! Self-timed via `sleds_bench::microbench` so the default workspace builds
//! with no external dependencies.

use sleds::{fsleds_get, PickConfig, PickSession, SledsEntry, SledsTable};
use sleds_bench::microbench::time;
use sleds_devices::{BlockDevice, CdRomDevice, DiskDevice, NfsDevice, TapeDevice};
use sleds_fs::{
    fold_bytes, Capture, Fd, Kernel, MachineConfig, OpenFlags, PickProgram, ProgInst, ProgOrder,
    SubmissionRing, Syscall, Whence, WorkloadRecorder,
};
use sleds_pagecache::{PageCache, PageKey, PolicyKind};
use sleds_replay::{json, CaptureFile, WorkloadSpec};
use sleds_sim_core::{ByteSize, DetRng, SimDuration, SimTime, PAGE_SIZE};
use sleds_textmatch::Regex;

fn kernel_with_file(pages: u64) -> (Kernel, SledsTable, sleds_fs::Fd) {
    let mut cfg = MachineConfig::table2();
    cfg.ram = ByteSize::mib(16);
    let mut k = Kernel::new(cfg);
    k.mkdir("/d").unwrap();
    let m = k.mount_disk("/d", DiskDevice::table2_disk("hda")).unwrap();
    let dev = k.device_of_mount(m).unwrap();
    let mut t = SledsTable::new();
    t.fill_memory(SledsEntry::new(175e-9, 48e6));
    t.fill_device(dev, SledsEntry::new(0.018, 9e6));
    k.install_file("/d/f", &vec![3u8; (pages * PAGE_SIZE) as usize])
        .unwrap();
    let fd = k.open("/d/f", OpenFlags::RDONLY).unwrap();
    // Scatter some cached ranges so SLED construction has work to do.
    for start in (0..pages).step_by(7) {
        k.lseek(fd, (start * PAGE_SIZE) as i64, Whence::Set)
            .unwrap();
        k.read(fd, PAGE_SIZE as usize).unwrap();
    }
    (k, t, fd)
}

fn bench_fsleds_get() {
    for pages in [256u64, 4096] {
        let (mut k, t, fd) = kernel_with_file(pages);
        time(&format!("fsleds_get/{pages}_pages"), || {
            fsleds_get(&mut k, fd, &t).unwrap()
        });
    }
}

fn bench_pick_planning() {
    for pages in [256u64, 4096] {
        let (mut k, t, fd) = kernel_with_file(pages);
        time(&format!("pick_init/bytes_{pages}_pages"), || {
            PickSession::init(&mut k, &t, fd, PickConfig::bytes(64 << 10))
                .unwrap()
                .planned_chunks()
        });
    }
}

fn bench_page_cache() {
    for kind in PolicyKind::all() {
        time(&format!("page_cache/{}_scan_10k", kind.name()), || {
            let mut cache = PageCache::new(1024, kind);
            for i in 0..10_000u64 {
                let key = PageKey::new(1, i % 2048);
                if !cache.lookup(key) {
                    cache.insert(key, false);
                }
            }
            cache.stats().hits
        });
    }
    // The same 10,240 pages through a 1,024-page cache, 512 at a time: the
    // run form of the scan above, evicting by runs once the cache is full.
    for kind in [PolicyKind::Lru, PolicyKind::Clock, PolicyKind::TwoQ] {
        let mut victims = Vec::new();
        time(
            &format!("page_cache/insert_run_512_{}", kind.name()),
            || {
                let mut cache = PageCache::new(1024, kind);
                for run in 0..20u64 {
                    let (first, mut done) = (run % 4 * 512, 0);
                    while done < 512 {
                        done += cache.insert_run(1, first + done, 512 - done, false, &mut victims);
                    }
                    victims.clear();
                }
                cache.stats().evictions
            },
        );
    }
}

fn bench_device_models() {
    {
        let mut d = DiskDevice::table2_disk("hda");
        let cap = d.capacity_sectors();
        let mut rng = DetRng::new(1);
        let mut now = SimTime::ZERO;
        time("device_models/disk_random_read", || {
            let s = rng.range_u64(0, cap - 8);
            let t = d.read(s, 8, now).unwrap();
            now += t;
            t
        });
    }
    {
        let mut d = CdRomDevice::table2_drive("cd0");
        let mut sector = 0u64;
        time("device_models/cdrom_sequential_read", || {
            let t = d.read(sector, 128, SimTime::ZERO).unwrap();
            sector = (sector + 128) % (d.capacity_sectors() - 128);
            t
        });
    }
    {
        let mut d = NfsDevice::table2_mount("srv:/x");
        let mut sector = 0u64;
        time("device_models/nfs_read", || {
            let t = d.read(sector, 128, SimTime::ZERO).unwrap();
            sector = (sector + 128) % (d.capacity_sectors() - 128);
            t
        });
    }
    {
        let mut d = TapeDevice::dlt("st0");
        d.read(0, 8, SimTime::ZERO).unwrap(); // mount
        let cap = d.capacity_sectors();
        let mut rng = DetRng::new(2);
        time("device_models/tape_locate", || {
            let s = rng.range_u64(0, cap - 8);
            d.read(s, 8, SimTime::ZERO).unwrap()
        });
    }
}

fn bench_regex() {
    let hay: Vec<u8> = (0..65536u32).map(|i| b'a' + (i % 26) as u8).collect();
    for (name, pat) in [
        ("literal", "needle"),
        ("class_star", "[a-m]*nop"),
        ("alternation", "cat|dog|bird|fish"),
    ] {
        let re = Regex::new(pat).unwrap();
        time(&format!("regex/{name}"), || re.is_match(&hay));
    }
    // What grep does with a buffer: ~40-byte lines, a hit every 64th.
    let mut lines = Vec::with_capacity(65536);
    for i in 0.. {
        let word: &[u8] = if i % 64 == 63 { b"needle" } else { b"noodle" };
        let line = [b"lorem ipsum dolor ", word, b" sit amet consec\n"].concat();
        if lines.len() + line.len() > 65536 {
            break;
        }
        lines.extend_from_slice(&line);
    }
    let re = Regex::new("needle").unwrap();
    time("regex/grep_lines", || {
        let (mut from, mut hits) = (0, 0usize);
        while let Some((_, end)) = re.next_matching_line(&lines, from) {
            from = end + 1;
            hits += 1;
        }
        hits
    });
}

fn bench_memscan() {
    use sleds_textmatch::memscan::{count, memmem};
    use std::hint::black_box;
    // Lowercase words and newlines, ~40-byte lines: the scan corpus' shape.
    let mut rng = DetRng::new(11);
    let mut text = Vec::with_capacity(1 << 20);
    while text.len() < 1 << 20 {
        for _ in 0..rng.range_usize(2, 10) {
            text.push(b'a' + rng.range_u64(0, 26) as u8);
        }
        text.push(if rng.range_u64(0, 6) == 0 {
            b'\n'
        } else {
            b' '
        });
    }
    // No position is a candidate: uppercase never occurs.
    time("textmatch/memmem_sparse_1mib", || {
        memmem(black_box(&text), b"ZQXJKV")
    });
    // Every line holds a candidate (`n` ... `e` five bytes on), none a match.
    let mut lines = Vec::with_capacity(65536);
    while lines.len() + 41 <= 65536 {
        lines.extend_from_slice(b"lorem ipsum dolor noodle sit amet consec\n");
    }
    time("textmatch/memmem_dense_64k", || {
        memmem(black_box(&lines), b"nxxdle")
    });
    time("textmatch/count_1mib", || count(b'\n', black_box(&text)));
}

fn bench_fits_codec() {
    use sleds_fits::{Bitpix, SampleCounts};
    // 65536 pixels: two 64 KiB chunks of I16.
    let values: Vec<f64> = (0..65536).map(|i| (i % 251) as f64).collect();
    for bitpix in [Bitpix::I16, Bitpix::F64] {
        let encoded = bitpix.encode(&values);
        time(&format!("fits_codec/decode_{}", bitpix.code()), || {
            bitpix.decode(&encoded).unwrap()
        });
    }
    let encoded = Bitpix::I16.encode(&values);
    time("fits/minmax_16", || Bitpix::I16.min_max(&encoded).unwrap());
    let mut counts = SampleCounts::new(Bitpix::I16).unwrap();
    time("fits/histogram_16", || counts.add(&encoded).unwrap());
    // fimgbin's inner loop: 32 rows of 2048 I16 pixels into 2x2 and 4x4 boxes.
    for factor in [2, 4] {
        let mut sums = vec![0.0; 2048 / factor];
        time(&format!("fits/add_boxes_16_{factor}x{factor}"), || {
            for row in encoded.chunks_exact(2048 * 2) {
                Bitpix::I16.add_boxes(row, 0, factor, &mut sums).unwrap();
            }
            sums[0]
        });
    }
}

fn bench_kernel_read_path() {
    let (mut k, _, fd) = kernel_with_file(1024);
    // Warm everything.
    k.lseek(fd, 0, Whence::Set).unwrap();
    while !k.read(fd, 64 << 10).unwrap().is_empty() {}
    time("kernel_read_path/warm_64k_reads", || {
        k.lseek(fd, 0, Whence::Set).unwrap();
        let mut total = 0usize;
        loop {
            let n = k.read(fd, 64 << 10).unwrap().len();
            if n == 0 {
                break;
            }
            total += n;
        }
        total
    });
}

/// A kernel holding a 125 × 1,000 tree of sparse one-page files — the
/// benchmark's `tree_walk` shape — and every file path in walk order.
fn kernel_with_tree() -> (Kernel, Vec<String>) {
    let mut k = Kernel::table2();
    k.mkdir("/tree").unwrap();
    k.mount_disk("/tree", DiskDevice::table2_disk("hda"))
        .unwrap();
    let mut paths = Vec::with_capacity(125_000);
    for d in 0..125 {
        k.mkdir(&format!("/tree/d{d:03}")).unwrap();
        for f in 0..1000 {
            let p = format!("/tree/d{d:03}/f{f:03}");
            k.install_sparse_file(&p, PAGE_SIZE).unwrap();
            paths.push(p);
        }
    }
    (k, paths)
}

/// The kernel's id-keyed lookups at the `tree_walk` scale: path walk plus
/// inode table (`stat`), the same plus the fd table (`open`/`close`), a
/// cache-wide drop with few pages resident among many inodes, and the
/// page-cache index alone. The first three print ns per call.
///
/// Then the per-file metadata path below the boundary: one ring batch of
/// 512 `FSLEDS_GET`s on one-page files, taken in turn from the first eight
/// directories (divide by 512 for ns per file), and one cached-first
/// `FSLEDS_WALK` of the whole tree with one file in eight resident (divide
/// by its 125,126 entries for ns per file).
fn bench_kernel_tables() {
    let (mut k, paths) = kernel_with_tree();
    let mut table = SledsTable::new();
    table.fill_memory(SledsEntry::new(175e-9, 48e6));
    let dev = k.device_of_mount(k.find_mount("/tree").unwrap()).unwrap();
    table.fill_device(dev, SledsEntry::new(0.018, 9e6));
    let fds: Vec<Fd> = paths[..8_192]
        .iter()
        .map(|p| k.open(p, OpenFlags::RDONLY).unwrap())
        .collect();
    let mut ring = SubmissionRing::new(512);
    let mut batches = fds.chunks(512).cycle();
    time("kernel_sleds/fsleds_get_1page", || {
        for (i, &fd) in batches.next().unwrap().iter().enumerate() {
            let pricing = table.clone();
            ring.push(i as u64, Syscall::FsledsGet { fd, pricing })
                .unwrap();
        }
        k.ring_enter(&mut ring).unwrap();
        k.ring_reap(&mut ring).len()
    });
    for fd in fds {
        k.close(fd).unwrap();
    }
    for p in paths.iter().step_by(8) {
        k.warm_file_pages(p, 0, 1).unwrap();
    }
    let everything = PickProgram::new(vec![
        ProgInst::PushConst(0.0),
        ProgInst::PushConst(0.0),
        ProgInst::Eq,
    ])
    .unwrap()
    .with_order(ProgOrder::CachedFirst);
    time("kernel_walk/fsleds_walk_125k_files", || {
        k.fsleds_walk("/tree", &everything, &table).unwrap().len()
    });
    k.drop_caches().unwrap();
    let mut at = 0;
    time("kernel_namei/stat_125k_inodes", || {
        at = (at + 1) % paths.len();
        k.stat(&paths[at]).unwrap().size
    });
    time("kernel_namei/open_close_125k_inodes", || {
        at = (at + 1) % paths.len();
        let fd = k.open(&paths[at], OpenFlags::RDONLY).unwrap();
        k.close(fd).unwrap();
        fd
    });
    time("kernel_drop_caches/125k_inodes_1k_resident", || {
        for p in paths.iter().step_by(125) {
            k.warm_file_pages(p, 0, 1).unwrap();
        }
        k.drop_caches().unwrap();
        k.cache_resident_pages()
    });

    // One resident page on each of 64k inodes; ns per 64k lookups.
    let mut cache = PageCache::lru(1 << 16);
    for ino in 0..1u64 << 16 {
        cache.insert(PageKey::new(ino, 0), false);
    }
    time("pagecache_index/lookup_64k_inodes", || {
        (0..1u64 << 16)
            .filter(|&ino| cache.contains(PageKey::new(ino, 0)))
            .count()
    });
}

/// The flight recorder's host costs. `time` prints ns per call; divide
/// `capture_fold` and `capture_b64` by the byte count in the name for
/// ns/B, `capture_codec/*_1000_*` by 1,000 for ns/op; the artifact's case
/// prints its own ns/op.
fn bench_capture() {
    let mut payload = vec![0u8; 2 << 20];
    DetRng::new(16).fill_bytes(&mut payload);
    for len in [4 << 10, 16 << 10, 2 << 20] {
        time(&format!("capture_fold/{len}_bytes"), || {
            fold_bytes(&payload[..len])
        });
    }
    // A warm read through the kernel with and without a capture armed: the
    // difference is what the payload's digest costs. Two reads are all hole
    // (a sparse file; 16 KiB is the web tenants' request), one all stored
    // bytes. A recorder is re-armed every `ARMED` reads, so what it sets up
    // once — the zero-page table — is spread as a capture spreads it.
    const ARMED: usize = 1024;
    let mut k = Kernel::new(MachineConfig::table2());
    k.mkdir("/d").unwrap();
    k.mount_disk("/d", DiskDevice::table2_disk("hda")).unwrap();
    k.install_sparse_file("/d/hole", 2 << 20).unwrap();
    k.install_file("/d/stored", &payload[..16 << 10]).unwrap();
    for (name, path, len) in [
        ("pread_2mib_hole", "/d/hole", 2 << 20),
        ("pread_16k_hole", "/d/hole", 16 << 10),
        ("pread_16k", "/d/stored", 16 << 10),
    ] {
        let fd = k.open(path, OpenFlags::RDONLY).unwrap();
        k.pread(fd, 0, len).unwrap();
        time(&format!("capture/{name}"), || {
            k.pread(fd, 0, len).unwrap().len()
        });
        let mut left = 0;
        time(&format!("capture/{name}_recorded"), || {
            if left == 0 {
                k.start_capture(ARMED);
                left = ARMED;
            }
            left -= 1;
            k.pread(fd, 0, len).unwrap().len()
        });
        k.stop_capture();
    }

    let page = &payload[..PAGE_SIZE as usize];
    let mut text = String::new();
    time("capture_b64/encode_4096_bytes", || {
        text.clear();
        json::b64_encode(&mut text, page);
        text.len()
    });
    time("capture_b64/decode_4096_bytes", || {
        json::b64_decode(&text).unwrap().len()
    });

    // One op as the kernel boundary records it: begin, one disk command,
    // finish with a page of payload to fold.
    let disk_read = sleds_trace::DeviceCost {
        class: 1,
        queue_wait: SimDuration::from_nanos(10),
        service: SimDuration::from_nanos(20),
        bytes: PAGE_SIZE,
        ..Default::default()
    };
    let record = |ops: u64, call: &dyn Fn(u64) -> Syscall| -> Capture {
        let mut rec = WorkloadRecorder::new(ops as usize + 1, 0);
        let open = Syscall::Open {
            path: "/disk/tenant-017/log".to_string(),
            flags: OpenFlags::RDWR,
        };
        rec.begin(open, 0, 0, 0);
        rec.finish_ok(3, None, 1);
        for i in 0..ops {
            rec.begin(call(i), 0, i * 100, 0);
            rec.note_device(&disk_read);
            rec.finish_ok(PAGE_SIZE, Some(page), i * 100 + 50);
        }
        rec.into_capture()
    };
    let pread = |i: u64| Syscall::Pread {
        fd: Fd(3),
        pos: i * PAGE_SIZE,
        len: PAGE_SIZE as usize,
    };
    time("capture_record/1000_preads", || {
        record(1000, &pread).ops.len()
    });

    let write = |_: u64| Syscall::Write {
        fd: Fd(3),
        data: page.into(),
    };
    // Most lines of a capture are short `pread`s; a `write` line is its
    // page of base64.
    let calls: [(&str, &dyn Fn(u64) -> Syscall); 2] = [("preads", &pread), ("writes", &write)];
    for (kind, call) in calls {
        let file = CaptureFile {
            spec: WorkloadSpec::new("table2"),
            capture: record(1000, call),
        };
        let text = file.to_jsonl();
        time(&format!("capture_codec/serialize_1000_{kind}"), || {
            file.to_jsonl().len()
        });
        time(&format!("capture_codec/parse_1000_{kind}"), || {
            CaptureFile::parse(&text).unwrap().capture.ops.len()
        });
    }
    // The committed capture: the mix a real run records (opens, ring
    // enters, errnos, class rows), not one call a thousand times.
    let artifact = include_str!("../../../results/CAPTURE_saturation.jsonl");
    let ops = CaptureFile::parse(artifact).unwrap().capture.ops.len();
    let parse = time("capture_codec/parse_saturation_artifact", || {
        CaptureFile::parse(artifact).unwrap().capture.ops.len()
    });
    println!(
        "{:<44} {:>14.1} ns/op    ({ops} ops)",
        "",
        parse.ns_per_iter / ops as f64
    );
}

fn main() {
    bench_fsleds_get();
    bench_pick_planning();
    bench_page_cache();
    bench_device_models();
    bench_regex();
    bench_memscan();
    bench_fits_codec();
    bench_kernel_read_path();
    bench_kernel_tables();
    bench_capture();
}
