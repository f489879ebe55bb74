//! `find`: directory-tree walks with predicates, including `-latency`.
//!
//! The stock predicates (`-name`, `-size`, `-type`) work in both modes; the
//! `-latency` predicate is the SLEDs addition — it estimates each file's
//! total delivery time from its SLED vector and keeps or prunes the file,
//! letting users skip tape-resident or remote data exactly as the paper
//! describes. The paper notes the whole port took two extra routines and
//! under 100 lines; ours is similar.

use sleds::{compile_latency, total_delivery_time, AttackPlan, LatencyPredicate, SledsTable};
use sleds_fs::{FileKind, Kernel, OpenFlags};
use sleds_sim_core::{SimDuration, SimResult};

use crate::FileDiagnostic;

/// Per-entry CPU cost of the tree walk (glob matching, bookkeeping).
const FIND_NS_PER_ENTRY: u64 = 400;

/// Size comparisons for `-size`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SizeTest {
    /// Larger than `n` bytes.
    Greater(u64),
    /// Smaller than `n` bytes.
    Less(u64),
}

/// Options for a find run.
#[derive(Clone, Debug, Default)]
pub struct FindOptions {
    /// Keep entries whose basename matches this glob (`*`, `?` wildcards).
    pub name_glob: Option<String>,
    /// Keep only files / only directories.
    pub kind: Option<FileKind>,
    /// Keep files by size.
    pub size: Option<SizeTest>,
    /// Keep files whose estimated delivery time satisfies the predicate
    /// (requires SLEDs — pass a table to [`find`]).
    pub latency: Option<LatencyPredicate>,
}

/// A matched entry with the information find printed about it.
#[derive(Clone, Debug, PartialEq)]
pub struct FindHit {
    /// Full path.
    pub path: String,
    /// Estimated delivery time in seconds, when `-latency` ran.
    pub estimate_secs: Option<f64>,
}

/// Full outcome of a find run: the hits plus the entries the walk had to
/// skip over.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FindReport {
    /// Entries satisfying every predicate, in deterministic (name) order.
    pub hits: Vec<FindHit>,
    /// Entries the walk could not examine (stat, readdir or `-latency`
    /// estimation failed), with the error each one hit.
    pub skipped: Vec<FileDiagnostic>,
}

/// Walks `root` depth-first, returning entries that satisfy every
/// predicate, in deterministic (name) order.
///
/// `table` enables the `-latency` predicate; passing a predicate without a
/// table is an error, mirroring running the paper's find on a kernel
/// without SLEDs support. Per-entry failures (an unreadable directory, a
/// file whose `-latency` estimate fails) are skipped, as real find skips
/// them; use [`find_report`] to see the diagnostics.
pub fn find(
    kernel: &mut Kernel,
    root: &str,
    opts: &FindOptions,
    table: Option<&SledsTable>,
) -> SimResult<Vec<FindHit>> {
    find_report(kernel, root, opts, table).map(|r| r.hits)
}

/// [`find`] with real find's error semantics surfaced: every entry the
/// walk could not examine becomes a [`FileDiagnostic`] (the stderr line),
/// while the rest of the tree is still walked instead of propagating the
/// first `SimError`.
pub fn find_report(
    kernel: &mut Kernel,
    root: &str,
    opts: &FindOptions,
    table: Option<&SledsTable>,
) -> SimResult<FindReport> {
    if opts.latency.is_some() && table.is_none() {
        return Err(sleds_sim_core::SimError::new(
            sleds_sim_core::Errno::Enosys,
            "find -latency requires SLEDs support",
        ));
    }
    let mut out = FindReport::default();
    kernel.trace_app("find", |kernel| walk(kernel, root, opts, table, &mut out));
    Ok(out)
}

/// [`find_report`] with the `-latency` predicate pushed into the kernel.
///
/// The predicate compiles to a [`sleds_fs::PickProgram`] and the whole tree
/// is walked by one `FSLEDS_WALK` crossing: the kernel prices every file,
/// evaluates the program in place and hands back the verdicts, so no
/// per-file open/`FSLEDS_GET`/close round-trips happen. The stock
/// predicates (`-name`, `-type`, `-size`) still run user-side, *before* the
/// kernel's verdict is consulted — exactly the order `keep` applies them —
/// so hits, estimates and skip diagnostics are identical to the sequential
/// walk — the kernel prices from the same `table`, zone rows included.
/// Requires a `-latency` predicate; without one there is nothing to push
/// down, use [`find`].
pub fn find_prog(
    kernel: &mut Kernel,
    root: &str,
    opts: &FindOptions,
    table: &SledsTable,
) -> SimResult<FindReport> {
    let Some(pred) = opts.latency else {
        return Err(sleds_sim_core::SimError::new(
            sleds_sim_core::Errno::Einval,
            "find --prog requires a -latency predicate",
        ));
    };
    kernel.trace_app("find", |kernel| {
        let prog = compile_latency(&pred);
        let entries = kernel.fsleds_walk(root, &prog, table)?;
        let mut out = FindReport::default();
        for e in &entries {
            kernel.charge_cpu(SimDuration::from_nanos(FIND_NS_PER_ENTRY));
            if let Some(k) = opts.kind {
                if k != e.kind {
                    continue;
                }
            }
            if let Some(glob) = &opts.name_glob {
                let base = e.path.rsplit('/').next().unwrap_or(&e.path);
                if !glob_match(glob.as_bytes(), base.as_bytes()) {
                    continue;
                }
            }
            if let Some(sz) = opts.size {
                if e.kind != FileKind::File {
                    continue;
                }
                let ok = match sz {
                    SizeTest::Greater(n) => e.size > n,
                    SizeTest::Less(n) => e.size < n,
                };
                if !ok {
                    continue;
                }
            }
            // -latency: directories never match, and a file whose pricing
            // failed in the kernel is skipped with the same diagnostic the
            // sequential walk's failed FSLEDS_GET would have produced.
            if e.kind != FileKind::File {
                continue;
            }
            if let Some(error) = &e.error {
                out.skipped.push(FileDiagnostic {
                    path: e.path.clone(),
                    error: (**error).clone(),
                });
                continue;
            }
            if !e.matched {
                continue;
            }
            out.hits.push(FindHit {
                path: e.path.clone(),
                estimate_secs: e.estimate_secs,
            });
        }
        Ok(out)
    })
}

fn walk(
    kernel: &mut Kernel,
    path: &str,
    opts: &FindOptions,
    table: Option<&SledsTable>,
    out: &mut FindReport,
) {
    let st = match kernel.stat(path) {
        Ok(st) => st,
        Err(error) => {
            out.skipped.push(FileDiagnostic {
                path: path.to_string(),
                error,
            });
            return;
        }
    };
    kernel.charge_cpu(SimDuration::from_nanos(FIND_NS_PER_ENTRY));
    if let Err(error) = keep(kernel, path, st.kind, st.size, opts, table, &mut out.hits) {
        out.skipped.push(FileDiagnostic {
            path: path.to_string(),
            error,
        });
    }
    if st.kind == FileKind::Dir {
        let names = match kernel.readdir(path) {
            Ok(names) => names,
            Err(error) => {
                out.skipped.push(FileDiagnostic {
                    path: path.to_string(),
                    error,
                });
                return;
            }
        };
        for name in names {
            let child = if path == "/" {
                format!("/{name}")
            } else {
                format!("{path}/{name}")
            };
            walk(kernel, &child, opts, table, out);
        }
    }
}

/// Applies the predicates; records and returns whether the entry matched.
fn keep(
    kernel: &mut Kernel,
    path: &str,
    kind: FileKind,
    size: u64,
    opts: &FindOptions,
    table: Option<&SledsTable>,
    out: &mut Vec<FindHit>,
) -> SimResult<bool> {
    if let Some(k) = opts.kind {
        if k != kind {
            return Ok(false);
        }
    }
    if let Some(glob) = &opts.name_glob {
        let base = path.rsplit('/').next().unwrap_or(path);
        if !glob_match(glob.as_bytes(), base.as_bytes()) {
            return Ok(false);
        }
    }
    if let Some(sz) = opts.size {
        if kind != FileKind::File {
            return Ok(false);
        }
        let ok = match sz {
            SizeTest::Greater(n) => size > n,
            SizeTest::Less(n) => size < n,
        };
        if !ok {
            return Ok(false);
        }
    }
    let mut estimate = None;
    // [sleds:begin]
    if let Some(pred) = opts.latency {
        if kind != FileKind::File {
            return Ok(false);
        }
        let table = table.expect("checked in find()");
        let fd = kernel.open(path, OpenFlags::RDONLY)?;
        let secs = total_delivery_time(kernel, table, fd, AttackPlan::Best)?;
        kernel.close(fd)?;
        if !pred.matches(secs) {
            return Ok(false);
        }
        estimate = Some(secs);
    }
    // [sleds:end]
    out.push(FindHit {
        path: path.to_string(),
        estimate_secs: estimate,
    });
    Ok(true)
}

/// Minimal glob: `*` matches any run, `?` any single byte.
fn glob_match(pattern: &[u8], text: &[u8]) -> bool {
    match (pattern.first(), text.first()) {
        (None, None) => true,
        (Some(b'*'), _) => {
            glob_match(&pattern[1..], text) || (!text.is_empty() && glob_match(pattern, &text[1..]))
        }
        (Some(b'?'), Some(_)) => glob_match(&pattern[1..], &text[1..]),
        (Some(&p), Some(&t)) if p == t => glob_match(&pattern[1..], &text[1..]),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sleds_devices::{DiskDevice, TapeDevice};
    use sleds_lmbench::fill_table;
    use sleds_sim_core::PAGE_SIZE;

    fn setup_tree() -> (Kernel, SledsTable) {
        let mut k = Kernel::table2();
        k.mkdir("/data").unwrap();
        let m = k
            .mount_disk("/data", DiskDevice::table2_disk("hda"))
            .unwrap();
        k.mkdir("/data/src").unwrap();
        k.mkdir("/data/src/deep").unwrap();
        k.install_file("/data/src/main.c", b"int main(){}\n")
            .unwrap();
        k.install_file("/data/src/util.c", b"void util(){}\n")
            .unwrap();
        k.install_file("/data/src/util.h", b"#pragma once\n")
            .unwrap();
        k.install_file("/data/src/deep/core.c", b"core\n").unwrap();
        k.install_file("/data/big.bin", &vec![0u8; 256 * 1024])
            .unwrap();
        let t = fill_table(&mut k, &[("/data", m)]).unwrap();
        (k, t)
    }

    #[test]
    fn glob_semantics() {
        assert!(glob_match(b"*.c", b"main.c"));
        assert!(!glob_match(b"*.c", b"main.h"));
        assert!(glob_match(b"a?c", b"abc"));
        assert!(!glob_match(b"a?c", b"ac"));
        assert!(glob_match(b"*", b""));
        assert!(glob_match(b"m*n*.c", b"main.c"));
    }

    #[test]
    fn name_glob_finds_c_files() {
        let (mut k, _) = setup_tree();
        let hits = find(
            &mut k,
            "/data",
            &FindOptions {
                name_glob: Some("*.c".into()),
                ..Default::default()
            },
            None,
        )
        .unwrap();
        let paths: Vec<&str> = hits.iter().map(|h| h.path.as_str()).collect();
        assert_eq!(
            paths,
            vec![
                "/data/src/deep/core.c",
                "/data/src/main.c",
                "/data/src/util.c"
            ]
        );
    }

    #[test]
    fn size_and_kind_predicates() {
        let (mut k, _) = setup_tree();
        let hits = find(
            &mut k,
            "/data",
            &FindOptions {
                size: Some(SizeTest::Greater(100 * 1024)),
                ..Default::default()
            },
            None,
        )
        .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].path, "/data/big.bin");

        let dirs = find(
            &mut k,
            "/data",
            &FindOptions {
                kind: Some(FileKind::Dir),
                ..Default::default()
            },
            None,
        )
        .unwrap();
        assert_eq!(dirs.len(), 3); // /data, /data/src, /data/src/deep
    }

    #[test]
    fn latency_without_table_is_enosys() {
        let (mut k, _) = setup_tree();
        let err = find(
            &mut k,
            "/data",
            &FindOptions {
                latency: Some(LatencyPredicate::parse("-1").unwrap()),
                ..Default::default()
            },
            None,
        )
        .unwrap_err();
        assert_eq!(err.errno, sleds_sim_core::Errno::Enosys);
    }

    #[test]
    fn latency_separates_cached_from_cold() {
        let (mut k, t) = setup_tree();
        // Warm big.bin fully; main.c etc. stay tiny/cold.
        let fd = k.open("/data/big.bin", OpenFlags::RDONLY).unwrap();
        k.read(fd, 256 * 1024).unwrap();
        k.close(fd).unwrap();
        // Files retrievable in under ~10 ms: only the cached big file and
        // the tiny sources (one disk latency each, ~18ms) — so actually
        // only the cached one.
        let hits = find(
            &mut k,
            "/data",
            &FindOptions {
                latency: Some(LatencyPredicate::parse("-m10").unwrap()),
                ..Default::default()
            },
            Some(&t),
        )
        .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].path, "/data/big.bin");
        assert!(hits[0].estimate_secs.unwrap() < 0.010);
    }

    #[test]
    fn latency_prunes_tape_resident_files() {
        let mut k = Kernel::table2();
        k.mkdir("/hsm").unwrap();
        let m = k
            .mount_hsm(
                "/hsm",
                Box::new(DiskDevice::table2_disk("hda")),
                Box::new(TapeDevice::dlt("st0")),
                256,
            )
            .unwrap();
        let data = vec![1u8; 64 * PAGE_SIZE as usize];
        k.install_file("/hsm/online.dat", &data).unwrap();
        k.install_file("/hsm/offline.dat", &data).unwrap();
        let t = fill_table(&mut k, &[("/hsm", m)]).unwrap();
        k.hsm_migrate("/hsm/offline.dat", true).unwrap();

        // Ignore anything that takes over 10 seconds (i.e. tape mounts).
        let hits = find(
            &mut k,
            "/hsm",
            &FindOptions {
                latency: Some(LatencyPredicate::parse("-10").unwrap()),
                ..Default::default()
            },
            Some(&t),
        )
        .unwrap();
        let paths: Vec<&str> = hits.iter().map(|h| h.path.as_str()).collect();
        assert_eq!(paths, vec!["/hsm/online.dat"]);

        // And the inverse: only the expensive files.
        let hits = find(
            &mut k,
            "/hsm",
            &FindOptions {
                latency: Some(LatencyPredicate::parse("+10").unwrap()),
                ..Default::default()
            },
            Some(&t),
        )
        .unwrap();
        let paths: Vec<&str> = hits.iter().map(|h| h.path.as_str()).collect();
        assert_eq!(paths, vec!["/hsm/offline.dat"]);
        assert!(hits[0].estimate_secs.unwrap() > 10.0);
    }

    #[test]
    fn latency_treats_offline_extents_as_infinite() {
        use sleds_devices::FaultPlan;
        use sleds_sim_core::{SimDuration, SimTime};
        let (mut k, t) = setup_tree();
        // Warm big.bin fully; the sources stay cold on a disk that then
        // drops off the bus.
        let fd = k.open("/data/big.bin", OpenFlags::RDONLY).unwrap();
        k.read(fd, 256 * 1024).unwrap();
        k.close(fd).unwrap();
        k.apply_fault_plan(&FaultPlan::new().offline(
            "hda",
            SimTime::ZERO,
            SimTime::from_nanos(u64::MAX),
            SimDuration::from_millis(1),
        ));
        // Unreachable extents price as infinite latency: any upper bound
        // excludes them...
        let hits = find(
            &mut k,
            "/data",
            &FindOptions {
                latency: Some(LatencyPredicate::parse("-m10").unwrap()),
                ..Default::default()
            },
            Some(&t),
        )
        .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].path, "/data/big.bin");
        // ...and any lower bound keeps exactly the unreachable files.
        let hits = find(
            &mut k,
            "/data",
            &FindOptions {
                latency: Some(LatencyPredicate::parse("+1000").unwrap()),
                ..Default::default()
            },
            Some(&t),
        )
        .unwrap();
        assert_eq!(hits.len(), 4);
        assert!(hits.iter().all(|h| h.estimate_secs.unwrap().is_infinite()));
    }

    #[test]
    fn find_report_skips_entries_it_cannot_estimate() {
        let mut k = Kernel::table2();
        k.mkdir("/a").unwrap();
        k.mkdir("/b").unwrap();
        let m = k.mount_disk("/a", DiskDevice::table2_disk("hda")).unwrap();
        k.mount_disk("/b", DiskDevice::table2_disk("hdb")).unwrap();
        k.install_file("/a/ok.c", b"int main(){}\n").unwrap();
        k.install_file("/b/stray.c", b"int x;\n").unwrap();
        // The table only knows hda: estimating /b/stray.c fails, and real
        // find skips the entry with a diagnostic instead of dying.
        let t = fill_table(&mut k, &[("/a", m)]).unwrap();
        k.drop_caches().unwrap();
        let r = find_report(
            &mut k,
            "/",
            &FindOptions {
                latency: Some(LatencyPredicate::parse("+0").unwrap()),
                ..Default::default()
            },
            Some(&t),
        )
        .unwrap();
        assert_eq!(r.skipped.len(), 1);
        assert_eq!(r.skipped[0].path, "/b/stray.c");
        let paths: Vec<&str> = r.hits.iter().map(|h| h.path.as_str()).collect();
        assert!(paths.contains(&"/a/ok.c"), "rest of the tree still walked");
        assert_eq!(r.skipped[0].error.errno, sleds_sim_core::Errno::Einval);
    }

    #[test]
    fn combined_predicates_and_everything_matches_default() {
        let (mut k, _) = setup_tree();
        let all = find(&mut k, "/data", &FindOptions::default(), None).unwrap();
        assert_eq!(all.len(), 8); // 3 dirs + 5 files
        let none = find(
            &mut k,
            "/data",
            &FindOptions {
                name_glob: Some("*.rs".into()),
                ..Default::default()
            },
            None,
        )
        .unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn prog_pushdown_matches_the_sequential_walk() {
        let (mut k, t) = setup_tree();
        // Warm big.bin so cached and cold files straddle the predicate.
        let fd = k.open("/data/big.bin", OpenFlags::RDONLY).unwrap();
        k.read(fd, 256 * 1024).unwrap();
        k.close(fd).unwrap();
        for spec in ["-m10", "+m10", "-1", "+0", "0"] {
            let opts = FindOptions {
                latency: Some(LatencyPredicate::parse(spec).unwrap()),
                ..Default::default()
            };
            let before = k.usage();
            let seq = find_report(&mut k, "/data", &opts, Some(&t)).unwrap();
            let seq_u = k.usage().since(&before);
            let before = k.usage();
            let prog = find_prog(&mut k, "/data", &opts, &t).unwrap();
            let prog_u = k.usage().since(&before);
            assert_eq!(seq, prog, "same hits, estimates and skips for {spec}");
            assert!(
                prog_u.syscall_crossings < seq_u.syscall_crossings,
                "{spec}: pushdown {} vs sequential {} crossings",
                prog_u.syscall_crossings,
                seq_u.syscall_crossings
            );
        }
    }

    #[test]
    fn prog_pushdown_composes_with_user_side_predicates() {
        let (mut k, t) = setup_tree();
        let opts = FindOptions {
            name_glob: Some("*.c".into()),
            latency: Some(LatencyPredicate::parse("+0").unwrap()),
            ..Default::default()
        };
        let seq = find_report(&mut k, "/data", &opts, Some(&t)).unwrap();
        let prog = find_prog(&mut k, "/data", &opts, &t).unwrap();
        assert_eq!(seq, prog);
        let paths: Vec<&str> = prog.hits.iter().map(|h| h.path.as_str()).collect();
        assert_eq!(
            paths,
            vec![
                "/data/src/deep/core.c",
                "/data/src/main.c",
                "/data/src/util.c"
            ]
        );
    }

    #[test]
    fn prog_pushdown_prunes_tape_like_the_sequential_walk() {
        let mut k = Kernel::table2();
        k.mkdir("/hsm").unwrap();
        let m = k
            .mount_hsm(
                "/hsm",
                Box::new(DiskDevice::table2_disk("hda")),
                Box::new(TapeDevice::dlt("st0")),
                256,
            )
            .unwrap();
        let data = vec![1u8; 64 * PAGE_SIZE as usize];
        k.install_file("/hsm/online.dat", &data).unwrap();
        k.install_file("/hsm/offline.dat", &data).unwrap();
        let t = fill_table(&mut k, &[("/hsm", m)]).unwrap();
        k.hsm_migrate("/hsm/offline.dat", true).unwrap();
        for spec in ["-10", "+10"] {
            let opts = FindOptions {
                latency: Some(LatencyPredicate::parse(spec).unwrap()),
                ..Default::default()
            };
            let seq = find_report(&mut k, "/hsm", &opts, Some(&t)).unwrap();
            let prog = find_prog(&mut k, "/hsm", &opts, &t).unwrap();
            assert_eq!(seq, prog, "tape pruning identical for {spec}");
        }
    }

    #[test]
    fn prog_pushdown_requires_a_latency_predicate() {
        let (mut k, t) = setup_tree();
        let err = find_prog(&mut k, "/data", &FindOptions::default(), &t).unwrap_err();
        assert_eq!(err.errno, sleds_sim_core::Errno::Einval);
    }

    #[test]
    fn prog_pushdown_matches_the_sequential_walk_on_a_zoned_table() {
        // A zone boundary eight pages into big.bin splits its extent into
        // two SLEDs; the kernel prices from the same table, so the
        // verdicts cannot differ.
        let (mut k, mut t) = setup_tree();
        let fd = k.open("/data/big.bin", OpenFlags::RDONLY).unwrap();
        let sleds_fs::PageLocation::Device { dev, sector } =
            k.redundant_extents(fd).unwrap()[0].extent.location
        else {
            panic!("cold file must be on the device");
        };
        let flat = t.device(dev).unwrap();
        let slow = sleds::SledsEntry::new(flat.latency, flat.bandwidth / 4.0);
        let boundary = sector + 8 * sleds_fs::SECTORS_PER_PAGE;
        t.fill_device_zones(dev, vec![(0, flat), (boundary, slow)]);
        assert_eq!(sleds::fsleds_get(&mut k, fd, &t).unwrap().len(), 2);
        k.close(fd).unwrap();
        for spec in ["-m100", "+m100", "+0"] {
            let opts = FindOptions {
                latency: Some(LatencyPredicate::parse(spec).unwrap()),
                ..Default::default()
            };
            let seq = find_report(&mut k, "/data", &opts, Some(&t)).unwrap();
            let prog = find_prog(&mut k, "/data", &opts, &t).unwrap();
            assert_eq!(seq, prog, "same hits, estimates and skips for {spec}");
        }
    }
}
