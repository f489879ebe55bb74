//! Golden pins for the five device models. Each model runs one fixed
//! command script — sequential, random and cross-zone reads and writes,
//! refused commands, and a fault plan with transient, degraded and offline
//! windows — and after every command the test pins the service time, the
//! `last_phases` train, the errno and fault cost of a failure, and the whole
//! `DevStats`. The jittered models run the script a second time with a
//! seeded jitter stream. The constants were recorded from the models as
//! they stood before the shared device shell; only the tape and jukebox
//! `rp` (repositions) columns have moved since, when each mount, robot
//! exchange and locate came to be counted once.

use sleds_devices::jukebox::JukeboxParams;
use sleds_devices::{
    BlockDevice, CdRomDevice, DiskDevice, FaultPlan, Jukebox, NfsDevice, TapeDevice,
};
use sleds_sim_core::{DetRng, SimDuration, SimTime};

const SEC: u64 = 1_000_000_000;

/// The script's fault plan for device `name`: two failing submissions in
/// a transient window, a 2.5× degraded window, then an offline window.
fn plan(name: &str) -> FaultPlan {
    let at = |s: u64| SimTime::from_nanos(s * SEC);
    FaultPlan::new()
        .transient(name, at(10_000), at(20_000), 2, SimDuration::from_millis(3))
        .degraded(name, at(20_000), at(30_000), 2.5)
        .offline(name, at(30_000), at(40_000), SimDuration::from_millis(7))
}

/// One line per command: `r|w start+sectors @now -> outcome [phases] stats`.
fn line(
    dev: &dyn BlockDevice,
    write: bool,
    start: u64,
    sectors: u64,
    now: SimTime,
    out: &Result<SimDuration, sleds_sim_core::SimError>,
) -> String {
    let outcome = match out {
        Ok(t) => format!("ok {}", t.as_nanos()),
        Err(e) => match e.fault_cost() {
            Some(c) => format!("{:?} cost {}", e.errno, c.as_nanos()),
            None => format!("{:?}", e.errno),
        },
    };
    let phases: Vec<String> = dev
        .last_phases()
        .iter()
        .map(|p| format!("{}:{}", p.kind.label(), p.dur.as_nanos()))
        .collect();
    let s = dev.stats();
    format!(
        "{} {start}+{sectors} @{} -> {outcome} [{}] r{} w{} sr{} sw{} busy{} rp{}",
        if write { "w" } else { "r" },
        now.as_nanos(),
        phases.join(" "),
        s.reads,
        s.writes,
        s.sectors_read,
        s.sectors_written,
        s.busy.as_nanos(),
        s.repositions,
    )
}

/// Runs the script on `dev`. `boundary` is the sector where the model's
/// layout changes: the disk's first zone boundary, the jukebox's second
/// cartridge, the midpoint elsewhere.
fn transcript(mut dev: Box<dyn BlockDevice>, boundary: u64) -> Vec<String> {
    let name = dev.name().to_string();
    dev.set_fault_injector(plan(&name).injector_for(&name).unwrap());
    let cap = dev.capacity_sectors();
    // (phase start in seconds, [(write, start, sectors)]).
    let script = [
        (
            0,
            vec![
                (false, 0, 8),
                (false, 8, 8),
                (true, 16, 8),
                (false, cap / 2, 16),
                (true, cap / 3, 8),
                (false, boundary - 100, 200),
                (false, boundary, 8),
                (false, 4, 8),
                (false, cap, 8),
                (false, 0, 0),
                (true, cap - 8, 16),
            ],
        ),
        (
            10_000,
            vec![
                (false, boundary - 4, 8),
                (false, 100, 8),
                (false, 108, 8),
                (true, 116, 8),
            ],
        ),
        (
            20_000,
            vec![
                (false, cap / 4, 32),
                (true, cap / 4 + 32, 32),
                (false, cap - 64, 64),
            ],
        ),
        (
            30_000,
            vec![
                (false, 0, 8),
                (false, cap, 8),
                (true, 0, 8),
                (false, boundary - 4, 8),
            ],
        ),
        (40_000, vec![(false, 0, 8), (false, 8, 8)]),
    ];
    let mut now = SimTime::ZERO;
    let mut lines = Vec::new();
    for (phase_start, cmds) in script {
        now = now.max(SimTime::from_nanos(phase_start * SEC));
        for (write, start, sectors) in cmds {
            let out = if write {
                dev.write(start, sectors, now)
            } else {
                dev.read(start, sectors, now)
            };
            lines.push(line(dev.as_ref(), write, start, sectors, now, &out));
            match &out {
                Ok(t) => now += *t,
                Err(e) => now += e.fault_cost().unwrap_or(SimDuration::ZERO),
            }
        }
    }
    lines
}

fn check(dev: Box<dyn BlockDevice>, boundary: u64, expected: &[&str]) {
    let got = transcript(dev, boundary);
    let mismatches: Vec<usize> = (0..got.len().max(expected.len()))
        .filter(|&i| got.get(i).map(String::as_str) != expected.get(i).copied())
        .collect();
    assert!(
        mismatches.is_empty(),
        "lines {mismatches:?} differ; the full transcript:\n{}",
        got.iter()
            .map(|l| format!("    {l:?},"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The table 2 disk's first zone ends after 4,000 cylinders of 4 × 260.
const DISK_ZONE_1: u64 = 4_000 * 4 * 260;

fn jitter() -> DetRng {
    DetRng::new(0x9e1d)
}

#[test]
fn disk_script() {
    check(Box::new(DiskDevice::table2_disk("hda")), DISK_ZONE_1, DISK);
}

#[test]
fn disk_jittered_script() {
    let d = DiskDevice::table2_disk("hda").with_jitter(jitter(), 0.04);
    check(Box::new(d), DISK_ZONE_1, DISK_JITTERED);
}

#[test]
fn cdrom_script() {
    let cd = CdRomDevice::table2_drive("cd0");
    let half = cd.capacity_sectors() / 2;
    check(Box::new(cd), half, CDROM);
}

#[test]
fn cdrom_jittered_script() {
    let cd = CdRomDevice::table2_drive("cd0").with_jitter(jitter(), 0.04);
    let half = cd.capacity_sectors() / 2;
    check(Box::new(cd), half, CDROM_JITTERED);
}

#[test]
fn nfs_link_script() {
    let nfs = NfsDevice::table2_mount("srv:/x");
    let half = nfs.capacity_sectors() / 2;
    check(Box::new(nfs), half, NFS);
}

#[test]
fn nfs_link_jittered_script() {
    let nfs = NfsDevice::table2_mount("srv:/x").with_jitter(jitter(), 0.04);
    let half = nfs.capacity_sectors() / 2;
    check(Box::new(nfs), half, NFS_JITTERED);
}

#[test]
fn tape_script() {
    let t = TapeDevice::dlt("st0");
    let half = t.capacity_sectors() / 2;
    check(Box::new(t), half, TAPE);
}

#[test]
fn jukebox_script() {
    let jb = Jukebox::new("jb0", 3, 1, JukeboxParams::default());
    let cart = jb.capacity_sectors() / 3;
    check(Box::new(jb), cart, JUKEBOX);
}

const DISK: &[&str] = &[
    "r 0+8 @0 -> ok 11452991 [overhead:200000 rotation:10911111 transfer:341880] r1 w0 sr8 sw0 busy11452991 rp0",
    "r 8+8 @11452991 -> ok 541880 [overhead:200000 transfer:341880] r2 w0 sr16 sw0 busy11994871 rp0",
    "w 16+8 @11994871 -> ok 541880 [overhead:200000 transfer:341880] r2 w1 sr16 sw8 busy12536751 rp0",
    "r 5200000+16 @12536751 -> ok 24634965 [overhead:200000 seek:13476434 rotation:10150451 transfer:808080] r3 w1 sr32 sw8 busy37171716 rp1",
    "w 3466666+8 @37171716 -> ok 11289821 [overhead:200000 seek:8680513 rotation:2067428 transfer:341880] r3 w2 sr32 sw16 busy48461537 rp2",
    "r 4159900+200 @48461537 -> ok 25055632 [overhead:200000 seek:5865047 rotation:7866577 transfer:9324008 track_switch:1800000] r4 w2 sr232 sw16 busy73517169 rp3",
    "r 4160000+8 @73517169 -> ok 4664648 [overhead:200000 rotation:4060608 transfer:404040] r5 w2 sr240 sw16 busy78181817 rp3",
    "r 4+8 @78181817 -> ok 22331002 [overhead:200000 seek:12000000 rotation:9789122 transfer:341880] r6 w2 sr248 sw16 busy100512819 rp4",
    "r 10400000+8 @100512819 -> Einval [] r6 w2 sr248 sw16 busy100512819 rp4",
    "r 0+0 @100512819 -> Einval [] r6 w2 sr248 sw16 busy100512819 rp4",
    "w 10399992+16 @100512819 -> Einval [] r6 w2 sr248 sw16 busy100512819 rp4",
    "r 4159996+8 @10000000000000 -> Eagain cost 3000000 [fault:3000000] r6 w2 sr248 sw16 busy100512819 rp4",
    "r 100+8 @10000003000000 -> Eagain cost 3000000 [fault:3000000] r6 w2 sr248 sw16 busy100512819 rp4",
    "r 108+8 @10000006000000 -> ok 11468375 [overhead:200000 rotation:9426495 transfer:341880 retry:1500000] r7 w2 sr256 sw16 busy111981194 rp4",
    "w 116+8 @10000017468375 -> ok 541880 [overhead:200000 transfer:341880] r7 w3 sr256 sw24 busy112523074 rp4",
    "r 2600000+32 @20000000000000 -> ok 30696577 [overhead:200000 seek:9829489 rotation:881621 transfer:1367521 fault:18417946] r8 w3 sr288 sw24 busy143219651 rp5",
    "w 2600032+32 @20000030696577 -> ok 3918802 [overhead:200000 transfer:1367521 fault:2351281] r8 w4 sr288 sw56 busy147138453 rp5",
    "r 10399936+64 @20000034615379 -> ok 79628214 [overhead:200000 seek:18874609 rotation:8593671 transfer:4183006 fault:47776928] r9 w4 sr352 sw56 busy226766667 rp6",
    "r 0+8 @30000000000000 -> Eio cost 7000000 [fault:7000000] r9 w4 sr352 sw56 busy226766667 rp6",
    "r 10400000+8 @30000007000000 -> Einval [] r9 w4 sr352 sw56 busy226766667 rp6",
    "w 0+8 @30000007000000 -> Eio cost 7000000 [fault:7000000] r9 w4 sr352 sw56 busy226766667 rp6",
    "r 4159996+8 @30000014000000 -> Eio cost 7000000 [fault:7000000] r9 w4 sr352 sw56 busy226766667 rp6",
    "r 0+8 @40000000000000 -> ok 33275213 [overhead:200000 seek:22000000 rotation:10733333 transfer:341880] r10 w4 sr360 sw56 busy260041880 rp7",
    "r 8+8 @40000033275213 -> ok 541880 [overhead:200000 transfer:341880] r11 w4 sr368 sw56 busy260583760 rp7",
];
const DISK_JITTERED: &[&str] = &[
    "r 0+8 @0 -> ok 11452991 [overhead:200000 rotation:10911111 transfer:341880] r1 w0 sr8 sw0 busy11452991 rp0",
    "r 8+8 @11452991 -> ok 541880 [overhead:200000 transfer:341880] r2 w0 sr16 sw0 busy11994871 rp0",
    "w 16+8 @11994871 -> ok 541880 [overhead:200000 transfer:341880] r2 w1 sr16 sw8 busy12536751 rp0",
    "r 5200000+16 @12536751 -> ok 24634965 [overhead:200000 seek:14008447 rotation:9618438 transfer:808080] r3 w1 sr32 sw8 busy37171716 rp1",
    "w 3466666+8 @37171716 -> ok 11289821 [overhead:200000 seek:8969905 rotation:1778036 transfer:341880] r3 w2 sr32 sw16 busy48461537 rp2",
    "r 4159900+200 @48461537 -> ok 25055632 [overhead:200000 seek:5956146 rotation:7775478 transfer:9324008 track_switch:1800000] r4 w2 sr232 sw16 busy73517169 rp3",
    "r 4160000+8 @73517169 -> ok 4664648 [overhead:200000 rotation:4060608 transfer:404040] r5 w2 sr240 sw16 busy78181817 rp3",
    "r 4+8 @78181817 -> ok 22331002 [overhead:200000 seek:11718525 rotation:10070597 transfer:341880] r6 w2 sr248 sw16 busy100512819 rp4",
    "r 10400000+8 @100512819 -> Einval [] r6 w2 sr248 sw16 busy100512819 rp4",
    "r 0+0 @100512819 -> Einval [] r6 w2 sr248 sw16 busy100512819 rp4",
    "w 10399992+16 @100512819 -> Einval [] r6 w2 sr248 sw16 busy100512819 rp4",
    "r 4159996+8 @10000000000000 -> Eagain cost 3000000 [fault:3000000] r6 w2 sr248 sw16 busy100512819 rp4",
    "r 100+8 @10000003000000 -> Eagain cost 3000000 [fault:3000000] r6 w2 sr248 sw16 busy100512819 rp4",
    "r 108+8 @10000006000000 -> ok 11468375 [overhead:200000 rotation:9426495 transfer:341880 retry:1500000] r7 w2 sr256 sw16 busy111981194 rp4",
    "w 116+8 @10000017468375 -> ok 541880 [overhead:200000 transfer:341880] r7 w3 sr256 sw24 busy112523074 rp4",
    "r 2600000+32 @20000000000000 -> ok 30696577 [overhead:200000 seek:9801777 rotation:909333 transfer:1367521 fault:18417946] r8 w3 sr288 sw24 busy143219651 rp5",
    "w 2600032+32 @20000030696577 -> ok 3918802 [overhead:200000 transfer:1367521 fault:2351281] r8 w4 sr288 sw56 busy147138453 rp5",
    "r 10399936+64 @20000034615379 -> ok 79628214 [overhead:200000 seek:18570850 rotation:8897430 transfer:4183006 fault:47776928] r9 w4 sr352 sw56 busy226766667 rp6",
    "r 0+8 @30000000000000 -> Eio cost 7000000 [fault:7000000] r9 w4 sr352 sw56 busy226766667 rp6",
    "r 10400000+8 @30000007000000 -> Einval [] r9 w4 sr352 sw56 busy226766667 rp6",
    "w 0+8 @30000007000000 -> Eio cost 7000000 [fault:7000000] r9 w4 sr352 sw56 busy226766667 rp6",
    "r 4159996+8 @30000014000000 -> Eio cost 7000000 [fault:7000000] r9 w4 sr352 sw56 busy226766667 rp6",
    "r 0+8 @40000000000000 -> ok 22164101 [overhead:200000 seek:21211861 rotation:410360 transfer:341880] r10 w4 sr360 sw56 busy248930768 rp7",
    "r 8+8 @40000022164101 -> ok 541880 [overhead:200000 transfer:341880] r11 w4 sr368 sw56 busy249472648 rp7",
];
const CDROM: &[&str] = &[
    "r 0+8 @0 -> ok 1988474 [overhead:600000 transfer:1388474] r1 w0 sr8 sw0 busy1988474 rp0",
    "r 8+8 @1988474 -> ok 1988474 [overhead:600000 transfer:1388474] r2 w0 sr16 sw0 busy3976948 rp0",
    "w 16+8 @3976948 -> Erofs [] r2 w0 sr16 sw0 busy3976948 rp0",
    "r 665600+16 @3976948 -> ok 150375626 [overhead:600000 seek:146998677 transfer:2776949] r3 w0 sr32 sw0 busy154352574 rp1",
    "w 443733+8 @154352574 -> Erofs [] r3 w0 sr32 sw0 busy154352574 rp1",
    "r 665500+200 @154352574 -> ok 127321449 [overhead:600000 seek:92009585 transfer:34711864] r4 w0 sr232 sw0 busy281674023 rp2",
    "r 665600+8 @281674023 -> ok 93996737 [overhead:600000 seek:92008263 transfer:1388474] r5 w0 sr240 sw0 busy375670760 rp3",
    "r 4+8 @375670760 -> ok 148988804 [overhead:600000 seek:147000330 transfer:1388474] r6 w0 sr248 sw0 busy524659564 rp4",
    "r 1331200+8 @524659564 -> Einval [] r6 w0 sr248 sw0 busy524659564 rp4",
    "r 0+0 @524659564 -> Einval [] r6 w0 sr248 sw0 busy524659564 rp4",
    "w 1331192+16 @524659564 -> Erofs [] r6 w0 sr248 sw0 busy524659564 rp4",
    "r 665596+8 @10000000000000 -> Eagain cost 3000000 [fault:3000000] r6 w0 sr248 sw0 busy524659564 rp4",
    "r 100+8 @10000003000000 -> Eagain cost 3000000 [fault:3000000] r6 w0 sr248 sw0 busy524659564 rp4",
    "r 108+8 @10000006000000 -> ok 95496406 [overhead:600000 seek:92007932 transfer:1388474 retry:1500000] r7 w0 sr256 sw0 busy620155970 rp5",
    "w 116+8 @10000101496406 -> Erofs [] r7 w0 sr256 sw0 busy620155970 rp5",
    "r 332800+32 @20000000000000 -> ok 314110780 [overhead:600000 seek:119490414 transfer:5553898 fault:188466468] r8 w0 sr288 sw0 busy934266750 rp6",
    "w 332832+32 @20000314110780 -> Erofs [] r8 w0 sr288 sw0 busy934266750 rp6",
    "r 1331136+64 @20000314110780 -> ok 465499657 [overhead:600000 seek:174492067 transfer:11107796 fault:279299794] r9 w0 sr352 sw0 busy1399766407 rp7",
    "r 0+8 @30000000000000 -> Eio cost 7000000 [fault:7000000] r9 w0 sr352 sw0 busy1399766407 rp7",
    "r 1331200+8 @30000007000000 -> Einval [] r9 w0 sr352 sw0 busy1399766407 rp7",
    "w 0+8 @30000007000000 -> Erofs [] r9 w0 sr352 sw0 busy1399766407 rp7",
    "r 665596+8 @30000007000000 -> Eio cost 7000000 [fault:7000000] r9 w0 sr352 sw0 busy1399766407 rp7",
    "r 0+8 @40000000000000 -> ok 203988474 [overhead:600000 seek:202000000 transfer:1388474] r10 w0 sr360 sw0 busy1603754881 rp8",
    "r 8+8 @40000203988474 -> ok 1988474 [overhead:600000 transfer:1388474] r11 w0 sr368 sw0 busy1605743355 rp8",
];
const CDROM_JITTERED: &[&str] = &[
    "r 0+8 @0 -> ok 1988474 [overhead:600000 transfer:1388474] r1 w0 sr8 sw0 busy1988474 rp0",
    "r 8+8 @1988474 -> ok 1988474 [overhead:600000 transfer:1388474] r2 w0 sr16 sw0 busy3976948 rp0",
    "w 16+8 @3976948 -> Erofs [] r2 w0 sr16 sw0 busy3976948 rp0",
    "r 665600+16 @3976948 -> ok 155885831 [overhead:600000 seek:152508882 transfer:2776949] r3 w0 sr32 sw0 busy159862779 rp1",
    "w 443733+8 @159862779 -> Erofs [] r3 w0 sr32 sw0 busy159862779 rp1",
    "r 665500+200 @159862779 -> ok 130953744 [overhead:600000 seek:95641880 transfer:34711864] r4 w0 sr232 sw0 busy290816523 rp2",
    "r 665600+8 @290816523 -> ok 97064124 [overhead:600000 seek:95075650 transfer:1388474] r5 w0 sr240 sw0 busy387880647 rp3",
    "r 4+8 @387880647 -> ok 151272116 [overhead:600000 seek:149283642 transfer:1388474] r6 w0 sr248 sw0 busy539152763 rp4",
    "r 1331200+8 @539152763 -> Einval [] r6 w0 sr248 sw0 busy539152763 rp4",
    "r 0+0 @539152763 -> Einval [] r6 w0 sr248 sw0 busy539152763 rp4",
    "w 1331192+16 @539152763 -> Erofs [] r6 w0 sr248 sw0 busy539152763 rp4",
    "r 665596+8 @10000000000000 -> Eagain cost 3000000 [fault:3000000] r6 w0 sr248 sw0 busy539152763 rp4",
    "r 100+8 @10000003000000 -> Eagain cost 3000000 [fault:3000000] r6 w0 sr248 sw0 busy539152763 rp4",
    "r 108+8 @10000006000000 -> ok 95723585 [overhead:600000 seek:92235111 transfer:1388474 retry:1500000] r7 w0 sr256 sw0 busy634876348 rp5",
    "w 116+8 @10000101723585 -> Erofs [] r7 w0 sr256 sw0 busy634876348 rp5",
    "r 332800+32 @20000000000000 -> ok 307103792 [overhead:600000 seek:116687619 transfer:5553898 fault:184262275] r8 w0 sr288 sw0 busy941980140 rp6",
    "w 332832+32 @20000307103792 -> Erofs [] r8 w0 sr288 sw0 busy941980140 rp6",
    "r 1331136+64 @20000307103792 -> ok 467628852 [overhead:600000 seek:175343745 transfer:11107796 fault:280577311] r9 w0 sr352 sw0 busy1409608992 rp7",
    "r 0+8 @30000000000000 -> Eio cost 7000000 [fault:7000000] r9 w0 sr352 sw0 busy1409608992 rp7",
    "r 1331200+8 @30000007000000 -> Einval [] r9 w0 sr352 sw0 busy1409608992 rp7",
    "w 0+8 @30000007000000 -> Erofs [] r9 w0 sr352 sw0 busy1409608992 rp7",
    "r 665596+8 @30000007000000 -> Eio cost 7000000 [fault:7000000] r9 w0 sr352 sw0 busy1409608992 rp7",
    "r 0+8 @40000000000000 -> ok 203418994 [overhead:600000 seek:201430520 transfer:1388474] r10 w0 sr360 sw0 busy1613027986 rp8",
    "r 8+8 @40000203418994 -> ok 1988474 [overhead:600000 transfer:1388474] r11 w0 sr368 sw0 busy1615016460 rp8",
];
const NFS: &[&str] = &[
    "r 0+8 @0 -> ok 269776699 [rpc:800000 first_byte:265000000 link:3976699] r1 w0 sr8 sw0 busy269776699 rp1",
    "r 8+8 @269776699 -> ok 4776699 [rpc:800000 link:3976699] r2 w0 sr16 sw0 busy274553398 rp1",
    "w 16+8 @274553398 -> ok 4776699 [rpc:800000 link:3976699] r2 w1 sr16 sw8 busy279330097 rp1",
    "r 2097152+16 @279330097 -> ok 273753398 [rpc:800000 first_byte:265000000 link:7953398] r3 w1 sr32 sw8 busy553083495 rp2",
    "w 1398101+8 @553083495 -> ok 269776699 [rpc:800000 first_byte:265000000 link:3976699] r3 w2 sr32 sw16 busy822860194 rp3",
    "r 2097052+200 @822860194 -> ok 365217475 [rpc:800000 first_byte:265000000 link:99417475] r4 w2 sr232 sw16 busy1188077669 rp4",
    "r 2097152+8 @1188077669 -> ok 269776699 [rpc:800000 first_byte:265000000 link:3976699] r5 w2 sr240 sw16 busy1457854368 rp5",
    "r 4+8 @1457854368 -> ok 269776699 [rpc:800000 first_byte:265000000 link:3976699] r6 w2 sr248 sw16 busy1727631067 rp6",
    "r 4194304+8 @1727631067 -> Einval [] r6 w2 sr248 sw16 busy1727631067 rp6",
    "r 0+0 @1727631067 -> Einval [] r6 w2 sr248 sw16 busy1727631067 rp6",
    "w 4194296+16 @1727631067 -> Einval [] r6 w2 sr248 sw16 busy1727631067 rp6",
    "r 2097148+8 @10000000000000 -> Eagain cost 3000000 [fault:3000000] r6 w2 sr248 sw16 busy1727631067 rp6",
    "r 100+8 @10000003000000 -> Eagain cost 3000000 [fault:3000000] r6 w2 sr248 sw16 busy1727631067 rp6",
    "r 108+8 @10000006000000 -> ok 271276699 [rpc:800000 first_byte:265000000 link:3976699 retry:1500000] r7 w2 sr256 sw16 busy1998907766 rp7",
    "w 116+8 @10000277276699 -> ok 4776699 [rpc:800000 link:3976699] r7 w3 sr256 sw24 busy2003684465 rp7",
    "r 1048576+32 @20000000000000 -> ok 704266990 [rpc:800000 first_byte:265000000 link:15906796 fault:422560194] r8 w3 sr288 sw24 busy2707951455 rp8",
    "w 1048608+32 @20000704266990 -> ok 41766990 [rpc:800000 link:15906796 fault:25060194] r8 w4 sr288 sw56 busy2749718445 rp8",
    "r 4194240+64 @20000746033980 -> ok 744033979 [rpc:800000 first_byte:265000000 link:31813592 fault:446420387] r9 w4 sr352 sw56 busy3493752424 rp9",
    "r 0+8 @30000000000000 -> Eio cost 7000000 [fault:7000000] r9 w4 sr352 sw56 busy3493752424 rp9",
    "r 4194304+8 @30000007000000 -> Einval [] r9 w4 sr352 sw56 busy3493752424 rp9",
    "w 0+8 @30000007000000 -> Eio cost 7000000 [fault:7000000] r9 w4 sr352 sw56 busy3493752424 rp9",
    "r 2097148+8 @30000014000000 -> Eio cost 7000000 [fault:7000000] r9 w4 sr352 sw56 busy3493752424 rp9",
    "r 0+8 @40000000000000 -> ok 269776699 [rpc:800000 first_byte:265000000 link:3976699] r10 w4 sr360 sw56 busy3763529123 rp10",
    "r 8+8 @40000269776699 -> ok 4776699 [rpc:800000 link:3976699] r11 w4 sr368 sw56 busy3768305822 rp10",
];
const NFS_JITTERED: &[&str] = &[
    "r 0+8 @0 -> ok 279710151 [rpc:800000 first_byte:274933452 link:3976699] r1 w0 sr8 sw0 busy279710151 rp1",
    "r 8+8 @279710151 -> ok 4776699 [rpc:800000 link:3976699] r2 w0 sr16 sw0 busy284486850 rp1",
    "w 16+8 @284486850 -> ok 4776699 [rpc:800000 link:3976699] r2 w1 sr16 sw8 busy289263549 rp1",
    "r 2097152+16 @289263549 -> ok 284214896 [rpc:800000 first_byte:275461498 link:7953398] r3 w1 sr32 sw8 busy573478445 rp2",
    "w 1398101+8 @573478445 -> ok 278611314 [rpc:800000 first_byte:273834615 link:3976699] r3 w2 sr32 sw16 busy852089759 rp3",
    "r 2097052+200 @852089759 -> ok 369333639 [rpc:800000 first_byte:269116164 link:99417475] r4 w2 sr232 sw16 busy1221423398 rp4",
    "r 2097152+8 @1221423398 -> ok 270431015 [rpc:800000 first_byte:265654316 link:3976699] r5 w2 sr240 sw16 busy1491854413 rp5",
    "r 4+8 @1491854413 -> ok 263560796 [rpc:800000 first_byte:258784097 link:3976699] r6 w2 sr248 sw16 busy1755415209 rp6",
    "r 4194304+8 @1755415209 -> Einval [] r6 w2 sr248 sw16 busy1755415209 rp6",
    "r 0+0 @1755415209 -> Einval [] r6 w2 sr248 sw16 busy1755415209 rp6",
    "w 4194296+16 @1755415209 -> Einval [] r6 w2 sr248 sw16 busy1755415209 rp6",
    "r 2097148+8 @10000000000000 -> Eagain cost 3000000 [fault:3000000] r6 w2 sr248 sw16 busy1755415209 rp6",
    "r 100+8 @10000003000000 -> Eagain cost 3000000 [fault:3000000] r6 w2 sr248 sw16 busy1755415209 rp6",
    "r 108+8 @10000006000000 -> ok 272570136 [rpc:800000 first_byte:266293437 link:3976699 retry:1500000] r7 w2 sr256 sw16 busy2027985345 rp7",
    "w 116+8 @10000278570136 -> ok 4776699 [rpc:800000 link:3976699] r7 w3 sr256 sw24 busy2032762044 rp7",
    "r 1048576+32 @20000000000000 -> ok 702399264 [rpc:800000 first_byte:264252910 link:15906796 fault:421439558] r8 w3 sr288 sw24 busy2735161308 rp8",
    "w 1048608+32 @20000702399264 -> ok 41766990 [rpc:800000 link:15906796 fault:25060194] r8 w4 sr288 sw56 busy2776928298 rp8",
    "r 4194240+64 @20000744166254 -> ok 733372025 [rpc:800000 first_byte:260735218 link:31813592 fault:440023215] r9 w4 sr352 sw56 busy3510300323 rp9",
    "r 0+8 @30000000000000 -> Eio cost 7000000 [fault:7000000] r9 w4 sr352 sw56 busy3510300323 rp9",
    "r 4194304+8 @30000007000000 -> Einval [] r9 w4 sr352 sw56 busy3510300323 rp9",
    "w 0+8 @30000007000000 -> Eio cost 7000000 [fault:7000000] r9 w4 sr352 sw56 busy3510300323 rp9",
    "r 2097148+8 @30000014000000 -> Eio cost 7000000 [fault:7000000] r9 w4 sr352 sw56 busy3510300323 rp9",
    "r 0+8 @40000000000000 -> ok 260283207 [rpc:800000 first_byte:255506508 link:3976699] r10 w4 sr360 sw56 busy3770583530 rp10",
    "r 8+8 @40000260283207 -> ok 4776699 [rpc:800000 link:3976699] r11 w4 sr368 sw56 busy3775360229 rp10",
];
const TAPE: &[&str] = &[
    "r 0+8 @0 -> ok 40000819200 [mount:40000000000 stream:819200] r1 w0 sr8 sw0 busy40000819200 rp1",
    "r 8+8 @40000819200 -> ok 819200 [stream:819200] r2 w0 sr16 sw0 busy40001638400 rp1",
    "w 16+8 @40001638400 -> ok 819200 [stream:819200] r2 w1 sr16 sw8 busy40002457600 rp1",
    "r 20971520+16 @40002457600 -> ok 4001638400 [locate:4000000000 stream:1638400] r3 w1 sr32 sw8 busy44004096000 rp2",
    "w 13981013+8 @44004096000 -> ok 22353459200 [locate:22352640000 stream:819200] r3 w2 sr32 sw16 busy66357555200 rp3",
    "r 20971420+200 @66357555200 -> ok 22371618133 [locate:22351138133 stream:20480000] r4 w2 sr232 sw16 busy88729173333 rp4",
    "r 20971520+8 @88729173333 -> ok 2504232533 [locate:2503413333 stream:819200] r5 w2 sr240 sw16 busy91233405866 rp5",
    "r 4+8 @91233405866 -> ok 4001774933 [locate:4000955733 stream:819200] r6 w2 sr248 sw16 busy95235180799 rp6",
    "r 41943040+8 @95235180799 -> Einval [] r6 w2 sr248 sw16 busy95235180799 rp6",
    "r 0+0 @95235180799 -> Einval [] r6 w2 sr248 sw16 busy95235180799 rp6",
    "w 41943032+16 @95235180799 -> Einval [] r6 w2 sr248 sw16 busy95235180799 rp6",
    "r 20971516+8 @10000000000000 -> Eagain cost 3000000 [fault:3000000] r6 w2 sr248 sw16 busy95235180799 rp6",
    "r 100+8 @10000003000000 -> Eagain cost 3000000 [fault:3000000] r6 w2 sr248 sw16 busy95235180799 rp6",
    "r 108+8 @10000006000000 -> ok 2505596000 [locate:2503276800 stream:819200 retry:1500000] r7 w2 sr256 sw16 busy97740776799 rp7",
    "w 116+8 @10002511596000 -> ok 819200 [stream:819200] r7 w3 sr256 sw24 busy97741595999 rp7",
    "r 10485760+32 @20000000000000 -> ok 78826112000 [locate:31527168000 stream:3276800 fault:47295667200] r8 w3 sr288 sw24 busy176567707999 rp8",
    "w 10485792+32 @20078826112000 -> ok 8192000 [stream:3276800 fault:4915200] r8 w4 sr288 sw56 busy176575899999 rp8",
    "r 41942976+64 @20078834304000 -> ok 78838058665 [locate:31528669866 stream:6553600 fault:47302835199] r9 w4 sr352 sw56 busy255413958664 rp9",
    "r 0+8 @30000000000000 -> Eio cost 7000000 [fault:7000000] r9 w4 sr352 sw56 busy255413958664 rp9",
    "r 41943040+8 @30000007000000 -> Einval [] r9 w4 sr352 sw56 busy255413958664 rp9",
    "w 0+8 @30000007000000 -> Eio cost 7000000 [fault:7000000] r9 w4 sr352 sw56 busy255413958664 rp9",
    "r 20971516+8 @30000014000000 -> Eio cost 7000000 [fault:7000000] r9 w4 sr352 sw56 busy255413958664 rp9",
    "r 0+8 @40000000000000 -> ok 4002423466 [locate:4001604266 stream:819200] r10 w4 sr360 sw56 busy259416382130 rp10",
    "r 8+8 @40004002423466 -> ok 819200 [stream:819200] r11 w4 sr368 sw56 busy259417201330 rp10",
];
const JUKEBOX: &[&str] = &[
    "r 0+8 @0 -> ok 52000819200 [robot_move:12000000000 mount:40000000000 stream:819200] r1 w0 sr8 sw0 busy52000819200 rp1",
    "r 8+8 @52000819200 -> ok 819200 [stream:819200] r2 w0 sr16 sw0 busy52001638400 rp1",
    "w 16+8 @52001638400 -> ok 819200 [stream:819200] r2 w1 sr16 sw8 busy52002457600 rp1",
    "r 62914560+16 @52002457600 -> ok 72502457600 [mount:44500000000 robot_move:24000000000 locate:4000819200 stream:1638400] r3 w1 sr32 sw8 busy124504915200 rp3",
    "w 41943040+8 @124504915200 -> ok 4002184533 [locate:4001365333 stream:819200] r3 w2 sr32 sw16 busy128507099733 rp4",
    "r 41942940+200 @128507099733 -> Einval [] r3 w2 sr32 sw16 busy128507099733 rp4",
    "r 41943040+8 @128507099733 -> ok 2501092266 [locate:2500273066 stream:819200] r4 w2 sr40 sw16 busy131008191999 rp5",
    "r 4+8 @131008191999 -> ok 71000955733 [mount:44500000000 robot_move:24000000000 locate:2500136533 stream:819200] r5 w2 sr48 sw16 busy202009147732 rp7",
    "r 125829120+8 @202009147732 -> Einval [] r5 w2 sr48 sw16 busy202009147732 rp7",
    "r 0+0 @202009147732 -> Einval [] r5 w2 sr48 sw16 busy202009147732 rp7",
    "w 125829112+16 @202009147732 -> Einval [] r5 w2 sr48 sw16 busy202009147732 rp7",
    "r 41943036+8 @10000000000000 -> Einval [] r5 w2 sr48 sw16 busy202009147732 rp7",
    "r 100+8 @10000000000000 -> Eagain cost 3000000 [fault:3000000] r5 w2 sr48 sw16 busy202009147732 rp7",
    "r 108+8 @10000003000000 -> Eagain cost 3000000 [fault:3000000] r5 w2 sr48 sw16 busy202009147732 rp7",
    "w 116+8 @10000006000000 -> ok 2505869066 [locate:2503549866 stream:819200 retry:1500000] r5 w3 sr48 sw24 busy204515016798 rp8",
    "r 31457280+32 @20000000000000 -> ok 78824063997 [locate:31526348799 stream:3276800 fault:47294438398] r6 w3 sr80 sw24 busy283339080795 rp9",
    "w 31457312+32 @20078824063997 -> ok 8192000 [stream:3276800 fault:4915200] r6 w4 sr80 sw56 busy283347272795 rp9",
    "r 125829056+64 @20078832255997 -> ok 394989854324 [mount:129988841997 robot_move:24000000000 locate:4000546133 stream:6553600 fault:236993912594] r7 w4 sr144 sw56 busy678337127119 rp11",
    "r 0+8 @30000000000000 -> Eio cost 7000000 [fault:7000000] r7 w4 sr144 sw56 busy678337127119 rp11",
    "r 125829120+8 @30000007000000 -> Einval [] r7 w4 sr144 sw56 busy678337127119 rp11",
    "w 0+8 @30000007000000 -> Eio cost 7000000 [fault:7000000] r7 w4 sr144 sw56 busy678337127119 rp11",
    "r 41943036+8 @30000014000000 -> Einval [] r7 w4 sr144 sw56 busy678337127119 rp11",
    "r 0+8 @40000000000000 -> ok 68500819200 [mount:44500000000 robot_move:24000000000 stream:819200] r8 w4 sr152 sw56 busy746837946319 rp12",
    "r 8+8 @40068500819200 -> ok 819200 [stream:819200] r9 w4 sr160 sw56 busy746838765519 rp12",
];
