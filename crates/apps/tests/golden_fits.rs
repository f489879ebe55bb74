//! Golden pins for the FITS tools: `fimhisto`'s range and histogram,
//! every output file (as an FNV-1a fold), and `Rusage.cpu`, major faults
//! and job elapsed of `fimhisto` and of `fimgbin` at factors 2, 4 and 3 —
//! baseline and SLEDs, for all five BITPIX types and three hostile
//! images. Factors 2 and 4 run `Bitpix::add_boxes` at a constant box
//! width, factor 3 at a runtime one. The constants were recorded from the
//! per-pixel `Vec<f64>` loops these tools used to have (factor 3 from the
//! decode-then-accumulate loop before `add_boxes`); the virtual machine
//! must not notice how the host walks its pixels.

use sleds::{SledsEntry, SledsTable};
use sleds_apps::fimgbin::fimgbin;
use sleds_apps::fimhisto::fimhisto;
use sleds_apps::BUFSIZE;
use sleds_devices::DiskDevice;
use sleds_fits::{generate_image_bytes, Bitpix, FitsHeader, BLOCK_SIZE};
use sleds_fs::{Kernel, MachineConfig, OpenFlags, Whence};
use sleds_sim_core::{ByteSize, PAGE_SIZE};

const INPUT: &str = "/data/in.fits";
const OUTPUT: &str = "/data/out.fits";

/// Few enough bins to pin every count, enough to spread the sky noise.
const BINS: usize = 24;

/// Row width of every image but the I16 sweep. Odd, and one more than a
/// multiple of 4, so the 2x2 and 4x4 boxcars discard a remainder column
/// (the 3x3 keeps all 513); and every
/// `BUFSIZE` chunk of every pixel width starts at an odd `x` — mid-row
/// and mid-box (see `chunk_edges_fall_mid_row_and_mid_box`).
const WIDTH: usize = 513;

/// FNV-1a 64: what the output constants below were recorded with. Local
/// to this test so they stand whatever fold the flight recorder uses.
fn fold_bytes(data: &[u8]) -> u64 {
    data.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A complete FITS file around already-encoded pixel bytes.
fn fits_file(bitpix: Bitpix, width: usize, height: usize, data: &[u8]) -> Vec<u8> {
    assert_eq!(data.len(), width * height * bitpix.bytes_per_pixel());
    let mut out = FitsHeader::primary(bitpix, &[width, height]).encode();
    out.extend_from_slice(data);
    out.resize(out.len().next_multiple_of(BLOCK_SIZE), 0);
    out
}

/// The eight inputs, by name. Heights are odd and not a multiple of 4
/// (a remainder row is discarded) and give each star field about six
/// `BUFSIZE` chunks.
fn image(name: &str) -> Vec<u8> {
    match name {
        "u8" => generate_image_bytes(WIDTH, 781, Bitpix::U8, 81),
        "i16" => generate_image_bytes(WIDTH, 391, Bitpix::I16, 82),
        "i32" => generate_image_bytes(WIDTH, 197, Bitpix::I32, 83),
        "f32" => generate_image_bytes(WIDTH, 197, Bitpix::F32, 84),
        "f64" => generate_image_bytes(WIDTH, 99, Bitpix::F64, 85),
        "constant" => {
            let data: Vec<u8> = [0u8, 0, 0, 7].repeat(WIDTH * 41);
            fits_file(Bitpix::I32, WIDTH, 41, &data)
        }
        // A ramp with one NaN, +inf or -inf every eighth pixel of every
        // eighth row: never two in one 4x4 box, so no sum depends on
        // which of two NaN payloads an addition propagates.
        "specials" => {
            let (w, h) = (WIDTH, 67);
            let mut data = Vec::with_capacity(w * h * 4);
            for y in 0..h {
                for x in 0..w {
                    let v = if x % 8 == 1 && y % 8 == 2 {
                        [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][(x / 8 + y / 8) % 3]
                    } else {
                        (x as f32) * 0.375 - (y as f32) * 1.25
                    };
                    data.extend_from_slice(&v.to_be_bytes());
                }
            }
            fits_file(Bitpix::F32, w, h, &data)
        }
        // Every i16 value at least once, in a scrambled order.
        "i16-sweep" => {
            let (w, h) = (257, 301);
            let data: Vec<u8> = (0..w * h)
                .flat_map(|i| ((i * 7919) as u16 as i16).to_be_bytes())
                .collect();
            fits_file(Bitpix::I16, w, h, &data)
        }
        other => panic!("no image named {other}"),
    }
}

#[test]
fn chunk_edges_fall_mid_row_and_mid_box() {
    for bpp in [1, 2, 4, 8] {
        let x = (BUFSIZE / bpp) % WIDTH;
        assert_eq!(
            x % 2,
            1,
            "{bpp}-byte pixels: second chunk starts at x = {x}"
        );
    }
    assert_eq!(WIDTH % 4, 1);
}

/// A small Table 3 machine (the cache holds about 170 pages, so a 400 KB
/// input plus its output spill it) with `image` installed and its cache
/// left warm in a middle slice and the tail, so the pick plan has
/// several runs and reads the end of the file first.
fn prepared(image: &[u8]) -> (Kernel, SledsTable) {
    let mut k = Kernel::new(MachineConfig {
        ram: ByteSize::mib(1),
        ..MachineConfig::table3()
    });
    k.mkdir("/data").unwrap();
    let m = k
        .mount_disk("/data", DiskDevice::table3_disk("hda"))
        .unwrap();
    let dev = k.device_of_mount(m).unwrap();
    let mut t = SledsTable::new();
    t.fill_memory(SledsEntry::new(210e-9, 87e6));
    t.fill_device(dev, SledsEntry::new(0.018, 9e6));
    k.install_file(INPUT, image).unwrap();
    k.drop_caches().unwrap();
    let fd = k.open(INPUT, OpenFlags::RDONLY).unwrap();
    let pages = image.len() as u64 / PAGE_SIZE;
    for (page, n) in [(pages / 3, 9), (pages.saturating_sub(5), 6)] {
        k.lseek(fd, (page * PAGE_SIZE) as i64, Whence::Set).unwrap();
        k.read(fd, (n * PAGE_SIZE) as usize).unwrap();
    }
    k.close(fd).unwrap();
    k.reset_counters();
    (k, t)
}

/// What one tool run cost and left behind: `Rusage.cpu` and job elapsed
/// in virtual nanoseconds, major faults, and the FNV-1a fold of the
/// output file.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Run {
    cpu: u64,
    elapsed: u64,
    faults: u64,
    output: u64,
}

/// A pinned [`Run`], in field order.
const fn r(cpu: u64, elapsed: u64, faults: u64, output: u64) -> Run {
    Run {
        cpu,
        elapsed,
        faults,
        output,
    }
}

/// Runs `tool` as one job on a freshly prepared kernel.
fn run<T>(
    image: &[u8],
    sleds: bool,
    tool: impl FnOnce(&mut Kernel, Option<&SledsTable>) -> T,
) -> (T, Run) {
    let (mut k, t) = prepared(image);
    let job = k.start_job();
    let answer = tool(&mut k, sleds.then_some(&t));
    let rep = k.finish_job(&job);
    let fd = k.open(OUTPUT, OpenFlags::RDONLY).unwrap();
    let mut bytes = Vec::new();
    loop {
        let buf = k.read(fd, BUFSIZE).unwrap();
        if buf.is_empty() {
            break;
        }
        bytes.extend_from_slice(&buf);
    }
    k.close(fd).unwrap();
    let run = Run {
        cpu: rep.usage.cpu.as_nanos(),
        elapsed: rep.elapsed.as_nanos(),
        faults: rep.usage.major_faults,
        output: fold_bytes(&bytes),
    };
    (answer, run)
}

/// Everything pinned for one image; `[baseline, SLEDs]` per tool.
#[derive(Debug, PartialEq)]
struct Golden {
    image: &'static str,
    min: f64,
    max: f64,
    histogram: [u64; BINS],
    fimhisto: [Run; 2],
    fimgbin2: [Run; 2],
    fimgbin4: [Run; 2],
    fimgbin3: [Run; 2],
}

fn measure(name: &'static str) -> Golden {
    let image = image(name);
    let histo = [false, true].map(|sleds| {
        run(&image, sleds, |k, t| {
            fimhisto(k, INPUT, OUTPUT, BINS, t).unwrap()
        })
    });
    let [(base, _), (with, _)] = &histo;
    assert_eq!(base, with, "{name}: SLEDs changed fimhisto's answer");
    let rebin = |factor| {
        [false, true].map(|sleds| {
            run(&image, sleds, |k, t| {
                fimgbin(k, INPUT, OUTPUT, factor, t).unwrap();
            })
            .1
        })
    };
    Golden {
        image: name,
        min: base.min,
        max: base.max,
        histogram: base.histogram.clone().try_into().unwrap(),
        fimhisto: [histo[0].1, histo[1].1],
        // Not asserted equal across modes: SLEDs adds a box's samples in
        // arrival order, and `f64` sums of `f64` pixels notice.
        fimgbin2: rebin(2),
        fimgbin4: rebin(4),
        fimgbin3: rebin(3),
    }
}

#[test]
fn answers_outputs_and_virtual_costs_are_pinned() {
    let golden = [
        Golden {
            image: "u8",
            min: 85.0,
            max: 255.0,
            histogram: [
                14215, 114011, 164293, 93807, 14146, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                0, 0, 0, 181,
            ],
            fimhisto: [
                r(24701746, 164638908, 123, 3866282895243139882),
                r(24692376, 149218897, 107, 3866282895243139882),
            ],
            fimgbin2: [
                r(13162915, 75743716, 85, 12683231563974157372),
                r(13225765, 132888771, 105, 12683231563974157372),
            ],
            fimgbin4: [
                r(10086790, 73675336, 85, 10905936372307375467),
                r(10115640, 99360477, 88, 10905936372307375467),
            ],
            fimgbin3: [
                r(11040581, 74310742, 85, 2639161474756970748),
                r(11079431, 130909738, 93, 2639161474756970748),
            ],
        },
        Golden {
            image: "i16",
            min: 85.0,
            max: 19078.0,
            histogram: [
                200489, 71, 14, 2, 2, 1, 0, 1, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1,
            ],
            fimhisto: [
                r(23918390, 163855552, 123, 1829614285725768677),
                r(23909018, 148427078, 107, 1829614285725768677),
            ],
            fimgbin2: [
                r(9777567, 73474207, 85, 8240978271765236286),
                r(9840416, 132810042, 105, 8240978271765236286),
            ],
            fimgbin4: [
                r(7691233, 72067106, 85, 10179922119244704982),
                r(7720082, 98872883, 88, 10179922119244704982),
            ],
            fimgbin3: [
                r(8318818, 72489197, 85, 3125917690616991629),
                r(8357667, 130806307, 93, 3125917690616991629),
            ],
        },
        Golden {
            image: "i32",
            min: 85.0,
            max: 11268.0,
            histogram: [
                101006, 13, 21, 4, 5, 3, 2, 1, 0, 2, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1,
            ],
            fimhisto: [
                r(23688046, 164170342, 123, 17631018133731383949),
                r(23678676, 148691100, 107, 17631018133731383949),
            ],
            fimgbin2: [
                r(8127458, 72354511, 85, 17186158211215624565),
                r(8190307, 132736098, 105, 17186158211215624565),
            ],
            fimgbin4: [
                r(6540695, 60168784, 85, 16008410143236034012),
                r(6569544, 98595098, 88, 16008410143236034012),
            ],
            fimgbin3: [
                r(6993893, 60463843, 85, 169114679390060658),
                r(7032742, 130718858, 93, 169114679390060658),
            ],
        },
        Golden {
            image: "f32",
            min: 85.03411102294922,
            max: 5676.44091796875,
            histogram: [
                101005, 0, 13, 19, 8, 4, 3, 0, 2, 3, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 1,
            ],
            fimhisto: [
                r(23688046, 164170342, 123, 13696807788196221834),
                r(23678676, 148691100, 107, 13696807788196221834),
            ],
            fimgbin2: [
                r(8127458, 72354511, 85, 4413444860717924147),
                r(8190307, 132736098, 105, 4413444860717924147),
            ],
            fimgbin4: [
                r(6540695, 60168784, 85, 5586134477067653899),
                r(6569544, 98595098, 88, 5586134477067653899),
            ],
            fimgbin3: [
                r(6993893, 60463843, 85, 6065246599227460122),
                r(7032742, 130718858, 93, 6065246599227460122),
            ],
        },
        Golden {
            image: "f64",
            min: 85.0685439313425,
            max: 4826.12396982121,
            histogram: [
                50760, 0, 0, 10, 2, 1, 2, 1, 3, 0, 3, 2, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1,
            ],
            fimhisto: [
                r(23654848, 204853633, 140, 3906506499421905508),
                r(23622809, 167306159, 110, 3906506499421905508),
            ],
            fimgbin2: [
                r(7300836, 61623645, 86, 5834646729072665081),
                r(7365687, 121670209, 107, 422935665063160093),
            ],
            fimgbin4: [
                r(5957577, 60703432, 86, 93181415239684762),
                r(5982428, 71015079, 87, 16656895982653088738),
            ],
            fimgbin3: [
                r(6342893, 60963732, 86, 17784926689782962990),
                r(6381744, 120561809, 94, 17965182619993311293),
            ],
        },
        Golden {
            image: "constant",
            min: 7.0,
            max: 7.0,
            histogram: [
                21033, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            ],
            fimhisto: [
                r(5122760, 19026253, 7, 4539801497813980524),
                r(5143782, 19047275, 7, 4539801497813980524),
            ],
            fimgbin2: [
                r(1775986, 15679479, 7, 14835124769921038985),
                r(1794327, 21457924, 8, 14835124769921038985),
            ],
            fimgbin4: [
                r(1429187, 15332680, 7, 3511854411664459930),
                r(1445528, 15349021, 7, 3511854411664459930),
            ],
            fimgbin3: [
                r(1537339, 15440832, 7, 5224200855373917360),
                r(1553680, 15457173, 7, 5224200855373917360),
            ],
        },
        Golden {
            image: "specials",
            min: 0.0,
            max: 0.0,
            histogram: [
                7667, 0, 0, 22, 0, 0, 22, 0, 0, 23, 0, 0, 22, 0, 22, 0, 0, 23, 0, 0, 19, 0, 0,
                26551,
            ],
            fimhisto: [
                r(8174678, 25853981, 20, 16579957285681785948),
                r(8195966, 25875269, 20, 16579957285681785948),
            ],
            fimgbin2: [
                r(2818881, 20737900, 20, 13619964486865518660),
                r(2847185, 36388880, 23, 13619964486865518660),
            ],
            fimgbin4: [
                r(2270583, 20441965, 20, 2317483753625277781),
                r(2292887, 19919201, 20, 2317483753625277781),
            ],
            fimgbin3: [
                r(2451721, 20545280, 20, 7870367270613508156),
                r(2474025, 19974789, 20, 7870367270613508156),
            ],
        },
        Golden {
            image: "i16-sweep",
            min: -32768.0,
            max: 32767.0,
            histogram: [
                1682, 3365, 3362, 3363, 3364, 3363, 3363, 3363, 3364, 3361, 3365, 3362, 3364, 3365,
                3362, 3364, 3364, 3363, 3363, 3364, 3363, 3362, 3365, 1681,
            ],
            fimhisto: [
                r(9320254, 27187257, 24, 11284858198904744042),
                r(9341550, 27208553, 24, 11284858198904744042),
            ],
            fimgbin2: [
                r(4600354, 21891206, 24, 5743570075421719704),
                r(4630663, 37466554, 28, 5743570075421719704),
            ],
            fimgbin4: [
                r(3417229, 21211026, 24, 306145392186011821),
                r(3439538, 20376421, 24, 306145392186011821),
            ],
            fimgbin3: [
                r(3760904, 21396408, 24, 711838478983669306),
                r(3785213, 24123568, 25, 711838478983669306),
            ],
        },
    ];
    for want in golden {
        let got = measure(want.image);
        // As bits, so that a -0.0 or a NaN cannot pass for 0.0.
        assert_eq!(
            (got.min.to_bits(), got.max.to_bits()),
            (want.min.to_bits(), want.max.to_bits()),
            "{}: range {:?}..{:?}",
            want.image,
            got.min,
            got.max
        );
        assert_eq!(got, want);
    }
}
