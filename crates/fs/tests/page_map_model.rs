//! Differential test for the run-length layout map: seeded `append_run`,
//! `remap_run` and `clear` sequences against a plain per-page model, with
//! the map's runs checked after every step against the maximal runs the
//! model's pages fold into. Devices and sectors are drawn so that appends
//! and remaps often continue a neighbouring run (and must merge into it),
//! often do not, and sometimes put a file back where it was; the map must
//! stay one inline run until a second run appears and come back to one
//! when a remap heals the break.
//!
//! Runs under the in-repo `check` harness; cases via `SLEDS_CHECK_CASES`.

use sleds_fs::{DeviceId, LayoutRun, PageMap, PagePlace, SECTORS_PER_PAGE};
use sleds_sim_core::{check, DetRng, Pages, Sectors};

/// The maximal device-contiguous runs of a per-page layout.
fn runs_of(model: &[PagePlace]) -> Vec<LayoutRun> {
    let mut runs: Vec<LayoutRun> = Vec::new();
    for (page, place) in (0u64..).zip(model) {
        if let Some(last) = runs.last_mut() {
            let next = last.sector.get() + last.pages.get() * SECTORS_PER_PAGE;
            if last.dev == place.dev && next == place.sector.get() {
                last.pages = Pages::new(last.pages.get() + 1);
                continue;
            }
        }
        runs.push(LayoutRun {
            start_page: Pages::new(page),
            pages: Pages::new(1),
            dev: place.dev,
            sector: place.sector,
        });
    }
    runs
}

/// A device and first sector: one of two devices, on a coarse grid so that
/// a drawn place often continues the run before it by chance too.
fn place(rng: &mut DetRng) -> (DeviceId, Sectors) {
    let dev = DeviceId(rng.range_usize(0, 2));
    (
        dev,
        Sectors::new(rng.range_u64(0, 8) * 2 * SECTORS_PER_PAGE),
    )
}

/// The pages `n` pages from `sector` on `dev` occupy, one place each.
fn spread(dev: DeviceId, sector: Sectors, n: u64) -> impl Iterator<Item = PagePlace> {
    (0..n).map(move |i| PagePlace {
        dev,
        sector: Sectors::new(sector.get() + i * SECTORS_PER_PAGE),
    })
}

fn check_against(map: &PageMap, model: &[PagePlace], rng: &mut DetRng, at: &str) {
    let want = runs_of(model);
    assert_eq!(map.runs(), want.as_slice(), "runs after {at}");
    let n = model.len() as u64;
    assert_eq!(map.page_count(), Pages::new(n), "page_count after {at}");
    assert_eq!(map.is_empty(), model.is_empty(), "is_empty after {at}");
    for page in 0..n + 2 {
        let p = Pages::new(page);
        let got = map.place_of(p);
        assert_eq!(
            got.as_ref(),
            model.get(page as usize),
            "place_of({page}) after {at}"
        );
        let end = want.iter().find(|r| r.start_page <= p && p < r.end_page());
        assert_eq!(
            map.contiguous_end(p),
            end.map(LayoutRun::end_page),
            "contiguous_end({page}) after {at}"
        );
    }
    // A random window, clipped, tiles the model's pages inside it.
    let first = rng.range_u64(0, n + 2);
    let last = rng.range_u64(0, n + 2);
    let clipped: Vec<PagePlace> = map
        .runs_in(Pages::new(first), Pages::new(last))
        .flat_map(|r| spread(r.dev, r.sector, r.pages.get()))
        .collect();
    let window = if first <= last {
        &model[(first as usize).min(model.len())..((last + 1) as usize).min(model.len())]
    } else {
        &[]
    };
    assert_eq!(clipped, window, "runs_in({first}, {last}) after {at}");
}

#[test]
fn page_map_matches_a_per_page_model() {
    check::run("page_map_matches_a_per_page_model", |rng| {
        let mut map = PageMap::new();
        let mut model: Vec<PagePlace> = Vec::new();
        for step in 0..rng.range_usize(1, 80) {
            let gen = map.generation();
            let at;
            match rng.range_u64(0, 10) {
                0..=5 => {
                    let n = rng.range_u64(0, 5);
                    let (dev, sector) = match model.last() {
                        // Continue the last page on its device half the time.
                        Some(p) if rng.chance(0.5) => {
                            (p.dev, Sectors::new(p.sector.get() + SECTORS_PER_PAGE))
                        }
                        _ => place(rng),
                    };
                    at = format!("step {step}: append_run({dev:?}, {sector:?}, {n})");
                    map.append_run(dev, sector, Pages::new(n));
                    model.extend(spread(dev, sector, n));
                    assert!(n == 0 || map.generation() > gen, "{at} versions the map");
                }
                6..=8 if !model.is_empty() => {
                    let len = model.len() as u64;
                    let start = rng.range_u64(0, len);
                    let n = rng.range_u64(1, len - start + 1);
                    let (dev, sector) = if rng.chance(0.3) {
                        // Back where the first remapped page sat before.
                        let p = model[start as usize];
                        (p.dev, p.sector)
                    } else {
                        place(rng)
                    };
                    at = format!("step {step}: remap_run({start}, {n}, {dev:?}, {sector:?})");
                    map.remap_run(Pages::new(start), Pages::new(n), dev, sector);
                    let new: Vec<PagePlace> = spread(dev, sector, n).collect();
                    model.splice(start as usize..(start + n) as usize, new);
                    assert!(map.generation() > gen, "{at} versions the map");
                }
                _ => {
                    at = format!("step {step}: clear");
                    map.clear();
                    model.clear();
                    assert!(map.generation() > gen, "{at} versions the map");
                }
            }
            check_against(&map, &model, rng, &at);
        }
    });
}
