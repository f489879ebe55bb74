//! Differential tests for the id-keyed tables: seeded op sequences against
//! a `BTreeMap` reference, which is the structure each table replaced and
//! the behaviour (answers *and* iteration order) it must keep.
//!
//! Runs under the in-repo `check` harness; cases via `SLEDS_CHECK_CASES`.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use sleds_sim_core::{check, DetRng, IdTable, IdWindow};

/// The map surface both tables share with the reference.
trait IdMap {
    fn get(&self, id: u64) -> Option<&u32>;
    fn get_mut(&mut self, id: u64) -> Option<&mut u32>;
    fn insert(&mut self, id: u64, value: u32) -> Option<u32>;
    fn remove(&mut self, id: u64) -> Option<u32>;
    fn len(&self) -> usize;
    fn entries(&self) -> Vec<(u64, u32)>;
}

macro_rules! id_map {
    ($t:ty) => {
        impl IdMap for $t {
            fn get(&self, id: u64) -> Option<&u32> {
                <$t>::get(self, id)
            }
            fn get_mut(&mut self, id: u64) -> Option<&mut u32> {
                <$t>::get_mut(self, id)
            }
            fn insert(&mut self, id: u64, value: u32) -> Option<u32> {
                <$t>::insert(self, id, value)
            }
            fn remove(&mut self, id: u64) -> Option<u32> {
                <$t>::remove(self, id)
            }
            fn len(&self) -> usize {
                <$t>::len(self)
            }
            fn entries(&self) -> Vec<(u64, u32)> {
                self.iter().map(|(id, v)| (id, *v)).collect()
            }
        }
    };
}
id_map!(IdTable<u32>);
id_map!(IdWindow<u32>);

/// A seeded bug: a window whose base slides one slot too far, so removing
/// the oldest live id also loses the next one.
#[derive(Default)]
struct BaseOffByOne(IdWindow<u32>);

impl IdMap for BaseOffByOne {
    fn get(&self, id: u64) -> Option<&u32> {
        self.0.get(id)
    }
    fn get_mut(&mut self, id: u64) -> Option<&mut u32> {
        self.0.get_mut(id)
    }
    fn insert(&mut self, id: u64, value: u32) -> Option<u32> {
        self.0.insert(id, value)
    }
    fn remove(&mut self, id: u64) -> Option<u32> {
        let oldest = |w: &IdWindow<u32>| w.iter().next().map(|(id, _)| id);
        let was_oldest = oldest(&self.0) == Some(id);
        let old = self.0.remove(id);
        if let (true, Some(next)) = (was_oldest, oldest(&self.0)) {
            self.0.remove(next);
        }
        old
    }
    fn len(&self) -> usize {
        self.0.len()
    }
    fn entries(&self) -> Vec<(u64, u32)> {
        self.0.entries()
    }
}

/// Ids worth probing: 0, a small dense range, and `u64::MAX` (read-only —
/// a dense table cannot hold it).
fn probe_id(rng: &mut DetRng) -> u64 {
    match rng.range_u64(0, 10) {
        0 => 0,
        1 => u64::MAX,
        _ => rng.range_u64(0, 48),
    }
}

/// Random insert / get / get_mut / remove / iterate against the reference.
/// Inserts stay in `0..48`, so removed ids are re-inserted often.
fn differential(map: &mut impl IdMap, rng: &mut DetRng) {
    let mut model: BTreeMap<u64, u32> = BTreeMap::new();
    for step in 0..rng.range_usize(1, 400) {
        let id = probe_id(rng);
        match rng.range_u64(0, 5) {
            0 | 1 if id != u64::MAX => {
                let v = step as u32;
                assert_eq!(map.insert(id, v), model.insert(id, v), "insert({id})");
            }
            2 => {
                assert_eq!(map.remove(id), model.remove(&id), "remove({id})");
                assert_eq!(map.get(id), None, "get({id}) after remove");
            }
            3 => {
                if let Some(v) = map.get_mut(id) {
                    *v += 1000;
                }
                if let Some(v) = model.get_mut(&id) {
                    *v += 1000;
                }
            }
            _ => {}
        }
        assert_eq!(map.get(id), model.get(&id), "get({id})");
        assert_eq!(map.get(u64::MAX), None);
        assert_eq!(map.len(), model.len());
        let want: Vec<(u64, u32)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(map.entries(), want, "ascending iteration");
    }
}

#[test]
fn id_table_matches_btreemap() {
    check::run("id_table_matches_btreemap", |rng| {
        differential(&mut IdTable::<u32>::new(), rng);
    });
}

#[test]
fn id_window_matches_btreemap() {
    check::run("id_window_matches_btreemap", |rng| {
        differential(&mut IdWindow::<u32>::new(), rng);
    });
}

#[test]
fn the_differential_catches_an_off_by_one_window_base() {
    let caught = catch_unwind(AssertUnwindSafe(|| {
        check::run(
            "the_differential_catches_an_off_by_one_window_base",
            |rng| {
                differential(&mut BaseOffByOne::default(), rng);
            },
        );
    }));
    assert!(caught.is_err(), "the seeded bug must fail the differential");
}

/// Descriptor-shaped use: ids issued in increasing order, one low id held
/// open across 10,000 later open/close pairs. Answers match the reference
/// throughout, and the footprint is what the type's doc promises: never
/// more slots than the span from the oldest live id to the newest issued,
/// and back to the live ids alone once the low id goes.
#[test]
fn id_window_footprint_follows_the_oldest_live_id() {
    let mut w: IdWindow<u32> = IdWindow::new();
    let mut model: BTreeMap<u64, u32> = BTreeMap::new();
    let held = 3u64;
    w.insert(held, 0);
    model.insert(held, 0);
    let mut next = held + 1;
    for i in 0..10_000u32 {
        w.insert(next, i);
        model.insert(next, i);
        assert_eq!(w.get(next), Some(&i));
        assert_eq!(w.remove(next), model.remove(&next));
        assert_eq!(w.get(next), None);
        next += 1;
        assert_eq!(w.len(), 1);
        assert!(
            w.span() as u64 <= next - held,
            "span {} at {next}",
            w.span()
        );
    }
    assert_eq!(w.get(held), Some(&0));

    // Two newer ids stay open; closing the old one slides the window to them.
    for _ in 0..2 {
        w.insert(next, 7);
        model.insert(next, 7);
        next += 1;
    }
    assert_eq!(w.remove(held), model.remove(&held));
    assert_eq!(w.span(), 2, "the window holds only the live tail");
    assert_eq!(w.get(held), None, "an id behind the window is absent");
    assert_eq!(w.get(held - 1), None);
    let want: Vec<(u64, u32)> = model.iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(w.iter().map(|(k, v)| (k, *v)).collect::<Vec<_>>(), want);

    // With nothing long-lived, issuing ids costs no memory at all.
    for (id, _) in want {
        w.remove(id);
    }
    for i in 0..10_000u32 {
        w.insert(next, i);
        assert_eq!(w.span(), 1);
        w.remove(next);
        assert_eq!(w.span(), 0);
        next += 1;
    }
}
