//! Differential test for the directory index: seeded insert / get / remove
//! sequences against the `BTreeMap<String, Ino>` a directory used to be,
//! checking every answer, the length and the whole iteration order after
//! each step. Names are drawn to hit the index's edges: shared 8-byte
//! prefixes, names shorter than the key, trailing NULs (which pad the key
//! the same way a short name does), multi-byte UTF-8 cut by the key's
//! eighth byte, the empty name, and names of every length from 0 to 20
//! bytes around one stem.
//!
//! Runs under the in-repo `check` harness; cases via `SLEDS_CHECK_CASES`.

use std::collections::BTreeMap;

use sleds_fs::inode::Dir;
use sleds_fs::Ino;
use sleds_sim_core::{check, DetRng};

/// Names chosen for their keys: each group shares its first eight bytes,
/// or differs from another only in trailing NULs.
const EDGES: &[&str] = &[
    "",
    "\0",
    "a",
    "a\0",
    "a\0\0",
    "ab",
    "f001",
    "f002",
    "abcdefgh",
    "abcdefgh\0",
    "abcdefghi",
    "abcdefghij",
    "abcdefgha",
    "abcdefg",
    "abcdefg\0",
    "datafile_0001",
    "datafile_0002",
    "datafile_0010",
    "datafile",
    "datafilf",
    "é",
    "é\0",
    "abcdefg日本",
    "abcdefg日",
    "abcdefgé",
    "日本語のファイル名",
    "日本語のファイル",
    "\u{7f}\u{7f}\u{7f}\u{7f}\u{7f}\u{7f}\u{7f}\u{7f}",
    "ÿÿÿÿ",
];

/// A name from the edge list; or built from a few pieces whose bytes
/// collide often in the first eight; or 0–20 bytes long, a cut of one
/// eight-byte stem and then a tail that sometimes ends in NULs, so names
/// a slot holds inline (up to eight bytes, no trailing NUL) and names it
/// keeps on the heap meet under one key.
fn name(rng: &mut DetRng) -> String {
    const PIECES: &[&str] = &["a", "b", "\0", "é", "日", "abcdefgh", "z"];
    const TAIL: &[char] = &['a', 'b', '\0'];
    match rng.range_u64(0, 3) {
        0 => EDGES[rng.range_usize(0, EDGES.len())].to_string(),
        1 => (0..rng.range_usize(0, 6))
            .map(|_| PIECES[rng.range_usize(0, PIECES.len())])
            .collect(),
        _ => {
            let stem = &"abcdefgh"[..rng.range_usize(0, 9)];
            let tail: String = (0..rng.range_usize(0, 13))
                .map(|_| TAIL[rng.range_usize(0, TAIL.len())])
                .collect();
            stem.to_string() + &tail
        }
    }
}

fn entries(dir: &Dir) -> Vec<(String, Ino)> {
    dir.iter().map(|(n, ino)| (n.to_string(), ino)).collect()
}

fn check_against(dir: &Dir, model: &BTreeMap<String, Ino>, at: &str) {
    assert_eq!(dir.len(), model.len(), "len after {at}");
    assert_eq!(dir.is_empty(), model.is_empty(), "is_empty after {at}");
    let want: Vec<(String, Ino)> = model.iter().map(|(n, &i)| (n.clone(), i)).collect();
    assert_eq!(entries(dir), want, "byte-order iteration after {at}");
    for (n, &i) in model {
        assert_eq!(dir.get(n), Some(i), "get({n:?}) after {at}");
    }
}

#[test]
fn dir_matches_a_btreemap_of_strings() {
    check::run("dir_matches_a_btreemap_of_strings", |rng| {
        let mut dir = Dir::new();
        let mut model: BTreeMap<String, Ino> = BTreeMap::new();
        for step in 0..rng.range_usize(1, 300) {
            let n = name(rng);
            let at = format!("step {step} on {n:?}");
            match rng.range_u64(0, 3) {
                0 => {
                    let ino = Ino(step as u64);
                    assert_eq!(dir.insert(&n, ino), model.insert(n.clone(), ino), "{at}");
                }
                1 => assert_eq!(dir.remove(&n), model.remove(&n), "{at}"),
                _ => {}
            }
            assert_eq!(dir.get(&n), model.get(&n).copied(), "get {at}");
            check_against(&dir, &model, &at);
        }
    });
}

#[test]
fn emptying_a_shared_slot_leaves_its_neighbours() {
    let mut dir = Dir::new();
    let mut model: BTreeMap<String, Ino> = BTreeMap::new();
    let shared = ["datafile_0002", "datafile", "datafile\0", "datafile_0001"];
    let around = ["datafild", "datafilf", "a"];
    for (i, n) in shared.iter().chain(&around).enumerate() {
        assert_eq!(dir.insert(n, Ino(i as u64)), None);
        model.insert(n.to_string(), Ino(i as u64));
    }
    check_against(&dir, &model, "filling");
    // Re-linking a name in the shared slot replaces it in place.
    assert_eq!(dir.insert("datafile", Ino(99)), Some(Ino(1)));
    model.insert("datafile".to_string(), Ino(99));
    check_against(&dir, &model, "re-linking");
    for n in shared {
        assert_eq!(dir.remove(n), model.remove(n), "remove({n:?})");
        assert_eq!(dir.remove(n), None, "second remove({n:?})");
        check_against(&dir, &model, n);
    }
    assert_eq!(dir.get("datafile_0001"), None);
    assert_eq!(dir.len(), around.len());
    // The emptied key takes names again.
    assert_eq!(dir.insert("datafile_0003", Ino(7)), None);
    model.insert("datafile_0003".to_string(), Ino(7));
    check_against(&dir, &model, "refilling");
}
