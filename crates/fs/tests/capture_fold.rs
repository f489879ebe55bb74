//! The capture payload fold, against its specification: `fold_bytes` must
//! equal the reference below (the one DESIGN §5j prints) on every input,
//! tell any two inputs one bit apart, and keep the values schema v3 froze.

use sleds_fs::fold_bytes;
use sleds_sim_core::DetRng;

/// The reference DESIGN §5j prints: word `i` into lane `i % 4`, lanes
/// combined, tail bytes, then the length.
fn fold_reference(data: &[u8]) -> u64 {
    const MUL: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut lane: [u64; 4] = [
        0x243f_6a88_85a3_08d3,
        0x1319_8a2e_0370_7344,
        0xa409_3822_299f_31d0,
        0x082e_fa98_ec4e_6c89,
    ];
    let (words, tail) = data.split_at(data.len() / 8 * 8);
    for (i, w) in words.chunks(8).enumerate() {
        let w = u64::from_le_bytes(w.try_into().unwrap());
        lane[i % 4] = (lane[i % 4] ^ w).wrapping_mul(MUL).rotate_left(29);
    }
    let mut h =
        lane[0] ^ lane[1].rotate_left(17) ^ lane[2].rotate_left(34) ^ lane[3].rotate_left(51);
    for &b in tail {
        h = (h ^ u64::from(b)).wrapping_mul(MUL);
    }
    h ^= data.len() as u64;
    h = (h ^ (h >> 32)).wrapping_mul(MUL);
    h ^ (h >> 29)
}

fn seeded(len: usize, seed: u64) -> Vec<u8> {
    let mut buf = vec![0u8; len];
    DetRng::new(seed).fill_bytes(&mut buf);
    buf
}

#[test]
fn equals_the_reference_at_every_short_length_and_alignment() {
    let buf = seeded(257 + 8, 0xF01D);
    for start in 0..8 {
        for len in 0..=257 {
            let data = &buf[start..start + len];
            assert_eq!(
                fold_bytes(data),
                fold_reference(data),
                "start {start}, len {len}"
            );
        }
    }
}

#[test]
fn equals_the_reference_at_seeded_lengths_up_to_4_mib() {
    let buf = seeded(4 << 20, 0xF01D_0B16);
    let mut rng = DetRng::new(0x1E26);
    let mut lens = vec![buf.len(), buf.len() - 1, 4096, 65_536, (2 << 20) + 7];
    lens.extend((0..40).map(|_| rng.range_usize(0, buf.len())));
    for len in lens {
        let start = rng.range_usize(0, buf.len() - len + 1);
        let data = &buf[start..start + len];
        assert_eq!(
            fold_bytes(data),
            fold_reference(data),
            "start {start}, len {len}"
        );
    }
}

#[test]
fn any_single_bit_flip_changes_the_fold() {
    // Every bit of every position class: block words, leftover words, tail.
    for len in [1, 7, 8, 31, 32, 33, 71, 257] {
        let mut data = seeded(len, len as u64);
        let want = fold_bytes(&data);
        for bit in 0..len * 8 {
            data[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(fold_bytes(&data), want, "len {len}, bit {bit}");
            data[bit / 8] ^= 1 << (bit % 8);
        }
    }
    // Seeded positions of a page-cache-sized payload.
    let mut data = seeded(64 << 10, 64);
    let want = fold_bytes(&data);
    let mut rng = DetRng::new(0xB17);
    for _ in 0..2000 {
        let bit = rng.range_usize(0, data.len() * 8);
        data[bit / 8] ^= 1 << (bit % 8);
        assert_ne!(fold_bytes(&data), want, "bit {bit}");
        data[bit / 8] ^= 1 << (bit % 8);
    }
}

#[test]
fn zero_runs_of_different_lengths_fold_differently() {
    // A sparse file reads back as zeros; its length is all that tells two
    // reads apart.
    let zeros = vec![0u8; 8192 + 64];
    let mut folds: Vec<u64> = (0..=zeros.len()).map(|n| fold_bytes(&zeros[..n])).collect();
    folds.sort_unstable();
    folds.dedup();
    assert_eq!(folds.len(), zeros.len() + 1);
}

#[test]
fn schema_v3_vectors_are_frozen() {
    // Changing any of these changes every `data_fold` in every committed
    // capture: bump `CAPTURE_SCHEMA` and regenerate them instead.
    let ramp: Vec<u8> = (0..33).collect();
    for (data, want) in [
        (&b""[..], 0xb830_4fad_77d4_d6fb_u64),
        (&b"a"[..], 0xb1ed_ef88_de60_bbf4),
        (&[0u8; 32][..], 0xc2ab_d29a_c593_4fd8),
        (&[0u8; 4096][..], 0xd364_6d4f_9ccb_d1de),
        (&ramp[..], 0xb219_05ef_dc49_a64d),
    ] {
        assert_eq!(fold_bytes(data), want, "{} bytes", data.len());
    }
}
