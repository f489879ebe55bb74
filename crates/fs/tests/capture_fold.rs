//! The capture payload fold, against its specification: `PayloadFold` —
//! and `fold_bytes`, its one-piece form — must equal the reference below
//! (the one DESIGN §5j prints) on every input however the input is cut
//! into pieces, tell any two inputs one bit apart, and keep the values
//! schema v3 froze.

use sleds_devices::DiskDevice;
use sleds_fs::{
    fold_bytes, Fd, Kernel, OpenFlags, PayloadFold, SubmissionRing, Syscall, SyscallRet, Whence,
};
use sleds_sim_core::{DetRng, Errno};

/// The reference DESIGN §5j prints: word `i` into lane `i % 4`, lanes
/// combined, tail bytes, then the length.
fn fold_reference(data: &[u8]) -> u64 {
    fold_reference_mixing(data, data.len() as u64)
}

/// The reference with the word mixed in as "the length" left to the
/// caller: `data.len()` is the specification, anything else a flaw.
fn fold_reference_mixing(data: &[u8], length_word: u64) -> u64 {
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
    h ^= length_word;
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

/// `data` fed to a [`PayloadFold`] in the given pieces.
fn fold_pieces(pieces: &[&[u8]]) -> u64 {
    let mut fold = PayloadFold::new();
    for piece in pieces {
        fold.feed(piece);
    }
    fold.finish()
}

/// Cuts `data` at seeded places chosen to be awkward: empty pieces,
/// one-byte pieces, pieces that end 1–31 bytes off a 32-byte block edge,
/// and the occasional long stretch.
fn awkward_pieces<'a>(mut data: &'a [u8], rng: &mut DetRng) -> Vec<&'a [u8]> {
    let mut pieces = Vec::new();
    let mut fed = 0;
    while !data.is_empty() {
        let want = match rng.range_u64(0, 5) {
            0 => 0,
            1 => 1,
            // To 1–31 bytes past one of the next few block edges.
            2 | 3 => (32 - fed % 32) + 32 * rng.range_usize(0, 4) + rng.range_usize(1, 32),
            _ => rng.range_usize(0, 5000),
        };
        let (piece, rest) = data.split_at(want.min(data.len()));
        pieces.push(piece);
        fed += piece.len();
        data = rest;
    }
    // A trailing empty piece must change nothing either.
    pieces.push(data);
    pieces
}

/// Checks a streaming fold against the reference: every length 0..=4 KiB
/// plus 64 KiB and 2 MiB + 13, each in one piece and in awkward pieces.
/// `Err` names the first input that disagrees.
fn check_streaming(fold: impl Fn(&[&[u8]]) -> u64) -> Result<(), String> {
    let buf = seeded((2 << 20) + 13, 0x57EA);
    let mut rng = DetRng::new(0x91EC);
    for len in (0..=4096).chain([64 << 10, buf.len()]) {
        let data = &buf[buf.len() - len..];
        let want = fold_reference(data);
        if fold(&[data]) != want {
            return Err(format!("len {len}, one piece"));
        }
        for _ in 0..3 {
            let pieces = awkward_pieces(data, &mut rng);
            if fold(&pieces) != want {
                let cuts: Vec<usize> = pieces.iter().map(|p| p.len()).collect();
                return Err(format!("len {len}, pieces {cuts:?}"));
            }
        }
    }
    Ok(())
}

#[test]
fn the_streaming_fold_equals_the_reference_however_the_payload_is_cut() {
    assert_eq!(check_streaming(fold_pieces), Ok(()));
}

/// Two ways to stream a fold wrongly that a one-piece test never sees:
/// forgetting the bytes left over at a piece edge, and finishing the
/// length into the result per piece instead of once. Each is a reference
/// fold over *what the flawed streamer would have seen*, and the check
/// above must reject both.
#[test]
fn the_streaming_check_catches_a_dropped_carry_and_a_per_piece_length() {
    let drops_the_carry = |pieces: &[&[u8]]| {
        // Bytes that do not fill a 32-byte block by the end of a piece
        // never reach the lanes.
        let kept: Vec<u8> = pieces
            .iter()
            .flat_map(|p| &p[..p.len() / 32 * 32])
            .copied()
            .collect();
        fold_reference(&kept)
    };
    let mixes_the_length_per_piece = |pieces: &[&[u8]]| {
        let each = pieces.iter().fold(0, |mixed, p| mixed ^ p.len() as u64);
        fold_reference_mixing(&pieces.concat(), each)
    };
    let dropped = check_streaming(drops_the_carry);
    assert!(dropped.is_err(), "a dropped carry must be caught");
    let mixed = check_streaming(mixes_the_length_per_piece);
    assert!(
        mixed.is_err_and(|at| at.contains("pieces")),
        "a per-piece length must be caught, and only by a cut payload"
    );
}

/// What a captured `read`/`pread` recorded about its payload, for every
/// op of the capture that is one: `(data_len, data_fold)`.
fn recorded_reads(k: &mut Kernel) -> Vec<(u64, u64)> {
    let capture = k.stop_capture().unwrap();
    assert!(capture.complete, "{:?}", capture.incomplete_reason);
    capture
        .ops
        .iter()
        .filter(|op| matches!(op.call, Syscall::Read { .. } | Syscall::Pread { .. }))
        .map(|op| (op.outcome.data_len, op.outcome.data_fold))
        .collect()
}

/// The kernel folds a captured read's payload while it builds it — stored
/// bytes copied, the hole behind them zero-filled — and never in the same
/// cut twice: reads that end inside the stored prefix, straddle its edge
/// with 1 to 4,097 bytes on either side, lie wholly in the hole, run into
/// end-of-file, return nothing, or fail. Every op must record the length
/// and `fold_bytes` of exactly the bytes its caller got (0/0 on failure).
#[test]
fn captured_reads_record_the_fold_of_the_bytes_they_returned() {
    const PREFIX: u64 = 9_000;
    const SIZE: u64 = 30_011;
    let mut k = Kernel::table2();
    k.mkdir("/d").unwrap();
    k.mount_disk("/d", DiskDevice::table2_disk("hda")).unwrap();
    k.install_sparse_file("/d/s", SIZE).unwrap();
    let fd = k.open("/d/s", OpenFlags::RDWR).unwrap();
    let prefix = seeded(PREFIX as usize, 0x5A8);
    k.write(fd, &prefix).unwrap();
    let mut image = prefix.clone();
    image.resize(SIZE as usize, 0);

    // Byte counts that sit on and either side of a word, a block, the
    // zero-fill piece and the copy piece.
    let edges = [1, 7, 8, 9, 31, 32, 33, 1023, 1024, 1025, 4095, 4096, 4097];
    let mut reads: Vec<(u64, usize)> = Vec::new();
    for stored in edges {
        // Ends inside the prefix; then `stored` bytes of it and `hole`
        // bytes past it.
        reads.push((PREFIX - stored - 40, stored as usize));
        for hole in edges {
            reads.push((PREFIX - stored, (stored + hole) as usize));
        }
        // Wholly in the hole, from an unaligned start.
        reads.push((PREFIX + stored, stored as usize));
    }
    // Short at end-of-file, empty at and past it, empty by request.
    reads.extend([(SIZE - 10, 100), (SIZE - 4097, 1 << 20), (0, usize::MAX)]);
    reads.extend([(SIZE, 10), (SIZE + 5, 10), (3, 0)]);

    k.start_capture(4096);
    let mut want = Vec::new();
    for &(pos, len) in &reads {
        let got = k.pread(fd, pos, len).unwrap();
        let start = pos.min(SIZE);
        let end = pos.saturating_add(len as u64).clamp(start, SIZE);
        assert_eq!(got, image[start as usize..end as usize], "{pos}+{len}");
        want.push((got.len() as u64, fold_bytes(&got)));
    }
    // The sequential form shares the path.
    k.lseek(fd, PREFIX as i64 - 33, Whence::Set).unwrap();
    for len in [40, 4096, 1 << 20, 7] {
        let got = k.read(fd, len).unwrap();
        want.push((got.len() as u64, fold_bytes(&got)));
    }
    // A failure after a good read records nothing of that read.
    assert_eq!(k.pread(Fd(999), 0, 64).unwrap_err().errno, Errno::Ebadf);
    want.push((0, 0));
    // A ring-submitted read is not folded and leaves nothing behind: the
    // trapped read after it, same length, other bytes, records its own.
    let mut ring = SubmissionRing::with_tenant(4, k.active_tenant());
    let (pos, len) = (100, 500);
    ring.push(1, Syscall::Pread { fd, pos, len }).unwrap();
    k.ring_enter(&mut ring).unwrap();
    let done = k.ring_reap(&mut ring);
    let Ok(SyscallRet::Bytes(ringed)) = &done[0].result else {
        panic!("ring pread failed: {:?}", done[0].result);
    };
    let trapped = k.pread(fd, PREFIX - 1, len).unwrap();
    assert_ne!(fold_bytes(ringed), fold_bytes(&trapped));
    want.push((len as u64, fold_bytes(&trapped)));

    assert_eq!(recorded_reads(&mut k), want);
}

/// A read that lies wholly in a hole is never built: the recorder takes its
/// digest from a table of the lanes after `k` zero pages, grown as far as
/// the longest such read so far. Whatever order the table grew in, and in
/// a second recorder on the same kernel, every such read must record the
/// reference fold of that many zeros — at page-aligned and unaligned
/// offsets, below, at and past the length up to which no buffer is made —
/// and reads that do find stored bytes must record what they did before.
#[test]
fn captured_hole_reads_record_the_fold_of_that_many_zeros() {
    const HOLE: u64 = 5 << 20;
    const STORED: usize = 6_000;
    let sizes = [
        1,
        31,
        32,
        4095,
        4096,
        4097,
        16 << 10,
        (64 << 10) + 5,
        2 << 20,
        (2 << 20) + 1,
    ];
    let mut k = Kernel::table2();
    k.mkdir("/d").unwrap();
    k.mount_disk("/d", DiskDevice::table2_disk("hda")).unwrap();
    k.install_sparse_file("/d/hole", HOLE).unwrap();
    k.install_sparse_file("/d/mixed", 3 * STORED as u64)
        .unwrap();
    let mixed = k.open("/d/mixed", OpenFlags::RDWR).unwrap();
    let stored = seeded(STORED, 0x570);
    k.write(mixed, &stored).unwrap();
    let mut image = stored.clone();
    image.resize(3 * STORED, 0);
    let hole = k.open("/d/hole", OpenFlags::RDONLY).unwrap();
    let zeros = vec![0u8; (2 << 20) + 1];

    let largest_first: Vec<usize> = sizes.iter().rev().copied().collect();
    for order in [&sizes[..], &largest_first[..]] {
        k.start_capture(256);
        let mut want = Vec::new();
        for &n in order {
            for pos in [0, 3 * 4096, 4097 + n as u64 % 13] {
                let got = k.pread(hole, pos, n).unwrap();
                assert_eq!(got, zeros[..n], "{n} bytes at {pos}");
                want.push((n as u64, fold_reference(&zeros[..n])));
            }
            // All stored, then a stored prefix with a hole tail.
            for (pos, len) in [(7, n.min(STORED - 7)), (STORED - 33, n.min(STORED))] {
                let got = k.pread(mixed, pos as u64, len).unwrap();
                assert_eq!(got, image[pos..pos + len], "{len} bytes at {pos}");
                want.push((len as u64, fold_reference(&image[pos..pos + len])));
            }
        }
        // Short at end-of-file: the table is indexed by bytes returned.
        let got = k.pread(hole, HOLE - 4097, 1 << 20).unwrap();
        want.push((4097, fold_reference(&zeros[..4097])));
        assert_eq!(got.len(), 4097);
        assert_eq!(recorded_reads(&mut k), want, "sizes {order:?}");
    }
}
