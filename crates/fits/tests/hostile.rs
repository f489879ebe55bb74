//! Hostile FITS headers: every one is refused with a typed `EINVAL`,
//! none panics, overflows or is half-believed.

use sleds_devices::DiskDevice;
use sleds_fits::{FitsHeader, FitsReader, BLOCK_SIZE, CARD_SIZE};
use sleds_fs::{Fd, Kernel, OpenFlags};
use sleds_sim_core::Errno;

/// One header block holding `cards`, END-terminated unless `end` is false.
fn block(cards: &[&str], end: bool) -> Vec<u8> {
    let mut out = Vec::new();
    for text in cards.iter().copied().chain(end.then_some("END")) {
        let mut card = [b' '; CARD_SIZE];
        card[..text.len()].copy_from_slice(text.as_bytes());
        out.extend_from_slice(&card);
    }
    out.resize(BLOCK_SIZE, b' ');
    out
}

fn parsed(cards: &[&str]) -> FitsHeader {
    FitsHeader::parse(&block(cards, true)).unwrap().0
}

#[test]
fn non_ascii_card_is_refused_not_sliced() {
    // Valid UTF-8 whose eighth byte falls inside a two-byte character.
    let err = FitsHeader::parse(&block(&["SIMPLE é="], true)).unwrap_err();
    assert_eq!(err.errno, Errno::Einval);
    assert!(err.context.contains("non-ASCII"), "{err}");
    // And bytes that are not UTF-8 at all.
    let mut raw = block(&["SIMPLE  =                    T"], true);
    raw[3] = 0xff;
    assert_eq!(FitsHeader::parse(&raw).unwrap_err().errno, Errno::Einval);
}

#[test]
fn pixel_count_and_data_bytes_do_not_overflow() {
    let axis = format!("{:<8}= {:>20}", "NAXIS1", 1u64 << 40);
    let h = parsed(&[
        "SIMPLE  =                    T",
        "BITPIX  =                   16",
        "NAXIS   =                    2",
        &axis,
        &axis.replace("NAXIS1", "NAXIS2"),
    ]);
    assert_eq!(h.pixel_count().unwrap_err().errno, Errno::Einval);
    assert_eq!(h.data_bytes().unwrap_err().errno, Errno::Einval);
    // 2^62 pixels are countable; their eight-byte samples are not.
    let h = parsed(&[
        "BITPIX  =                  -64",
        "NAXIS   =                    1",
        &format!("{:<8}= {:>20}", "NAXIS1", 1u64 << 62),
    ]);
    assert_eq!(h.pixel_count().unwrap(), 1 << 62);
    assert_eq!(h.data_bytes().unwrap_err().errno, Errno::Einval);
}

#[test]
fn bitpix_is_not_narrowed_into_range() {
    // 2^32 + 16 must not pass for 16.
    let h = parsed(&["BITPIX  =           4294967312"]);
    let err = h.bitpix().unwrap_err();
    assert_eq!(err.errno, Errno::Einval);
    assert!(err.context.contains("4294967312"), "{err}");
}

#[test]
fn truncated_and_unterminated_headers_are_refused() {
    let whole = block(&["SIMPLE  =                    T"], true);
    // END is there, the rest of its block is not.
    let err = FitsHeader::parse(&whole[..BLOCK_SIZE - 1]).unwrap_err();
    assert_eq!(err.errno, Errno::Einval);
    assert!(err.context.contains("truncated"), "{err}");
    // A full block of cards and no END.
    let err = FitsHeader::parse(&block(&["SIMPLE  =                    T"], false)).unwrap_err();
    assert_eq!(err.errno, Errno::Einval);
    assert!(err.context.contains("END"), "{err}");
}

/// A reader refuses such a file with the same typed error, believes no
/// part of it, and keeps no descriptor on it.
#[test]
fn reader_refuses_hostile_files_and_closes_them() {
    let mut k = Kernel::table3();
    k.mkdir("/d").unwrap();
    k.mount_disk("/d", DiskDevice::table3_disk("hda")).unwrap();
    let huge_axis = format!("{:<8}= {:>20}", "NAXIS1", u64::MAX / 2);
    let files: [(&str, Vec<u8>); 4] = [
        ("non-ascii", block(&["SIMPLE é="], true)),
        ("no-end", block(&["SIMPLE  =                    T"], false)),
        (
            "bad-bitpix",
            block(
                &[
                    "BITPIX  =           4294967312",
                    "NAXIS   =                    0",
                ],
                true,
            ),
        ),
        // Countable, but the data unit would end past the last offset.
        (
            "past-the-end",
            block(
                &[
                    "BITPIX  =                    8",
                    "NAXIS   =                    2",
                    &huge_axis,
                    "NAXIS2  =                    2",
                ],
                true,
            ),
        ),
    ];
    for (name, bytes) in files {
        let path = format!("/d/{name}.fits");
        k.install_file(&path, &bytes).unwrap();
        // Descriptors are handed out in sequence: the reader's is the one
        // after this probe's.
        let probe = k.open(&path, OpenFlags::RDONLY).unwrap();
        k.close(probe).unwrap();
        let err = FitsReader::open(&mut k, &path).unwrap_err();
        assert_eq!(err.errno, Errno::Einval, "{name}: {err}");
        let leaked = k.close(Fd(probe.0 + 1)).err().map(|e| e.errno);
        assert_eq!(leaked, Some(Errno::Ebadf), "{name}: descriptor left open");
    }
}
