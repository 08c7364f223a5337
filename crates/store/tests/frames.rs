//! The frames every store file is made of, each verified with the
//! checksum its magic names.
//!
//! The store writes XXH64 frames: `j2 <xxh64:016x> <payload>` records
//! and the `#iokc-xxh64:` manifest footer. It reads the FNV-1a 64 frames
//! older binaries wrote (`j1` records, `#iokc-crc64:` footers) as before
//! and never writes them. A frame carrying the other checksum is refused.

use iokc_store::journal::{read_journal_vfs, JournalWriter};
use iokc_store::persist::{checksum, render_document, verify_image};
use iokc_store::{DbError, FaultVfs, Vfs};
use std::path::Path;

/// FNV-1a 64, the checksum of the legacy frames.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The reference implementation's XXH64 at seed 0, over every path
/// through it: under one stripe, whole 32-byte stripes, and tails of 8,
/// 4 and single bytes.
#[test]
fn checksum_is_xxh64_at_seed_0() {
    let ramp: Vec<u8> = (0..77).collect();
    let cases: [(&[u8], u64); 5] = [
        (b"", 0xef46_db37_51d8_e999),
        (b"abc", 0x44bc_2cf5_ad77_0999),
        (
            b"0123456789abcdef0123456789abcdef0123",
            0xc425_5ba3_d1af_5461,
        ),
        (
            b"The quick brown fox jumps over the lazy dog",
            0x0b24_2d36_1fda_71bc,
        ),
        (&ramp, 0x93f8_5c1b_6280_ead3),
    ];
    for (bytes, want) in cases {
        assert_eq!(checksum(bytes), want, "{} bytes", bytes.len());
    }
}

#[test]
fn a_footer_is_verified_with_the_checksum_its_marker_names() {
    let body = r#"{"gen":1}"#;
    let (xxh64, fnv) = (checksum(body.as_bytes()), fnv1a(body.as_bytes()));
    let framed = |marker: &str, hash: u64| format!("{body}\n#iokc-{marker}:{hash:016x}\n");
    assert_eq!(render_document(body.to_owned()), framed("xxh64", xxh64));
    for (marker, hash) in [("xxh64", xxh64), ("crc64", fnv)] {
        let image = framed(marker, hash);
        let verified = verify_image(&image).expect("verifies");
        assert_eq!(verified, (body, hash), "{marker}");
    }
    for (marker, hash) in [("xxh64", fnv), ("crc64", xxh64)] {
        let crossed = framed(marker, hash);
        let refused = verify_image(&crossed);
        assert!(matches!(refused, Err(DbError::Corrupt(_))), "{marker}");
    }
}

#[test]
fn a_record_is_verified_with_the_checksum_its_magic_names() {
    let (vfs, path) = (FaultVfs::pristine(), Path::new("/j"));
    let payload = r#"{"wp":1}"#;
    let line = |magic: &str, hash: u64| format!("{magic} {hash:016x} {payload}\n");
    let (xxh64, fnv) = (checksum(payload.as_bytes()), fnv1a(payload.as_bytes()));
    let mut writer = JournalWriter::open_vfs(path, &vfs).expect("open");
    writer.append(payload).expect("append");
    assert_eq!(vfs.read(path).expect("read"), line("j2", xxh64).as_bytes());
    for (frame, reads) in [
        (line("j2", xxh64), true),
        (line("j1", fnv), true),
        (line("j1", xxh64), false),
        (line("j2", fnv), false),
        (line("j3", xxh64), false),
    ] {
        let mut file = vfs.create(path).expect("create");
        file.write_all(frame.as_bytes()).expect("write");
        let report = read_journal_vfs(path, &vfs).expect("read");
        let read = usize::from(reads);
        assert_eq!(
            (report.records.len(), report.torn_tail),
            (read, !reads),
            "{frame}"
        );
    }
}
