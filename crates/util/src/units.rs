//! Byte-size and time-unit handling compatible with IOR's option grammar.
//!
//! IOR accepts sizes like `4m`, `2m`, `1g`, `512k` (binary multiples) for
//! `-b` (block size) and `-t` (transfer size); IO500 configuration files
//! use the same grammar. Bandwidths in benchmark output are reported in
//! MiB/s, metadata rates in ops/s (kIOPS in IO500 summaries).

use std::fmt;

/// Binary kibi multiplier.
pub const KIB: u64 = 1024;
/// Binary mebi multiplier.
pub const MIB: u64 = 1024 * 1024;
/// Binary gibi multiplier.
pub const GIB: u64 = 1024 * 1024 * 1024;
/// Binary tebi multiplier.
pub const TIB: u64 = 1024 * 1024 * 1024 * 1024;

/// Error parsing a byte-size expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SizeError(pub String);

impl fmt::Display for SizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid size: {}", self.0)
    }
}

impl std::error::Error for SizeError {}

/// Parse an IOR-style size expression (`4m`, `2M`, `1g`, `512k`, `38`,
/// `16MiB`) into bytes. Bare numbers are bytes. Suffixes are
/// case-insensitive binary multiples; an optional `b`/`ib` tail is
/// tolerated (`4mb`, `4mib`).
pub fn parse_size(text: &str) -> Result<u64, SizeError> {
    let trimmed = text.trim();
    if trimmed.is_empty() {
        return Err(SizeError("empty size".into()));
    }
    let digits_end = trimmed
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(trimmed.len());
    if digits_end == 0 {
        return Err(SizeError(text.to_owned()));
    }
    let value: u64 = trimmed[..digits_end]
        .parse()
        .map_err(|_| SizeError(text.to_owned()))?;
    let suffix = trimmed[digits_end..].trim().to_ascii_lowercase();
    let multiplier = match suffix.as_str() {
        "" | "b" | "byte" | "bytes" => 1,
        "k" | "kb" | "kib" => KIB,
        "m" | "mb" | "mib" => MIB,
        "g" | "gb" | "gib" => GIB,
        "t" | "tb" | "tib" => TIB,
        _ => return Err(SizeError(text.to_owned())),
    };
    value
        .checked_mul(multiplier)
        .ok_or_else(|| SizeError(format!("size overflows u64: {text}")))
}

/// Format a byte count the way IOR prints block/transfer sizes
/// (e.g. `4 MiB`, `1024 KiB`, `38 bytes`).
#[must_use]
pub fn format_size(bytes: u64) -> String {
    if bytes >= TIB && bytes.is_multiple_of(TIB) {
        format!("{} TiB", bytes / TIB)
    } else if bytes >= GIB && bytes.is_multiple_of(GIB) {
        format!("{} GiB", bytes / GIB)
    } else if bytes >= MIB && bytes.is_multiple_of(MIB) {
        format!("{} MiB", bytes / MIB)
    } else if bytes >= KIB && bytes.is_multiple_of(KIB) {
        format!("{} KiB", bytes / KIB)
    } else {
        format!("{bytes} bytes")
    }
}

/// Format a byte count as a fractional MiB quantity (IOR summary columns
/// use MiB with two decimals).
#[must_use]
pub fn to_mib(bytes: u64) -> f64 {
    bytes as f64 / MIB as f64
}

/// Format a byte count as fractional GiB (IO500 reports GiB/s).
#[must_use]
pub fn to_gib(bytes: u64) -> f64 {
    bytes as f64 / GIB as f64
}

/// Bytes and a duration in nanoseconds → MiB/s.
#[must_use]
pub fn mib_per_sec(bytes: u64, nanos: u64) -> f64 {
    if nanos == 0 {
        return 0.0;
    }
    to_mib(bytes) / (nanos as f64 / 1e9)
}

/// Bytes and a duration in nanoseconds → GiB/s.
#[must_use]
pub fn gib_per_sec(bytes: u64, nanos: u64) -> f64 {
    if nanos == 0 {
        return 0.0;
    }
    to_gib(bytes) / (nanos as f64 / 1e9)
}

/// Operation count and a duration in nanoseconds → operations per second.
#[must_use]
pub fn ops_per_sec(ops: u64, nanos: u64) -> f64 {
    if nanos == 0 {
        return 0.0;
    }
    ops as f64 / (nanos as f64 / 1e9)
}

/// Fractional seconds → nanoseconds, saturating at `u64::MAX`.
#[must_use]
pub fn secs_to_nanos(secs: f64) -> u64 {
    if secs <= 0.0 {
        0
    } else if secs >= u64::MAX as f64 / 1e9 {
        u64::MAX
    } else {
        (secs * 1e9).round() as u64
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn parses_ior_sizes() {
        assert_eq!(parse_size("4m").unwrap(), 4 * MIB);
        assert_eq!(parse_size("2M").unwrap(), 2 * MIB);
        assert_eq!(parse_size("512k").unwrap(), 512 * KIB);
        assert_eq!(parse_size("1g").unwrap(), GIB);
        assert_eq!(parse_size("38").unwrap(), 38);
        assert_eq!(parse_size("16MiB").unwrap(), 16 * MIB);
        assert_eq!(parse_size(" 47008 b ").unwrap(), 47008);
        assert_eq!(parse_size("2t").unwrap(), 2 * TIB);
    }

    #[test]
    fn rejects_bad_sizes() {
        assert!(parse_size("").is_err());
        assert!(parse_size("m4").is_err());
        assert!(parse_size("4x").is_err());
        assert!(parse_size("4.5m").is_err());
        assert!(parse_size("99999999999999999999g").is_err());
    }

    #[test]
    fn overflow_is_detected() {
        assert!(parse_size("18014398509481984g").is_err());
    }

    #[test]
    fn formats_round_sizes() {
        assert_eq!(format_size(4 * MIB), "4 MiB");
        assert_eq!(format_size(2 * MIB), "2 MiB");
        assert_eq!(format_size(GIB), "1 GiB");
        assert_eq!(format_size(38), "38 bytes");
        assert_eq!(format_size(1536), "1536 bytes");
        assert_eq!(format_size(3 * KIB), "3 KiB");
    }

    #[test]
    fn bandwidth_conversions() {
        // 160 MiB in 0.05 s = 3200 MiB/s.
        assert!((mib_per_sec(160 * MIB, 50_000_000) - 3200.0).abs() < 1e-9);
        assert!((gib_per_sec(GIB, 1_000_000_000) - 1.0).abs() < 1e-12);
        assert!((ops_per_sec(500, 250_000_000) - 2000.0).abs() < 1e-9);
        assert_eq!(mib_per_sec(123, 0), 0.0);
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn parse_never_panics(text in ".{0,20}") {
                let _ = parse_size(&text);
            }

            #[test]
            fn format_parse_roundtrip(value in 1u64..1_000_000) {
                for unit in [1, KIB, MIB, GIB] {
                    let Some(bytes) = value.checked_mul(unit) else { continue };
                    let formatted = format_size(bytes).replace(' ', "");
                    prop_assert_eq!(parse_size(&formatted).unwrap(), bytes);
                }
            }

            #[test]
            fn rate_conversions_are_consistent(bytes in 1u64..1u64 << 40, nanos in 1u64..1u64 << 40) {
                let mib = mib_per_sec(bytes, nanos);
                let gib = gib_per_sec(bytes, nanos);
                prop_assert!((mib / 1024.0 - gib).abs() <= gib.abs() * 1e-9 + 1e-12);
            }
        }
    }

    #[test]
    fn seconds_roundtrip() {
        assert_eq!(secs_to_nanos(1.5), 1_500_000_000);
        assert_eq!(secs_to_nanos(-1.0), 0);
    }
}
