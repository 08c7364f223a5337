//! Append-only, checksummed journal files.
//!
//! The campaign layer needs a *write-ahead* record of work-item state
//! transitions that survives process death at any instant, and the store
//! needs the same for its active generation (`store::wal`). The
//! checksummed documents in [`crate::persist`] are the wrong shape for
//! that — they rewrite the whole file per save — so this module provides
//! the complementary primitive: an append-only line journal where every
//! record carries its own XXH64 checksum (the same checksum the
//! document footer uses) and is fsynced before the writer proceeds.
//!
//! A crash can only ever tear the *last* record. [`read_journal`]
//! therefore salvages the longest valid prefix and reports the torn
//! tail instead of failing.
//! [`crate::persist::inject_torn_write`] works on journal files too, so
//! tests can cut one at any byte offset.
//!
//! Record format, one record per line:
//!
//! ```text
//! j2 <xxh64:016x> <payload>
//! ```
//!
//! Older binaries wrote `j1` records, the same length with an FNV-1a 64
//! in place of the XXH64: they are verified as such and never written,
//! so a log may hold `j1` records before `j2` ones (appended to, or
//! spliced by compaction). Payloads must be single-line (the campaign
//! layer writes compact JSON); the writer rejects embedded newlines
//! rather than corrupting the frame.

use crate::persist::{checksum, legacy_checksum};
use crate::vfs::{StdVfs, Vfs, VfsFile};
use std::path::Path;
use std::sync::{Mutex, PoisonError};

/// Version/magic prefix of every record line written; `j1` is read too.
pub(crate) const RECORD_MAGIC: &str = "j2";

/// Bytes one record carrying `payload` occupies in the file: magic,
/// 16-digit checksum, two separating spaces, payload, newline.
pub(crate) fn framed_len(payload: &str) -> u64 {
    (RECORD_MAGIC.len() + 1 + 16 + 1 + payload.len() + 1) as u64
}

/// An open journal file, appending checksummed records durably.
pub struct JournalWriter {
    file: Box<dyn VfsFile>,
}

impl std::fmt::Debug for JournalWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JournalWriter").finish_non_exhaustive()
    }
}

impl JournalWriter {
    /// Open (creating if absent) a journal for appending.
    pub fn open(path: &Path) -> Result<JournalWriter, std::io::Error> {
        JournalWriter::open_vfs(path, &StdVfs)
    }

    /// [`JournalWriter::open`] over an explicit [`Vfs`]. A journal it
    /// creates has its directory synced, or no record in it is durable.
    pub fn open_vfs(path: &Path, vfs: &dyn Vfs) -> Result<JournalWriter, std::io::Error> {
        let created = !vfs.exists(path);
        let file = vfs.append(path)?;
        if created {
            vfs.sync_parent_dir(path)?;
        }
        Ok(JournalWriter { file })
    }

    /// Append one record — one buffer write, one fsync. The payload
    /// must not contain a newline: records are line-framed.
    pub fn append(&mut self, payload: &str) -> Result<(), std::io::Error> {
        if payload.contains('\n') || payload.contains('\r') {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "journal payloads must be single-line",
            ));
        }
        self.file.write_all(record(payload).as_bytes())?;
        self.file.sync()
    }
}

/// `payload`, which holds no newline, framed as one record, as
/// [`JournalWriter::append`] writes it.
pub(crate) fn record(payload: &str) -> String {
    let hash = checksum(payload.as_bytes());
    format!("{RECORD_MAGIC} {hash:016x} {payload}\n")
}

/// The result of replaying a journal file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JournalReadReport {
    /// Every checksum-valid record payload, in append order.
    pub records: Vec<String>,
    /// A torn or corrupt tail was found (and everything from the first
    /// bad line onward was dropped).
    pub torn_tail: bool,
    /// Bytes dropped with the torn tail.
    pub dropped_bytes: usize,
}

/// Replay a journal, salvaging the longest valid prefix.
///
/// A missing file is an empty journal, not an error: a fresh campaign
/// directory and a crashed-before-first-record one are indistinguishable
/// and both resume from nothing. Reading stops at the first record that
/// is torn (no trailing newline), malformed, or checksum-invalid;
/// everything before it is returned and the remainder is reported as
/// dropped.
pub fn read_journal(path: &Path) -> Result<JournalReadReport, std::io::Error> {
    read_journal_vfs(path, &StdVfs)
}

/// [`read_journal`] over an explicit [`Vfs`].
pub fn read_journal_vfs(path: &Path, vfs: &dyn Vfs) -> Result<JournalReadReport, std::io::Error> {
    let bytes = match vfs.read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(JournalReadReport::default())
        }
        Err(e) => return Err(e),
    };
    let (records, consumed) = valid_records(&bytes);
    let dropped_bytes = bytes.len() - consumed;
    Ok(JournalReadReport {
        records: records.into_iter().map(str::to_owned).collect(),
        torn_tail: dropped_bytes > 0,
        dropped_bytes,
    })
}

/// The valid record prefix of a journal's bytes: every record's payload,
/// borrowed in place, and how many bytes those records span. It ends at
/// the first line that is torn (no newline), not UTF-8 — a crash can cut
/// a character in two — malformed, or checksum-invalid.
pub(crate) fn valid_records(bytes: &[u8]) -> (Vec<&str>, usize) {
    // Only the UTF-8 prefix can hold records: the line it cuts short
    // has no newline there, so it ends the prefix as a torn line would.
    let text = std::str::from_utf8(bytes)
        .unwrap_or_else(|e| std::str::from_utf8(&bytes[..e.valid_up_to()]).unwrap_or_default());
    let mut records = Vec::new();
    let mut consumed = 0;
    for line in text.split_inclusive('\n') {
        let Some(payload) = decode_record(line) else {
            break;
        };
        records.push(payload);
        consumed += line.len();
    }
    (records, consumed)
}

/// Truncate a journal to its longest valid prefix, dropping any torn or
/// corrupt tail, and report what survived.
///
/// A writer MUST salvage with this before appending to a journal that a
/// crash may have torn: the torn tail has no newline, so a raw append
/// would fuse the new record onto the torn bytes and corrupt every
/// record from there on.
///
/// This is idempotent: the truncated journal ends in a valid record (or
/// is empty), so a second invocation — e.g. after a crash mid-repair —
/// finds nothing to drop and leaves the file untouched.
pub fn truncate_torn_tail(path: &Path) -> Result<JournalReadReport, std::io::Error> {
    truncate_torn_tail_vfs(path, &StdVfs)
}

/// [`truncate_torn_tail`] over an explicit [`Vfs`].
pub fn truncate_torn_tail_vfs(
    path: &Path,
    vfs: &dyn Vfs,
) -> Result<JournalReadReport, std::io::Error> {
    let report = read_journal_vfs(path, vfs)?;
    if report.dropped_bytes > 0 {
        let len = vfs.len(path)?;
        vfs.set_len(path, len.saturating_sub(report.dropped_bytes as u64))?;
    }
    Ok(report)
}

/// An [`iokc_obs::EventSink`] that appends every observability event as a
/// checksummed journal record.
///
/// This is how span/log streams become durable: each [`iokc_obs::Event`]
/// is serialized to its compact single-line JSON form and framed exactly
/// like the campaign journal, so a crashed run leaves a salvageable
/// prefix that `iokc trace` can replay (open spans in the rebuilt tree
/// show where the process died).
///
/// Sinks are infallible by contract; an I/O error stops further writes
/// and is reported through [`JournalEventSink::error`] instead of
/// panicking inside instrumented code.
#[derive(Debug)]
pub struct JournalEventSink {
    /// The journal, and the first write error: the sink has gone dark.
    state: Mutex<(JournalWriter, Option<String>)>,
}

impl JournalEventSink {
    /// Open (creating if absent) an event journal at `path`, salvaging a
    /// torn tail first so appends never fuse onto torn bytes.
    pub fn open(path: &Path) -> Result<JournalEventSink, std::io::Error> {
        truncate_torn_tail(path)?;
        let state = Mutex::new((JournalWriter::open(path)?, None));
        Ok(JournalEventSink { state })
    }

    /// The first write error, if the sink has gone dark.
    #[must_use]
    pub fn error(&self) -> Option<String> {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .1
            .clone()
    }
}

impl iokc_obs::EventSink for JournalEventSink {
    fn emit(&self, event: &iokc_obs::Event) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let (journal, error) = &mut *state;
        if error.is_none() {
            *error = journal
                .append(&event.to_record())
                .err()
                .map(|e| e.to_string());
        }
    }
}

/// Decode one framed line into its payload, verifying it with the
/// checksum its magic names. Returns `None` for torn (unterminated),
/// malformed, or corrupt lines.
fn decode_record(line: &str) -> Option<&str> {
    let body = line.strip_suffix('\n')?;
    let body = body.strip_suffix('\r').unwrap_or(body);
    let (magic, rest) = body.split_once(' ')?;
    let hash = match magic {
        RECORD_MAGIC => checksum,
        "j1" => legacy_checksum,
        _ => return None,
    };
    let (hex, payload) = rest.split_once(' ')?;
    let recorded = u64::from_str_radix(hex, 16).ok()?;
    if hash(payload.as_bytes()) != recorded {
        return None;
    }
    Some(payload)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::persist::inject_torn_write;

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("iokc-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn append_and_replay_roundtrip() {
        let dir = scratch("roundtrip");
        let path = dir.join("campaign.journal");
        {
            let mut writer = JournalWriter::open(&path).unwrap();
            writer.append("{\"rec\":\"start\",\"wp\":0}").unwrap();
            writer.append("{\"rec\":\"done\",\"wp\":0}").unwrap();
        }
        // Re-open appends, it does not truncate.
        {
            let mut writer = JournalWriter::open(&path).unwrap();
            writer.append("{\"rec\":\"start\",\"wp\":1}").unwrap();
        }
        let report = read_journal(&path).unwrap();
        assert_eq!(report.records.len(), 3);
        assert!(!report.torn_tail);
        assert_eq!(report.dropped_bytes, 0);
        assert_eq!(report.records[2], "{\"rec\":\"start\",\"wp\":1}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_journal_is_empty() {
        let dir = scratch("missing");
        let report = read_journal(&dir.join("nope.journal")).unwrap();
        assert!(report.records.is_empty());
        assert!(!report.torn_tail);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn newline_payloads_are_rejected() {
        let dir = scratch("newline");
        let mut writer = JournalWriter::open(&dir.join("j")).unwrap();
        assert!(writer.append("two\nlines").is_err());
        assert!(writer.append("cr\rline").is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncation_at_any_offset_keeps_a_valid_prefix() {
        let dir = scratch("truncate");
        let path = dir.join("j");
        let payloads: Vec<String> = (0..8).map(|i| format!("{{\"wp\":{i}}}")).collect();
        {
            let mut writer = JournalWriter::open(&path).unwrap();
            for p in &payloads {
                writer.append(p).unwrap();
            }
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let full = text.len() as u64;
        // Byte offsets that coincide with a record boundary: a cut there
        // is indistinguishable from a shorter (but valid) journal.
        let mut boundaries = vec![0u64];
        let mut at = 0u64;
        for line in text.split_inclusive('\n') {
            at += line.len() as u64;
            boundaries.push(at);
        }
        for keep in 0..=full {
            let _ = std::fs::remove_file(&path);
            {
                let mut writer = JournalWriter::open(&path).unwrap();
                for p in &payloads {
                    writer.append(p).unwrap();
                }
            }
            inject_torn_write(&path, keep).unwrap();
            let report = read_journal(&path).unwrap();
            // The salvaged records are exactly a prefix of what was
            // written — never reordered, never a phantom record.
            assert!(report.records.len() <= payloads.len());
            assert_eq!(
                report.records,
                payloads[..report.records.len()].to_vec(),
                "keep={keep}"
            );
            // A mid-record cut is always detected as torn.
            assert_eq!(report.torn_tail, !boundaries.contains(&keep), "keep={keep}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn salvage_truncates_the_torn_tail_so_appends_stay_valid() {
        let dir = scratch("salvage");
        let path = dir.join("j");
        {
            let mut writer = JournalWriter::open(&path).unwrap();
            writer.append("alpha").unwrap();
            writer.append("beta").unwrap();
        }
        // Tear the second record mid-line, then salvage and append.
        let full = std::fs::metadata(&path).unwrap().len();
        inject_torn_write(&path, full - 3).unwrap();
        let report = truncate_torn_tail(&path).unwrap();
        assert!(report.torn_tail);
        assert_eq!(report.records, vec!["alpha".to_owned()]);
        {
            let mut writer = JournalWriter::open(&path).unwrap();
            writer.append("gamma").unwrap();
        }
        // Without the truncation, `gamma` would have fused onto the torn
        // bytes of `beta` and been dropped too.
        let report = read_journal(&path).unwrap();
        assert_eq!(report.records, vec!["alpha".to_owned(), "gamma".to_owned()]);
        assert!(!report.torn_tail);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncate_torn_tail_twice_is_a_no_op() {
        let dir = scratch("idempotent");
        let path = dir.join("j");
        {
            let mut writer = JournalWriter::open(&path).unwrap();
            writer.append("alpha").unwrap();
            writer.append("beta").unwrap();
        }
        let full = std::fs::metadata(&path).unwrap().len();
        inject_torn_write(&path, full - 3).unwrap();
        let first = truncate_torn_tail(&path).unwrap();
        assert!(first.torn_tail);
        let after_first = std::fs::read(&path).unwrap();
        // A second salvage — e.g. after a crash during repair — must not
        // drop anything further or rewrite the file.
        let second = truncate_torn_tail(&path).unwrap();
        assert!(!second.torn_tail);
        assert_eq!(second.dropped_bytes, 0);
        assert_eq!(second.records, vec!["alpha".to_owned()]);
        assert_eq!(std::fs::read(&path).unwrap(), after_first);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_repair_survives_a_failed_truncate() {
        use crate::vfs::{DiskFault, FaultVfs};
        use crate::FaultPlan;
        let path = Path::new("/j");
        // Build a torn journal image under the in-memory vfs.
        let pristine = FaultVfs::pristine();
        {
            let mut writer = JournalWriter::open_vfs(path, &pristine).unwrap();
            writer.append("alpha").unwrap();
            writer.append("beta").unwrap();
        }
        let full = pristine.len(path).unwrap();
        pristine.set_len(path, full - 3).unwrap();
        let image = pristine.durable_state();
        // First repair attempt dies on the truncating set_len (reads are
        // not mutating ops, so the set_len is op 0)...
        let failing =
            FaultVfs::from_state_with_plan(image.clone(), FaultPlan::at(0, DiskFault::Eio));
        assert!(truncate_torn_tail_vfs(path, &failing).is_err());
        // ...and a clean retry over the same disk state succeeds, after
        // which a further invocation is a no-op.
        let retry = FaultVfs::from_state(failing.durable_state());
        let report = truncate_torn_tail_vfs(path, &retry).unwrap();
        assert!(report.torn_tail);
        assert_eq!(report.records, vec!["alpha".to_owned()]);
        let again = truncate_torn_tail_vfs(path, &retry).unwrap();
        assert!(!again.torn_tail);
        assert_eq!(again.dropped_bytes, 0);
    }

    #[test]
    fn corrupt_middle_record_drops_the_rest() {
        let dir = scratch("corrupt");
        let path = dir.join("j");
        {
            let mut writer = JournalWriter::open(&path).unwrap();
            writer.append("alpha").unwrap();
            writer.append("beta").unwrap();
            writer.append("gamma").unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replacen("beta", "beta!", 1)).unwrap();
        let report = read_journal(&path).unwrap();
        assert_eq!(report.records, vec!["alpha".to_owned()]);
        assert!(report.torn_tail);
        assert!(report.dropped_bytes > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_new_journal_syncs_its_directory_once_and_a_reopened_one_never() {
        // An append is one file fsync; every other barrier is a
        // directory sync.
        let vfs = crate::vfs::FaultVfs::pristine();
        let path = Path::new("/campaign.journal");
        let mut writer = JournalWriter::open_vfs(path, &vfs).unwrap();
        assert_eq!(vfs.sync_count(), 1, "creating the journal");
        writer.append("alpha").unwrap();
        writer.append("beta").unwrap();
        assert_eq!(vfs.sync_count(), 1 + 2, "appending to it");
        JournalWriter::open_vfs(path, &vfs)
            .unwrap()
            .append("gamma")
            .unwrap();
        assert_eq!(vfs.sync_count(), 1 + 3, "reopening it");
        assert_eq!(read_journal_vfs(path, &vfs).unwrap().records.len(), 3);
    }
}
