//! Append-only, checksummed journal files.
//!
//! The campaign layer needs a *write-ahead* record of work-item state
//! transitions that survives process death at any instant, and the store
//! needs the same for its active generation (`store::wal`). The
//! checksummed documents in [`crate::persist`] are the wrong shape for
//! that — they rewrite the whole file per save — so this module provides
//! the complementary primitive: an append-only line journal where every
//! record carries its own FNV-1a 64 checksum (the same checksum the
//! document footer uses) and is fsynced before the writer proceeds.
//!
//! A crash can only ever tear the *last* record. [`read_journal`]
//! therefore salvages the longest valid prefix and reports the torn
//! tail instead of failing, mirroring
//! [`crate::persist::read_document_with_recovery_vfs`]'s "detect, then
//! fall back to the last good generation" contract.
//! [`crate::persist::inject_torn_write`] works on journal files too, so
//! tests can cut one at any byte offset.
//!
//! Record format, one record per line:
//!
//! ```text
//! j1 <crc64:016x> <payload>
//! ```
//!
//! Payloads must be single-line (the campaign layer writes compact
//! JSON); the writer rejects embedded newlines rather than corrupting
//! the frame.

use crate::persist::checksum;
use crate::vfs::{StdVfs, Vfs, VfsFile};
use std::path::Path;

/// Version/magic prefix of every record line.
const RECORD_MAGIC: &str = "j1";

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

    /// [`JournalWriter::open`] over an explicit [`Vfs`].
    pub fn open_vfs(path: &Path, vfs: &dyn Vfs) -> Result<JournalWriter, std::io::Error> {
        Ok(JournalWriter {
            file: vfs.append(path)?,
        })
    }

    /// Append one record and fsync it. The payload must not contain a
    /// newline — records are line-framed.
    pub fn append(&mut self, payload: &str) -> Result<(), std::io::Error> {
        self.append_batch(&[payload])
    }

    /// Append a batch of records with ONE buffer write and ONE fsync —
    /// the group-commit primitive. Durability is all-or-torn-tail: a
    /// crash mid-batch tears at most the framing of the last records
    /// written, and [`read_journal`] salvages the valid prefix exactly
    /// as for single appends.
    pub fn append_batch(&mut self, payloads: &[&str]) -> Result<(), std::io::Error> {
        if payloads.is_empty() {
            return Ok(());
        }
        let mut buf = String::new();
        for payload in payloads {
            if payload.contains('\n') || payload.contains('\r') {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "journal payloads must be single-line",
                ));
            }
            let crc = checksum(payload.as_bytes());
            buf.push_str(RECORD_MAGIC);
            buf.push(' ');
            buf.push_str(&format!("{crc:016x}"));
            buf.push(' ');
            buf.push_str(payload);
            buf.push('\n');
        }
        self.file.write_all(buf.as_bytes())?;
        self.file.sync()
    }
}

/// A group-committing front over a [`JournalWriter`]: concurrent
/// appenders share one fsync.
///
/// Each caller of [`GroupJournal::append`] enqueues its record and
/// blocks until the record is durable. The first thread to find no
/// flush in flight becomes the *leader*: it drains everything queued so
/// far (its own record and any followers'), writes the whole batch with
/// [`JournalWriter::append_batch`] — one buffer write, one fsync — and
/// wakes the followers with the outcome. Under contention `n` appends
/// cost far fewer than `n` fsyncs while every append still returns only
/// once its record is on disk; uncontended appends degrade to exactly
/// the single-record protocol.
///
/// Failure is reported to precisely the records that were in the failed
/// batch: the leader stamps the batch's last sequence number on the
/// error, and a waiter whose record is covered gets the error while
/// later appends proceed against a fresh batch.
pub struct GroupJournal {
    writer: std::sync::Mutex<JournalWriter>,
    state: std::sync::Mutex<GroupState>,
    cond: std::sync::Condvar,
}

struct GroupState {
    /// Records queued for the next batch, with their sequence numbers
    /// (assigned from 1 upward).
    pending: Vec<(u64, String)>,
    /// A leader is currently writing a batch.
    flushing: bool,
    /// Sequence number assigned to the next enqueued record.
    next_seq: u64,
    /// Every record with `seq <= processed_through` has had its batch
    /// completed — durably written unless a range below covers it.
    processed_through: u64,
    /// Seq ranges `(from, through)` of batches whose write failed, with
    /// the error to report to exactly those waiters.
    failed: Vec<(u64, u64, String)>,
}

impl Default for GroupState {
    fn default() -> GroupState {
        GroupState {
            pending: Vec::new(),
            flushing: false,
            next_seq: 1,
            processed_through: 0,
            failed: Vec::new(),
        }
    }
}

impl std::fmt::Debug for GroupJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupJournal").finish_non_exhaustive()
    }
}

impl GroupJournal {
    /// Open (creating if absent) a group-committing journal.
    pub fn open(path: &Path) -> Result<GroupJournal, std::io::Error> {
        GroupJournal::open_vfs(path, &StdVfs)
    }

    /// [`GroupJournal::open`] over an explicit [`Vfs`].
    pub fn open_vfs(path: &Path, vfs: &dyn Vfs) -> Result<GroupJournal, std::io::Error> {
        Ok(GroupJournal::from_writer(JournalWriter::open_vfs(
            path, vfs,
        )?))
    }

    /// Wrap an already-open [`JournalWriter`].
    #[must_use]
    pub fn from_writer(writer: JournalWriter) -> GroupJournal {
        GroupJournal {
            writer: std::sync::Mutex::new(writer),
            state: std::sync::Mutex::new(GroupState::default()),
            cond: std::sync::Condvar::new(),
        }
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, GroupState> {
        match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Append one record, returning once it is durable. Takes `&self`:
    /// any number of threads may append concurrently, and concurrent
    /// appends are batched under one fsync.
    pub fn append(&self, payload: &str) -> Result<(), std::io::Error> {
        if payload.contains('\n') || payload.contains('\r') {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "journal payloads must be single-line",
            ));
        }
        let mut state = self.lock_state();
        let my_seq = state.next_seq;
        state.next_seq += 1;
        state.pending.push((my_seq, payload.to_owned()));
        loop {
            if let Some((_, _, msg)) = state
                .failed
                .iter()
                .find(|(from, through, _)| (*from..=*through).contains(&my_seq))
            {
                return Err(std::io::Error::other(msg.clone()));
            }
            if state.processed_through >= my_seq {
                return Ok(());
            }
            if !state.flushing {
                // Become the leader: take the whole queue, write it
                // outside the state lock, publish the outcome. Batches
                // are taken in seq order and only one flush runs at a
                // time, so `processed_through` advances contiguously.
                state.flushing = true;
                let batch = std::mem::take(&mut state.pending);
                let from = batch.iter().map(|(s, _)| *s).min().unwrap_or(my_seq);
                let through = batch.iter().map(|(s, _)| *s).max().unwrap_or(my_seq);
                drop(state);
                let payloads: Vec<&str> = batch.iter().map(|(_, p)| p.as_str()).collect();
                let result = {
                    let mut writer = match self.writer.lock() {
                        Ok(guard) => guard,
                        Err(poisoned) => poisoned.into_inner(),
                    };
                    writer.append_batch(&payloads)
                };
                state = self.lock_state();
                state.flushing = false;
                state.processed_through = state.processed_through.max(through);
                if let Err(e) = result {
                    state.failed.push((from, through, e.to_string()));
                }
                self.cond.notify_all();
                continue;
            }
            state = match self.cond.wait(state) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }
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
    let text = String::from_utf8(bytes).map_err(|e| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, format!("journal: {e}"))
    })?;
    let mut report = JournalReadReport::default();
    let mut consumed = 0usize;
    for line in text.split_inclusive('\n') {
        let Some(payload) = decode_record(line) else {
            report.torn_tail = true;
            break;
        };
        report.records.push(payload.to_owned());
        consumed += line.len();
    }
    report.dropped_bytes = text.len() - consumed;
    // A trailing partial line with no newline is also a torn tail even
    // when every complete line verified.
    if report.dropped_bytes > 0 {
        report.torn_tail = true;
    }
    Ok(report)
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
///
/// Writes go through a [`GroupJournal`]: when several instrumented
/// threads emit at once, their records share one fsync instead of
/// queuing one fsync each behind a writer lock.
#[derive(Debug)]
pub struct JournalEventSink {
    journal: GroupJournal,
    failed: std::sync::atomic::AtomicBool,
    error: std::sync::Mutex<Option<String>>,
}

impl JournalEventSink {
    /// Open (creating if absent) an event journal at `path`, salvaging a
    /// torn tail first so appends never fuse onto torn bytes.
    pub fn open(path: &Path) -> Result<JournalEventSink, std::io::Error> {
        truncate_torn_tail(path)?;
        Ok(JournalEventSink {
            journal: GroupJournal::open(path)?,
            failed: std::sync::atomic::AtomicBool::new(false),
            error: std::sync::Mutex::new(None),
        })
    }

    /// The first write error, if the sink has gone dark.
    #[must_use]
    pub fn error(&self) -> Option<String> {
        match self.error.lock() {
            Ok(guard) => guard.clone(),
            Err(poisoned) => poisoned.into_inner().clone(),
        }
    }
}

impl iokc_obs::EventSink for JournalEventSink {
    fn emit(&self, event: &iokc_obs::Event) {
        use std::sync::atomic::Ordering;
        if self.failed.load(Ordering::Relaxed) {
            return;
        }
        let record = event.to_record();
        if let Err(e) = self.journal.append(&record) {
            self.failed.store(true, Ordering::Relaxed);
            let mut slot = match self.error.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            slot.get_or_insert_with(|| e.to_string());
        }
    }
}

/// Decode one framed line into its payload, verifying the checksum.
/// Returns `None` for torn (unterminated), malformed, or corrupt lines.
fn decode_record(line: &str) -> Option<&str> {
    let body = line.strip_suffix('\n')?;
    let body = body.strip_suffix('\r').unwrap_or(body);
    let rest = body.strip_prefix(RECORD_MAGIC)?.strip_prefix(' ')?;
    let (crc_hex, payload) = rest.split_once(' ')?;
    let recorded = u64::from_str_radix(crc_hex, 16).ok()?;
    if checksum(payload.as_bytes()) != recorded {
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
        use crate::vfs::{FaultPlan, FaultVfs};
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
        let failing = FaultVfs::from_state_with_plan(image.clone(), FaultPlan::eio_at(0));
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
    fn append_batch_costs_one_sync() {
        use crate::vfs::FaultVfs;
        let path = Path::new("/j");
        let vfs = FaultVfs::pristine();
        {
            let mut writer = JournalWriter::open_vfs(path, &vfs).unwrap();
            writer
                .append_batch(&["alpha", "beta", "gamma", "delta"])
                .unwrap();
        }
        assert_eq!(vfs.sync_count(), 1);
        let report = read_journal_vfs(path, &vfs).unwrap();
        assert_eq!(report.records, vec!["alpha", "beta", "gamma", "delta"]);
        assert!(!report.torn_tail);
    }

    #[test]
    fn append_batch_rejects_newlines_before_writing() {
        use crate::vfs::FaultVfs;
        let path = Path::new("/j");
        let vfs = FaultVfs::pristine();
        let mut writer = JournalWriter::open_vfs(path, &vfs).unwrap();
        assert!(writer.append_batch(&["ok", "two\nlines"]).is_err());
        // Nothing was written: the batch is validated up front.
        assert_eq!(read_journal_vfs(path, &vfs).unwrap().records.len(), 0);
    }

    #[test]
    fn group_journal_uncontended_appends_are_durable_per_record() {
        use crate::vfs::FaultVfs;
        let path = Path::new("/j");
        let vfs = FaultVfs::pristine();
        let journal = GroupJournal::open_vfs(path, &vfs).unwrap();
        journal.append("alpha").unwrap();
        journal.append("beta").unwrap();
        assert_eq!(vfs.sync_count(), 2);
        let report = read_journal_vfs(path, &vfs).unwrap();
        assert_eq!(report.records, vec!["alpha", "beta"]);
    }

    #[test]
    fn concurrent_group_appends_all_land_with_shared_syncs() {
        let dir = scratch("group-commit");
        let path = dir.join("j");
        let journal = std::sync::Arc::new(GroupJournal::open(&path).unwrap());
        const THREADS: usize = 8;
        const PER_THREAD: usize = 25;
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let journal = std::sync::Arc::clone(&journal);
                let barrier = std::sync::Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    for i in 0..PER_THREAD {
                        journal.append(&format!("t{t}-r{i}")).unwrap();
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        let report = read_journal(&path).unwrap();
        assert_eq!(report.records.len(), THREADS * PER_THREAD);
        assert!(!report.torn_tail);
        // Every thread's own records appear in its append order.
        for t in 0..THREADS {
            let mine: Vec<&String> = report
                .records
                .iter()
                .filter(|r| r.starts_with(&format!("t{t}-")))
                .collect();
            let expected: Vec<String> = (0..PER_THREAD).map(|i| format!("t{t}-r{i}")).collect();
            assert_eq!(mine.len(), PER_THREAD);
            assert!(mine.iter().zip(&expected).all(|(a, b)| *a == b));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_appends_share_fsyncs_under_contention() {
        use crate::vfs::FaultVfs;
        use std::sync::atomic::{AtomicU64, Ordering};
        // A slow VFS would show batching naturally; the in-memory one is
        // fast, so force a batch by pre-loading the queue: spawn writers
        // that all enqueue before the leader drains. Run a few rounds
        // and assert the sync count never exceeds the record count (it
        // is usually far below under real contention).
        let path = Path::new("/j");
        let vfs = std::sync::Arc::new(FaultVfs::pristine());
        let writer = JournalWriter::open_vfs(path, vfs.as_ref()).unwrap();
        let journal = std::sync::Arc::new(GroupJournal::from_writer(writer));
        const THREADS: usize = 6;
        let done = std::sync::Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let journal = std::sync::Arc::clone(&journal);
                let done = std::sync::Arc::clone(&done);
                std::thread::spawn(move || {
                    for i in 0..10 {
                        journal.append(&format!("t{t}-r{i}")).unwrap();
                        done.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        let records = done.load(Ordering::Relaxed);
        assert_eq!(records, (THREADS * 10) as u64);
        assert!(
            vfs.sync_count() <= records,
            "group commit must never need more syncs than records \
             (got {} syncs for {records} records)",
            vfs.sync_count()
        );
        let report = read_journal_vfs(path, vfs.as_ref()).unwrap();
        assert_eq!(report.records.len(), records as usize);
    }

    #[test]
    fn group_journal_failure_reaches_the_covered_appender() {
        use crate::vfs::{FaultPlan, FaultVfs};
        let path = Path::new("/j");
        // First sync fails; later syncs succeed.
        let vfs = FaultVfs::new(FaultPlan {
            fail_syncs: std::collections::BTreeSet::from([0]),
            ..FaultPlan::default()
        });
        let writer = JournalWriter::open_vfs(path, &vfs).unwrap();
        let journal = GroupJournal::from_writer(writer);
        assert!(journal.append("alpha").is_err());
        // The journal keeps accepting later appends against new batches.
        journal.append("beta").unwrap();
        let report = read_journal_vfs(path, &vfs).unwrap();
        // `alpha`'s bytes may or may not have landed (the write happened,
        // the sync failed) but `beta` is durable.
        assert!(report.records.iter().any(|r| r == "beta"));
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
}
