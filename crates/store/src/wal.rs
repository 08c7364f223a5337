//! The active generation's write-ahead log.
//!
//! A file-backed store makes a write durable by appending ONE
//! [`crate::journal`] record to `<path>.wal-<epoch>` — one `write_all`,
//! one fsync (the journal writer syncs the directory once, when it
//! creates the log) — holding only what the write changed: the rows
//! it inserted, as the row block a segment body also is
//! (`persist::write_rows`), or the `(kind, id)` of the run it deleted. A batch is one record, so it is
//! all-or-nothing. Opening replays the records, in
//! order, onto an empty schema whose auto-increment counters come from
//! the manifest; sealing *adopts* the log as the segment's body in the
//! manifest commit that bumps the epoch, so neither the active log nor
//! its replay ever outgrows one generation, and a sealed generation is
//! never written twice. A cold load of any segment body — an adopted
//! log, or a `.seg-` log compaction or repair wrote — replays exactly
//! the length the manifest recorded ([`replay_sealed`]).
//!
//! A crash can tear only the last record, and [`replay`] salvages the
//! valid prefix. Reading never changes the file: the torn tail is
//! truncated by the first append after the open, or by the seal that
//! adopts the log, and logged as `WARN store.wal.torn_tail_truncated`,
//! so a new record is never fused onto torn bytes and an adopted log is
//! exactly its records. A *failed* append is undone the same
//! way ([`Wal::rollback`]): the file goes back to its acknowledged
//! length before anything else is appended, because bytes of an
//! unacknowledged record that a later fsync made durable would replay
//! as a write nobody was told had happened.

use crate::database::{Counters, Database, DbError};
use crate::journal::{self, JournalWriter};
use crate::knowledge_store::delete_runs;
use crate::persist;
use crate::query::RunKind;
use crate::vfs::Vfs;
use iokc_obs::{Counter, Recorder};
use iokc_util::json::Json;
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};

const KINDS: [RunKind; 2] = [RunKind::Benchmark, RunKind::Io500];

/// What one flush appends, encoded.
pub(crate) struct Delta(String);

impl Delta {
    /// The rows inserted into `db` since its counters read `mark`: every
    /// row whose id is at or past its table's mark. `None` when there
    /// are none — a batch whose rows a seal inside it already logged
    /// logs nothing more.
    pub(crate) fn rows_since(db: &Database, mark: &Counters) -> Option<Delta> {
        let mut record = String::from("{\"rows\":");
        let any = persist::write_rows(&mut record, db, mark);
        record.push('}');
        any.then_some(Delta(record))
    }

    /// The delete of one active-generation run.
    pub(crate) fn delete(kind: RunKind, id: u64) -> Delta {
        let run = Json::Arr(vec![Json::from(kind.as_str()), Json::from(id)]);
        Delta(Json::obj(vec![("delete", run)]).to_compact())
    }
}

/// Apply one record to `db`; returns the operations (runs saved or
/// deleted) it stood for. Rows first, then the delete, whichever order
/// the record names them in.
fn apply(db: &mut Database, payload: &str) -> Result<usize, DbError> {
    let runs = |db: &Database| -> usize {
        let count = |kind: &RunKind| db.row_count(kind.table()).unwrap_or(0);
        KINDS.iter().map(count).sum()
    };
    let before = runs(db);
    let mut delete = None;
    persist::read_object(payload, |key, reader| match key {
        "rows" => persist::read_rows(reader, db),
        "delete" => {
            let run = reader.value()?;
            let kind = run.at(0).and_then(Json::as_str);
            let kind = KINDS.into_iter().find(|k| Some(k.as_str()) == kind);
            let run = kind.zip(run.at(1).and_then(Json::as_u64));
            delete = Some(run.ok_or_else(|| DbError::Corrupt("bad delete".into()))?);
            Ok(())
        }
        _ => Ok(reader.skip_value()?),
    })?;
    let mut ops = runs(db) - before;
    if let Some(run) = delete {
        delete_runs(db, &BTreeSet::from([run]))?;
        ops += 1;
    }
    Ok(ops)
}

/// What [`replay`] found.
#[derive(Debug, Default)]
pub(crate) struct Replay {
    /// Records applied.
    pub(crate) records: usize,
    /// Operations those records stood for: what the store counts
    /// against its seal threshold.
    pub(crate) ops: usize,
    /// Length of the valid record prefix, in bytes.
    pub(crate) len: u64,
    /// Bytes follow the valid prefix (a crash tore the last append).
    pub(crate) torn: bool,
}

/// Apply the log at `path` to `db`, salvaging the valid record prefix.
/// A missing file is an empty log. A record that verifies but does not
/// apply is corruption, not a torn tail.
pub(crate) fn replay(path: &Path, vfs: &dyn Vfs, db: &mut Database) -> Result<Replay, DbError> {
    let bytes = match vfs.read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(DbError::Corrupt(format!("read {}: {e}", path.display()))),
    };
    let (records, len) = journal::valid_records(&bytes);
    Ok(Replay {
        records: records.len(),
        len: len as u64,
        torn: len < bytes.len(),
        ops: apply_records(path, records, db)?,
    })
}

/// Apply a segment body: exactly `len` bytes, every record of which
/// verifies. The log was whole when the manifest named it, so nothing
/// in it is a torn tail — a file shorter than that, a bad record inside
/// it or any byte past it is corruption, and so is an empty one: every
/// writer of a body writes a record.
pub(crate) fn replay_sealed(
    path: &Path,
    bytes: &[u8],
    len: u64,
    db: &mut Database,
) -> Result<(), DbError> {
    let (records, valid) = journal::valid_records(bytes);
    if records.is_empty() || valid != bytes.len() || bytes.len() as u64 != len {
        return Err(DbError::Corrupt(format!(
            "{}: sealed at {len} bytes, holds {} of which {valid} are records that verify",
            path.display(),
            bytes.len()
        )));
    }
    apply_records(path, records, db).map(drop)
}

/// Apply `records` in order, each parsed where it lies; returns the
/// operations they stood for.
fn apply_records(path: &Path, records: Vec<&str>, db: &mut Database) -> Result<usize, DbError> {
    let mut ops = 0;
    for (n, record) in records.into_iter().enumerate() {
        ops += apply(db, record)
            .map_err(|e| DbError::Corrupt(format!("{} record {n}: {e}", path.display())))?;
    }
    Ok(ops)
}

/// The `store.wal.*` counters, and the recorder the log's warnings go to.
#[derive(Clone)]
pub(crate) struct WalObs {
    appends: Counter,
    bytes: Counter,
    pub(crate) replayed_records: Counter,
    torn_tails_truncated: Counter,
    recorder: Arc<Recorder>,
}

impl WalObs {
    pub(crate) fn new(recorder: Arc<Recorder>) -> WalObs {
        let metrics = recorder.metrics();
        WalObs {
            appends: metrics.counter("store.wal.appends"),
            bytes: metrics.counter("store.wal.bytes"),
            replayed_records: metrics.counter("store.wal.replayed_records"),
            torn_tails_truncated: metrics.counter("store.wal.torn_tails_truncated"),
            recorder,
        }
    }

    /// Report to `recorder` from here on, carrying over what was counted
    /// before it was attached (the replay at open, notably).
    pub(crate) fn rebind(&mut self, recorder: &Arc<Recorder>) {
        let next = WalObs::new(Arc::clone(recorder));
        next.appends.add(self.appends.get());
        next.bytes.add(self.bytes.get());
        next.replayed_records.add(self.replayed_records.get());
        next.torn_tails_truncated
            .add(self.torn_tails_truncated.get());
        *self = next;
    }
}

impl Default for WalObs {
    fn default() -> WalObs {
        WalObs::new(Arc::new(Recorder::disabled()))
    }
}

/// The append side of the current epoch's log.
#[derive(Default)]
pub(crate) struct Wal {
    /// The open handle; `None` until the first append after an open, a
    /// seal or a reload. Behind a `Mutex` only to keep the store `Sync`
    /// (a [`crate::VfsFile`] is `Send`); every use holds `&mut self`.
    writer: Mutex<Option<JournalWriter>>,
    /// Length of the acknowledged records: what a failed append is
    /// truncated back to, and what a seal adopts.
    len: u64,
    /// How many records that length holds.
    records: usize,
    /// Torn bytes follow the acknowledged records; truncate them before
    /// appending.
    torn: bool,
    pub(crate) obs: WalObs,
}

impl Wal {
    /// Continue after the log was replayed (or, with the default
    /// [`Replay`], start an empty one).
    pub(crate) fn restart(&mut self, replay: &Replay) {
        *self
            .writer
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner) = None;
        self.len = replay.len;
        self.records = replay.records;
        self.torn = replay.torn;
    }

    /// Bytes of acknowledged records.
    pub(crate) fn len(&self) -> u64 {
        self.len
    }

    /// Cut the torn bytes a crash left after the acknowledged records
    /// before this epoch was reopened, so the log holds exactly its
    /// records again; counted, and logged through the store's recorder
    /// with what was cut. A no-op when nothing is torn.
    pub(crate) fn truncate_torn_tail(
        &mut self,
        path: &Path,
        vfs: &dyn Vfs,
    ) -> Result<(), std::io::Error> {
        if !self.torn {
            return Ok(());
        }
        let dropped = vfs.len(path)?.saturating_sub(self.len);
        vfs.set_len(path, self.len)?;
        self.torn = false;
        self.obs.torn_tails_truncated.inc();
        self.obs.recorder.log(
            None,
            &format!(
                "WARN store.wal.torn_tail_truncated {}: {dropped} bytes after {} records",
                path.display(),
                self.records
            ),
        );
        Ok(())
    }

    /// Append `delta` as one record and fsync it. On error the caller
    /// must [`Wal::rollback`] before appending again.
    pub(crate) fn append(
        &mut self,
        path: &Path,
        vfs: &dyn Vfs,
        delta: &Delta,
    ) -> Result<(), std::io::Error> {
        self.truncate_torn_tail(path, vfs)?;
        let slot = self
            .writer
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        let writer = match slot {
            Some(writer) => writer,
            None => slot.insert(JournalWriter::open_vfs(path, vfs)?),
        };
        writer.append(&delta.0)?;
        let bytes = journal::framed_len(&delta.0);
        self.len += bytes;
        self.records += 1;
        self.obs.appends.inc();
        self.obs.bytes.add(bytes);
        Ok(())
    }

    /// Undo a failed append: durably truncate the file back to the
    /// acknowledged length, so neither half a record (a later record
    /// would fuse onto it) nor a whole unacknowledged one survives.
    pub(crate) fn rollback(&self, path: &Path, vfs: &dyn Vfs) -> Result<(), std::io::Error> {
        if vfs.exists(path) {
            vfs.set_len(path, self.len)?;
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::knowledge_store::build_schema;
    use crate::value::Value;
    use crate::vfs::{DiskFault, FaultVfs};
    use crate::FaultPlan;

    fn log() -> &'static Path {
        Path::new("/kb.json.wal-0")
    }

    /// Insert one benchmark run with a summary row; returns its id.
    fn insert_run(db: &mut Database, command: &str) -> i64 {
        let mut cells = vec![Value::Null; 17];
        cells[0] = Value::from(command);
        cells[1] = Value::from("ior");
        let id = db.insert("performances", cells).unwrap();
        let mut cells = vec![Value::Null; 9];
        cells[0] = Value::Int(id);
        cells[1] = Value::from("write");
        db.insert("summaries", cells).unwrap();
        id
    }

    fn commands(db: &Database) -> Vec<String> {
        db.tables["performances"]
            .rows
            .iter()
            .map(|row| row.values[0].to_string())
            .collect()
    }

    #[test]
    fn replay_rebuilds_rows_ids_and_counters() {
        let vfs = FaultVfs::pristine();
        let mut wal = Wal::default();
        let mut db = build_schema();
        db.bump_next_id("performances", 40);
        let base = db.next_ids();
        for command in ["a", "b", "c"] {
            let mark = db.next_ids();
            insert_run(&mut db, command);
            wal.append(log(), &vfs, &Delta::rows_since(&db, &mark).unwrap())
                .unwrap();
        }
        delete_runs(&mut db, &BTreeSet::from([(RunKind::Benchmark, 41)])).unwrap();
        wal.append(log(), &vfs, &Delta::delete(RunKind::Benchmark, 41))
            .unwrap();
        assert_eq!(vfs.len(log()).unwrap(), wal.len);

        let mut replayed = build_schema();
        replayed.bump_next_ids(&base);
        let report = replay(log(), &vfs, &mut replayed).unwrap();
        assert_eq!((report.records, report.ops, report.torn), (4, 4, false));
        assert_eq!(report.len, wal.len);
        assert_eq!(commands(&replayed), vec!["a", "c"]);
        assert_eq!(replayed.tables["summaries"].rows.len(), 2);
        // Deleted ids are not reissued: the counters equal the live ones.
        assert_eq!(replayed.next_ids(), db.next_ids());
        // Nothing inserted, nothing to log.
        assert!(Delta::rows_since(&db, &db.next_ids()).is_none());
    }

    /// An INTEGER is its own digits, as a cell and as an id, past what
    /// an `f64` holds — through a log record and through a segment.
    #[test]
    fn extreme_integers_survive_a_log_record_and_a_segment() {
        use crate::segment::{read_segment_vfs, write_segment_vfs, SegmentData};
        let mut db = build_schema();
        for n in [
            i64::MIN,
            -(1 << 53) - 1,
            (1 << 53) - 1,
            (1 << 53) + 1,
            i64::MAX,
        ] {
            let mut cells = vec![Value::Null; 9];
            (cells[0], cells[1]) = (Value::Int(n), Value::from("write"));
            db.insert_raw("summaries", n, cells).unwrap();
        }
        let rows = |db: &Database| db.tables["summaries"].rows.clone();
        let record = Delta::rows_since(&db, &Counters::new()).unwrap();
        let mut replayed = build_schema();
        apply(&mut replayed, &record.0).unwrap();
        assert_eq!(rows(&replayed), rows(&db));
        let vfs = FaultVfs::pristine();
        let len = write_segment_vfs(log(), &vfs, &SegmentData::empty(db.clone())).unwrap();
        assert_eq!(
            rows(&read_segment_vfs(log(), &vfs, len).unwrap().db),
            rows(&db)
        );
    }

    #[test]
    fn a_missing_log_is_empty() {
        let report = replay(log(), &FaultVfs::pristine(), &mut build_schema()).unwrap();
        assert_eq!((report.records, report.len, report.torn), (0, 0, false));
    }

    #[test]
    fn a_torn_tail_is_salvaged_on_read_and_truncated_by_the_next_append() {
        let vfs = FaultVfs::pristine();
        let mut wal = Wal::default();
        let mut db = build_schema();
        for command in ["a", "b"] {
            let mark = db.next_ids();
            insert_run(&mut db, command);
            wal.append(log(), &vfs, &Delta::rows_since(&db, &mark).unwrap())
                .unwrap();
        }
        vfs.set_len(log(), wal.len - 5).unwrap();
        let torn_len = vfs.len(log()).unwrap();

        let mut replayed = build_schema();
        let report = replay(log(), &vfs, &mut replayed).unwrap();
        assert_eq!((report.records, report.torn), (1, true));
        assert_eq!(commands(&replayed), vec!["a"]);
        assert_eq!(vfs.len(log()).unwrap(), torn_len, "reading changes nothing");

        let mut wal = Wal::default();
        wal.restart(&report);
        let mark = replayed.next_ids();
        insert_run(&mut replayed, "c");
        wal.append(log(), &vfs, &Delta::rows_since(&replayed, &mark).unwrap())
            .unwrap();
        assert_eq!(wal.obs.torn_tails_truncated.get(), 1);
        let mut again = build_schema();
        let report = replay(log(), &vfs, &mut again).unwrap();
        assert_eq!((report.records, report.torn), (2, false));
        assert_eq!(commands(&again), vec!["a", "c"]);
    }

    /// Whatever way an append fails, after the rollback the log holds
    /// exactly the acknowledged records and keeps accepting appends.
    #[test]
    fn a_failed_append_leaves_no_bytes_behind() {
        // Ops: 0 open, 1 dir sync (a new log); 2 write, 3 fsync (first
        // record); 4 write, 5 fsync (second record).
        for plan in [
            (4, DiskFault::ShortWrite),
            (4, DiskFault::Eio),
            (5, DiskFault::Eio),
            (2, DiskFault::FailSync),
        ] {
            let vfs = FaultVfs::new(FaultPlan::from_iter([plan]));
            let mut wal = Wal::default();
            let mut db = build_schema();
            let mark = db.next_ids();
            insert_run(&mut db, "a");
            wal.append(log(), &vfs, &Delta::rows_since(&db, &mark).unwrap())
                .unwrap();
            let acked = wal.len;

            let mark = db.next_ids();
            insert_run(&mut db, "unacknowledged");
            let delta = Delta::rows_since(&db, &mark).unwrap();
            assert!(wal.append(log(), &vfs, &delta).is_err(), "{plan:?}");
            wal.rollback(log(), &vfs).unwrap();
            assert_eq!(vfs.len(log()).unwrap(), acked, "{plan:?}");

            wal.append(log(), &vfs, &Delta::delete(RunKind::Benchmark, 1))
                .unwrap();
            // What a crash right now would leave is what is acknowledged.
            let disk = FaultVfs::from_state(vfs.durable_state());
            let mut replayed = build_schema();
            let report = replay(log(), &disk, &mut replayed).unwrap();
            assert_eq!((report.records, report.torn), (2, false), "{plan:?}");
            assert!(commands(&replayed).is_empty(), "{plan:?}");
        }
    }

    #[test]
    fn a_record_that_verifies_but_does_not_apply_is_corruption() {
        for payload in [
            "{\"rows\":{\"no_such_table\":[[1]]}}",
            "{\"rows\":[]}",
            "{\"rows\":{\"performances\":7}}",
        ] {
            let vfs = FaultVfs::pristine();
            let mut writer = JournalWriter::open_vfs(log(), &vfs).unwrap();
            writer.append(payload).unwrap();
            assert!(
                matches!(
                    replay(log(), &vfs, &mut build_schema()),
                    Err(DbError::Corrupt(_))
                ),
                "{payload}"
            );
        }
    }
}
