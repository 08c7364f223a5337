//! The in-memory log model and its builder.
//!
//! A [`DarshanLog`] is what a real deployment would write at
//! `MPI_Finalize`: a job header, a name-record table mapping hashed record
//! ids to file paths, per-module per-file counter records, and (when
//! extended tracing is enabled) DXT segment lists. The [`LogBuilder`]
//! plays the role of the runtime instrumentation: callers feed it events
//! (`open`, `read`, `write`, …) and it maintains the counters.

use crate::counters::{size_bucket, Module};
use std::collections::BTreeMap;

/// A per-file, per-rank counter record.
#[derive(Debug, Clone, PartialEq)]
pub struct FileRecord {
    /// Hashed file record id (see [`record_id`]).
    pub record_id: u64,
    /// Rank that produced the record; `-1` marks a shared (reduced) record.
    pub rank: i32,
    /// Integer counters, ordered per [`Module::counter_names`].
    pub counters: Vec<i64>,
    /// Float counters, ordered per [`Module::fcounter_names`].
    pub fcounters: Vec<f64>,
}

impl FileRecord {
    /// A zeroed record for `module`.
    #[must_use]
    pub fn zeroed(module: Module, record_id: u64, rank: i32) -> FileRecord {
        FileRecord {
            record_id,
            rank,
            counters: vec![0; module.counter_names().len()],
            fcounters: vec![0.0; module.fcounter_names().len()],
        }
    }

    /// Read an integer counter by name.
    #[must_use]
    pub fn counter(&self, module: Module, name: &str) -> Option<i64> {
        module.counter_index(name).map(|i| self.counters[i])
    }

    /// Read a float counter by name.
    #[must_use]
    pub fn fcounter(&self, module: Module, name: &str) -> Option<f64> {
        module.fcounter_index(name).map(|i| self.fcounters[i])
    }
}

/// One DXT (extended tracing) segment: an individual read or write.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DxtSegment {
    /// File record id.
    pub record_id: u64,
    /// Issuing rank.
    pub rank: i32,
    /// `true` for write, `false` for read.
    pub is_write: bool,
    /// File offset.
    pub offset: u64,
    /// Byte count.
    pub length: u64,
    /// Start timestamp, seconds from job start.
    pub start: f64,
    /// End timestamp, seconds from job start.
    pub end: f64,
}

/// Job-level header information.
#[derive(Debug, Clone, PartialEq)]
pub struct JobHeader {
    /// Job identifier (from the resource manager).
    pub job_id: u64,
    /// Number of MPI ranks.
    pub nprocs: u32,
    /// Job start, Unix seconds.
    pub start_time: u64,
    /// Job end, Unix seconds.
    pub end_time: u64,
    /// Executable name.
    pub exe: String,
}

/// A complete characterization log.
#[derive(Debug, Clone, PartialEq)]
pub struct DarshanLog {
    /// Job header.
    pub job: JobHeader,
    /// Record id → file path.
    pub names: BTreeMap<u64, String>,
    /// Per-module record lists.
    pub modules: BTreeMap<Module, Vec<FileRecord>>,
    /// DXT trace segments (empty when tracing was off).
    pub dxt: Vec<DxtSegment>,
}

impl DarshanLog {
    /// Resolve a record id to its path.
    #[must_use]
    pub fn path_of(&self, record_id: u64) -> Option<&str> {
        self.names.get(&record_id).map(String::as_str)
    }

    /// Records of one module.
    #[must_use]
    pub fn records(&self, module: Module) -> &[FileRecord] {
        self.modules.get(&module).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Sum of an integer counter over all records of a module.
    #[must_use]
    pub fn total_counter(&self, module: Module, name: &str) -> i64 {
        let Some(idx) = module.counter_index(name) else {
            return 0;
        };
        self.records(module).iter().map(|r| r.counters[idx]).sum()
    }

    /// Sum of a float counter over all records of a module.
    #[must_use]
    pub fn total_fcounter(&self, module: Module, name: &str) -> f64 {
        let Some(idx) = module.fcounter_index(name) else {
            return 0.0;
        };
        self.records(module).iter().map(|r| r.fcounters[idx]).sum()
    }
}

/// Darshan hashes paths into 64-bit record ids; this implementation uses
/// FNV-1a, which is stable across platforms and runs.
#[must_use]
pub fn record_id(path: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in path.as_bytes() {
        h ^= u64::from(*byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Runtime-instrumentation equivalent: feed events, harvest a log.
#[derive(Debug)]
pub struct LogBuilder {
    job: JobHeader,
    names: BTreeMap<u64, String>,
    /// (module, record_id, rank) → record.
    records: BTreeMap<(Module, u64, i32), FileRecord>,
    /// Last access end offset per (record, rank, write?) for sequential /
    /// consecutive detection.
    last_end: BTreeMap<(u64, i32, bool), u64>,
    dxt_enabled: bool,
    dxt: Vec<DxtSegment>,
}

impl LogBuilder {
    /// Start instrumenting a job. `dxt_enabled` turns on extended tracing.
    #[must_use]
    pub fn new(job_id: u64, nprocs: u32, exe: &str, dxt_enabled: bool) -> LogBuilder {
        LogBuilder {
            job: JobHeader {
                job_id,
                nprocs,
                start_time: 0,
                end_time: 0,
                exe: exe.to_owned(),
            },
            names: BTreeMap::new(),
            records: BTreeMap::new(),
            last_end: BTreeMap::new(),
            dxt_enabled,
            dxt: Vec::new(),
        }
    }

    /// Set job wall-clock bounds (Unix seconds).
    pub fn set_times(&mut self, start: u64, end: u64) {
        self.job.start_time = start;
        self.job.end_time = end;
    }

    fn rec(&mut self, module: Module, path: &str, rank: i32) -> &mut FileRecord {
        let id = record_id(path);
        self.names.entry(id).or_insert_with(|| path.to_owned());
        self.records
            .entry((module, id, rank))
            .or_insert_with(|| FileRecord::zeroed(module, id, rank))
    }

    fn bump(&mut self, module: Module, path: &str, rank: i32, name: &str, by: i64) {
        let idx = module
            .counter_index(name)
            .unwrap_or_else(|| panic!("unknown counter {name}"));
        self.rec(module, path, rank).counters[idx] += by;
    }

    fn bump_f(&mut self, module: Module, path: &str, rank: i32, name: &str, by: f64) {
        let idx = module
            .fcounter_index(name)
            .unwrap_or_else(|| panic!("unknown fcounter {name}"));
        self.rec(module, path, rank).fcounters[idx] += by;
    }

    fn set_f_min_or_first(&mut self, module: Module, path: &str, rank: i32, name: &str, v: f64) {
        let idx = module.fcounter_index(name).expect("known fcounter");
        let rec = self.rec(module, path, rank);
        if rec.fcounters[idx] == 0.0 || v < rec.fcounters[idx] {
            rec.fcounters[idx] = v;
        }
    }

    fn set_f_max(&mut self, module: Module, path: &str, rank: i32, name: &str, v: f64) {
        let idx = module.fcounter_index(name).expect("known fcounter");
        let rec = self.rec(module, path, rank);
        if v > rec.fcounters[idx] {
            rec.fcounters[idx] = v;
        }
    }

    /// Record an open (POSIX; add `mpiio` separately for MPI-IO jobs).
    pub fn open(&mut self, module: Module, path: &str, rank: i32, start: f64, end: f64) {
        match module {
            Module::Posix => {
                self.bump(module, path, rank, "POSIX_OPENS", 1);
                self.set_f_min_or_first(module, path, rank, "POSIX_F_OPEN_START_TIMESTAMP", start);
                self.bump_f(module, path, rank, "POSIX_F_META_TIME", end - start);
            }
            Module::Mpiio => {
                self.bump(module, path, rank, "MPIIO_INDEP_OPENS", 1);
                self.set_f_min_or_first(module, path, rank, "MPIIO_F_OPEN_START_TIMESTAMP", start);
                self.bump_f(module, path, rank, "MPIIO_F_META_TIME", end - start);
            }
            Module::Stdio => {
                self.bump(module, path, rank, "STDIO_OPENS", 1);
                self.set_f_min_or_first(module, path, rank, "STDIO_F_OPEN_START_TIMESTAMP", start);
            }
        }
    }

    /// Record a collective MPI-IO open.
    pub fn coll_open(&mut self, path: &str, rank: i32, start: f64, end: f64) {
        self.bump(Module::Mpiio, path, rank, "MPIIO_COLL_OPENS", 1);
        self.set_f_min_or_first(
            Module::Mpiio,
            path,
            rank,
            "MPIIO_F_OPEN_START_TIMESTAMP",
            start,
        );
        self.bump_f(Module::Mpiio, path, rank, "MPIIO_F_META_TIME", end - start);
    }

    /// Record a close.
    pub fn close(&mut self, module: Module, path: &str, rank: i32, start: f64, end: f64) {
        match module {
            Module::Posix => {
                self.set_f_max(module, path, rank, "POSIX_F_CLOSE_END_TIMESTAMP", end);
                self.bump_f(module, path, rank, "POSIX_F_META_TIME", end - start);
            }
            Module::Mpiio => {
                self.set_f_max(module, path, rank, "MPIIO_F_CLOSE_END_TIMESTAMP", end);
                self.bump_f(module, path, rank, "MPIIO_F_META_TIME", end - start);
            }
            Module::Stdio => {
                self.set_f_max(module, path, rank, "STDIO_F_CLOSE_END_TIMESTAMP", end);
            }
        }
    }

    /// Record a stat/fsync/seek style metadata op.
    pub fn meta(&mut self, path: &str, rank: i32, kind: MetaKind, start: f64, end: f64) {
        let name = match kind {
            MetaKind::Stat => "POSIX_STATS",
            MetaKind::Fsync => "POSIX_FSYNCS",
            MetaKind::Seek => "POSIX_SEEKS",
        };
        self.bump(Module::Posix, path, rank, name, 1);
        self.bump_f(Module::Posix, path, rank, "POSIX_F_META_TIME", end - start);
    }

    /// Record a data transfer. Updates POSIX counters, histograms,
    /// sequential/consecutive detection, and (optionally) an MPI-IO layer
    /// view and a DXT segment.
    #[allow(clippy::too_many_arguments)]
    pub fn transfer(
        &mut self,
        path: &str,
        rank: i32,
        is_write: bool,
        offset: u64,
        len: u64,
        start: f64,
        end: f64,
        mpiio: Option<MpiioTransfer>,
    ) {
        let m = Module::Posix;
        let dur = end - start;
        if is_write {
            self.bump(m, path, rank, "POSIX_WRITES", 1);
            self.bump(m, path, rank, "POSIX_BYTES_WRITTEN", len as i64);
            let max_idx = m.counter_index("POSIX_MAX_BYTE_WRITTEN").expect("counter");
            let rec = self.rec(m, path, rank);
            rec.counters[max_idx] = rec.counters[max_idx].max((offset + len) as i64 - 1);
            let bucket_base = m.counter_index("POSIX_SIZE_WRITE_0_100").expect("counter");
            self.rec(m, path, rank).counters[bucket_base + size_bucket(len)] += 1;
            self.bump_f(m, path, rank, "POSIX_F_WRITE_TIME", dur);
            self.set_f_max(m, path, rank, "POSIX_F_MAX_WRITE_TIME", dur);
        } else {
            self.bump(m, path, rank, "POSIX_READS", 1);
            self.bump(m, path, rank, "POSIX_BYTES_READ", len as i64);
            let max_idx = m.counter_index("POSIX_MAX_BYTE_READ").expect("counter");
            let rec = self.rec(m, path, rank);
            rec.counters[max_idx] = rec.counters[max_idx].max((offset + len) as i64 - 1);
            let bucket_base = m.counter_index("POSIX_SIZE_READ_0_100").expect("counter");
            self.rec(m, path, rank).counters[bucket_base + size_bucket(len)] += 1;
            self.bump_f(m, path, rank, "POSIX_F_READ_TIME", dur);
            self.set_f_max(m, path, rank, "POSIX_F_MAX_READ_TIME", dur);
        }

        // Sequential (offset strictly increasing) / consecutive (exactly
        // adjacent) access detection, per Darshan's definitions.
        let id = record_id(path);
        let key = (id, rank, is_write);
        if let Some(prev_end) = self.last_end.get(&key).copied() {
            if offset == prev_end {
                let name = if is_write {
                    "POSIX_CONSEC_WRITES"
                } else {
                    "POSIX_CONSEC_READS"
                };
                self.bump(m, path, rank, name, 1);
            }
            if offset >= prev_end {
                let name = if is_write {
                    "POSIX_SEQ_WRITES"
                } else {
                    "POSIX_SEQ_READS"
                };
                self.bump(m, path, rank, name, 1);
            }
        }
        self.last_end.insert(key, offset + len);

        if let Some(mp) = mpiio {
            let (ops_name, bytes_name) = match (mp.collective, is_write) {
                (true, true) => ("MPIIO_COLL_WRITES", "MPIIO_BYTES_WRITTEN"),
                (true, false) => ("MPIIO_COLL_READS", "MPIIO_BYTES_READ"),
                (false, true) => ("MPIIO_INDEP_WRITES", "MPIIO_BYTES_WRITTEN"),
                (false, false) => ("MPIIO_INDEP_READS", "MPIIO_BYTES_READ"),
            };
            self.bump(Module::Mpiio, path, rank, ops_name, 1);
            self.bump(Module::Mpiio, path, rank, bytes_name, len as i64);
            let time_name = if is_write {
                "MPIIO_F_WRITE_TIME"
            } else {
                "MPIIO_F_READ_TIME"
            };
            self.bump_f(Module::Mpiio, path, rank, time_name, dur);
        }

        if self.dxt_enabled {
            self.dxt.push(DxtSegment {
                record_id: id,
                rank,
                is_write,
                offset,
                length: len,
                start,
                end,
            });
        }
    }

    /// Finish instrumentation and produce the log.
    #[must_use]
    pub fn finish(self) -> DarshanLog {
        let mut modules: BTreeMap<Module, Vec<FileRecord>> = BTreeMap::new();
        for ((module, _, _), record) in self.records {
            modules.entry(module).or_default().push(record);
        }
        DarshanLog {
            job: self.job,
            names: self.names,
            modules,
            dxt: self.dxt,
        }
    }
}

/// Metadata op classes tracked by [`LogBuilder::meta`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetaKind {
    /// `stat`/`fstat`.
    Stat,
    /// `fsync`/`fdatasync`.
    Fsync,
    /// `lseek`.
    Seek,
}

/// MPI-IO layer annotation for a transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MpiioTransfer {
    /// Was the transfer collective?
    pub collective: bool,
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn sample_log() -> DarshanLog {
        let mut b = LogBuilder::new(991, 4, "ior", true);
        b.set_times(1_600_000_000, 1_600_000_100);
        for rank in 0..2 {
            b.open(Module::Posix, "/scratch/t", rank, 0.1, 0.2);
            b.transfer("/scratch/t", rank, true, 0, 4096, 0.2, 0.3, None);
            b.transfer("/scratch/t", rank, true, 4096, 4096, 0.3, 0.4, None);
            b.transfer("/scratch/t", rank, false, 0, 8192, 0.4, 0.6, None);
            b.meta("/scratch/t", rank, MetaKind::Fsync, 0.6, 0.65);
            b.close(Module::Posix, "/scratch/t", rank, 0.7, 0.75);
        }
        b.finish()
    }

    #[test]
    fn counters_accumulate() {
        let log = sample_log();
        assert_eq!(log.total_counter(Module::Posix, "POSIX_OPENS"), 2);
        assert_eq!(log.total_counter(Module::Posix, "POSIX_WRITES"), 4);
        assert_eq!(
            log.total_counter(Module::Posix, "POSIX_BYTES_WRITTEN"),
            16384
        );
        assert_eq!(log.total_counter(Module::Posix, "POSIX_BYTES_READ"), 16384);
        assert_eq!(log.total_counter(Module::Posix, "POSIX_FSYNCS"), 2);
        // Second write of each rank is consecutive to the first.
        assert_eq!(log.total_counter(Module::Posix, "POSIX_CONSEC_WRITES"), 2);
        assert_eq!(log.total_counter(Module::Posix, "POSIX_SEQ_WRITES"), 2);
    }

    #[test]
    fn histograms_bucket_by_size() {
        let log = sample_log();
        assert_eq!(
            log.total_counter(Module::Posix, "POSIX_SIZE_WRITE_1K_10K"),
            4
        );
        assert_eq!(
            log.total_counter(Module::Posix, "POSIX_SIZE_READ_1K_10K"),
            2
        );
        assert_eq!(
            log.total_counter(Module::Posix, "POSIX_SIZE_WRITE_0_100"),
            0
        );
    }

    #[test]
    fn timestamps_and_times() {
        let log = sample_log();
        let rec = &log.records(Module::Posix)[0];
        assert_eq!(
            rec.fcounter(Module::Posix, "POSIX_F_OPEN_START_TIMESTAMP"),
            Some(0.1)
        );
        assert_eq!(
            rec.fcounter(Module::Posix, "POSIX_F_CLOSE_END_TIMESTAMP"),
            Some(0.75)
        );
        let wt = rec.fcounter(Module::Posix, "POSIX_F_WRITE_TIME").unwrap();
        assert!((wt - 0.2).abs() < 1e-9);
    }

    #[test]
    fn dxt_segments_trace_every_transfer() {
        let log = sample_log();
        assert_eq!(log.dxt.len(), 6);
        let id = record_id("/scratch/t");
        assert!(log.dxt.iter().all(|s| s.record_id == id));
        let writes = log.dxt.iter().filter(|s| s.is_write).count();
        assert_eq!(writes, 4);
    }

    #[test]
    fn dxt_disabled_produces_no_segments() {
        let mut b = LogBuilder::new(1, 1, "x", false);
        b.transfer("/f", 0, true, 0, 10, 0.0, 0.1, None);
        assert!(b.finish().dxt.is_empty());
    }

    #[test]
    fn mpiio_layer_counters() {
        let mut b = LogBuilder::new(1, 1, "ior", false);
        b.coll_open("/f", 0, 0.0, 0.1);
        b.transfer(
            "/f",
            0,
            true,
            0,
            1024,
            0.1,
            0.2,
            Some(MpiioTransfer { collective: true }),
        );
        b.transfer(
            "/f",
            0,
            false,
            0,
            1024,
            0.2,
            0.3,
            Some(MpiioTransfer { collective: false }),
        );
        let log = b.finish();
        assert_eq!(log.total_counter(Module::Mpiio, "MPIIO_COLL_OPENS"), 1);
        assert_eq!(log.total_counter(Module::Mpiio, "MPIIO_COLL_WRITES"), 1);
        assert_eq!(log.total_counter(Module::Mpiio, "MPIIO_INDEP_READS"), 1);
        assert_eq!(
            log.total_counter(Module::Mpiio, "MPIIO_BYTES_WRITTEN"),
            1024
        );
    }

    #[test]
    fn record_ids_resolve_to_paths() {
        let log = sample_log();
        let id = record_id("/scratch/t");
        assert_eq!(log.path_of(id), Some("/scratch/t"));
        assert_eq!(log.path_of(12345), None);
    }

    #[test]
    fn unknown_counter_totals_are_zero() {
        let log = sample_log();
        assert_eq!(log.total_counter(Module::Posix, "NOT_A_COUNTER"), 0);
        assert_eq!(log.total_fcounter(Module::Posix, "NOT_A_COUNTER"), 0.0);
    }
}
