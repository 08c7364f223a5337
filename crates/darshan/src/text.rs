//! Text rendering and PyDarshan-style aggregation.
//!
//! [`render_parser_output`] produces `darshan-parser`-style text (the form
//! most HPC users have seen); [`LogSummary`] is the PyDarshan-equivalent
//! aggregation API the knowledge extractor consumes.

use crate::counters::Module;
use crate::log::DarshanLog;
use std::collections::BTreeMap;

/// Aggregated view of a log — what `pydarshan`'s report module exposes.
#[derive(Debug, Clone, PartialEq)]
pub struct LogSummary {
    /// Job id from the header.
    pub job_id: u64,
    /// Rank count.
    pub nprocs: u32,
    /// Job runtime, seconds.
    pub runtime_secs: u64,
    /// Number of distinct files touched.
    pub files: usize,
    /// Total bytes read (POSIX layer).
    pub bytes_read: u64,
    /// Total bytes written (POSIX layer).
    pub bytes_written: u64,
    /// Total POSIX read calls.
    pub reads: u64,
    /// Total POSIX write calls.
    pub writes: u64,
    /// Cumulative read time across ranks, seconds.
    pub read_time: f64,
    /// Cumulative write time across ranks, seconds.
    pub write_time: f64,
    /// Cumulative metadata time across ranks, seconds.
    pub meta_time: f64,
    /// Per-file bytes written, keyed by path.
    pub per_file_written: BTreeMap<String, u64>,
    /// Access-size histogram (bucket label → count), writes.
    pub write_size_histogram: BTreeMap<&'static str, u64>,
    /// Access-size histogram (bucket label → count), reads.
    pub read_size_histogram: BTreeMap<&'static str, u64>,
}

const BUCKET_LABELS: [&str; 8] = [
    "0-100", "100-1K", "1K-10K", "10K-100K", "100K-1M", "1M-4M", "4M-10M", "10M+",
];

impl LogSummary {
    /// Aggregate a log.
    #[must_use]
    pub fn from_log(log: &DarshanLog) -> LogSummary {
        let m = Module::Posix;
        let mut per_file_written = BTreeMap::new();
        for rec in log.records(m) {
            let written = rec.counter(m, "POSIX_BYTES_WRITTEN").unwrap_or(0).max(0) as u64;
            let path = log.path_of(rec.record_id).unwrap_or("<unknown>").to_owned();
            *per_file_written.entry(path).or_insert(0) += written;
        }
        let mut write_size_histogram = BTreeMap::new();
        let mut read_size_histogram = BTreeMap::new();
        for (i, label) in BUCKET_LABELS.iter().enumerate() {
            let wname =
                m.counter_names()[m.counter_index("POSIX_SIZE_WRITE_0_100").expect("base") + i];
            let rname =
                m.counter_names()[m.counter_index("POSIX_SIZE_READ_0_100").expect("base") + i];
            write_size_histogram.insert(*label, log.total_counter(m, wname).max(0) as u64);
            read_size_histogram.insert(*label, log.total_counter(m, rname).max(0) as u64);
        }
        LogSummary {
            job_id: log.job.job_id,
            nprocs: log.job.nprocs,
            runtime_secs: log.job.end_time.saturating_sub(log.job.start_time),
            files: log.names.len(),
            bytes_read: log.total_counter(m, "POSIX_BYTES_READ").max(0) as u64,
            bytes_written: log.total_counter(m, "POSIX_BYTES_WRITTEN").max(0) as u64,
            reads: log.total_counter(m, "POSIX_READS").max(0) as u64,
            writes: log.total_counter(m, "POSIX_WRITES").max(0) as u64,
            read_time: log.total_fcounter(m, "POSIX_F_READ_TIME"),
            write_time: log.total_fcounter(m, "POSIX_F_WRITE_TIME"),
            meta_time: log.total_fcounter(m, "POSIX_F_META_TIME"),
            per_file_written,
            write_size_histogram,
            read_size_histogram,
        }
    }
}

/// Render `darshan-parser`-style text output for a log.
#[must_use]
pub fn render_parser_output(log: &DarshanLog) -> String {
    let mut out = String::new();
    out.push_str("# darshan log version: 1 (iokc reimplementation)\n");
    out.push_str(&format!("# exe: {}\n", log.job.exe));
    out.push_str(&format!("# jobid: {}\n", log.job.job_id));
    out.push_str(&format!("# nprocs: {}\n", log.job.nprocs));
    out.push_str(&format!("# start_time: {}\n", log.job.start_time));
    out.push_str(&format!("# end_time: {}\n", log.job.end_time));
    out.push_str(&format!(
        "# run time: {}\n",
        log.job.end_time.saturating_sub(log.job.start_time)
    ));
    out.push('\n');
    for module in Module::ALL {
        let records = log.records(module);
        if records.is_empty() {
            continue;
        }
        out.push_str(&format!("# {} module data\n", module.as_str()));
        out.push_str("#<module>\t<rank>\t<record id>\t<counter>\t<value>\t<file name>\n");
        for rec in records {
            let path = log.path_of(rec.record_id).unwrap_or("<unknown>");
            for (name, value) in module.counter_names().iter().zip(&rec.counters) {
                out.push_str(&format!(
                    "{}\t{}\t{}\t{}\t{}\t{}\n",
                    module.as_str(),
                    rec.rank,
                    rec.record_id,
                    name,
                    value,
                    path
                ));
            }
            for (name, value) in module.fcounter_names().iter().zip(&rec.fcounters) {
                out.push_str(&format!(
                    "{}\t{}\t{}\t{}\t{:.6}\t{}\n",
                    module.as_str(),
                    rec.rank,
                    rec.record_id,
                    name,
                    value,
                    path
                ));
            }
        }
        out.push('\n');
    }
    if !log.dxt.is_empty() {
        out.push_str("# DXT trace data\n");
        out.push_str("#<module>\t<rank>\t<op>\t<segment>\t<offset>\t<length>\t<start>\t<end>\n");
        for (i, seg) in log.dxt.iter().enumerate() {
            out.push_str(&format!(
                "X_POSIX\t{}\t{}\t{}\t{}\t{}\t{:.6}\t{:.6}\n",
                seg.rank,
                if seg.is_write { "write" } else { "read" },
                i,
                seg.offset,
                seg.length,
                seg.start,
                seg.end
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::LogBuilder;

    fn sample() -> DarshanLog {
        let mut b = LogBuilder::new(7, 2, "ior", true);
        b.set_times(100, 160);
        b.open(Module::Posix, "/scratch/a", 0, 0.0, 0.1);
        b.transfer("/scratch/a", 0, true, 0, 2 * 1024 * 1024, 0.1, 1.1, None);
        b.transfer("/scratch/a", 0, false, 0, 1024, 1.1, 1.2, None);
        b.close(Module::Posix, "/scratch/a", 0, 1.2, 1.3);
        b.finish()
    }

    #[test]
    fn summary_aggregates() {
        let s = LogSummary::from_log(&sample());
        assert_eq!(s.job_id, 7);
        assert_eq!(s.nprocs, 2);
        assert_eq!(s.runtime_secs, 60);
        assert_eq!(s.files, 1);
        assert_eq!(s.bytes_written, 2 * 1024 * 1024);
        assert_eq!(s.bytes_read, 1024);
        assert_eq!(s.writes, 1);
        assert_eq!(s.reads, 1);
        assert_eq!(s.per_file_written["/scratch/a"], 2 * 1024 * 1024);
        assert_eq!(s.write_size_histogram["1M-4M"], 1);
        assert_eq!(s.read_size_histogram["100-1K"], 1);
        assert!((s.write_time - 1.0).abs() < 1e-9);
    }

    #[test]
    fn parser_output_contains_counters_and_dxt() {
        let text = render_parser_output(&sample());
        assert!(text.contains("# exe: ior"));
        assert!(text.contains("POSIX_BYTES_WRITTEN\t2097152"));
        assert!(text.contains("X_POSIX\t0\twrite"));
        assert!(text.contains("/scratch/a"));
    }

    #[test]
    fn empty_summary_has_zero_bandwidth() {
        let log = LogBuilder::new(1, 1, "x", false).finish();
        let s = LogSummary::from_log(&log);
        assert_eq!((s.write_time, s.read_time), (0.0, 0.0));
        assert_eq!((s.bytes_written, s.bytes_read), (0, 0));
        assert_eq!(s.files, 0);
    }
}
