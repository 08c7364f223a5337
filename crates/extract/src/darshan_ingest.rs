//! Darshan log ingestion — the PyDarshan integration of §V-B.
//!
//! Converts a binary Darshan-style log into a benchmark knowledge object:
//! the POSIX-layer totals become `write`/`read` operation summaries and
//! the job header populates the pattern fields.

use iokc_core::model::{Knowledge, KnowledgeSource, OperationSummary};
use iokc_darshan::{decode, decode_salvage, DarshanLog, DecodeError, JobHeader, LogSummary};

/// Error ingesting a Darshan log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DarshanIngestError {
    /// The binary payload did not decode.
    Decode(DecodeError),
    /// The log carries no I/O at all.
    Empty,
}

impl std::fmt::Display for DarshanIngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DarshanIngestError::Decode(e) => write!(f, "darshan decode: {e}"),
            DarshanIngestError::Empty => write!(f, "darshan log contains no I/O"),
        }
    }
}

impl std::error::Error for DarshanIngestError {}

/// Ingest a binary Darshan-style log. Strict: a log that does not decode
/// completely, or carries no I/O, is an error. See
/// [`ingest_darshan_lenient`] for the degrade-instead-of-fail variant.
pub fn ingest_darshan(bytes: &[u8]) -> Result<Knowledge, DarshanIngestError> {
    let log = decode(bytes).map_err(DarshanIngestError::Decode)?;
    let summary = LogSummary::from_log(&log);
    if summary.writes == 0 && summary.reads == 0 {
        return Err(DarshanIngestError::Empty);
    }
    Ok(knowledge_from_log(&log, &summary))
}

/// Best-effort ingestion of a possibly truncated or corrupt log.
///
/// Whatever records decode completely become the knowledge object; each
/// problem (truncation, bad magic, no I/O in the salvaged part) is
/// recorded as a structured warning on the object instead of failing the
/// extraction. Always returns a knowledge object; callers can check
/// [`Knowledge::is_partial`].
#[must_use]
pub fn ingest_darshan_lenient(bytes: &[u8]) -> Knowledge {
    let salvage = decode_salvage(bytes);
    let summary = LogSummary::from_log(&salvage.log);
    let mut k = knowledge_from_log(&salvage.log, &summary);
    if let Some(error) = &salvage.error {
        k.warnings.push(format!(
            "darshan log decoded partially: {error}; kept {} name(s), {} module record(s), {} \
             dxt segment(s)",
            salvage.log.names.len(),
            salvage.log.modules.values().map(Vec::len).sum::<usize>(),
            salvage.log.dxt.len(),
        ));
    }
    if summary.writes == 0 && summary.reads == 0 {
        k.warnings.push("no I/O recovered from the log".to_owned());
    }
    k
}

fn knowledge_from_log(log: &DarshanLog, summary: &LogSummary) -> Knowledge {
    let write = Transfers {
        ops: summary.writes as f64,
        bytes: summary.bytes_written as f64,
        time: summary.write_time,
    };
    let read = Transfers {
        ops: summary.reads as f64,
        bytes: summary.bytes_read as f64,
        time: summary.read_time,
    };
    knowledge_from(&log.job, write, read)
}

/// A job's POSIX totals in one direction: calls, bytes, and the time
/// spent in them summed over ranks, seconds.
#[derive(Clone, Copy)]
pub(crate) struct Transfers {
    pub(crate) ops: f64,
    pub(crate) bytes: f64,
    pub(crate) time: f64,
}

/// The one Darshan → knowledge mapping, for a binary log and a
/// `darshan-parser` dump alike: the job header names the run and gives
/// its tasks and times, and each direction with calls becomes a
/// `write`/`read` summary of its bandwidth and rate over its time.
pub(crate) fn knowledge_from(job: &JobHeader, write: Transfers, read: Transfers) -> Knowledge {
    let mut k = Knowledge::new(
        KnowledgeSource::Darshan,
        &format!("darshan:{} (job {})", job.exe, job.job_id),
    );
    k.pattern.api = "POSIX".to_owned();
    k.pattern.tasks = job.nprocs;
    k.start_time = job.start_time;
    k.end_time = job.end_time;
    for (operation, t) in [("write", write), ("read", read)] {
        if t.ops <= 0.0 {
            continue;
        }
        let per_sec = |amount: f64| if t.time > 0.0 { amount / t.time } else { 0.0 };
        let bw = per_sec(t.bytes / (1024.0 * 1024.0));
        k.summaries.push(OperationSummary {
            operation: operation.to_owned(),
            api: "POSIX".to_owned(),
            max_mib: bw,
            min_mib: bw,
            mean_mib: bw,
            stddev_mib: 0.0,
            mean_ops: per_sec(t.ops),
            iterations: 1,
        });
    }
    k
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use iokc_darshan::{encode, LogBuilder, Module};

    #[test]
    fn ingests_a_log() {
        let mut b = LogBuilder::new(88, 16, "ior", false);
        b.set_times(1000, 1060);
        b.open(Module::Posix, "/scratch/x", 0, 0.0, 0.1);
        b.transfer("/scratch/x", 0, true, 0, 64 << 20, 0.1, 1.1, None);
        b.transfer("/scratch/x", 0, false, 0, 32 << 20, 1.1, 1.6, None);
        b.close(Module::Posix, "/scratch/x", 0, 1.6, 1.7);
        let bytes = encode(&b.finish());
        let k = ingest_darshan(&bytes).unwrap();
        assert_eq!(k.source, KnowledgeSource::Darshan);
        assert_eq!(k.pattern.tasks, 16);
        assert_eq!(k.start_time, 1000);
        // 64 MiB in 1.0 s.
        assert!((k.summary("write").unwrap().mean_mib - 64.0).abs() < 1e-9);
        // 32 MiB in 0.5 s.
        assert!((k.summary("read").unwrap().mean_mib - 64.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_corrupt_and_empty() {
        assert!(matches!(
            ingest_darshan(&[1, 2, 3]),
            Err(DarshanIngestError::Decode(_))
        ));
        let empty = encode(&LogBuilder::new(1, 1, "x", false).finish());
        assert_eq!(ingest_darshan(&empty), Err(DarshanIngestError::Empty));
    }

    fn sample_bytes() -> Vec<u8> {
        let mut b = LogBuilder::new(88, 16, "ior", false);
        b.set_times(1000, 1060);
        for rank in 0..4 {
            let path = format!("/scratch/x.{rank}");
            b.open(Module::Posix, &path, rank, 0.0, 0.1);
            b.transfer(&path, rank, true, 0, 64 << 20, 0.1, 1.1, None);
            b.close(Module::Posix, &path, rank, 1.6, 1.7);
        }
        encode(&b.finish())
    }

    #[test]
    fn lenient_ingest_of_truncated_log_yields_partial_knowledge() {
        let bytes = sample_bytes();
        let k = ingest_darshan_lenient(&bytes[..bytes.len() * 3 / 4]);
        assert!(k.is_partial(), "warnings: {:?}", k.warnings);
        assert!(k.warnings[0].contains("decoded partially"));
        // The job header survived the truncation.
        assert_eq!(k.pattern.tasks, 16);
        assert_eq!(k.start_time, 1000);
        assert!(k.command.contains("job 88"));
    }

    #[test]
    fn lenient_ingest_of_bad_magic_warns_instead_of_failing() {
        let mut bytes = sample_bytes();
        bytes[0] ^= 0xff;
        let k = ingest_darshan_lenient(&bytes);
        assert!(k.is_partial());
        assert!(k.warnings.iter().any(|w| w.contains("bad magic")));
        assert!(k.warnings.iter().any(|w| w.contains("no I/O")));
        assert!(k.summaries.is_empty());
    }

    #[test]
    fn lenient_ingest_of_intact_log_matches_strict() {
        let bytes = sample_bytes();
        let strict = ingest_darshan(&bytes).unwrap();
        let lenient = ingest_darshan_lenient(&bytes);
        assert_eq!(strict, lenient);
        assert!(!lenient.is_partial());
    }
}
