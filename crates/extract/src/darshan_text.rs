//! Parser for `darshan-parser`-style text dumps.
//!
//! Sites often share characterization data as the textual output of
//! `darshan-parser` rather than binary logs; a tool-agnostic extractor
//! (§III) should take those too. The format is tab-separated:
//!
//! ```text
//! #<module>\t<rank>\t<record id>\t<counter>\t<value>\t<file name>
//! POSIX\t0\t12345\tPOSIX_BYTES_WRITTEN\t1048576\t/scratch/f
//! ```

use crate::darshan_ingest::{knowledge_from, Transfers};
use iokc_core::model::Knowledge;
use iokc_darshan::JobHeader;
use std::collections::BTreeMap;

/// Error from parsing darshan-parser text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DarshanTextError(pub String);

impl std::fmt::Display for DarshanTextError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unparseable darshan-parser text: {}", self.0)
    }
}

impl std::error::Error for DarshanTextError {}

/// The job header and the counter totals a dump holds.
fn parse_lines(text: &str) -> Result<(JobHeader, BTreeMap<String, f64>), DarshanTextError> {
    let mut job = JobHeader {
        job_id: 0,
        nprocs: 0,
        start_time: 0,
        end_time: 0,
        exe: String::new(),
    };
    let (mut end_time, mut runtime) = (None, 0);
    let mut counters = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim_end();
        let header = |key: &str| line.strip_prefix(key).map(str::trim);
        if let Some(rest) = header("# nprocs:") {
            job.nprocs = rest.parse().unwrap_or(0);
        } else if let Some(rest) = header("# jobid:") {
            job.job_id = rest.parse().unwrap_or(0);
        } else if let Some(rest) = header("# exe:") {
            rest.clone_into(&mut job.exe);
        } else if let Some(rest) = header("# start_time:") {
            job.start_time = rest.parse().unwrap_or(0);
        } else if let Some(rest) = header("# end_time:") {
            end_time = rest.parse().ok();
        } else if let Some(rest) = header("# run time:") {
            runtime = rest.parse().unwrap_or(0);
        }
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        // module, rank, record id, counter, value, file name.
        if fields.len() < 6 {
            continue;
        }
        let counter = fields[3];
        let Ok(value) = fields[4].parse::<f64>() else {
            continue;
        };
        if counter.starts_with("POSIX_") || counter.starts_with("MPIIO_") {
            *counters.entry(counter.to_owned()).or_insert(0.0) += value;
        }
    }
    if counters.is_empty() {
        return Err(DarshanTextError("no counter lines found".into()));
    }
    // A dump without an end time (an older darshan-parser's) ends its
    // run time after its start.
    job.end_time = end_time.unwrap_or(job.start_time.saturating_add(runtime));
    Ok((job, counters))
}

/// Parse a `darshan-parser` dump into a benchmark knowledge object: the
/// same mapping the binary-log ingester applies
/// ([`crate::ingest_darshan`]).
pub fn parse_darshan_text(text: &str) -> Result<Knowledge, DarshanTextError> {
    let (job, counters) = parse_lines(text)?;
    let total = |name: &str| counters.get(name).copied().unwrap_or(0.0);
    let transfers = |what: &str, bytes: &str| Transfers {
        ops: total(&format!("POSIX_{what}S")),
        bytes: total(bytes),
        time: total(&format!("POSIX_F_{what}_TIME")),
    };
    let k = knowledge_from(
        &job,
        transfers("WRITE", "POSIX_BYTES_WRITTEN"),
        transfers("READ", "POSIX_BYTES_READ"),
    );
    if k.summaries.is_empty() {
        return Err(DarshanTextError("no read or write activity".into()));
    }
    Ok(k)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn parses_rendered_parser_output() {
        // Render text from our own binary-log writer and parse it back —
        // the two Darshan ingestion paths must agree.
        use iokc_darshan::{render_parser_output, LogBuilder, Module};
        let mut b = LogBuilder::new(321, 8, "ior", false);
        b.set_times(1000, 1120);
        b.open(Module::Posix, "/scratch/a", 0, 0.0, 0.1);
        b.transfer("/scratch/a", 0, true, 0, 256 << 20, 0.1, 2.1, None);
        b.transfer("/scratch/a", 0, false, 0, 128 << 20, 2.1, 3.1, None);
        b.close(Module::Posix, "/scratch/a", 0, 3.1, 3.2);
        let log = b.finish();
        let text = render_parser_output(&log);

        let from_text = parse_darshan_text(&text).unwrap();
        let from_binary = crate::ingest_darshan(&iokc_darshan::encode(&log)).unwrap();
        assert_eq!(from_text, from_binary);
        assert_eq!((from_text.start_time, from_text.end_time), (1000, 1120));
        // 256 MiB over 2.0 s of write time.
        assert!((from_text.summary("write").unwrap().mean_mib - 128.0).abs() < 0.01);
        let text_read = from_text.summary("read").unwrap();
        assert!((text_read.mean_mib - 128.0).abs() < 0.01);
    }

    #[test]
    fn parses_hand_written_dump() {
        let dump = "\
# darshan log version: 3.41
# exe: ./simulation
# jobid: 555
# nprocs: 64
# run time: 300

#<module>\t<rank>\t<record id>\t<counter>\t<value>\t<file name>
POSIX\t-1\t42\tPOSIX_WRITES\t6400\t/scratch/out
POSIX\t-1\t42\tPOSIX_BYTES_WRITTEN\t6710886400\t/scratch/out
POSIX\t-1\t42\tPOSIX_F_WRITE_TIME\t25.5\t/scratch/out
";
        let k = parse_darshan_text(dump).unwrap();
        assert_eq!(k.pattern.tasks, 64);
        assert_eq!(k.end_time, 300);
        assert!(k.command.contains("./simulation"));
        assert!(k.command.contains("555"));
        let write = k.summary("write").unwrap();
        // 6400 MiB over 25.5 s ≈ 251 MiB/s.
        assert!((write.mean_mib - 6400.0 / 25.5).abs() < 0.01);
        assert!(k.summary("read").is_none());
    }

    #[test]
    fn a_direction_without_time_has_zero_rates() {
        let dump = "POSIX\t0\t1\tPOSIX_WRITES\t5\t/f\n";
        let write = parse_darshan_text(dump).unwrap().summaries.remove(0);
        let rates = (write.operation.as_str(), write.mean_mib, write.mean_ops);
        assert_eq!(rates, ("write", 0.0, 0.0));
    }

    #[test]
    fn rejects_non_darshan_text() {
        assert!(parse_darshan_text("hello world").is_err());
        assert!(parse_darshan_text("").is_err());
        // Counters present but no data activity.
        let dump = "POSIX\t0\t1\tPOSIX_OPENS\t5\t/f\n";
        assert!(parse_darshan_text(dump).is_err());
    }
}
