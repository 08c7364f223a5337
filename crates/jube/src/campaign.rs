//! Durable campaign state: the write-ahead journal and its replay.
//!
//! A *campaign* is one sweep's worth of workpackages executed under the
//! supervised executor ([`crate::executor`]). Every state transition —
//! done (with captured outputs), failed, quarantined — is
//! appended to a checksummed journal (`campaign.journal` in the campaign
//! directory, via [`iokc_store::journal`]) *before* the executor acts on
//! it. A crashed or killed campaign therefore loses at most the work in
//! flight: resuming replays the journal, rebuilds every completed
//! workpackage from its `done` record without re-running it, keeps
//! quarantine decisions, and re-enqueues everything else.
//!
//! The journal opens with a header naming the benchmark and a
//! fingerprint of the configuration (parameters, steps, patterns), so a
//! resume against a *different* configuration is rejected instead of
//! silently mixing two campaigns' results. [`open_journal`] is the one
//! place that salvages, replays and checks a journal, over any
//! [`iokc_store::Vfs`]: the executor and the corpus generator
//! (`iokc_benchmarks::corpus::generate`) both open theirs with it.

use crate::config::JubeConfig;
use crate::sweep::Workpackage;
use iokc_core::phases::{CycleError, ErrorClass};
use iokc_store::journal::{truncate_torn_tail_vfs, JournalWriter};
use iokc_store::Vfs;
use iokc_util::json::Json;
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// File name of the journal inside a campaign directory.
pub const JOURNAL_FILE: &str = "campaign.journal";

/// File name of the configuration copy inside a campaign directory
/// (written on the first run so `--resume <dir>` needs no config path).
pub const CONFIG_FILE: &str = "config.jube";

/// The journal path inside a campaign directory.
#[must_use]
pub fn journal_path(dir: &Path) -> PathBuf {
    dir.join(JOURNAL_FILE)
}

/// A deterministic fingerprint of everything that defines the sweep's
/// shape: benchmark name, parameters and their values, step names,
/// dependencies and templates, and pattern names. Two configs with the
/// same fingerprint expand to the same workpackages.
#[must_use]
pub fn config_fingerprint(config: &JubeConfig) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |text: &str| {
        for b in text.bytes().chain([0xffu8]) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&config.name);
    for (name, values) in &config.params {
        eat(name);
        for value in values {
            eat(value);
        }
    }
    for step in &config.steps {
        eat(&step.name);
        eat(step.after.as_deref().unwrap_or(""));
        eat(&step.template);
    }
    for (name, _) in &config.patterns {
        eat(name);
    }
    hash
}

/// One journal record: a campaign state transition.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// Journal header, written once when the campaign directory is
    /// created.
    Campaign {
        /// Benchmark name.
        benchmark: String,
        /// [`config_fingerprint`] of the configuration.
        fingerprint: u64,
        /// Total workpackage count.
        total: usize,
    },
    /// A worker claimed the workpackage. The executor no longer writes
    /// it — a resume re-runs whatever has no terminal record, claimed or
    /// not — and [`replay`] ignores it; journals of earlier binaries
    /// carry it.
    Start {
        /// Workpackage id.
        wp: usize,
    },
    /// The workpackage completed; commands and outputs are captured so
    /// a resume rebuilds it without re-running.
    Done {
        /// Workpackage id.
        wp: usize,
        /// Attempts spent in the run that completed it.
        attempts: u32,
        /// Elapsed time (virtual when the runner reports it, wall
        /// otherwise), in milliseconds.
        elapsed_ms: u64,
        /// Executed commands, in step order.
        commands: Vec<(String, String)>,
        /// Captured outputs, in step order.
        outputs: Vec<(String, String)>,
    },
    /// One attempt failed.
    Fail {
        /// Workpackage id.
        wp: usize,
        /// Cumulative failed attempts for this workpackage (across
        /// resumes).
        attempt: u32,
        /// Failing step.
        step: String,
        /// Error classification.
        class: ErrorClass,
        /// Cause.
        message: String,
    },
    /// The workpackage was quarantined: it stays skipped on every
    /// resume and is reported, so one bad parameter combination cannot
    /// sink the campaign.
    Quarantine {
        /// Workpackage id.
        wp: usize,
        /// Why.
        reason: String,
    },
}

impl Record {
    /// Encode as a compact (single-line) JSON payload.
    #[must_use]
    pub fn encode(&self) -> String {
        let json = match self {
            Record::Campaign {
                benchmark,
                fingerprint,
                total,
            } => Json::obj(vec![
                ("rec", Json::from("campaign")),
                ("benchmark", Json::from(benchmark.as_str())),
                (
                    "fingerprint",
                    Json::from(format!("{fingerprint:016x}").as_str()),
                ),
                ("total", Json::from(*total as u64)),
            ]),
            Record::Start { wp } => Json::obj(vec![
                ("rec", Json::from("start")),
                ("wp", Json::from(*wp as u64)),
            ]),
            Record::Done {
                wp,
                attempts,
                elapsed_ms,
                commands,
                outputs,
            } => Json::obj(vec![
                ("rec", Json::from("done")),
                ("wp", Json::from(*wp as u64)),
                ("attempts", Json::from(u64::from(*attempts))),
                ("elapsed_ms", Json::from(*elapsed_ms)),
                ("commands", pairs_to_json(commands)),
                ("outputs", pairs_to_json(outputs)),
            ]),
            Record::Fail {
                wp,
                attempt,
                step,
                class,
                message,
            } => Json::obj(vec![
                ("rec", Json::from("fail")),
                ("wp", Json::from(*wp as u64)),
                ("attempt", Json::from(u64::from(*attempt))),
                ("step", Json::from(step.as_str())),
                ("class", Json::from(class.as_str())),
                ("message", Json::from(message.as_str())),
            ]),
            Record::Quarantine { wp, reason } => Json::obj(vec![
                ("rec", Json::from("quarantine")),
                ("wp", Json::from(*wp as u64)),
                ("reason", Json::from(reason.as_str())),
            ]),
        };
        json.to_compact()
    }

    /// Decode a journal payload. Unknown record kinds and malformed
    /// payloads decode to `None` (skipped on replay, for forward
    /// compatibility).
    #[must_use]
    pub fn decode(payload: &str) -> Option<Record> {
        let json = iokc_util::json::parse(payload).ok()?;
        let wp_of = |json: &Json| json.get("wp").and_then(Json::as_u64).map(|v| v as usize);
        match json.get("rec").and_then(Json::as_str)? {
            "campaign" => Some(Record::Campaign {
                benchmark: json.get("benchmark").and_then(Json::as_str)?.to_owned(),
                fingerprint: u64::from_str_radix(
                    json.get("fingerprint").and_then(Json::as_str)?,
                    16,
                )
                .ok()?,
                total: json.get("total").and_then(Json::as_u64)? as usize,
            }),
            "start" => Some(Record::Start { wp: wp_of(&json)? }),
            "done" => Some(Record::Done {
                wp: wp_of(&json)?,
                attempts: json.get("attempts").and_then(Json::as_u64)? as u32,
                elapsed_ms: json.get("elapsed_ms").and_then(Json::as_u64)?,
                commands: pairs_from_json(json.get("commands")?)?,
                outputs: pairs_from_json(json.get("outputs")?)?,
            }),
            "fail" => Some(Record::Fail {
                wp: wp_of(&json)?,
                attempt: json.get("attempt").and_then(Json::as_u64)? as u32,
                step: json.get("step").and_then(Json::as_str)?.to_owned(),
                class: match json.get("class").and_then(Json::as_str)? {
                    "transient" => ErrorClass::Transient,
                    _ => ErrorClass::Permanent,
                },
                message: json.get("message").and_then(Json::as_str)?.to_owned(),
            }),
            "quarantine" => Some(Record::Quarantine {
                wp: wp_of(&json)?,
                reason: json.get("reason").and_then(Json::as_str)?.to_owned(),
            }),
            _ => None,
        }
    }
}

fn pairs_to_json(pairs: &[(String, String)]) -> Json {
    Json::Arr(
        pairs
            .iter()
            .map(|(a, b)| Json::Arr(vec![Json::from(a.as_str()), Json::from(b.as_str())]))
            .collect(),
    )
}

fn pairs_from_json(json: &Json) -> Option<Vec<(String, String)>> {
    json.as_arr()?
        .iter()
        .map(|pair| {
            Some((
                pair.at(0)?.as_str()?.to_owned(),
                pair.at(1)?.as_str()?.to_owned(),
            ))
        })
        .collect()
}

/// A completed workpackage recovered from the journal.
#[derive(Debug, Clone, PartialEq)]
pub struct DoneRecord {
    /// Attempts spent in the run that completed it.
    pub attempts: u32,
    /// Elapsed milliseconds (virtual or wall).
    pub elapsed_ms: u64,
    /// Executed commands, in step order.
    pub commands: Vec<(String, String)>,
    /// Captured outputs, in step order.
    pub outputs: Vec<(String, String)>,
}

impl DoneRecord {
    /// Rebuild the workpackage this record captured.
    #[must_use]
    pub fn to_workpackage(&self, id: usize, params: BTreeMap<String, String>) -> Workpackage {
        Workpackage {
            id,
            params,
            commands: self.commands.clone(),
            outputs: self.outputs.clone(),
        }
    }
}

/// The replayed state of a campaign journal.
#[derive(Debug, Clone, Default)]
pub struct CampaignState {
    /// Header, when the journal has one.
    pub header: Option<(String, u64, usize)>,
    /// Completed workpackages with their captured outputs.
    pub done: BTreeMap<usize, DoneRecord>,
    /// Quarantined workpackages with the recorded reason.
    pub quarantined: BTreeMap<usize, String>,
    /// Cumulative failed attempts per workpackage.
    pub failures: BTreeMap<usize, u32>,
    /// The journal ended in a torn record (the crash tore a write); the
    /// valid prefix was used.
    pub torn_tail: bool,
}

impl CampaignState {
    /// Workpackages a resume must re-run: neither done nor quarantined.
    /// In flight at the crash, failed and never claimed are all the same
    /// to it.
    #[must_use]
    pub fn is_pending(&self, wp: usize) -> bool {
        !self.done.contains_key(&wp) && !self.quarantined.contains_key(&wp)
    }
}

/// Error opening or validating a campaign directory.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignError {
    /// Journal or directory I/O failed.
    Io(String),
    /// The journal belongs to a different configuration.
    Mismatch {
        /// Fingerprint of the configuration being run.
        expected: u64,
        /// Fingerprint recorded in the journal header.
        found: u64,
    },
    /// The sweep itself failed (invalid parameter combinations up
    /// front, or a fatal workpackage failure with quarantine disabled).
    Sweep(crate::sweep::SweepError),
    /// The knowledge store already holds results that this directory
    /// has no journal of and this configuration does not reproduce:
    /// running on would mix two campaigns.
    ForeignResults {
        /// How many such results the store holds.
        found: usize,
    },
    /// A cycle phase the campaign drives (generation, extraction,
    /// persistence) failed; the phase error carries its own class.
    Phase(CycleError),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Io(message) => write!(f, "campaign journal I/O: {message}"),
            CampaignError::Mismatch { expected, found } => write!(
                f,
                "campaign directory belongs to a different configuration \
                 (journal fingerprint {found:016x}, config fingerprint {expected:016x})"
            ),
            CampaignError::Sweep(error) => write!(f, "{error}"),
            CampaignError::ForeignResults { found } => write!(
                f,
                "the store already holds {found} result(s) that this directory has no \
                 journal of and this configuration does not reproduce; use the campaign \
                 directory and parameters that generated them, or a fresh store"
            ),
            CampaignError::Phase(error) => write!(f, "{error}"),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<crate::sweep::SweepError> for CampaignError {
    fn from(error: crate::sweep::SweepError) -> CampaignError {
        CampaignError::Sweep(error)
    }
}

impl From<std::io::Error> for CampaignError {
    fn from(error: std::io::Error) -> CampaignError {
        CampaignError::Io(error.to_string())
    }
}

impl From<CycleError> for CampaignError {
    fn from(error: CycleError) -> CampaignError {
        CampaignError::Phase(error)
    }
}

/// Open the campaign journal in `dir` on `vfs` for appending, with the
/// state it replays to.
///
/// A crash can tear the last record, and a torn tail has no newline: a
/// record appended after it would fuse onto the torn bytes and be
/// unreadable forever, so the tail is salvaged first. A header naming
/// another benchmark or fingerprint is a [`CampaignError::Mismatch`]. A
/// journal without one (a fresh or damaged directory) gets one appended,
/// once `vouch` has accepted whatever results already exist outside the
/// journal.
pub fn open_journal(
    vfs: &dyn Vfs,
    dir: &Path,
    benchmark: &str,
    fingerprint: u64,
    total: usize,
    vouch: impl FnOnce() -> Result<(), CampaignError>,
) -> Result<(CampaignState, JournalWriter), CampaignError> {
    let path = journal_path(dir);
    let salvaged = truncate_torn_tail_vfs(&path, vfs)?;
    let mut state = replay_vfs(&path, vfs)?;
    state.torn_tail = salvaged.torn_tail;
    let header = match &state.header {
        Some((journaled, found, _)) if journaled != benchmark || *found != fingerprint => {
            return Err(CampaignError::Mismatch {
                expected: fingerprint,
                found: *found,
            });
        }
        Some(_) => None,
        None => {
            vouch()?;
            Some(Record::Campaign {
                benchmark: benchmark.to_owned(),
                fingerprint,
                total,
            })
        }
    };
    let mut writer = JournalWriter::open_vfs(&path, vfs)?;
    if let Some(header) = header {
        writer.append(&header.encode())?;
    }
    Ok((state, writer))
}

/// Replay a campaign journal into its current state. Records after a
/// torn tail are dropped (the executor re-runs that work); undecodable
/// records within the valid prefix are skipped.
pub fn replay(path: &Path) -> Result<CampaignState, CampaignError> {
    replay_vfs(path, &iokc_store::StdVfs)
}

/// [`replay`] over an explicit [`iokc_store::Vfs`].
pub fn replay_vfs(path: &Path, vfs: &dyn Vfs) -> Result<CampaignState, CampaignError> {
    let report = iokc_store::journal::read_journal_vfs(path, vfs)?;
    let mut state = CampaignState {
        torn_tail: report.torn_tail,
        ..CampaignState::default()
    };
    for payload in &report.records {
        match Record::decode(payload) {
            Some(Record::Campaign {
                benchmark,
                fingerprint,
                total,
            }) => state.header = Some((benchmark, fingerprint, total)),
            Some(Record::Start { .. }) => {}
            Some(Record::Done {
                wp,
                attempts,
                elapsed_ms,
                commands,
                outputs,
            }) => {
                state.done.insert(
                    wp,
                    DoneRecord {
                        attempts,
                        elapsed_ms,
                        commands,
                        outputs,
                    },
                );
            }
            Some(Record::Fail { wp, attempt, .. }) => {
                let count = state.failures.entry(wp).or_insert(0);
                *count = (*count).max(attempt);
            }
            Some(Record::Quarantine { wp, reason }) => {
                state.quarantined.insert(wp, reason);
            }
            None => {}
        }
    }
    Ok(state)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn config() -> JubeConfig {
        JubeConfig::parse(
            "benchmark demo\nparam n = 1, 2\nstep run = work -n $n\npattern v = out {v:f}\n",
        )
        .expect("valid config")
    }

    #[test]
    fn fingerprint_is_stable_and_shape_sensitive() {
        let a = config_fingerprint(&config());
        let b = config_fingerprint(&config());
        assert_eq!(a, b);
        let other = JubeConfig::parse(
            "benchmark demo\nparam n = 1, 3\nstep run = work -n $n\npattern v = out {v:f}\n",
        )
        .expect("valid config");
        assert_ne!(a, config_fingerprint(&other), "param values matter");
        let renamed = JubeConfig::parse(
            "benchmark demo2\nparam n = 1, 2\nstep run = work -n $n\npattern v = out {v:f}\n",
        )
        .expect("valid config");
        assert_ne!(a, config_fingerprint(&renamed), "name matters");
    }

    #[test]
    fn records_roundtrip_through_encode_decode() {
        let records = vec![
            Record::Campaign {
                benchmark: "demo".into(),
                fingerprint: 0xdead_beef_0042_1111,
                total: 16,
            },
            Record::Start { wp: 3 },
            Record::Done {
                wp: 3,
                attempts: 2,
                elapsed_ms: 450,
                commands: vec![("run".into(), "work -n 1".into())],
                outputs: vec![("run".into(), "line one\nline two\n".into())],
            },
            Record::Fail {
                wp: 4,
                attempt: 1,
                step: "run".into(),
                class: ErrorClass::Transient,
                message: "node dropped \"off\" the fabric".into(),
            },
            Record::Quarantine {
                wp: 4,
                reason: "failed 3 times".into(),
            },
        ];
        for record in &records {
            let encoded = record.encode();
            assert!(!encoded.contains('\n'), "journal payloads are one line");
            assert_eq!(Record::decode(&encoded).as_ref(), Some(record));
        }
    }

    #[test]
    fn unknown_records_decode_to_none() {
        assert!(Record::decode("{\"rec\":\"future-thing\",\"x\":1}").is_none());
        assert!(Record::decode("not json at all").is_none());
        assert!(Record::decode("{\"wp\":1}").is_none());
    }

    #[test]
    fn replay_reconstructs_state() {
        let dir = std::env::temp_dir().join(format!("iokc-replay-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = journal_path(&dir);
        {
            let mut writer = iokc_store::journal::JournalWriter::open(&path).expect("open journal");
            let write = |w: &mut iokc_store::journal::JournalWriter, r: &Record| {
                w.append(&r.encode()).expect("append");
            };
            write(
                &mut writer,
                &Record::Campaign {
                    benchmark: "demo".into(),
                    fingerprint: 7,
                    total: 4,
                },
            );
            write(&mut writer, &Record::Start { wp: 0 });
            write(
                &mut writer,
                &Record::Done {
                    wp: 0,
                    attempts: 1,
                    elapsed_ms: 10,
                    commands: vec![("run".into(), "c0".into())],
                    outputs: vec![("run".into(), "o0".into())],
                },
            );
            write(&mut writer, &Record::Start { wp: 1 });
            write(
                &mut writer,
                &Record::Fail {
                    wp: 1,
                    attempt: 1,
                    step: "run".into(),
                    class: ErrorClass::Transient,
                    message: "boom".into(),
                },
            );
            write(&mut writer, &Record::Start { wp: 2 });
            write(
                &mut writer,
                &Record::Quarantine {
                    wp: 2,
                    reason: "always fails".into(),
                },
            );
            write(&mut writer, &Record::Start { wp: 3 });
            // wp 3 was in flight when the process died: no terminal record.
        }
        let state = replay(&path).expect("replay");
        assert_eq!(state.header, Some(("demo".into(), 7, 4)));
        assert!(!state.torn_tail);
        assert_eq!(state.done.len(), 1);
        assert_eq!(state.done[&0].outputs[0].1, "o0");
        assert_eq!(state.failures[&1], 1);
        assert_eq!(state.quarantined[&2], "always fails");
        assert!(!state.is_pending(0), "done");
        assert!(state.is_pending(1), "failed is re-runnable");
        assert!(!state.is_pending(2), "quarantined stays skipped");
        assert!(state.is_pending(3), "in-flight is re-enqueued");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
