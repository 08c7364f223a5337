//! `iokc-store` — the knowledge persistence phase (§V-C).
//!
//! Tables standing in for SQLite's: typed columns, auto-increment rowids,
//! NOT NULL / foreign-key constraints, rows kept in id order, a small
//! read-only SQL dialect (the DB-API 2.0 face), a deterministic JSON
//! manifest and checksummed logs on disk, and CSV export. [`KnowledgeStore`] binds the
//! paper's exact schema —
//! `performances`, `summaries`, `results`, `filesystems` plus the IO500
//! `IOFHs*` tables — and implements [`iokc_core::Persister`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod aggregate;
pub mod compaction;
pub mod database;
pub mod fault;
pub mod fsck;
pub mod journal;
pub mod knowledge_store;
pub mod persist;
pub mod query;
pub mod segment;
pub mod sql;
pub mod value;
pub mod vfs;
mod wal;

pub use aggregate::{
    AggregateQuery, AggregateResult, CorrelationMatrix, Factor, GroupBy, GroupStats,
    DEFAULT_PERCENTILES,
};
pub use compaction::{CompactionPlan, CompactionReport};
pub use database::{Column, Database, DbError, ForeignKey, Row, TableSchema};
pub use fault::FaultPlan;
pub use fsck::{fsck, FsckFinding, FsckOptions, FsckReport};
pub use iokc_obs::DeadlineToken;
pub use journal::{
    read_journal, truncate_torn_tail, JournalEventSink, JournalReadReport, JournalWriter,
};
pub use knowledge_store::{KnowledgeStore, Snapshot, StoreHealth};
pub use persist::{classify_io_error, export_csv};
pub use query::{
    OpStat, Query, RunCursor, RunFilter, RunKind, RunOrder, RunPredicate, RunRef, RunSummary,
    UnknownName,
};
pub use segment::{Segment, SegmentMeta};
pub use value::{ColumnType, Value};
pub use vfs::{DiskFault, FaultVfs, StdVfs, Vfs, VfsFile};
