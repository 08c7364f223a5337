//! The I/O script model.
//!
//! A benchmark driver compiles each MPI rank's behaviour into a linear
//! script of [`Op`]s; the engine then executes all rank scripts
//! concurrently against the simulated system. This mirrors how IOR, mdtest
//! and HACC-IO are themselves just op-sequence generators over POSIX or
//! MPI-IO.

use crate::time::SimDuration;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// An MPI-style rank index.
pub type Rank = u32;

/// An interned path handle: the row of the name in its set's
/// [`PathTable`], so ops stay small and comparisons are integer
/// comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PathId(pub u32);

/// Open intent; decides whether the open may create the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenMode {
    /// Open an existing file for reading.
    Read,
    /// Open for writing, creating the file if missing.
    Write,
    /// Open an existing file for read/write without creating.
    ReadWrite,
}

/// Striping hints supplied at create time (the `beegfs-ctl --setpattern`
/// or MPI-IO hint equivalent).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StripeHint {
    /// Override the stripe (chunk) size in bytes.
    pub chunk_size: Option<u64>,
    /// Override the number of storage targets to stripe across.
    pub stripe_count: Option<u32>,
}

/// One scripted operation.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant fields are documented by the variant docs
pub enum Op {
    /// Create a directory (parents must exist).
    Mkdir { path: PathId },
    /// Remove an empty directory.
    Rmdir { path: PathId },
    /// Open (and possibly create) a file.
    Open {
        path: PathId,
        mode: OpenMode,
        hint: StripeHint,
    },
    /// Close an open file.
    Close { path: PathId },
    /// Write `len` bytes at `offset`.
    Write { path: PathId, offset: u64, len: u64 },
    /// Read `len` bytes at `offset`.
    Read { path: PathId, offset: u64, len: u64 },
    /// Flush dirty data of the file to stable storage (IOR `-e`).
    Fsync { path: PathId },
    /// Query file metadata.
    Stat { path: PathId },
    /// Remove a file.
    Unlink { path: PathId },
    /// List a directory (one op per directory, cost scales with entries).
    Readdir { path: PathId },
    /// Synchronize with every rank in `group`.
    Barrier { group: u32 },
    /// Busy CPU time (checkpoint intervals, compute phases).
    Compute { dur: SimDuration },
    /// Point-to-point eager send (two-phase collective I/O shuffle).
    Send { to: Rank, bytes: u64, tag: u32 },
    /// Matching receive.
    Recv { from: Rank, tag: u32 },
}

impl Op {
    /// Short lowercase mnemonic used in op records and Darshan DXT output.
    #[must_use]
    pub fn kind(&self) -> OpKind {
        match self {
            Op::Mkdir { .. } => OpKind::Mkdir,
            Op::Rmdir { .. } => OpKind::Rmdir,
            Op::Open { .. } => OpKind::Open,
            Op::Close { .. } => OpKind::Close,
            Op::Write { .. } => OpKind::Write,
            Op::Read { .. } => OpKind::Read,
            Op::Fsync { .. } => OpKind::Fsync,
            Op::Stat { .. } => OpKind::Stat,
            Op::Unlink { .. } => OpKind::Unlink,
            Op::Readdir { .. } => OpKind::Readdir,
            Op::Barrier { .. } => OpKind::Barrier,
            Op::Compute { .. } => OpKind::Compute,
            Op::Send { .. } => OpKind::Send,
            Op::Recv { .. } => OpKind::Recv,
        }
    }
}

/// Discriminant of [`Op`], used for metric aggregation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum OpKind {
    Mkdir,
    Rmdir,
    Open,
    Close,
    Write,
    Read,
    Fsync,
    Stat,
    Unlink,
    Readdir,
    Barrier,
    Compute,
    Send,
    Recv,
}

impl OpKind {
    /// Stable lowercase name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            OpKind::Mkdir => "mkdir",
            OpKind::Rmdir => "rmdir",
            OpKind::Open => "open",
            OpKind::Close => "close",
            OpKind::Write => "write",
            OpKind::Read => "read",
            OpKind::Fsync => "fsync",
            OpKind::Stat => "stat",
            OpKind::Unlink => "unlink",
            OpKind::Readdir => "readdir",
            OpKind::Barrier => "barrier",
            OpKind::Compute => "compute",
            OpKind::Send => "send",
            OpKind::Recv => "recv",
        }
    }
}

/// A map keyed by path names, as both name interners (a [`PathTable`]
/// and the namespace's) keep one.
///
/// It does not use the standard library's DoS-resistant SipHash: a driver
/// interns a few hundred ~45-byte names per phase and SipHash was a
/// measurable share of a whole simulated run. The keys are trusted — they
/// are generated by the benchmark drivers from the operator's own command
/// line, and nothing that links this crate takes names from a network
/// peer (`iokc-explorerd` does not depend on `iokc-sim`).
pub(crate) type NameMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// The FxHash construction: fold the key in a word at a time, one
/// rotate, xor and multiply per eight bytes. Only ever decides a bucket;
/// wherever a path's hash is *observable* (placement, entry ids, MDS
/// choice) the byte-at-a-time FNV of [`crate::pfs::stable_hash`] defines
/// it.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct WordHasher(u64);

impl WordHasher {
    fn fold(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.fold(u64::from_le_bytes(word.try_into().expect("chunk of 8")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.fold(u64::from_le_bytes(word));
        }
    }

    /// The multiply leaves a word's entropy in its high bits and the map
    /// picks buckets by the low ones; names that differ only in their
    /// last few bytes need the rotate to spread at all.
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// One row of a [`PathTable`]. Clones share the string, so copying a
/// table costs a reference-count bump per name.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PathName(Arc<str>);

impl PathName {
    /// The name as text.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// True if both are one allocation. Every interned name is allocated
    /// afresh and tables only grow, so two tables holding the same
    /// allocation at an index agree on every row up to it.
    pub(crate) fn same(&self, other: &PathName) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Deref for PathName {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for PathName {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl PartialEq<str> for PathName {
    fn eq(&self, other: &str) -> bool {
        *self.0 == *other
    }
}

/// The names a run's scripts refer to, in [`PathId`] order (it derefs to
/// that slice). Rows are only ever appended: the sets of a run and the
/// results of its phases share one table by reference count, and a set
/// copies it on the first name it adds.
#[derive(Debug, Clone, Default)]
pub struct PathTable {
    names: Vec<PathName>,
    index: NameMap<PathName, PathId>,
}

impl Deref for PathTable {
    type Target = [PathName];

    fn deref(&self) -> &[PathName] {
        &self.names
    }
}

/// A set of per-rank scripts plus the path table they reference.
#[derive(Debug, Clone, Default)]
pub struct ScriptSet {
    table: Arc<PathTable>,
    scripts: Vec<Vec<Op>>,
    /// Declared sizes of barrier groups other than group 0 (which always
    /// spans all ranks).
    group_sizes: HashMap<u32, u32>,
    /// Stonewall deadline: once this much time has passed since the phase
    /// started, ranks skip their remaining data ops (IOR `-D`).
    stonewall: Option<SimDuration>,
}

impl ScriptSet {
    /// Create an empty script set for `nranks` ranks over a table of its
    /// own. A driver builds its phases with
    /// [`crate::engine::World::scripts`] instead, so that a run resolves
    /// each name once.
    #[must_use]
    pub fn new(nranks: u32) -> ScriptSet {
        ScriptSet::over(Arc::default(), nranks)
    }

    /// An empty script set for `nranks` ranks that extends `table`.
    pub(crate) fn over(table: Arc<PathTable>, nranks: u32) -> ScriptSet {
        ScriptSet {
            table,
            scripts: vec![Vec::new(); nranks as usize],
            group_sizes: HashMap::new(),
            stonewall: None,
        }
    }

    /// Set the stonewall deadline (IOR `-D <seconds>`): ranks stop issuing
    /// *data* ops (read/write) once the phase has run this long; metadata
    /// ops, barriers and messages still execute so the phase closes down
    /// cleanly.
    pub fn set_stonewall(&mut self, deadline: SimDuration) {
        self.stonewall = Some(deadline);
    }

    /// The configured stonewall deadline, if any.
    #[must_use]
    pub fn stonewall(&self) -> Option<SimDuration> {
        self.stonewall
    }

    /// Declare the member count of a custom barrier group. Group 0 always
    /// spans all ranks and cannot be redefined.
    pub fn set_group_size(&mut self, group: u32, size: u32) {
        assert!(group != 0, "group 0 is implicit (all ranks)");
        assert!(size > 0, "group size must be non-zero");
        self.group_sizes.insert(group, size);
    }

    /// Member count of a barrier group (`np` for group 0 or undeclared
    /// groups).
    #[must_use]
    pub fn group_size(&self, group: u32, np: u32) -> u32 {
        if group == 0 {
            np
        } else {
            self.group_sizes.get(&group).copied().unwrap_or(np)
        }
    }

    /// Number of ranks.
    #[must_use]
    pub fn nranks(&self) -> u32 {
        self.scripts.len() as u32
    }

    /// Intern a path, returning its id.
    pub fn intern(&mut self, path: &str) -> PathId {
        if let Some(id) = self.table.index.get(path) {
            return *id;
        }
        let table = Arc::make_mut(&mut self.table);
        let id = PathId(table.names.len() as u32);
        let name = PathName(Arc::from(path));
        table.names.push(name.clone());
        table.index.insert(name, id);
        id
    }

    /// Resolve a path id back to its string.
    #[must_use]
    pub fn path(&self, id: PathId) -> &str {
        &self.table[id.0 as usize]
    }

    /// Every name of the table in id order — for a set built by
    /// [`crate::engine::World::scripts`], the names of the run's earlier
    /// phases too, not only those this set's ops touch.
    #[must_use]
    pub fn paths(&self) -> &[PathName] {
        &self.table
    }

    /// The table, shared.
    pub(crate) fn table(&self) -> &Arc<PathTable> {
        &self.table
    }

    /// This set over a private copy of its table, as every set was before
    /// a run's phases shared one.
    #[cfg(test)]
    pub(crate) fn with_private_table(&self) -> ScriptSet {
        let mut copy = ScriptSet {
            table: Arc::default(),
            ..self.clone()
        };
        for name in self.paths() {
            copy.intern(name);
        }
        copy
    }

    /// Append an op to a rank's script.
    pub fn push(&mut self, rank: Rank, op: Op) {
        self.scripts[rank as usize].push(op);
    }

    /// Borrow a rank's script.
    #[must_use]
    pub fn script(&self, rank: Rank) -> &[Op] {
        &self.scripts[rank as usize]
    }

    /// Total number of ops across all ranks.
    #[must_use]
    pub fn total_ops(&self) -> usize {
        self.scripts.iter().map(Vec::len).sum()
    }

    /// Fluent per-rank builder.
    pub fn rank(&mut self, rank: Rank) -> RankScript<'_> {
        RankScript { set: self, rank }
    }
}

/// Fluent builder appending ops for one rank.
pub struct RankScript<'a> {
    set: &'a mut ScriptSet,
    rank: Rank,
}

impl RankScript<'_> {
    /// Append `Mkdir`.
    pub fn mkdir(&mut self, path: &str) -> &mut Self {
        let p = self.set.intern(path);
        self.set.push(self.rank, Op::Mkdir { path: p });
        self
    }

    /// Append `Rmdir`.
    pub fn rmdir(&mut self, path: &str) -> &mut Self {
        let p = self.set.intern(path);
        self.set.push(self.rank, Op::Rmdir { path: p });
        self
    }

    /// Append `Open` with default striping.
    pub fn open(&mut self, path: &str, mode: OpenMode) -> &mut Self {
        self.open_hint(path, mode, StripeHint::default())
    }

    /// Append `Open` with striping hints.
    pub fn open_hint(&mut self, path: &str, mode: OpenMode, hint: StripeHint) -> &mut Self {
        let p = self.set.intern(path);
        self.set.push(
            self.rank,
            Op::Open {
                path: p,
                mode,
                hint,
            },
        );
        self
    }

    /// Append `Close`.
    pub fn close(&mut self, path: &str) -> &mut Self {
        let p = self.set.intern(path);
        self.set.push(self.rank, Op::Close { path: p });
        self
    }

    /// Append `Write`.
    pub fn write(&mut self, path: &str, offset: u64, len: u64) -> &mut Self {
        let p = self.set.intern(path);
        self.set.push(
            self.rank,
            Op::Write {
                path: p,
                offset,
                len,
            },
        );
        self
    }

    /// Append `Read`.
    pub fn read(&mut self, path: &str, offset: u64, len: u64) -> &mut Self {
        let p = self.set.intern(path);
        self.set.push(
            self.rank,
            Op::Read {
                path: p,
                offset,
                len,
            },
        );
        self
    }

    /// Append `Fsync`.
    pub fn fsync(&mut self, path: &str) -> &mut Self {
        let p = self.set.intern(path);
        self.set.push(self.rank, Op::Fsync { path: p });
        self
    }

    /// Append `Stat`.
    pub fn stat(&mut self, path: &str) -> &mut Self {
        let p = self.set.intern(path);
        self.set.push(self.rank, Op::Stat { path: p });
        self
    }

    /// Append `Unlink`.
    pub fn unlink(&mut self, path: &str) -> &mut Self {
        let p = self.set.intern(path);
        self.set.push(self.rank, Op::Unlink { path: p });
        self
    }

    /// Append `Readdir`.
    pub fn readdir(&mut self, path: &str) -> &mut Self {
        let p = self.set.intern(path);
        self.set.push(self.rank, Op::Readdir { path: p });
        self
    }

    /// Append `Barrier` over group 0 (all ranks).
    pub fn barrier(&mut self) -> &mut Self {
        self.set.push(self.rank, Op::Barrier { group: 0 });
        self
    }

    /// Append `Barrier` over a named group.
    pub fn barrier_group(&mut self, group: u32) -> &mut Self {
        self.set.push(self.rank, Op::Barrier { group });
        self
    }

    /// Append `Compute`.
    pub fn compute(&mut self, dur: SimDuration) -> &mut Self {
        self.set.push(self.rank, Op::Compute { dur });
        self
    }

    /// Append `Send`.
    pub fn send(&mut self, to: Rank, bytes: u64, tag: u32) -> &mut Self {
        self.set.push(self.rank, Op::Send { to, bytes, tag });
        self
    }

    /// Append `Recv`.
    pub fn recv(&mut self, from: Rank, tag: u32) -> &mut Self {
        self.set.push(self.rank, Op::Recv { from, tag });
        self
    }
}

/// Dirname of a path (`/a/b/c` → `/a/b`); `/x` → `/`.
#[must_use]
pub fn parent_dir(path: &str) -> &str {
    match path.rfind('/') {
        Some(0) => "/",
        Some(idx) => &path[..idx],
        None => "/",
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable() {
        let mut set = ScriptSet::new(2);
        let a = set.intern("/scratch/t0");
        let b = set.intern("/scratch/t1");
        let a2 = set.intern("/scratch/t0");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(set.path(a), "/scratch/t0");
        assert_eq!(set.paths().len(), 2);
    }

    #[test]
    fn builder_appends_in_order() {
        let mut set = ScriptSet::new(1);
        set.rank(0)
            .open("/f", OpenMode::Write)
            .write("/f", 0, 1024)
            .fsync("/f")
            .close("/f")
            .barrier();
        let script = set.script(0);
        assert_eq!(script.len(), 5);
        assert_eq!(script[0].kind(), OpKind::Open);
        assert_eq!(script[1].kind(), OpKind::Write);
        assert_eq!(script[4].kind(), OpKind::Barrier);
        assert_eq!(set.total_ops(), 5);
    }

    #[test]
    fn parent_dir_cases() {
        assert_eq!(parent_dir("/a/b/c"), "/a/b");
        assert_eq!(parent_dir("/a"), "/");
        assert_eq!(parent_dir("noslash"), "/");
    }

    #[test]
    fn op_kind_names() {
        assert_eq!(OpKind::Write.as_str(), "write");
        assert_eq!(OpKind::Readdir.as_str(), "readdir");
    }
}
