//! The simulated parallel file system namespace and data layout.
//!
//! Models the BeeGFS structures the paper's extractor reports on: each
//! file has an *entry id*, an owning *metadata node*, and a *stripe
//! pattern* (chunk size + storage-target list). Data placement follows
//! BeeGFS's round-robin chunk distribution over the file's target set.

use crate::config::PfsConfig;
use crate::script::{parent_dir, NameMap, StripeHint};
use std::sync::Arc;

/// Per-file metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct FileMeta {
    /// Creation serial: the BeeGFS-style entry id's first field.
    pub serial: u64,
    /// The name's stable hash, truncated: the entry id's second field.
    pub name_hash: u32,
    /// Owning metadata server index.
    pub mds: u32,
    /// Stripe chunk size, bytes.
    pub chunk_size: u64,
    /// Storage targets this file stripes over (global target indices).
    pub targets: Vec<u32>,
    /// Current file size (max written extent), bytes.
    pub size: u64,
    /// Creation time in nanoseconds of sim time.
    pub created_ns: u64,
}

impl FileMeta {
    /// The storage target and in-target byte count for each piece of the
    /// byte range `[offset, offset+len)`, split at chunk boundaries and
    /// coalesced per contiguous chunk run.
    #[must_use]
    pub fn layout(&self, offset: u64, len: u64) -> Vec<(u32, u64)> {
        let mut segments: Vec<(u32, u64)> = Vec::new();
        if len == 0 || self.targets.is_empty() {
            return segments;
        }
        let mut pos = offset;
        let end = offset + len;
        while pos < end {
            let chunk_index = pos / self.chunk_size;
            let chunk_end = (chunk_index + 1) * self.chunk_size;
            let piece = chunk_end.min(end) - pos;
            let target = self.targets[(chunk_index % self.targets.len() as u64) as usize];
            match segments.last_mut() {
                Some((last_target, bytes)) if *last_target == target => *bytes += piece,
                _ => segments.push((target, piece)),
            }
            pos += piece;
        }
        segments
    }

    /// True if the byte range starts or ends off a chunk boundary — such
    /// accesses to shared files pay a read-modify-write / range-lock
    /// penalty (the ior-hard effect).
    #[must_use]
    pub fn is_unaligned(&self, offset: u64, len: u64) -> bool {
        !offset.is_multiple_of(self.chunk_size) || !(offset + len).is_multiple_of(self.chunk_size)
    }
}

/// Errors surfaced by namespace operations. Benchmarks drive the engine,
/// so these indicate driver bugs or deliberately-tested misuse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// Path does not exist.
    NotFound(String),
    /// Create/mkdir on an existing path.
    AlreadyExists(String),
    /// Rmdir on a non-empty directory.
    NotEmpty(String),
    /// Parent directory missing.
    NoParent(String),
    /// Operation on the wrong entry type (file vs directory).
    WrongType(String),
}

impl std::fmt::Display for FsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsError::NotFound(p) => write!(f, "no such file or directory: {p}"),
            FsError::AlreadyExists(p) => write!(f, "already exists: {p}"),
            FsError::NotEmpty(p) => write!(f, "directory not empty: {p}"),
            FsError::NoParent(p) => write!(f, "parent directory missing: {p}"),
            FsError::WrongType(p) => write!(f, "wrong entry type: {p}"),
        }
    }
}

impl std::error::Error for FsError {}

/// Dense id of a path name in a [`Namespace`]'s path table. Ids are an
/// in-memory shortcut only: nothing observable (entry ids, placement, MDS
/// choice, listing order) may depend on their values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct NameId(u32);

impl NameId {
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// What a name currently refers to.
#[derive(Debug, Clone)]
enum Node {
    Absent,
    Dir,
    File(FileMeta),
}

/// One row of the path table: everything about a *name* that is worked
/// out once, plus what currently lives under it.
#[derive(Debug, Clone)]
struct Entry {
    name: Arc<str>,
    /// The table row of `parent_dir(name)` (`/` is its own parent).
    parent: NameId,
    /// `stable_hash(name)`: placement, entry ids and (through the parent's
    /// row) MDS choice are defined by it.
    hash: u64,
    /// The rows whose parent this is, present or not.
    children: Vec<NameId>,
    node: Node,
}

/// The namespace: directories, files, and placement state.
///
/// Every name ever resolved gets a row in the path table and keeps its
/// id for the life of the namespace, so the engine resolves a run's
/// names once and works on ids from there. A directory lists from its
/// row's child list. The string-keyed methods are veneers over the
/// id-keyed ones.
#[derive(Debug, Clone)]
pub struct Namespace {
    config: PfsConfig,
    table: Vec<Entry>,
    by_name: NameMap<Arc<str>, NameId>,
    created_count: u64,
}

impl Namespace {
    /// A namespace containing only `/` and `/scratch`.
    #[must_use]
    pub fn new(config: PfsConfig) -> Namespace {
        let mut ns = Namespace {
            config,
            table: Vec::new(),
            by_name: NameMap::default(),
            created_count: 0,
        };
        for dir in ["/", "/scratch"] {
            let id = ns.resolve(dir);
            ns.table[id.index()].node = Node::Dir;
        }
        ns
    }

    /// Access the file system configuration.
    #[must_use]
    pub fn config(&self) -> &PfsConfig {
        &self.config
    }

    /// Number of files currently present.
    #[must_use]
    pub fn file_count(&self) -> usize {
        let files = self
            .table
            .iter()
            .filter(|e| matches!(e.node, Node::File(_)));
        files.count()
    }

    /// The id of `name`, giving it (and its ancestors) a table row first
    /// if it has none. Resolving a name creates nothing in the file
    /// system.
    pub(crate) fn resolve(&mut self, name: &str) -> NameId {
        if let Some(id) = self.by_name.get(name) {
            return *id;
        }
        // `/` is its own parent; any other name's ancestors get rows first.
        let parent_name = parent_dir(name);
        let parent = (parent_name != name).then(|| self.resolve(parent_name));
        let id = NameId(self.table.len() as u32);
        let name: Arc<str> = Arc::from(name);
        self.table.push(Entry {
            hash: stable_hash(&name),
            name: Arc::clone(&name),
            parent: parent.unwrap_or(id),
            children: Vec::new(),
            node: Node::Absent,
        });
        if let Some(parent) = parent {
            self.table[parent.index()].children.push(id);
        }
        self.by_name.insert(name, id);
        id
    }

    /// Rows in the path table (ids are `0..names()`).
    pub(crate) fn names(&self) -> usize {
        self.table.len()
    }

    fn lookup(&self, name: &str) -> Option<NameId> {
        self.by_name.get(name).copied()
    }

    /// The id of a name an op expects to exist; one never resolved cannot.
    fn existing(&self, name: &str) -> Result<NameId, FsError> {
        self.lookup(name)
            .ok_or_else(|| FsError::NotFound(name.to_owned()))
    }

    fn name(&self, id: NameId) -> String {
        self.table[id.index()].name.as_ref().to_owned()
    }

    /// Look up a file.
    #[must_use]
    pub fn file(&self, path: &str) -> Option<&FileMeta> {
        self.file_at(self.lookup(path)?)
    }

    pub(crate) fn file_at(&self, id: NameId) -> Option<&FileMeta> {
        match &self.table[id.index()].node {
            Node::File(meta) => Some(meta),
            _ => None,
        }
    }

    /// True if `path` is a directory.
    #[must_use]
    pub fn is_dir(&self, path: &str) -> bool {
        self.lookup(path).is_some_and(|id| self.is_dir_at(id))
    }

    fn is_dir_at(&self, id: NameId) -> bool {
        matches!(self.table[id.index()].node, Node::Dir)
    }

    /// True if a file or directory lives under the name.
    pub(crate) fn exists_at(&self, id: NameId) -> bool {
        !matches!(self.table[id.index()].node, Node::Absent)
    }

    pub(crate) fn mds_at(&self, id: NameId) -> u32 {
        let parent = self.table[id.index()].parent;
        self.mds_by_hash(self.table[parent.index()].hash)
    }

    fn mds_by_hash(&self, parent_hash: u64) -> u32 {
        (parent_hash % u64::from(self.config.metadata_servers.max(1))) as u32
    }

    /// Create a directory. Parents must exist.
    pub fn mkdir(&mut self, path: &str) -> Result<(), FsError> {
        let id = self.resolve(path);
        self.mkdir_at(id)
    }

    pub(crate) fn mkdir_at(&mut self, id: NameId) -> Result<(), FsError> {
        self.check_vacant(id)?;
        self.table[id.index()].node = Node::Dir;
        Ok(())
    }

    /// A create or mkdir needs a free name under an existing directory.
    fn check_vacant(&self, id: NameId) -> Result<(), FsError> {
        if self.exists_at(id) {
            return Err(FsError::AlreadyExists(self.name(id)));
        }
        if !self.is_dir_at(self.table[id.index()].parent) {
            return Err(FsError::NoParent(self.name(id)));
        }
        Ok(())
    }

    /// Remove an empty directory.
    pub fn rmdir(&mut self, path: &str) -> Result<(), FsError> {
        self.rmdir_at(self.existing(path)?)
    }

    pub(crate) fn rmdir_at(&mut self, id: NameId) -> Result<(), FsError> {
        if !self.is_dir_at(id) {
            return Err(FsError::NotFound(self.name(id)));
        }
        if self.dir_entries_at(id) > 0 {
            return Err(FsError::NotEmpty(self.name(id)));
        }
        self.table[id.index()].node = Node::Absent;
        Ok(())
    }

    /// Create a file (no-op error if it exists). `now_ns` stamps creation.
    pub fn create(
        &mut self,
        path: &str,
        hint: StripeHint,
        now_ns: u64,
    ) -> Result<&FileMeta, FsError> {
        let id = self.resolve(path);
        self.create_at(id, hint, now_ns)
    }

    pub(crate) fn create_at(
        &mut self,
        id: NameId,
        hint: StripeHint,
        now_ns: u64,
    ) -> Result<&FileMeta, FsError> {
        self.check_vacant(id)?;
        let chunk_size = hint
            .chunk_size
            .unwrap_or(self.config.default_chunk_size)
            .max(1);
        let stripe_count = hint
            .stripe_count
            .unwrap_or(self.config.default_stripe_count)
            .clamp(1, self.config.storage_targets.max(1));
        let ntargets = self.config.storage_targets.max(1);
        // BeeGFS spreads first targets per file (free-space/random target
        // chooser); a stable path hash keeps the simulation deterministic
        // while avoiding the convoy effect of all files starting on the
        // same target.
        let hash = self.table[id.index()].hash;
        let first = (hash % u64::from(ntargets)) as u32;
        let targets: Vec<u32> = (0..stripe_count).map(|i| (first + i) % ntargets).collect();
        self.created_count += 1;
        let meta = FileMeta {
            serial: self.created_count,
            name_hash: hash as u32,
            mds: self.mds_at(id),
            chunk_size,
            targets,
            size: 0,
            created_ns: now_ns,
        };
        self.table[id.index()].node = Node::File(meta);
        Ok(self.file_at(id).expect("just created"))
    }

    /// Look up a file for an open; errors if missing.
    pub fn open_existing(&self, path: &str) -> Result<&FileMeta, FsError> {
        let id = self.existing(path)?;
        if self.is_dir_at(id) {
            return Err(FsError::WrongType(path.to_owned()));
        }
        self.file_at(id)
            .ok_or_else(|| FsError::NotFound(path.to_owned()))
    }

    /// Extend file size after a write.
    pub fn note_write(&mut self, path: &str, offset: u64, len: u64) -> Result<(), FsError> {
        self.note_write_at(self.existing(path)?, offset, len)
    }

    pub(crate) fn note_write_at(
        &mut self,
        id: NameId,
        offset: u64,
        len: u64,
    ) -> Result<(), FsError> {
        match &mut self.table[id.index()].node {
            Node::File(meta) => {
                meta.size = meta.size.max(offset + len);
                Ok(())
            }
            _ => Err(FsError::NotFound(self.name(id))),
        }
    }

    /// Remove a file.
    pub fn unlink(&mut self, path: &str) -> Result<(), FsError> {
        self.unlink_at(self.existing(path)?)
    }

    pub(crate) fn unlink_at(&mut self, id: NameId) -> Result<(), FsError> {
        if self.file_at(id).is_none() {
            return Err(FsError::NotFound(self.name(id)));
        }
        self.table[id.index()].node = Node::Absent;
        Ok(())
    }

    /// Iterate over the immediate children of `dir`: files in name order,
    /// then directories in name order.
    pub fn list_dir<'a>(&'a self, dir: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        let children = self.lookup(dir).map(|id| self.children(id));
        let names = children.into_iter().flatten();
        names.map(|id| self.table[id.index()].name.as_ref())
    }

    /// The names under a directory that exist, in listing order.
    fn children(&self, dir: NameId) -> Vec<NameId> {
        let mut ids = self.table[dir.index()].children.clone();
        ids.retain(|id| self.exists_at(*id));
        ids.sort_unstable_by_key(|id| (self.is_dir_at(*id), &*self.table[id.index()].name));
        ids
    }

    /// Number of entries directly inside `dir` (drives readdir cost).
    #[must_use]
    pub fn dir_entries(&self, dir: &str) -> usize {
        self.lookup(dir).map_or(0, |id| self.dir_entries_at(id))
    }

    pub(crate) fn dir_entries_at(&self, dir: NameId) -> usize {
        let children = self.table[dir.index()].children.iter();
        children.filter(|id| self.exists_at(**id)).count()
    }

    /// Render BeeGFS-style `beegfs-ctl --getentryinfo` output for a path —
    /// the exact text the knowledge extractor parses.
    #[must_use]
    pub fn entry_info(&self, path: &str) -> Option<String> {
        let meta = self.file(path)?;
        let mut out = String::new();
        out.push_str("Entry type: file\n");
        out.push_str(&format!(
            "EntryID: {:X}-{:08X}-1\n",
            meta.serial, meta.name_hash
        ));
        out.push_str(&format!(
            "Metadata node: meta{:02} [ID: {}]\n",
            meta.mds + 1,
            meta.mds + 1
        ));
        out.push_str("Stripe pattern details:\n");
        out.push_str("+ Type: RAID0\n");
        out.push_str(&format!("+ Chunksize: {}\n", format_chunk(meta.chunk_size)));
        out.push_str(&format!(
            "+ Number of storage targets: desired: {}; actual: {}\n",
            meta.targets.len(),
            meta.targets.len()
        ));
        out.push_str("+ Storage targets:\n");
        for t in &meta.targets {
            out.push_str(&format!(
                "  + {} @ storage{:02} [ID: {}]\n",
                t + 1,
                t + 1,
                t + 1
            ));
        }
        out.push_str(&format!(
            "+ Storage Pool: 1 ({})\n",
            self.config.storage_pool
        ));
        Some(out)
    }
}

fn format_chunk(bytes: u64) -> String {
    if bytes.is_multiple_of(1024 * 1024) {
        format!("{}M", bytes / (1024 * 1024))
    } else if bytes.is_multiple_of(1024) {
        format!("{}K", bytes / 1024)
    } else {
        format!("{bytes}")
    }
}

impl Namespace {
    /// Render Lustre-style `lfs getstripe` output for a path — the §VI
    /// outlook asks for further parallel file systems, and the extractor
    /// understands this format alongside the BeeGFS one.
    #[must_use]
    pub fn entry_info_lustre(&self, path: &str) -> Option<String> {
        let meta = self.file(path)?;
        let mut out = format!("{path}\n");
        out.push_str(&format!("lmm_stripe_count:  {}\n", meta.targets.len()));
        out.push_str(&format!("lmm_stripe_size:   {}\n", meta.chunk_size));
        out.push_str("lmm_pattern:       raid0\n");
        out.push_str("lmm_layout_gen:    0\n");
        out.push_str(&format!(
            "lmm_stripe_offset: {}\n",
            meta.targets.first().copied().unwrap_or(0)
        ));
        out.push_str("\tobdidx\t\t objid\t\t objid\t\t group\n");
        for (i, target) in meta.targets.iter().enumerate() {
            let objid = stable_hash(path).wrapping_add(i as u64) & 0xff_ffff;
            out.push_str(&format!(
                "\t{:>6}\t{:>11}\t{:>#11x}\t{:>7}\n",
                target, objid, objid, 0
            ));
        }
        Some(out)
    }
}

/// FNV-1a — stable across runs and platforms (unlike `DefaultHasher`).
#[must_use]
pub fn stable_hash(text: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in text.as_bytes() {
        h ^= u64::from(*byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use iokc_util::units::MIB;

    fn ns() -> Namespace {
        Namespace::new(PfsConfig::test_small())
    }

    #[test]
    fn create_and_layout() {
        let mut ns = ns();
        ns.create("/scratch/f0", StripeHint::default(), 0).unwrap();
        let meta = ns.file("/scratch/f0").unwrap();
        assert_eq!(meta.chunk_size, 512 * 1024);
        assert_eq!(meta.targets.len(), 2);
        // 2 MiB write = 4 chunks over 2 targets, round robin → coalesced
        // into 4 alternating segments of 512 KiB.
        let segs = meta.layout(0, 2 * MIB);
        assert_eq!(segs.len(), 4);
        assert!(segs.iter().all(|(_, b)| *b == 512 * 1024));
        assert_eq!(segs[0].0, segs[2].0);
        assert_ne!(segs[0].0, segs[1].0);
    }

    #[test]
    fn layout_handles_partial_chunks() {
        let mut ns = ns();
        ns.create(
            "/scratch/f1",
            StripeHint {
                chunk_size: Some(1024),
                stripe_count: Some(2),
            },
            0,
        )
        .unwrap();
        let meta = ns.file("/scratch/f1").unwrap();
        let segs = meta.layout(512, 1024);
        // 512 bytes in chunk 0 (target A), 512 bytes in chunk 1 (target B).
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].1, 512);
        assert_eq!(segs[1].1, 512);
        let total: u64 = segs.iter().map(|(_, b)| b).sum();
        assert_eq!(total, 1024);
    }

    #[test]
    fn unaligned_detection() {
        let mut ns = ns();
        ns.create("/scratch/f2", StripeHint::default(), 0).unwrap();
        let meta = ns.file("/scratch/f2").unwrap();
        assert!(!meta.is_unaligned(0, 512 * 1024));
        assert!(meta.is_unaligned(47008, 47008));
        assert!(meta.is_unaligned(0, 47008));
    }

    #[test]
    fn namespace_errors() {
        let mut ns = ns();
        assert!(matches!(ns.mkdir("/a/b"), Err(FsError::NoParent(_))));
        ns.mkdir("/a").unwrap();
        ns.mkdir("/a/b").unwrap();
        assert!(matches!(ns.mkdir("/a"), Err(FsError::AlreadyExists(_))));
        assert!(matches!(ns.rmdir("/a"), Err(FsError::NotEmpty(_))));
        ns.rmdir("/a/b").unwrap();
        ns.rmdir("/a").unwrap();
        assert!(matches!(ns.unlink("/nope"), Err(FsError::NotFound(_))));
        assert!(matches!(
            ns.open_existing("/nope"),
            Err(FsError::NotFound(_))
        ));
    }

    #[test]
    fn asking_after_a_missing_name_interns_nothing() {
        let mut ns = ns();
        let names = ns.names();
        assert!(ns.rmdir("/nope/deeper").is_err());
        assert!(ns.unlink("/nope").is_err());
        assert!(ns.note_write("/nope", 0, 1).is_err());
        assert!(ns.open_existing("/nope").is_err());
        let dir = ns.open_existing("/scratch");
        assert!(matches!(dir, Err(FsError::WrongType(_))));
        assert!(ns.file("/nope").is_none() && !ns.is_dir("/nope"));
        assert_eq!(ns.list_dir("/nope").count(), 0);
        assert_eq!(ns.names(), names);
    }

    #[test]
    fn write_extends_size() {
        let mut ns = ns();
        ns.create("/scratch/f3", StripeHint::default(), 0).unwrap();
        ns.note_write("/scratch/f3", 4 * MIB, MIB).unwrap();
        assert_eq!(ns.file("/scratch/f3").unwrap().size, 5 * MIB);
        ns.note_write("/scratch/f3", 0, 10).unwrap();
        assert_eq!(ns.file("/scratch/f3").unwrap().size, 5 * MIB);
    }

    #[test]
    fn listing_and_counting() {
        let mut ns = ns();
        ns.mkdir("/scratch/job").unwrap();
        ns.create("/scratch/job/a", StripeHint::default(), 0)
            .unwrap();
        ns.create("/scratch/job/b", StripeHint::default(), 0)
            .unwrap();
        ns.mkdir("/scratch/job/sub").unwrap();
        assert_eq!(ns.dir_entries("/scratch/job"), 3);
        assert_eq!(ns.dir_entries("/scratch"), 1);
        let children: Vec<&str> = ns.list_dir("/scratch/job").collect();
        assert!(children.contains(&"/scratch/job/a"));
        assert!(children.contains(&"/scratch/job/sub"));
    }

    #[test]
    fn entry_info_renders_beegfs_text() {
        let mut ns = ns();
        ns.create("/scratch/f4", StripeHint::default(), 0).unwrap();
        let info = ns.entry_info("/scratch/f4").unwrap();
        assert!(info.contains("Entry type: file"));
        assert!(info.contains("EntryID:"));
        assert!(info.contains("Metadata node: meta"));
        assert!(info.contains("+ Chunksize: 512K"));
        assert!(info.contains("+ Number of storage targets: desired: 2; actual: 2"));
        assert!(ns.entry_info("/absent").is_none());
    }

    #[test]
    fn lustre_entry_info_renders() {
        let mut ns = ns();
        ns.create("/scratch/lus", StripeHint::default(), 0).unwrap();
        let info = ns.entry_info_lustre("/scratch/lus").unwrap();
        assert!(info.starts_with("/scratch/lus\n"));
        assert!(info.contains("lmm_stripe_count:  2"));
        assert!(info.contains("lmm_stripe_size:   524288"));
        assert!(info.contains("obdidx"));
        assert!(ns.entry_info_lustre("/absent").is_none());
    }

    #[test]
    fn stable_hash_is_stable() {
        assert_eq!(stable_hash("abc"), stable_hash("abc"));
        assert_ne!(stable_hash("abc"), stable_hash("abd"));
    }

    #[test]
    fn placement_spreads_first_targets() {
        // Over many files the hash placement must hit every target.
        let mut ns = ns();
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..32 {
            let path = format!("/scratch/spread{i}");
            ns.create(
                &path,
                StripeHint {
                    chunk_size: None,
                    stripe_count: Some(1),
                },
                0,
            )
            .unwrap();
            seen.insert(ns.file(&path).unwrap().targets[0]);
        }
        assert_eq!(seen.len() as u32, ns.config().storage_targets);
        // Deterministic: same path → same placement.
        assert_eq!(ns.file("/scratch/spread0").unwrap().targets, {
            let mut ns2 = super::Namespace::new(crate::config::PfsConfig::test_small());
            ns2.create(
                "/scratch/spread0",
                StripeHint {
                    chunk_size: None,
                    stripe_count: Some(1),
                },
                0,
            )
            .unwrap();
            ns2.file("/scratch/spread0").unwrap().targets.clone()
        });
    }

    /// The index the child lists replaced: every name that exists, in
    /// name order, a directory listed from the key range `dir/`..`dir0`
    /// (`0` being the byte after `/`) that holds exactly its descendants.
    struct RangeIndex {
        /// Name → whether it is a directory.
        present: std::collections::BTreeMap<String, bool>,
    }

    impl RangeIndex {
        fn new() -> RangeIndex {
            let present = [("/".to_owned(), true), ("/scratch".to_owned(), true)];
            RangeIndex {
                present: present.into_iter().collect(),
            }
        }

        fn list(&self, dir: &str) -> Vec<String> {
            use std::ops::Bound;
            let mut from = dir.to_owned();
            if !from.ends_with('/') {
                from.push('/');
            }
            let mut to = from.clone();
            to.pop();
            to.push('0');
            let bounds = (Bound::Included(from.as_str()), Bound::Excluded(to.as_str()));
            let descendants = self.present.range::<str, _>(bounds);
            let of_kind = |dirs: bool| {
                let children = descendants.clone().filter(move |(name, is_dir)| {
                    name.as_str() != dir && parent_dir(name) == dir && **is_dir == dirs
                });
                children.map(|(name, _)| name.clone())
            };
            of_kind(false).chain(of_kind(true)).collect()
        }

        fn place(&mut self, path: &str, dir: bool) -> Result<(), FsError> {
            if self.present.contains_key(path) {
                return Err(FsError::AlreadyExists(path.to_owned()));
            }
            if self.present.get(parent_dir(path)) != Some(&true) {
                return Err(FsError::NoParent(path.to_owned()));
            }
            self.present.insert(path.to_owned(), dir);
            Ok(())
        }

        fn unlink(&mut self, path: &str) -> Result<(), FsError> {
            if self.present.get(path) != Some(&false) {
                return Err(FsError::NotFound(path.to_owned()));
            }
            self.present.remove(path);
            Ok(())
        }

        fn rmdir(&mut self, path: &str) -> Result<(), FsError> {
            if self.present.get(path) != Some(&true) {
                return Err(FsError::NotFound(path.to_owned()));
            }
            if !self.list(path).is_empty() {
                return Err(FsError::NotEmpty(path.to_owned()));
            }
            self.present.remove(path);
            Ok(())
        }

        fn file_count(&self) -> usize {
            self.present.values().filter(|dir| !**dir).count()
        }
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        /// Names around the edges of a key range: siblings that sort
        /// just before (`a.`) and just after (`a0`) a directory's `a/`
        /// prefix, a trailing slash, and names under the root.
        const NAMES: [&str; 14] = [
            "/scratch/a",
            "/scratch/b",
            "/scratch/a/x",
            "/scratch/a/y",
            "/scratch/a/x/f",
            "/scratch/b/a",
            "/scratch/a0",
            "/scratch/a.",
            "/scratch/ab",
            "/scratch/a/",
            "/scratch/a//g",
            "/a",
            "/a/x",
            "/scratch",
        ];

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]
            /// Child lists answer every listing, count and verdict as the
            /// range index did, names never resolved included.
            #[test]
            fn child_lists_equal_the_range_index(
                ops in proptest::collection::vec((0u8..6, 0usize..14), 1..60),
            ) {
                let mut ns = ns();
                let mut model = RangeIndex::new();
                for (op, pick) in ops {
                    let name = NAMES[pick];
                    let ghost = format!("/ghost{pick}/x");
                    let (got, want) = match op {
                        0 => (ns.mkdir(name), model.place(name, true)),
                        1 => (
                            ns.create(name, StripeHint::default(), 0).map(|_| ()),
                            model.place(name, false),
                        ),
                        2 => (ns.unlink(name), model.unlink(name)),
                        3 => (ns.rmdir(name), model.rmdir(name)),
                        4 => (ns.unlink(&ghost), model.unlink(&ghost)),
                        _ => (ns.rmdir(&ghost), model.rmdir(&ghost)),
                    };
                    prop_assert_eq!(got, want);
                    for dir in NAMES.iter().copied().chain(["/", ghost.as_str()]) {
                        let listed: Vec<&str> = ns.list_dir(dir).collect();
                        prop_assert_eq!(listed, model.list(dir));
                        prop_assert_eq!(ns.dir_entries(dir), model.list(dir).len());
                    }
                    prop_assert_eq!(ns.file_count(), model.file_count());
                }
            }
        }
    }
}
