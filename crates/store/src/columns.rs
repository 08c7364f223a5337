//! A block's run summaries held column-wise.
//!
//! Every read that answers an explorer view — a filter page, an
//! aggregate, a comparison — is a fold over a few summary fields of many
//! runs. [`SummaryColumns`] keeps those fields of one kind's runs in one
//! block as one fixed-width column per numeric field (plus the run's
//! [`RunSummary::bandwidth`]), the `api` and operation names as codes
//! into a per-block dictionary, the commands in one string arena and the
//! operation statistics as a flattened range per row, so a scan touches
//! only the columns its predicate or fold reads. Rows are in ascending
//! id. A [`RunRow`] is a borrowed view of one row; a [`RunSummary`] is
//! built only for a row a caller keeps ([`RunRow::to_summary`]).
//!
//! The columns are derived from the same [`RunSummary`] rows a block's
//! relational rows project to (`BlockReader`): a save appends the row
//! it derived, a delete of an active run removes it, a decoded body
//! pushes every row, and compaction appends whole blocks.

use crate::query::{OpStat, RunKind, RunSummary};
use std::collections::BTreeMap;

/// A block's run summaries: one [`SummaryColumns`] per kind.
#[derive(Debug, Clone)]
pub struct Summaries {
    by_kind: [SummaryColumns; 2],
}

impl Default for Summaries {
    fn default() -> Summaries {
        Summaries {
            by_kind: RunKind::ALL.map(SummaryColumns::new),
        }
    }
}

impl Summaries {
    /// The columns of one kind's runs, ids ascending.
    #[must_use]
    pub fn of(&self, kind: RunKind) -> &SummaryColumns {
        &self.by_kind[kind as usize]
    }

    /// Append the summary of a run whose id is above every id of its
    /// kind here.
    pub(crate) fn push(&mut self, s: &RunSummary) {
        self.by_kind[s.kind as usize].push(s);
    }

    /// Append every row of `other`, whose ids of each kind are all above
    /// every id of that kind here.
    pub(crate) fn append(&mut self, other: &Summaries) {
        for (into, from) in self.by_kind.iter_mut().zip(&other.by_kind) {
            into.append(from);
        }
    }

    /// Remove run `(kind, id)`; returns whether it was here.
    pub(crate) fn remove(&mut self, kind: RunKind, id: u64) -> bool {
        self.by_kind[kind as usize].remove(id)
    }

    /// Whether run `(kind, id)` is here.
    #[must_use]
    pub fn contains(&self, kind: RunKind, id: u64) -> bool {
        self.of(kind).position(id).is_some()
    }

    /// How many runs of both kinds.
    #[must_use]
    pub fn len(&self) -> usize {
        self.by_kind.iter().map(SummaryColumns::len).sum()
    }

    /// Whether there is no run.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every row, in `(kind, id)` order.
    pub fn values(&self) -> impl Iterator<Item = RunRow<'_>> + Clone {
        self.by_kind.iter().flat_map(SummaryColumns::rows)
    }

    /// Every run's `(kind, id)`, in that order.
    pub fn keys(&self) -> impl Iterator<Item = (RunKind, u64)> + '_ {
        self.values().map(|row| (row.kind(), row.id()))
    }

    /// Every row as an owned [`RunSummary`], in `(kind, id)` order.
    #[must_use]
    pub fn to_rows(&self) -> Vec<RunSummary> {
        self.values().map(RunRow::to_summary).collect()
    }
}

/// Two blocks' summaries are equal when their rows are, whatever their
/// dictionaries hold.
impl PartialEq for Summaries {
    fn eq(&self, other: &Summaries) -> bool {
        self.to_rows() == other.to_rows()
    }
}

/// Summaries equal a `(kind, id)`-keyed map holding the same rows.
impl PartialEq<BTreeMap<(RunKind, u64), RunSummary>> for Summaries {
    fn eq(&self, other: &BTreeMap<(RunKind, u64), RunSummary>) -> bool {
        self.to_rows().iter().eq(other.values())
    }
}

/// The summary columns of one kind's runs in one block, ids ascending.
#[derive(Debug, Clone)]
pub struct SummaryColumns {
    kind: RunKind,
    ids: Vec<u64>,
    tasks: Vec<u32>,
    block_size: Vec<u64>,
    transfer_size: Vec<u64>,
    segments: Vec<u64>,
    clients_per_node: Vec<u32>,
    bw_score: Vec<f64>,
    md_score: Vec<f64>,
    total_score: Vec<f64>,
    warning_count: Vec<usize>,
    bandwidth: Vec<f64>,
    /// Each row's api, a code into `names`.
    api: Vec<u32>,
    /// Where each row's command ends in `commands`; it starts where the
    /// previous row's ends.
    command_end: Vec<usize>,
    commands: String,
    /// Where each row's operation statistics end in the `op_*` columns;
    /// they start where the previous row's end.
    ops_end: Vec<usize>,
    op_name: Vec<u32>,
    op_mean_mib: Vec<f64>,
    op_max_mib: Vec<f64>,
    op_mean_ops: Vec<f64>,
    /// The api and operation names, each once; a code is an index. A
    /// name no row uses any more (its rows were deleted) stays.
    names: Vec<String>,
}

impl SummaryColumns {
    /// No runs of `kind`.
    #[must_use]
    pub fn new(kind: RunKind) -> SummaryColumns {
        SummaryColumns {
            kind,
            ids: Vec::new(),
            tasks: Vec::new(),
            block_size: Vec::new(),
            transfer_size: Vec::new(),
            segments: Vec::new(),
            clients_per_node: Vec::new(),
            bw_score: Vec::new(),
            md_score: Vec::new(),
            total_score: Vec::new(),
            warning_count: Vec::new(),
            bandwidth: Vec::new(),
            api: Vec::new(),
            command_end: Vec::new(),
            commands: String::new(),
            ops_end: Vec::new(),
            op_name: Vec::new(),
            op_mean_mib: Vec::new(),
            op_max_mib: Vec::new(),
            op_mean_ops: Vec::new(),
            names: Vec::new(),
        }
    }

    /// The kind of every row.
    #[must_use]
    pub fn kind(&self) -> RunKind {
        self.kind
    }

    /// How many rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether there are no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The row at index `at`.
    #[must_use]
    pub fn row(&self, at: usize) -> RunRow<'_> {
        RunRow { cols: self, at }
    }

    /// Every row, ids ascending.
    pub fn rows(&self) -> impl Iterator<Item = RunRow<'_>> + Clone {
        (0..self.len()).map(|at| self.row(at))
    }

    /// The index of run `id`, if present.
    #[must_use]
    pub fn position(&self, id: u64) -> Option<usize> {
        self.ids.binary_search(&id).ok()
    }

    /// The dictionary code of `name`, if some row of this block ever
    /// carried it.
    pub(crate) fn code(&self, name: &str) -> Option<u32> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|at| at as u32)
    }

    /// The name a dictionary code stands for.
    pub(crate) fn name(&self, code: u32) -> &str {
        &self.names[code as usize]
    }

    fn intern(&mut self, name: &str) -> u32 {
        self.code(name).unwrap_or_else(|| {
            self.names.push(name.to_owned());
            (self.names.len() - 1) as u32
        })
    }

    /// Append `s`, whose kind is this block's and whose id is above
    /// every id here.
    pub(crate) fn push(&mut self, s: &RunSummary) {
        debug_assert_eq!(s.kind, self.kind);
        debug_assert!(self.ids.last().is_none_or(|&last| last < s.id));
        self.ids.push(s.id);
        self.tasks.push(s.tasks);
        self.block_size.push(s.block_size);
        self.transfer_size.push(s.transfer_size);
        self.segments.push(s.segments);
        self.clients_per_node.push(s.clients_per_node);
        self.bw_score.push(s.bw_score);
        self.md_score.push(s.md_score);
        self.total_score.push(s.total_score);
        self.warning_count.push(s.warning_count);
        self.bandwidth.push(s.bandwidth());
        let api = self.intern(&s.api);
        self.api.push(api);
        self.commands.push_str(&s.command);
        self.command_end.push(self.commands.len());
        for op in &s.ops {
            let name = self.intern(&op.operation);
            self.op_name.push(name);
            self.op_mean_mib.push(op.mean_mib);
            self.op_max_mib.push(op.max_mib);
            self.op_mean_ops.push(op.mean_ops);
        }
        self.ops_end.push(self.op_name.len());
    }

    /// Append every row of `other`, whose kind is this block's and whose
    /// ids are all above every id here.
    pub(crate) fn append(&mut self, other: &SummaryColumns) {
        debug_assert_eq!(other.kind, self.kind);
        let codes: Vec<u32> = other.names.iter().map(|n| self.intern(n)).collect();
        let (command_base, ops_base) = (self.commands.len(), self.op_name.len());
        self.ids.extend_from_slice(&other.ids);
        self.tasks.extend_from_slice(&other.tasks);
        self.block_size.extend_from_slice(&other.block_size);
        self.transfer_size.extend_from_slice(&other.transfer_size);
        self.segments.extend_from_slice(&other.segments);
        self.clients_per_node
            .extend_from_slice(&other.clients_per_node);
        self.bw_score.extend_from_slice(&other.bw_score);
        self.md_score.extend_from_slice(&other.md_score);
        self.total_score.extend_from_slice(&other.total_score);
        self.warning_count.extend_from_slice(&other.warning_count);
        self.bandwidth.extend_from_slice(&other.bandwidth);
        self.api
            .extend(other.api.iter().map(|&c| codes[c as usize]));
        self.command_end
            .extend(other.command_end.iter().map(|end| end + command_base));
        self.commands.push_str(&other.commands);
        self.ops_end
            .extend(other.ops_end.iter().map(|end| end + ops_base));
        self.op_name
            .extend(other.op_name.iter().map(|&c| codes[c as usize]));
        self.op_mean_mib.extend_from_slice(&other.op_mean_mib);
        self.op_max_mib.extend_from_slice(&other.op_max_mib);
        self.op_mean_ops.extend_from_slice(&other.op_mean_ops);
    }

    /// Remove run `id`; returns whether it was here.
    pub(crate) fn remove(&mut self, id: u64) -> bool {
        let Some(at) = self.position(id) else {
            return false;
        };
        let commands = self.span(&self.command_end, at);
        let ops = self.span(&self.ops_end, at);
        self.ids.remove(at);
        self.tasks.remove(at);
        self.block_size.remove(at);
        self.transfer_size.remove(at);
        self.segments.remove(at);
        self.clients_per_node.remove(at);
        self.bw_score.remove(at);
        self.md_score.remove(at);
        self.total_score.remove(at);
        self.warning_count.remove(at);
        self.bandwidth.remove(at);
        self.api.remove(at);
        self.command_end.remove(at);
        self.commands.drain(commands.clone());
        for end in &mut self.command_end[at..] {
            *end -= commands.len();
        }
        self.ops_end.remove(at);
        self.op_name.drain(ops.clone());
        self.op_mean_mib.drain(ops.clone());
        self.op_max_mib.drain(ops.clone());
        self.op_mean_ops.drain(ops.clone());
        for end in &mut self.ops_end[at..] {
            *end -= ops.len();
        }
        true
    }

    /// Row `at`'s range in a flattened column whose row ends are `ends`.
    fn span(&self, ends: &[usize], at: usize) -> std::ops::Range<usize> {
        let start = if at == 0 { 0 } else { ends[at - 1] };
        start..ends[at]
    }
}

/// A borrowed view of one row of a [`SummaryColumns`]: the fields of a
/// [`RunSummary`], read from the columns.
#[derive(Clone, Copy)]
pub struct RunRow<'a> {
    cols: &'a SummaryColumns,
    at: usize,
}

impl<'a> RunRow<'a> {
    /// The columns the row is in.
    pub(crate) fn columns(self) -> &'a SummaryColumns {
        self.cols
    }

    /// The row's index in its columns.
    pub(crate) fn at(self) -> usize {
        self.at
    }

    /// Which id space.
    #[must_use]
    pub fn kind(self) -> RunKind {
        self.cols.kind
    }

    /// Run id.
    #[must_use]
    pub fn id(self) -> u64 {
        self.cols.ids[self.at]
    }

    /// Benchmark command (`"io500"` for IO500 runs).
    #[must_use]
    pub fn command(self) -> &'a str {
        &self.cols.commands[self.cols.span(&self.cols.command_end, self.at)]
    }

    /// API (`""` for IO500 runs).
    #[must_use]
    pub fn api(self) -> &'a str {
        self.cols.name(self.api_code())
    }

    /// The row's api as a code of its block's dictionary.
    pub(crate) fn api_code(self) -> u32 {
        self.cols.api[self.at]
    }

    /// Task count.
    #[must_use]
    pub fn tasks(self) -> u32 {
        self.cols.tasks[self.at]
    }

    /// Block size in bytes (0 for IO500).
    #[must_use]
    pub fn block_size(self) -> u64 {
        self.cols.block_size[self.at]
    }

    /// Transfer size in bytes (0 for IO500).
    #[must_use]
    pub fn transfer_size(self) -> u64 {
        self.cols.transfer_size[self.at]
    }

    /// IO500 bandwidth score (0 for benchmarks).
    #[must_use]
    pub fn bw_score(self) -> f64 {
        self.cols.bw_score[self.at]
    }

    /// IO500 metadata score (0 for benchmarks).
    #[must_use]
    pub fn md_score(self) -> f64 {
        self.cols.md_score[self.at]
    }

    /// IO500 total score (0 for benchmarks).
    #[must_use]
    pub fn total_score(self) -> f64 {
        self.cols.total_score[self.at]
    }

    /// Number of extraction warnings attached to the run.
    #[must_use]
    pub fn warning_count(self) -> usize {
        self.cols.warning_count[self.at]
    }

    /// [`RunSummary::bandwidth`] of the row.
    #[must_use]
    pub fn bandwidth(self) -> f64 {
        self.cols.bandwidth[self.at]
    }

    /// The range of the row's operation statistics in the `op_*` columns.
    fn ops(self) -> std::ops::Range<usize> {
        self.cols.span(&self.cols.ops_end, self.at)
    }

    /// Whether the row has statistics for the operation `code` names.
    pub(crate) fn has_op(self, code: u32) -> bool {
        self.cols.op_name[self.ops()].contains(&code)
    }

    /// The mean bandwidth of one operation, as [`RunSummary::op`] finds
    /// it: the first statistics of that name.
    #[must_use]
    pub fn op_mean_mib(self, operation: &str) -> Option<f64> {
        let code = self.cols.code(operation)?;
        let ops = self.ops();
        let found = self.cols.op_name[ops.clone()]
            .iter()
            .position(|&c| c == code);
        found.map(|i| self.cols.op_mean_mib[ops.start + i])
    }

    /// The row as an owned [`RunSummary`].
    #[must_use]
    pub fn to_summary(self) -> RunSummary {
        let cols = self.cols;
        let at = self.at;
        RunSummary {
            kind: cols.kind,
            id: self.id(),
            command: self.command().to_owned(),
            api: self.api().to_owned(),
            tasks: cols.tasks[at],
            block_size: cols.block_size[at],
            transfer_size: cols.transfer_size[at],
            segments: cols.segments[at],
            clients_per_node: cols.clients_per_node[at],
            ops: self
                .ops()
                .map(|i| OpStat {
                    operation: cols.name(cols.op_name[i]).to_owned(),
                    mean_mib: cols.op_mean_mib[i],
                    max_mib: cols.op_max_mib[i],
                    mean_ops: cols.op_mean_ops[i],
                })
                .collect(),
            bw_score: cols.bw_score[at],
            md_score: cols.md_score[at],
            total_score: cols.total_score[at],
            warning_count: cols.warning_count[at],
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::knowledge_store::{BlockReader, KnowledgeStore};
    use crate::vfs::{FaultVfs, Vfs};
    use iokc_core::model::{
        Io500Knowledge, Knowledge, KnowledgeItem, KnowledgeSource, OperationSummary,
    };
    use proptest::prelude::*;
    use std::path::PathBuf;
    use std::sync::Arc;

    /// Run `n`: either kind, several apis (the empty one too),
    /// commands with multi-byte characters, zero to three operations
    /// in varying order, and warnings.
    fn item(n: u8) -> KnowledgeItem {
        if n % 6 == 5 {
            return KnowledgeItem::Io500(Io500Knowledge {
                id: None,
                tasks: u32::from(n),
                bw_score: f64::from(n) / 4.0,
                md_score: f64::from(n) * 3.0,
                total_score: f64::from(n),
                testcases: Vec::new(),
                options: Default::default(),
                system: None,
                start_time: 0,
                warnings: vec!["partial".into(); usize::from(n % 3)],
            });
        }
        let api = ["POSIX", "MPIIO", "", "HDF5"][usize::from(n % 4)];
        let mut k = Knowledge::new(KnowledgeSource::Ior, &format!("ior -a {api} -o /µ/{n}"));
        k.pattern.api = api.to_owned();
        k.pattern.tasks = u32::from(n) * 7;
        k.pattern.block_size = u64::from(n) << 20;
        k.pattern.transfer_size = u64::from(n % 5) << 10;
        k.pattern.segments = u64::from(n % 3);
        k.pattern.clients_per_node = u32::from(n % 4);
        let ops = [["write", "read", "stat"], ["read", "write", "stat"]][usize::from(n % 2)];
        for (i, op) in ops.iter().take(usize::from(n % 4)).enumerate() {
            k.summaries.push(OperationSummary {
                operation: (*op).to_owned(),
                api: api.to_owned(),
                max_mib: f64::from(n) * 2.0,
                min_mib: 0.0,
                mean_mib: f64::from(n) + i as f64,
                stddev_mib: 0.0,
                mean_ops: f64::from(n) / 3.0,
                iterations: 1,
            });
        }
        if n.is_multiple_of(7) {
            k = k.with_warning("w");
        }
        KnowledgeItem::Benchmark(k)
    }

    #[derive(Debug, Clone)]
    enum Step {
        Save(u8),
        Batch(Vec<u8>),
        Delete(RunKind, u64),
        Seal,
        Compact,
        Reopen,
    }

    fn arb_step() -> impl Strategy<Value = Step> {
        let save = || any::<u8>().prop_map(Step::Save);
        let batch = || proptest::collection::vec(any::<u8>(), 0..6).prop_map(Step::Batch);
        let delete = || {
            (any::<bool>(), 1u64..40).prop_map(|(io500, id)| {
                Step::Delete([RunKind::Benchmark, RunKind::Io500][usize::from(io500)], id)
            })
        };
        // Mostly writes, so blocks fill between the structural steps.
        prop_oneof![
            save(),
            save(),
            save(),
            batch(),
            batch(),
            delete(),
            delete(),
            delete(),
            Just(Step::Seal),
            Just(Step::Compact),
            Just(Step::Reopen),
        ]
    }

    /// Every block in memory — the active one and each resident
    /// sealed body — materializes to exactly the summaries its own
    /// rows derive (`BlockReader`, with no column code on the way).
    fn columns_are_their_rows(store: &KnowledgeStore) {
        let resident = store.segments.iter().filter_map(|seg| seg.resident());
        for block in std::iter::once(Arc::clone(&store.active)).chain(resident) {
            let model = BlockReader::many(&block.db).summaries().unwrap();
            let model: Vec<RunSummary> = model.into_values().collect();
            prop_assert_eq!(block.summaries.to_rows(), model);
        }
        prop_assert!(store.indexes_consistent().unwrap());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn the_columns_of_every_resident_block_are_its_rows(
            steps in proptest::collection::vec(arb_step(), 1..40),
            seal_threshold in 2usize..6,
        ) {
            let vfs: Arc<dyn Vfs> = Arc::new(FaultVfs::pristine());
            let open = || {
                let path = PathBuf::from("/kb.json");
                let mut store = KnowledgeStore::open_with_vfs(path, Arc::clone(&vfs)).unwrap();
                store.set_seal_threshold(seal_threshold);
                store
            };
            let mut store = open();
            for step in &steps {
                match step {
                    Step::Save(n) => match item(*n) {
                        KnowledgeItem::Benchmark(k) => drop(store.save_knowledge(&k).unwrap()),
                        KnowledgeItem::Io500(k) => drop(store.save_io500(&k).unwrap()),
                    },
                    Step::Batch(ns) => {
                        let items: Vec<KnowledgeItem> = ns.iter().map(|&n| item(n)).collect();
                        store.save_batch(&items).unwrap();
                    }
                    Step::Delete(RunKind::Benchmark, id) => {
                        store.delete_knowledge(*id).unwrap();
                    }
                    Step::Delete(RunKind::Io500, id) => drop(store.delete_io500(*id).unwrap()),
                    Step::Seal => store.seal_active().unwrap(),
                    Step::Compact => drop(store.compact().unwrap()),
                    Step::Reopen => store = open(),
                }
                columns_are_their_rows(&store);
                if matches!(step, Step::Reopen) {
                    let loaded = store.segments.iter().filter(|s| s.resident().is_some());
                    prop_assert_eq!(loaded.count(), 0, "the check loads no body");
                }
            }
            // Every body loaded, each is checked too.
            store.snapshot().materialize().unwrap();
            columns_are_their_rows(&store);
        }
    }
}
