//! The store's tables: schemas, constraints, and rows kept in id order.
//!
//! This plays the role SQLite plays in the paper's prototype (§V-C). It
//! supports exactly what the knowledge cycle needs — typed columns,
//! auto-increment rowids, primary/foreign keys — with a deterministic
//! on-disk representation (see [`crate::persist`]).
//!
//! A table's rows are a `Vec` in ascending id order: the order every
//! writer appends them in and the order a block stores them in. Every
//! foreign-key column is non-decreasing in that order too, because a
//! run's child rows are inserted right after their parent. So a row is
//! found by binary search on its id, and a parent's children by binary
//! search on the foreign key ([`ForeignKeyRows::children`]) or, for a
//! reader visiting parents in ascending order, by one forward walk
//! ([`ForeignKeyRows::walk`]); there is no index to build or keep
//! consistent. An insert that would break either order is refused.

use crate::value::{ColumnType, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;

/// A column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name.
    pub name: String,
    /// Declared type.
    pub ty: ColumnType,
    /// NOT NULL constraint.
    pub not_null: bool,
}

impl Column {
    /// A nullable column.
    #[must_use]
    pub fn new(name: &str, ty: ColumnType) -> Column {
        Column {
            name: name.to_owned(),
            ty,
            not_null: false,
        }
    }

    /// A NOT NULL column.
    #[must_use]
    pub fn required(name: &str, ty: ColumnType) -> Column {
        Column {
            name: name.to_owned(),
            ty,
            not_null: true,
        }
    }
}

/// A foreign-key constraint: `column` must reference an existing rowid of
/// `references_table`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForeignKey {
    /// Referencing column of this table.
    pub column: String,
    /// Referenced table (its rowid).
    pub references_table: String,
}

/// A table schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSchema {
    /// Table name.
    pub name: String,
    /// Columns (rowid is implicit, as in SQLite).
    pub columns: Vec<Column>,
    /// Foreign keys.
    pub foreign_keys: Vec<ForeignKey>,
}

impl TableSchema {
    /// A schema with no constraints.
    #[must_use]
    pub fn new(name: &str, columns: Vec<Column>) -> TableSchema {
        TableSchema {
            name: name.to_owned(),
            columns,
            foreign_keys: Vec::new(),
        }
    }

    /// Add a foreign key (builder style).
    #[must_use]
    pub fn with_fk(mut self, column: &str, references_table: &str) -> TableSchema {
        self.foreign_keys.push(ForeignKey {
            column: column.to_owned(),
            references_table: references_table.to_owned(),
        });
        self
    }

    /// Index of a named column.
    #[must_use]
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Index of a named column, or [`DbError::NoSuchColumn`].
    pub(crate) fn column(&self, name: &str) -> Result<usize, DbError> {
        self.column_index(name)
            .ok_or_else(|| DbError::NoSuchColumn {
                table: self.name.clone(),
                column: name.to_owned(),
            })
    }
}

/// Errors from database operations.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant fields are documented by the variant docs
pub enum DbError {
    /// Unknown table.
    NoSuchTable(String),
    /// Unknown column.
    NoSuchColumn { table: String, column: String },
    /// Wrong number of values for an insert.
    Arity {
        table: String,
        expected: usize,
        got: usize,
    },
    /// Value does not fit the column type.
    TypeMismatch {
        table: String,
        column: String,
        value: String,
    },
    /// NOT NULL violated.
    NotNull { table: String, column: String },
    /// Foreign key references a missing row.
    ForeignKey {
        table: String,
        column: String,
        missing_id: i64,
    },
    /// Creating a table that exists.
    TableExists(String),
    /// Corrupt persistence payload.
    Corrupt(String),
    /// The storage device rejected a write for lack of space (ENOSPC,
    /// quota, or a short write) — transient: retryable after cleanup,
    /// unlike corruption.
    Full(String),
    /// Any other I/O failure while persisting or loading an image.
    Io(String),
    /// The store is serving in degraded, read-only mode and refused a
    /// write.
    ReadOnly(String),
    /// A query was stopped mid-scan because its deadline budget ran out
    /// or cancellation was requested. Carries partial-progress counters
    /// so callers can report how far the scan got.
    Cancelled {
        /// Rows examined before the query stopped.
        examined: usize,
        /// Rows that had matched before the query stopped.
        matched: usize,
    },
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::NoSuchTable(t) => write!(f, "no such table: {t}"),
            DbError::NoSuchColumn { table, column } => {
                write!(f, "no such column: {table}.{column}")
            }
            DbError::Arity {
                table,
                expected,
                got,
            } => {
                write!(f, "{table}: expected {expected} values, got {got}")
            }
            DbError::TypeMismatch {
                table,
                column,
                value,
            } => {
                write!(f, "{table}.{column}: value {value} has wrong type")
            }
            DbError::NotNull { table, column } => {
                write!(f, "{table}.{column}: NOT NULL constraint failed")
            }
            DbError::ForeignKey {
                table,
                column,
                missing_id,
            } => {
                write!(f, "{table}.{column}: FOREIGN KEY row {missing_id} missing")
            }
            DbError::TableExists(t) => write!(f, "table exists: {t}"),
            DbError::Corrupt(msg) => write!(f, "corrupt database image: {msg}"),
            DbError::Full(msg) => write!(f, "storage full: {msg}"),
            DbError::Io(msg) => write!(f, "i/o error: {msg}"),
            DbError::ReadOnly(msg) => write!(f, "store is read-only: {msg}"),
            DbError::Cancelled { examined, matched } => {
                write!(
                    f,
                    "query cancelled after examining {examined} rows ({matched} matched)"
                )
            }
        }
    }
}

impl std::error::Error for DbError {}

/// A row: its rowid plus cell values in schema column order.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Implicit primary key.
    pub id: i64,
    /// Cells.
    pub values: Vec<Value>,
}

/// A table: schema, rows, auto-increment counter.
#[derive(Debug, Clone)]
pub(crate) struct Table {
    pub(crate) schema: TableSchema,
    /// Ascending ids; every foreign-key column non-decreasing.
    pub(crate) rows: Vec<Row>,
    pub(crate) next_id: i64,
}

impl Table {
    /// Where row `id` is (`Ok`) or would go (`Err`).
    fn find(&self, id: i64) -> Result<usize, usize> {
        self.rows.binary_search_by_key(&id, |row| row.id)
    }

    /// Append a row. An id at or below the last row's, or a foreign key
    /// below the last row's, would break the order every look-up relies
    /// on: corruption, naming the table and the row.
    fn push(&mut self, id: i64, values: Vec<Value>) -> Result<(), DbError> {
        self.check_follows(id, &values)?;
        self.next_id = self.next_id.max(id.saturating_add(1));
        self.rows.push(Row { id, values });
        Ok(())
    }

    /// Whether row `id` holding `values` may follow the last row.
    fn check_follows(&self, id: i64, values: &[Value]) -> Result<(), DbError> {
        if let Some(last) = self.rows.last() {
            let name = &self.schema.name;
            if id <= last.id {
                let why = match self.find(id) {
                    Ok(_) => "occurs twice".to_owned(),
                    Err(_) => format!("comes after row {}", last.id),
                };
                return Err(DbError::Corrupt(format!("{name}: row {id} {why}")));
            }
            let schema = &self.schema;
            for ci in schema
                .foreign_keys
                .iter()
                .filter_map(|fk| schema.column_index(&fk.column))
            {
                let (now, before) = (&values[ci], &last.values[ci]);
                if now.total_cmp(before).is_lt() {
                    let column = &schema.columns[ci].name;
                    return Err(DbError::Corrupt(format!(
                        "{name}: row {id}: {column} {now} decreases from {before}"
                    )));
                }
            }
        }
        Ok(())
    }
}

/// A table's rows together with one foreign-key column
/// ([`Database::foreign_key`]).
#[derive(Debug, Clone, Copy)]
pub struct ForeignKeyRows<'a> {
    rows: &'a [Row],
    column: usize,
}

impl<'a> ForeignKeyRows<'a> {
    /// The rows referencing `parent`, in id order: a binary search,
    /// since the column is non-decreasing.
    #[must_use]
    pub fn children(self, parent: i64) -> &'a [Row] {
        &self.rows[self.children_from(None, parent)]
    }

    /// A cursor over the children of many parents ([`ForeignKeyWalk`]).
    #[must_use]
    pub fn walk(self) -> ForeignKeyWalk<'a> {
        ForeignKeyWalk {
            rows: self,
            last: None,
        }
    }

    /// Where the children of `parent` are. With `at`, given that no row
    /// before it references `parent` or anything above, their start is
    /// found by an exponential search forward from `at`: a few
    /// comparisons when it is near, however long the table. Without, by
    /// a binary search over the whole table.
    fn children_from(self, at: Option<usize>, parent: i64) -> Range<usize> {
        let parent = Value::Int(parent);
        let key = |row: &Row| row.values[self.column].total_cmp(&parent);
        let from = match at {
            Some(at) => at + gallop(&self.rows[at..], |row| key(row).is_lt()),
            None => self.rows.partition_point(|row| key(row).is_lt()),
        };
        from..from + gallop(&self.rows[from..], |row| key(row).is_eq())
    }
}

/// The length of the prefix of `rows` that `before` accepts (`before`
/// holds for a prefix and then never again), found by doubling a probe
/// from the front and then a binary search in the last doubling: O(log
/// n) in the answer, not in `rows`.
fn gallop(rows: &[Row], before: impl Fn(&Row) -> bool) -> usize {
    let mut end = 1;
    while end <= rows.len() && before(&rows[end - 1]) {
        end *= 2;
    }
    let lo = end / 2;
    let hi = end.min(rows.len() + 1) - 1;
    lo + rows[lo..hi].partition_point(before)
}

/// A forward cursor over one foreign key ([`ForeignKeyRows::walk`]):
/// `children(parent)` answers exactly what
/// [`ForeignKeyRows::children`] does, for any sequence of parents. A
/// parent at or above the previous one is searched for forward from
/// where the previous one's children start, so a reader that asks for
/// parents in ascending order steps through the table once; the first
/// parent, and one below the previous, are found by the binary search
/// over the whole table.
#[derive(Debug, Clone)]
pub struct ForeignKeyWalk<'a> {
    rows: ForeignKeyRows<'a>,
    /// The previous parent and where its children start: no row before
    /// that references it or anything above it.
    last: Option<(i64, usize)>,
}

impl<'a> ForeignKeyWalk<'a> {
    /// The rows referencing `parent`, in id order.
    pub fn children(&mut self, parent: i64) -> &'a [Row] {
        let at = self.last.filter(|&(last, _)| parent >= last);
        let children = self.rows.children_from(at.map(|(_, from)| from), parent);
        self.last = Some((parent, children.start));
        &self.rows.rows[children]
    }
}

/// Auto-increment counters by table name: the id each table's next
/// [`Database::insert`] would assign.
pub(crate) type Counters = BTreeMap<String, i64>;

/// The database: a set of tables.
#[derive(Debug, Clone, Default)]
pub struct Database {
    pub(crate) tables: BTreeMap<String, Table>,
}

impl Database {
    /// An empty database.
    #[must_use]
    pub fn new() -> Database {
        Database::default()
    }

    /// Create a table.
    pub fn create_table(&mut self, schema: TableSchema) -> Result<(), DbError> {
        if self.tables.contains_key(&schema.name) {
            return Err(DbError::TableExists(schema.name));
        }
        let name = schema.name.clone();
        let table = Table {
            schema,
            rows: Vec::new(),
            next_id: 1,
        };
        self.tables.insert(name, table);
        Ok(())
    }

    fn table(&self, table: &str) -> Result<&Table, DbError> {
        self.tables
            .get(table)
            .ok_or_else(|| DbError::NoSuchTable(table.to_owned()))
    }

    fn table_mut(&mut self, table: &str) -> Result<&mut Table, DbError> {
        self.tables
            .get_mut(table)
            .ok_or_else(|| DbError::NoSuchTable(table.to_owned()))
    }

    /// Table names in deterministic order.
    #[must_use]
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    /// A table's schema.
    pub fn schema(&self, table: &str) -> Result<&TableSchema, DbError> {
        self.table(table).map(|t| &t.schema)
    }

    /// Number of rows in a table.
    pub fn row_count(&self, table: &str) -> Result<usize, DbError> {
        Ok(self.table(table)?.rows.len())
    }

    /// Insert a row (values in schema column order); returns the rowid.
    /// Enforces arity, types, NOT NULL and foreign keys, and refuses a
    /// foreign key below the previous row's.
    pub fn insert(&mut self, table: &str, values: Vec<Value>) -> Result<i64, DbError> {
        let t = self.table(table)?;
        check_cells(&t.schema, &values, true)?;
        for fk in &t.schema.foreign_keys {
            let value = &values[t.schema.column(&fk.column)?];
            if let Some(refid) = value.as_int() {
                if self.table(&fk.references_table)?.find(refid).is_err() {
                    return Err(DbError::ForeignKey {
                        table: table.to_owned(),
                        column: fk.column.clone(),
                        missing_id: refid,
                    });
                }
            } else if !value.is_null() {
                return Err(DbError::TypeMismatch {
                    table: table.to_owned(),
                    column: fk.column.clone(),
                    value: value.to_string(),
                });
            }
        }
        let t = self.table_mut(table)?;
        let id = t.next_id;
        t.push(id, values)?;
        Ok(id)
    }

    /// Insert a row with an explicit id — the restore path of every
    /// block decode and block merge. Validates arity and types but not
    /// that foreign keys resolve (a block is decoded table by table, so
    /// parents may arrive after children; it was FK-consistent when
    /// written). The row must come after the table's last one, in id and
    /// in every foreign key: anything else — an id the table already
    /// holds among them — is [`DbError::Corrupt`].
    pub fn insert_raw(&mut self, table: &str, id: i64, values: Vec<Value>) -> Result<(), DbError> {
        let t = self.table_mut(table)?;
        check_cells(&t.schema, &values, false)?;
        t.push(id, values)
    }

    /// Move every row of `other` to the end of the same table here:
    /// how compaction joins blocks. Each side is in order already, so
    /// only the seam is checked — `other`'s first row must follow this
    /// table's last, as [`Database::insert_raw`] requires — and every
    /// seam before anything moves, so a refused append changes neither.
    pub(crate) fn append(&mut self, other: &mut Database) -> Result<(), DbError> {
        for (name, theirs) in &other.tables {
            if let Some(first) = theirs.rows.first() {
                self.table(name)?.check_follows(first.id, &first.values)?;
            }
        }
        for (name, theirs) in &mut other.tables {
            let ours = self.table_mut(name)?;
            ours.next_id = ours.next_id.max(theirs.next_id);
            ours.rows.append(&mut theirs.rows);
        }
        Ok(())
    }

    /// Every table's auto-increment counter.
    pub(crate) fn next_ids(&self) -> Counters {
        self.tables
            .iter()
            .map(|(name, t)| (name.clone(), t.next_id))
            .collect()
    }

    /// Raise a table's auto-increment counter to at least `next`. Counters
    /// never move backwards, so applying a manifest's counters and
    /// restoring rows (whose `insert_raw` calls advance the counter too)
    /// is safe in either order. Unknown tables are ignored.
    pub(crate) fn bump_next_id(&mut self, table: &str, next: i64) {
        if let Some(t) = self.tables.get_mut(table) {
            t.next_id = t.next_id.max(next);
        }
    }

    /// [`Database::bump_next_id`] for every table in `counters`.
    pub(crate) fn bump_next_ids(&mut self, counters: &Counters) {
        for (table, next) in counters {
            self.bump_next_id(table, *next);
        }
    }

    /// Fetch one row by id: a binary search.
    pub fn get(&self, table: &str, id: i64) -> Result<Option<&Row>, DbError> {
        let t = self.table(table)?;
        Ok(t.find(id).ok().map(|at| &t.rows[at]))
    }

    /// Every row of a table, in ascending id order.
    pub fn rows(&self, table: &str) -> Result<&[Row], DbError> {
        Ok(&self.table(table)?.rows)
    }

    /// `table`'s foreign key `fk`, resolved once: a caller that looks up
    /// the children of many parents names the table and column once,
    /// not once per parent. A column that is not one of the table's
    /// declared foreign keys is [`DbError::NoSuchColumn`].
    pub fn foreign_key(&self, table: &str, fk: &str) -> Result<ForeignKeyRows<'_>, DbError> {
        let t = self.table(table)?;
        let column = t
            .schema
            .foreign_keys
            .iter()
            .find(|key| key.column == fk)
            .and_then(|key| t.schema.column_index(&key.column))
            .ok_or_else(|| DbError::NoSuchColumn {
                table: table.to_owned(),
                column: fk.to_owned(),
            })?;
        Ok(ForeignKeyRows {
            rows: &t.rows,
            column,
        })
    }

    /// Keep only the rows of `table` that `keep` accepts: one pass, the
    /// order of what stays unchanged.
    pub(crate) fn retain(
        &mut self,
        table: &str,
        keep: impl FnMut(&Row) -> bool,
    ) -> Result<(), DbError> {
        self.table_mut(table)?.rows.retain(keep);
        Ok(())
    }
}

/// Arity, NOT NULL (when `not_null`) and types of a row's cells against
/// `schema`.
fn check_cells(schema: &TableSchema, values: &[Value], not_null: bool) -> Result<(), DbError> {
    if values.len() != schema.columns.len() {
        return Err(DbError::Arity {
            table: schema.name.clone(),
            expected: schema.columns.len(),
            got: values.len(),
        });
    }
    for (column, value) in schema.columns.iter().zip(values) {
        if not_null && column.not_null && value.is_null() {
            return Err(DbError::NotNull {
                table: schema.name.clone(),
                column: column.name.clone(),
            });
        }
        if !value.fits(column.ty) {
            return Err(DbError::TypeMismatch {
                table: schema.name.clone(),
                column: column.name.clone(),
                value: value.to_string(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn db_with_perf() -> Database {
        let mut db = Database::new();
        db.create_table(TableSchema::new(
            "performances",
            vec![
                Column::required("command", ColumnType::Text),
                Column::required("api", ColumnType::Text),
                Column::new("tasks", ColumnType::Integer),
            ],
        ))
        .unwrap();
        db.create_table(
            TableSchema::new(
                "summaries",
                vec![
                    Column::required("performance_id", ColumnType::Integer),
                    Column::required("operation", ColumnType::Text),
                    Column::new("mean_mib", ColumnType::Real),
                ],
            )
            .with_fk("performance_id", "performances"),
        )
        .unwrap();
        db
    }

    fn perf(db: &mut Database, tasks: i64) -> i64 {
        let cells = vec![Value::from("ior"), Value::from("POSIX"), Value::Int(tasks)];
        db.insert("performances", cells).unwrap()
    }

    fn summary(db: &mut Database, pid: i64) -> Result<i64, DbError> {
        db.insert(
            "summaries",
            vec![Value::from(pid), Value::from("write"), Value::from(2850.12)],
        )
    }

    #[test]
    fn insert_and_get() {
        let mut db = db_with_perf();
        let id = db
            .insert(
                "performances",
                vec![
                    Value::from("ior -w"),
                    Value::from("MPIIO"),
                    Value::from(80u32),
                ],
            )
            .unwrap();
        assert_eq!(id, 1);
        let row = db.get("performances", id).unwrap().unwrap();
        assert_eq!(row.values[0], Value::from("ior -w"));
        assert!(db.get("performances", 99).unwrap().is_none());
    }

    #[test]
    fn constraints_enforced() {
        let mut db = db_with_perf();
        // Arity.
        assert!(matches!(
            db.insert("performances", vec![Value::from("x")]),
            Err(DbError::Arity { .. })
        ));
        // NOT NULL.
        assert!(matches!(
            db.insert(
                "performances",
                vec![Value::Null, Value::from("a"), Value::Null]
            ),
            Err(DbError::NotNull { .. })
        ));
        // Type mismatch.
        assert!(matches!(
            db.insert(
                "performances",
                vec![Value::from("c"), Value::from(1i64), Value::Null]
            ),
            Err(DbError::TypeMismatch { .. })
        ));
        // FK violation.
        assert!(matches!(
            db.insert(
                "summaries",
                vec![Value::from(7i64), Value::from("write"), Value::from(1.0)]
            ),
            Err(DbError::ForeignKey { missing_id: 7, .. })
        ));
        // Unknown table.
        assert!(matches!(
            db.insert("nope", vec![]),
            Err(DbError::NoSuchTable(_))
        ));
    }

    #[test]
    fn foreign_key_accepts_existing_parent() {
        let mut db = db_with_perf();
        let pid = db
            .insert(
                "performances",
                vec![Value::from("ior"), Value::from("POSIX"), Value::Null],
            )
            .unwrap();
        let sid = db
            .insert(
                "summaries",
                vec![Value::from(pid), Value::from("write"), Value::from(2850.12)],
            )
            .unwrap();
        assert_eq!(sid, 1);
    }

    /// Selection goes through the SQL layer: equality, a range with
    /// ORDER BY DESC and LIMIT, LIKE, and an AND chain over one table.
    #[test]
    fn select_with_predicates_order_limit() {
        use crate::sql::query;
        let mut db = db_with_perf();
        for (cmd, api, tasks) in [
            ("ior -b 4m", "MPIIO", 80i64),
            ("ior -b 8m", "POSIX", 40),
            ("ior -b 16m", "MPIIO", 20),
        ] {
            db.insert(
                "performances",
                vec![Value::from(cmd), Value::from(api), Value::Int(tasks)],
            )
            .unwrap();
        }
        let mpiio = query(&db, "SELECT * FROM performances WHERE api = 'MPIIO'").unwrap();
        assert_eq!(mpiio.len(), 2);

        let big = query(
            &db,
            "SELECT * FROM performances WHERE tasks > 30 ORDER BY tasks DESC LIMIT 1",
        )
        .unwrap();
        assert_eq!(big.len(), 1);
        assert_eq!(big[0].values[2], Value::Int(80));

        let like = query(&db, "SELECT * FROM performances WHERE command LIKE '%8m%'").unwrap();
        assert_eq!(like.len(), 1);

        let compound = query(
            &db,
            "SELECT * FROM performances WHERE api = 'MPIIO' AND tasks < 50",
        )
        .unwrap();
        assert_eq!(compound.len(), 1);
        assert_eq!(compound[0].values[0], Value::from("ior -b 16m"));
    }

    #[test]
    fn select_on_unknown_column_errors() {
        use crate::sql::{query, SqlError};
        let db = db_with_perf();
        assert!(matches!(
            query(&db, "SELECT * FROM performances WHERE ghost = NULL"),
            Err(SqlError::Db(DbError::NoSuchColumn { .. }))
        ));
    }

    /// Rows arrive in id order and every foreign key in non-decreasing
    /// order; what would break either is refused, whichever way it comes.
    #[test]
    fn rows_stay_in_id_and_foreign_key_order() {
        let mut db = db_with_perf();
        let (first, second) = (perf(&mut db, 1), perf(&mut db, 2));
        summary(&mut db, second).unwrap();
        let refused = summary(&mut db, first).unwrap_err();
        assert!(
            matches!(&refused, DbError::Corrupt(e) if e == "summaries: row 2: performance_id 1 decreases from 2"),
            "{refused}"
        );
        let cells = || vec![Value::from("ior"), Value::from("POSIX"), Value::Null];
        for (id, why) in [(2, "row 2 occurs twice"), (0, "row 0 comes after row 2")] {
            let refused = db.insert_raw("performances", id, cells()).unwrap_err();
            assert!(
                matches!(&refused, DbError::Corrupt(e) if e.ends_with(why)),
                "{refused}"
            );
        }
        db.insert_raw("performances", 9, cells()).unwrap();
        assert_eq!(perf(&mut db, 3), 10, "the counter follows restored ids");
        let ids: Vec<i64> = db
            .rows("performances")
            .unwrap()
            .iter()
            .map(|r| r.id)
            .collect();
        assert_eq!(ids, [1, 2, 9, 10]);
    }

    #[test]
    fn children_are_the_run_of_rows_their_key_selects() {
        let mut db = db_with_perf();
        let parents: Vec<i64> = (0..4).map(|tasks| perf(&mut db, tasks)).collect();
        for (n, pid) in parents.iter().enumerate() {
            for _ in 0..n % 3 {
                summary(&mut db, *pid).unwrap();
            }
        }
        for parent in 0..=5 {
            let filtered: Vec<&Row> = db
                .rows("summaries")
                .unwrap()
                .iter()
                .filter(|r| r.values[0] == Value::Int(parent))
                .collect();
            let children = db
                .foreign_key("summaries", "performance_id")
                .unwrap()
                .children(parent);
            assert_eq!(
                children.iter().collect::<Vec<_>>(),
                filtered,
                "parent {parent}"
            );
        }
        // Only a declared foreign key is a range.
        assert!(matches!(
            db.foreign_key("summaries", "operation"),
            Err(DbError::NoSuchColumn { .. })
        ));
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        /// One foreign-key column as a table's rows: NULL keys first (they
        /// order below every number), then non-decreasing keys with gaps
        /// and repeats, some stored as integral REALs.
        fn fk_rows() -> impl Strategy<Value = Vec<Row>> {
            let steps = proptest::collection::vec((0i64..3, any::<bool>(), 0usize..3), 0..40);
            (0usize..3, steps).prop_map(|(nulls, steps)| {
                let mut keys = vec![Value::Null; nulls];
                let mut key = 0;
                for (gap, real, copies) in steps {
                    key += gap;
                    let cell = if real {
                        Value::Real(key as f64)
                    } else {
                        Value::Int(key)
                    };
                    keys.extend(std::iter::repeat_n(cell, copies));
                }
                let rows = keys.into_iter().enumerate();
                rows.map(|(i, key)| Row {
                    id: i as i64 + 1,
                    values: vec![key],
                })
                .collect()
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]
            /// A walk answers what the binary search answers, and that is
            /// what a linear filter finds, for parents asked in any order:
            /// random, ascending, descending, each twice in a row, and
            /// parents no row references.
            #[test]
            fn a_walk_answers_what_the_binary_search_answers(
                rows in fk_rows(),
                parents in proptest::collection::vec(-2i64..90, 0..30),
            ) {
                let fk = ForeignKeyRows { rows: &rows, column: 0 };
                let mut ascending = parents.clone();
                ascending.sort_unstable();
                let descending: Vec<i64> = ascending.iter().rev().copied().collect();
                let repeated: Vec<i64> = parents.iter().flat_map(|&p| [p, p]).collect();
                for sequence in [parents, ascending, descending, repeated] {
                    let mut walk = fk.walk();
                    for parent in sequence {
                        let linear: Vec<&Row> = rows
                            .iter()
                            .filter(|r| r.values[0].total_cmp(&Value::Int(parent)).is_eq())
                            .collect();
                        prop_assert_eq!(fk.children(parent).iter().collect::<Vec<_>>(), linear);
                        prop_assert_eq!(walk.children(parent), fk.children(parent));
                    }
                }
            }
        }
    }

    #[test]
    fn retain_deletes_rows_and_keeps_the_order_of_the_rest() {
        let mut db = db_with_perf();
        for tasks in 0..10 {
            perf(&mut db, tasks);
        }
        db.retain("performances", |row| row.values[2].as_int() > Some(4))
            .unwrap();
        let ids: Vec<i64> = db
            .rows("performances")
            .unwrap()
            .iter()
            .map(|r| r.id)
            .collect();
        assert_eq!(ids, [6, 7, 8, 9, 10]);
        // Appending continues past the deleted ids.
        assert_eq!(perf(&mut db, 0), 11);
        assert!(matches!(
            db.retain("nope", |_| true),
            Err(DbError::NoSuchTable(_))
        ));
    }
}
