//! The embedded relational engine: schemas, tables, constraints, indexes
//! and queries.
//!
//! This plays the role SQLite plays in the paper's prototype (§V-C). It
//! supports exactly what the knowledge cycle needs — typed columns,
//! auto-increment rowids, primary/foreign keys, secondary indexes,
//! predicate queries with ordering and limits — with a deterministic
//! on-disk representation (see [`crate::persist`]).

use crate::value::{ColumnType, Value};
use std::collections::BTreeMap;
use std::fmt;

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
    /// Columns with secondary indexes.
    pub indexes: Vec<String>,
}

impl TableSchema {
    /// A schema with no constraints.
    #[must_use]
    pub fn new(name: &str, columns: Vec<Column>) -> TableSchema {
        TableSchema {
            name: name.to_owned(),
            columns,
            foreign_keys: Vec::new(),
            indexes: Vec::new(),
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

    /// Add a secondary index (builder style).
    #[must_use]
    pub fn with_index(mut self, column: &str) -> TableSchema {
        self.indexes.push(column.to_owned());
        self
    }

    /// Index of a named column.
    #[must_use]
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
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

/// A filter predicate over rows.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Always true.
    True,
    /// `column = value`.
    Eq(String, Value),
    /// `column != value`.
    Ne(String, Value),
    /// `column < value`.
    Lt(String, Value),
    /// `column <= value`.
    Le(String, Value),
    /// `column > value`.
    Gt(String, Value),
    /// `column >= value`.
    Ge(String, Value),
    /// `column LIKE '%text%'` (substring containment).
    Contains(String, String),
    /// Conjunction.
    And(Box<Predicate>, Box<Predicate>),
    /// Disjunction.
    Or(Box<Predicate>, Box<Predicate>),
}

impl Predicate {
    /// Conjunction helper.
    #[must_use]
    pub fn and(self, other: Predicate) -> Predicate {
        Predicate::And(Box::new(self), Box::new(other))
    }

    /// Disjunction helper.
    #[must_use]
    pub fn or(self, other: Predicate) -> Predicate {
        Predicate::Or(Box::new(self), Box::new(other))
    }

    fn eval(&self, schema: &TableSchema, row: &Row) -> Result<bool, DbError> {
        let cell = |name: &str| -> Result<Value, DbError> {
            if name == "id" {
                return Ok(Value::Int(row.id));
            }
            let idx = schema
                .column_index(name)
                .ok_or_else(|| DbError::NoSuchColumn {
                    table: schema.name.clone(),
                    column: name.to_owned(),
                })?;
            Ok(row.values[idx].clone())
        };
        Ok(match self {
            Predicate::True => true,
            Predicate::Eq(c, v) => cell(c)?.total_cmp(v).is_eq(),
            Predicate::Ne(c, v) => !cell(c)?.total_cmp(v).is_eq(),
            Predicate::Lt(c, v) => cell(c)?.total_cmp(v).is_lt(),
            Predicate::Le(c, v) => cell(c)?.total_cmp(v).is_le(),
            Predicate::Gt(c, v) => cell(c)?.total_cmp(v).is_gt(),
            Predicate::Ge(c, v) => cell(c)?.total_cmp(v).is_ge(),
            Predicate::Contains(c, text) => cell(c)?
                .as_text()
                .map(|t| t.contains(text.as_str()))
                .unwrap_or(false),
            Predicate::And(a, b) => a.eval(schema, row)? && b.eval(schema, row)?,
            Predicate::Or(a, b) => a.eval(schema, row)? || b.eval(schema, row)?,
        })
    }
}

/// Sort order for queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OrderBy {
    /// Rowid ascending (insertion order).
    Id,
    /// A column ascending.
    Asc(String),
    /// A column descending.
    Desc(String),
}

/// A table: schema, rows, auto-increment counter, secondary indexes.
#[derive(Debug, Clone)]
pub(crate) struct Table {
    pub(crate) schema: TableSchema,
    pub(crate) rows: BTreeMap<i64, Vec<Value>>,
    pub(crate) next_id: i64,
    /// column name → value → rowids.
    pub(crate) secondary: BTreeMap<String, BTreeMap<Value, Vec<i64>>>,
}

impl Table {
    fn new(schema: TableSchema) -> Table {
        let secondary = schema
            .indexes
            .iter()
            .map(|c| (c.clone(), BTreeMap::new()))
            .collect();
        Table {
            schema,
            rows: BTreeMap::new(),
            next_id: 1,
            secondary,
        }
    }

    fn index_insert(&mut self, id: i64, values: &[Value]) {
        for (column, index) in &mut self.secondary {
            if let Some(ci) = self.schema.column_index(column) {
                index.entry(values[ci].clone()).or_default().push(id);
            }
        }
    }

    fn index_remove(&mut self, id: i64, values: &[Value]) {
        for (column, index) in &mut self.secondary {
            if let Some(ci) = self.schema.column_index(column) {
                if let Some(ids) = index.get_mut(&values[ci]) {
                    ids.retain(|x| *x != id);
                    if ids.is_empty() {
                        index.remove(&values[ci]);
                    }
                }
            }
        }
    }
}

/// Find one indexable conjunct in the predicate's top-level `AND` chain
/// and return the candidate rowids it selects. Equality wins over a
/// range bound (it is more selective); `Or`/`Not`-shaped predicates and
/// non-indexed columns fall back to a scan (`None`). Because `Value`'s
/// `Ord` is exactly the comparison `Predicate::eval` uses, a range over
/// the index's key space selects precisely the rows the conjunct
/// accepts, so the full predicate re-evaluated on candidates stays the
/// single source of truth.
fn indexable_candidates(t: &Table, predicate: &Predicate) -> Option<Vec<i64>> {
    use std::ops::Bound;

    let mut conjuncts = Vec::new();
    let mut stack = vec![predicate];
    while let Some(p) = stack.pop() {
        if let Predicate::And(a, b) = p {
            stack.push(a);
            stack.push(b);
        } else {
            conjuncts.push(p);
        }
    }

    for conjunct in &conjuncts {
        if let Predicate::Eq(column, value) = conjunct {
            if let Some(index) = t.secondary.get(column) {
                return Some(index.get(value).cloned().unwrap_or_default());
            }
        }
    }
    for conjunct in &conjuncts {
        let (column, bounds) = match conjunct {
            Predicate::Lt(c, v) => (c, (Bound::Unbounded, Bound::Excluded(v.clone()))),
            Predicate::Le(c, v) => (c, (Bound::Unbounded, Bound::Included(v.clone()))),
            Predicate::Gt(c, v) => (c, (Bound::Excluded(v.clone()), Bound::Unbounded)),
            Predicate::Ge(c, v) => (c, (Bound::Included(v.clone()), Bound::Unbounded)),
            _ => continue,
        };
        if let Some(index) = t.secondary.get(column) {
            let mut ids = Vec::new();
            for entry in index.range(bounds) {
                ids.extend_from_slice(entry.1);
            }
            return Some(ids);
        }
    }
    None
}

fn validate_predicate_columns(schema: &TableSchema, predicate: &Predicate) -> Result<(), DbError> {
    let check = |column: &str| -> Result<(), DbError> {
        if column == "id" || schema.column_index(column).is_some() {
            Ok(())
        } else {
            Err(DbError::NoSuchColumn {
                table: schema.name.clone(),
                column: column.to_owned(),
            })
        }
    };
    match predicate {
        Predicate::True => Ok(()),
        Predicate::Eq(c, _)
        | Predicate::Ne(c, _)
        | Predicate::Lt(c, _)
        | Predicate::Le(c, _)
        | Predicate::Gt(c, _)
        | Predicate::Ge(c, _)
        | Predicate::Contains(c, _) => check(c),
        Predicate::And(a, b) | Predicate::Or(a, b) => {
            validate_predicate_columns(schema, a)?;
            validate_predicate_columns(schema, b)
        }
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
        self.tables.insert(schema.name.clone(), Table::new(schema));
        Ok(())
    }

    /// Table names in deterministic order.
    #[must_use]
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    /// A table's schema.
    pub fn schema(&self, table: &str) -> Result<&TableSchema, DbError> {
        self.tables
            .get(table)
            .map(|t| &t.schema)
            .ok_or_else(|| DbError::NoSuchTable(table.to_owned()))
    }

    /// Number of rows in a table.
    pub fn row_count(&self, table: &str) -> Result<usize, DbError> {
        Ok(self
            .tables
            .get(table)
            .ok_or_else(|| DbError::NoSuchTable(table.to_owned()))?
            .rows
            .len())
    }

    /// Insert a row (values in schema column order); returns the rowid.
    /// Enforces arity, types, NOT NULL and foreign keys.
    pub fn insert(&mut self, table: &str, values: Vec<Value>) -> Result<i64, DbError> {
        // Validate against an immutable borrow first.
        {
            let t = self
                .tables
                .get(table)
                .ok_or_else(|| DbError::NoSuchTable(table.to_owned()))?;
            if values.len() != t.schema.columns.len() {
                return Err(DbError::Arity {
                    table: table.to_owned(),
                    expected: t.schema.columns.len(),
                    got: values.len(),
                });
            }
            for (column, value) in t.schema.columns.iter().zip(&values) {
                if value.is_null() && column.not_null {
                    return Err(DbError::NotNull {
                        table: table.to_owned(),
                        column: column.name.clone(),
                    });
                }
                if !value.fits(column.ty) {
                    return Err(DbError::TypeMismatch {
                        table: table.to_owned(),
                        column: column.name.clone(),
                        value: value.to_string(),
                    });
                }
            }
            for fk in t.schema.foreign_keys.clone() {
                let ci =
                    t.schema
                        .column_index(&fk.column)
                        .ok_or_else(|| DbError::NoSuchColumn {
                            table: table.to_owned(),
                            column: fk.column.clone(),
                        })?;
                if let Some(refid) = values[ci].as_int() {
                    let target = self
                        .tables
                        .get(&fk.references_table)
                        .ok_or_else(|| DbError::NoSuchTable(fk.references_table.clone()))?;
                    if !target.rows.contains_key(&refid) {
                        return Err(DbError::ForeignKey {
                            table: table.to_owned(),
                            column: fk.column,
                            missing_id: refid,
                        });
                    }
                } else if !values[ci].is_null() {
                    return Err(DbError::TypeMismatch {
                        table: table.to_owned(),
                        column: fk.column,
                        value: values[ci].to_string(),
                    });
                }
            }
        }
        let t = self.tables.get_mut(table).expect("validated above");
        let id = t.next_id;
        t.next_id += 1;
        t.index_insert(id, &values);
        t.rows.insert(id, values);
        Ok(id)
    }

    /// Insert a row with an explicit id — the restore path of every
    /// block decode and block merge. Validates arity and types but not
    /// foreign keys (a block is decoded table by table, so parents may
    /// arrive after children; it was FK-consistent when written). An id
    /// the table already holds is corruption: ids are unique across
    /// blocks, so a second copy is a doubled record or a broken merge.
    pub fn insert_raw(&mut self, table: &str, id: i64, values: Vec<Value>) -> Result<(), DbError> {
        let t = self
            .tables
            .get_mut(table)
            .ok_or_else(|| DbError::NoSuchTable(table.to_owned()))?;
        if values.len() != t.schema.columns.len() {
            return Err(DbError::Arity {
                table: table.to_owned(),
                expected: t.schema.columns.len(),
                got: values.len(),
            });
        }
        for (column, value) in t.schema.columns.iter().zip(&values) {
            if !value.fits(column.ty) {
                return Err(DbError::TypeMismatch {
                    table: table.to_owned(),
                    column: column.name.clone(),
                    value: value.to_string(),
                });
            }
        }
        if t.rows.contains_key(&id) {
            return Err(DbError::Corrupt(format!("{table}: row {id} occurs twice")));
        }
        t.next_id = t.next_id.max(id.saturating_add(1));
        t.index_insert(id, &values);
        t.rows.insert(id, values);
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

    /// Fetch one row by id.
    pub fn get(&self, table: &str, id: i64) -> Result<Option<Row>, DbError> {
        let t = self
            .tables
            .get(table)
            .ok_or_else(|| DbError::NoSuchTable(table.to_owned()))?;
        Ok(t.rows.get(&id).map(|values| Row {
            id,
            values: values.clone(),
        }))
    }

    /// Query rows matching `predicate`, ordered and limited.
    ///
    /// Indexable conjuncts of the predicate (equality or a single range
    /// bound on an indexed column, anywhere in the top-level `AND` chain)
    /// are served from the secondary index; everything else scans. With
    /// `OrderBy::Id` the limit is pushed into the iteration, so the scan
    /// stops as soon as enough rows matched.
    pub fn select(
        &self,
        table: &str,
        predicate: &Predicate,
        order: OrderBy,
        limit: Option<usize>,
    ) -> Result<Vec<Row>, DbError> {
        let t = self
            .tables
            .get(table)
            .ok_or_else(|| DbError::NoSuchTable(table.to_owned()))?;
        validate_predicate_columns(&t.schema, predicate)?;
        // Resolve the ORDER BY column before doing any work, so an
        // unknown column errors even on an empty result set.
        let order_ci = match &order {
            OrderBy::Id => None,
            OrderBy::Asc(column) | OrderBy::Desc(column) => Some(
                t.schema
                    .column_index(column)
                    .ok_or_else(|| DbError::NoSuchColumn {
                        table: table.to_owned(),
                        column: column.clone(),
                    })?,
            ),
        };

        // With id ordering the output order equals the iteration order,
        // so the limit short-circuits; ordered queries must see every
        // match before sorting.
        let cap = match (order_ci, limit) {
            (None, Some(n)) => n,
            _ => usize::MAX,
        };

        let by_index = indexable_candidates(t, predicate).map(|mut ids| {
            ids.sort_unstable();
            ids.dedup();
            ids
        });
        let candidates: Box<dyn Iterator<Item = (i64, &Vec<Value>)>> = match &by_index {
            Some(ids) => Box::new(ids.iter().filter_map(|id| Some((*id, t.rows.get(id)?)))),
            None => Box::new(t.rows.iter().map(|(id, values)| (*id, values))),
        };
        let mut rows: Vec<Row> = Vec::new();
        for (id, values) in candidates {
            if rows.len() >= cap {
                break;
            }
            let values = values.clone();
            let row = Row { id, values };
            if predicate.eval(&t.schema, &row)? {
                rows.push(row);
            }
        }

        if let Some(ci) = order_ci {
            rows.sort_by(|a, b| a.values[ci].total_cmp(&b.values[ci]).then(a.id.cmp(&b.id)));
            if matches!(order, OrderBy::Desc(_)) {
                rows.reverse();
            }
        }
        if let Some(n) = limit {
            rows.truncate(n);
        }
        Ok(rows)
    }

    /// Delete rows matching a predicate; returns the number removed.
    pub fn delete(&mut self, table: &str, predicate: &Predicate) -> Result<usize, DbError> {
        let victims: Vec<i64> = self
            .select(table, predicate, OrderBy::Id, None)?
            .into_iter()
            .map(|r| r.id)
            .collect();
        let t = self.tables.get_mut(table).expect("select verified table");
        for id in &victims {
            if let Some(values) = t.rows.remove(id) {
                t.index_remove(*id, &values);
            }
        }
        Ok(victims.len())
    }

    /// Read one named cell of a row.
    pub fn cell(&self, table: &str, row: &Row, column: &str) -> Result<Value, DbError> {
        if column == "id" {
            return Ok(Value::Int(row.id));
        }
        let schema = self.schema(table)?;
        let ci = schema
            .column_index(column)
            .ok_or_else(|| DbError::NoSuchColumn {
                table: table.to_owned(),
                column: column.to_owned(),
            })?;
        Ok(row.values[ci].clone())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn db_with_perf() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "performances",
                vec![
                    Column::required("command", ColumnType::Text),
                    Column::required("api", ColumnType::Text),
                    Column::new("tasks", ColumnType::Integer),
                ],
            )
            .with_index("api"),
        )
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
            .with_fk("performance_id", "performances")
            .with_index("performance_id"),
        )
        .unwrap();
        db
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

    #[test]
    fn select_with_predicates_order_limit() {
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
        let mpiio = db
            .select(
                "performances",
                &Predicate::Eq("api".into(), Value::from("MPIIO")),
                OrderBy::Id,
                None,
            )
            .unwrap();
        assert_eq!(mpiio.len(), 2);

        let big = db
            .select(
                "performances",
                &Predicate::Gt("tasks".into(), Value::Int(30)),
                OrderBy::Desc("tasks".into()),
                Some(1),
            )
            .unwrap();
        assert_eq!(big.len(), 1);
        assert_eq!(big[0].values[2], Value::Int(80));

        let like = db
            .select(
                "performances",
                &Predicate::Contains("command".into(), "8m".into()),
                OrderBy::Id,
                None,
            )
            .unwrap();
        assert_eq!(like.len(), 1);

        let compound = db
            .select(
                "performances",
                &Predicate::Eq("api".into(), Value::from("MPIIO"))
                    .and(Predicate::Lt("tasks".into(), Value::Int(50))),
                OrderBy::Id,
                None,
            )
            .unwrap();
        assert_eq!(compound.len(), 1);
        assert_eq!(compound[0].values[0], Value::from("ior -b 16m"));
    }

    #[test]
    fn indexed_eq_matches_scan() {
        let mut db = db_with_perf();
        for i in 0..50 {
            let api = if i % 3 == 0 { "MPIIO" } else { "POSIX" };
            db.insert(
                "performances",
                vec![
                    Value::from(format!("c{i}")),
                    Value::from(api),
                    Value::Int(i),
                ],
            )
            .unwrap();
        }
        let via_index = db
            .select(
                "performances",
                &Predicate::Eq("api".into(), Value::from("MPIIO")),
                OrderBy::Id,
                None,
            )
            .unwrap();
        // Force a scan with an equivalent non-indexable predicate.
        let via_scan = db
            .select(
                "performances",
                &Predicate::Contains("api".into(), "MPIIO".into()),
                OrderBy::Id,
                None,
            )
            .unwrap();
        assert_eq!(via_index, via_scan);
        assert_eq!(via_index.len(), 17);
    }

    #[test]
    fn delete_removes_and_updates_index() {
        let mut db = db_with_perf();
        for i in 0..10 {
            db.insert(
                "performances",
                vec![
                    Value::from(format!("c{i}")),
                    Value::from("MPIIO"),
                    Value::Int(i),
                ],
            )
            .unwrap();
        }
        let removed = db
            .delete(
                "performances",
                &Predicate::Lt("tasks".into(), Value::Int(5)),
            )
            .unwrap();
        assert_eq!(removed, 5);
        assert_eq!(db.row_count("performances").unwrap(), 5);
        let rest = db
            .select(
                "performances",
                &Predicate::Eq("api".into(), Value::from("MPIIO")),
                OrderBy::Id,
                None,
            )
            .unwrap();
        assert_eq!(rest.len(), 5);
    }

    #[test]
    fn select_on_unknown_column_errors() {
        let db = db_with_perf();
        assert!(matches!(
            db.select(
                "performances",
                &Predicate::Eq("ghost".into(), Value::Null),
                OrderBy::Id,
                None
            ),
            Err(DbError::NoSuchColumn { .. })
        ));
    }

    #[test]
    fn id_pseudocolumn_in_predicates() {
        let mut db = db_with_perf();
        for i in 0..3 {
            db.insert(
                "performances",
                vec![
                    Value::from(format!("c{i}")),
                    Value::from("POSIX"),
                    Value::Int(i),
                ],
            )
            .unwrap();
        }
        let rows = db
            .select(
                "performances",
                &Predicate::Eq("id".into(), Value::Int(2)),
                OrderBy::Id,
                None,
            )
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].id, 2);
    }
}
