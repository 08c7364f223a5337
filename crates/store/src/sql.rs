//! A small read-only SQL subset — the store's "DB-API 2.0" face.
//!
//! The paper's prototype talks to SQLite through DB-API; tooling built on
//! this store can query it in the same idiom:
//!
//! ```
//! use iokc_store::{Database, TableSchema, Column, ColumnType, Value, sql};
//!
//! let mut db = Database::new();
//! db.create_table(TableSchema::new("runs", vec![
//!     Column::required("command", ColumnType::Text),
//!     Column::new("bw", ColumnType::Real),
//! ])).unwrap();
//! db.insert("runs", vec![Value::from("ior -b 4m"), Value::from(2850.12)]).unwrap();
//! let rows = sql::query(&db, "SELECT * FROM runs WHERE bw > 1000 ORDER BY bw DESC LIMIT 5").unwrap();
//! assert_eq!(rows.len(), 1);
//! ```
//!
//! Supported statements:
//! `SELECT *|cols FROM t [WHERE cond [AND|OR cond]…] [ORDER BY col [ASC|DESC]] [LIMIT n]`,
//! `SELECT COUNT(*) FROM t [WHERE …]`. Conditions are
//! `col (=|!=|<|<=|>|>=|LIKE) literal`; literals are numbers, `'strings'`
//! (with `''` escaping) and `NULL`. `AND` binds tighter than `OR`. An
//! integer literal is an INTEGER, every digit kept, unless it overflows
//! an `i64`; then it is REAL, as a literal with a decimal point or an
//! exponent is.
//!
//! A statement is parsed into this module's own small AST and evaluated
//! by one scan over the table's rows ([`Database::rows`]).

use crate::database::{Database, DbError, Row, TableSchema};
use crate::value::Value;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;

/// A SQL error.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlError {
    /// Syntax error with context.
    Syntax(String),
    /// Database-level failure.
    Db(DbError),
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlError::Syntax(msg) => write!(f, "sql syntax error: {msg}"),
            SqlError::Db(e) => write!(f, "sql: {e}"),
        }
    }
}

impl std::error::Error for SqlError {}

impl From<DbError> for SqlError {
    fn from(e: DbError) -> SqlError {
        SqlError::Db(e)
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String),
    /// A numeric literal: `Int` when the source text is an integer (no
    /// decimal point or exponent) that fits an `i64`, `Real` otherwise.
    Number(Value),
    Str(String),
    Symbol(String),
}

fn tokenize(input: &str) -> Result<Vec<Token>, SqlError> {
    let mut tokens = Vec::new();
    let bytes = input.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        // Multibyte UTF-8 is only legal inside string literals; handle the
        // quote/byte cases on raw bytes and slice the original &str for
        // string contents so non-ASCII text survives intact.
        let c = if b.is_ascii() { b as char } else { '\u{80}' };
        if c.is_ascii_whitespace() {
            i += 1;
        } else if c == '\'' {
            let mut s = String::new();
            i += 1;
            let mut run_start = i;
            loop {
                if i >= bytes.len() {
                    return Err(SqlError::Syntax("unterminated string".into()));
                }
                if bytes[i] == b'\'' {
                    s.push_str(&input[run_start..i]);
                    if bytes.get(i + 1) == Some(&b'\'') {
                        s.push('\'');
                        i += 2;
                        run_start = i;
                    } else {
                        i += 1;
                        break;
                    }
                } else {
                    i += 1;
                }
            }
            tokens.push(Token::Str(s));
        } else if c.is_ascii_digit()
            || (c == '-' && bytes.get(i + 1).is_some_and(u8::is_ascii_digit))
        {
            let start = i;
            i += 1;
            while i < bytes.len()
                && ((bytes[i] as char).is_ascii_digit()
                    || bytes[i] == b'.'
                    || bytes[i] == b'e'
                    || bytes[i] == b'E'
                    || bytes[i] == b'+'
                    || bytes[i] == b'-')
            {
                // Stop '-'/'+' unless following an exponent marker.
                if (bytes[i] == b'-' || bytes[i] == b'+')
                    && !(bytes[i - 1] == b'e' || bytes[i - 1] == b'E')
                {
                    break;
                }
                i += 1;
            }
            let text = &input[start..i];
            let number = match text.parse() {
                Ok(int) => Value::Int(int),
                Err(_) => Value::Real(
                    text.parse()
                        .map_err(|_| SqlError::Syntax(format!("bad number {text}")))?,
                ),
            };
            tokens.push(Token::Number(number));
        } else if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len()
                && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
            {
                i += 1;
            }
            tokens.push(Token::Ident(input[start..i].to_owned()));
        } else {
            // Multi-char operators first (byte compare: all operators are
            // ASCII, so this never lands inside a UTF-8 sequence).
            let two = bytes.get(i..i + 2);
            if matches!(two, Some(b"!=") | Some(b"<=") | Some(b">=") | Some(b"<>")) {
                tokens.push(Token::Symbol(
                    std::str::from_utf8(two.expect("matched above"))
                        .expect("ascii operator")
                        .to_owned(),
                ));
                i += 2;
            } else if b.is_ascii() && "=<>(),*".contains(c) {
                tokens.push(Token::Symbol(c.to_string()));
                i += 1;
            } else {
                let offending = input[i..].chars().next().unwrap_or('?');
                return Err(SqlError::Syntax(format!(
                    "unexpected character '{offending}'"
                )));
            }
        }
    }
    Ok(tokens)
}

/// A `WHERE` expression.
enum Predicate {
    /// No `WHERE`.
    True,
    /// `column op literal`: true when `Value::total_cmp` of the cell
    /// against the literal is an ordering `op` accepts.
    Compare(String, fn(Ordering) -> bool, Value),
    /// `column LIKE '%text%'` (substring containment).
    Contains(String, String),
    And(Box<Predicate>, Box<Predicate>),
    Or(Box<Predicate>, Box<Predicate>),
}

impl Predicate {
    /// Every column the expression names exists (`id` always does).
    fn check_columns(&self, schema: &TableSchema) -> Result<(), DbError> {
        match self {
            Predicate::True => Ok(()),
            Predicate::Compare(column, ..) | Predicate::Contains(column, _) => {
                match column.as_str() {
                    "id" => Ok(()),
                    column => schema.column(column).map(drop),
                }
            }
            Predicate::And(a, b) | Predicate::Or(a, b) => {
                a.check_columns(schema)?;
                b.check_columns(schema)
            }
        }
    }

    fn eval(&self, schema: &TableSchema, row: &Row) -> Result<bool, DbError> {
        Ok(match self {
            Predicate::True => true,
            Predicate::Compare(column, accepts, value) => {
                accepts(cell(schema, row, column)?.total_cmp(value))
            }
            Predicate::Contains(column, text) => cell(schema, row, column)?
                .as_text()
                .is_some_and(|t| t.contains(text.as_str())),
            Predicate::And(a, b) => a.eval(schema, row)? && b.eval(schema, row)?,
            Predicate::Or(a, b) => a.eval(schema, row)? || b.eval(schema, row)?,
        })
    }
}

/// An `ORDER BY`.
enum OrderBy {
    /// None: rowid ascending (insertion order).
    Id,
    Asc(String),
    Desc(String),
}

/// The named cell of `row`; `id` is the rowid.
fn cell<'r>(schema: &TableSchema, row: &'r Row, column: &str) -> Result<Cow<'r, Value>, DbError> {
    Ok(match column {
        "id" => Cow::Owned(Value::Int(row.id)),
        column => Cow::Borrowed(&row.values[schema.column(column)?]),
    })
}

/// The rows of `table` that `predicate` accepts, ordered and limited.
/// Unknown columns are errors before any row is read. In id order the
/// limit stops the scan; ordered by a column, every match is sorted —
/// ties by id — and reversed for `DESC` before the limit applies.
fn matching<'d>(
    db: &'d Database,
    table: &str,
    predicate: &Predicate,
    order: &OrderBy,
    limit: Option<usize>,
) -> Result<Vec<&'d Row>, DbError> {
    let schema = db.schema(table)?;
    predicate.check_columns(schema)?;
    let order_ci = match order {
        OrderBy::Id => None,
        OrderBy::Asc(column) | OrderBy::Desc(column) => Some(schema.column(column)?),
    };
    let cap = match (order_ci, limit) {
        (None, Some(n)) => n,
        _ => usize::MAX,
    };
    let mut rows = Vec::new();
    for row in db.rows(table)? {
        if rows.len() >= cap {
            break;
        }
        if predicate.eval(schema, row)? {
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

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn keyword(&mut self, word: &str) -> bool {
        if let Some(Token::Ident(id)) = self.peek() {
            if id.eq_ignore_ascii_case(word) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_keyword(&mut self, word: &str) -> Result<(), SqlError> {
        if self.keyword(word) {
            Ok(())
        } else {
            Err(SqlError::Syntax(format!("expected {word}")))
        }
    }

    fn expect_symbol(&mut self, sym: &str) -> Result<(), SqlError> {
        match self.next() {
            Some(Token::Symbol(s)) if s == sym => Ok(()),
            other => Err(SqlError::Syntax(format!(
                "expected '{sym}', found {other:?}"
            ))),
        }
    }

    fn ident(&mut self) -> Result<String, SqlError> {
        match self.next() {
            Some(Token::Ident(id)) => Ok(id),
            other => Err(SqlError::Syntax(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    fn literal(&mut self) -> Result<Value, SqlError> {
        match self.next() {
            Some(Token::Number(n)) => Ok(n),
            Some(Token::Str(s)) => Ok(Value::Text(s)),
            Some(Token::Ident(id)) if id.eq_ignore_ascii_case("null") => Ok(Value::Null),
            other => Err(SqlError::Syntax(format!(
                "expected literal, found {other:?}"
            ))),
        }
    }

    /// `cond (AND cond)*` — one AND-chain.
    fn conjunction(&mut self) -> Result<Predicate, SqlError> {
        let mut pred = self.condition()?;
        while self.keyword("AND") {
            pred = Predicate::And(Box::new(pred), Box::new(self.condition()?));
        }
        Ok(pred)
    }

    /// Full WHERE expression: AND binds tighter than OR.
    fn where_expr(&mut self) -> Result<Predicate, SqlError> {
        let mut pred = self.conjunction()?;
        while self.keyword("OR") {
            pred = Predicate::Or(Box::new(pred), Box::new(self.conjunction()?));
        }
        Ok(pred)
    }

    fn condition(&mut self) -> Result<Predicate, SqlError> {
        let column = self.ident()?;
        if self.keyword("LIKE") {
            let Value::Text(pattern) = self.literal()? else {
                return Err(SqlError::Syntax("LIKE needs a string".into()));
            };
            return Ok(Predicate::Contains(
                column,
                pattern.trim_matches('%').to_owned(),
            ));
        }
        let op = match self.next() {
            Some(Token::Symbol(s)) => s,
            other => {
                return Err(SqlError::Syntax(format!(
                    "expected operator, found {other:?}"
                )))
            }
        };
        let value = self.literal()?;
        let accepts: fn(Ordering) -> bool = match op.as_str() {
            "=" => Ordering::is_eq,
            "!=" | "<>" => Ordering::is_ne,
            "<" => Ordering::is_lt,
            "<=" => Ordering::is_le,
            ">" => Ordering::is_gt,
            ">=" => Ordering::is_ge,
            other => return Err(SqlError::Syntax(format!("unknown operator {other}"))),
        };
        Ok(Predicate::Compare(column, accepts, value))
    }

    fn tail(&mut self) -> Result<(Predicate, OrderBy, Option<usize>), SqlError> {
        let predicate = if self.keyword("WHERE") {
            self.where_expr()?
        } else {
            Predicate::True
        };
        let order = if self.keyword("ORDER") {
            self.expect_keyword("BY")?;
            let column = self.ident()?;
            if self.keyword("DESC") {
                OrderBy::Desc(column)
            } else {
                let _ = self.keyword("ASC");
                OrderBy::Asc(column)
            }
        } else {
            OrderBy::Id
        };
        let limit = if self.keyword("LIMIT") {
            match self.next() {
                Some(Token::Number(Value::Int(n))) if n >= 0 => {
                    Some(usize::try_from(n).unwrap_or(usize::MAX))
                }
                Some(Token::Number(Value::Real(n))) if n >= 0.0 && n.fract() == 0.0 => {
                    Some(n as usize)
                }
                other => return Err(SqlError::Syntax(format!("bad LIMIT {other:?}"))),
            }
        } else {
            None
        };
        if let Some(tok) = self.peek() {
            return Err(SqlError::Syntax(format!("trailing tokens at {tok:?}")));
        }
        Ok((predicate, order, limit))
    }
}

/// Result of a `SELECT`: either rows (with the projected column names) or
/// a count.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// Projected rows.
    Rows {
        /// Projected column names (`id` included when `*`).
        columns: Vec<String>,
        /// Cell values per row, in `columns` order.
        rows: Vec<Vec<Value>>,
    },
    /// `COUNT(*)` result.
    Count(usize),
}

/// Run a `SELECT`; convenience wrapper returning raw rows for `*`.
pub fn query(db: &Database, statement: &str) -> Result<Vec<Row>, SqlError> {
    match select(db, statement)? {
        QueryResult::Rows { columns, rows } => {
            // Reassemble Row structs when the projection was `*`.
            Ok(rows
                .into_iter()
                .map(|mut values| {
                    let id = if columns.first().map(String::as_str) == Some("id") {
                        match values.remove(0) {
                            Value::Int(i) => i,
                            _ => 0,
                        }
                    } else {
                        0
                    };
                    Row { id, values }
                })
                .collect())
        }
        QueryResult::Count(n) => Ok(vec![Row {
            id: n as i64,
            values: vec![Value::Int(n as i64)],
        }]),
    }
}

/// Run a `SELECT` with full projection support.
pub fn select(db: &Database, statement: &str) -> Result<QueryResult, SqlError> {
    let mut p = Parser {
        tokens: tokenize(statement)?,
        pos: 0,
    };
    p.expect_keyword("SELECT")?;

    // COUNT(*)?
    if let Some(Token::Ident(id)) = p.peek() {
        if id.eq_ignore_ascii_case("count") {
            p.pos += 1;
            p.expect_symbol("(")?;
            p.expect_symbol("*")?;
            p.expect_symbol(")")?;
            p.expect_keyword("FROM")?;
            let table = p.ident()?;
            let (predicate, _, _) = p.tail()?;
            let rows = matching(db, &table, &predicate, &OrderBy::Id, None)?;
            return Ok(QueryResult::Count(rows.len()));
        }
    }

    let mut projection: Option<Vec<String>> = None;
    if matches!(p.peek(), Some(Token::Symbol(s)) if s == "*") {
        p.pos += 1;
    } else {
        let mut cols = vec![p.ident()?];
        while matches!(p.peek(), Some(Token::Symbol(s)) if s == ",") {
            p.pos += 1;
            cols.push(p.ident()?);
        }
        projection = Some(cols);
    }
    p.expect_keyword("FROM")?;
    let table = p.ident()?;
    let (predicate, order, limit) = p.tail()?;
    let rows = matching(db, &table, &predicate, &order, limit)?;
    let schema = db.schema(&table)?;
    match projection {
        None => {
            let mut columns = vec!["id".to_owned()];
            columns.extend(schema.columns.iter().map(|c| c.name.clone()));
            Ok(QueryResult::Rows {
                columns,
                rows: rows
                    .into_iter()
                    .map(|r| {
                        let mut cells = vec![Value::Int(r.id)];
                        cells.extend_from_slice(&r.values);
                        cells
                    })
                    .collect(),
            })
        }
        Some(columns) => {
            let mut projected = Vec::with_capacity(rows.len());
            for row in rows {
                let mut cells = Vec::with_capacity(columns.len());
                for column in &columns {
                    cells.push(cell(schema, row, column)?.into_owned());
                }
                projected.push(cells);
            }
            Ok(QueryResult::Rows {
                columns,
                rows: projected,
            })
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::database::{Column, TableSchema};
    use crate::value::ColumnType;

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(TableSchema::new(
            "runs",
            vec![
                Column::required("command", ColumnType::Text),
                Column::new("bw", ColumnType::Real),
                Column::new("tasks", ColumnType::Integer),
            ],
        ))
        .unwrap();
        let mut database = db;
        for (cmd, bw, tasks) in [
            ("ior -b 4m", 2850.12, 80i64),
            ("ior -b 8m", 1251.0, 80),
            ("mdtest -n 100", 0.0, 40),
        ] {
            database
                .insert(
                    "runs",
                    vec![Value::from(cmd), Value::from(bw), Value::Int(tasks)],
                )
                .unwrap();
        }
        database
    }

    #[test]
    fn select_star() {
        let db = db();
        let rows = query(&db, "SELECT * FROM runs").unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].id, 1);
        assert_eq!(rows[0].values[0], Value::from("ior -b 4m"));
    }

    #[test]
    fn where_order_limit() {
        let db = db();
        let rows = query(
            &db,
            "SELECT * FROM runs WHERE tasks = 80 ORDER BY bw DESC LIMIT 1",
        )
        .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].values[1], Value::Real(2850.12));
    }

    #[test]
    fn and_or_precedence() {
        let db = db();
        // tasks = 40 OR (tasks = 80 AND bw > 2000) → rows 1 and 3.
        let rows = query(
            &db,
            "SELECT * FROM runs WHERE tasks = 40 OR tasks = 80 AND bw > 2000",
        )
        .unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn like_and_projection() {
        let db = db();
        let result = select(
            &db,
            "SELECT command, bw FROM runs WHERE command LIKE '%mdtest%'",
        )
        .unwrap();
        let QueryResult::Rows { columns, rows } = result else {
            panic!("expected rows")
        };
        assert_eq!(columns, vec!["command", "bw"]);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::from("mdtest -n 100"));
    }

    #[test]
    fn count_star() {
        let db = db();
        assert_eq!(
            select(&db, "SELECT COUNT(*) FROM runs WHERE tasks = 80").unwrap(),
            QueryResult::Count(2)
        );
    }

    #[test]
    fn syntax_errors() {
        let db = db();
        assert!(matches!(
            query(&db, "SELEC * FROM runs"),
            Err(SqlError::Syntax(_))
        ));
        assert!(matches!(
            query(&db, "SELECT * FROM runs WHERE"),
            Err(SqlError::Syntax(_))
        ));
        assert!(matches!(
            query(&db, "SELECT * FROM runs LIMIT -1"),
            Err(SqlError::Syntax(_))
        ));
        assert!(matches!(
            query(&db, "SELECT * FROM runs junk"),
            Err(SqlError::Syntax(_))
        ));
        // Only SELECT is a statement: nothing here mutates.
        assert!(matches!(
            query(&db, "DELETE FROM runs"),
            Err(SqlError::Syntax(_))
        ));
        assert!(matches!(
            query(&db, "SELECT * FROM runs WHERE command LIKE 5"),
            Err(SqlError::Syntax(_))
        ));
        assert!(matches!(
            query(&db, "SELECT * FROM runs WHERE command ~ 'x'"),
            Err(SqlError::Syntax(_))
        ));
    }

    #[test]
    fn db_errors_propagate() {
        let db = db();
        assert!(matches!(
            query(&db, "SELECT * FROM ghosts"),
            Err(SqlError::Db(DbError::NoSuchTable(_)))
        ));
        assert!(matches!(
            query(&db, "SELECT * FROM runs WHERE ghost = 1"),
            Err(SqlError::Db(DbError::NoSuchColumn { .. }))
        ));
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]
            #[test]
            fn sql_never_panics_on_noise(statement in ".{0,120}") {
                let database = db();
                let _ = query(&database, &statement);
                let _ = select(&database, &statement);
            }

            #[test]
            fn inserted_strings_roundtrip(text in ".{0,40}") {
                let mut database = db();
                let id = database
                    .insert(
                        "runs",
                        vec![Value::from(text.as_str()), Value::from(1.0), Value::Int(1)],
                    )
                    .unwrap();
                // The string literal — quotes doubled — finds exactly the
                // row holding the text.
                let escaped = text.replace('\'', "''");
                let statement = format!("SELECT * FROM runs WHERE command = '{escaped}'");
                let rows = query(&database, &statement).unwrap();
                prop_assert_eq!(rows.len(), 1);
                prop_assert_eq!(rows[0].id, id);
                prop_assert_eq!(rows[0].values[0].as_text().unwrap(), text);
            }
        }
    }

    #[test]
    fn unknown_columns_error_in_every_clause() {
        let db = db();
        // Projection: the cell lookup fails, it does not silently yield NULL.
        assert!(matches!(
            select(&db, "SELECT ghost FROM runs"),
            Err(SqlError::Db(DbError::NoSuchColumn { .. }))
        ));
        // ORDER BY is resolved before any row work.
        assert!(matches!(
            select(&db, "SELECT * FROM runs ORDER BY ghost"),
            Err(SqlError::Db(DbError::NoSuchColumn { .. }))
        ));
        // A valid projection with an unknown WHERE column still errors.
        assert!(matches!(
            select(&db, "SELECT command FROM runs WHERE ghost = 1"),
            Err(SqlError::Db(DbError::NoSuchColumn { .. }))
        ));
    }

    #[test]
    fn reversed_range_matches_nothing_without_error() {
        let db = db();
        // An unsatisfiable conjunction (bw > 2000 AND bw < 100) is a
        // valid query with an empty answer, not a planner panic.
        let rows = query(&db, "SELECT * FROM runs WHERE bw > 2000 AND bw < 100").unwrap();
        assert!(rows.is_empty());
        assert_eq!(
            select(
                &db,
                "SELECT COUNT(*) FROM runs WHERE tasks > 80 AND tasks < 40"
            )
            .unwrap(),
            QueryResult::Count(0)
        );
    }

    #[test]
    fn limit_zero_returns_no_rows() {
        let db = db();
        let QueryResult::Rows { rows, .. } = select(&db, "SELECT * FROM runs LIMIT 0").unwrap()
        else {
            panic!("expected rows")
        };
        assert!(rows.is_empty());
        let QueryResult::Rows { rows, .. } =
            select(&db, "SELECT command FROM runs WHERE tasks = 80 LIMIT 0").unwrap()
        else {
            panic!("expected rows")
        };
        assert!(rows.is_empty());
    }

    #[test]
    fn limit_pushdown_short_circuits_row_iteration() {
        let db = db();
        // In id order the limit is pushed into the scan.
        let QueryResult::Rows { rows, .. } = select(&db, "SELECT * FROM runs LIMIT 1").unwrap()
        else {
            panic!("expected rows")
        };
        assert_eq!(rows.len(), 1);
        // Ordering by a column needs the full match set before the
        // limit truncates it.
        let QueryResult::Rows { rows, .. } =
            select(&db, "SELECT * FROM runs ORDER BY bw DESC LIMIT 1").unwrap()
        else {
            panic!("expected rows")
        };
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][2], Value::Real(2850.12));
    }

    /// An integer literal keeps every digit, as ids do: `2^53 + 1` is not
    /// `2^53`, and the `id` pseudo-column compares exactly. Past `i64` a
    /// literal is REAL and compares as a float.
    #[test]
    fn integer_literals_keep_every_digit() {
        let mut db = db();
        for id in [1 << 53, (1 << 53) + 1, i64::MAX] {
            let cells = vec![Value::from("big"), Value::Null, Value::Int(id)];
            db.insert_raw("runs", id, cells).unwrap();
        }
        let ids = |statement: &str| -> Vec<i64> {
            query(&db, statement)
                .unwrap()
                .iter()
                .map(|r| r.id)
                .collect()
        };
        assert_eq!(ids("SELECT * FROM runs WHERE id = 2"), [2]);
        assert_eq!(
            ids("SELECT * FROM runs WHERE id = 9007199254740993"),
            [(1 << 53) + 1]
        );
        assert_eq!(
            ids("SELECT * FROM runs WHERE tasks = 9007199254740992"),
            [1 << 53]
        );
        assert_eq!(
            ids("SELECT * FROM runs WHERE id >= 9223372036854775807"),
            [i64::MAX]
        );
        assert_eq!(
            ids("SELECT * FROM runs WHERE id < 9223372036854775808"),
            [1, 2, 3, 1 << 53, (1 << 53) + 1]
        );
    }

    #[test]
    fn numbers_parse_with_signs_and_exponents() {
        let mut db = db();
        db.insert(
            "runs",
            vec![Value::from("neg"), Value::from(-150.0), Value::Int(-3)],
        )
        .unwrap();
        for statement in [
            "SELECT * FROM runs WHERE bw <= -100",
            "SELECT * FROM runs WHERE bw = -1.5e2",
            "SELECT * FROM runs WHERE tasks = -3",
        ] {
            let rows = query(&db, statement).unwrap();
            assert_eq!(rows.len(), 1, "{statement}");
            assert_eq!(rows[0].values[1], Value::Real(-150.0));
            assert_eq!(rows[0].values[2], Value::Int(-3));
        }
    }
}
