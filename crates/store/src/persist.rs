//! The checksummed-document writer and the row-block codec.
//!
//! The paper stores knowledge "either directly as a local SQLite database
//! or by specifying a SQL connection URL remotely" (§V-C). Here the
//! local form is one deterministic JSON document, the manifest, next to
//! the logs it names: the active generation's, and one per sealed
//! segment, each a run of checksummed records (see
//! [`crate::knowledge_store`]). This module holds what they share:
//! [`write_rows`] / [`read_rows`] are the one encoding of a block of
//! rows — a log record and so every segment's body is it, streamed to
//! and from the text with no `Json` tree between — and `write_image` is
//! the one crash-safe way a whole file (the manifest, or a segment log
//! compaction or repair wrote) reaches the disk. CSV export covers the
//! paper's "saved e.g. as a CSV file" path.
//!
//! Writes are crash-safe: the file is written to a temp file, fsynced,
//! and renamed over the target. The manifest carries a trailing
//! checksum footer (`#iokc-xxh64:<hex>` over the JSON body, XXH64),
//! so a torn or bit-flipped manifest — or one that never had a footer —
//! is *detected* on read ([`DbError::Corrupt`]) rather than silently
//! yielding wrong data, as every log record's own checksum is.
//! [`inject_torn_write`] truncates a file at a byte offset so tests can
//! exercise exactly that path.

use crate::database::{Counters, Database, DbError};
use crate::value::Value;
use crate::vfs::{StdVfs, Vfs};
use iokc_util::json::{self, Json, ParseError, Reader, Token};
use iokc_util::table::TextTable;
use std::fmt::Write;
use std::path::{Path, PathBuf};

/// Append to `out` the rows of `db` at or past each table's id in
/// `mark` (an empty `mark` means every row) as `{table: [[id, cell…]…]}`,
/// tables with nothing to contribute left out; returns whether any
/// contributed. This is *the* encoding of a block of rows: a log
/// record's `rows` and a segment's body are both it. A cell is `null`, a
/// bare number (REAL; non-finite as `null`), `{"i":N}` (INTEGER) or a
/// string. The schema is not part of it: [`read_rows`] decodes onto the
/// reader's.
pub fn write_rows(out: &mut String, db: &Database, mark: &Counters) -> bool {
    write_blocks(out, &[db], mark)
}

/// [`write_rows`] over several blocks of one schema whose ids ascend
/// from each block to the next, as ONE block: every table's rows from
/// each block in turn, so that a table's ids still ascend.
pub(crate) fn write_blocks(out: &mut String, blocks: &[&Database], mark: &Counters) -> bool {
    // Writing into a `String` cannot fail.
    out.push('{');
    let mut tables = 0;
    for name in blocks.iter().take(1).flat_map(|db| db.tables.keys()) {
        let from = mark.get(name).copied().unwrap_or(i64::MIN);
        let mut nth = 0;
        for table in blocks.iter().filter_map(|db| db.tables.get(name)) {
            for row in &table.rows[table.rows.partition_point(|row| row.id < from)..] {
                if nth == 0 {
                    out.push_str(if tables == 0 { "" } else { "," });
                    tables += 1;
                    let _ = json::write_escaped(out, name);
                    out.push_str(":[");
                }
                out.push_str(if nth == 0 { "[" } else { ",[" });
                let _ = json::write_int(out, row.id);
                nth += 1;
                for value in &row.values {
                    out.push(',');
                    let _ = match value {
                        Value::Null => out.write_str("null"),
                        Value::Int(i) => out
                            .write_str("{\"i\":")
                            .and(json::write_int(out, *i))
                            .and(out.write_str("}")),
                        Value::Real(r) => json::write_number(out, *r),
                        Value::Text(t) => json::write_escaped(out, t),
                    };
                }
                out.push(']');
            }
        }
        if nth > 0 {
            out.push(']');
        }
    }
    out.push('}');
    tables > 0
}

/// Insert the [`write_rows`] block `reader` stands before into `db`, ids
/// preserved, cells going from the text straight into the rows. What
/// cannot be placed is corruption, never skipped: a block that is not an
/// object, a table `db` does not have or the block gives twice, a member
/// that is not an array of rows, a cell that is none of the four shapes,
/// an id the table already holds.
pub fn read_rows(reader: &mut Reader<'_>, db: &mut Database) -> Result<(), DbError> {
    let corrupt = |what: String| Err(DbError::Corrupt(what));
    if reader.begin()? != Token::Obj {
        return corrupt("rows not an object".into());
    }
    let mut seen = Vec::new();
    while let Some(table) = reader.next_key()? {
        let Some(width) = db.tables.get(&*table).map(|t| t.schema.columns.len()) else {
            return corrupt(format!("rows of unknown table {table}"));
        };
        if seen.contains(&table) {
            return corrupt(format!("{table}: rows given twice"));
        }
        if reader.begin()? != Token::Arr {
            return corrupt(format!("{table}: rows not an array"));
        }
        while reader.next_element()? {
            if reader.begin()? != Token::Arr || !reader.next_element()? {
                return corrupt(format!("{table}: row not an array of id and cells"));
            }
            let Some(id) = int_of(&reader.begin()?) else {
                return corrupt(format!("{table}: row without id"));
            };
            let mut values = Vec::with_capacity(width);
            while reader.next_element()? {
                let Some(value) = read_cell(reader)? else {
                    let nth = values.len();
                    return corrupt(format!("{table}: row {id}: cell {nth} is not a value"));
                };
                values.push(value);
            }
            db.insert_raw(&table, id, values)?;
        }
        seen.push(table);
    }
    Ok(())
}

/// Walk the object `text` — a log record's payload — handing each member's key to `member`, which reads or skips its value.
pub(crate) fn read_object(
    text: &str,
    mut member: impl FnMut(&str, &mut Reader<'_>) -> Result<(), DbError>,
) -> Result<(), DbError> {
    let mut reader = Reader::new(text);
    if reader.begin()? != Token::Obj {
        return Err(DbError::Corrupt("document not an object".into()));
    }
    while let Some(key) = reader.next_key()? {
        member(&key, &mut reader)?;
    }
    Ok(reader.finish()?)
}

/// The integer a token is: an integer literal as its own `i64`; any
/// other integral number (what the tree codec wrote past 2^53, as the
/// `f64` it went through) as that codec read it.
fn int_of(token: &Token<'_>) -> Option<i64> {
    let Token::Num(text) = token else { return None };
    let wide = || text.parse::<f64>().ok().filter(|f| f.fract() == 0.0);
    text.parse().ok().or_else(|| wide().map(|f| f as i64))
}

/// The cell `reader` stands before; `None` (with the reader anywhere
/// inside it) when it is none of the four shapes.
fn read_cell(reader: &mut Reader<'_>) -> Result<Option<Value>, DbError> {
    Ok(match reader.begin()? {
        Token::Null => Some(Value::Null),
        Token::Num(text) => text.parse().ok().map(Value::Real),
        Token::Str(text) => Some(Value::Text(text.into_owned())),
        Token::Obj if reader.next_key()?.as_deref() == Some("i") => {
            let int = int_of(&reader.begin()?);
            reader.next_key()?.map_or(int.map(Value::Int), |_| None)
        }
        _ => None,
    })
}

impl From<ParseError> for DbError {
    fn from(e: ParseError) -> DbError {
        DbError::Corrupt(e.to_string())
    }
}

/// Auto-increment counters as the manifest's `next_ids` object.
pub(crate) fn counters_to_json(counters: &Counters) -> Json {
    Json::Obj(
        counters
            .iter()
            .map(|(table, next)| (table.clone(), Json::from(*next as u64)))
            .collect(),
    )
}

/// Decode a `next_ids` object; entries that are not counters are skipped.
pub(crate) fn counters_from_json(json: &Json) -> Counters {
    let Json::Obj(map) = json else {
        return Counters::new();
    };
    map.iter()
        .filter_map(|(table, next)| Some((table.clone(), next.as_u64()? as i64)))
        .collect()
}

/// Marker introducing the checksum footer line. Older binaries wrote
/// `#iokc-crc64:` over the body's FNV-1a 64: read, never written.
const FOOTER_MARKER: &str = "\n#iokc-xxh64:";

/// The checksum of every frame the store writes, each log record and
/// the manifest footer: XXH64 with seed 0.
#[must_use]
pub fn checksum(bytes: &[u8]) -> u64 {
    const P1: u64 = 0x9e37_79b1_85eb_ca87;
    const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
    const P3: u64 = 0x1656_67b1_9e37_79f9;
    const P4: u64 = 0x85eb_ca77_c2b2_ae63;
    const P5: u64 = 0x27d4_eb2f_1656_67c5;
    let round = |acc: u64, lane: u64| {
        let acc = acc.wrapping_add(lane.wrapping_mul(P2));
        acc.rotate_left(31).wrapping_mul(P1)
    };
    // Every call has eight bytes at `at`.
    let word = |at: &[u8]| at.first_chunk().map_or(0, |w| u64::from_le_bytes(*w));
    let stripes = bytes.chunks_exact(32);
    let mut rest = stripes.remainder();
    let mut hash = P5;
    if bytes.len() >= 32 {
        let mut v = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        for stripe in stripes {
            for (acc, lane) in v.iter_mut().zip(stripe.chunks_exact(8)) {
                *acc = round(*acc, word(lane));
            }
        }
        hash = (v.iter().zip([1, 7, 12, 18]))
            .fold(0, |h, (acc, r)| h.wrapping_add(acc.rotate_left(r)));
        for acc in v {
            hash = (hash ^ round(0, acc)).wrapping_mul(P1).wrapping_add(P4);
        }
    }
    hash = hash.wrapping_add(bytes.len() as u64);
    let mut lanes = rest.chunks_exact(8);
    for lane in &mut lanes {
        hash ^= round(0, word(lane));
        hash = hash.rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
    }
    rest = lanes.remainder();
    if let Some((half, tail)) = rest.split_first_chunk() {
        hash ^= u64::from(u32::from_le_bytes(*half)).wrapping_mul(P1);
        hash = hash.rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
        rest = tail;
    }
    for &byte in rest {
        hash ^= u64::from(byte).wrapping_mul(P5);
        hash = hash.rotate_left(11).wrapping_mul(P1);
    }
    let hash = (hash ^ (hash >> 33)).wrapping_mul(P2);
    let hash = (hash ^ (hash >> 29)).wrapping_mul(P3);
    hash ^ (hash >> 32)
}

/// FNV-1a 64, the checksum of the frames older binaries wrote.
pub(crate) fn legacy_checksum(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Split a document into its JSON body and the checksum its footer
/// records, verifying the one against the other with the checksum its
/// marker names. A missing, malformed or wrong footer is corruption:
/// every file the store writes ends in one, so its absence is a torn
/// write.
pub fn verify_image(text: &str) -> Result<(&str, u64), DbError> {
    let footers = [
        (FOOTER_MARKER, checksum as fn(&[u8]) -> u64),
        ("\n#iokc-crc64:", legacy_checksum),
    ];
    let found =
        (footers.iter()).find_map(|&(marker, hash)| Some((text.rfind(marker)?, marker, hash)));
    let Some((at, marker, hash)) = found else {
        return Err(DbError::Corrupt("no checksum footer (torn write?)".into()));
    };
    let body = &text[..at];
    let footer = text[at + marker.len()..].trim_end();
    let Ok(recorded) = u64::from_str_radix(footer, 16) else {
        return Err(DbError::Corrupt(format!(
            "malformed checksum footer {footer:?} (torn write?)"
        )));
    };
    let actual = hash(body.as_bytes());
    if actual != recorded {
        return Err(DbError::Corrupt(format!(
            "checksum mismatch: image records {recorded:016x}, body hashes to {actual:016x}"
        )));
    }
    Ok((body, recorded))
}

/// The sibling temp file a document is written to before the atomic
/// rename.
#[must_use]
pub fn temp_path(path: &Path) -> PathBuf {
    sibling(path, ".tmp")
}

/// The active generation's write-ahead log for `epoch`, kept next to
/// the manifest (which lives at the store's nominal path).
#[must_use]
pub fn wal_path(path: &Path, epoch: u64) -> PathBuf {
    sibling(path, &format!(".wal-{epoch}"))
}

/// A sealed segment's file, kept next to the manifest.
#[must_use]
pub fn segment_path(path: &Path, id: u64) -> PathBuf {
    sibling(path, &format!(".seg-{id}"))
}

pub(crate) fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(suffix);
    path.with_file_name(name)
}

/// Classify an I/O failure from the persistence layer onto the store's
/// error taxonomy: ENOSPC-like conditions (`StorageFull`, `WriteZero`)
/// are transient — retryable once space is freed — while everything
/// else is an opaque I/O failure. Corruption is never produced here; it
/// is detected by checksums on the *read* path.
#[must_use]
pub fn classify_io_error(context: &str, e: &std::io::Error) -> DbError {
    match e.kind() {
        std::io::ErrorKind::StorageFull | std::io::ErrorKind::WriteZero => {
            DbError::Full(format!("{context}: {e}"))
        }
        _ => DbError::Io(format!("{context}: {e}")),
    }
}

/// Render a document the way the store renders its manifest: the
/// compact JSON `body` plus the checksum footer, so a torn write is
/// detectable.
#[must_use]
pub fn render_document(mut body: String) -> String {
    let hash = checksum(body.as_bytes());
    // Writing into a `String` cannot fail.
    let _ = writeln!(body, "{FOOTER_MARKER}{hash:016x}");
    body
}

/// Render `body` and write it crash-safely, as every document is.
pub fn write_document_vfs(path: &Path, vfs: &dyn Vfs, body: &Json) -> Result<(), std::io::Error> {
    write_image(path, vfs, render_document(body.to_compact()).as_bytes())
}

/// Write a whole file — a [`render_document`] image, or a segment
/// log — crash-safely: the one write protocol of the store. It is
/// written to a temp file and fsynced, the temp file is renamed over
/// the target, and the directory is synced. A crash at any point leaves
/// either the old file, the old file plus a stray temp file, or the new
/// file — never one that loads as wrong data. An error at any step
/// (including the final directory sync, whose rename a crash could
/// otherwise revert) means the write is *not acknowledged*; the caller
/// must not assume which of the two documents the disk holds.
pub(crate) fn write_image(path: &Path, vfs: &dyn Vfs, image: &[u8]) -> Result<(), std::io::Error> {
    let tmp = temp_path(path);
    {
        let mut file = vfs.create(&tmp)?;
        file.write_all(image)?;
        file.sync()?;
    }
    vfs.rename(&tmp, path)?;
    // Make the rename durable. `StdVfs` treats this as best-effort
    // (not all platforms allow opening a directory for sync);
    // fault-injecting VFS implementations fail it for real so the
    // rename-uncertainty window is exercised.
    vfs.sync_parent_dir(path)?;
    Ok(())
}

/// Read a checksummed JSON document, verifying its footer.
pub fn read_document_vfs(path: &Path, vfs: &dyn Vfs) -> Result<Json, DbError> {
    read_document_and_checksum(path, vfs).map(|(doc, _)| doc)
}

/// [`read_document_vfs`], also returning the checksum its footer
/// records: an identity of the document's bytes.
pub(crate) fn read_document_and_checksum(
    path: &Path,
    vfs: &dyn Vfs,
) -> Result<(Json, u64), DbError> {
    let unreadable =
        |e: &dyn std::fmt::Display| DbError::Corrupt(format!("read {}: {e}", path.display()));
    let bytes = vfs.read(path).map_err(|e| unreadable(&e))?;
    let text = String::from_utf8(bytes).map_err(|e| unreadable(&e))?;
    let (body, checksum) = verify_image(&text)?;
    let doc = json::parse(body)
        .map_err(|e| DbError::Corrupt(format!("parse {}: {e}", path.display())))?;
    Ok((doc, checksum))
}

/// Fault-injection hook: truncate an on-disk file to `keep_bytes`,
/// simulating a write torn by a crash or a full disk. Used by the
/// resilience test harness; safe to call on any file.
pub fn inject_torn_write(path: &Path, keep_bytes: u64) -> Result<(), std::io::Error> {
    StdVfs.set_len(path, keep_bytes)
}

/// Export one table as CSV (header = `id` + column names).
pub fn export_csv(db: &Database, table: &str) -> Result<String, DbError> {
    let schema = db.schema(table)?;
    let mut header = vec!["id".to_owned()];
    header.extend(schema.columns.iter().map(|c| c.name.clone()));
    let mut text_table = TextTable::new(header);
    for row in db.rows(table)? {
        let mut cells = vec![row.id.to_string()];
        cells.extend(row.values.iter().map(|v| match v {
            Value::Null => String::new(),
            other => other.to_string(),
        }));
        text_table.push_row(cells);
    }
    Ok(text_table.render_csv())
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
pub(crate) mod tests {
    use super::*;
    use crate::database::{Column, TableSchema};
    use crate::value::ColumnType;

    fn sample_schema() -> Database {
        let mut db = Database::new();
        db.create_table(TableSchema::new(
            "performances",
            vec![
                Column::required("command", ColumnType::Text),
                Column::new("mean", ColumnType::Real),
                Column::new("tasks", ColumnType::Integer),
            ],
        ))
        .unwrap();
        db.create_table(
            TableSchema::new(
                "summaries",
                vec![Column::required("performance_id", ColumnType::Integer)],
            )
            .with_fk("performance_id", "performances"),
        )
        .unwrap();
        db
    }

    fn sample_db() -> Database {
        let mut db = sample_schema();
        let pid = db
            .insert(
                "performances",
                vec![
                    Value::from("ior -b 4m"),
                    Value::from(2850.12),
                    Value::from(80u32),
                ],
            )
            .unwrap();
        db.insert(
            "performances",
            vec![Value::from("ior -b 8m"), Value::Null, Value::Null],
        )
        .unwrap();
        db.insert("summaries", vec![Value::from(pid)]).unwrap();
        db
    }

    fn all_rows(db: &Database) -> String {
        let mut out = String::new();
        write_rows(&mut out, db, &Counters::new());
        out
    }

    fn decode(db: &mut Database, text: &str) -> Result<(), DbError> {
        let mut reader = Reader::new(text);
        read_rows(&mut reader, db)?;
        Ok(reader.finish()?)
    }

    fn roundtrip(db: &Database, schema: Database) -> Database {
        let mut restored = schema;
        decode(&mut restored, &all_rows(db)).unwrap();
        restored
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let db = sample_db();
        let mut restored = roundtrip(&db, sample_schema());
        for (name, table) in &db.tables {
            assert_eq!(restored.tables[name].rows, table.rows, "table {name}");
        }
        // Auto-increment continues past restored ids.
        let next = restored
            .insert(
                "performances",
                vec![Value::from("new"), Value::Null, Value::Null],
            )
            .unwrap();
        assert_eq!(next, 3);
    }

    #[test]
    fn int_real_distinction_survives_roundtrip() {
        // Integers are tagged in JSON so Int(2) doesn't come back Real(2.0).
        let restored = roundtrip(&sample_db(), sample_schema());
        let cells = &restored.tables["performances"].rows[0].values;
        assert_eq!(cells[2], Value::Int(80));
        assert_eq!(cells[1], Value::Real(2850.12));
    }

    /// One shape per case: each is `Corrupt`, none is skipped.
    #[test]
    fn rejects_corrupt_images() {
        for (rows, why) in [
            ("null", "rows not an object"),
            ("[]", "rows not an object"),
            (r#"{"no_such_table":[]}"#, "unknown table no_such_table"),
            (r#"{"summaries":7}"#, "summaries: rows not an array"),
            (r#"{"summaries":[7]}"#, "summaries: row not an array"),
            (r#"{"summaries":[[]]}"#, "summaries: row not an array"),
            (r#"{"summaries":[["1",null]]}"#, "summaries: row without id"),
            (r#"{"summaries":[[1,null],[1,null]]}"#, "row 1 occurs twice"),
            (
                r#"{"summaries":[[1,{"i":2}],[2,{"i":1}]]}"#,
                "summaries: row 2: performance_id 1 decreases from 2",
            ),
            (r#"{"summaries":[[4,true]]}"#, "row 4: cell 0"),
            (r#"{"summaries":[[4,[1]]]}"#, "row 4: cell 0"),
            (r#"{"summaries":[[4,{"j":1}]]}"#, "row 4: cell 0"),
            (r#"{"summaries":[[4,{"i":"x"}]]}"#, "row 4: cell 0"),
            (r#"{"summaries":[[4,{"i":1,"j":2}]]}"#, "row 4: cell 0"),
            (r#"{"summaries":[],"summaries":[]}"#, "rows given twice"),
            (r#"{"summaries":[[1,{"i":1}"#, "expected ',' or ']'"),
            (r#"{"summaries":[[1,null],]}"#, "unexpected character"),
            (r#"{"summaries":[[1,null]]} {"#, "trailing data"),
        ] {
            let err = decode(&mut sample_schema(), rows).unwrap_err();
            assert!(
                matches!(&err, DbError::Corrupt(e) if e.contains(why)),
                "{rows}: {err}"
            );
        }
        // Cells the schema cannot hold are refused too.
        assert!(decode(&mut sample_schema(), r#"{"summaries":[[1]]}"#).is_err());
    }

    pub(crate) fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("iokc-persist-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn image_carries_verifiable_checksum() {
        let image = render_document(all_rows(&sample_db()));
        let (body, _) = verify_image(&image).unwrap();
        assert!(!body.contains("#iokc-xxh64"));
        // Flipping one byte in the body is detected.
        let tampered = image.replacen("performances", "perform4nces", 1);
        assert!(matches!(verify_image(&tampered), Err(DbError::Corrupt(_))));
        // A malformed footer is detected.
        assert!(matches!(
            verify_image("{}\n#iokc-xxh64:zz"),
            Err(DbError::Corrupt(_))
        ));
        // So is a missing one: nothing the store writes lacks it.
        assert!(matches!(
            verify_image("{\"a\": 1}"),
            Err(DbError::Corrupt(_))
        ));
    }

    fn generation(n: u64) -> Json {
        Json::obj(vec![("gen", Json::from(n))])
    }

    #[test]
    fn documents_roundtrip_and_a_cut_one_is_corrupt() {
        let dir = scratch_dir("doc");
        let path = dir.join("manifest.json");
        let vfs = StdVfs;
        write_document_vfs(&path, &vfs, &generation(1)).unwrap();
        assert_eq!(read_document_vfs(&path, &vfs).unwrap(), generation(1));
        write_document_vfs(&path, &vfs, &generation(2)).unwrap();
        assert_eq!(read_document_vfs(&path, &vfs).unwrap(), generation(2));
        // A commit leaves the document and nothing beside it.
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name())
            .collect();
        assert_eq!(names, ["manifest.json"]);
        let len = std::fs::metadata(&path).unwrap().len();
        inject_torn_write(&path, len / 2).unwrap();
        assert!(matches!(
            read_document_vfs(&path, &vfs),
            Err(DbError::Corrupt(_))
        ));
        // The next write replaces the torn file whole.
        write_document_vfs(&path, &vfs, &generation(3)).unwrap();
        assert_eq!(read_document_vfs(&path, &vfs).unwrap(), generation(3));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn csv_export_contains_rows() {
        let db = sample_db();
        let csv = export_csv(&db, "performances").unwrap();
        let rows = iokc_util::table::parse_csv(&csv);
        assert_eq!(rows[0], vec!["id", "command", "mean", "tasks"]);
        assert_eq!(rows[1][1], "ior -b 4m");
        assert_eq!(rows[2][2], "", "NULL exports as empty cell");
        assert!(export_csv(&db, "nope").is_err());
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]
            #[test]
            fn arbitrary_rows_roundtrip(
                rows in proptest::collection::vec(
                    ("[a-z ]{0,20}", proptest::option::of(-1e9f64..1e9), proptest::option::of(any::<i32>())),
                    0..30
                )
            ) {
                let mut schema = Database::new();
                schema.create_table(TableSchema::new(
                    "t",
                    vec![
                        Column::new("a", ColumnType::Text),
                        Column::new("b", ColumnType::Real),
                        Column::new("c", ColumnType::Integer),
                    ],
                )).unwrap();
                let mut db = schema.clone();
                for (a, b, c) in &rows {
                    db.insert("t", vec![
                        Value::from(a.as_str()),
                        b.map(Value::Real).unwrap_or(Value::Null),
                        c.map(|v| Value::Int(i64::from(v))).unwrap_or(Value::Null),
                    ]).unwrap();
                }
                let restored = roundtrip(&db, schema);
                prop_assert_eq!(&restored.tables["t"].rows, &db.tables["t"].rows);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]
            #[test]
            fn truncation_recovers_a_generation_or_reports_corruption(
                commands in proptest::collection::vec("[a-z ]{1,16}", 1..6),
                fraction in 0f64..1f64
            ) {
                use std::sync::atomic::{AtomicU32, Ordering};
                static CASE: AtomicU32 = AtomicU32::new(0);
                let dir = scratch_dir(&format!("prop-torn-{}", CASE.fetch_add(1, Ordering::Relaxed)));
                let path = dir.join("kb.json");
                let written = Json::Arr(commands.iter().map(|c| Json::from(c.as_str())).collect());
                write_document_vfs(&path, &StdVfs, &written).unwrap();

                // Cut the document at an arbitrary byte offset: what is
                // read is the whole document or `Corrupt` — never a
                // silently truncated one.
                let len = std::fs::metadata(&path).unwrap().len();
                let keep = ((len as f64) * fraction) as u64;
                inject_torn_write(&path, keep).unwrap();
                match read_document_vfs(&path, &StdVfs) {
                    // The footer's trailing newline is not load-bearing.
                    Ok(doc) => {
                        prop_assert!(keep + 1 >= len, "kept {keep} of {len}");
                        prop_assert_eq!(doc, written);
                    }
                    Err(DbError::Corrupt(_)) => {}
                    Err(other) => prop_assert!(false, "unexpected error {other:?}"),
                }
                std::fs::remove_dir_all(&dir).unwrap();
            }
        }
    }
}
