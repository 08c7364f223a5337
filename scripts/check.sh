#!/usr/bin/env bash
# Local CI gate: formatting, lints, release build, and the full test
# suite. Run from anywhere inside the repository.
set -euo pipefail
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

echo "==> cargo fmt --check"
cargo fmt --check

# Line-count ratchet: every crate's `crates/<c>/src`, inline tests
# included, stays at or under its ceiling in scripts/src-lines.txt. A
# change that raises a ceiling says by how much and why in CHANGES.md;
# one that falls below a ceiling lowers it.
echo "==> src line ceilings"
for dir in crates/*/; do
  crate="$(basename "$dir")"
  ceiling="$(awk -v c="$crate" '$1 == c { print $2 }' scripts/src-lines.txt)"
  lines="$(find "$dir/src" -name '*.rs' -exec cat {} + | wc -l)"
  if [ -z "$ceiling" ] || [ "$lines" -gt "$ceiling" ]; then
    echo "crates/$crate/src: $lines lines, ceiling ${ceiling:-missing}" >&2
    exit 1
  fi
  if [ "$lines" -lt "$ceiling" ]; then
    echo "crates/$crate/src: $lines lines, under its ceiling $ceiling: lower it"
  fi
done

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# The explorer service handles untrusted network input, so it gets a
# stricter gate: any unwrap in the crate is an error, not a warning.
echo "==> cargo clippy -p iokc-explorerd (unwraps are errors)"
cargo clippy -p iokc-explorerd --all-targets -- -D warnings -D clippy::unwrap_used

# The store executes queries over persisted data and now backs every
# read path, so it gets the same strict gate.
echo "==> cargo clippy -p iokc-store (unwraps are errors)"
cargo clippy -p iokc-store --all-targets -- -D warnings -D clippy::unwrap_used

# The observability layer runs inside every cycle phase and must never
# take a phase down, so it joins the strict-unwrap club.
echo "==> cargo clippy -p iokc-obs (unwraps are errors)"
cargo clippy -p iokc-obs --all-targets -- -D warnings -D clippy::unwrap_used

# Analysis, usage, and simulation produce the knowledge every other
# layer consumes; a panic there poisons the whole cycle.
echo "==> cargo clippy -p iokc-analysis -p iokc-usage -p iokc-sim (unwraps are errors)"
cargo clippy -p iokc-analysis -p iokc-usage -p iokc-sim --all-targets -- -D warnings -D clippy::unwrap_used

# The corpus generator feeds fleet-scale ingest; it joins the strict
# gate so a malformed point can never panic a campaign mid-journal.
echo "==> cargo clippy -p iokc-benchmarks (unwraps are errors)"
cargo clippy -p iokc-benchmarks --all-targets -- -D warnings -D clippy::unwrap_used

# The foundation crates everything else builds on: a panic in JSON,
# pattern matching, the knowledge model, or the trace codec surfaces in
# every phase of the cycle at once.
echo "==> cargo clippy -p iokc-util -p iokc-core -p iokc-darshan (unwraps are errors)"
cargo clippy -p iokc-util -p iokc-core -p iokc-darshan --all-targets -- -D warnings -D clippy::unwrap_used

# Crash consistency: one store model checks every disk a power loss can
# leave. It replays fixed op lists with a crash at every operation (and
# one at every fsync), and runs random histories of writes, injected
# faults and reboots, each against a map of acknowledged results. The
# corpus generation resumes from every crash point of its own.
echo "==> crash-consistency suite + store-vs-model proptest"
cargo test -p iokc-integration --test crash_consistency --test store_model -q

# Compaction smoke: seal/merge/tombstone protocol plus the snapshot
# immunity proptest, quick enough to run on every check.
echo "==> compaction smoke"
cargo test -p iokc-store compaction -q

# Network chaos: fault-injected transports, misbehaving clients,
# deadline budgets, and admission control against the explorer service.
echo "==> explorerd chaos suite"
cargo test -p iokc-integration --test explorerd_chaos -q

# Bench smoke: the vendored criterion runs each bench body once under
# `cargo test`, so regressions in the bench harnesses fail fast here.
echo "==> query-engine + explorerd-requests + sim-substrate bench smoke"
cargo test -p iokc-bench --bench query_engine --bench explorerd_requests --bench sim_substrate

# Loadtest smoke: the reactor holds 100 keep-alive connections, streams
# a full listing, and answers a timed phase whose p99 (well under 1 ms
# on an idle box) must stay under 50 ms: slack for a loaded CI box, none
# for a stall of two poll slices (25 ms each) or more on the tail. This
# is a coarse net, not the guard against the 40 ms Nagle × delayed-ACK
# stall of a response split over two writes — that fails on a count, not
# a timing, in crates/explorerd/tests/stream.rs.
echo "==> explorerd loadtest smoke (100 conns)"
cargo run --release -q -p iokc-bench --bin explorerd_loadtest -- \
  --conns 100 --requests 200 --rows 2000 --p99-max-ms 50 --out - >/dev/null

# Corpus analytics end to end: deterministic corpus generation through
# the extract path, aggregation pushdown counters, outlier detection.
echo "==> corpus analytics suite"
cargo test -p iokc-integration --test corpus_analytics -q

# CLI smoke: generate a small corpus, resume it (everything stored,
# nothing regenerated) — also over a torn campaign journal and over one
# cut down to its header, because the store, not the journal, says which
# points exist — check it offline — the only place fsck meets files the
# CLI wrote through StdVfs, so it fails the day fsck and the writer
# disagree about the layout — and run a group-by aggregate.
echo "==> corpus gen + fsck + agg + compact + sql CLI smoke"
corpus_dir="$(mktemp -d)"
trap 'rm -rf "$corpus_dir"' EXIT
cargo run -q -p iokc-cli -- corpus gen --db "$corpus_dir/corpus.iokc.json" \
  --campaign "$corpus_dir/campaign" --runs 64 --seed 42 | grep -q "generated 64"
# The sealed generation is its adopted log: a seal writes no segment file.
if compgen -G "$corpus_dir/corpus.iokc.json.seg-*" >/dev/null; then
  echo "a seal wrote a segment file" >&2
  exit 1
fi
cargo run -q -p iokc-cli -- corpus gen --db "$corpus_dir/corpus.iokc.json" \
  --campaign "$corpus_dir/campaign" --runs 64 --seed 42 | grep -q "skipped 64"
truncate -s -5 "$corpus_dir/campaign/campaign.journal"
for _ in 1 2; do
  cargo run -q -p iokc-cli -- corpus gen --db "$corpus_dir/corpus.iokc.json" \
    --campaign "$corpus_dir/campaign" --runs 64 --seed 42 | grep -q "generated 0"
done
sed -i '2,$d' "$corpus_dir/campaign/campaign.journal"
cargo run -q -p iokc-cli -- corpus gen --db "$corpus_dir/corpus.iokc.json" \
  --campaign "$corpus_dir/campaign" --runs 64 --seed 42 | grep -q "generated 0"
cargo run -q -p iokc-cli -- sql --db "$corpus_dir/corpus.iokc.json" \
  "SELECT COUNT(*) FROM IOFHsRuns" | grep -qx 64
cargo run -q -p iokc-cli -- fsck --db "$corpus_dir/corpus.iokc.json" \
  --journal "$corpus_dir/campaign/campaign.journal" | grep -q "clean"
cargo run -q -p iokc-cli -- agg --db "$corpus_dir/corpus.iokc.json" \
  --group tasks --factor total_score --outliers | grep -q "2 run(s) outside their band"
# Then a second segment, merged: the only place a compacted segment
# written through StdVfs is decoded by fsck and by `materialize()` (SQL).
cargo run -q -p iokc-cli -- corpus gen --db "$corpus_dir/corpus.iokc.json" \
  --campaign "$corpus_dir/campaign" --runs 96 --seed 42 | grep -q "generated 32"
cargo run -q -p iokc-cli -- compact --db "$corpus_dir/corpus.iokc.json" \
  | grep -q "2 segment(s) -> segment 2, 96 run(s) rewritten"
# Compaction writes the one `.seg-` file there is: a log of block records.
[ "$(cd "$corpus_dir" && echo corpus.iokc.json.seg-*)" = "corpus.iokc.json.seg-2" ]
cargo run -q -p iokc-cli -- fsck --db "$corpus_dir/corpus.iokc.json" \
  --journal "$corpus_dir/campaign/campaign.journal" | grep -q "clean"
cargo run -q -p iokc-cli -- sql --db "$corpus_dir/corpus.iokc.json" \
  "SELECT COUNT(*) FROM IOFHsRuns" | grep -qx 96
# WHERE, ORDER BY … DESC and LIMIT over the merged segment's rows: the
# seed's three best runs past id 32, best first.
diff <(cargo run -q -p iokc-cli -- sql --db "$corpus_dir/corpus.iokc.json" \
  "SELECT IOFH_id, total_score FROM IOFHsScores WHERE IOFH_id > 32 ORDER BY total_score DESC LIMIT 3") - <<'TOP3'
IOFH_id | total_score
--------+------------
61      | 17.581212
89      | 17.576109
62      | 17.523537
TOP3

# One generation of every document: nothing the CLI wrote has a `.bak`.
# And the manifest is what says which files are the store, so one that
# does not verify is refused whole — no command answers from a subset of
# the runs, and `fsck --repair` changes no byte (it cannot tell a
# segment from a stray) — until its bytes are back, and with them every
# run. One more seal first: the previous manifest names a different set
# of segments than the current one.
echo "==> one generation + cut manifest CLI smoke"
if compgen -G "$corpus_dir/*.bak" >/dev/null; then
  echo "a .bak beside the store" >&2
  exit 1
fi
exits_with() {
  local want="$1" rc=0
  shift
  "$@" >/dev/null 2>&1 || rc=$?
  [ "$rc" -eq "$want" ]
}
cargo run -q -p iokc-cli -- corpus gen --db "$corpus_dir/corpus.iokc.json" \
  --campaign "$corpus_dir/campaign" --runs 128 --seed 42 | grep -q "generated 32"
# The frames the CLI wrote through StdVfs: every line of the campaign
# journal, of the logs and of the compacted segment is an XXH64 (`j2`)
# record, and the manifest ends in the XXH64 footer.
for f in "$corpus_dir/campaign/campaign.journal" "$corpus_dir"/corpus.iokc.json.wal-* \
  "$corpus_dir"/corpus.iokc.json.seg-*; do
  if [ ! -s "$f" ] || grep -qv '^j2 ' "$f"; then
    echo "$f: missing, or a line that is not a j2 record" >&2
    exit 1
  fi
done
if [[ "$(tail -n 1 "$corpus_dir/corpus.iokc.json")" != '#iokc-xxh64:'* ]]; then
  echo "the manifest does not end in an XXH64 footer" >&2
  exit 1
fi
cp "$corpus_dir/corpus.iokc.json" "$corpus_dir/manifest.saved"
truncate -s 100 "$corpus_dir/corpus.iokc.json"
(cd "$corpus_dir" && sha256sum corpus.iokc.json*) >"$corpus_dir/store.sha256"
exits_with 5 cargo run -q -p iokc-cli -- list --db "$corpus_dir/corpus.iokc.json"
exits_with 5 cargo run -q -p iokc-cli -- fsck --db "$corpus_dir/corpus.iokc.json" --repair
(cd "$corpus_dir" && sha256sum --quiet -c store.sha256)
cp "$corpus_dir/manifest.saved" "$corpus_dir/corpus.iokc.json"
cargo run -q -p iokc-cli -- sql --db "$corpus_dir/corpus.iokc.json" \
  "SELECT COUNT(*) FROM IOFHsRuns" | grep -qx 128
cargo run -q -p iokc-cli -- fsck --db "$corpus_dir/corpus.iokc.json" | grep -q "clean"

# The CLI writes the same bytes twice: the same corpus generated into
# two fresh directories is the same files, byte for byte.
echo "==> corpus gen writes the same bytes twice"
for run in first second; do
  mkdir "$corpus_dir/$run"
  cargo run -q -p iokc-cli -- corpus gen --db "$corpus_dir/$run/corpus.iokc.json" \
    --campaign "$corpus_dir/$run/campaign" --runs 64 --seed 42 | grep -q "generated 64"
done
diff <(cd "$corpus_dir/first" && find . -type f | sort) \
  <(cd "$corpus_dir/second" && find . -type f | sort)
(cd "$corpus_dir/first" && find . -type f) | while read -r f; do
  cmp "$corpus_dir/first/$f" "$corpus_dir/second/$f" || exit 1
done

# What this repository deleted stays deleted: a second durability
# mechanism, secondary indexes over a block's rows, a second fault
# planner (or the per-kind constructors of the one left), a
# queue-depth mirror beside the handler pool's queue, a second
# filter language, view input or HTML escaper, a crash harness
# beside the store model, a second segment reader (the segment
# document decoder, or a body location that may be absent), a second
# sweep executor (the sequential `run_sweep` loop and the campaign
# vocabulary it needed in core), a second simulated `mkdir -p`, a
# second kind of store (an in-memory one with no files, told apart by
# an optional path), and functions deleted for having no caller.
echo "==> no second durability mechanism, no secondary indexes, one fault plan, no queue mirror, one filter vocabulary, one crash model, one segment reader, one sweep executor, one kind of store"
# `! grep` alone would not stop the script: `set -e` ignores a negated
# command's failure. Searches crates/, tests/ and examples/ unless
# given other paths.
stays_deleted() {
  local pattern="$1"
  shift
  [ "$#" -gt 0 ] || set -- crates/ tests/ examples/
  if grep -rn "$pattern" "$@"; then
    echo "deleted code is back: $pattern" >&2
    exit 1
  fi
}
stays_deleted "GroupJournal\|RecoveryReport\|read_document_with_recovery\|recovered_from_backup\|StoreHealth::Recovered\|with_index\|indexable_candidates\|index_insert\|secondary:"
stays_deleted "NetFaultPlan\|FaultState\|scatter_faults\|stall_at\|note_queued\|note_dequeued\|seeded_chaos(\|crash_at_op(\|crash_at_fsync(\|enospc_at(\|eio_at(\|short_write_at(\|fail_fsync(\|short_read_at(\|reset_read_at(\|reset_write_at(\|drop_at("
stays_deleted "KnowledgeFilter\|value_of_summary\|compare_summaries\|overview_series\|fn query_predicate\|struct RunsQuery\|fn html_escape"
stays_deleted "run_workload\|run_segmented_workload\|run_adoption_workload\|assert_one_generation\|crash_at_any_fsync"
stays_deleted "fn read_document(\|legacy_document\|SEGMENT_FORMAT\|AdoptedLog\|write_compact_io\|is_log"
stays_deleted "run_sweep\|fn run_workpackage<\|WorkState"
stays_deleted "fn ensure_dirs\|ensure_parent_dirs"
stays_deleted "fn add_fault\|fn bytes_per_target\|fn mds_for\|fn max_rate(\|fn virtual_clock("
stays_deleted "path: Option<PathBuf>\|fn inserted_since" crates/store/src
stays_deleted "knowledge-store(memory)\|knowledge-store(file)"
stays_deleted "fn compact_with_snapshot\|fn dxt_for\|fn reduce_shared\|fn extract_f64\|fn is_match\|fn is_retry\|fn render_with_point\|fn to_secs\|fn total_cores\|fn total_op_secs\|fn virtual_handle\|fn write_bandwidth_mib\|fn read_bandwidth_mib"

# Benchmark smoke: perfbench is a package of its own, compiled against
# the crates' public API from outside the workspace, so a refactor that
# breaks it would otherwise be noticed only by the acceptance driver.
# ~1/50 scale, one round per workload; exits non-zero when a check fails.
echo "==> perfbench smoke (every workload)"
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml --bin perf -- \
  --workload all --seed 1 --smoke >/dev/null

echo "==> cargo doc --workspace --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo build --release"
cargo build --release

# The in-memory disk under `iokc jube` holds each file once and an fsync
# records a length, so a sweep journaled record by record costs time
# linear in its journal: 8 000 workpackages take well under a second
# (a disk that copies the file at every fsync takes ~40 s).
echo "==> iokc jube: 8 000 workpackages, linear"
jube_dir="$(mktemp -d)"
trap 'rm -rf "$corpus_dir" "$jube_dir"' EXIT
{
  echo "benchmark linear"
  echo "param a = $(seq -s ', ' 1 40)"
  echo "param b = $(seq -s ', ' 1 200)"
  echo 'step run = ior -a posix -t 64k -b 64k -s 1 -i 1 -o /scratch/w$wp/f -k'
  echo 'pattern bw = Max Write: {bw:f} MiB/sec'
} >"$jube_dir/linear.jube"
timeout 15 target/release/iokc jube "$jube_dir/linear.jube" --tasks 1 --seed 7 >"$jube_dir/table.txt"
[ "$(grep -cE '^[0-9]{6} +\|' "$jube_dir/table.txt")" -eq 8000 ]

echo "==> cargo test -q"
cargo test -q

# The simulator's output is pinned byte for byte against the binary
# before its last engine rewrite; float arithmetic that an optimizer may
# contract or reorder must hold at both opt levels.
echo "==> pinned simulator bytes, release"
cargo test --release -p iokc-integration --test reproducibility -q

# So are the store's files, against the binary before the row codec went
# streaming: the on-disk format is a compatibility surface, and number
# formatting must not depend on the opt level either. The codec's
# differential suite against its tree oracle rides along.
echo "==> pinned store bytes + codec differential, release"
cargo test --release -p iokc-integration --test store_model -q -- store_bytes_are_pinned codec::

echo "==> all checks passed"
