#!/bin/sh
# CI gate: full build + test suite, plus repo hygiene.
# Run from anywhere inside the repository.
#
# The gate never rewrites its baselines (BENCH_smoke.json,
# BENCH_wall.json): a passing run leaves them as committed.  Rebaselining
# is a deliberate manual copy of a fresh report over the committed file,
# reviewed like any other change, e.g.
#   dune exec bench/main.exe -- --quick --metrics BENCH_smoke.json > /dev/null
#   dune exec bench/main.exe -- --quick --wall BENCH_wall.json wall > /dev/null
set -eu

cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

if git ls-files -- _build | grep -q .; then
  echo "error: _build/ is tracked in the git index; run 'git rm -r --cached _build'" >&2
  exit 1
fi

dune build @all
dune runtest

# Fuzz smoke (also part of runtest): fixed-seed differential runs of
# nexsort and the baselines against the in-memory oracle, plus
# fault-schedule sweeps.  Run explicitly so a failure prints the
# reproducer even when runtest output is captured.
dune exec bin/nexfuzz.exe -- --smoke

# Bench smoke: a quick run must produce a metrics report that parses and
# carries the paper's per-phase I/O breakdown (§4.2).  The committed
# baseline BENCH_smoke.json makes schema drift show up in review, and any
# I/O counter regression against it, or gc.minor_words more than 2% above
# it, fails the gate.  The engine-smoke comparisons below take the same
# gate in both directions.
dune exec bench/main.exe -- --quick --metrics /tmp/m.json > /dev/null
dune exec bench/main.exe -- validate-metrics /tmp/m.json
dune exec bench/main.exe -- compare-metrics BENCH_smoke.json /tmp/m.json

# Incremental-maintenance gate (E-ingest): a k-subtree update batch
# buffered in the external priority queue and flushed through
# Xmerge.Ingest must cost strictly fewer block I/Os than re-sorting the
# updated document from scratch, and the incremental output must be
# digest-identical to the oracle's sequential batch application (the
# experiment exits non-zero on either failure).
dune exec bench/main.exe -- --quick ingest > /dev/null

# Reference sort for the engine smoke below: one standalone CLI run whose
# output and metrics every daemon job must reproduce.
dune exec bin/xmlgen_cli.exe -- --seed 7 --fanouts 8,8,8,5 --avg-bytes 120 -o /tmp/par.xml \
  > /dev/null
dune exec bin/nexsort_cli.exe -- -B 1024 -M 16 --metrics /tmp/par1.json \
  -o /tmp/par1.out.xml /tmp/par.xml > /dev/null

# Engine smoke: the multi-tenant daemon must serve interleaved jobs from
# two tenants under a queue-forcing budget and stay invisible in the
# result — every output byte-identical to a standalone single-job CLI
# run, every per-job I/O counter pinned equal (both compare directions),
# and zero leaked blocks in the shutdown summary.  A short multi-tenant
# fuzz run drives the same admission path through the config matrix.
rm -f /tmp/eng_jobs.txt
for i in 1 2 3 4 5 6 7 8; do
  t=acme; [ $((i % 2)) -eq 0 ] && t=bravo
  echo "sort -B 1024 -M 16 /tmp/par.xml -o /tmp/eng$i.xml --metrics /tmp/eng$i.json --tenant $t" \
    >> /tmp/eng_jobs.txt
done
dune exec bin/nexsortd.exe -- --memory 40 --block-size 1024 /tmp/eng_jobs.txt > /tmp/engd.out
grep -q 'leaked blocks: 0' /tmp/engd.out || {
  echo "engine smoke: daemon summary reports leaked blocks" >&2; cat /tmp/engd.out >&2; exit 1; }
grep -q '8 jobs: 8 done, 0 cancelled, 0 failed' /tmp/engd.out || {
  echo "engine smoke: not all daemon jobs completed" >&2; cat /tmp/engd.out >&2; exit 1; }
for i in 1 2 3 4 5 6 7 8; do
  cmp /tmp/eng$i.xml /tmp/par1.out.xml
  dune exec bench/main.exe -- compare-metrics /tmp/par1.json /tmp/eng$i.json
  dune exec bench/main.exe -- compare-metrics /tmp/eng$i.json /tmp/par1.json
done
dune exec bin/nexfuzz.exe -- --tenants 4 --cases 24 --fault-cases 0 > /dev/null

# Trace smoke: a traced sort must produce a trace that nextrace
# validates, carrying the sorter's phase spans.
dune exec bin/nexsort_cli.exe -- -B 1024 -M 16 --trace /tmp/trace.json \
  -o /tmp/trace.out.xml /tmp/par.xml > /dev/null
dune exec bin/nextrace.exe -- --check /tmp/trace.json
dune exec bin/nextrace.exe -- --top 100 /tmp/trace.json > /tmp/trace.txt
for needle in input_scan subtree_sorts output; do
  grep -q "$needle" /tmp/trace.txt || {
    echo "trace smoke: missing \"$needle\" in nextrace output" >&2; exit 1; }
done

# Shape-scaling gate: the cost of an event must not grow with the
# document's shape.  Each shape is sorted at 1x and 4x its size, and
# gc.minor_words per event (an exact count, not a timing) at 4x may
# exceed 1x by at most SLACK percent.  One text node is three events at
# any length, so that shape is measured per input byte instead.  The
# chain runs twice: under @id, where no element has a path criterion,
# and under a path ordering, whose slots wait at every depth.
SLACK=2
shape_doc() { # SHAPE N FILE
  case $1 in
    chain) awk -v n="$2" 'BEGIN { for (i = 0; i < n; i++) printf "<a>"; printf "x";
             for (i = 0; i < n; i++) printf "</a>"; print "" }' > "$3" ;;
    star) awk -v n="$2" 'BEGIN { printf "<r>";
            for (i = 0; i < n; i++) printf "<a id=\"%d\"/>", (i * 7919) % n; print "</r>" }' > "$3" ;;
    text) awk -v n="$2" 'BEGIN { s = "0123456789abcdef"; while (length(s) < 4096) s = s s;
            printf "<r>"; for (i = 0; i < n; i += 4096) printf "%s", s; print "</r>" }' > "$3" ;;
    pathological) dune exec bin/xmlgen_cli.exe -- --pathological --seed 2 --max-elements "$2" \
                    -o "$3" 2> /dev/null ;;
  esac
}
shape_cost() { # SHAPE N ORDERING: minor words per event (per byte for text)
  shape_doc "$1" "$2" /tmp/shape.xml
  dune exec bin/nexsort_cli.exe -- -B 4096 -M 32 -O "$3" --metrics /tmp/shape.json \
    -o /tmp/shape.out.xml /tmp/shape.xml
  if [ "$1" = text ]; then
    echo "$(grep -o '"minor_words": *[0-9]*' /tmp/shape.json | awk -F: '{ print $2 }')" \
      "$(wc -c < /tmp/shape.xml)" | awk '{ print $1 / $2 }'
  else
    grep -o '"minor_words_per_event": *[0-9.e+-]*' /tmp/shape.json | awk -F: '{ print $2 + 0 }'
  fi
}
for shape in "chain 10000 @id" "star 75000 @id" "text 2097152 @id" \
             "pathological 20000 @id" "chain 10000 a=a/b,@id"; do
  set -- $shape
  w1=$(shape_cost "$1" "$2" "$3")
  w4=$(shape_cost "$1" $(($2 * 4)) "$3")
  awk -v s="$1 -O $3" -v a="$w1" -v b="$w4" -v k="$SLACK" 'BEGIN {
    printf "shape gate: %s: %.1f -> %.1f minor words per %s (%+.2f%%)\n", s, a, b,
      (s ~ /^text/ ? "byte" : "event"), 100 * (b - a) / a;
    exit !(b <= a * (1 + k / 100)) }' || {
    echo "shape gate: $1 costs more per event at 4x than at 1x (slack $SLACK%)" >&2; exit 1; }
done

# Wall-clock gate (bechamel): deliberately loose — fail only on a > 3x
# slowdown against the committed baseline.  Absolute times are noisy;
# the I/O-counter gates above are the precise regression signal.
dune exec bench/main.exe -- --quick --wall /tmp/wall.json wall > /dev/null
dune exec bench/main.exe -- compare-wall BENCH_wall.json /tmp/wall.json

echo "check: OK"
