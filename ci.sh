#!/bin/sh
# ci.sh — the repository's continuous-integration gate: vet, build, a
# guard that no package is without tests, the full test suite with the
# race detector (which covers the command smokes in cmd/ and the
# observability-plane handler tests in internal/obs and cmd/interfd), the
# bench/ module's own vet and unit tests, a second uncached race pass for
# determinism, soaks of the placement service's concurrency tests, of
# the shared jitter tables and of the exchange's evaluators, a fuzz smoke
# of every target, and two smokes of the interfd binary: same-seed
# self-driven runs leave byte-identical decision audits and equal nonzero
# event and measurement counts in their reports, and the loadgen
# determinism smoke against a live serve-only daemon, whose drain must
# leave its report and audit on disk. Timings are not gated here: the
# benchmark of record is bench/ (`make bench`). Run it before every
# commit.
set -eu
cd "$(dirname "$0")"

echo "== go vet =="
go vet ./...
echo "== go build =="
go build ./...
echo "== every package has tests =="
# The commands are the only runnable documentation; one that nothing
# tests is one that rots. (The root package is tests only.)
untested="$(go list -f '{{if not (or .TestGoFiles .XTestGoFiles)}}{{.ImportPath}}{{end}}' ./...)"
if [ -n "$untested" ]; then
  echo "ci: packages without a test file:" >&2
  echo "$untested" >&2
  exit 1
fi
echo "== go test -race (incl. internal/obs + cmd/interfd handler tests) =="
go test -race ./...
echo "== bench module (vet + unit tests; its own go.mod, so ./... above skips it) =="
# bench/ is the benchmark of record and drives the program through its
# public surface (bench/surface.go); a refactor that breaks that surface
# must fail here, not in the next benchmark run.
go vet -C bench ./... && go test -C bench ./...
echo "== go test -race -count=2 (determinism: every package but the exclusions below) =="
# Every result in this repository must be a pure function of its seed —
# the parallel placement search (flat and cell-sharded), the fault plan,
# the measurement batch engine, the drift tracker, the experiment goldens,
# the placement service under concurrent admission, the fleet generator —
# and much of it runs on pooled or shared state (event engines, jitter
# tables, search workspaces) that a second pass in the same process finds
# warm. So every package is run twice, uncached, under the race detector.
# The list is derived, so a new package is covered without anyone listing
# it; only this is left out:
#   repro/cmd/      each test drives a real daemon or CLI over sockets,
#                   files and wall-clock deadlines; raced once above
# (internal/obs is in: its SSE tests wait on the subscriber's progress,
# not on the clock.)
race_twice="$(go list ./... | grep -v -e '^repro/cmd/')"
# shellcheck disable=SC2086 # one package per word
go test -race -count=2 $race_twice

echo "== serve soak (-race -count=20 of the worker pool's concurrency tests) =="
# internal/serve is the one package whose tests hold requests in flight
# on purpose (side-by-side execution, queue overflow, panic containment,
# Close under load, determinism under concurrent admission). Twice is not
# a soak for those: run them twenty times under the race detector.
go test -race -count=20 ./internal/serve -run 'SideBySide|QueueFull|Panic|Close|DeterministicUnderConcurrency'

echo "== jitter-table soak (-race -count=20 of the concurrent-fill and worker-count tests) =="
# An Env's jitter tables are shared state that batch workers grow while
# they run the same (workload, repetition) side by side: soak the tests
# that fill one table from eight goroutines and that require any worker
# count to render the same bytes.
go test -race -count=20 ./internal/app -run '^TestSharedFactorsConcurrentFill$'
go test -race -count=20 ./internal/measure -run '^TestJitterTablesKeyedByDefinition$'
go test -race -count=20 ./internal/experiments -run '^TestWorkerCountDoesNotChangeOutputs$'

echo "== exchange soak (-race -count=20 of the evaluator determinism and mirror-replay tests) =="
# The exchange's evaluators keep their grid mirrors across batches and
# replay each batch's commits instead of re-copying the fleet: soak the
# tests that require every evaluator count to give the same trajectory
# and every mirror to match the authoritative state at each batch start.
go test -race -count=20 ./internal/placement -run '^(TestExchangeWorkersDeterministic|TestExchangeMirrorsReplayCommits)$'

echo "== fuzz smoke (10s per target) =="
# Short exploratory runs of every fuzz target in the tree (the committed
# seed corpora in testdata/fuzz already replayed as part of go test
# above). The list is derived, not enumerated: `go test -list` prints a
# package's targets just before its "ok <pkg>" line.
fuzz_targets="$(go test -list '^Fuzz' ./... | awk '
  /^Fuzz/ { names[n++] = $1; next }
  $1 == "ok" { for (i = 0; i < n; i++) print $2 ":" names[i]; n = 0 }')"
if [ -z "$fuzz_targets" ]; then
  echo "ci: go test -list found no fuzz targets" >&2
  exit 1
fi
for target in $fuzz_targets; do
  go test -run '^$' -fuzz "^${target#*:}\$" -fuzztime 10s "${target%%:*}"
done

smokedir="$(mktemp -d)"
daemon_pid=""
cleanup_smoke() {
  [ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null || true
  rm -rf "$smokedir"
}
trap cleanup_smoke EXIT
go build -o "$smokedir/interfd" ./cmd/interfd
go build -o "$smokedir/loadgen" ./cmd/loadgen
for tool in paperrepro placer interfsim profiler; do
  go build -o "$smokedir/$tool" "./cmd/$tool"
done

echo "== EXPERIMENTS.md is what paperrepro prints =="
# The checked-in results must be the code's: from the first artifact to
# the end, EXPERIMENTS.md must be `paperrepro -markdown -extras` byte for
# byte, the one wall-clock line masked.
artifacts() { sed -n '/^## Figure 2 /,$p' "$1" | sed 's/^total runtime: .*/total runtime: -/'; }
"$smokedir/paperrepro" -markdown -extras -log-level warn -o "$smokedir/experiments.md"
artifacts EXPERIMENTS.md > "$smokedir/experiments.want"
artifacts "$smokedir/experiments.md" > "$smokedir/experiments.got"
if ! diff -u "$smokedir/experiments.want" "$smokedir/experiments.got"; then
  echo "ci: EXPERIMENTS.md is stale: regenerate it from paperrepro -markdown -extras" >&2
  exit 1
fi

echo "== flag sets (interfd and the four batch tools) =="
# Drift and SLO tuning are interfd constants, and the batch tools report
# once, at exit, with no live plane and no cache file: a deleted knob must
# not come back quietly, and a run that passes one must fail rather than
# ignore it (with -h after it, a flag that came back would exit 0 at once).
flags_of() { "$smokedir/$1" -h 2>&1 | awk '$1 ~ /^-/ { sub(/^-/, "", $1); print $1 }' | sort | tr '\n' ' ' | sed 's/ $//'; }
check_flags() {
  got_flags="$(flags_of "$1")"
  if [ "$got_flags" != "$2" ]; then
    echo "ci: $1 flags changed:" >&2
    echo "  want: $2" >&2
    echo "  got:  $got_flags" >&2
    exit 1
  fi
}
reject_flag() {
  if "$smokedir/$1" "-$2" x -h >/dev/null 2>&1; then
    echo "ci: $1 accepted the removed -$2 flag" >&2
    exit 1
  fi
}
check_flags interfd "addr-file drift-audit faults listen log-format log-level mix profile-samples report rounds search-iters search-restarts seed serve-only serve-queue trace workers"
check_flags paperrepro "extras log-format log-level markdown metrics o only quick seed trace workers"
check_flags placer "apps bound goal iters log-format log-level metrics qos restarts seed trace"
check_flags interfsim "ec2 faults interfering list log-format log-level metrics nodes pressure pressures seed trace workload"
check_flags profiler "alg log-format log-level metrics nodes samples seed trace workers workload"
reject_flag interfd drift-threshold
for tool in paperrepro placer interfsim profiler; do
  reject_flag "$tool" listen
done
reject_flag paperrepro measure-cache
reject_flag profiler measure-cache
reject_flag placer cells
reject_flag placer exchange
echo "flag sets: interfd 17 flags, batch tools 45, removed knobs rejected"

echo "== self-driver smoke (same seed, same decision audit) =="
# The daemon's own determinism contract, at the binary: three self-driven
# rounds — each a request to the daemon's own placement service, verified
# on the ground truth and audited — run twice with one seed must flush
# byte-identical audit files of three records.
for run in a b; do
  "$smokedir/interfd" -rounds 3 -seed 7 -mix M.lmps,C.libq -profile-samples 4 \
    -listen 127.0.0.1:0 -log-level warn \
    -report "$smokedir/$run-report.json" -drift-audit "$smokedir/$run.jsonl"
  [ "$(wc -l < "$smokedir/$run.jsonl")" -eq 3 ]
done
cmp "$smokedir/a.jsonl" "$smokedir/b.jsonl"
# Startup profiling runs instrumented, and BSP and wavefront runs report
# the event counts their schedule implies rather than counting events: the
# two reports must carry the same nonzero counts.
report_value() {
  awk -v key="\"$2\":" '$1 == key { gsub(/,/, "", $2); print $2; exit }' "$1"
}
for key in sim_events_scheduled_total sim_events_fired_total measure_runs_total; do
  va="$(report_value "$smokedir/a-report.json" "$key")"
  vb="$(report_value "$smokedir/b-report.json" "$key")"
  if [ -z "$va" ] || [ "$va" = 0 ] || [ "$va" != "$vb" ]; then
    echo "ci: $key is missing, zero or unequal across same-seed reports: a=$va b=$vb" >&2
    exit 1
  fi
done
echo "self-driver smoke: two same-seed runs of 3 rounds, byte-identical audits, equal event and run counts"

echo "== loadgen smoke (deterministic placement-service reports) =="
# End-to-end determinism contract of the serving plane over real HTTP:
# start a serve-only daemon on an ephemeral port, replay the same seeded
# open-loop trace twice with the load generator, and require the two
# reports to be byte-identical with zero errors and nonzero sustained
# throughput; then signal the daemon and require its drain to have written
# a report that parses and the decision audit.
"$smokedir/interfd" -serve-only -listen 127.0.0.1:0 -addr-file "$smokedir/addr" \
  -mix M.lmps,C.libq -profile-samples 4 -log-level warn \
  -report "$smokedir/interfd-report.json" -drift-audit "$smokedir/decisions.jsonl" &
daemon_pid=$!
"$smokedir/loadgen" -addr-file "$smokedir/addr" -apps M.lmps,C.libq \
  -n 24 -rate 200 -seed 7 -iters 80 -report "$smokedir/r1.json" -log-level warn
"$smokedir/loadgen" -addr-file "$smokedir/addr" -apps M.lmps,C.libq \
  -n 24 -rate 200 -seed 7 -iters 80 -report "$smokedir/r2.json" -log-level warn
cmp "$smokedir/r1.json" "$smokedir/r2.json"
grep -q '"errors": 0' "$smokedir/r1.json"
awk '$1 == "\"sustained_rps\":" { gsub(/,/, "", $2); if ($2 + 0 > 0) ok = 1 }
  END { exit ok ? 0 : 1 }' "$smokedir/r1.json"
kill "$daemon_pid"
wait "$daemon_pid"
daemon_pid=""
[ -f "$smokedir/decisions.jsonl" ]
# The drained report: whole (an object from first line to last), this
# daemon's, counting all 48 placements — and parsed, where there is a
# python3 to parse it.
report="$smokedir/interfd-report.json"
[ "$(head -n 1 "$report")" = "{" ] && [ "$(tail -n 1 "$report")" = "}" ]
grep -q '"tool": "interfd"' "$report"
grep -q '"serve_requests_total{endpoint=\\"place\\"}": 48,' "$report"
if command -v python3 >/dev/null 2>&1; then
  python3 -c 'import json, sys; json.load(open(sys.argv[1]))' "$report"
fi
cleanup_smoke
trap - EXIT
echo "loadgen smoke: two same-seed replays byte-identical, nonzero throughput, drain flushed report and audit"

echo "ci: all checks passed"
