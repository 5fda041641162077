#!/bin/sh
# ci.sh — the repository's continuous-integration gate: vet, gofmt, build, a
# guard that no package is without tests, a guard that no program file
# imports math/rand v1 (sim.RNG is the one generator), a guard that only
# internal/experiments/lab.go sets up the experiments' measurement envs,
# the full test suite run twice, uncached, under the race detector (which covers the command smokes in
# cmd/, the in-process daemon's replay, drain and handler tests, and the
# observability-plane tests in internal/obs), the bench/ module's own vet
# and unit tests, soaks of the placement service's concurrency tests
# (what-ifs beside placements among them), of the daemon's lifecycle
# tests, of the shared jitter tables, of the pooled task-engine workspace
# and of the exchange's evaluators, a fuzz smoke of every target, a check
# that
# EXPERIMENTS.md is what paperrepro prints at the default worker count and
# on the serial reference path (-workers 1), the pinned flag sets (with
# the rejection of removed flags and binaries, positional arguments and
# unknown subcommands), and a smoke of the interfd binary: same-seed
# self-driven runs leave byte-identical decision audits and equal nonzero
# event and measurement counts in their reports. Timings are not gated here: the benchmark of
# record is bench/ (`make bench`). Run it before every commit.
set -eu
cd "$(dirname "$0")"

echo "== go vet =="
go vet ./...
echo "== gofmt =="
# gofmt -l also walks bench/ (its own module), but only reads it.
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
  echo "ci: files not gofmt-clean (run gofmt -w on them):" >&2
  echo "$unformatted" >&2
  exit 1
fi
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
echo "== one generator (no program file imports math/rand v1) =="
# Every random draw in the program comes from sim.RNG, which sits on
# math/rand/v2's PCG; a math/rand import outside tests is a second
# generator. Tests may use math/rand for their own inputs, and bench/ is
# its own module.
v1="$(go list -f '{{range .Imports}}{{if eq . "math/rand"}}{{$.ImportPath}}{{"\n"}}{{end}}{{end}}' ./...)"
if [ -n "$v1" ]; then
  echo "ci: packages importing math/rand outside their tests (draw from sim.RNG):" >&2
  echo "$v1" >&2
  exit 1
fi
echo "== one env set-up site (only lab.go sets an env's Reps/Workers/Cache/Telemetry/Tracer) =="
# Lab.site is the one place an env the experiments measure on gets its
# repetitions, worker count, shared cache and instrumentation; an env set
# up anywhere else drifts from the rest. A runner sets only what makes its
# env different, such as UnitCores or HostDegrade.
envset="$(grep -nE '\.(Reps|Workers|Cache|Telemetry|Tracer)[[:space:]]*=[^=]' internal/experiments/*.go | grep -v '^internal/experiments/lab\.go:' || true)"
if [ -n "$envset" ]; then
  echo "ci: env fields set outside internal/experiments/lab.go (open a site with Lab.site):" >&2
  echo "$envset" >&2
  exit 1
fi
echo "== go test -race -count=2 (every package, twice, uncached) =="
# Every result in this repository must be a pure function of its seed —
# the parallel placement search (flat and cell-sharded), the fault plan,
# the measurement batch engine, the drift tracker, the experiment goldens,
# the placement service under concurrent admission, the daemon's replay
# and drain, the fleet generator — and much of it runs on pooled or shared
# state (task workspaces, jitter tables, search workspaces) that a second
# pass in the same process finds warm. So every package is run twice,
# uncached, under the race detector. Nothing is left out: internal/obs's
# SSE tests wait on the subscriber's progress, not on the clock; each
# daemon test in cmd/ binds an ephemeral port, and every test there
# writes only into its own temp dir.
go test -race -count=2 ./...
echo "== bench module (vet + unit tests; its own go.mod, so ./... above skips it) =="
# bench/ is the benchmark of record and drives the program through its
# public surface (bench/surface.go); a refactor that breaks that surface
# must fail here, not in the next benchmark run.
go vet -C bench ./... && go test -C bench ./...

echo "== serve soak (-race -count=20 of the worker pool's concurrency tests) =="
# internal/serve is the one package whose tests hold requests in flight
# on purpose (side-by-side execution, queue overflow, panic containment,
# Close under load, determinism under concurrent admission, what-ifs
# borrowing the search's pooled workspaces beside running placements).
# Twice is not a soak for those: run them twenty times under the race
# detector.
go test -race -count=20 ./internal/serve -run 'SideBySide|QueueFull|Panic|Close|DeterministicUnderConcurrency|WhatIfConcurrentWithPlace'

echo "== daemon soak (-race -count=20 of interfd's lifecycle tests) =="
# The daemon's drain under load, its placement API, its address file and
# its two-daemon replay each start and stop a whole daemon in-process:
# soak them so a leaked goroutine or an unordered audit write shows.
go test -race -count=20 ./cmd/interfd -run 'Drain|PlacementAPI|AddrFile|Replay'

echo "== jitter-table soak (-race -count=20 of the concurrent-fill and worker-count tests) =="
# An Env's jitter tables are shared state that batch workers grow while
# they run the same (workload, repetition) side by side: soak the tests
# that fill one table from eight goroutines and that require any worker
# count to render the same bytes.
go test -race -count=20 ./internal/app -run '^TestSharedFactorsConcurrentFill$'
go test -race -count=20 ./internal/measure -run '^TestJitterTablesKeyedByDefinition$'
go test -race -count=20 ./internal/experiments -run '^TestWorkerCountDoesNotChangeOutputs$'

echo "== task-workspace soak (-race -count=20 of the pooled workspace and stream reuse tests) =="
# A task-engine run borrows a pooled workspace that owns its event queue
# and jitter views; a run that stopped with events queued hands it back
# dirty. Soak the tests that require a reused workspace, after a halted
# run or under other goroutines' runs, to give the bits and event counts
# of a fresh one.
go test -race -count=20 ./internal/app -run '^(TestTaskWorkspaceReuseDeterministic|TestStreamPoolReuseDeterministic)$'

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
trap 'rm -rf "$smokedir"' EXIT
for tool in paperrepro interfd; do
  go build -o "$smokedir/$tool" "./cmd/$tool"
done
# The three offline stages are paperrepro subcommands; their old
# standalone binaries must not come back.
if go build -o "$smokedir/removed" ./cmd/placer ./cmd/interfsim ./cmd/profiler >/dev/null 2>&1; then
  echo "ci: cmd/placer, cmd/interfsim or cmd/profiler builds again; the stages are paperrepro sim|profile|place" >&2
  exit 1
fi

echo "== EXPERIMENTS.md is what paperrepro prints =="
# The checked-in results must be the code's: from the first artifact to
# the end, EXPERIMENTS.md must be `paperrepro -markdown -extras` byte for
# byte, the one wall-clock line masked. The serial reference path
# (-workers 1) must print the same bytes: it is the one full-mode run of
# all ten Table 5 mixes with every search and measurement one at a time,
# which the quick-mode tests never reach.
artifacts() { sed -n '/^## Figure 2 /,$p' "$1" | sed 's/^total runtime: .*/total runtime: -/'; }
artifacts EXPERIMENTS.md > "$smokedir/experiments.want"
for workers in 0 1; do
  "$smokedir/paperrepro" -markdown -extras -workers "$workers" -log-level warn -o "$smokedir/experiments.md"
  artifacts "$smokedir/experiments.md" > "$smokedir/experiments.got"
  if ! diff -u "$smokedir/experiments.want" "$smokedir/experiments.got"; then
    echo "ci: EXPERIMENTS.md is not what paperrepro -markdown -extras -workers $workers prints: regenerate it" >&2
    exit 1
  fi
done

echo "== flag sets (interfd, paperrepro and its three subcommands) =="
# Drift and SLO tuning are interfd constants, and the batch commands
# report once, at exit, with no live plane and no cache file: a deleted
# knob must not come back quietly, and a run that passes one must fail
# rather than ignore it (with -h after it, a flag that came back would
# exit 0 at once). A command is a binary plus an optional subcommand,
# passed as one word ("paperrepro place") and split here.
flags_of() { "$smokedir/"$1 -h 2>&1 | awk '$1 ~ /^-/ { sub(/^-/, "", $1); print $1 }' | sort | tr '\n' ' ' | sed 's/ $//'; }
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
  if "$smokedir/"$1 "-$2" x -h >/dev/null 2>&1; then
    echo "ci: $1 accepted the removed -$2 flag" >&2
    exit 1
  fi
}
check_flags interfd "addr-file drift-audit faults listen log-format log-level mix profile-samples report rounds search-iters search-restarts seed serve-only serve-queue trace workers"
check_flags paperrepro "extras log-format log-level markdown metrics o only quick seed trace workers"
check_flags "paperrepro place" "apps bound goal iters log-format log-level metrics qos seed trace"
check_flags "paperrepro sim" "ec2 faults interfering list log-format log-level metrics nodes pressure pressures seed trace workload"
check_flags "paperrepro profile" "alg log-format log-level metrics nodes samples seed trace workers workload"
reject_flag interfd drift-threshold
for cmd in paperrepro "paperrepro place" "paperrepro sim" "paperrepro profile"; do
  reject_flag "$cmd" listen
done
reject_flag paperrepro measure-cache
reject_flag "paperrepro profile" measure-cache
reject_flag "paperrepro place" cells
reject_flag "paperrepro place" exchange
reject_flag "paperrepro place" restarts
# No command takes a positional argument: one must fail, not be ignored.
# -log-level loud comes first so that a binary that ignored the argument
# would still exit at once; only the message tells the two apart.
for cmd in interfd paperrepro "paperrepro place" "paperrepro sim" "paperrepro profile"; do
  if ! "$smokedir/"$cmd -log-level loud stray 2>&1 | grep -q 'unexpected argument "stray"'; then
    echo "ci: $cmd did not reject a positional argument" >&2
    exit 1
  fi
done
if "$smokedir/paperrepro" simulate -h >/dev/null 2>&1; then
  echo "ci: paperrepro accepted an unknown subcommand" >&2
  exit 1
fi
echo "flag sets: interfd 17 flags, paperrepro and its subcommands 44, removed knobs, positional arguments and unknown subcommands rejected"

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

echo "ci: all checks passed"
