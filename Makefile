# Convenience targets; everything is plain `go` underneath.

.PHONY: build test race vet ci bench repro quick run-daemon

build:
	go build ./...

# bench/ is its own module (./... does not reach it), so each target
# names it explicitly.
test:
	go test ./...
	go test -C bench ./...

race:
	go test -race ./...

vet:
	go vet ./...
	go vet -C bench ./...

# The pre-commit gate: vet + build + race-enabled tests.
ci:
	./ci.sh

# Run the benchmark of record (bench/README.md): four closed-loop
# workloads, end-to-end metrics and the per-layer ladder, results under
# bench/out/.
bench:
	go run -C bench .

# Regenerate EXPERIMENTS.md from the full experiment suite: the
# hand-written part above `## Figure 2` stays, and everything from there
# on is `paperrepro -markdown -extras` (the part ci.sh diffs).
repro:
	tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	go run ./cmd/paperrepro -markdown -extras -log-level warn -o "$$tmp/gen.md" && \
	{ sed '/^## Figure 2 /,$$d' EXPERIMENTS.md; sed -n '/^## Figure 2 /,$$p' "$$tmp/gen.md"; } > "$$tmp/new.md" && \
	mv "$$tmp/new.md" EXPERIMENTS.md

# A fast sanity pass over every experiment.
quick:
	go run ./cmd/paperrepro -quick

# Start the long-running interference daemon on :8080: the placement API
# (/api/place, /api/whatif), its in-process self-driver, and the
# observability plane (/metrics, /healthz, /readyz, /api/events,
# /api/decisions, /debug/pprof/). Ctrl-C drains — in-flight decisions
# finish and are verified — and writes interfd-report.json and
# interfd-decisions.jsonl.
run-daemon:
	go run ./cmd/interfd -listen :8080
