# Convenience targets for the SafeTSA reproduction.

PYTHON ?= python3

# Targets work from a bare checkout too (no editable install needed).
export PYTHONPATH := src:$(PYTHONPATH)

.PHONY: test test-unit test-campaign bench-smoke perfbench-smoke \
	fuzz-smoke serve-smoke cache-smoke lint-corpus tables examples all \
	clean

test:
	$(PYTHON) -m pytest tests/ -q

# Fast lane: everything except the corpus/campaign tests (the `slow`
# marker); this is what CI's unit shard runs on every matrix entry.
test-unit:
	$(PYTHON) -m pytest tests/ -q -m "not slow"

# Campaign lane: only the long-running mutation campaigns and corpus
# sweeps. test-unit + test-campaign together cover the full suite.
test-campaign:
	$(PYTHON) -m pytest tests/ -q -m slow

# Every bench runner entry in its smoke configuration (the CI setting):
# the paper tables print, every other entry writes
# bench-smoke/BENCH_<name>.json -- never over a committed full-run
# BENCH_*.json -- and the run fails if any entry's guard fails.
bench-smoke:
	$(PYTHON) -m repro.bench.runner all --smoke

# One runner entry in its smoke configuration, e.g. `make bench-load`,
# `make bench-trace` (`python -m repro.bench.runner` lists the names);
# fails if one of the entry's guards fails.
bench-%:
	$(PYTHON) -m repro.bench.runner $* --smoke

# End-to-end benchmark smoke: three seconds of each perfbench workload
# at seed 1, untraced.  perfbench/run.py exits 0 even when an output
# check failed, so this fails unless each run's last stdout line (the
# result object) says "correct": true.
perfbench-smoke:
	@set -e; for workload in request execute serve; do \
		echo "== perfbench $$workload"; \
		result=$$($(PYTHON) perfbench/run.py --workload $$workload \
			--seed 1 --seconds 3 --trace 0 | tail -n 1); \
		echo "$$result"; \
		echo "$$result" | $(PYTHON) -c 'import json, sys; sys.exit(json.load(sys.stdin)["correct"] is not True)' \
			|| { echo "perfbench $$workload: outputs incorrect" >&2; exit 1; }; \
	done

# Deterministic fuzzing smoke: differential oracle over generated
# programs + wire-stream mutation under a fixed seed (~30 s); writes
# bench-smoke/BENCH_fuzz.json and fails on any reject-or-equivalent
# violation.
fuzz-smoke:
	$(PYTHON) -m repro.bench.runner fuzz --smoke

# End-to-end serving smoke against a live HTTP server: full
# compile/publish/fetch/verify/run lifecycle, hostile-stream
# rejection, and rate-limit enforcement (~5 s).
serve-smoke:
	$(PYTHON) -m repro.serve.smoke

# Persistent-cache smoke: under a fresh REPRO_CACHE_DIR, `run --trace`
# on Linpack and MiniVM three times each (cold, then warm) must print
# the same stdout every time and leave .stsa and .trace files in
# two-hex shards; then every cache file is truncated to 40
# bytes and each program must run twice more, exit 0, same stdout.
CACHE_SMOKE_PROGRAMS := Linpack MiniVM
cache-smoke:
	@set -e; work=$$(mktemp -d); trap 'rm -rf "$$work"' EXIT; \
	export REPRO_CACHE_DIR="$$work/cache"; \
	check() { \
		$(PYTHON) -m repro.cli run src/repro/bench/corpus/$$1.java \
			--trace > "$$work/stdout"; \
		cmp -s "$$work/stdout" "$$work/$$1.expected" \
			|| { echo "cache-smoke: $$1 stdout changed ($$2)" >&2; exit 1; }; \
	}; \
	for program in $(CACHE_SMOKE_PROGRAMS); do \
		echo "== $$program"; \
		$(PYTHON) -m repro.cli run src/repro/bench/corpus/$$program.java \
			--trace > "$$work/$$program.expected"; \
		check $$program "warm run 2"; check $$program "warm run 3"; \
	done; \
	for suffix in stsa trace; do \
		find "$$REPRO_CACHE_DIR" -type f -name "*.$$suffix" | grep -q . \
			|| { echo "cache-smoke: no .$$suffix entry" >&2; exit 1; }; \
	done; \
	if find "$$REPRO_CACHE_DIR" -type f | grep -Ev \
		'/([0-9a-f]{2})/\1[0-9a-f]{62}\.(stsa|trace)$$'; then \
		echo "cache-smoke: files outside two-hex shards" >&2; exit 1; \
	fi; \
	echo "== truncating every cache file to 40 bytes"; \
	find "$$REPRO_CACHE_DIR" -type f -exec truncate -s 40 {} +; \
	for program in $(CACHE_SMOKE_PROGRAMS); do \
		echo "== $$program (damaged cache)"; \
		check $$program "damaged run 1"; check $$program "damaged run 2"; \
	done

# Lint every corpus program with the structured-diagnostics driver;
# a non-zero exit (any error-severity diagnostic) fails the build.
lint-corpus:
	@set -e; for f in src/repro/bench/corpus/*.java; do \
		echo "== $$f"; $(PYTHON) -m repro.cli lint $$f; \
	done

# Every runner entry in its full configuration: the paper tables and
# every committed BENCH_*.json (RESULTS.txt is this run's output).
tables:
	$(PYTHON) -m repro.bench.runner all

# Run every example script (the public API's usage); the first failing
# example fails the target.
examples:
	@set -e; for ex in examples/*.py; do \
		echo "== $$ex"; $(PYTHON) $$ex; \
	done

all: test tables

clean:
	find . -name __pycache__ -type d -exec rm -rf {} +; rm -rf .pytest_cache .hypothesis bench-smoke
