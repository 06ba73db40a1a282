# One set of commands shared by CI (.github/workflows/ci.yml) and the
# local verify recipe, so "passes locally" and "passes in CI" mean the
# same thing.  Everything runs from the source tree via PYTHONPATH=src;
# no install step is required (see pyproject.toml for the optional
# editable install).

PYTHON ?= python
PYTEST  = PYTHONPATH=src $(PYTHON) -m pytest

.PHONY: test-fast test bench-smoke parity stream-smoke net-smoke net-strict persist-smoke chaos-smoke fleet-smoke scenario-smoke store-smoke bench bench-compare bench-harness reach clean

## where `make bench` writes its results
OUT ?= bench-results.json

## Fast suite: everything but the slow-marked benchmarks/sweeps (~35 s).
test-fast:
	$(PYTEST) -q -m "not slow"

## Full tier-1: tests/ AND benchmarks/, fail-fast — the gate this repo
## is held to (~2 min).
test:
	$(PYTEST) -x -q

## Benchmark smoke: regenerates BENCH_*.json at the repo root (the
## fast-exponentiation engine and primitive costs on P-256, the P-256
## lockstep comb's crossover by chain count, and the
## batch round's own peak RSS (VmHWM), growth bound and throughput
## record); CI uploads the JSON as artifacts.  Benchmarks
## record into the untracked .bench_records.json; only the keys this
## run recorded are merged into the tracked BENCH_fastexp.json.
bench-smoke:
	rm -f .bench_records.json
	$(PYTEST) -q -s benchmarks/test_fastexp_speedup.py \
		benchmarks/test_streaming_rss.py
	$(PYTHON) scripts/merge_bench.py .bench_records.json BENCH_fastexp.json

## Cross-backend parity plus the proof layers over it, ElGamal (with
## the pinned one-part shuffle) and the threshold key operations, the
## inner envelope + payload framing, and the NIZK mix's pinned digests
## and op budgets (quick confidence after touching crypto/ or
## core/messages.py).
parity:
	$(PYTEST) -q tests/crypto/test_backend_parity.py tests/crypto/test_ec.py \
		tests/crypto/test_nizk.py tests/crypto/test_shuffle_proof.py \
		tests/crypto/test_shuffle_checks.py tests/crypto/test_vector.py \
		tests/crypto/test_fastexp.py tests/crypto/test_aead_kem.py \
		tests/crypto/test_elgamal.py tests/crypto/test_secret_sharing.py \
		tests/core/test_messages.py tests/core/test_nizk_mix.py

## End-to-end stream on the paper's curve with the demo fault schedule
## (buddy recovery, a trap-caught tamper and a blamed user).
stream-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.cli run-stream --rounds 6 --group p256

## One full TCP-loopback round (every node behind a local socket) on
## the paper's curve.
net-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.cli round --transport tcp --group p256 \
		--users 4 --groups 2 --iterations 3

## Durability end to end: run a 3-round P-256 stream with a state
## dir, SIGKILL it mid-round-2, resume from the write-ahead log, and
## require the final StreamReport to be fully ok.  Then a durable
## `round` on P-256 (a one-round stream journal) must leave a state dir
## that `resume` finds cleanly shut down.
persist-smoke:
	PYTHONPATH=src $(PYTHON) scripts/persist_smoke.py
	d=$$(mktemp -d); \
	PYTHONPATH=src $(PYTHON) -m repro.cli round --group p256 --users 4 \
		--iterations 2 --seed smoke --state-dir $$d \
	&& PYTHONPATH=src $(PYTHON) -m repro.cli resume --state-dir $$d \
		| grep "nothing to resume"; \
	status=$$?; rm -rf $$d; exit $$status

## Resilience end to end: a 3-round TCP stream under a chaos plan
## (drop 2%, delay 20 ms on 10%, dup 1%) plus one undeclared server
## kill that heartbeats must detect and buddy recovery must heal.
chaos-smoke:
	PYTHONPATH=src $(PYTHON) scripts/chaos_smoke.py

## Multi-process fleet end to end: a 3-round stream sharded over two
## `repro serve` OS processes with a full rolling restart mid-stream,
## byte-identical to the in-process baseline.
fleet-smoke:
	PYTHONPATH=src $(PYTHON) scripts/fleet_smoke.py

## Scenario engine end to end: the bundled spike + tamper + churn
## workload (mixed microblog/dialing traffic) over TCP — the tamper is
## caught by the traps, the blame-rekey retry heals delivery, churned
## users are reabsorbed, and the report's conservation assert runs.
scenario-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.cli scenario run \
		black-friday-tamper-churn --seed atom-rpc --transport tcp

## Sharded log store end to end: a long multi-process stream with tiny
## WAL segments — rotation + compaction keep the coordinator journal
## under a fixed disk ceiling and every serve journal within its
## retention bound, one process is SIGKILLed and rebuilt via checkpoint
## shipping, and the stream stays byte-identical to in-process.
store-smoke:
	PYTHONPATH=src $(PYTHON) scripts/store_smoke.py

## tests/net and tests/fleet with RuntimeWarnings promoted to errors.
net-strict:
	$(PYTEST) -q -W error::RuntimeWarning tests/net tests/fleet

## The repo's one benchmark (bench/README.md): every workload, timed
## and traced, three repeats (~25 min).  A perf PR runs it on the parent
## commit and on the change and compares the two files.
bench:
	$(PYTHON) -m bench.run --repeats 3 --out $(OUT)

bench-compare:
	$(PYTHON) -m bench.run --compare $(BEFORE) $(AFTER)

## The harness itself, on its smallest workload, on the NIZK and trap
## paths, and on the fleet (the only workload with serve-side spans:
## fleet.close_round, store.compact, serve-process mixing): one traced
## run each, so a function bench/layers.py wraps that moved, or a
## payload digest that changed, fails in CI and not in the next perf PR.
bench-harness:
	$(PYTHON) -m bench.run --workload ctl_toy_tcp_wal --seconds 6 --trace 1
	$(PYTHON) -m bench.run --workload nizk_p256_inproc --seconds 6 --trace 1
	$(PYTHON) -m bench.run --workload trap_p256_inproc --seconds 6 --trace 1
	$(PYTHON) -m bench.run --workload trap_p256_fleet2 --seconds 6 --trace 1

## Reach pass: run every CLI subcommand, the examples, the smokes and
## the four bench workloads (--seconds 8) one process at a time under
## a function-entry hook, then list the functions in src/ that none of
## them ran, largest first, with totals per package (~8 min; not in
## tier-1).  Leaves no file and no process behind.
reach:
	$(PYTHON) scripts/reach.py

clean:
	rm -rf src/repro_atom.egg-info build .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
