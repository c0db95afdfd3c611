# Convenience targets; everything runs with PYTHONPATH=src.
# Beyond `make test`: `make coverage` for a line-coverage gate and
# `make chaos` for the fault-injection corpus replay.

.PHONY: test bench bench-net bench-all coverage chaos recover race fleet fleet-chaos

# Tier-1 suite (must stay green).
test:
	PYTHONPATH=src python -m pytest -x -q

# Tier-1 suite under pytest-cov with a line floor.  The environment
# ships without pytest-cov on purpose (no runtime deps); when it is
# absent this target explains itself instead of failing.
coverage:
	@PYTHONPATH=src python -c "import pytest_cov" 2>/dev/null \
		&& PYTHONPATH=src python -m pytest -x -q \
			--cov=repro --cov-report=term --cov-fail-under=80 \
		|| echo "coverage: pytest-cov not installed; skipping" \
			"(pip install pytest-cov to enable)"

# The chaos and recover suites' full signatures.  The runner's double
# run only shows that two runs of one commit agree, so a drift that
# repeats in both runs would pass it; tier-1 pins the other three
# suites (tests/test_scenarios.py).
SIGNATURE_chaos = bb9c7e8366635f146df73657d8062eea512c7826ace5bdf2cc711564855223ed
SIGNATURE_recover = c2c1ad141b8fba911d5beb41eabbe95c507d757c0a45262dc728439bf37fccfe

# Reads a suite's JSON report on stdin and fails unless the suite held
# every invariant, both runs agreed and the signature is the one given
# as the first argument.
define CHECK_PINNED
import json, sys
doc = json.load(sys.stdin)
for violation in doc["violations"]:
    print(doc["suite"] + ": VIOLATION: " + violation)
pinned = doc["signature"] == sys.argv[1]
print("%s: %d cases, %d violations, deterministic: %s, signature %s"
      % (doc["suite"], len(doc["results"]), len(doc["violations"]),
         doc["deterministic"], doc["signature"]))
if not pinned:
    print(doc["suite"] + ": signature drifted from " + sys.argv[1])
sys.exit(0 if doc["ok"] and pinned else 1)
endef
export CHECK_PINNED

# Replay the attack corpus under every canned fault schedule, check
# the isolation invariants, and prove the replay is a pure function
# of the seed by running it twice.  Every scenario target below runs
# `python -m repro.scenarios <suite>`, which always runs its suite
# twice and compares signatures; chaos and recover must also print
# their pinned signature.
chaos:
	PYTHONPATH=src python -m repro.scenarios chaos --json \
		| python -c "$$CHECK_PINNED" $(SIGNATURE_chaos)

# Same corpus replay with the recovery supervisor enabled: every case
# must leave the kernel alive (oopses contained, taint clear), plus a
# per-schedule demonstration that a crashing program is quarantined
# and auto-reloaded back to health — deterministically per seed.
recover:
	PYTHONPATH=src python -m repro.scenarios recover --json \
		| python -c "$$CHECK_PINNED" $(SIGNATURE_recover)

# Deterministic race hunt: explore seeded multi-CPU interleavings
# until both planted concurrency bugs (lock-discipline, RCU
# use-after-grace) are found with replayable seeds, then prove the
# race-free corpus clean (zero detector findings) and bit-identical
# across nproc=1/2/4.
race:
	PYTHONPATH=src python -m repro.scenarios race

# Staged-rollout acceptance: a 200-node simulated fleet must take the
# good release to 100%, halt the planted bad release at its canary
# wave and roll every node back, with no node running its verifier or
# holding a dispatch table other than its release's own, and produce
# bit-identical rollout signatures + telemetry exports across two runs
# of the same seed.
fleet:
	PYTHONPATH=src python -m repro.scenarios fleet

# Fleet under fire: both canonical releases rolled out under every
# control-channel chaos schedule (drops, dups, delays past the RPC
# deadline, partitions, crashing node agents), plus a crash/resume
# leg per pair — the orchestrator is killed at journal-append
# boundaries and resumed until the rollout lands, and the resumed
# report signature must be bit-identical to the uninterrupted run's.
# Runs twice to prove the whole suite is a pure function of the seed.
fleet-chaos:
	PYTHONPATH=src python -m repro.scenarios fleet-chaos

# Interpreter/load-cache throughput plus telemetry overhead, and the
# self-test of the timing harness they share (benchmarks/timing.py).
# Every gated figure is the median of 30 interleaved, host-scaled
# rounds of short windows; a median closer to its floor than its noise
# (per-round IQR / sqrt(rounds)) fails as "too noisy", never passes.
# One set of dispatch rounds gates the fast/interp ratio at 80% of
# benchmarks/throughput_baseline.json and at 95% of
# benchmarks/obs_overhead_baseline.json (the "telemetry is free when
# off" contract).  Writes .benchmarks/BENCH_throughput.json and
# .benchmarks/BENCH_obs_overhead.json.
bench:
	PYTHONPATH=src python -m pytest benchmarks/test_bench_throughput.py \
		benchmarks/test_timing.py -q

# Data-plane packet rates: >= 1M seeded packets through the batched
# XDP pipeline, two planes per tier, in 64-packet chunks interleaved
# across the tiers' planes with the same harness (median of the
# per-round paired ratios; "too noisy" fails).  Writes
# .benchmarks/BENCH_dataplane.json and gates on compiled-strictly-
# fastest, per-tier bit-identical signatures, and pps ratios at 80% of
# benchmarks/dataplane_baseline.json.  REPRO_BENCH_SMOKE=1 shrinks
# the legs to 4k packets for CI; every gate but the >= 1M floor runs.
bench-net:
	PYTHONPATH=src python -m pytest benchmarks/test_bench_dataplane.py -q

# Every paper figure/table benchmark.
bench-all:
	PYTHONPATH=src python -m pytest benchmarks -q
