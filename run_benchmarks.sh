#!/usr/bin/env bash
# Full benchmark sweep: regenerates every table and figure of the paper
# and records the output.  Takes ~1 hour on one CPU core.
#
#   ./run_benchmarks.sh            # full scale
#   REPRO_BENCH_SCALE=smoke ./run_benchmarks.sh   # 2-minute plumbing check
set -uo pipefail
cd "$(dirname "$0")"
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# Fast checkpoint/resume regression gate: train 2 epochs, kill the
# process, resume the third, assert bit-identical weights and curves.
# Fails the sweep loudly if checkpointing regresses (~30s).
python3 benchmarks/resume_smoke.py || exit 1

# Chaos gate: inject drifted/dropped/NaN data, NaN gradients, corrupted
# checkpoints, and killed workers; every fault must be repaired,
# quarantined, or cleanly reported, and the data contracts must cost
# <5% of a training epoch (see docs/ROBUSTNESS.md).
python3 benchmarks/chaos_smoke.py || exit 1

# Serving gate: forecasts served through the registry/cache/model
# forward must stay bit-identical to forecast_latest, the response cache
# must stay >= 5x faster than a cold forward, and the request stream
# must hold its throughput floor.  Also gates the data plane: a worker
# round trip over the zero-copy shm ring must stay >= 2x faster than
# the pickled pipe at a 500-region payload (bit-identical answers, no
# leaked /dev/shm segments), and a synthetic overload burst must shed
# fast with ShedError while still serving.  Writes BENCH_SERVE.json at
# the repo root (see docs/SERVING.md).
python3 benchmarks/serve_smoke.py || exit 1

# Sharding gate: a short AF fit under exact-mode sharded execution must
# be bit-identical to dense (losses, weights, RNG), and a 500-region
# metro city must train a smoke epoch through the block-sparse blocked
# path under the per-shard memory budget, with the dense epoch taking
# no more wall-clock than the blocked one.
# Writes BENCH_SHARD.json at the repo root (see docs/SHARDING.md).
python3 benchmarks/shard_smoke.py || exit 1

# End-to-end correctness gate: one short untraced pipeline-metro run of
# the e2e benchmark (500 regions: block-sparse OD, blocked-sharded fit,
# checkpoint, 2-worker pool serving).  It exits non-zero when a pool
# answer is not bit-identical to the in-process sharded predict, when a
# shard exceeds the 64 MiB budget, or when a forecast cell is
# non-finite or does not sum to 1 (see e2ebench/README.md and
# docs/BENCHMARKS.md).  Its timings are not gated here.
python3 e2ebench/run.py --workload pipeline-metro --seed 1 --seconds 2 --trace 0 || exit 1

# The same gate at paper scale, traced: served answers must equal
# forecast_latest, and the stage buckets (factorize, forecast, recover,
# loss, glue) must sum to the op profiler's total.
python3 e2ebench/run.py --workload pipeline-paper --seed 1 --seconds 2 --trace 1 || exit 1

python3 -m pytest benchmarks/ --benchmark-only -p no:cacheprovider -s -q \
    2>&1 | tee bench_output.txt
