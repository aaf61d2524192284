#!/bin/sh
# One-command sanity pass: build, run the test suite, lint, then a
# seconds-long fig3 benchmark at smoke scale with the JSON perf report.
# Run from the repository root; refreshes BENCH_smoke.json (the committed
# baseline — commit the refresh when a perf change is intentional).
set -eu

# Throughput baseline for the regression gate below: the committed
# BENCH_smoke.json's fig3-to-engine ratio (HEAD copy, so a previous local
# run can't move the bar; absent before the ratio was recorded).
baseline_ratio=$(git show HEAD:BENCH_smoke.json 2>/dev/null \
  | grep '"fig3_engine_ratio"' | head -1 | sed -n 's/.*: *\([0-9.]*\).*/\1/p' || true)
# Resident-store baseline for the footprint gate (absent before schema 6).
baseline_wpv=$(git show HEAD:BENCH_smoke.json 2>/dev/null \
  | grep '"words_per_version"' | head -1 | sed -n 's/.*: *\([0-9.]*\).*/\1/p' || true)

dune build
dune runtest
dune build @lint
if command -v odoc >/dev/null 2>&1; then
  dune build @doc
else
  echo "smoke: odoc not installed; skipping doc build"
fi
dune exec bench/main.exe -- --scale smoke fig3 --json BENCH_smoke.json

# Throughput-regression gate, immune to machine drift: the fresh -j1 fig3
# DES events/sec is divided by the engine-only probe's events/sec measured
# on the same machine moments later, and that ratio must stay within 10%
# of the committed baseline's.  A slower machine slows both alike; a trip
# means the protocol stack got slower relative to the engine under it.
new_eps=$(grep '"des_events_per_sec"' BENCH_smoke.json | head -1 | tr -cd '0-9')
engine_eps=$(dune exec bench/alloc_probe.exe | sed -n 's|^events/sec *\([0-9]*\).*|\1|p')
new_ratio=$(awk "BEGIN { printf \"%.4f\", $new_eps / $engine_eps }")
if [ -n "$baseline_ratio" ]; then
  if awk "BEGIN { exit !($new_ratio < 0.9 * $baseline_ratio) }"; then
    echo "smoke FAIL: fig3/engine ev/s ratio $new_ratio < 90% of baseline $baseline_ratio" >&2
    exit 1
  fi
  echo "smoke: throughput gate OK (fig3/engine ratio $new_ratio vs baseline $baseline_ratio)"
else
  echo "smoke: throughput gate skipped (committed BENCH_smoke.json records no fig3_engine_ratio)"
fi

# Storage-regression gate: resident words per retained version must stay
# within 10% of the committed baseline.  This is deterministic (arena
# accounting, not wall clock), so a trip is a genuine layout regression —
# or an intentional change, in which case commit the refreshed baseline.
new_wpv=$(grep '"words_per_version"' BENCH_smoke.json | head -1 \
  | sed -n 's/.*: *\([0-9.]*\).*/\1/p')
if [ -n "$baseline_wpv" ] && [ -n "$new_wpv" ]; then
  if awk "BEGIN { exit !($new_wpv > 1.1 * $baseline_wpv) }"; then
    echo "smoke FAIL: words_per_version $new_wpv > 110% of baseline $baseline_wpv" >&2
    exit 1
  fi
  echo "smoke: storage gate OK ($new_wpv words/version vs baseline $baseline_wpv)"
else
  echo "smoke: storage gate skipped (no words_per_version baseline)"
fi

# Observer-effect gate: the same fig3 smoke run traced (--observe) must
# execute the exact same trajectory — identical DES event counts, virtual
# time, and committed transactions (docs/OBSERVABILITY.md).
dune exec bench/main.exe -- --scale smoke fig3 --json BENCH_smoke_observed.json --observe \
  >/dev/null
for key in des_events virtual_seconds committed_txns; do
  off=$(grep "\"$key\"" BENCH_smoke.json)
  on=$(grep "\"$key\"" BENCH_smoke_observed.json)
  if [ "$off" != "$on" ]; then
    echo "smoke FAIL: observer effect detected ($key differs: '$off' vs '$on')" >&2
    exit 1
  fi
done
rm -f BENCH_smoke_observed.json
echo "smoke: observer-effect gate OK (observe=on trajectory identical)"

# Parallel gate: the same fig3 smoke run fanned across every core (-j max,
# sss_par pool) must report the exact same deterministic fields as -j1 —
# the pool merges results in submission order, so only wall-clock keys may
# differ.  With >= 4 cores the run must also be at least 2x faster than
# the quiet -j1 baseline --speedup times alongside it.
JOBS=$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)
dune exec bench/main.exe -- --scale smoke fig3 -j max --speedup \
  --json BENCH_smoke_par.json >/dev/null
for key in des_events virtual_seconds committed_txns runs; do
  j1=$(grep "\"$key\"" BENCH_smoke.json)
  jn=$(sed -n '/"targets"/,/\]/p' BENCH_smoke_par.json | grep "\"$key\"")
  if [ "$j1" != "$jn" ]; then
    echo "smoke FAIL: -j$JOBS diverged from -j1 ($key differs: '$j1' vs '$jn')" >&2
    exit 1
  fi
done
echo "smoke: parallel gate OK (-j$JOBS targets identical to -j1)"
speedup=$(sed -n '/"speedup_vs_j1"/,/}/p' BENCH_smoke_par.json \
  | sed -n 's/.*"fig3": \([0-9.]*\).*/\1/p')
if [ "$JOBS" -ge 4 ]; then
  if [ -z "$speedup" ] || ! awk "BEGIN { exit !($speedup >= 2.0) }"; then
    echo "smoke FAIL: fig3 speedup at -j$JOBS is '${speedup:-none}', need >= 2.0" >&2
    exit 1
  fi
  echo "smoke: speedup gate OK (fig3 ${speedup}x at -j$JOBS)"
else
  echo "smoke: speedup gate skipped ($JOBS core(s); fig3 ${speedup:-n/a}x)"
fi
# Keep the parallel run as the recorded artifact: same deterministic fields,
# plus the jobs count and measured speedup — and the -j1 throughput
# measurements the gate above compared, as a top-level "throughput" block.
awk -v blk="  \"throughput\": {\n    \"fig3_j1_events_per_sec\": $new_eps,\n    \"engine_events_per_sec\": $engine_eps,\n    \"fig3_engine_ratio\": $new_ratio\n  }," \
  '/^  "targets": \[/ { print blk } { print }' BENCH_smoke_par.json > BENCH_smoke.json
rm -f BENCH_smoke_par.json
echo "smoke OK"
