#!/usr/bin/env bash
# Evaluation-core perf trajectory: runs bench/perf_eval on the four
# standard fixtures and writes a machine-readable JSON report.
#
#   usage: scripts/bench_perf.sh [BUILD_DIR] [OUT_JSON] [LABEL]
#
# Defaults: BUILD_DIR=build, OUT_JSON=BENCH_eval.json (in the current
# directory), LABEL=$(git rev-parse --short HEAD). The committed
# bench/BENCH_eval.json keeps the before/after anchor numbers of the
# zero-allocation refactor; re-run this script to append a fresh
# measurement when touching the evaluation core.
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT="${2:-BENCH_eval.json}"
LABEL="${3:-$(git rev-parse --short HEAD 2>/dev/null || echo current)}"

PERF="$BUILD_DIR/bench/perf_eval"
if [ ! -x "$PERF" ]; then
  echo "bench_perf: building perf_eval in $BUILD_DIR" >&2
  cmake --build "$BUILD_DIR" --target perf_eval -j "$(nproc)" >&2
fi

# Four fixtures: the paper-scale batch (H=200, M=50), a 3x batch that
# stresses decode/evaluate bandwidth, and the two shapes the paper's
# figures run the GA in — PN (H=M=50, one re-balance pass) and ZO
# (H=200, no re-balance).
SMALL=$("$PERF" --label "$LABEL" --tasks 200 --generations 300)
LARGE=$("$PERF" --label "$LABEL" --tasks 600 --generations 150)
PN=$("$PERF" --label "$LABEL" --tasks 50 --procs 50 --generations 300)
ZO=$("$PERF" --label "$LABEL" --tasks 200 --passes 0 --generations 300)

cat > "$OUT" <<EOF
{
  "schema": "gasched-eval-perf-v1",
  "label": "$LABEL",
  "measurements": [
    $SMALL,
    $LARGE,
    $PN,
    $ZO
  ]
}
EOF
echo "bench_perf: wrote $OUT" >&2
cat "$OUT"
