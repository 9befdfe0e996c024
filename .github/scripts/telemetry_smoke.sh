#!/usr/bin/env bash
# Telemetry smoke: run a quick grid over the remote backend with
# --trace under two workers, kill one mid-run, and require (1) the
# merged trace directory passes schema validation with the sweep/job
# spans and worker connect events present and every cross-process
# parent link resolved, (2) `trace top` / `trace view` read it, and
# (3) the Chrome trace_event export is valid viewer input.
#
# Usage: telemetry_smoke.sh [WORKDIR]   (defaults to a fresh temp dir)
set -euo pipefail

WORK="${1:-$(mktemp -d)}"
mkdir -p "$WORK"
PORT="${TELEMETRY_SMOKE_PORT:-7351}"
# REPRO_CLI may be a multi-word command ("python -m repro.cli").
read -r -a CLI <<< "${REPRO_CLI:-repro-planarity}"
SCRIPTS="$(cd "$(dirname "$0")" && pwd)"

# Enough jobs (48, with an n=400 tail) that killing a worker lands
# mid-run and the requeue/disconnect paths show up in the trace.
GRID=(--kind test --families grid,delaunay --ns 64,128,400
      --epsilons 0.5,0.25 --seeds 0,1)

echo "== traced remote sweep (2 workers, one killed mid-run)"
"${CLI[@]}" sweep "${GRID[@]}" --backend remote --listen "127.0.0.1:$PORT" \
  --cache-dir "$WORK/store" --trace "$WORK/trace" --progress \
  > "$WORK/sweep.out" 2>&1 &
SWEEP=$!
"${CLI[@]}" worker --connect "127.0.0.1:$PORT" --retry-seconds 60 &
W1=$!
"${CLI[@]}" worker --connect "127.0.0.1:$PORT" --retry-seconds 60 &
W2=$!

sleep 3
if kill -9 "$W1" 2>/dev/null; then
  echo "killed worker $W1 mid-run"
else
  echo "worker $W1 already finished (grid drained early)"
fi

wait "$SWEEP"
kill "$W2" 2>/dev/null || true
wait "$W2" 2>/dev/null || true
tail -3 "$WORK/sweep.out"

echo "== merged trace must validate (schema, unique ids, parent links)"
python "$SCRIPTS/validate_trace.py" "$WORK/trace" \
  --require-span sweep --require-span job \
  --require-event service.worker_connect

echo "== trace CLI reads the directory"
"${CLI[@]}" trace top "$WORK/trace" --name job
"${CLI[@]}" trace view "$WORK/trace" --max-lines 20 > /dev/null

echo "== Chrome export must be valid viewer input"
"${CLI[@]}" trace export "$WORK/trace" --chrome \
  --out "$WORK/trace_chrome.json"
python "$SCRIPTS/validate_trace.py" "$WORK/trace" \
  --chrome "$WORK/trace_chrome.json"
