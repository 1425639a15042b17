#!/usr/bin/env bash
# CI server-smoke gate: boot the daemon, drive a scripted multi-client
# JSONL session through berkmin-serverctl, and diff the normalized
# transcript against the committed golden.
#
#   scripts/server_smoke.sh [--update]
#
# --update regenerates the golden transcript (run locally after a
# deliberate protocol change, then commit the diff).
#
# The gate asserts, in order:
#   1. the transcript matches scripts/server_smoke/golden.jsonl
#      (verdicts, cores, error semantics, session lifecycle);
#   2. the per-request trace the daemon wrote contains one
#      server_request event per scripted request, with conflict and
#      latency fields;
#   3. the daemon exited by itself on the scripted shutdown, with
#      status 0 — no orphan process, no stale socket file.
#
# On failure the trace is left in $SMOKE_DIR for CI to upload.
set -euo pipefail

cd "$(dirname "$0")/.."

UPDATE=0
[ "${1:-}" = "--update" ] && UPDATE=1

SMOKE_DIR="${SMOKE_DIR:-_build/server_smoke}"
SOCKET="$SMOKE_DIR/daemon.sock"
TRACE="$SMOKE_DIR/trace.jsonl"
TRANSCRIPT="$SMOKE_DIR/transcript.jsonl"
GOLDEN="scripts/server_smoke/golden.jsonl"
SCRIPT="scripts/server_smoke/session.jsonl"

rm -rf "$SMOKE_DIR"
mkdir -p "$SMOKE_DIR"

dune build bin/serverd.exe bin/serverctl.exe

dune exec --no-build bin/serverd.exe -- --socket "$SOCKET" --trace "$TRACE" &
DAEMON=$!

cleanup() {
  if kill -0 "$DAEMON" 2>/dev/null; then
    kill "$DAEMON" 2>/dev/null || true
    wait "$DAEMON" 2>/dev/null || true
  fi
}
trap cleanup EXIT

# Wait for the socket to appear (the daemon binds before serving).
for _ in $(seq 1 100); do
  [ -S "$SOCKET" ] && break
  sleep 0.05
done
if [ ! -S "$SOCKET" ]; then
  echo "server_smoke: daemon never bound $SOCKET" >&2
  exit 1
fi

dune exec --no-build bin/serverctl.exe -- \
  --socket "$SOCKET" --golden "$SCRIPT" > "$TRANSCRIPT"

if [ "$UPDATE" = 1 ]; then
  cp "$TRANSCRIPT" "$GOLDEN"
  echo "server_smoke: golden transcript updated ($GOLDEN)"
fi

if ! diff -u "$GOLDEN" "$TRANSCRIPT"; then
  echo "server_smoke: transcript drifted from $GOLDEN" >&2
  echo "server_smoke: regenerate deliberately with scripts/server_smoke.sh --update" >&2
  exit 1
fi

# One server_request trace event per scripted request, each carrying
# per-request metrics.
REQUESTS=$(grep -cv -e '^[[:space:]]*#' -e '^[[:space:]]*$' "$SCRIPT")
EVENTS=$(grep -c '"event":"server_request"' "$TRACE")
if [ "$EVENTS" -ne "$REQUESTS" ]; then
  echo "server_smoke: expected $REQUESTS server_request trace events, got $EVENTS" >&2
  exit 1
fi
for field in latency_ms conflicts propagations; do
  WITH=$(grep -c "\"$field\"" "$TRACE")
  if [ "$WITH" -ne "$REQUESTS" ]; then
    echo "server_smoke: only $WITH/$REQUESTS trace events carry $field" >&2
    exit 1
  fi
done

# The scripted shutdown must terminate the daemon (no orphan) and
# unlink the socket.
for _ in $(seq 1 100); do
  kill -0 "$DAEMON" 2>/dev/null || break
  sleep 0.05
done
if kill -0 "$DAEMON" 2>/dev/null; then
  echo "server_smoke: daemon still running after scripted shutdown" >&2
  exit 1
fi
STATUS=0
wait "$DAEMON" || STATUS=$?
if [ "$STATUS" -ne 0 ]; then
  echo "server_smoke: daemon exited with status $STATUS" >&2
  exit 1
fi
if [ -e "$SOCKET" ]; then
  echo "server_smoke: socket file survived shutdown" >&2
  exit 1
fi

echo "server_smoke: OK ($REQUESTS requests, 4 clients, transcript matches golden)"
