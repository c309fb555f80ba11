#!/usr/bin/env bash
# Multi-client stress smoke for hera-serve: one TCP server, four
# concurrent clients each streaming interleaved ingest +
# lookup requests over a single held connection, then a final stitch and
# consistency check. Any error reply, dropped response line, or lost
# record fails the script.
set -euo pipefail

BIN=${HERA_CLI:-target/release/hera-cli}
PORT=${HERA_STRESS_PORT:-17879}
ADDR=127.0.0.1:$PORT
CLIENTS=4
OPS=40 # requests per client; every odd op is an ingest, every even a lookup
DIR=$(mktemp -d)
SERVER_PID=
cleanup() {
  [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
  rm -rf "$DIR"
}
trap cleanup EXIT

req() { "$BIN" client --connect "$ADDR" --line "$1"; }

wait_ready() {
  for _ in $(seq 1 50); do
    if req '{"cmd":"stats"}' > /dev/null 2>&1; then return 0; fi
    sleep 0.2
  done
  echo "FAIL: server on $ADDR never became ready" >&2
  exit 1
}

"$BIN" serve --stitch-every 8 --listen "$ADDR" &
SERVER_PID=$!
wait_ready

req '{"cmd":"schema","name":"people","attrs":["name","email"]}' > /dev/null

# Each client's stream: ingest first (so record 0 exists globally before
# any lookup on this connection is handled), then alternate lookups of
# id 0 with further ingests. Connections are held open for the whole
# stream — all four run concurrently against the live server.
client_stream() {
  local c=$1
  local i
  for i in $(seq 1 "$OPS"); do
    if [ $((i % 2)) -eq 1 ]; then
      printf '{"cmd":"ingest","schema":0,"values":[{"Str":"user%s entry %s"},{"Str":"u%s-%s@stress.io"}]}\n' "$c" "$i" "$c" "$i"
    else
      printf '{"cmd":"lookup","id":0}\n'
    fi
  done
}

CLIENT_PIDS=()
for c in $(seq 1 "$CLIENTS"); do
  client_stream "$c" | "$BIN" client --connect "$ADDR" > "$DIR/client$c.out" &
  CLIENT_PIDS+=("$!")
done
for pid in "${CLIENT_PIDS[@]}"; do
  wait "$pid"
done

INGESTS_PER_CLIENT=$(( (OPS + 1) / 2 ))
for c in $(seq 1 "$CLIENTS"); do
  GOT=$(wc -l < "$DIR/client$c.out")
  if [ "$GOT" -ne "$OPS" ]; then
    echo "FAIL: client $c got $GOT/$OPS responses" >&2
    exit 1
  fi
  if grep -q '"ok":false' "$DIR/client$c.out"; then
    echo "FAIL: client $c saw an error reply:" >&2
    grep '"ok":false' "$DIR/client$c.out" >&2
    exit 1
  fi
done

WANT=$((CLIENTS * INGESTS_PER_CLIENT))
STATS=$(req '{"cmd":"stats"}')
echo "stats after stress: $STATS"
case "$STATS" in
  *"\"records\":$WANT"*) ;;
  *) echo "FAIL: expected $WANT records in stats" >&2; exit 1;;
esac

req '{"cmd":"stitch"}' > /dev/null
FINAL=$(req '{"cmd":"lookup","id":0}')
echo "final lookup: $FINAL"
case "$FINAL" in
  *'"ok":true'*'"provisional":false'*) ;;
  *) echo "FAIL: post-stitch lookup not authoritative" >&2; exit 1;;
esac

req '{"cmd":"shutdown"}' > /dev/null
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=

echo "serve stress OK ($CLIENTS clients x $OPS ops, $WANT records)"
