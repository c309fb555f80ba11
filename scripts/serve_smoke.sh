#!/usr/bin/env bash
# Restore-after-kill smoke for hera-serve: start a TCP server, ingest,
# stitch, record a lookup answer, checkpoint, kill -9 the server, restore
# a fresh process from the checkpoint (which must be exactly one file),
# and demand the same lookup answer bit for bit — then prove ingest
# still works on the restored service.
set -euo pipefail

BIN=${HERA_CLI:-target/release/hera-cli}
PORT=${HERA_SERVE_PORT:-17878}
ADDR=127.0.0.1:$PORT
DIR=$(mktemp -d)
SERVER_PID=
cleanup() {
  [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
  rm -rf "$DIR"
}
trap cleanup EXIT

req() { "$BIN" client --connect "$ADDR" --line "$1"; }

# The server accepts connections sequentially; retry until it listens.
wait_ready() {
  for _ in $(seq 1 50); do
    if req '{"cmd":"stats"}' > /dev/null 2>&1; then return 0; fi
    sleep 0.2
  done
  echo "FAIL: server on $ADDR never became ready" >&2
  exit 1
}

"$BIN" serve --stitch-every 2 --listen "$ADDR" &
SERVER_PID=$!
wait_ready

req '{"cmd":"schema","name":"people","attrs":["name","email"]}'
req '{"cmd":"batch","records":[{"schema":0,"values":[{"Str":"alice example"},{"Str":"alice@x.io"}]},{"schema":0,"values":[{"Str":"alice example"},{"Str":"alice@x.io"}]}]}'
req '{"cmd":"ingest","schema":0,"values":[{"Str":"bob other"},{"Str":"bob@y.io"}]}'
req '{"cmd":"stitch"}'
BEFORE=$(req '{"cmd":"lookup","id":0}')
echo "lookup before kill: $BEFORE"
case "$BEFORE" in *'"ok":true'*) ;; *) echo "FAIL: lookup failed pre-kill" >&2; exit 1;; esac
req "{\"cmd\":\"checkpoint\",\"path\":\"$DIR/svc.hera\"}"
FILES=$(ls -A "$DIR")
if [ "$FILES" != "svc.hera" ]; then
  echo "FAIL: checkpoint left more than one file: $FILES" >&2
  exit 1
fi

kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=

"$BIN" serve --stitch-every 2 --restore "$DIR/svc.hera" --listen "$ADDR" &
SERVER_PID=$!
wait_ready

AFTER=$(req '{"cmd":"lookup","id":0}')
echo "lookup after restore: $AFTER"
if [ "$BEFORE" != "$AFTER" ]; then
  echo "FAIL: lookup diverged across kill + restore" >&2
  exit 1
fi

# The restored service keeps ingesting and stitching.
req '{"cmd":"ingest","schema":0,"values":[{"Str":"bob other"},{"Str":"bob@y.io"}]}'
req '{"cmd":"stitch"}'
MERGED=$(req '{"cmd":"lookup","id":2}')
echo "post-restore merge lookup: $MERGED"
case "$MERGED" in *'"members":[2,3]'*) ;; *) echo "FAIL: post-restore ingest did not merge the duplicate" >&2; exit 1;; esac
req '{"cmd":"shutdown"}'
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=

echo "serve smoke OK"
