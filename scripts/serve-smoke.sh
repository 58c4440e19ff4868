#!/usr/bin/env bash
# serve-smoke.sh — CI smoke test for the regserve daemon.
#
# Leg 1: starts the daemon, submits one 32³ synthetic registration over
# HTTP, polls the job to completion, and asserts the final misfit is
# finite and below the initial misfit.
#
# Leg 2 (durability): starts a daemon with a journal and a checkpoint
# spool, SIGKILLs it while a job is running, restarts it with the same
# -journal and -spool directories, and asserts the job re-runs to a finite
# misfit with attempts > 1 — no accepted job is lost to the crash. Usage: scripts/serve-smoke.sh [regserve-binary]
#
# Every response body and the journal live under one temporary directory,
# removed on exit; on exit, interrupt or termination both daemons are
# stopped and reaped, so the script leaves no file and no process behind.
set -euo pipefail

WORK=$(mktemp -d)
SERVE_PID=""
SERVE_PID2=""

# stop_daemon PID: SIGTERM, wait up to 10 s for the drain, then SIGKILL.
stop_daemon() {
    local pid=$1
    [ -n "$pid" ] || return 0
    kill "$pid" 2>/dev/null || true
    for _ in $(seq 1 50); do
        kill -0 "$pid" 2>/dev/null || break
        sleep 0.2
    done
    kill -9 "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
}
cleanup() {
    stop_daemon "$SERVE_PID"
    stop_daemon "$SERVE_PID2"
    rm -rf "$WORK"
}
trap cleanup EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

BIN=${1:-}
if [ -z "$BIN" ]; then
    go build -o "$WORK/regserve" ./cmd/regserve
    BIN=$WORK/regserve
fi
ADDR=127.0.0.1:7470
BASE=http://$ADDR

"$BIN" -addr "$ADDR" -workers 1 &
SERVE_PID=$!

for _ in $(seq 1 50); do
    curl -fsS "$BASE/healthz" >/dev/null 2>&1 && break
    sleep 0.2
done
curl -fsS "$BASE/healthz" >/dev/null

code=$(curl -s -o "$WORK/job.json" -w '%{http_code}' -X POST "$BASE/jobs" \
    -H 'Content-Type: application/json' \
    -d '{"generator":"synthetic","n":[32,32,32],"tasks":2,"time_steps":2,"max_newton_iters":2}')
if [ "$code" != 202 ]; then
    echo "serve-smoke: POST /jobs returned $code" >&2
    cat "$WORK/job.json" >&2
    exit 1
fi
id=$(jq -r .id "$WORK/job.json")

state=""
for _ in $(seq 1 300); do
    code=$(curl -s -o "$WORK/status.json" -w '%{http_code}' "$BASE/jobs/$id")
    if [ "$code" != 200 ]; then
        echo "serve-smoke: GET /jobs/$id returned $code" >&2
        exit 1
    fi
    state=$(jq -r .state "$WORK/status.json")
    case "$state" in
    done) break ;;
    failed | canceled)
        echo "serve-smoke: job ended $state" >&2
        cat "$WORK/status.json" >&2
        exit 1
        ;;
    esac
    sleep 1
done
if [ "$state" != done ]; then
    echo "serve-smoke: job did not finish in time" >&2
    cat "$WORK/status.json" >&2
    exit 1
fi

jq -e '.result.misfit_final as $m
       | ($m | isnan or isinfinite | not)
       and $m >= 0 and $m < .result.misfit_init' "$WORK/status.json" >/dev/null || {
    echo "serve-smoke: misfit check failed" >&2
    cat "$WORK/status.json" >&2
    exit 1
}
echo "serve-smoke: ok (misfit $(jq -r .result.misfit_init "$WORK/status.json") -> $(jq -r .result.misfit_final "$WORK/status.json"))"
stop_daemon "$SERVE_PID"
SERVE_PID=""

# ---- Leg 2: kill-and-restart durability -------------------------------
ADDR2=127.0.0.1:7471
BASE2=http://$ADDR2
JDIR=$WORK/journal

start_durable() {
    "$BIN" -addr "$ADDR2" -workers 1 -journal "$JDIR" -spool "$JDIR/spool" &
    SERVE_PID2=$!
    for _ in $(seq 1 50); do
        curl -fsS "$BASE2/healthz" >/dev/null 2>&1 && break
        sleep 0.2
    done
    curl -fsS "$BASE2/healthz" >/dev/null
}
start_durable
curl -fsS "$BASE2/readyz" >/dev/null

code=$(curl -s -o "$WORK/job2.json" -w '%{http_code}' -X POST "$BASE2/jobs" \
    -H 'Content-Type: application/json' \
    -H 'Idempotency-Key: smoke-durable-1' \
    -d '{"generator":"synthetic","n":[32,32,32],"tasks":2,"time_steps":2,"max_newton_iters":6,"grad_tol":1e-12}')
if [ "$code" != 202 ]; then
    echo "serve-smoke: durable POST /jobs returned $code" >&2
    cat "$WORK/job2.json" >&2
    exit 1
fi
id2=$(jq -r .id "$WORK/job2.json")

# Wait for the job to start, then SIGKILL the daemon mid-solve.
for _ in $(seq 1 200); do
    state=$(curl -s "$BASE2/jobs/$id2" | jq -r .state)
    [ "$state" = running ] && break
    sleep 0.05
done
if [ "$state" != running ]; then
    echo "serve-smoke: durable job never started ($state)" >&2
    exit 1
fi
kill -9 "$SERVE_PID2"
wait "$SERVE_PID2" 2>/dev/null || true
SERVE_PID2=""

# Restart with the same journal: the accepted job must replay and re-run.
start_durable
state=""
for _ in $(seq 1 300); do
    code=$(curl -s -o "$WORK/status2.json" -w '%{http_code}' "$BASE2/jobs/$id2")
    if [ "$code" != 200 ]; then
        echo "serve-smoke: recovered job vanished (GET returned $code)" >&2
        exit 1
    fi
    state=$(jq -r .state "$WORK/status2.json")
    case "$state" in
    done) break ;;
    failed | canceled)
        echo "serve-smoke: recovered job ended $state" >&2
        cat "$WORK/status2.json" >&2
        exit 1
        ;;
    esac
    sleep 1
done
if [ "$state" != done ]; then
    echo "serve-smoke: recovered job did not finish in time" >&2
    cat "$WORK/status2.json" >&2
    exit 1
fi
jq -e '.result.misfit_final as $m
       | ($m | isnan or isinfinite | not)
       and $m >= 0 and $m < .result.misfit_init
       and .attempts > 1' "$WORK/status2.json" >/dev/null || {
    echo "serve-smoke: recovered job misfit/attempts check failed" >&2
    cat "$WORK/status2.json" >&2
    exit 1
}
# Idempotent re-POST of the pre-crash submission resolves to the same job.
dedup=$(curl -s -X POST "$BASE2/jobs" \
    -H 'Content-Type: application/json' \
    -H 'Idempotency-Key: smoke-durable-1' \
    -d '{"generator":"synthetic","n":[32,32,32],"tasks":2,"time_steps":2,"max_newton_iters":6,"grad_tol":1e-12}')
if [ "$(echo "$dedup" | jq -r .id)" != "$id2" ] || [ "$(echo "$dedup" | jq -r .deduped)" != true ]; then
    echo "serve-smoke: idempotency key did not survive the restart: $dedup" >&2
    exit 1
fi
# The /stats journal block must report the recovery; the retry block is gone.
curl -s "$BASE2/stats" | jq -e '.journal.enabled and .journal.recovered >= 1 and (has("retries") | not)' >/dev/null || {
    echo "serve-smoke: /stats journal block missing or wrong, or a retries block present" >&2
    curl -s "$BASE2/stats" >&2
    exit 1
}
stop_daemon "$SERVE_PID2"
SERVE_PID2=""
echo "serve-smoke: durability ok (job $id2 survived SIGKILL: misfit $(jq -r .result.misfit_init "$WORK/status2.json") -> $(jq -r .result.misfit_final "$WORK/status2.json"), attempts $(jq -r .attempts "$WORK/status2.json"))"
