#!/bin/sh
# End-to-end smoke test of the leaps-serve subsystem: generates a
# dataset, trains a model, boots the server, and drives one detection
# session over HTTP with curl. Asserts that
#
#   - a streamed session produces window verdicts,
#   - SIGTERM checkpoints the session to the spool and exits cleanly,
#   - a restarted server restores the session and scores the next batch
#     byte-identically to a never-interrupted reference server,
#   - saturating a session queue yields 429 with a Retry-After header.
set -eu

workdir=$(mktemp -d)
ref_pid=""
test_pid=""
bp_pid=""
cleanup() {
	# SIGTERM triggers graceful shutdown (spool writes inside $workdir),
	# so wait for the servers to finish before removing the tree.
	for pid in "$ref_pid" "$test_pid" "$bp_pid"; do
		[ -n "$pid" ] && kill "$pid" 2>/dev/null || true
	done
	for pid in "$ref_pid" "$test_pid" "$bp_pid"; do
		[ -n "$pid" ] && wait "$pid" 2>/dev/null || true
	done
	rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

say() { printf 'serve-smoke: %s\n' "$*"; }
fail() {
	say "FAIL: $*"
	exit 1
}

say "building CLIs into $workdir"
go build -o "$workdir" ./cmd/leaps-trace ./cmd/leaps-train ./cmd/leaps-serve

say "generating dataset with serve wire files"
"$workdir/leaps-trace" -dataset vim_reverse_tcp -out "$workdir" -seed 1 -serve-json -quiet

say "training model"
"$workdir/leaps-train" \
	-benign "$workdir/vim_reverse_tcp_benign.letl" \
	-mixed "$workdir/vim_reverse_tcp_mixed.letl" \
	-model "$workdir/leaps.model" \
	-lambda 8 -sigma2 2 -seed 1 -quiet -telemetry-out none

session_json="$workdir/vim_reverse_tcp_malicious.session.json"
batch_a="$workdir/vim_reverse_tcp_malicious.events.json"
batch_b="$workdir/vim_reverse_tcp_benign.events.json"

# start_server <logfile> <args...>: boots leaps-serve in the background
# and sets $started_pid / $started_addr (runs in the main shell so the
# pid survives; don't call it in a command substitution).
start_server() {
	log="$1"
	shift
	"$workdir/leaps-serve" "$@" 2>"$log" &
	started_pid=$!
	started_addr=""
	for _ in $(seq 1 100); do
		started_addr=$(sed -n 's/.*addr=\([0-9.]*:[0-9]*\).*/\1/p' "$log" | head -n1)
		[ -n "$started_addr" ] && break
		kill -0 "$started_pid" 2>/dev/null || fail "leaps-serve exited early: $(cat "$log")"
		sleep 0.1
	done
	[ -n "$started_addr" ] || fail "no listen address logged in $log"
}

# open_session <addr>: creates a session for the malicious process.
open_session() {
	curl -fsS -X POST --data-binary @"$session_json" "http://$1/v1/sessions" |
		sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' | head -n1
}

say "starting reference server (never interrupted)"
start_server "$workdir/ref.log" -model "$workdir/leaps.model" -addr 127.0.0.1:0 -spool "$workdir/spool-ref"
ref_pid=$started_pid
ref_addr=$started_addr

say "starting test server (will be SIGTERMed mid-session)"
start_server "$workdir/test.log" -model "$workdir/leaps.model" -addr 127.0.0.1:0 -spool "$workdir/spool-test"
test_pid=$started_pid
test_addr=$started_addr

curl -fsS "http://$test_addr/healthz" >/dev/null || fail "/healthz unreachable"
curl -fsS "http://$test_addr/readyz" | grep -q '"ready": true' || fail "/readyz not ready"
say "health probes OK"

ref_sid=$(open_session "$ref_addr")
test_sid=$(open_session "$test_addr")
[ -n "$ref_sid" ] && [ -n "$test_sid" ] || fail "session creation returned no id"
say "sessions open: ref=$ref_sid test=$test_sid"

say "streaming batch A (malicious log) into both servers"
curl -fsS -X POST --data-binary @"$batch_a" \
	"http://$ref_addr/v1/sessions/$ref_sid/events" >"$workdir/ref_a.json"
curl -fsS -X POST --data-binary @"$batch_a" \
	"http://$test_addr/v1/sessions/$test_sid/events" >"$workdir/test_a.json"
grep -q '"first_event"' "$workdir/test_a.json" || fail "batch A produced no verdicts"
grep -q '"malicious": true' "$workdir/test_a.json" || fail "malicious log raised no malicious verdict"
say "batch A verdicts OK"

say "SIGTERM test server; expecting a spooled session envelope"
kill -TERM "$test_pid"
wait "$test_pid" 2>/dev/null || fail "test server exited non-zero on SIGTERM"
test_pid=""
[ -f "$workdir/spool-test/$test_sid.ckpt" ] || fail "no envelope spooled for $test_sid"
grep -q '"id":"'"$test_sid"'"' "$workdir/spool-test/$test_sid.ckpt" ||
	fail "$test_sid.ckpt is not $test_sid's session envelope"
say "envelope spooled"

say "restarting test server over the same spool"
start_server "$workdir/test2.log" -model "$workdir/leaps.model" -addr 127.0.0.1:0 -spool "$workdir/spool-test"
test_pid=$started_pid
test_addr=$started_addr
curl -fsS "http://$test_addr/v1/sessions/$test_sid" >"$workdir/restored.json" ||
	fail "restored session $test_sid not addressable"
grep -q '"id": *"'"$test_sid"'"' "$workdir/restored.json" || fail "restored state is for the wrong session"

say "streaming batch B (benign log) into both servers"
curl -fsS -X POST --data-binary @"$batch_b" \
	"http://$ref_addr/v1/sessions/$ref_sid/events" >"$workdir/ref_b.json"
curl -fsS -X POST --data-binary @"$batch_b" \
	"http://$test_addr/v1/sessions/$test_sid/events" >"$workdir/test_b.json"
cmp -s "$workdir/ref_b.json" "$workdir/test_b.json" ||
	fail "restored session's batch-B verdicts differ from the uninterrupted reference"
say "restored verdicts byte-identical to uninterrupted run"

say "checking backpressure: tiny queue must reject the full batch"
start_server "$workdir/bp.log" -model "$workdir/leaps.model" -addr 127.0.0.1:0 -queue-depth 64
bp_pid=$started_pid
bp_addr=$started_addr
bp_sid=$(open_session "$bp_addr")
status=$(curl -s -o "$workdir/bp_body.json" -D "$workdir/bp_headers.txt" \
	-X POST --data-binary @"$batch_a" \
	-w '%{http_code}' "http://$bp_addr/v1/sessions/$bp_sid/events")
[ "$status" = "429" ] || fail "oversubscribed batch got status $status, want 429"
grep -qi '^Retry-After:' "$workdir/bp_headers.txt" || fail "429 response lacks Retry-After"
say "backpressure 429 + Retry-After OK"

say "PASS"
