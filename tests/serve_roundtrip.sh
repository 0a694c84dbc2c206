#!/usr/bin/env bash
# Cross-process distributed-serving round trip: real serving processes on
# real loopback sockets, driven entirely through dpjl_tool. The distributed
# tier's core guarantee under test is byte-identity — the router-merged
# nearest-neighbor / range / batch outputs must diff-equal the
# single-process query outputs at every topology:
#
#   1. sketch-batch builds the monolithic corpus index and probe sketches,
#   2. the single-process `query` outputs are the baseline,
#   3. topology A: ONE server process serving all partitions, fronted by
#      both `client` (direct) and `route` (every group -> same endpoint),
#   4. topology B: TWO server processes with two partitions each,
#   5. topology C: FOUR server processes (one per partition) plus a replica
#      for one group; after the replicated group's primary is killed -9
#      mid-run, routed queries must STILL be byte-identical (failover),
#      and killing the last replica must yield a clean "unavailable" error.
#
#   6. the client-only RPCs: insert (then a query that finds the inserted
#      id), stats and ping, plus routed stats.
#
# Registered in ctest (tools/CMakeLists.txt) with the serve_test label; the
# multi-process smoke job in CI runs this script too.
set -euo pipefail

tool="${1:?usage: serve_roundtrip.sh /path/to/dpjl_tool}"
dir="$(mktemp -d "${TMPDIR:-/tmp}/dpjl_serve_roundtrip.XXXXXX")"
pids=()
cleanup() {
  for pid in "${pids[@]:-}"; do kill -9 "$pid" 2> /dev/null || true; done
  rm -rf "$dir"
}
trap cleanup EXIT

# start_server VAR [serve flags...]: starts a serving process, waits for
# its "listening<TAB>HOST:PORT" readiness line, and stores the endpoint in
# VAR and the process id in last_pid. Runs in the parent shell (no command
# substitution) so the pids array survives for cleanup and kill tests.
# --serve-seconds bounds the process lifetime so nothing outlives the test.
server_n=0
start_server() {
  local outvar="$1" out="$dir/server.$server_n.out"
  shift
  server_n=$((server_n + 1))
  "$tool" serve "$@" --serve-seconds 120 > "$out" 2> /dev/null &
  last_pid=$!
  pids+=("$last_pid")
  disown "$last_pid"  # keep bash's "Killed" job notices out of the output
  for _ in $(seq 1 100); do
    if grep -q "^listening" "$out" 2> /dev/null; then
      printf -v "$outvar" '%s' "$(grep '^listening' "$out" | cut -f2)"
      return 0
    fi
    sleep 0.1
  done
  echo "FAIL: server did not become ready" >&2
  return 1
}

# Deterministic 12x16 CSV matrix -> 12 sketches (ids row0..row11) + index.
rows=12 cols=16
: > "$dir/matrix.csv"
for ((i = 0; i < rows; i++)); do
  line=""
  for ((j = 0; j < cols; j++)); do
    if ((j > 0)); then line+=","; fi
    line+="$(((i * 31 + j * 7) % 10))"
  done
  echo "$line" >> "$dir/matrix.csv"
done
"$tool" sketch-batch --input "$dir/matrix.csv" --output-prefix "$dir/row" \
  --base-noise-seed 404 --epsilon 8 --seed 3 --index "$dir/mono.idx" \
  2> /dev/null

# Single-process baselines. The range baseline comes from topology A's
# single serving process below (the in-process `query` surface has no
# range flag); NN, batch and estimate tie directly back to local runs.
"$tool" query --index "$dir/mono.idx" --sketch "$dir/row0.sketch" --top 5 \
  > "$dir/mono.nn" 2> /dev/null
# Radius just above the rank-3 distance (the printed value is rounded to
# 6 decimals, so a hair of headroom keeps the third neighbor inside).
radius="$(awk 'NR==3{printf "%f", $2 + 0.000002}' "$dir/mono.nn")"
"$tool" estimate --a "$dir/row1.sketch" --b "$dir/row7.sketch" 2> /dev/null \
  | grep '^squared_distance_estimate' > "$dir/mono.est"

"$tool" index export-shards --index "$dir/mono.idx" \
  --output-prefix "$dir/shard." --partitions 4
all_parts="$dir/shard.0.part,$dir/shard.1.part,$dir/shard.2.part,$dir/shard.3.part"
probes="$dir/row0.sketch,$dir/row4.sketch,$dir/row9.sketch"

check_routed() {  # args: label endpoints
  local label="$1" endpoints="$2"
  "$tool" route query --manifest "$dir/shard.manifest" \
    --endpoints "$endpoints" --sketch "$dir/row0.sketch" --top 5 \
    > "$dir/$label.nn" 2> /dev/null
  diff "$dir/mono.nn" "$dir/$label.nn" \
    || { echo "FAIL: $label routed top-n differs"; exit 1; }
  "$tool" route range --manifest "$dir/shard.manifest" \
    --endpoints "$endpoints" --sketch "$dir/row0.sketch" \
    --radius-sq "$radius" > "$dir/$label.range" 2> /dev/null
  diff "$dir/single.range" "$dir/$label.range" \
    || { echo "FAIL: $label routed range differs"; exit 1; }
  "$tool" route batch --manifest "$dir/shard.manifest" \
    --endpoints "$endpoints" --sketches "$probes" --top 3 \
    > "$dir/$label.batch" 2> /dev/null
  diff "$dir/single.batch" "$dir/$label.batch" \
    || { echo "FAIL: $label routed batch differs"; exit 1; }
}

# --- Topology A: one process serves everything -----------------------------
start_server ep_all --partitions "$all_parts"

"$tool" client query --connect "$ep_all" --sketch "$dir/row0.sketch" --top 5 \
  > "$dir/single.nn" 2> /dev/null
diff "$dir/mono.nn" "$dir/single.nn" \
  || { echo "FAIL: client query differs from in-process query"; exit 1; }
# Range baseline via the single serving process. The routed topologies
# below must reproduce it byte-for-byte; here just pin that the radius
# captured the top of the ranking (at least the 3 nearest).
"$tool" client range --connect "$ep_all" --sketch "$dir/row0.sketch" \
  --radius-sq "$radius" > "$dir/single.range" 2> /dev/null
[ "$(wc -l < "$dir/single.range")" -ge 3 ] \
  || { echo "FAIL: range baseline missed the top-3 neighbors"; exit 1; }
# The batched RPC agrees with per-probe queries, so it can serve as the
# reference output for the routed batches below.
"$tool" client batch --connect "$ep_all" --sketches "$probes" --top 3 \
  > "$dir/single.batch" 2> /dev/null
for idx in 0 1 2; do
  probe="$(echo "$probes" | cut -d, -f$((idx + 1)))"
  "$tool" query --index "$dir/mono.idx" --sketch "$probe" --top 3 2> /dev/null \
    | sed "s/^/$idx\t/" >> "$dir/single.batch.expected"
done
diff "$dir/single.batch.expected" "$dir/single.batch" \
  || { echo "FAIL: batched RPC differs from per-probe queries"; exit 1; }
# Cross-shard distance estimate over the wire matches the local estimator.
"$tool" client estimate --connect "$ep_all" --id-a row1 --id-b row7 \
  > "$dir/single.est" 2> /dev/null
diff "$dir/mono.est" "$dir/single.est" \
  || { echo "FAIL: wire estimate differs from local estimate"; exit 1; }

# One endpoint, every group: the fan-out must contact it exactly once.
check_routed routed1 "$ep_all,$ep_all,$ep_all,$ep_all"

# Client-only RPCs against a server of its own (so the insert cannot leak
# into the byte-identity checks): insert row0's sketch again under a new
# id; a query with that sketch must then return both copies, the new id
# and row0, as its two nearest neighbors.
start_server ep_ins --index "$dir/mono.idx"
"$tool" client insert --connect "$ep_ins" --id inserted \
  --sketch "$dir/row0.sketch" > "$dir/insert.out" 2> /dev/null
grep -qx "inserted inserted" "$dir/insert.out" \
  || { echo "FAIL: client insert did not confirm the id"; exit 1; }
"$tool" client query --connect "$ep_ins" --sketch "$dir/row0.sketch" \
  --top 2 > "$dir/insert.nn" 2> /dev/null
cut -f1 "$dir/insert.nn" | sort | tr '\n' ' ' | grep -qx "inserted row0 " \
  || { echo "FAIL: query after insert misses the inserted id"; exit 1; }
"$tool" client ping --connect "$ep_ins" > "$dir/ping.out" 2> /dev/null
grep -qx "pong" "$dir/ping.out" \
  || { echo "FAIL: client ping did not answer pong"; exit 1; }
"$tool" client stats --connect "$ep_ins" > "$dir/stats.out" 2> /dev/null
grep -qx "index_size.13" "$dir/stats.out" \
  || { echo "FAIL: client stats does not count the inserted sketch"; exit 1; }

# --- Topology B: two processes, two partitions each ------------------------
start_server ep_front --partitions "$dir/shard.0.part,$dir/shard.1.part"
start_server ep_back --partitions "$dir/shard.2.part,$dir/shard.3.part"
check_routed routed2 "$ep_front,$ep_front,$ep_back,$ep_back"

# --- Topology C: four processes + one replica, then kill the primary -------
start_server ep0 --partitions "$dir/shard.0.part"
start_server ep1 --partitions "$dir/shard.1.part"
pid1="$last_pid"
start_server ep1b --partitions "$dir/shard.1.part"
pid1b="$last_pid"
start_server ep2 --partitions "$dir/shard.2.part"
start_server ep3 --partitions "$dir/shard.3.part"
topology="$ep0,$ep1|$ep1b,$ep2,$ep3"
check_routed routed4 "$topology"

# Routed stats: one "== endpoint ==" section per distinct endpoint, each
# with that server's engine counters.
"$tool" route stats --manifest "$dir/shard.manifest" \
  --endpoints "$topology" > "$dir/routed4.stats" 2> /dev/null
[ "$(grep -c '^==' "$dir/routed4.stats")" -eq 5 ] \
  && [ "$(grep -c '^index_size' "$dir/routed4.stats")" -eq 5 ] \
  || { echo "FAIL: route stats did not report all 5 endpoints"; exit 1; }

# Kill group 1's primary mid-run: round-robin must fail over to the
# replica and stay byte-identical. Repeat to cover both cursor positions.
kill -9 "$pid1"
check_routed routed4_failover "$topology"
check_routed routed4_failover2 "$topology"

# Cross-shard routed estimate (row1 and row7 live on different processes).
"$tool" route estimate --manifest "$dir/shard.manifest" \
  --endpoints "$topology" --id-a row1 --id-b row7 \
  > "$dir/routed4.est" 2> /dev/null
diff "$dir/mono.est" "$dir/routed4.est" \
  || { echo "FAIL: routed cross-shard estimate differs"; exit 1; }

# Kill the last replica of group 1: the error must be a clean
# "unavailable", the failover signal — not a hang or a partial answer.
kill -9 "$pid1b"
if "$tool" route query --manifest "$dir/shard.manifest" \
  --endpoints "$topology" --sketch "$dir/row0.sketch" --top 5 \
  > /dev/null 2> "$dir/down.err"; then
  echo "FAIL: query succeeded with a whole replica group dead"; exit 1
fi
grep -qi "unavailable" "$dir/down.err" \
  || { echo "FAIL: dead group not reported as unavailable"; exit 1; }

echo "serve roundtrip ok"
