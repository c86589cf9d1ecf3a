# Distributed tracing: a routed 3-shard run with sampling at 1/1 must
# produce one complete stitched span tree per submit — route at the
# root, the client rpc under it, every server-side stage linked by
# parent id — with exact span counts (the workload is deterministic:
# 2 tenants x 2 rounds = 4 traces x 11 spans). Each shard also dumps
# its own rings to a file at shutdown, and slow-request capture must
# log untraced clients' requests via the server-side edge.
source "$(dirname "$0")/common.sh"

# Routed trace smoke (3 shards, stitched trees).
# Shards opt in per process (sample everything + dump at
# shutdown); the client samples its own edge at 1/1 and
# stitches its ring with every shard's TRACE_DUMP.
ports=()
pids=()
for i in 1 2 3; do
  start_listen "trace_listen_$i.out" --threads 1 \
    --trace-shift 0 --trace-dump "trace_$i.txt"
  ports+=("$port")
  pids+=("$pid")
done
"$cli" client \
  --backend "127.0.0.1:${ports[0]}" --backend "127.0.0.1:${ports[1]}" \
  --backend "127.0.0.1:${ports[2]}" \
  --tenant hq=examples/specs/batch_demo.spec \
  --tenant eu=examples/specs/multi_tenant_demo.spec \
  --rounds 2 --connect-timeout 5000 --trace --shutdown \
  | tee route_trace.out
for p in "${pids[@]}"; do wait "$p"; done
cat trace_listen_*.out
# 2 tenants x 2 rounds = 4 submits; each stitches to exactly
# 11 spans (route, rpc, decode, admission, queue_wait,
# dispatch, propagate, compute, reply, encode, write).
grep -q "== trace (stitched, 3 shards, 44 spans) ==" route_trace.out
test "$(grep -c '^trace ' route_trace.out)" -eq 4
test "$(grep -c 'spans=11$' route_trace.out)" -eq 4
test "$(grep -c '^  route id=' route_trace.out)" -eq 4
test "$(grep -c '^    rpc id=' route_trace.out)" -eq 4
for s in decode admission queue_wait dispatch propagate \
         compute reply encode write; do
  test "$(grep -c "^      $s id=" route_trace.out)" -eq 4
done
# The compute span carries the engine's cache outcome.
grep -Eq '^      compute id=.* annot=hits=[0-9]+ misses=[0-9]+' \
  route_trace.out
# Parent-id linkage, asserted from the dump itself: every rpc
# span parents to its route span, every stage span to its rpc
# span, and the indentation never breaks a tree mid-block.
awk '
  /^  route id=/   { rid = $2; sub(/^id=/, "", rid); routes++ }
  /^    rpc id=/   { pid = $3; sub(/^parent=/, "", pid)
                     if (pid != rid) { print "bad rpc parent"; exit 1 }
                     rpcid = $2; sub(/^id=/, "", rpcid); rpcs++ }
  /^      [a-z_]+ id=/ {
                     pid = $3; sub(/^parent=/, "", pid)
                     if (pid != rpcid) { print "bad stage parent"; exit 1 }
                     stages++ }
  END { if (routes != 4 || rpcs != 4 || stages != 36) {
          print "span counts off:", routes, rpcs, stages; exit 1 } }
' route_trace.out

# Shard dump files hold the server-side spans.
# Each submit's 9 server-side spans land on exactly one
# shard's ring; the shard's shutdown dump renders them orphan-
# rooted (their rpc parent lives in the router's ring).
grep -q "trace dumped to trace_1.txt" trace_listen_1.out
cat trace_1.txt trace_2.txt trace_3.txt > shard_dumps.txt
test "$(grep -c '^trace ' shard_dumps.txt)" -eq 4
test "$(grep -c 'spans=9$' shard_dumps.txt)" -eq 4
test "$(grep -c ' id=' shard_dumps.txt)" -eq 36
test "$(grep -c '^  compute id=' shard_dumps.txt)" -eq 4

# Slow-request capture logs untraced clients.
# No trace flags on the client: the server itself is the edge
# (threshold 0 captures every request), so the slow log fills
# even for peers that send no trace block.
start_listen slow_listen.out --threads 1 \
  --slow-threshold-us 0
LISTEN_PID=$pid
"$cli" client --backend "127.0.0.1:$port" --rounds 2 --quiet \
  --shutdown --tenant hq=examples/specs/batch_demo.spec
wait "$LISTEN_PID"
cat slow_listen.out
# 2 rounds = 2 submit frames = 2 captured root spans, each
# rendered with the slow marker and the tenant stamp.
grep -q "slow requests (threshold=0us, captured=2)" slow_listen.out
test "$(grep -c '^  request id=.* slow$' slow_listen.out)" -eq 2
grep -q '^  request id=.*tenant=hq.* slow$' slow_listen.out
