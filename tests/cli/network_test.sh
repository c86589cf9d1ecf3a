# Network front end: cfdprop_cli listen (CoverServer over loopback TCP)
# serving a multi-tenant client round through a one-backend client.
# Hit patterns and admission admit/reject counts are deterministic
# (single client, --threads 1, burst admission is atomic) and are read
# from the METRICS scrape — the one stats surface — which must agree
# with the exposition the server prints at shutdown and its
# --metrics-dump file. The
# covers the client prints must be byte-identical to in-process
# `serve` on the same specs.
source "$(dirname "$0")/common.sh"

# Network smoke (listen + client over loopback, metrics scrape).
# Server with per-tenant admission caps: 1 running + 1 queued.
# The client opens both tenants itself (spec text over the
# wire), serves 3 rounds, pipelines a 4-batch burst, then
# scrapes the server (one backend = one shard, so every series
# carries shard="0").
start_listen listen.out --threads 1 --budget 384 \
  --max-inflight 1 --max-queue 1 \
  --metrics-dump listen_metrics.txt
LISTEN_PID=$pid
"$cli" client --backend "127.0.0.1:$port" \
  --rounds 3 --burst 4 --metrics --shutdown \
  --tenant hq=examples/specs/batch_demo.spec \
  --tenant eu=examples/specs/multi_tenant_demo.spec \
  | tee client.out
wait "$LISTEN_PID"
cat listen.out
# Deterministic hit patterns: 3 rounds of 5 views = 4 misses +
# 11/13 hits, plus the burst's 2 admitted batches (5 requests
# each, all warm) = +10 hits per tenant.
grep -qx 'cfdprop_cache_hits_total{shard="0",tenant="hq"} 21' client.out
grep -qx 'cfdprop_cache_hits_total{shard="0",tenant="eu"} 23' client.out
grep -qx 'cfdprop_cache_misses_total{shard="0",tenant="hq"} 4' client.out
grep -qx 'cfdprop_cache_misses_total{shard="0",tenant="eu"} 4' client.out
grep -q "union 2/2 disjunct hits" client.out
# Burst of 4 against cap 1+1: exactly 2 admitted, 2 rejected —
# decided atomically server-side, so never a timing flake.
grep -q "burst tenant hq: batches=4 admitted=2 rejected=2" client.out
grep -q "burst tenant eu: batches=4 admitted=2 rejected=2" client.out
for t in hq eu; do
  grep -qx "cfdprop_admitted_total{shard=\"0\",tenant=\"$t\"} 5" client.out
  grep -qx "cfdprop_admission_rejected_total{shard=\"0\",tenant=\"$t\"} 2" client.out
done
grep -qx 'cfdprop_tenants{shard="0"} 2' client.out
grep -qx 'cfdprop_global_cache_budget{shard="0"} 384' client.out
grep -qx 'cfdprop_batches_submitted_total{shard="0"} 10' client.out
grep -qx 'cfdprop_batches_completed_total{shard="0"} 10' client.out
grep -qx 'cfdprop_batches_rejected_total{shard="0"} 4' client.out
# Exposition structure: TYPE lines, and the request-latency
# histogram's +Inf bucket holds every request (15 round + 10
# burst per tenant) and equals _count.
grep -q '^# TYPE cfdprop_cache_hits_total counter$' client.out
grep -q '^# TYPE cfdprop_request_latency_us histogram$' client.out
grep -qx 'cfdprop_request_latency_us_bucket{shard="0",tenant="hq",le="+Inf"} 25' client.out
grep -qx 'cfdprop_request_latency_us_count{shard="0",tenant="hq"} 25' client.out
# Stage tracing: each of hq's 5 admitted batches crossed the
# admission/queue/dispatch/propagate stages exactly once (all
# recorded before the reply future resolves, so the scrape is
# ordered after them). The reply stage records after delivery,
# so the scrape may trail it by the burst's final batch.
for s in admission queue_wait dispatch propagate; do
  grep -qx "cfdprop_stage_latency_us_count{shard=\"0\",tenant=\"hq\",stage=\"$s\"} 5" client.out
done
grep -Eqx 'cfdprop_stage_latency_us_count\{shard="0",tenant="hq",stage="reply"\} [45]' client.out
# Net-layer families ride in the same scrape: one connection,
# no decode errors, and the stage histograms populated.
grep -qx 'cfdprop_net_connections_total{shard="0"} 1' client.out
grep -qx 'cfdprop_net_decode_errors_total{shard="0"} 0' client.out
grep -Eq 'cfdprop_net_stage_latency_us_count\{shard="0",stage="decode"\} [0-9]+' client.out

# Scrape agrees with the server's shutdown exposition and dump.
# The series the server printed at shutdown and the ones the
# client scraped are the same counters (one client connection,
# zero decode errors; 12 frames = 2 opens + 6 rounds + 2 bursts +
# the scrape + the shutdown).
expect_lines listen.out "== metrics ==" \
  'cfdprop_cache_hits_total{tenant="hq"} 21' \
  'cfdprop_cache_misses_total{tenant="hq"} 4' \
  'cfdprop_cache_hits_total{tenant="eu"} 23' \
  'cfdprop_cache_misses_total{tenant="eu"} 4' \
  'cfdprop_admitted_total{tenant="hq"} 5' \
  'cfdprop_admission_rejected_total{tenant="hq"} 2' \
  'cfdprop_admitted_total{tenant="eu"} 5' \
  'cfdprop_admission_rejected_total{tenant="eu"} 2' \
  'cfdprop_net_connections_total 1' \
  'cfdprop_net_frames_total 12' \
  'cfdprop_net_decode_errors_total 0'
grep -q "metrics dumped to listen_metrics.txt" listen.out

# --metrics-dump renders the same registry at shutdown: every
# cache/admission series settled before the scrape, so the two
# expositions must agree on them line for line once the
# client's shard label is stripped.
diff <(grep -E '^cfdprop_(cache|admitted|admission)' client.out \
         | sed 's/shard="0",//' | sort) \
     <(grep -E '^cfdprop_(cache|admitted|admission)' listen_metrics.txt | sort)

# Network covers byte-identical to in-process serve.
"$cli" serve --rounds 3 --threads 1 --budget 384 \
  --no-churn \
  --tenant hq=examples/specs/batch_demo.spec \
  --tenant eu=examples/specs/multi_tenant_demo.spec \
  | tee serve.out
diff <(grep -E '^(view|  cfd)' serve.out) \
     <(grep -E '^(view|  cfd)' client.out)
