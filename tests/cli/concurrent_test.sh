# Concurrent smokes: worker pools, dispatchers, the snapshot policy
# thread, churn and several socket clients racing one another. No
# output is asserted beyond two greps; a clean exit of every process is
# the assertion, which a sanitizer build turns into "no data race, no
# memory error, no undefined behavior".
source "$(dirname "$0")/common.sh"

# Churn smoke (one tenant).
"$cli" serve --tenant t=examples/specs/churn_demo.spec \
  --rounds 2 --threads 4 --quiet

# Persistence smoke (one tenant).
rm -rf ssnap
"$cli" serve --tenant t=examples/specs/batch_demo.spec \
  --rounds 2 --threads 4 --quiet --snapshot-dir ssnap --no-churn
"$cli" serve --tenant t=examples/specs/batch_demo.spec \
  --rounds 2 --threads 4 --quiet --snapshot-dir ssnap > s_warm.out
grep -Eqx "tenant t: opened .* restored=4 rejected=0" s_warm.out

# Multi-tenant serve smoke.
# Dispatchers, per-engine workers, the policy thread and churn
# all racing: the smoke just has to come out clean (determinism
# is service_test.sh's problem).
rm -rf sansnap
mkdir -p sansnap
"$cli" serve \
  --tenant a=examples/specs/batch_demo.spec \
  --tenant b=examples/specs/multi_tenant_demo.spec \
  --tenant c=examples/specs/churn_demo.spec \
  --rounds 3 --threads 4 --dispatchers 4 --quiet \
  --snapshot-dir sansnap --interval-ms 10 --dirty 1

# Network smoke (concurrent clients).
# Acceptor + two connection threads + dispatchers + engine
# workers racing across a real socket; each client opens and
# drives its own tenant, then a third connection shuts the
# server down.
start_listen san_listen.out --threads 4 \
  --dispatchers 4 --max-inflight 2 --max-queue 2
LISTEN_PID=$pid
"$cli" client --backend "127.0.0.1:$port" --rounds 3 --burst 6 \
  --quiet --tenant a=examples/specs/batch_demo.spec &
CLIENT_A=$!
bg_pids+=("$CLIENT_A")
"$cli" client --backend "127.0.0.1:$port" --rounds 3 --quiet \
  --tenant b=examples/specs/multi_tenant_demo.spec &
CLIENT_B=$!
bg_pids+=("$CLIENT_B")
wait "$CLIENT_A"
wait "$CLIENT_B"
# The metrics scrape rides along too — a render racing live
# dispatchers is exactly what TSan should see; the output itself
# is not asserted here.
"$cli" client --backend "127.0.0.1:$port" --metrics \
  --shutdown > /dev/null
wait "$LISTEN_PID"
cat san_listen.out

# Trace smoke (concurrent traced clients).
# Tracing armed at 1/1 with slow capture on while concurrent
# clients race dispatchers and engine workers: every span
# append races the others and the shutdown snapshot races the
# last recordings.
start_listen san_trace_listen.out --threads 4 \
  --dispatchers 4 --trace-shift 0 --slow-threshold-us 0 \
  --trace-dump san_trace.txt
LISTEN_PID=$pid
"$cli" client --backend "127.0.0.1:$port" --rounds 3 --trace \
  --quiet --tenant a=examples/specs/batch_demo.spec &
CLIENT_A=$!
bg_pids+=("$CLIENT_A")
"$cli" client --backend "127.0.0.1:$port" --rounds 3 --quiet \
  --tenant b=examples/specs/multi_tenant_demo.spec &
CLIENT_B=$!
bg_pids+=("$CLIENT_B")
wait "$CLIENT_A"
wait "$CLIENT_B"
"$cli" client --backend "127.0.0.1:$port" --shutdown > /dev/null
wait "$LISTEN_PID"
grep -q "trace dumped to san_trace.txt" san_trace_listen.out
