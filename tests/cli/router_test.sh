# Sharded routing tier: three CoverServers behind one `cfdprop_cli
# client` must serve covers byte-identical to one fat server on the same
# specs, and a live --migrate must move a tenant between shards warm
# (every cached cover line restored on the target) with its covers
# unchanged across the route flip.
source "$(dirname "$0")/common.sh"

# Routed cluster serves byte-identical to one fat server.
# Three empty shards behind the router, plus one fat server
# holding all three tenants — same specs, same rounds.
ports=()
pids=()
for i in 1 2 3 4; do
  start_listen "listen_$i.out" --threads 1
  ports+=("$port")
  pids+=("$pid")
done
"$cli" client \
  --backend "127.0.0.1:${ports[0]}" --backend "127.0.0.1:${ports[1]}" \
  --backend "127.0.0.1:${ports[2]}" \
  --tenant hq=examples/specs/batch_demo.spec \
  --tenant eu=examples/specs/multi_tenant_demo.spec \
  --tenant ap=examples/specs/batch_demo.spec \
  --rounds 3 --connect-timeout 5000 --metrics --shutdown \
  | tee route.out
"$cli" client --backend "127.0.0.1:${ports[3]}" --rounds 3 \
  --connect-timeout 5000 --shutdown \
  --tenant hq=examples/specs/batch_demo.spec \
  --tenant eu=examples/specs/multi_tenant_demo.spec \
  --tenant ap=examples/specs/batch_demo.spec \
  | tee fat.out
for p in "${pids[@]}"; do wait "$p"; done
# Ring placement is printed per tenant, and the merged scrape
# carries one shard-labeled cfdprop_tenants series per shard,
# summing to the three tenants.
grep -Eq "tenant eu: opened .* via shard [0-9]+" route.out
grep -q "== metrics (3 shards) ==" route.out
test "$(grep -Ec '^cfdprop_tenants\{shard="[0-2]"\} [0-9]+$' route.out)" -eq 3
test "$(awk '/^cfdprop_tenants\{/ { n += $2 } END { print n }' route.out)" -eq 3
grep -q "union 2/2 disjunct hits" route.out
# The tentpole claim: a sharded cluster serves exactly the
# bytes one fat server serves.
diff <(grep -E '^(view|  cfd)' route.out) \
     <(grep -E '^(view|  cfd)' fat.out)

# Live migration moves tenants warm with identical covers.
ports=()
pids=()
for i in 1 2 3; do
  start_listen "mig_listen_$i.out" --threads 1
  ports+=("$port")
  pids+=("$pid")
done
# Serve 2 cold rounds (4 cover lines cached per tenant), then
# drain -> snapshot -> warm-start -> flip each tenant one
# shard clockwise and re-serve it from the target.
"$cli" client \
  --backend "127.0.0.1:${ports[0]}" --backend "127.0.0.1:${ports[1]}" \
  --backend "127.0.0.1:${ports[2]}" \
  --tenant hq=examples/specs/batch_demo.spec \
  --tenant eu=examples/specs/multi_tenant_demo.spec \
  --rounds 2 --connect-timeout 5000 \
  --migrate eu --migrate hq --metrics --shutdown \
  | tee migrate.out
for p in "${pids[@]}"; do wait "$p"; done
# Every cached line crossed the wire and restored on the
# target — none rejected, nothing recomputed cold.
grep -Eq "migrate tenant eu: shard [0-9]+ -> [0-9]+ snapshot_bytes=[1-9][0-9]* restored=4 rejected=0" migrate.out
grep -Eq "migrate tenant hq: shard [0-9]+ -> [0-9]+ snapshot_bytes=[1-9][0-9]* restored=4 rejected=0" migrate.out
# The merged scrape sees each moved tenant's restored lines on
# its new shard.
for t in eu hq; do
  to=$(sed -nE "s/^migrate tenant $t: shard [0-9]+ -> ([0-9]+) .*/\\1/p" migrate.out)
  grep -qx "cfdprop_cache_restored_total{shard=\"$to\",tenant=\"$t\"} 4" migrate.out
done
# Post-migration covers (the re-serve after the route flip)
# are byte-identical to the pre-migration round: each tenant's
# blocks print exactly twice, and the halves must match.
for t in hq eu; do
  awk -v t="$t" '$0 ~ "^view "t"/"{p=1; print; next} \
                 /^view /{p=0} p&&/^  cfd/{print}' \
    migrate.out > "covers_$t.out"
  lines=$(wc -l < "covers_$t.out")
  test "$lines" -gt 0
  test $((lines % 2)) -eq 0
  diff <(head -n $((lines / 2)) "covers_$t.out") \
       <(tail -n $((lines / 2)) "covers_$t.out")
done
