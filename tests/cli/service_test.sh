# Multi-tenant serve mode: three tenants behind one CatalogService with
# interleaved async rounds, per-tenant budgets carved from the global
# one, and the background snapshot policy. A warm restart from the
# snapshot directory must serve every base request as a hit (100%)
# with covers byte-identical to the cold pass, and a tenant whose Σ
# changed must reject its file without touching the others.
source "$(dirname "$0")/common.sh"

# Serve smoke (cold, 3 tenants, background policy).
# A rerun in the same directory must start cold.
rm -rf snapdir
mkdir -p snapdir
"$cli" serve \
  --tenant hq=examples/specs/batch_demo.spec \
  --tenant eu=examples/specs/multi_tenant_demo.spec \
  --tenant ap=examples/specs/batch_demo.spec \
  --rounds 3 --threads 1 --budget 384 \
  --snapshot-dir snapdir --interval-ms 25 --dirty 1 \
  | tee serve_cold.out
# The global budget 384 splits to 128 entries per tenant.
test "$(grep -c 'budget=128' serve_cold.out)" -ge 3
# Deterministic cold hit patterns at --threads 1: batch_demo
# tenants 4 misses + 11 hits over 3 rounds of 5 views;
# multi_tenant_demo 4 misses + 13 hits (its serve round repeats
# ByRegion and its union partial-hits both disjuncts).
expect_lines serve_cold.out "== base rounds ==" \
  'cfdprop_cache_hits_total{tenant="hq"} 11' \
  'cfdprop_cache_misses_total{tenant="hq"} 4' \
  'cfdprop_cache_hits_total{tenant="eu"} 13' \
  'cfdprop_cache_misses_total{tenant="eu"} 4' \
  'cfdprop_cache_hits_total{tenant="ap"} 11' \
  'cfdprop_cache_misses_total{tenant="ap"} 4'
grep -q "union 2/2 disjunct hits" serve_cold.out
# The BACKGROUND thread spilled every tenant (not the explicit
# final flush — policy_spills counts only the policy thread).
grep -Eq "policy: tenant hq settled \(policy_spills=[1-9]" serve_cold.out
grep -Eq "policy: tenant eu settled \(policy_spills=[1-9]" serve_cold.out
grep -Eq "policy: tenant ap settled \(policy_spills=[1-9]" serve_cold.out
# eu's churn script applied and reverted, other tenants kept
# serving throughout (interleaved rounds).
grep -q "churn tenant eu: applied add-cfd" serve_cold.out
grep -q "churn tenant eu: applied drop-cfd" serve_cold.out
grep -q "spill tenant hq: lines=4" serve_cold.out
grep -q "spill tenant eu: lines=4" serve_cold.out
grep -q "spill tenant ap: lines=4" serve_cold.out
ls -l snapdir

# Serve smoke (warm restart, 100% hits, byte-identical).
"$cli" serve \
  --tenant hq=examples/specs/batch_demo.spec \
  --tenant eu=examples/specs/multi_tenant_demo.spec \
  --tenant ap=examples/specs/batch_demo.spec \
  --rounds 3 --threads 1 --budget 384 \
  --snapshot-dir snapdir --interval-ms 25 --dirty 1 \
  | tee serve_warm.out
# Every tenant warm-starts — including eu, whose churn script
# reverted, so its spilled Σ fingerprints equal the base ones.
grep -Eq "tenant hq: opened .* restored=4 rejected=0" serve_warm.out
grep -Eq "tenant eu: opened .* restored=4 rejected=0" serve_warm.out
grep -Eq "tenant ap: opened .* restored=4 rejected=0" serve_warm.out
# 100% base-round hits: the warm run never recomputes.
expect_lines serve_warm.out "== base rounds ==" \
  'cfdprop_cache_hits_total{tenant="hq"} 15' \
  'cfdprop_cache_misses_total{tenant="hq"} 0' \
  'cfdprop_cache_hits_total{tenant="eu"} 15' \
  'cfdprop_cache_misses_total{tenant="eu"} 0' \
  'cfdprop_cache_hits_total{tenant="ap"} 15' \
  'cfdprop_cache_misses_total{tenant="ap"} 0'
# Served covers byte-identical to the cold pass, all tenants.
diff <(grep -E '^(view|  cfd)' serve_cold.out) \
     <(grep -E '^(view|  cfd)' serve_warm.out)

# Serve smoke (changed-sigma tenant rejects its snapshot).
# churn_demo under eu's name: every line in eu.ccsnap binds a Σ
# fingerprint that no longer matches, so the open restores
# nothing and the run serves cold (6 hits / 4 misses over 2
# rounds) instead of ever serving a stale cover.
"$cli" serve \
  --tenant eu=examples/specs/churn_demo.spec \
  --rounds 2 --threads 1 --snapshot-dir snapdir --no-churn \
  | tee serve_mismatch.out
grep -Eq "tenant eu: opened .* restored=0 rejected=4" serve_mismatch.out
expect_lines serve_mismatch.out "== base rounds ==" \
  'cfdprop_cache_hits_total{tenant="eu"} 6' \
  'cfdprop_cache_misses_total{tenant="eu"} 4'
