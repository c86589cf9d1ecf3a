# Warm restarts of a one-tenant `cfdprop_cli serve` from its snapshot
# directory must serve byte-identical covers with every base request a
# cache hit, and a sigma-mismatched or tampered snapshot must be
# rejected instead of served. Each cold pass runs with --no-churn, so
# the file it spills at exit holds the base Σ's lines: the state a
# restart of the same spec can warm from.
source "$(dirname "$0")/common.sh"

# Persistence smoke (batch_demo).
# Cold pass: 4 unique cover lines computed, spilled to disk. No file
# yet is no rejection: nothing counted, no reason printed.
rm -rf batchsnap churnsnap mismatch tampered
"$cli" serve --tenant t=examples/specs/batch_demo.spec \
  --rounds 10 --threads 1 --snapshot-dir batchsnap --no-churn \
  | tee cold.out
expect_lines cold.out "== base rounds ==" \
  'cfdprop_cache_hits_total{tenant="t"} 46' \
  'cfdprop_cache_misses_total{tenant="t"} 4' \
  'cfdprop_snapshot_rejected_total{tenant="t"} 0'
test "$(grep -c "snapshot rejected" cold.out)" = 0
grep -qx "spill tenant t: lines=4" cold.out
# Warm restart: every line restores, every request hits — the
# warm run never recomputes (misses=0; warm hits=50 >= the
# cold run's 4 misses).
"$cli" serve --tenant t=examples/specs/batch_demo.spec \
  --rounds 10 --threads 1 --snapshot-dir batchsnap \
  | tee warm.out
grep -Eqx "tenant t: opened examples/specs/batch_demo.spec budget=[0-9]+ restored=4 rejected=0" warm.out
expect_lines warm.out "== base rounds ==" \
  'cfdprop_cache_hits_total{tenant="t"} 50' \
  'cfdprop_cache_misses_total{tenant="t"} 0' \
  'cfdprop_cache_restored_total{tenant="t"} 4' \
  'cfdprop_cache_rejected_total{tenant="t"} 0' \
  'cfdprop_snapshot_rejected_total{tenant="t"} 0'
# Served covers must be byte-identical to the cold pass.
diff <(grep -E '^(view|  cfd)' cold.out) \
     <(grep -E '^(view|  cfd)' warm.out)

# Persistence smoke (churn_demo, unions).
# The cold pass spills the pre-churn lines.
"$cli" serve --tenant t=examples/specs/churn_demo.spec \
  --rounds 2 --threads 1 --snapshot-dir churnsnap --no-churn \
  | tee churn_cold.out
expect_lines churn_cold.out "== base rounds ==" \
  'cfdprop_cache_hits_total{tenant="t"} 6' \
  'cfdprop_cache_misses_total{tenant="t"} 4'
grep -qx "spill tenant t: lines=4" churn_cold.out
# Warm restart, churn script included: the union's fused line
# restores too — 8/8 base requests hit (100% >= the 90% bar).
"$cli" serve --tenant t=examples/specs/churn_demo.spec \
  --rounds 2 --threads 1 --snapshot-dir churnsnap \
  | tee churn_warm.out
grep -Eqx "tenant t: opened examples/specs/churn_demo.spec budget=[0-9]+ restored=4 rejected=0" churn_warm.out
expect_lines churn_warm.out "== base rounds ==" \
  'cfdprop_cache_hits_total{tenant="t"} 8' \
  'cfdprop_cache_misses_total{tenant="t"} 0'
# Served covers, base rounds and churn steps alike, byte-identical
# to a cold pass that runs the churn script with no snapshot.
"$cli" serve --tenant t=examples/specs/churn_demo.spec \
  --rounds 2 --threads 1 \
  | tee churn_ref.out
diff <(grep -E '^(view|  cfd)' churn_ref.out) \
     <(grep -E '^(view|  cfd)' churn_warm.out)
diff <(grep -E '^(view|  cfd)' churn_cold.out) \
     <(awk '/^== churn/{exit} 1' churn_warm.out | grep -E '^(view|  cfd)')

# Snapshot rejection (changed sigma, tampered file). Each case
# reads a copy of batch_demo's file in its own directory.
# batch_demo's snapshot against churn_demo's sigma: every line
# binds a content fingerprint that no longer matches, so the
# warm start restores nothing and recomputes everything.
mkdir mismatch tampered
cp batchsnap/t.ccsnap mismatch/
cp batchsnap/t.ccsnap tampered/
"$cli" serve --tenant t=examples/specs/churn_demo.spec \
  --rounds 2 --threads 1 --snapshot-dir mismatch --no-churn \
  | tee mismatch.out
grep -Eqx "tenant t: opened examples/specs/churn_demo.spec budget=[0-9]+ restored=0 rejected=4" mismatch.out
expect_lines mismatch.out "== base rounds ==" \
  'cfdprop_cache_hits_total{tenant="t"} 6' \
  'cfdprop_cache_misses_total{tenant="t"} 4'
# A version bump (byte 8) must reject the whole file cleanly: the
# tenant opens with nothing restored or rejected and serves cold, and
# says why on the line after its banner and in the rejection counter.
printf '\x7f' | dd of=tampered/t.ccsnap bs=1 seek=8 conv=notrunc
"$cli" serve --tenant t=examples/specs/batch_demo.spec \
  --rounds 2 --threads 1 --snapshot-dir tampered --no-churn \
  | tee tampered.out
grep -Eqx "tenant t: opened examples/specs/batch_demo.spec budget=[0-9]+ restored=0 rejected=0" tampered.out
grep -A1 -E "^tenant t: opened " tampered.out | tail -n 1 \
  | grep -Eq "^tenant t: snapshot rejected: .*format version"
expect_lines tampered.out "== base rounds ==" \
  'cfdprop_cache_hits_total{tenant="t"} 6' \
  'cfdprop_cache_misses_total{tenant="t"} 4' \
  'cfdprop_snapshot_rejected_total{tenant="t"} 1'
