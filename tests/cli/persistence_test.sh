# Warm restarts from a cover snapshot must serve byte-identical covers
# with every base request a cache hit, and a sigma-mismatched or
# tampered snapshot must be rejected instead of served.
source "$(dirname "$0")/common.sh"

# Persistence smoke (batch_demo).
# Cold pass: 4 unique cover lines computed, spilled to disk.
"$cli" batch examples/specs/batch_demo.spec \
  --repeat 10 --threads 1 --snapshot-out batch.ccsnap \
  | tee cold.out
grep -q "hits=46 misses=4" cold.out
grep -q "snapshot saved to batch.ccsnap (lines=4)" cold.out
# Warm restart: every line restores, every request hits — the
# warm run never recomputes (misses=0; warm hits=50 >= the
# cold run's 4 misses).
"$cli" batch examples/specs/batch_demo.spec \
  --repeat 10 --threads 1 --snapshot-in batch.ccsnap \
  | tee warm.out
grep -q "loaded batch.ccsnap: restored=4 rejected=0" warm.out
grep -q "hits=50 misses=0" warm.out
grep -q "restored=4 rejected=0)" warm.out
# Served covers must be byte-identical to the cold pass.
diff <(grep -E '^(view|  cfd)' cold.out) \
     <(grep -E '^(view|  cfd)' warm.out)

# Persistence smoke (churn_demo, unions).
# The snapshot is written after the base rounds (pre-churn), so
# a restart that re-registers the spec's sigma can warm from it.
"$cli" batch examples/specs/churn_demo.spec \
  --repeat 2 --threads 1 --snapshot-out churn.ccsnap \
  | tee churn_cold.out
grep -q "hits=6 misses=4" churn_cold.out
grep -q "snapshot saved to churn.ccsnap (lines=4)" churn_cold.out
# Warm restart: the union's fused line restores too — 8/8
# requests hit (100% >= the 90% bar).
"$cli" batch examples/specs/churn_demo.spec \
  --repeat 2 --threads 1 --snapshot-in churn.ccsnap \
  | tee churn_warm.out
grep -q "loaded churn.ccsnap: restored=4 rejected=0" churn_warm.out
grep -q "hits=8 misses=0" churn_warm.out
diff <(grep -E '^(view|  cfd)' churn_cold.out) \
     <(grep -E '^(view|  cfd)' churn_warm.out)

# Snapshot rejection (changed sigma, tampered file).
# batch_demo's snapshot against churn_demo's sigma: every line
# binds a content fingerprint that no longer matches, so the
# warm start restores nothing and recomputes everything.
"$cli" batch examples/specs/churn_demo.spec \
  --repeat 2 --threads 1 --snapshot-in batch.ccsnap \
  | tee mismatch.out
grep -q "loaded batch.ccsnap: restored=0 rejected=4" mismatch.out
grep -q "hits=6 misses=4" mismatch.out
# A version bump (byte 8) must reject the whole file cleanly.
printf '\x7f' | dd of=batch.ccsnap bs=1 seek=8 conv=notrunc
"$cli" batch examples/specs/batch_demo.spec \
  --repeat 2 --threads 1 --snapshot-in batch.ccsnap \
  | tee tampered.out
grep -q "rejected batch.ccsnap: .*format version" tampered.out
grep -q "restored=0" tampered.out
