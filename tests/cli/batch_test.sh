# Engine serving through `cfdprop_cli batch`: deterministic cache hit
# patterns, request-ordered output under threads, Σ churn invalidating
# exactly the mutated lines, and engine-served union covers equal to the
# one-shot --cover output.
source "$(dirname "$0")/common.sh"

# Engine batch smoke.
# Single-threaded pass has a deterministic hit pattern: V1 and
# V2 differ only in output names, so their fingerprints collide
# and 10 repeats of 5 views -> 4 misses, 46 hits.
"$cli" batch examples/specs/batch_demo.spec \
  --repeat 10 --threads 1 | tee batch.out
grep -q "engine stats" batch.out
grep -q "hits=46 misses=4" batch.out
# Multi-threaded pass: order of the printed covers must be the
# request order regardless of scheduling.
"$cli" batch examples/specs/batch_demo.spec \
  --repeat 10 --threads 4 --quiet | tee batch4.out
diff <(grep '^view' batch.out) <(grep '^view' batch4.out)

# Engine churn + union smoke.
# Deterministic single-threaded expectations for the churn spec:
# the union request assembles from V1/V2's cache lines (2/2
# partial hits); each of the two add-cfd/drop-cfd steps drops
# exactly the 4 lines bound to the mutated sigma.
"$cli" batch examples/specs/churn_demo.spec \
  --repeat 2 --threads 1 | tee churn.out
grep -q "union 2/2 disjunct hits" churn.out
grep -q "churn: applied add-cfd" churn.out
grep -q "churn: applied drop-cfd" churn.out
grep -q "invalidations=4 entries=4" churn.out
grep -q "invalidations=8 entries=4" churn.out
grep -q "mutations=2" churn.out
# The added cleaning rule must show up in V1's served cover.
grep -q "cfd V1: \[\] -> city=LDN" churn.out
# Engine-served union covers equal the one-shot --cover output
# (first U12 block = the pre-churn round).
"$cli" examples/specs/churn_demo.spec --cover \
  | tee cover.out
awk '/^view U12/{f=1;next} f&&/^(view|==)/{exit} f' churn.out \
  | grep '^  cfd' | sort > u12_batch.out
diff <(grep '^  cfd U12' cover.out | sort) u12_batch.out

# One-shot smoke.
"$cli" examples/specs/batch_demo.spec --cover
