# One-tenant serving through `cfdprop_cli serve` (the name is kept from
# the retired `batch` mode this script used to drive): deterministic
# cache hit patterns, request-ordered output under threads, Σ churn
# invalidating exactly the mutated lines, engine-served union covers
# equal to the one-shot --cover output, and the CLI's refusals.
source "$(dirname "$0")/common.sh"

# One-tenant serve smoke.
# Single-threaded pass has a deterministic hit pattern: V1 and
# V2 differ only in output names, so their fingerprints collide
# and 10 rounds of 5 views -> 4 misses, 46 hits.
"$cli" serve --tenant t=examples/specs/batch_demo.spec \
  --rounds 10 --threads 1 | tee batch.out
grep -qx "== metrics ==" batch.out
expect_lines batch.out "== base rounds ==" \
  'cfdprop_cache_hits_total{tenant="t"} 46' \
  'cfdprop_cache_misses_total{tenant="t"} 4'
# Multi-threaded pass: order of the printed covers must be the
# request order regardless of scheduling.
"$cli" serve --tenant t=examples/specs/batch_demo.spec \
  --rounds 10 --threads 4 --quiet | tee batch4.out
diff <(grep '^view' batch.out) <(grep '^view' batch4.out)

# One-tenant churn + union smoke.
# Deterministic single-threaded expectations for the churn spec:
# the union request assembles from V1/V2's cache lines (2/2
# partial hits); each of the two add-cfd/drop-cfd steps drops
# exactly the 4 lines bound to the mutated sigma.
"$cli" serve --tenant t=examples/specs/churn_demo.spec \
  --rounds 2 --threads 1 | tee churn.out
grep -q "union 2/2 disjunct hits" churn.out
grep -q "churn tenant t: applied add-cfd" churn.out
grep -q "churn tenant t: applied drop-cfd" churn.out
expect_lines churn.out "== churn tenant t: applied add-cfd" \
  'cfdprop_cache_invalidations_total{tenant="t"} 4' \
  'cfdprop_cache_entries{tenant="t"} 4'
expect_lines churn.out "== churn tenant t: applied drop-cfd" \
  'cfdprop_cache_invalidations_total{tenant="t"} 8' \
  'cfdprop_cache_entries{tenant="t"} 4' \
  'cfdprop_sigma_mutations_total{tenant="t"} 2'
# The added cleaning rule must show up in V1's served cover.
grep -q "cfd V1: \[\] -> city=LDN" churn.out
# Engine-served union covers equal the one-shot --cover output
# (first U12 block = the pre-churn round).
"$cli" examples/specs/churn_demo.spec --cover \
  | tee cover.out
awk '/^view t\/U12/{f=1;next} f&&/^(view|==)/{exit} f' churn.out \
  | grep '^  cfd' | sort > u12_batch.out
diff <(grep '^  cfd U12' cover.out | sort) u12_batch.out

# One-shot smoke.
"$cli" examples/specs/batch_demo.spec --cover

# Refusals, each exit status 1: `batch` is no mode any more, and a
# directory is no spec, neither as the one-shot SPEC nor as a tenant's
# (a directory opens, but reading it fails).
rc=0
"$cli" batch examples/specs/batch_demo.spec > refused.out 2>&1 || rc=$?
cat refused.out
test "$rc" -eq 1
grep -q "'batch' is neither a mode (serve, listen, client)" refused.out
for args in "examples" "serve --tenant t=examples"; do
  rc=0
  # shellcheck disable=SC2086  # the mode's words split on purpose
  "$cli" $args > dir.out 2>&1 || rc=$?
  cat dir.out
  test "$rc" -eq 1
  grep -q "cannot read examples: Is a directory" dir.out
done
