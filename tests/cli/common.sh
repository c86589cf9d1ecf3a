# Shared prelude of the CLI scenario tests (tests/cli/*_test.sh).
#
# A test sources this file with its own arguments:
#
#   bash tests/cli/<name>_test.sh <path/to/cfdprop_cli> <source root>
#
# and runs in the current directory, which ctest sets to a fresh
# per-test directory under the build tree. `examples` there links to
# the source tree's examples/, so the commands name the specs exactly
# as they would from the repository root.
#
# Every check is a plain command under `set -euo pipefail`: the first
# failing grep, test, diff or awk ends the script non-zero. Background
# servers are started with start_listen and must be waited on; under a
# sanitizer build their exit status is the assertion.

set -euo pipefail

cli=$1
ln -sfn "$2/examples" examples

bg_pids=()
trap 'for p in "${bg_pids[@]}"; do kill "$p" 2>/dev/null || true; done' EXIT

# start_listen OUT [listen flags...]: starts `cfdprop_cli listen` on an
# ephemeral port with stdout and stderr in OUT, waits for its flushed
# "listening on HOST:PORT" line, and sets $port and $pid.
start_listen() {
  local out=$1
  shift
  # Empty OUT here: the redirect below runs in the background child, and
  # until it does, OUT may still hold an earlier run's port.
  : > "$out"
  "$cli" listen "$@" > "$out" 2>&1 &
  pid=$!
  bg_pids+=("$pid")
  port=
  for _ in $(seq 600); do
    port=$(sed -nE 's/^listening on [^ ]*:([0-9]+) .*/\1/p' "$out")
    if [ -n "$port" ]; then return 0; fi
    if ! kill -0 "$pid" 2>/dev/null; then
      cat "$out"
      echo "listen exited before it reported a port" >&2
      return 1
    fi
    sleep 0.1
  done
  echo "listen reported no port within 60 s" >&2
  return 1
}

# expect_lines FILE HEADER LINE...: each LINE is, exactly, a whole line
# of the block of FILE that HEADER opens: the lines after the first line
# that starts with HEADER, up to the next "==" header. Stats print as
# metrics exposition series, so a LINE is usually one series, e.g.
# 'cfdprop_cache_hits_total{tenant="t"} 46' in the "== base rounds =="
# block.
expect_lines() {
  local file=$1 header=$2 line
  shift 2
  awk -v h="$header" 'f && /^==/ {exit} f; index($0, h) == 1 {f=1}' \
    "$file" > "$file.block"
  for line in "$@"; do
    if ! grep -qxF -- "$line" "$file.block"; then
      echo "$file: no line '$line' in the block of '$header'" >&2
      return 1
    fi
  done
}
