#!/usr/bin/env bash
# Flakiness loop for the timing-sensitive test binaries. Not part of
# tier-1 or check.sh: it takes many minutes.
#
# Runs each of the `service`, `parallel` and `chaos` test binaries N
# times alone, then the full suite (`cargo test`, as tier-1 runs it)
# N times, and reports the passes per binary in each setting. Exits 1
# if any run failed; the failing logs are kept and their paths printed.
#
# Usage: scripts/stress_tests.sh [N] [--release]
#   N          repetitions per setting (default 5)
#   --release  test the release build instead of the debug build
set -uo pipefail
cd "$(dirname "$0")/.."

N="${1:-5}"
PROFILE=()
if [[ "${2:-}" == "--release" ]]; then
  PROFILE=(--release)
fi
BINS=(service parallel chaos)
LOGS="$(mktemp -d -t stress_tests.XXXXXX)"

echo "==> building the test binaries"
cargo test "${PROFILE[@]}" --no-run --quiet || exit 2

declare -A alone suite
for b in "${BINS[@]}"; do
  alone[$b]=0
  suite[$b]=0
done
failed=0

for i in $(seq 1 "$N"); do
  for b in "${BINS[@]}"; do
    log="$LOGS/alone-$b-$i.log"
    if cargo test "${PROFILE[@]}" --quiet --test "$b" >"$log" 2>&1; then
      alone[$b]=$((alone[$b] + 1))
      rm -f "$log"
    else
      failed=1
      echo "    $b alone, run $i: FAILED ($log)"
    fi
  done
  echo "    alone: round $i of $N done"
done

for i in $(seq 1 "$N"); do
  log="$LOGS/suite-$i.log"
  cargo test "${PROFILE[@]}" --no-fail-fast >"$log" 2>&1
  round_ok=1
  for b in "${BINS[@]}"; do
    # The first `test result:` line after the binary's `Running` line.
    result="$(awk -v bin="tests/$b.rs" '
      index($0, "Running " bin) { found = 1; next }
      found && /test result:/ { print; exit }' "$log")"
    if [[ "$result" == *"test result: ok."* ]]; then
      suite[$b]=$((suite[$b] + 1))
    else
      round_ok=0
      failed=1
      echo "    $b in the full suite, run $i: FAILED ($log)"
    fi
  done
  if [[ $round_ok == 1 ]]; then
    rm -f "$log"
  fi
  echo "    suite: round $i of $N done"
done

printf '\n%-10s %12s %12s\n' binary alone "full suite"
for b in "${BINS[@]}"; do
  printf '%-10s %12s %12s\n' "$b" "${alone[$b]}/$N" "${suite[$b]}/$N"
done
if [[ $failed == 0 ]]; then
  rmdir "$LOGS" 2>/dev/null
fi
exit "$failed"
