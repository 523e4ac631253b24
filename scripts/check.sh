#!/usr/bin/env bash
# One-shot tier-1 verify: configure -> build -> ctest, exactly as CI and
# the ROADMAP run it. Usage:
#
#   scripts/check.sh             # Release, all labels
#   scripts/check.sh --werror    # additionally promote warnings to errors
#   scripts/check.sh --asan      # sanitizer tier: unit tests + reduced
#                                # differential fuzz + maintainer soak +
#                                # cli_test under ASan/UBSan
#
# Any extra arguments after the mode flag are forwarded to ctest.

set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-}"
if [[ "$mode" == "--werror" || "$mode" == "--asan" ]]; then
  shift
else
  mode=""
fi

jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 2)"

case "$mode" in
  --asan)
    build_dir=build-asan
    cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=Debug -DAVT_SANITIZE=ON \
      -DAVT_BUILD_BENCH=OFF -DAVT_BUILD_EXAMPLES=OFF
    cmake --build "$build_dir" -j "$jobs"
    ctest --test-dir "$build_dir" -L unit --output-on-failure -j "$jobs" "$@"
    # The differential fuzz is soak-labeled (its full sweep scales with
    # dataset size), but a reduced sweep is cheap enough to keep under
    # the sanitizers permanently.
    AVT_FUZZ_TRANSITIONS=60 ctest --test-dir "$build_dir" \
      -R '^differential_fuzz_test$' --output-on-failure "$@"
    # Every maintainer cascade writes the packed scratch records and the
    # Theorem-3 neighbor counters; the soak's per-operation recount
    # checks are small enough to run in full.
    ctest --test-dir "$build_dir" -R '^maintenance_soak_test$' \
      --output-on-failure "$@"
    # cli_test is cli-labeled but runs in about a second; it is the only
    # suite that drives the command layer (tools/cli_commands.cc).
    ctest --test-dir "$build_dir" -R '^cli_test$' --output-on-failure "$@"
    ;;
  --werror)
    build_dir=build-werror
    cmake -B "$build_dir" -S . -DAVT_WERROR=ON
    cmake --build "$build_dir" -j "$jobs"
    ctest --test-dir "$build_dir" --output-on-failure -j "$jobs" "$@"
    ;;
  *)
    build_dir=build
    cmake -B "$build_dir" -S .
    cmake --build "$build_dir" -j "$jobs"
    ctest --test-dir "$build_dir" --output-on-failure -j "$jobs" "$@"
    ;;
esac
