#!/usr/bin/env bash
# Regenerates every deterministic bench artifact and compares it byte for
# byte against the committed bench_results/.
#
#   tools/check_bench_artifacts.sh [build-dir]
#
# Builds the benches that write committed files into an already configured
# build tree, runs each from a scratch directory holding an empty
# bench_results/ and an advh_models symlink, and fails when a bench exits
# non-zero or when any committed bench_results/ file is missing from the
# run or differs from it. parallel_scaling.* is skipped: it records wall
# time. A committed file that no bench writes any more fails as missing.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="$(cd "${1:-$ROOT/build}" && pwd)"

BENCHES=(
  bench_table1_scenarios
  bench_fig1_activations
  bench_fig3_hpc_distributions
  bench_table2_core_events
  bench_fig4_attack_sweep
  bench_fig5_cache_events
  bench_table3_cache_ablation
  bench_fig6_validation_size
  bench_ablation_detector
  bench_ablation_uarch
  bench_robustness_faults
  bench_campaign_replay
)

cmake --build "$BUILD" -j"$(nproc)" --target "${BENCHES[@]}"

SCRATCH="$(mktemp -d)"
trap 'rm -rf "$SCRATCH"' EXIT
mkdir "$SCRATCH/bench_results"
ln -s "$ROOT/advh_models" "$SCRATCH/advh_models"

# Each bench's line ends with its wall seconds, once it has finished.
for b in "${BENCHES[@]}"; do
  printf '== %s' "$b"
  start=$(date +%s%N)
  if ! (cd "$SCRATCH" && "$BUILD/bench/$b" > "$SCRATCH/$b.log" 2>&1); then
    echo
    cat "$SCRATCH/$b.log"
    echo "check_bench_artifacts: $b exited non-zero" >&2
    exit 1
  fi
  ms=$((($(date +%s%N) - start) / 1000000))
  printf ' %d.%03d s\n' $((ms / 1000)) $((ms % 1000))
done

status=0
checked=0
while IFS= read -r f; do
  case "$(basename "$f")" in
    *parallel_scaling.*) continue ;;
  esac
  checked=$((checked + 1))
  if [ ! -f "$SCRATCH/$f" ]; then
    echo "check_bench_artifacts: $f is committed but no bench wrote it" >&2
    status=1
  elif ! cmp -s "$ROOT/$f" "$SCRATCH/$f"; then
    echo "check_bench_artifacts: $f differs from the regenerated file" >&2
    diff "$ROOT/$f" "$SCRATCH/$f" | head -20 >&2 || true
    status=1
  fi
done < <(git -C "$ROOT" ls-files bench_results)

echo "check_bench_artifacts: $checked committed artifacts checked"
exit "$status"
