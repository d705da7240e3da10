#!/usr/bin/env bash
# Regenerates the checked-in benchmark baselines (BENCH_*.json) from a built
# tree.
#
#   scripts/bench_baseline.sh [build_dir]     # default: build
#
# BENCH_micro_omd.json is google-benchmark's native JSON for the OMD solve
# layer (exact and thresholded OMD per map size, ground matrix included), the
# kernel-layer microbenchmarks (ground-matrix fill and quantized lower bound,
# with threads/dim/simd counters) and the ingest fits built on the same
# kernels (silhouette sweep and representative, with points/simd counters). BENCH_sec73_ann.json holds one JSON object per
# line, scraped from the bench's "JSON {...}" rows. Both record what built
# them: the repository commit (suffixed -dirty when tracked files differ from
# it) and the build directory's CMAKE_BUILD_TYPE, as `vz_commit` and
# `vz_build_type` in the micro file's context and at the front of every ANN
# row. Rerun on AVX2 hardware with VZ_SIMD=scalar to capture a scalar
# baseline for comparison.
set -euo pipefail

BUILD_DIR="${1:-build}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "${ROOT}"

COMMIT="$(git describe --always --dirty --abbrev=12)"
BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' \
  "${BUILD_DIR}/CMakeCache.txt")"

"${BUILD_DIR}/bench/bench_micro_omd" \
  --benchmark_filter='BM_ExactOmd|BM_ThresholdedOmd|BM_GroundDistanceMatrix|BM_QuantizedLowerBound|BM_ChooseKBySilhouette|BM_BuildRepresentative' \
  --benchmark_context="vz_commit=${COMMIT},vz_build_type=${BUILD_TYPE}" \
  --benchmark_format=json > BENCH_micro_omd.json

"${BUILD_DIR}/bench/bench_sec73_ann" |
  sed -n "s/^JSON {/{\"vz_commit\":\"${COMMIT}\",\"vz_build_type\":\"${BUILD_TYPE}\",/p" \
  > BENCH_sec73_ann.json

echo "wrote BENCH_micro_omd.json and BENCH_sec73_ann.json"
