#!/usr/bin/env bash
# Tier-1 CI: configure, build, and run the ctest suite under three
# presets — the default RelWithDebInfo build, the ASan+UBSan build, and
# the TSan build (CMakePresets.json). The sanitizer presets compile with
# -fno-sanitize-recover=all, so any memory/UB/data-race defect fails the
# run; the tsan preset's test filter is the `threads` label — the
# worker-pool and hybrid-pipeline coverage that actually runs multiple
# threads per rank.
#
# After the preset loop a bounded soak lane re-runs the `soak`-labeled
# tests (randomized fault schedules, tests/test_fault_soak.cpp) with a
# wider draw than the in-suite default — MVIO_SOAK_SCHEDULES/MVIO_SOAK_SEED
# override the width and the generator seed. The asan preset runs the
# unit-labeled durable-codec fuzz tests (tests/test_codec_fuzz.cpp) as
# part of its full suite — including the WKB ingest record-stream lane
# (exhaustive single-bit flips + truncations over the framed stream).
# The bench-smoke label covers bench_ingest_formats, which hard-fails
# if the binary fast path loses its >= 2x parse-CPU edge over WKT, and
# bench_partition, which hard-fails if the adaptive cell maps stop
# cutting the max-rank load / migration bytes on skewed input, if any
# scheme changes the join result, or if the pilot cost model's predicted
# winner drifts from the measured one outside its noise band, and
# bench_refine_budget, which hard-fails if a rank's refine reloads more
# spilled bytes than it wrote (the read-once spill layout, DESIGN.md §8),
# and smoke_bench_paper (table1, table2 and three ablations of the paper
# driver), which hard-fails on a broken figure invariant.
#
# The examples label runs each examples/ app end to end at --procs=4, so
# the preset loop also runs them under the sanitizers.
#
# The default preset also runs the obs lane (DESIGN.md §14): bench_overlap
# and `bench_paper fig08` re-run with the flight recorder on
# (MVIO_TRACE_OUT/MVIO_REPORT_OUT), scripts/check_bench.py validates the
# Perfetto trace and run-report JSON, and the perf-regression comparator
# gates the reports against the committed bench/baselines/*.json;
# bench_ingest_formats' report (parse CPU, records and allocations per
# ingest mode) is validated alongside. The paper lane then runs every
# figure of bench_paper (the list comes from `bench_paper --list`), each
# with its own report, and validates all of them; a broken figure
# invariant fails it (about a minute). It ends with the end-to-end
# benchmark's smoke run (bench_e2e/e2e.py run --smoke: every workload at
# about 1/50 scale, built under .bench_build), which exits non-zero when
# any rep fails its ground-truth check.
#
# Usage: scripts/ci.sh [preset...]   (default: "default asan tsan")
# Useful subsets once built: ctest -L recovery / -L mpi / -L threads /
# -L soak / -L obs / -L examples.
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"
presets=("${@:-default}" )
if [[ $# -eq 0 ]]; then presets=(default asan tsan); fi

for preset in "${presets[@]}"; do
  echo "==> preset: ${preset}"
  cmake --preset "${preset}"
  cmake --build --preset "${preset}" -j "${jobs}"
  ctest --preset "${preset}"
done

for preset in "${presets[@]}"; do
  if [[ "${preset}" == "default" ]]; then
    echo "==> soak lane: randomized fault schedules (preset: default)"
    MVIO_SOAK_SCHEDULES="${MVIO_SOAK_SCHEDULES:-16}" \
      ctest --preset default -L soak --output-on-failure

    echo "==> obs lane: flight-recorder traces, run reports, perf gate (preset: default)"
    obs_dir="$(mktemp -d)"
    trap 'rm -rf "${obs_dir}"' EXIT
    MVIO_TRACE_OUT="${obs_dir}/trace_overlap.json" \
      MVIO_REPORT_OUT="${obs_dir}/BENCH_overlap.json" \
      ./build/bench_overlap > "${obs_dir}/overlap.log"
    MVIO_TRACE_OUT="${obs_dir}/trace_fig08.json" \
      MVIO_REPORT_OUT="${obs_dir}/BENCH_fig08.json" \
      ./build/bench_paper fig08 > "${obs_dir}/fig08.log"
    # bench_overlap's instrumented row streams with threads + overlap but
    # no memory pressure, so every framework phase except spill appears;
    # fig08's addendum traces its read → parse → partition → comm cascade.
    python3 scripts/check_bench.py validate-trace "${obs_dir}/trace_overlap.json" \
      --min-spans 100 --expect-phases read,parse,partition,comm,compute,round
    python3 scripts/check_bench.py validate-trace "${obs_dir}/trace_fig08.json" \
      --min-spans 64 --expect-phases read,parse,partition,comm
    python3 scripts/check_bench.py validate-report "${obs_dir}/BENCH_overlap.json"
    python3 scripts/check_bench.py validate-report "${obs_dir}/BENCH_fig08.json"
    python3 scripts/check_bench.py compare "${obs_dir}/BENCH_overlap.json" bench/baselines/overlap.json
    python3 scripts/check_bench.py compare "${obs_dir}/BENCH_fig08.json" bench/baselines/fig08.json
    # bench_ingest_formats: per-mode parse CPU, records and allocations.
    MVIO_REPORT_OUT="${obs_dir}/BENCH_ingest_formats.json" \
      ./build/bench_ingest_formats > "${obs_dir}/ingest_formats.log"
    python3 scripts/check_bench.py validate-report "${obs_dir}/BENCH_ingest_formats.json"

    echo "==> paper lane: every bench_paper figure with its own run report (preset: default)"
    for figure in $(./build/bench_paper --list); do
      MVIO_REPORT_OUT="${obs_dir}/BENCH_paper_${figure}.json" \
        ./build/bench_paper "${figure}" > "${obs_dir}/paper_${figure}.log"
      python3 scripts/check_bench.py validate-report "${obs_dir}/BENCH_paper_${figure}.json"
    done

    echo "==> e2e smoke: every benchmark workload at about 1/50 scale (preset: default)"
    python3 bench_e2e/e2e.py run --smoke
  fi
done
echo "==> tier-1 green under: ${presets[*]}"
