#!/usr/bin/env bash
# CI entry point with selectable lanes:
#
#   ./ci.sh            # all lanes: lint, plain, proc, service, obs, asan, tsan
#   ./ci.sh lint       # epilint static analysis + optional clang-tidy
#                      # (builds only the analyzer, not the libraries)
#   ./ci.sh plain      # RelWithDebInfo build + tests + CommChecker pass
#                      # + perfbench smoke test
#   ./ci.sh proc       # shared-memory backend pass (EPI_MPILITE_BACKEND=shm,
#                      # ranks as forked processes): mpilite + event-core +
#                      # parallel-equivalence suites (1/2/4/8 ranks vs the
#                      # pinned serial oracle), the CommChecker re-run, the
#                      # comm-volume bench, and a deterministic nightly
#                      # byte-diffed thread vs shm
#   ./ci.sh service    # scenario-service replay determinism: the canned
#                      # request log twice, and EPI_JOBS=1 vs 4, with
#                      # byte-diffs of responses + report; throughput gate
#   ./ci.sh obs        # epitrace pass: traced nightly run -> epitrace
#                      # check -> epitrace self-checks; traced-vs-untraced
#                      # byte-identity; fig9/table1/comm-volume/fig7 bench
#                      # reports diffed against bench/baselines/ (clean
#                      # must pass, an injected 10%+ regression must be
#                      # flagged)
#   ./ci.sh asan       # AddressSanitizer + UBSan + LeakSanitizer build
#   ./ci.sh tsan       # ThreadSanitizer build (mpilite runs ranks as
#                      # threads, so this sees every data race real-MPI
#                      # codebases cannot; the exec worker-pool tests
#                      # run under it too)
#
# Any lint finding, test failure, checker report, or sanitizer report
# fails the script.
set -euo pipefail
cd "$(dirname "$0")"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

run_lint() {
  echo "== static analysis (epilint) =="
  # tools/lint.sh builds tools/epilint and runs it over all of src/ with
  # the checked-in (empty) baseline; any non-baselined finding fails the
  # lane. The analyzer prints a per-rule finding-count summary.
  tools/lint.sh
}

run_plain() {
  echo "== plain build =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS"
  ctest --test-dir build --output-on-failure -j "$JOBS"

  echo "== CommChecker pass (EPI_MPILITE_CHECK=1) =="
  # Re-run the mpilite-backed suites under the communication checker: a
  # correct program must produce zero reports, so any report fails the
  # test. InvalidRankOrTagThrows seeds deliberate misuse inside
  # EXPECT_THROW and is excluded — the checker reporting it is the
  # expected behaviour, exercised by tests/test_mpilite_check.cpp.
  EPI_MPILITE_CHECK=1 ctest --test-dir build --output-on-failure -j "$JOBS" \
    -R 'Mpilite|Parallel|Ghost' -E 'InvalidRankOrTag'

  echo "== trace pass (EPI_TRACE) =="
  # Run the nightly example twice with tracing on and deterministic
  # timing, validate both trace/metrics pairs with epitrace check, and
  # require the two runs to be byte-identical — the reproducibility
  # guarantee the obs layer promises.
  rm -rf build/trace-ci build/trace-ci-2
  EPI_TRACE=build/trace-ci EPI_DETERMINISTIC_TIMING=1 \
    ./build/examples/nightly_national_run economic >/dev/null
  EPI_TRACE=build/trace-ci-2 EPI_DETERMINISTIC_TIMING=1 \
    ./build/examples/nightly_national_run economic >/dev/null
  ./build/tools/epitrace check build/trace-ci/trace.json build/trace-ci/metrics.json
  ./build/tools/epitrace check build/trace-ci-2/trace.json build/trace-ci-2/metrics.json
  cmp build/trace-ci/trace.json build/trace-ci-2/trace.json
  cmp build/trace-ci/metrics.json build/trace-ci-2/metrics.json
  echo "trace pass OK (valid + byte-identical across runs)"

  echo "== perf smoke (comm volume, fig7 sweep) =="
  # bench_comm_volume exits non-zero if its 8-rank epidemic differs from
  # the serial one or if it skips no tick of its dormant seed prefix. JSON
  # reports land in build/ for regression diffs.
  rm -rf build/perf-smoke && mkdir -p build/perf-smoke
  EPI_BENCH_JSON=build/perf-smoke ./build/bench/bench_comm_volume
  EPI_BENCH_JSON=build/perf-smoke \
    ./build/bench/bench_fig7_runtime --benchmark_filter=none >/dev/null
  echo "perf smoke OK (see build/perf-smoke/BENCH_*.json)"

  echo "== benchmark smoke (perfbench) =="
  # Every benchmark workload at toy scale, traced and untraced, with its
  # output checks (read_binary round-trips to the same hash, chunk counts
  # sum to edge_count(), serial == 4-rank, ...). A src/ change that breaks
  # a workload fails here rather than in a benchmark run. Builds into the
  # git-ignored .bench_build/. It runs before the farm pass, whose >= 2x
  # scaling gate depends on the host's free cores, so a farm-gate failure
  # still fails the lane but no longer hides the smoke test's verdict.
  python3 perfbench/test_perfbench.py

  echo "== farm pass (EPI_JOBS) =="
  # The deterministic executor's contract, end to end: the calibration
  # cycle must produce a byte-identical result under EPI_JOBS=1 (the
  # serial seed path) and EPI_JOBS=4. The scaling bench enforces the
  # same identity across its own sweep (and gates >= 2x speedup at
  # jobs=4 when the hardware has >= 4 threads).
  EPI_JOBS=1 EPI_CYCLE_REPORT=build/cycle-j1.txt \
    ./build/examples/calibrate_and_forecast VT 400 24 8 >/dev/null
  EPI_JOBS=4 EPI_CYCLE_REPORT=build/cycle-j4.txt \
    ./build/examples/calibrate_and_forecast VT 400 24 8 >/dev/null
  cmp build/cycle-j1.txt build/cycle-j4.txt
  EPI_BENCH_JSON=build/perf-smoke ./build/bench/bench_farm_scaling
  echo "farm pass OK (serial and parallel reports byte-identical)"
}

run_proc() {
  echo "== process-backend pass (EPI_MPILITE_BACKEND=shm) =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS"

  # The mpilite, event-core, and parallel-equivalence suites with every
  # rank above 0 a forked process over the shared-memory segment. The
  # equivalence suites compare the parallel output byte-for-byte against
  # the pinned, backend-independent serial oracle at 1/2/4/8 ranks, so a
  # pass here IS the thread-vs-shm identity of the engine.
  #
  # No EPI_JOBS farm runs here: the shm launcher forks, and forking a
  # process that holds live farm worker threads is undefined enough to be
  # banned outright (DESIGN.md §15).
  EPI_MPILITE_BACKEND=shm ctest --test-dir build --output-on-failure -j "$JOBS" \
    -R 'Mpilite|EventCore|Parallel|Ghost'

  echo "== CommChecker pass under forked ranks =="
  # Same exclusion as the plain lane's checker pass (deliberate misuse),
  # now with the watchdog reading cross-process state from the segment's
  # checker slots.
  EPI_MPILITE_BACKEND=shm EPI_MPILITE_CHECK=1 \
    ctest --test-dir build --output-on-failure -j "$JOBS" \
    -R 'Mpilite|Parallel|Ghost' -E 'InvalidRankOrTag'

  echo "== comm-volume bench under forked ranks =="
  # bench_comm_volume exits nonzero if its 8-rank epidemic differs from
  # the serial one — here with ranks as forked processes.
  rm -rf build/proc-ci && mkdir -p build/proc-ci/bench
  EPI_BENCH_JSON=build/proc-ci/bench EPI_MPILITE_BACKEND=shm \
    ./build/bench/bench_comm_volume

  echo "== deterministic nightly byte-diff (thread vs shm) =="
  # The nightly under both backends: the reports must be byte-identical —
  # the backend env var may never perturb workflow output.
  for backend in thread shm; do
    EPI_MPILITE_BACKEND="$backend" EPI_DETERMINISTIC_TIMING=1 \
      ./build/examples/nightly_national_run economic \
      > "build/proc-ci/nightly-$backend.txt"
  done
  cmp build/proc-ci/nightly-thread.txt build/proc-ci/nightly-shm.txt
  echo "nightly byte-diff OK (thread == shm)"

  # A traced shm run must still emit a valid trace/metrics pair.
  EPI_TRACE=build/proc-ci/trace-shm EPI_MPILITE_BACKEND=shm \
    EPI_DETERMINISTIC_TIMING=1 \
    ./build/examples/nightly_national_run economic >/dev/null
  ./build/tools/epitrace check build/proc-ci/trace-shm/trace.json \
    build/proc-ci/trace-shm/metrics.json
  echo "proc pass OK (forked ranks byte-identical to threads)"
}

run_service() {
  echo "== scenario-service replay pass =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS" --target scenario_service bench_service_throughput

  # Replay the canned request log twice serial and once at EPI_JOBS=4;
  # every response and the whole ServiceReport must be byte-identical
  # across runs and worker counts. The example itself also replays its
  # log warm and exits nonzero if a cached response drifts.
  rm -rf build/service-ci && mkdir -p build/service-ci/{j1,j1-again,j4}
  EPI_JOBS=1 EPI_SERVICE_OUT=build/service-ci/j1 \
    ./build/examples/scenario_service examples/service_requests.jsonl >/dev/null
  EPI_JOBS=1 EPI_SERVICE_OUT=build/service-ci/j1-again \
    ./build/examples/scenario_service examples/service_requests.jsonl >/dev/null
  EPI_JOBS=4 EPI_SERVICE_OUT=build/service-ci/j4 \
    ./build/examples/scenario_service examples/service_requests.jsonl >/dev/null
  cmp build/service-ci/j1/responses.txt build/service-ci/j1-again/responses.txt
  cmp build/service-ci/j1/service_report.txt build/service-ci/j1-again/service_report.txt
  cmp build/service-ci/j1/responses.txt build/service-ci/j4/responses.txt
  cmp build/service-ci/j1/service_report.txt build/service-ci/j4/service_report.txt
  echo "replay OK (byte-identical across repeats and EPI_JOBS=1 vs 4)"

  # Throughput gate: the cached/batched wave must beat naive sequential
  # by >= 2x with a nonzero cache-hit rate (the bench exits nonzero).
  EPI_BENCH_JSON=build/service-ci ./build/bench/bench_service_throughput
  echo "service pass OK (see build/service-ci/BENCH_service_throughput.json)"
}

run_obs() {
  echo "== observability pass (epitrace) =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS" --target nightly_national_run epitrace \
    bench_fig9_utilization bench_table1_workflows \
    bench_comm_volume bench_fig7_runtime

  # A traced deterministic nightly run (the fig9 workload): validate the
  # emitted files, then run the profiler with its self-checks on — every
  # phase's critical path must fit inside the phase window, and the job
  # spans' busy node-hours must reproduce the recorded utilization gauge.
  rm -rf build/obs-ci && mkdir -p build/obs-ci
  EPI_TRACE=build/obs-ci/run EPI_DETERMINISTIC_TIMING=1 \
    ./build/examples/nightly_national_run economic > build/obs-ci/report-traced.txt
  ./build/tools/epitrace check build/obs-ci/run/trace.json build/obs-ci/run/metrics.json
  ./build/tools/epitrace report build/obs-ci/run --check > build/obs-ci/epitrace-report.txt
  echo "epitrace report OK (critical path + busy-vs-utilization self-checks)"

  # Observer effect check: the same run untraced (and traced with flow
  # edges off) must produce a byte-identical workflow report.
  EPI_DETERMINISTIC_TIMING=1 \
    ./build/examples/nightly_national_run economic > build/obs-ci/report-untraced.txt
  EPI_TRACE=build/obs-ci/run-noflow EPI_TRACE_FLOW=0 EPI_DETERMINISTIC_TIMING=1 \
    ./build/examples/nightly_national_run economic > build/obs-ci/report-noflow.txt
  cmp build/obs-ci/report-traced.txt build/obs-ci/report-untraced.txt
  cmp build/obs-ci/report-traced.txt build/obs-ci/report-noflow.txt
  echo "observer-effect OK (traced == untraced == flow-off, byte-identical)"

  # Perf-regression gate: fresh fig9/table1 reports must diff clean
  # against the committed baselines...
  mkdir -p build/obs-ci/bench
  EPI_BENCH_JSON=build/obs-ci/bench ./build/bench/bench_fig9_utilization >/dev/null
  EPI_BENCH_JSON=build/obs-ci/bench ./build/bench/bench_table1_workflows >/dev/null
  # The engine benches contribute their deterministic count metrics
  # (edges, events, skipped ticks, wire bytes); their timing metrics are
  # reported in the JSON but deliberately absent from the baselines.
  EPI_BENCH_JSON=build/obs-ci/bench ./build/bench/bench_comm_volume >/dev/null
  EPI_BENCH_JSON=build/obs-ci/bench \
    ./build/bench/bench_fig7_runtime --benchmark_filter=none >/dev/null
  ./build/tools/epitrace diff bench/baselines build/obs-ci/bench
  # ...and an injected >= 10% regression in a copy must be flagged.
  rm -rf build/obs-ci/bench-bad && cp -r build/obs-ci/bench build/obs-ci/bench-bad
  sed -e 's/"calibration.makespan_hours": /"calibration.makespan_hours": 1/' \
    build/obs-ci/bench/BENCH_table1_workflows.json \
    > build/obs-ci/bench-bad/BENCH_table1_workflows.json
  if ./build/tools/epitrace diff bench/baselines build/obs-ci/bench-bad >/dev/null; then
    echo "bench-diff gate FAILED to flag an injected regression" >&2
    exit 1
  fi
  echo "bench gate OK (clean run passes, injected regression flagged)"

  # Likewise the file validator: a truncated copy of the traced run's
  # trace must fail `epitrace check` with exit 1 (not pass, not crash).
  head -c 4096 build/obs-ci/run/trace.json > build/obs-ci/trace-truncated.json
  status=0
  ./build/tools/epitrace check build/obs-ci/trace-truncated.json >/dev/null || status=$?
  if [ "$status" -ne 1 ]; then
    echo "epitrace check exited $status on a truncated trace, expected 1" >&2
    exit 1
  fi
  echo "trace check gate OK (truncated trace flagged)"
}

run_asan() {
  echo "== sanitized build (ASan + UBSan + LSan) =="
  cmake -B build-asan -S . -DEPI_SANITIZE=ON >/dev/null
  cmake --build build-asan -j "$JOBS"
  # halt_on_error makes UBSan findings fail the run instead of just
  # logging; detect_leaks=1 turns LeakSanitizer on at exit.
  UBSAN_OPTIONS=halt_on_error=1 ASAN_OPTIONS=detect_leaks=1 \
    ctest --test-dir build-asan --output-on-failure -j "$JOBS"
}

run_tsan() {
  echo "== sanitized build (ThreadSanitizer) =="
  cmake -B build-tsan -S . -DEPI_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$JOBS"
  TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
    ctest --test-dir build-tsan --output-on-failure -j "$JOBS"
}

lane="${1:-all}"
case "$lane" in
  lint)    run_lint ;;
  plain)   run_plain ;;
  proc)    run_proc ;;
  service) run_service ;;
  obs)     run_obs ;;
  asan)    run_asan ;;
  tsan)    run_tsan ;;
  all)     run_lint; run_plain; run_proc; run_service; run_obs; run_asan; run_tsan ;;
  *)
    echo "usage: $0 [lint|plain|proc|service|obs|asan|tsan|all]" >&2
    exit 2
    ;;
esac

echo "CI OK ($lane)"
