#!/usr/bin/env bash
# Tier-1 verification: lint checks, configure + build + ctest, and a
# 1-iteration smoke of every benchmark binary.
#
# Usage: scripts/verify.sh [--lint-only] [--no-bench] [--ci] [extra cmake args...]
#
#   --lint-only   run only the fast checks (tracked generated files,
#                 clang-format) and exit — what the CI lint job runs
#   --no-bench    skip the benchmark smoke after build + ctest
#   --ci          machine-readable progress: ONE line per check
#                 ("verify.sh: [ci] check=<name> status=<ok|fail|skip> exit=<code>"),
#                 so a workflow log shows which exit-code class fired
#                 without scrolling through build output.  Also runs the
#                 --ci-only checks below (classes 8-10)
#
# Distinct exit codes per failure class, so CI and scripts can tell what
# broke without parsing output:
#   0  everything passed
#   2  generated build files are tracked by git
#   3  clang-format drift
#   4  configure or build failure
#   5  test failure (ctest: the gtest suite, the fuzz smokes and every
#      example program)
#   6  benchmark smoke failure
#   7  retired: there is one build, and the certificate goldens in
#      tests/test_golden.cpp (ctest, class 5) pin its bytes
#   8  certificate fuzz regression (--ci only): the deterministic fuzz
#      campaign found a verifier crash/hang or an accepted corrupting
#      mutation; reproduction artifacts are left in build/fuzz-artifacts
#   9  wire smoke failure (--ci only): the loopback serving daemon failed
#      to boot, the streamed certificate differed from the in-process
#      bytes, or the SIGTERM drain did not complete (scripts/wire_smoke.sh;
#      the throughput floor is the CI lcbench job's wire_hot run)
#  10  snapshot round-trip divergence (--ci only): a warm-started prove
#      (plan loaded from a persisted snapshot, snapshot_tool --require-hit)
#      produced different certificate bytes than a cold prove of the same
#      graph, or the warm path failed to actually hit the snapshot
#  11  retired: the multi-process verifier's byte-identity with the
#      single-process session is asserted by tests/test_dist.cpp (ctest,
#      class 5)
#  12  architecture doc drift: docs/ARCHITECTURE.md is missing or does not
#      mention some src/ subdirectory — every subsystem must have a chapter
set -uo pipefail

# Run from the repository root regardless of the caller's cwd (works when
# invoked by relative path, absolute path, or through a symlink).
repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${repo_root}"

LINT_ONLY=0
RUN_BENCH=1
CI_MODE=0
CMAKE_ARGS=()
for arg in "$@"; do
  case "${arg}" in
    --lint-only) LINT_ONLY=1 ;;
    --no-bench) RUN_BENCH=0 ;;
    --ci) CI_MODE=1 ;;
    *) CMAKE_ARGS+=("${arg}") ;;
  esac
done

JOBS="$(nproc 2>/dev/null || echo 2)"

# One line per check in --ci mode: check name, ok/fail/skip, and the exit
# code class the check fails with.
ci_report() {  # <check> <status> <exit-class>
  if [ "${CI_MODE}" -eq 1 ]; then
    echo "verify.sh: [ci] check=$1 status=$2 exit=$3"
  fi
}
fail() {  # <check> <exit-class> <message>
  ci_report "$1" fail "$2"
  echo "verify.sh: FAIL — $3" >&2
  exit "$2"
}

# --- Lint class 1: generated build trees must never be committed (PR 1
# accidentally checked in ~300 files under build/; .gitignore now covers it).
if tracked_build="$(git ls-files -- 'build/*' "*.o")" && [ -n "${tracked_build}" ]; then
  echo "${tracked_build}" | head -20 >&2
  fail tracked-build-files 2 "generated files are tracked by git (listed above)"
fi
ci_report tracked-build-files ok 2

# --- Lint class 2: clang-format drift (skipped with a warning when the
# binary is absent, e.g. on minimal containers).  CLANG_FORMAT overrides
# the binary so CI can pin a version that matches contributors' machines.
CLANG_FORMAT="${CLANG_FORMAT:-clang-format}"
if command -v "${CLANG_FORMAT}" >/dev/null 2>&1; then
  if ! git ls-files -- '*.cpp' '*.hpp' | xargs -r "${CLANG_FORMAT}" --dry-run --Werror; then
    fail clang-format 3 "clang-format drift (run: git ls-files '*.cpp' '*.hpp' | xargs ${CLANG_FORMAT} -i)"
  fi
  ci_report clang-format ok 3
else
  echo "verify.sh: ${CLANG_FORMAT} not found; skipping format check"
  ci_report clang-format skip 3
fi

# --- Lint class 3: the architecture book must cover every layer.  Each
# src/ subdirectory is a subsystem; adding one without giving it a chapter
# in docs/ARCHITECTURE.md fails here, so the map can never silently rot
# behind the territory.
if [ -f docs/ARCHITECTURE.md ]; then
  arch_missing=""
  for d in src/*/; do
    subsys="$(basename "${d}")"
    if ! grep -q "src/${subsys}" docs/ARCHITECTURE.md; then
      arch_missing="${arch_missing} src/${subsys}"
    fi
  done
  if [ -n "${arch_missing}" ]; then
    fail architecture-doc 12 "docs/ARCHITECTURE.md never mentions:${arch_missing}"
  fi
  ci_report architecture-doc ok 12
else
  fail architecture-doc 12 "docs/ARCHITECTURE.md is missing"
fi

if [ "${LINT_ONLY}" -eq 1 ]; then
  echo "verify.sh: lint OK"
  exit 0
fi

# --- Build ----------------------------------------------------------------
if ! cmake -B build -S . "${CMAKE_ARGS[@]+"${CMAKE_ARGS[@]}"}"; then
  fail configure 4 "cmake configure"
fi
ci_report configure ok 4
if ! cmake --build build -j "${JOBS}"; then
  fail build 4 "build"
fi
ci_report build ok 4

# --- Tests ----------------------------------------------------------------
if ! ctest --test-dir build --output-on-failure -j "${JOBS}"; then
  fail ctest 5 "ctest"
fi
ci_report ctest ok 5

# --- Benchmark smoke: every suite must start, register, and execute at
# least one benchmark.  Filter to the smallest size arguments and cap
# measuring time so this stays seconds, not minutes, per binary.
if [ "${RUN_BENCH}" -eq 1 ]; then
  shopt -s nullglob
  benches=(build/bench_*)
  if [ "${#benches[@]}" -eq 0 ]; then
    echo "verify.sh: no benchmark binaries (google-benchmark absent?); skipping smoke"
    ci_report bench-smoke skip 6
  else
    for b in "${benches[@]}"; do
      [ -x "$b" ] || continue
      echo "--- smoke: $b"
      if ! "$b" --benchmark_min_time=0.001 \
           --benchmark_filter='/(0|1|10|16|50|64|100|200)($|/)|/1/real_time$|^[^/]+$' >/dev/null; then
        fail bench-smoke 6 "benchmark smoke: $b"
      fi
    done
    ci_report bench-smoke ok 6
  fi
else
  ci_report bench-smoke skip 6
fi

# --- Certificate fuzz regression (--ci only): a deterministic slice of the
# structure-aware fuzz campaign (fixed seed, bounded budget).  Any
# violation — a crash, a hang past the budget, an accepted semantically
# corrupting mutation on a false instance — fails with its own exit class;
# fuzz_cert leaves fuzz_cert-crash-seed7-iter<I>.{bin,txt} artifacts, each
# .txt ending in its replay line, for O(1) reproduction (alternative proofs
# land beside them as fuzz_cert-finding-* files).  The ctest smoke already
# runs a smaller slice on every build; this leg is the longer standing
# campaign.
if [ "${CI_MODE}" -eq 1 ]; then
  if [ -x build/fuzz_cert ]; then
    mkdir -p build/fuzz-artifacts
    if ! build/fuzz_cert --seed 7 --iters 40000 --budget-seconds 100 \
         --artifact-dir build/fuzz-artifacts; then
      fail cert-fuzz 8 "certificate fuzz campaign failed (artifacts in build/fuzz-artifacts)"
    fi
    ci_report cert-fuzz ok 8
  else
    echo "verify.sh: build/fuzz_cert missing; skipping fuzz regression check"
    ci_report cert-fuzz skip 8
  fi
else
  ci_report cert-fuzz skip 8
fi

# --- Wire-level serving smoke (--ci only): boot the daemon on loopback,
# byte-compare a streamed certificate against the in-process encoding,
# and SIGTERM-drain.  scripts/wire_smoke.sh is the single implementation;
# the CI wire-smoke job calls the same script.
if [ "${CI_MODE}" -eq 1 ]; then
  if [ -x build/lanecert_serverd ] && [ -x build/wire_fetch ]; then
    if ! bash scripts/wire_smoke.sh build; then
      fail wire-smoke 9 "wire serving smoke (scripts/wire_smoke.sh)"
    fi
    ci_report wire-smoke ok 9
  else
    echo "verify.sh: wire tools missing in build/; skipping wire smoke"
    ci_report wire-smoke skip 9
  fi
else
  ci_report wire-smoke skip 9
fi

# --- Snapshot warm-start round trip (--ci only): persist the plan for a
# fixed graph, prove it warm (plan MUST come from the snapshot —
# --require-hit fails unless snapshotHits >= 1 and planBuilds == 0), prove
# it cold in a separate directory-less run, and byte-compare the
# certificates.  Warm-start is only correct if a snapshot-loaded plan is
# indistinguishable from a freshly built one all the way to the label bytes.
if [ "${CI_MODE}" -eq 1 ]; then
  if [ -x build/snapshot_tool ]; then
    snap_tmp="$(mktemp -d)"
    trap 'rm -rf "${snap_tmp}"' EXIT
    # Fixed graph: 64-vertex path with chords every fourth vertex —
    # deterministic, connected, small pathwidth.
    awk 'BEGIN {
      n = 64; m = 0;
      for (i = 0; i + 1 < n; ++i) { eu[m] = i; ev[m] = i + 1; ++m; }
      for (i = 0; i + 3 < n; i += 4) { eu[m] = i; ev[m] = i + 3; ++m; }
      print n, m;
      for (i = 0; i < m; ++i) print eu[i], ev[i];
    }' > "${snap_tmp}/graph.txt"
    if ! build/snapshot_tool persist "${snap_tmp}/graph.txt" \
         "${snap_tmp}/snaps" >/dev/null; then
      fail snapshot-roundtrip 10 "snapshot_tool persist failed"
    fi
    if ! build/snapshot_tool prove "${snap_tmp}/graph.txt" connectivity \
         "${snap_tmp}/warm.cert" --snapshot-dir "${snap_tmp}/snaps" \
         --require-hit >/dev/null; then
      fail snapshot-roundtrip 10 "warm prove missed the snapshot (or failed)"
    fi
    if ! build/snapshot_tool prove "${snap_tmp}/graph.txt" connectivity \
         "${snap_tmp}/cold.cert" >/dev/null; then
      fail snapshot-roundtrip 10 "cold prove failed"
    fi
    if ! cmp -s "${snap_tmp}/warm.cert" "${snap_tmp}/cold.cert"; then
      fail snapshot-roundtrip 10 "warm and cold certificates differ"
    fi
    ci_report snapshot-roundtrip ok 10
  else
    echo "verify.sh: build/snapshot_tool missing; skipping snapshot round trip"
    ci_report snapshot-roundtrip skip 10
  fi
else
  ci_report snapshot-roundtrip skip 10
fi

echo "verify.sh: OK"
