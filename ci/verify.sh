#!/usr/bin/env bash
# Tier-1 verify: docs link check, then configure and build everything
# (library, benches, examples, test binaries, tools), run the determinism
# lint and the no-FMA disassembly gate, and run the full test suite —
# including test_overlap, the blocking/bulk/stream three-way bit-parity
# gate of the async fabric (run once more by name so a regression there is
# called out explicitly) — then the perfbench runner build and its Python
# self-tests, a stream-mode bench_overlap smoke, the artifact replay gates,
# and the instrumented build matrix (checked contracts, TSan, ASan+LSan,
# UBSan).
set -euo pipefail

cd "$(dirname "$0")/.."

./ci/check_docs_links.sh

if command -v ninja >/dev/null 2>&1; then
  export CMAKE_GENERATOR=Ninja
fi

cmake -B build -S .
cmake --build build -j

# Determinism lint gate: the machine-checked half of the bit-exactness
# contract (docs/ARCHITECTURE.md §7). Zero violations on the tree; every
# legitimate exception carries an in-source `lint: allow(...)` annotation.
./build/tools/lint_determinism src

# No-FMA gate: the AVX-512F kernels — the GEMMs, the SAGE aggregation
# kernels and GAT's attention combine — agree bit for bit with their scalar
# kernels only while every product is rounded before its add
# (docs/ARCHITECTURE.md §6, "ISA dispatch"). Baseline x86-64 has no FMA, so
# any fused multiply-add in the library is a contraction inside a
# target-attributed kernel.
objdump -d build/libbnsgcn.a > build/libbnsgcn.dis
if grep -E '\bvfn?m(add|sub)' build/libbnsgcn.dis; then
  echo "error: fused multiply-add instructions in build/libbnsgcn.a" >&2
  exit 1
fi

ctest --test-dir build --output-on-failure -j "$(nproc)"
ctest --test-dir build --output-on-failure -R test_overlap

# Measured-benchmark build: perfbench/ compiles the library from src/ into
# its own tree and links the workload runner against it, so a library
# change that breaks the runner fails here, not first in a benchmark run.
# Its Python self-tests check perfbench/run.py's metric spec, tail rule,
# output checks and trace format.
cmake -S perfbench -B build/perfbench -DCMAKE_BUILD_TYPE=Release
cmake --build build/perfbench -j "$(nproc)"
python3 -m unittest discover -s perfbench -p 'test_*.py'

# Transport gates, run once more by name so a socket-fabric regression is
# called out explicitly: the frame codec tests and its seeded fuzzer,
# corrupt-frame and shutdown unit tests, then the cross-process parity
# suite (forked UDS/TCP rank processes must train bit-identically to the
# in-process mailbox and report measured timing).
ctest --test-dir build --output-on-failure -R test_transport
ctest --test-dir build --output-on-failure -R test_multiprocess

# Schedule-fuzz gate: first the pinned seed (the exact sweep CI has run
# before — any failure here is a regression, reproducible as printed),
# then a smoke sweep seeded from the commit SHA: every commit probes a
# fresh region of the schedule space, while any given commit is hermetic
# — the same tree always runs the same draws, so a red CI bisects to a
# commit, never to a calendar day. Divergences print the reproducing
# --fuzz-seed.
BNSGCN_FUZZ_SEED=20260729 BNSGCN_FUZZ_ITERS=8 ./build/tests/test_schedule_fuzz
SMOKE_SEED=$((16#$(git rev-parse --short=8 HEAD 2>/dev/null || echo 2bd5)))
./build/tests/test_schedule_fuzz --fuzz-seed="$SMOKE_SEED" --fuzz-iters=6

# Four-schedule smoke: bench_overlap runs blocking/bulk/stream/chunked-
# stream on every Fig. 4 config and exits non-zero when losses diverge
# bitwise across schedules or when stream OR chunked stream hides
# measurably less than bulk at >= 8 partitions — neither schedule can
# silently regress to blocking. Output stays in the log: the '!!' lines
# name the violating dataset/row on failure. The artifact feeds the
# chunked-stream replay gate below.
OVERLAP_ARTIFACT=build/overlap_gate_artifact.json
rm -f "$OVERLAP_ARTIFACT"
./build/bench/bench_overlap --scale 0.25 --epochs 3 --json "$OVERLAP_ARTIFACT"

# Multi-process UDS smoke: the same bench over the real socket fabric at
# 2 partitions — one forked OS process per rank, sockets under $TMPDIR
# (no fixed TCP ports; hermetic under parallel CI). Losses must stay
# bit-identical across schedules; comm columns are measured wall-clock,
# so the simulated overlap envelope is (correctly) not gated here.
./build/bench/bench_overlap --transport uds --parts 2 --scale 0.25 \
  --epochs 2 --json build/overlap_uds_smoke.json
# Replaying its first row covers a measured recording: the byte and cache
# counters, swap_s and the memory model must repeat bit for bit, while the
# measured comm spans are not compared (the "exact on simulated recordings
# only" replay rule of core::kEpochBreakdownFields).
./build/bench/bench_replay build/overlap_uds_smoke.json --rows 1

# Chunked-stream replay gate: the first four rows of the overlap artifact
# are one config under all four schedules (chunked stream included);
# replaying them proves the chunk knob round-trips through the recorded
# RunConfig and reproduces the deterministic metrics exactly.
./build/bench/bench_replay "$OVERLAP_ARTIFACT" --rows 4

# Replay gate: every artifact row records its RunConfig; re-running one
# must reproduce the recorded deterministic metrics exactly
# (docs/BENCHMARKS.md "JSON artifact schema"). Record a small sweep, then
# replay its first row in a fresh process.
REPLAY_ARTIFACT=build/replay_gate_artifact.json
rm -f "$REPLAY_ARTIFACT"
./build/bench/bench_table13_choice_p --scale 0.2 --epochs 3 \
  --json "$REPLAY_ARTIFACT" > /dev/null
./build/bench/bench_replay "$REPLAY_ARTIFACT" --rows 1

# Halo-cache smoke: bench_cache sweeps partition counts x histogram-derived
# cache budgets and exits non-zero when a cached run's losses diverge
# bitwise from uncached at staleness=0, when the counters stay zero, or
# when the top-quartile budget fails to halve warm-epoch feature bytes at
# 8 partitions (docs/ARCHITECTURE.md §9). Replaying a warm-cache row from
# its artifact proves cache_mb/cache_staleness round-trip through the
# recorded RunConfig and the hit/miss/bytes-saved counters reproduce.
CACHE_ARTIFACT=build/cache_gate_artifact.json
rm -f "$CACHE_ARTIFACT"
./build/bench/bench_cache --scale 0.2 --json "$CACHE_ARTIFACT"
./build/bench/bench_replay "$CACHE_ARTIFACT" --rows 2

# Serving smoke: bench_serve over the forked UDS runtime at 2 partitions —
# its own gates exit non-zero if batch=32 serves below 2x the QPS of
# batch=1 at >= 4 partitions, if socket queries/predictions/logits diverge
# bitwise from the mailbox serve of the same config, or if a sweep point
# drops queries (docs/ARCHITECTURE.md §10). The explicit ctest rerun calls
# out a serve-determinism regression by name.
ctest --test-dir build --output-on-failure -R test_serve
./build/bench/bench_serve --transport uds --scale 0.25 --parts 2,4 \
  --json build/serve_smoke.json

# ---------------------------------------------------------------------------
# Instrumented build matrix. One line per leg: `preset|targets|extra`.
#   preset  — a CMakePresets.json configure preset (build dir build-$preset)
#   targets — build targets; those named test_* are then executed
#   extra   — optional shell command run after the tests (bench smokes)
# Adding a leg is one line here plus its preset.
#
#   checked — BNSGCN_REQUIRE/BOUNDS/SHAPE contracts compiled in: per-element
#             kernel bounds, the layer phase-protocol machine, comm framing
#             and partition boundary audits all verify on real workloads.
#             The layers, baselines and proxies suites drive the phase
#             machine through the composed forward/backward; test_serve
#             drives GAT's inference forward, whose finish checks that the
#             folds wrote every halo row of wh exactly once.
#   tsan    — the kernel thread pool and everything layered on it must be
#             race-free, not just bit-exact (test_trainer runs 3 ranks × 4
#             oversubscribed lanes — real interleaving on a one-core runner),
#             and so must the socket transport, whose rank thread and I/O
#             thread share the queues and inboxes (test_transport), and the
#             Endpoint collectives, which on the mailbox synchronise rank
#             threads through the mailbox condition variables (test_fabric).
#   asan    — heap misuse and leaks (LeakSanitizer rides along on Linux).
#             test_layers drives the aggregation kernels, vector tails
#             included, through SageLayer's phased and composed paths;
#             test_halo_cache drives the cache directory, whose per-position
#             arrays grow with the largest position requested;
#             test_transport runs the frame fuzzer over the codec; and
#             test_multiprocess drives it across forked rank processes,
#             where each received Wire is allocated on the I/O thread and
#             freed or pooled on the rank thread.
#   ubsan   — -fno-sanitize-recover=all, so any UB report is the exit code.
#             test_halo_cache runs here too: the directory is raw index
#             arithmetic over those arrays; so do the frame fuzzer
#             (test_transport) and test_multiprocess, whose decoders read
#             wire-supplied lengths and counts; and test_serve, whose
#             serves cross the rank runtime's status records and the
#             report codec's non-finite tokens on both transports.
#
# Instrumented runs are bounded: reduced fuzz iterations, --scale 0.2
# bench smokes. Each sanitizer aborts nonzero on a report, so plain
# invocation is the gate.
INSTRUMENTED_LEGS=(
  "checked|test_ops test_transport test_trainer test_serve test_schedule_fuzz test_layers test_baselines test_proxies bench_overlap|./build-checked/bench/bench_overlap --scale 0.2 --epochs 2 --json build-checked/overlap_smoke.json"
  "tsan|test_thread_pool test_ops test_fabric test_transport test_trainer test_schedule_fuzz|"
  "asan|test_ops test_fabric test_transport test_multiprocess test_trainer test_serve test_schedule_fuzz test_layers test_halo_cache bench_overlap|./build-asan/bench/bench_overlap --scale 0.2 --epochs 2 --json build-asan/overlap_smoke.json"
  "ubsan|test_ops test_transport test_multiprocess test_trainer test_serve test_schedule_fuzz test_layers test_halo_cache|"
)
for leg in "${INSTRUMENTED_LEGS[@]}"; do
  IFS='|' read -r preset targets extra <<< "$leg"
  echo "== instrumented leg: $preset =="
  cmake --preset "$preset"
  # shellcheck disable=SC2086 — targets is a deliberate word list
  cmake --build "build-$preset" -j --target $targets
  for t in $targets; do
    case "$t" in
      test_schedule_fuzz)
        BNSGCN_FUZZ_SEED=20260729 BNSGCN_FUZZ_ITERS=2 \
          "./build-$preset/tests/$t" ;;
      test_*)
        "./build-$preset/tests/$t" ;;
    esac
  done
  if [[ -n "$extra" ]]; then
    eval "$extra"
  fi
done
