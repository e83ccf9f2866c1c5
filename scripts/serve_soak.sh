#!/usr/bin/env bash
# Chaos soak for the batched inference serving layer (ISSUE acceptance
# criterion): fire concurrent clients at an InferenceServer at 4x queue
# capacity while injecting decode hangs, NaN logits, allocation failures,
# and slow artifact I/O, and assert that every request reaches a terminal
# state (response or typed error), outputs stay bit-deterministic per
# request, and the server neither crashes nor leaks requests.
#
# Usage: scripts/serve_soak.sh [build-dir]
#
# Faults exercised (see src/util/fault.hpp; the driver arms SDD_FAULT itself
# after model construction and reference decoding, which stay fault-free):
#   alloc_fail:at=N   Nth guarded tensor allocation throws resource_exhausted;
#                     the server must shrink its admissible batch, not crash
#   hang_decode:N     decode stalls at the Nth token; the worker watchdog
#                     (SDD_SERVE_HANG_MS) must recycle the worker, fail the
#                     hung request with a typed timeout, and keep serving
#   nan_decode:N      Nth decode emits NaN logits; the NaN guard must fail
#                     that one request as numeric_divergence and carry on
#   slow_io:ms=M      artifact-store round-trip of the served model is slowed
#                     (latency soak for the loading path)
set -euo pipefail

source "$(dirname "${BASH_SOURCE[0]}")/soak_lib.sh"

BUILD="${1:-build}"
SOAK="${BUILD}/examples/serve_soak"
soak_require_binary serve_soak "${SOAK}" serve_soak

# Everything the soak driver writes (model caches, artifact-store scratch)
# lands under the trapped work dir so no run leaks into the caller's TMPDIR.
soak_workdir sdd_serve_soak
export TMPDIR="${WORK}"
export SDD_CACHE_DIR="${SDD_CACHE_DIR:-${WORK}/cache}"

export SDD_LOG_LEVEL="${SDD_LOG_LEVEL:-warn}"
# Small queue + batch so 4x-capacity offered load (the driver's default
# SDD_SERVE_SOAK_LOAD=4) actually trips shedding, rejection, and degradation.
export SDD_SERVE_QUEUE_CAP="${SDD_SERVE_QUEUE_CAP:-8}"
export SDD_SERVE_MAX_BATCH="${SDD_SERVE_MAX_BATCH:-4}"
export SDD_SERVE_SOAK_CLIENTS="${SDD_SERVE_SOAK_CLIENTS:-4}"
export SDD_SERVE_SOAK_LOAD="${SDD_SERVE_SOAK_LOAD:-4}"

# Baseline: overload alone (shedding/rejection/degradation, no faults).
soak_case clean ""

# Allocation failure during the artifact-store load of the served model:
# tolerated, serving falls back to the in-memory model.
soak_case alloc_fail_load "alloc_fail:at=3"

# Allocation failure while admitting a decode slot: the batch limit shrinks
# and recovers as slots retire; nothing OOMs or crashes.
soak_case alloc_fail_serve "alloc_fail:at=2" SDD_SERVE_SOAK_STORE=0

# A decode hangs mid-batch: the hang watchdog recycles the worker, the hung
# request fails with a typed timeout, and the surviving slots complete with
# bit-identical outputs.
soak_case hang_decode "hang_decode:5" SDD_SERVE_HANG_MS=200

# NaN logits mid-decode: exactly that request fails (numeric_divergence),
# everything else is unaffected.
soak_case nan_decode "nan_decode:10"

# Slow artifact I/O on the model load path: latency only, no behavior change.
soak_case slow_io "slow_io:ms=50"

# Everything at once, aimed at the serving layer.
soak_case combined "hang_decode:20,nan_decode:40,alloc_fail:at=6" \
  SDD_SERVE_HANG_MS=200 SDD_SERVE_SOAK_STORE=0

soak_summary "serve soak"
