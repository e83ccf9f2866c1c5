#!/usr/bin/env bash
# Chaos soak for cross-process serving replicas (ISSUE 10 acceptance
# criterion): the router spawns each variant as a `replica-worker` child
# process behind the length-prefixed checksummed IPC protocol, concurrent
# clients fire requests across the process boundary, and the driver asserts
# that no request is ever lost (every one resolves with a response or a typed
# error), that a killed/wedged worker is quarantined by its breaker,
# respawned, and probed back to healthy, and that per-variant outputs stay
# byte-identical to the in-process reference decode with and without chaos.
#
# Usage: scripts/replica_soak.sh [build-dir]
#
# Faults exercised (see src/util/fault.hpp; written as child.* directives of
# SDD_FAULT, which the router forwards to the first worker generation of
# replica replica_idx (default 0) only):
#   replica_kill9:at=N  the worker _Exit(137)s on its Nth request, mid-decode
#                       from the router's point of view: in-flight requests
#                       must fail over to sibling variants, the breaker opens,
#                       and the supervisor respawns + probes the worker back
#   replica_wedge:N     the worker stops heartbeating and reading after N
#                       requests; the liveness lease must expire, the
#                       supervisor SIGKILLs and respawns it
#   ipc_torn_frame      the worker writes a torn half-frame then dies; the
#                       parent must classify it as worker_lost (never decode
#                       garbage) and fail the in-flight requests over
#
# The swap case exercises the rolling variant upgrade path instead of a
# fault: mid-traffic, swap_model() drains the 'full' worker, respawns it on a
# new checkpoint, and post-swap pinned requests must match the new
# checkpoint's reference decode bit-for-bit.
set -euo pipefail

source "$(dirname "${BASH_SOURCE[0]}")/soak_lib.sh"

BUILD="${1:-build}"
SOAK="${BUILD}/examples/replica_soak"
soak_require_binary replica_soak "${SOAK}" replica_soak

soak_workdir sdd_replica_soak
export TMPDIR="${WORK}"

export SDD_LOG_LEVEL="${SDD_LOG_LEVEL:-warn}"
# Small queues so failover actually redistributes load, and a fast breaker /
# respawn backoff so open -> respawn -> half-open -> healthy fits in a short
# soak.
export SDD_SERVE_QUEUE_CAP="${SDD_SERVE_QUEUE_CAP:-8}"
export SDD_SERVE_MAX_BATCH="${SDD_SERVE_MAX_BATCH:-4}"
export SDD_ROUTE_BREAKER_FAILS="${SDD_ROUTE_BREAKER_FAILS:-3}"
export SDD_ROUTE_BREAKER_COOLDOWN_MS="${SDD_ROUTE_BREAKER_COOLDOWN_MS:-150}"
export SDD_ROUTE_PROBE_MAX="${SDD_ROUTE_PROBE_MAX:-1}"
export SDD_REPLICA_BACKOFF_MS="${SDD_REPLICA_BACKOFF_MS:-50}"
export SDD_REPLICA_BACKOFF_CAP_MS="${SDD_REPLICA_BACKOFF_CAP_MS:-500}"
# Checkpoints the driver saves and serves; every case rewrites them.
export SDD_REPLICA_SOAK_DIR="${WORK}/checkpoints"

# Baseline: three worker processes under concurrent load, no faults. Every
# per-variant output must be byte-identical to the in-process reference
# decode (the same weights generated without crossing a process boundary).
soak_case clean ""

# kill -9 equivalent mid-decode: the 'full' worker _Exit(137)s on its second
# request while siblings keep serving. The driver asserts zero lost requests,
# failovers >= 1, breaker_opens >= 1, restarts >= 1, and the worker probed
# back to healthy with probe_successes >= 1.
soak_case kill9 "child.replica_kill9:at=2"

# Wedged worker: stops heartbeating after two requests. A short liveness
# lease makes the supervisor detect the silence, SIGKILL, and respawn.
soak_case wedge "child.replica_wedge:2" SDD_REPLICA_LEASE_MS=300

# Torn frame: the worker writes a truncated frame then dies. The checksum /
# framing layer must surface worker_lost (never garbage tokens) and the
# requests must fail over and still match the reference decode.
soak_case torn_frame "child.ipc_torn_frame"

# Rolling upgrade: mid-traffic swap of the 'full' variant onto a new
# checkpoint. Post-swap pinned requests must complete on 'full' and match
# the NEW checkpoint's reference decode bit-for-bit (restarts >= 1).
soak_case swap "" SDD_REPLICA_SOAK_SWAP=1

soak_summary "replica soak"
