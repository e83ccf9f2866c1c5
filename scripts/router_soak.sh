#!/usr/bin/env bash
# Chaos soak for the replicated multi-variant serving router (ISSUE 8
# acceptance criterion): fire concurrent clients at a VariantRouter hosting
# the full model plus two depth-pruned variants while killing, slowing, and
# flapping one replica, and assert that no request is ever lost (every one
# resolves with a response or a typed error), that a dead variant is
# quarantined by its circuit breaker and probed back to healthy, and that
# per-variant outputs stay bit-identical with and without failover.
#
# Usage: scripts/router_soak.sh [build-dir]
#
# Faults exercised (see src/util/fault.hpp; the driver arms SDD_FAULT itself
# after model construction and the per-variant reference decodes, which stay
# fault-free):
#   replica_fail:at=N  dispatches to the target replica die pre-queue for a
#                      window of replica_fail_n ordinals; the breaker must
#                      open, requests fail over, and half-open probes must
#                      bring the replica back once the window passes
#   replica_slow:MS    transit to the target replica is delayed; routing
#                      must absorb the latency without stalling other jobs
#   breaker_flap       the target replica fails in bursts of three, so the
#                      breaker repeatedly opens, probes closed, and re-opens
set -euo pipefail

source "$(dirname "${BASH_SOURCE[0]}")/soak_lib.sh"

BUILD="${1:-build}"
SOAK="${BUILD}/examples/router_soak"
soak_require_binary router_soak "${SOAK}" router_soak

soak_workdir sdd_router_soak
export TMPDIR="${WORK}"

export SDD_LOG_LEVEL="${SDD_LOG_LEVEL:-warn}"
# Small queues so the offered load actually produces backpressure routing,
# and a fast breaker so open -> half-open -> healthy fits in a short soak.
export SDD_SERVE_QUEUE_CAP="${SDD_SERVE_QUEUE_CAP:-8}"
export SDD_SERVE_MAX_BATCH="${SDD_SERVE_MAX_BATCH:-4}"
export SDD_ROUTE_BREAKER_FAILS="${SDD_ROUTE_BREAKER_FAILS:-3}"
export SDD_ROUTE_BREAKER_COOLDOWN_MS="${SDD_ROUTE_BREAKER_COOLDOWN_MS:-100}"
export SDD_ROUTE_PROBE_MAX="${SDD_ROUTE_PROBE_MAX:-1}"

# Baseline: three variants under concurrent load, no faults. Exercises
# quality routing, deadline-pressure degradation, and backpressure failover.
soak_case clean ""

# The primary replica dies for six consecutive dispatches: breaker opens,
# requests fail over to the pruned variants, probes bring it back. The
# driver additionally asserts breaker_opens >= 1, probe_successes >= 1, and
# final health == healthy for the target replica.
soak_case replica_fail "replica_fail:at=2"

# Slow transit to the primary: latency only; every request still resolves
# and outputs stay bit-identical.
soak_case replica_slow "replica_slow:30"

# The primary flaps (fails in bursts of three): the breaker must open at
# least once and the router must keep every request terminal throughout.
soak_case breaker_flap "breaker_flap"

# Dead-then-slow primary: failure window and transit delay at once.
soak_case combined "replica_fail:at=4,replica_slow:10"

soak_summary "router soak"
