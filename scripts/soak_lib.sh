# Shared helpers for the chaos soak scripts: binary lookup with a build
# hint, a trapped scratch dir, one driver run per fault case, per-case
# pass/fail accounting, and a uniform summary/exit contract.
#
# Source it, then:
#   soak_require_binary LABEL PATH TARGET  # exit 2 with a build hint if absent
#   soak_workdir PREFIX                    # sets $WORK; removed by an EXIT trap
#   soak_case NAME SPEC [VAR=VAL ...]      # run $SOAK with SDD_FAULT=SPEC
#   soak_report NAME ok|bad                # tally one case
#   soak_summary TITLE                     # print the table; false if any failed

soak_pass=0
soak_fail=0
declare -a soak_cases=()

# Fails fast (exit 2, the soaks' "infrastructure problem" code) when the
# required executable has not been built, with the exact build command.
soak_require_binary() { # label path cmake-target
  local label="$1" path="$2" target="$3"
  if [[ ! -x "${path}" ]]; then
    echo "${label}: ${path} not found; build it first (cmake --build ${BUILD:-build} --target ${target})" >&2
    exit 2
  fi
}

# One scratch dir per run, removed on every exit path. Everything a soak
# writes (model caches, digests, logs) must land under $WORK so a failed run
# never leaks scratch into the caller's TMPDIR.
soak_workdir() { # prefix
  WORK="$(mktemp -d "${TMPDIR:-/tmp}/$1.XXXXXX")"
  trap 'rm -rf "${WORK}"' EXIT
}

# Runs the soak driver $SOAK once with SDD_FAULT=SPEC plus any extra
# VAR=VAL environment; the case passes when the driver exits 0 (every
# invariant held). The driver runs directly, not in a pipeline, so its exit
# code is what gets tested.
soak_case() { # name spec [VAR=VAL ...]
  local name="$1" spec="$2"
  shift 2
  echo "== ${name} (SDD_FAULT=${spec:-<none>}${*:+ $*})"
  local rc=0
  env SDD_FAULT="${spec}" "$@" "${SOAK}" || rc=$?
  if [[ "${rc}" -eq 0 ]]; then
    soak_report "${name}" ok
  else
    echo "   invariant violated (exit ${rc})"
    soak_report "${name}" bad
  fi
}

soak_report() { # name ok|bad
  if [[ "$2" == ok ]]; then
    soak_pass=$((soak_pass + 1)); soak_cases+=("PASS  $1")
  else
    soak_fail=$((soak_fail + 1)); soak_cases+=("FAIL  $1")
  fi
}

soak_summary() { # title
  echo
  echo "== $1 summary"
  printf '%s\n' "${soak_cases[@]}"
  echo "-- ${soak_pass} passed, ${soak_fail} failed"
  [[ "${soak_fail}" -eq 0 ]]
}
