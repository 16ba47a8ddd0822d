# CLI error-path contract: every bad invocation must exit nonzero and
# print a one-line diagnostic to stderr, never crash or exit 0. Invoked as
#   cmake -DIOTAX_CLI=<path-to-iotax> -DWORK_DIR=<scratch> -P cli_errors.cmake
foreach(var IOTAX_CLI WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_errors: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# expect_fail(<label> <stderr-substring> <arg...>): the invocation must
# exit nonzero and say why on stderr.
function(expect_fail label needle)
  execute_process(
    COMMAND "${IOTAX_CLI}" ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "cli_errors: '${label}' exited 0, expected failure")
  endif()
  if(err STREQUAL "")
    message(FATAL_ERROR "cli_errors: '${label}' failed silently "
                        "(rc=${rc}, no stderr diagnostic)")
  endif()
  if(NOT needle STREQUAL "")
    string(FIND "${err}" "${needle}" at)
    if(at EQUAL -1)
      message(FATAL_ERROR "cli_errors: '${label}' stderr missing "
                          "'${needle}'; got: ${err}")
    endif()
  endif()
  message(STATUS "cli_errors: ok '${label}' (rc=${rc})")
endfunction()

# No command at all / unknown command.
expect_fail("no command" "usage:")
expect_fail("unknown command" "unknown command" frobnicate)

# Unknown flag (every command validates its flag set).
expect_fail("unknown flag" "" simulate --preset tiny
            --out "${WORK_DIR}" --bogus-flag 1)

# Bad parameter values.
expect_fail("bad preset" "unknown preset" simulate --preset nope
            --out "${WORK_DIR}")
expect_fail("bad audit mode" "--mode must be" audit
            --archive "${WORK_DIR}/missing.log" --mode bogus)

# Missing input files.
expect_fail("missing dataset" "" taxonomy
            --dataset "${WORK_DIR}/does_not_exist.csv")
expect_fail("missing archive" "" parse
            --archive "${WORK_DIR}/does_not_exist.log")
expect_fail("missing inject input" "" inject
            --in "${WORK_DIR}/does_not_exist.log"
            --out "${WORK_DIR}/out.log")

# A malformed dataset CSV names the file, the line and the reason.
file(WRITE "${WORK_DIR}/ragged.csv" "a,b\n1,2\n3,4,5\n")
expect_fail("ragged dataset row" "${WORK_DIR}/ragged.csv:3: ragged-row"
            taxonomy --dataset "${WORK_DIR}/ragged.csv")
file(WRITE "${WORK_DIR}/nonnumeric.csv" "a,b\n1,2\n\n3,oops\n")
expect_fail("non-numeric dataset field"
            "${WORK_DIR}/nonnumeric.csv:4: bad-number" taxonomy
            --dataset "${WORK_DIR}/nonnumeric.csv")

# Malformed fault plans.
expect_fail("conflicting plan flags" "mutually exclusive" inject
            --in "${WORK_DIR}/x.log" --out "${WORK_DIR}/y.log"
            --plan "${WORK_DIR}/p.json" --plan-json "{}")
expect_fail("plan rate out of range" "fault plan" inject
            --in "${WORK_DIR}/x.log" --out "${WORK_DIR}/y.log"
            --plan-json "{\"mangle\": 2.0}")
expect_fail("plan unknown key" "unknown key" inject
            --in "${WORK_DIR}/x.log" --out "${WORK_DIR}/y.log"
            --plan-json "{\"mange\": 0.1}")
expect_fail("plan not json" "" inject
            --in "${WORK_DIR}/x.log" --out "${WORK_DIR}/y.log"
            --plan-json "not json at all")

# Bad model checkpoints: the diagnostic must carry the file path, the
# offending token, and the set of valid magics (satellite of the serve
# work: operators see *what* was wrong, not just "load failed").
file(WRITE "${WORK_DIR}/garbage.model" "iotax-frobnicator 1\n")
expect_fail("predict garbage model path" "garbage.model" predict
            --dataset "${WORK_DIR}/missing.csv"
            --model-file "${WORK_DIR}/garbage.model")
expect_fail("predict garbage model token" "iotax-frobnicator" predict
            --dataset "${WORK_DIR}/missing.csv"
            --model-file "${WORK_DIR}/garbage.model")
expect_fail("predict garbage model magics" "known model magics" predict
            --dataset "${WORK_DIR}/missing.csv"
            --model-file "${WORK_DIR}/garbage.model")
expect_fail("predict missing model" "cannot open model file" predict
            --dataset "${WORK_DIR}/missing.csv"
            --model-file "${WORK_DIR}/no_such.model")
# A checkpoint whose body ends early (it promises two trees and holds
# one) must name the file and the reason too, not only the loader.
file(WRITE "${WORK_DIR}/truncated.gbt"
     "iotax-gbt 1\nparams 1 3 0.5 1 1 0 1 1 64 17 0 0.5\n"
     "base_score 0.25\nn_features 2\nimportance 0.5 0.5\ntrees 2\n"
     "tree 3\n0 0.5 1 2 0\n-1 0 -1 -1 0.25\n-1 0 -1 -1 0.5\n")
expect_fail("predict truncated model path" "${WORK_DIR}/truncated.gbt"
            predict --dataset "${WORK_DIR}/missing.csv"
            --model-file "${WORK_DIR}/truncated.gbt")
expect_fail("predict truncated model reason" "truncated" predict
            --dataset "${WORK_DIR}/missing.csv"
            --model-file "${WORK_DIR}/truncated.gbt")

# Serve/query flag contracts.
expect_fail("serve without models" "--models" serve
            --socket "${WORK_DIR}/s.sock")
expect_fail("serve garbage model" "known model magics" serve
            --models "${WORK_DIR}/garbage.model"
            --socket "${WORK_DIR}/s.sock")
expect_fail("serve truncated model path" "${WORK_DIR}/truncated.gbt" serve
            --models "${WORK_DIR}/truncated.gbt"
            --socket "${WORK_DIR}/s.sock")
expect_fail("serve truncated model reason" "truncated" serve
            --models "${WORK_DIR}/truncated.gbt"
            --socket "${WORK_DIR}/s.sock")
# A loadable checkpoint gets serve past the registry and onto the
# listener contract.
file(WRITE "${WORK_DIR}/mean.model" "iotax-mean 1\nmean 2.5\n")
expect_fail("serve without listener" "--socket" serve
            --models "${WORK_DIR}/mean.model")
expect_fail("query without target" "need --socket or --port" query --ping)
expect_fail("query dead socket" "cannot connect" query --ping
            --socket "${WORK_DIR}/nobody_home.sock")

# Fleet contracts: bad topology and unstartable shards must refuse with
# a diagnostic, never come up half-degraded.
file(MAKE_DIRECTORY "${WORK_DIR}/shards")
expect_fail("fleet zero replicas" "--replicas must be" fleet
            --models "${WORK_DIR}/mean.model"
            --socket "${WORK_DIR}/f.sock"
            --shard-dir "${WORK_DIR}/shards" --replicas 0)
expect_fail("fleet duplicate shard ports" "duplicate shard ports" fleet
            --models "${WORK_DIR}/mean.model"
            --socket "${WORK_DIR}/f.sock"
            --shard-dir "${WORK_DIR}/shards"
            --groups 1 --replicas 2 --shard-ports "7001,7001")
# Every shard exec fails on the unloadable checkpoint; startup is
# all-or-nothing, so zero healthy shards is a startup error.
expect_fail("fleet zero healthy shards" "exited during startup" fleet
            --models "${WORK_DIR}/garbage.model"
            --socket "${WORK_DIR}/f.sock"
            --shard-dir "${WORK_DIR}/shards"
            --groups 1 --replicas 2)

# Malformed expectation file for audit.
file(WRITE "${WORK_DIR}/empty.log" "")
file(WRITE "${WORK_DIR}/bad_truth.json" "{]")
expect_fail("malformed expect report" "" audit
            --archive "${WORK_DIR}/empty.log"
            --expect "${WORK_DIR}/bad_truth.json")

message(STATUS "cli_errors: ok")
