# End-to-end corruption smoke (the `iotax inject | iotax audit` pair):
# simulate a tiny archive, corrupt it with a known fault plan, and check
# that the audit's quarantine counts match the injector's ground truth
# exactly, that strict mode refuses the corrupt archive but accepts the
# clean one, that `iotax parse` skips exactly the records a truncation
# cut, and that a zero-rate plan is a byte-identical passthrough.
# Invoked as
#   cmake -DIOTAX_CLI=<path> -DWORK_DIR=<scratch> -P corruption_smoke.cmake
# with IOTAX_SCALE=0.1 in the environment (set by the add_test wiring).
foreach(var IOTAX_CLI WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "corruption_smoke: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(run label expect_rc)
  execute_process(
    COMMAND "${IOTAX_CLI}" ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(expect_rc STREQUAL "zero" AND NOT rc EQUAL 0)
    message(FATAL_ERROR "corruption_smoke: '${label}' failed (rc=${rc}): "
                        "${out}${err}")
  endif()
  if(expect_rc STREQUAL "nonzero" AND rc EQUAL 0)
    message(FATAL_ERROR "corruption_smoke: '${label}' exited 0, expected "
                        "failure")
  endif()
  set(last_out "${out}" PARENT_SCOPE)
  set(last_err "${err}" PARENT_SCOPE)
  message(STATUS "corruption_smoke: ok '${label}' (rc=${rc})")
endfunction()

run("simulate" zero simulate --preset tiny --seed 7 --out "${WORK_DIR}")

set(plan "{\"seed\": 21, \"truncate\": 0.08, \"mangle\": 0.05,\
 \"drop\": 0.03, \"duplicate\": 0.05, \"bad_throughput\": 0.05,\
 \"clock_skew\": 0.1, \"reorder\": 0.1}")

foreach(format text binary)
  if(format STREQUAL "binary")
    set(archive "${WORK_DIR}/jobs.darshan.bin")
    set(fmt_flag "--binary")
  else()
    set(archive "${WORK_DIR}/jobs.darshan.txt")
    set(fmt_flag "")
  endif()

  # Corrupt per the plan, then audit against the saved ground truth.
  run("inject ${format}" zero inject --in "${archive}" ${fmt_flag}
      --plan-json "${plan}" --out "${WORK_DIR}/corrupt.${format}"
      --report "${WORK_DIR}/truth.${format}.json")
  run("audit ${format}" zero audit
      --archive "${WORK_DIR}/corrupt.${format}" ${fmt_flag}
      --expect "${WORK_DIR}/truth.${format}.json"
      --quarantine-out "${WORK_DIR}/quarantine.${format}.json")
  string(FIND "${last_out}" "matches injection ground truth" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "corruption_smoke: audit ${format} did not confirm "
                        "the ground truth: ${last_out}")
  endif()
  run("checkjson ${format}" zero checkjson
      "${WORK_DIR}/truth.${format}.json"
      "${WORK_DIR}/quarantine.${format}.json")

  # Strict mode: nonzero on the corrupt archive, zero on the clean one.
  run("strict corrupt ${format}" nonzero audit
      --archive "${WORK_DIR}/corrupt.${format}" ${fmt_flag} --mode strict)
  string(FIND "${last_err}" "strict mode" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "corruption_smoke: strict audit ${format} gave no "
                        "diagnostic: ${last_err}")
  endif()
  run("strict clean ${format}" zero audit --archive "${archive}" ${fmt_flag}
      --mode strict)

  # A hard truncation: parse must skip every record the cut lost, the
  # count the injector's ground truth expects.
  run("inject truncate ${format}" zero inject --in "${archive}" ${fmt_flag}
      --plan-json "{\"seed\": 5, \"truncate\": 0.5}"
      --out "${WORK_DIR}/cut.${format}"
      --report "${WORK_DIR}/cut.${format}.json")
  file(READ "${WORK_DIR}/cut.${format}.json" cut_report)
  string(JSON cut_expected GET "${cut_report}" expected_quarantine truncated)
  if(cut_expected EQUAL 0)
    set(cut_rc zero)
  else()
    set(cut_rc nonzero)
  endif()
  run("parse truncated ${format}" ${cut_rc} parse
      --archive "${WORK_DIR}/cut.${format}" ${fmt_flag} --lenient)
  string(FIND "${last_out}" "skipped ${cut_expected} corrupt" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "corruption_smoke: parse ${format} should skip "
                        "${cut_expected} record(s): ${last_out}")
  endif()

  # A zero-rate plan must reproduce the input byte for byte.
  run("passthrough ${format}" zero inject --in "${archive}" ${fmt_flag}
      --out "${WORK_DIR}/passthrough.${format}")
  file(READ "${archive}" clean_hex HEX)
  file(READ "${WORK_DIR}/passthrough.${format}" pass_hex HEX)
  if(NOT clean_hex STREQUAL pass_hex)
    message(FATAL_ERROR "corruption_smoke: zero-rate ${format} passthrough "
                        "is not byte-identical")
  endif()
  message(STATUS "corruption_smoke: ok 'passthrough bytes ${format}'")
endforeach()

message(STATUS "corruption_smoke: ok")
