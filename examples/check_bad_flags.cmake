# Checks that fgnvm_sim and fgnvm_serve reject malformed or out-of-range
# numeric flag values: each command must exit with status 2 and name the
# offending flag on stderr, instead of running with a truncated, wrapped or
# defaulted value.
#
#   cmake -DSIM=<fgnvm_sim> -DSERVE=<fgnvm_serve> -DCONFIG=<base.cfg> \
#         -P check_bad_flags.cmake
foreach(var SIM SERVE CONFIG)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_bad_flags: -D${var}=... is required")
  endif()
endforeach()

# check_rejects(<flag> <command...>)
function(check_rejects flag)
  # The timeout keeps a wrongly accepted --tcp from listening forever.
  execute_process(COMMAND ${ARGN}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err TIMEOUT 60)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "expected exit 2, got '${rc}': ${ARGN}\n${err}")
  endif()
  string(FIND "${err}" "${flag}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "stderr does not name ${flag}: ${ARGN}\n${err}")
  endif()
endfunction()

set(sim "${SIM}" --config "${CONFIG}" --workload milc)
check_rejects(--ops ${sim} --ops 2e3)
check_rejects(--ops ${sim} --ops abc)
check_rejects(--ops ${sim} --ops 0)
check_rejects(--ops ${sim} --ops -5)
check_rejects(--ops ${sim} --ops 99999999999999999999)

check_rejects(--tcp "${SERVE}" --tcp 70000)
check_rejects(--tcp "${SERVE}" --tcp 0)
check_rejects(--tcp "${SERVE}" --tcp +80)
check_rejects(--channels "${SERVE}" --selftest --channels 4x)
check_rejects(--clients "${SERVE}" --selftest --clients 2junk)
check_rejects(--clients "${SERVE}" --selftest --clients 0)
check_rejects(--shards "${SERVE}" --selftest --shards abc)
check_rejects(--shards "${SERVE}" --selftest --shards 100000)
check_rejects(--sags "${SERVE}" --selftest --sags " 8")
