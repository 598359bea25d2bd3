# Checks that fgnvm_sim rejects config keys no component reads: a config
# with a misspelled key appended must exit 2 and name every such key on
# stderr, with a "did you mean" hint for a near miss, instead of running
# with the defaults. A key only another kind of system reads (a hybrid key
# without hybrid = true) exits 2 as unused, not unknown. Every shipped
# config must still run.
#
#   cmake -DSIM=<fgnvm_sim> -DCONFIG=<base.cfg> -DCONFIG_DIR=<configs> \
#         -DWORK_DIR=<dir> -P check_config_keys.cmake
foreach(var SIM CONFIG CONFIG_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_config_keys: -D${var}=... is required")
  endif()
endforeach()

file(MAKE_DIRECTORY "${WORK_DIR}")
file(READ "${CONFIG}" base)
file(WRITE "${WORK_DIR}/typos.cfg" "${base}\nsagz = 8\ntWP_nss = 1\n")
execute_process(
  COMMAND "${SIM}" --config "${WORK_DIR}/typos.cfg" --workload milc --ops 200
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err TIMEOUT 60)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "expected exit 2 for unknown keys, got '${rc}':\n${err}")
endif()
foreach(key sagz tWP_nss)
  string(FIND "${err}" "'${key}'" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "stderr does not name '${key}':\n${err}")
  endif()
endforeach()
# Each unknown key within edit distance 2 of a key some component reads
# carries a hint naming that key.
foreach(pair "sagz=sags" "tWP_nss=tWP_ns")
  string(REPLACE "=" ";" pair "${pair}")
  list(GET pair 0 typo)
  list(GET pair 1 known)
  set(hint "'${typo}' (did you mean '${known}'?)")
  string(FIND "${err}" "${hint}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "stderr lacks the hint \"${hint}\":\n${err}")
  endif()
endforeach()

file(WRITE "${WORK_DIR}/unused.cfg" "${base}\nhybrid_threshold = 3\n")
execute_process(
  COMMAND "${SIM}" --config "${WORK_DIR}/unused.cfg" --workload milc --ops 200
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err TIMEOUT 60)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "expected exit 2 for an unused key, got '${rc}':\n${err}")
endif()
string(FIND "${err}" "not used by this system: 'hybrid_threshold'" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr does not call 'hybrid_threshold' unused:\n${err}")
endif()
string(FIND "${err}" "unknown" at)
if(NOT at EQUAL -1)
  message(FATAL_ERROR "stderr calls a hybrid key unknown:\n${err}")
endif()

file(GLOB configs "${CONFIG_DIR}/*.cfg")
foreach(cfg ${configs})
  execute_process(
    COMMAND "${SIM}" --config "${cfg}" --workload milc --ops 200
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err TIMEOUT 120)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "fgnvm_sim failed on ${cfg} (${rc}):\n${err}")
  endif()
endforeach()
