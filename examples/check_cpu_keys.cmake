# Checks that fgnvm_sim applies the CPU keys of its config file: the same
# short run with `rob_entries = 16` appended must report a different IPC
# than with the default 128-entry ROB.
#
#   cmake -DSIM=<fgnvm_sim> -DCONFIG=<base.cfg> -DWORK_DIR=<dir> \
#         -P check_cpu_keys.cmake
foreach(var SIM CONFIG WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_cpu_keys: -D${var}=... is required")
  endif()
endforeach()

file(MAKE_DIRECTORY "${WORK_DIR}")
file(READ "${CONFIG}" base)
file(WRITE "${WORK_DIR}/default.cfg" "${base}")
file(WRITE "${WORK_DIR}/rob16.cfg" "${base}\nrob_entries = 16\n")

function(run_ipc name out_var)
  execute_process(
    COMMAND "${SIM}" --config "${WORK_DIR}/${name}.cfg" --workload milc
            --ops 2000 --json "${WORK_DIR}/${name}.json"
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "fgnvm_sim failed on ${name}.cfg (${rc}): ${err}")
  endif()
  file(READ "${WORK_DIR}/${name}.json" json)
  string(JSON ipc GET "${json}" ipc)
  set(${out_var} "${ipc}" PARENT_SCOPE)
endfunction()

run_ipc(default ipc_default)
run_ipc(rob16 ipc_rob16)
message(STATUS "IPC: default ROB ${ipc_default}, rob_entries = 16 ${ipc_rob16}")
if(ipc_default STREQUAL ipc_rob16)
  message(FATAL_ERROR "rob_entries = 16 did not change the IPC: the config's "
                      "CPU keys were ignored")
endif()
