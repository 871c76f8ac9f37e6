# Run EXE with ARGS (a ;-list) and require a usage error: exit status 1 and
# "error:" plus "usage: USAGE" on stderr.
#   cmake -DEXE=<binary> -DARGS=<args> -DUSAGE=<tool name> -P expect_usage_error.cmake
execute_process(COMMAND ${EXE} ${ARGS}
                RESULT_VARIABLE status
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT status STREQUAL "1")
  message(FATAL_ERROR "${EXE} ${ARGS}: exit status '${status}', want 1\n${err}")
endif()
if(NOT err MATCHES "error: " OR NOT err MATCHES "usage: ${USAGE}")
  message(FATAL_ERROR "${EXE} ${ARGS}: no error line and usage text:\n${err}")
endif()
