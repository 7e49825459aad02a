# Runs an example with bad arguments and requires the strict parser's
# rejection: exit status 2 and a usage line, well inside a short timeout.
#
#   cmake -DEXE=<example> -DARGS=<;-separated args> -P expect_usage.cmake
execute_process(COMMAND ${EXE} ${ARGS}
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  TIMEOUT 10)
if(NOT status EQUAL 2)
  message(FATAL_ERROR "expected exit status 2, got '${status}'\n${out}${err}")
endif()
if(NOT err MATCHES "usage: ")
  message(FATAL_ERROR "expected a usage line on stderr, got:\n${err}")
endif()
