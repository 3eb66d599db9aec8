# ctest helper: runs PROGRAM with the space-separated ARGS and fails unless
# it exits with EXIT_CODE and its output contains MESSAGE.
#   cmake -DPROGRAM=... -DARGS="..." -DEXIT_CODE=2 -DMESSAGE="..." -P this
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${args}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT "${rc}" STREQUAL "${EXIT_CODE}")
  message(FATAL_ERROR "exit '${rc}', want ${EXIT_CODE}\n${out}${err}")
endif()
string(FIND "${out}${err}" "${MESSAGE}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "output lacks '${MESSAGE}'\n${out}${err}")
endif()
