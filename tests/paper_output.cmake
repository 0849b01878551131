# Runs one paper program and compares its stdout, byte for byte, with
# the reference output perfbench/ checks it against.
#
#   cmake -DPROGRAM=<executable> -DREFERENCE=<perfbench/reference/x.txt>
#         -P tests/paper_output.cmake
cmake_minimum_required(VERSION 3.20)

execute_process(COMMAND "${PROGRAM}"
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} exited with ${status}")
endif()
file(READ "${REFERENCE}" expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR
          "${PROGRAM}: stdout differs from ${REFERENCE}; it printed:\n"
          "${actual}")
endif()
