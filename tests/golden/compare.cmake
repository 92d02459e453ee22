# Runs PROGRAM and fails unless it exits 0 and its stdout equals EXPECTED
# byte for byte. The fresh output is kept in ACTUAL for inspection.
#
#   cmake -DPROGRAM=<exe> -DEXPECTED=<golden file> -DACTUAL=<out file> \
#         -P compare.cmake
execute_process(COMMAND "${PROGRAM}" OUTPUT_FILE "${ACTUAL}"
                RESULT_VARIABLE exit_code)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} exited with ${exit_code}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${EXPECTED}" "${ACTUAL}"
                RESULT_VARIABLE differs)
if(differs)
  execute_process(COMMAND diff -u "${EXPECTED}" "${ACTUAL}")
  message(FATAL_ERROR "stdout of ${PROGRAM} differs from ${EXPECTED}")
endif()
