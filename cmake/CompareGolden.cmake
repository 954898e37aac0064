# Runs one example and compares its stdout, byte for byte, with the
# committed golden file; a non-zero exit or any difference fails.
#   cmake -DEXAMPLE=<binary> -DGOLDEN=<file> -DOUTPUT=<file> \
#         -P cmake/CompareGolden.cmake
# To re-pin a golden after an intended output change, copy OUTPUT over it.
execute_process(COMMAND ${EXAMPLE} OUTPUT_FILE ${OUTPUT} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXAMPLE} exited with ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUTPUT} ${GOLDEN}
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "stdout of ${EXAMPLE} (${OUTPUT}) differs from ${GOLDEN}")
endif()
