# Runs `soufflette PROGRAM --FLAG` and passes only if it exits 2 and names
# the flag on stderr. Invoked by ctest with -DSOUFFLETTE, -DPROGRAM, -DFLAG.
execute_process(COMMAND ${SOUFFLETTE} ${PROGRAM} --${FLAG}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
string(REGEX REPLACE "=.*" "" name "${FLAG}")
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "soufflette --${FLAG}: exit ${rc}, want 2\n${out}${err}")
endif()
string(FIND "${err}" "unknown flag --${name}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "soufflette --${FLAG}: stderr does not name the flag\n${err}")
endif()
