# Runs `BIN [PROGRAM] --FLAG` and passes only if it exits 2 and its stderr
# contains EXPECT (default: `unknown flag --NAME`, NAME being FLAG up to any
# `=`). Invoked by ctest with -DBIN, -DFLAG, and optionally -DPROGRAM and
# -DEXPECT.
execute_process(COMMAND ${BIN} ${PROGRAM} --${FLAG}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT DEFINED EXPECT)
  string(REGEX REPLACE "=.*" "" name "${FLAG}")
  set(EXPECT "unknown flag --${name}")
endif()
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "${BIN} --${FLAG}: exit ${rc}, want 2\n${out}${err}")
endif()
string(FIND "${err}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${BIN} --${FLAG}: stderr lacks \"${EXPECT}\"\n${err}")
endif()
