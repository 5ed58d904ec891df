# Runs BIN on each hostile argv in CASES and fails unless every run exits
# with status 2 and prints "usage: NAME" to stderr. A crash (signal,
# std::terminate) shows up as a non-numeric result and fails too, as does
# a run that accepts its argv and starts working (timeout).
#
#   cmake -DBIN=path/to/tool -DNAME=tool -DCASES="a|b,c" -P badargs.cmake
#
# CASES separates argvs with ',' and one argv's arguments with '|'.
string(REPLACE "," ";" cases "${CASES}")
set(failed 0)
foreach(case IN LISTS cases)
  string(REPLACE "|" " " shown "${case}")
  string(REPLACE "|" ";" args "${case}")
  execute_process(COMMAND "${BIN}" ${args} TIMEOUT 30
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc STREQUAL "2")
    message(SEND_ERROR "${NAME} ${shown}: exit '${rc}', expected 2")
    set(failed 1)
  elseif(NOT err MATCHES "usage: ${NAME}")
    message(SEND_ERROR "${NAME} ${shown}: no usage on stderr")
    set(failed 1)
  else()
    message(STATUS "ok ${NAME} ${shown}: exit 2 with usage")
  endif()
endforeach()
if(failed)
  message(FATAL_ERROR "${NAME} accepted or crashed on bad arguments")
endif()
