# Runs polarstar_sim on each hostile argv below and fails unless every run
# exits with status 2 and prints the usage to stderr. A crash (signal,
# std::terminate) shows up as a non-numeric result and fails too, as does
# a run that accepts its argv and starts simulating (timeout).
#
#   cmake -DBIN=path/to/polarstar_sim -P polarstar_sim_badargs.cmake
# One argv per entry, its arguments separated by '|'.
set(cases
  "--help"
  "NOPE"
  "PS-IQ|vcs=abc"
  "PS-IQ|vcs=99"
  "PS-IQ|vcs=0"
  "PS-IQ|seed=-1"
  "PS-IQ|buffers="
  "PS-IQ|bogus=3"
  "PS-IQ|1.5"
  "PS-IQ|0"
  "PS-IQ|nan"
  "PS-IQ|not-a-pattern")
set(failed 0)
foreach(case IN LISTS cases)
  string(REPLACE "|" " " shown "${case}")
  string(REPLACE "|" ";" args "${case}")
  execute_process(COMMAND "${BIN}" ${args} TIMEOUT 30
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc STREQUAL "2")
    message(SEND_ERROR "polarstar_sim ${shown}: exit '${rc}', expected 2")
    set(failed 1)
  elseif(NOT err MATCHES "usage: polarstar_sim")
    message(SEND_ERROR "polarstar_sim ${shown}: no usage on stderr")
    set(failed 1)
  else()
    message(STATUS "ok polarstar_sim ${shown}: exit 2 with usage")
  endif()
endforeach()
if(failed)
  message(FATAL_ERROR "polarstar_sim accepted or crashed on bad arguments")
endif()
