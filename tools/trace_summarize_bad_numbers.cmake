# Feeds trace_summarize traces whose integer fields hold numbers no
# std::uint64_t can take (huge negative, fractional, above 2^53) and fails
# unless each exits 1 naming the field -- not 0 after an undefined cast.
#
#   cmake -DBIN=path/to/trace_summarize -DWORK=dir -P trace_summarize_bad_numbers.cmake
set(cases
  "pid|{\"traceEvents\":[{\"pid\":-1e300,\"ph\":\"M\",\"name\":\"x\"}]}"
  "pid|{\"traceEvents\":[{\"pid\":1.5,\"ph\":\"M\",\"name\":\"x\"}]}"
  "hop|{\"traceEvents\":[{\"pid\":0,\"ph\":\"X\",\"dur\":1,\"args\":{\"hop\":1e19}}]}"
  "ts|{\"traceEvents\":[{\"pid\":0,\"ph\":\"i\",\"cat\":\"mark\",\"name\":\"m\",\"ts\":-3}]}")
set(path "${WORK}/trace_summarize_bad_numbers.json")
foreach(case IN LISTS cases)
  string(FIND "${case}" "|" bar)
  string(SUBSTRING "${case}" 0 ${bar} field)
  math(EXPR from "${bar} + 1")
  string(SUBSTRING "${case}" ${from} -1 doc)
  file(WRITE "${path}" "${doc}")
  execute_process(COMMAND "${BIN}" "${path}"
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc STREQUAL "1")
    file(REMOVE "${path}")
    message(FATAL_ERROR "trace_summarize: exit '${rc}', expected 1 for ${doc}")
  endif()
  if(NOT err MATCHES "invalid trace: \"${field}\" is ")
    file(REMOVE "${path}")
    message(FATAL_ERROR "trace_summarize: no \"${field}\" message: ${err}")
  endif()
endforeach()
file(REMOVE "${path}")
message(STATUS "ok trace_summarize: rejects non-integer ids and cycles with exit 1")
