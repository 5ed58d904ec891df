# Feeds check_json_schema a document of 100000 nested '[' and fails unless
# it exits 1 with a nesting message -- not a crash on a blown stack.
#
#   cmake -DBIN=path/to/check_json_schema -DWORK=dir -P check_json_schema_deep.cmake
string(REPEAT "[" 100000 deep)
set(path "${WORK}/check_json_schema_deep.json")
file(WRITE "${path}" "${deep}")
execute_process(COMMAND "${BIN}" "${path}"
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
file(REMOVE "${path}")
if(NOT rc STREQUAL "1")
  message(FATAL_ERROR "check_json_schema: exit '${rc}', expected 1")
endif()
if(NOT err MATCHES "nesting deeper than")
  message(FATAL_ERROR "check_json_schema: no nesting message: ${err}")
endif()
message(STATUS "ok check_json_schema: rejects deep nesting with exit 1")
