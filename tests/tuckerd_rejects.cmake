# CTest helper: tuckerd must reject a malformed or out-of-range numeric
# flag value with the usage message and exit code 2. The model path does
# not exist, so a value that slipped through would exit 1 (cannot open the
# bundle) instead; the first case checks exactly that with valid values.
#   cmake -DTUCKERD=<tuckerd> -DWORK=<dir> -P tuckerd_rejects.cmake
file(MAKE_DIRECTORY ${WORK})
set(missing ${WORK}/no-such-model.htb)
file(REMOVE ${missing})
execute_process(
  COMMAND ${TUCKERD} --model ${missing} --port 0 --reload-interval 2.0
          --cache-entries 0
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "tuckerd with valid values exited ${rc}, want 1:\n${out}${err}")
endif()
foreach(flag_value
    "--port;70000"
    "--port;abc"
    "--reload-interval;0"
    "--reload-interval;-1"
    "--reload-interval;abc"
    "--reload-interval;1e10"
    "--cache-entries;-5")
  execute_process(
    COMMAND ${TUCKERD} --model ${missing} --port 0 ${flag_value}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  list(JOIN flag_value " " shown)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "tuckerd ${shown} exited ${rc}, want 2:\n${out}${err}")
  endif()
  if(NOT err MATCHES "usage: tuckerd")
    message(FATAL_ERROR "tuckerd ${shown} printed no usage:\n${err}")
  endif()
endforeach()
