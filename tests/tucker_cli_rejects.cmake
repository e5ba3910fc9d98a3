# CTest helper: tucker_cli must reject an unknown value of each enumerated
# flag with the usage message and exit code 2, before it trains anything.
# The input is a valid tensor, so a flag that accepted the value would go
# on to train and exit 0.
#   cmake -DCLI=<tucker_cli> -DWORK=<dir> -P tucker_cli_rejects.cmake
file(MAKE_DIRECTORY ${WORK})
file(WRITE ${WORK}/tiny.tns "1 1 1 1.0\n2 1 2 2.0\n1 2 2 3.0\n2 2 1 4.0\n")
foreach(flag_value "--init;bogus" "--ttmc-kernel;auto" "--trsvd-method;gram")
  execute_process(
    COMMAND ${CLI} ${WORK}/tiny.tns 1,1,1 ${flag_value}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  list(JOIN flag_value " " shown)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "tucker_cli ${shown} exited ${rc}, want 2:\n${out}${err}")
  endif()
  if(NOT err MATCHES "usage: tucker_cli")
    message(FATAL_ERROR "tucker_cli ${shown} printed no usage:\n${err}")
  endif()
endforeach()
