# CTest helper: tucker_cli must reject an unknown flag value, a removed
# flag, and a malformed or out-of-range number (ranks included) with the
# usage message and exit code 2, before it trains anything. The input is a
# valid tensor and every case but the tested argument is valid, so an
# argument that slipped through would go on to train and exit 0.
#   cmake -DCLI=<tucker_cli> -DWORK=<dir> -P tucker_cli_rejects.cmake
file(MAKE_DIRECTORY ${WORK})
file(WRITE ${WORK}/tiny.tns "1 1 1 1.0\n2 1 2 2.0\n1 2 2 3.0\n2 2 1 4.0\n")
# Each case: the ranks argument, then any flags.
foreach(case
    "1,1,1;--init;bogus"
    "1,1,1;--ttmc-kernel;auto"
    "1,1,1;--ttmc-kernel;csf"
    "1,1,1;--trsvd-method;gram"
    "a,b,c"
    "1,,1"
    "4294967297,1,1"
    "1,1,1;--threads;x"
    "1,1,1;--tol;abc")
  execute_process(
    COMMAND ${CLI} ${WORK}/tiny.tns ${case}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  list(JOIN case " " shown)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "tucker_cli ${shown} exited ${rc}, want 2:\n${out}${err}")
  endif()
  if(NOT err MATCHES "usage: tucker_cli")
    message(FATAL_ERROR "tucker_cli ${shown} printed no usage:\n${err}")
  endif()
endforeach()
