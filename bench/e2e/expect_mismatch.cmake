# CTest helper: run the fibered-3d smoke workload with one expected answer
# corrupted, and pass only if bench_e2e exits nonzero AND names the
# mismatch (any other failure would also exit nonzero, so the exit code
# alone proves nothing).
#   cmake -DBENCH=<bench_e2e> -DWORK=<dir> -P expect_mismatch.cmake
execute_process(
  COMMAND ${BENCH} --all --smoke --seed 1 --workload fibered-3d
          --corrupt-expected --work ${WORK}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
message("${out}${err}")
if(rc EQUAL 0)
  message(FATAL_ERROR "bench_e2e accepted a corrupted expected answer")
endif()
if(NOT err MATCHES "serve response mismatch")
  message(FATAL_ERROR "bench_e2e failed, but not on the corrupted answer")
endif()
