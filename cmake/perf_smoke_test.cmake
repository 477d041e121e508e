# CTest script: perf smoke of the GEMM compute path. Runs quickstart (tiny
# fast model, trained into WORK_DIR/weights on the first run and loaded
# after) once, writing a DCDIFF_BENCH_JSON report. Validates that the report
# exists, parses as JSON, and carries a positive receiver-seconds record plus
# the nn.workspace metrics gauge. The JSON lands in WORK_DIR as
# BENCH_pr3.json so perf regressions can be diffed offline; the smoke itself
# only asserts structure, not a speed (tiny-model times are noise-dominated
# on loaded CI hosts).
#
# Invoked as:
#   cmake -DQUICKSTART=<path-to-binary> -DWORK_DIR=<scratch-dir>
#         -P perf_smoke_test.cmake

if(NOT QUICKSTART)
  message(FATAL_ERROR "QUICKSTART binary path not set")
endif()
if(NOT WORK_DIR)
  message(FATAL_ERROR "WORK_DIR not set")
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")

set(json_path "${WORK_DIR}/BENCH_pr3.json")
file(REMOVE "${json_path}")
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env
          "DCDIFF_QUICKSTART_FAST=1"
          "DCDIFF_CACHE_DIR=${WORK_DIR}/weights"
          "DCDIFF_BENCH_JSON=${json_path}"
          "DCDIFF_LOG_LEVEL=warn"
          "${QUICKSTART}"
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE run_result
  OUTPUT_VARIABLE run_output
  ERROR_VARIABLE run_errors)
if(NOT run_result EQUAL 0)
  message(FATAL_ERROR "quickstart exited with ${run_result}\n"
                      "stdout:\n${run_output}\nstderr:\n${run_errors}")
endif()
if(NOT EXISTS "${json_path}")
  message(FATAL_ERROR "quickstart did not write ${json_path}\n"
                      "stdout:\n${run_output}")
endif()

# The report: JSON parses, has >= 1 record with seconds > 0.
file(READ "${json_path}" content)
if(CMAKE_VERSION VERSION_GREATER_EQUAL 3.19)
  string(JSON n_records ERROR_VARIABLE json_err LENGTH "${content}" records)
  if(json_err)
    message(FATAL_ERROR "${json_path} is not valid JSON: ${json_err}")
  endif()
  if(n_records LESS 1)
    message(FATAL_ERROR "${json_path} has no records")
  endif()
  string(JSON seconds GET "${content}" records 0 seconds)
  if(seconds LESS_EQUAL 0)
    message(FATAL_ERROR "${json_path}: non-positive receiver seconds "
                        "(${seconds})")
  endif()
  message(STATUS "${json_path}: receiver ${seconds}s over ${n_records} "
                 "record(s)")
endif()
# The blocked path must have gone through the scratch arena.
string(FIND "${content}" "nn.workspace.bytes_peak" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "${json_path} is missing the "
                      "nn.workspace.bytes_peak gauge: the GEMM path did "
                      "not run through the workspace arena")
endif()

message(STATUS "perf smoke OK: ${json_path}")
