# CTest script: end-to-end smoke of the batched serving engine. Runs
# serve_tool (tiny fast model, weights cached in WORK_DIR) with two client
# sessions submitting concurrently and a max_batch=4 worker, and asserts the
# run reports success ("serve_tool: OK") with every request served. The tool
# itself verifies per-request status and reconstruction quality; this script
# only checks process-level behaviour so the smoke stays robust on loaded CI
# hosts — and that the exports parse: the --stats-dump JSON snapshot, the
# shutdown flight-recorder dump (one record per request), and the labeled
# per-worker Prometheus families.
#
# Invoked as:
#   cmake -DSERVE_TOOL=<path-to-binary> -DWORK_DIR=<scratch-dir>
#         -P serve_smoke_test.cmake

if(NOT SERVE_TOOL)
  message(FATAL_ERROR "SERVE_TOOL binary path not set")
endif()
if(NOT WORK_DIR)
  message(FATAL_ERROR "WORK_DIR not set")
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(stats_file "${WORK_DIR}/stats.json")
set(flight_file "${WORK_DIR}/flight.json")
file(REMOVE "${stats_file}" "${stats_file}.prom" "${flight_file}")

execute_process(
  COMMAND ${CMAKE_COMMAND} -E env
          "DCDIFF_QUICKSTART_FAST=1"
          "DCDIFF_CACHE_DIR=${WORK_DIR}/weights"
          "DCDIFF_SERVE_MAX_BATCH=4"
          "DCDIFF_LOG_LEVEL=warn"
          "DCDIFF_FLIGHT_RECORDER_FILE=${flight_file}"
          "${SERVE_TOOL}" 8 2 --stats-dump "${stats_file}"
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE run_result
  OUTPUT_VARIABLE run_output
  ERROR_VARIABLE run_errors)
if(NOT run_result EQUAL 0)
  message(FATAL_ERROR "serve_tool exited with ${run_result}\n"
                      "stdout:\n${run_output}\nstderr:\n${run_errors}")
endif()

string(FIND "${run_output}" "serve_tool: OK" ok_pos)
if(ok_pos EQUAL -1)
  message(FATAL_ERROR "serve_tool did not report OK\nstdout:\n${run_output}")
endif()
string(FIND "${run_output}" "served 8/8 images" served_pos)
if(served_pos EQUAL -1)
  message(FATAL_ERROR "serve_tool did not serve all 8 requests\n"
                      "stdout:\n${run_output}")
endif()

file(READ "${stats_file}" stats_json)
string(JSON stats_server ERROR_VARIABLE json_error GET "${stats_json}" server)
if(json_error)
  message(FATAL_ERROR "stats snapshot is not valid JSON: ${json_error}")
endif()

file(READ "${flight_file}" flight_json)
string(JSON flight_total ERROR_VARIABLE json_error
       GET "${flight_json}" total_recorded)
if(json_error)
  message(FATAL_ERROR "flight dump is not valid JSON: ${json_error}")
endif()
if(NOT flight_total EQUAL 8)
  message(FATAL_ERROR "flight dump holds ${flight_total} records, want 8")
endif()

file(READ "${stats_file}.prom" prom)
string(FIND "${prom}" "dcdiff_serve_worker_batches_total{worker=\"0\"}"
       labeled_pos)
if(labeled_pos EQUAL -1)
  message(FATAL_ERROR "no labeled per-worker family in ${stats_file}.prom")
endif()
string(FIND "${prom}" "dcdiff_serve_worker_0_" indexed_pos)
if(NOT indexed_pos EQUAL -1)
  message(FATAL_ERROR "per-worker metric exported outside its labeled "
                      "family in ${stats_file}.prom")
endif()

message(STATUS "serve smoke OK")
