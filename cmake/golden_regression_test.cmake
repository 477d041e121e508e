# Cross-process golden regression: runs examples/quickstart twice, in two
# separate processes, against the checked-in golden weights
# (tests/golden/weights/*.bin, fixed seeds), and requires
#   * byte-identical output PPMs across the two processes, and
#   * the reported PSNR to match tests/golden/quickstart_psnr.txt to 1e-6.
# A third run starts from an empty weight cache, so quickstart trains all
# three components, and requires
#   * each trained weight file to equal its golden file byte for byte.
#
# This pins down full-pipeline determinism (decode -> diffusion sampling ->
# PPM bytes) and training determinism (stage 1, stage 2 and FMPP's truncated
# DDIM loop) against kernel or RNG drift that the 2-decimal quickstart table
# would never show.
#
# Invoked as:
#   cmake -DQUICKSTART=<path-to-binary> -DWORK_DIR=<scratch-dir>
#         -DGOLDEN_DIR=<source-tree>/tests/golden
#         -P golden_regression_test.cmake
#
# Regenerating the golden (after an intentional numeric change): run with
# GOLDEN_REGEN=1 in the environment, then commit tests/golden. The golden is
# recorded with the default build flags; a -DDCDIFF_NATIVE_ARCH=ON build may
# legitimately differ in the last bits and is not a supported golden source.

if(NOT QUICKSTART)
  message(FATAL_ERROR "QUICKSTART binary path not set")
endif()
if(NOT WORK_DIR)
  message(FATAL_ERROR "WORK_DIR not set")
endif()
if(NOT GOLDEN_DIR)
  message(FATAL_ERROR "GOLDEN_DIR not set")
endif()

set(weights_dir "${GOLDEN_DIR}/weights")
set(golden_file "${GOLDEN_DIR}/quickstart_psnr.txt")

# Runs quickstart in ${WORK_DIR}/${run} with its weight cache in
# `cache_dir` (trained on a miss); sets psnr_${run} from the
# machine-readable "quickstart_golden psnr=..." line.
function(run_quickstart run cache_dir)
  set(dir "${WORK_DIR}/${run}")
  file(REMOVE_RECURSE "${dir}")
  file(MAKE_DIRECTORY "${dir}")
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env
            "DCDIFF_QUICKSTART_FAST=1"
            "DCDIFF_CACHE_DIR=${cache_dir}"
            "DCDIFF_LOG_LEVEL=warn"
            --unset=DCDIFF_TRACE_FILE
            --unset=DCDIFF_METRICS_FILE
            "${QUICKSTART}"
    WORKING_DIRECTORY "${dir}"
    RESULT_VARIABLE run_result
    OUTPUT_VARIABLE run_output
    ERROR_VARIABLE run_errors)
  if(NOT run_result EQUAL 0)
    message(FATAL_ERROR "quickstart (${run}) exited with ${run_result}\n"
                        "stdout:\n${run_output}\nstderr:\n${run_errors}")
  endif()
  string(REGEX MATCH "quickstart_golden psnr=([0-9]+\\.[0-9]+)" m
         "${run_output}")
  if(NOT m)
    message(FATAL_ERROR
            "quickstart (${run}) printed no golden line\n${run_output}")
  endif()
  set(psnr_${run} "${CMAKE_MATCH_1}" PARENT_SCOPE)
endfunction()

# CMake has no float arithmetic: compare PSNRs as integer nano-dB. The
# quickstart line prints 9 decimals, so the conversion is exact.
function(psnr_to_nano value outvar)
  if(NOT value MATCHES "^([0-9]+)\\.([0-9]+)$")
    message(FATAL_ERROR "unparseable PSNR value '${value}'")
  endif()
  set(int_part "${CMAKE_MATCH_1}")
  set(frac_part "${CMAKE_MATCH_2}")
  string(LENGTH "${frac_part}" frac_len)
  if(frac_len GREATER 9)
    string(SUBSTRING "${frac_part}" 0 9 frac_part)
  elseif(frac_len LESS 9)
    math(EXPR pad "9 - ${frac_len}")
    foreach(i RANGE 1 ${pad})
      string(APPEND frac_part "0")
    endforeach()
  endif()
  # Leading zeros in the fraction would read as octal; strip them.
  string(REGEX REPLACE "^0+([0-9])" "\\1" frac_part "${frac_part}")
  math(EXPR nano "${int_part} * 1000000000 + ${frac_part}")
  set(${outvar} "${nano}" PARENT_SCOPE)
endfunction()

if("$ENV{GOLDEN_REGEN}")
  file(REMOVE_RECURSE "${weights_dir}")
  file(MAKE_DIRECTORY "${weights_dir}")
  run_quickstart(regen "${weights_dir}")
  file(WRITE "${golden_file}" "${psnr_regen}\n")
  message(STATUS "regenerated golden: psnr=${psnr_regen}, "
                 "weights in ${weights_dir} — commit tests/golden/")
  return()
endif()

if(NOT EXISTS "${golden_file}")
  message(FATAL_ERROR "missing ${golden_file} (run with GOLDEN_REGEN=1)")
endif()
file(GLOB golden_weights "${weights_dir}/*.bin")
if(NOT golden_weights)
  message(FATAL_ERROR
          "no golden weights in ${weights_dir} (run with GOLDEN_REGEN=1)")
endif()

run_quickstart(run1 "${weights_dir}")
run_quickstart(run2 "${weights_dir}")

# Separate processes must produce byte-identical images.
foreach(ppm quickstart_dcdiff.ppm quickstart_original.ppm)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            "${WORK_DIR}/run1/${ppm}" "${WORK_DIR}/run2/${ppm}"
    RESULT_VARIABLE same)
  if(NOT same EQUAL 0)
    message(FATAL_ERROR "${ppm} differs between two processes: "
                        "reconstruction is not deterministic")
  endif()
endforeach()

if(NOT psnr_run1 STREQUAL psnr_run2)
  message(FATAL_ERROR "PSNR differs across processes: "
                      "${psnr_run1} vs ${psnr_run2}")
endif()

file(STRINGS "${golden_file}" golden_value LIMIT_COUNT 1)
string(STRIP "${golden_value}" golden_value)
psnr_to_nano("${psnr_run1}" got_nano)
psnr_to_nano("${golden_value}" want_nano)
math(EXPR diff_nano "${got_nano} - ${want_nano}")
if(diff_nano LESS 0)
  math(EXPR diff_nano "0 - ${diff_nano}")
endif()
# 1e-6 dB tolerance = 1000 nano-dB.
if(diff_nano GREATER 1000)
  message(FATAL_ERROR "PSNR drifted from golden: got ${psnr_run1}, "
                      "want ${golden_value} (|diff| = ${diff_nano} nano-dB)")
endif()

# Training from a cold cache reproduces the golden weights byte for byte.
set(cold_cache "${WORK_DIR}/cold_weights")
file(REMOVE_RECURSE "${cold_cache}")
file(MAKE_DIRECTORY "${cold_cache}")
run_quickstart(cold "${cold_cache}")
foreach(golden IN LISTS golden_weights)
  get_filename_component(name "${golden}" NAME)
  if(NOT EXISTS "${cold_cache}/${name}")
    message(FATAL_ERROR "cold-cache run wrote no ${name}")
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            "${golden}" "${cold_cache}/${name}"
    RESULT_VARIABLE same)
  if(NOT same EQUAL 0)
    message(FATAL_ERROR "trained ${name} differs from the golden weights: "
                        "training is not bit-reproducible")
  endif()
endforeach()
if(NOT psnr_cold STREQUAL psnr_run1)
  message(FATAL_ERROR "PSNR on freshly trained weights differs: "
                      "${psnr_cold} vs ${psnr_run1}")
endif()

message(STATUS "golden regression OK: psnr=${psnr_run1} "
               "(golden ${golden_value}, |diff| ${diff_nano} nano-dB)")
