# gen_datasets rejects a flag value it cannot use before writing
# anything: each bad --t / --seed / --scale must exit 2 with a one-line
# error naming the flag and leave the output directory uncreated. Run
# via `ctest -R gen_datasets_flags`; CMakeLists passes in GEN_DATASETS
# and WORK_DIR.

foreach(var GEN_DATASETS WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "gen_datasets_flags.cmake requires -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE ${WORK_DIR})
set(out_dir ${WORK_DIR}/data)

foreach(bad --t=-1 --t=0 --t=abc --seed=abc --seed=-3 --scale=0
            --scale=-0.5 --scale=abc)
  string(REGEX REPLACE "^--([a-z]+)=.*" "\\1" flag ${bad})
  execute_process(
    COMMAND ${GEN_DATASETS} --dir=${out_dir} ${bad}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 20)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "gen_datasets ${bad}: exit ${rc}, want 2\n${out}\n${err}")
  endif()
  if(NOT err MATCHES "^error: --${flag} must be")
    message(FATAL_ERROR "gen_datasets ${bad}: stderr does not name --${flag}:\n${err}")
  endif()
  if(EXISTS ${out_dir})
    message(FATAL_ERROR "gen_datasets ${bad} wrote ${out_dir} before rejecting")
  endif()
endforeach()

message(STATUS "gen_datasets_flags passed")
