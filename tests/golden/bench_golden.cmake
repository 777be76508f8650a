# Byte-for-byte stdout pin of one bench binary, run as a ctest by
# snicsim_bench_golden (bench/CMakeLists.txt):
#
#   cmake -DBENCH=<binary> -DGOLDEN=<tests/golden/data/bench_<name>.golden>
#         [-DARGS="<arg> ..."] -P bench_golden.cmake
#
# Runs `<binary> ARGS` (default `--jobs=2 --csv`) and compares its stdout
# with GOLDEN; with UPDATE_GOLDENS set in the environment it rewrites GOLDEN
# instead (scripts/update_goldens.sh).
if(NOT DEFINED ARGS)
  set(ARGS "--jobs=2 --csv")
endif()
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${BENCH} ${args}
                OUTPUT_VARIABLE actual RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} ${ARGS} exited ${rc}")
endif()
if(DEFINED ENV{UPDATE_GOLDENS})
  file(WRITE ${GOLDEN} "${actual}")
  message(STATUS "updated ${GOLDEN}")
  return()
endif()
if(NOT EXISTS ${GOLDEN})
  message(FATAL_ERROR "missing golden ${GOLDEN} — run scripts/update_goldens.sh")
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  get_filename_component(name ${GOLDEN} NAME)
  file(WRITE ${CMAKE_CURRENT_BINARY_DIR}/${name}.actual "${actual}")
  message(FATAL_ERROR "${BENCH} drifted from its golden; compare with\n"
                      "  diff ${GOLDEN} ${CMAKE_CURRENT_BINARY_DIR}/${name}.actual\n"
                      "If the numeric change is intentional, regenerate with "
                      "scripts/update_goldens.sh.")
endif()
