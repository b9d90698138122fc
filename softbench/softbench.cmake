# Build file of softbench, the benchmark of softres.
#
# softbench/run.py configures the repository's own root project with
#   -DCMAKE_BUILD_TYPE=Release -DCMAKE_PROJECT_INCLUDE=<this file>
# so the simulator libraries build from source with exactly the flags of a
# Release build of the repository (LTO included). project() includes this
# file; it defers itself to the end of the root directory, after the root's
# compile options, LTO switch and library targets exist, and then adds the
# two drivers:
#   softbench        uninstrumented (end-to-end metrics, set-up probes,
#                    golden recording)
#   softbench_spans  the same driver plus a counting operator new
#                    (per-layer metrics of the span run)
if(NOT SOFTBENCH_DEFERRED)
  set(SOFTBENCH_DEFERRED ON)
  # Deferred arguments expand when the call runs, so pin the path now.
  set(SOFTBENCH_BUILD_FILE "${CMAKE_CURRENT_LIST_FILE}")
  cmake_language(DEFER CALL include "${SOFTBENCH_BUILD_FILE}")
  return()
endif()

set(SOFTBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")
set(SOFTBENCH_SOURCES
  ${SOFTBENCH_DIR}/src/main.cc
  ${SOFTBENCH_DIR}/src/alloc_count.cc
  ${SOFTBENCH_DIR}/src/digest.cc
  ${SOFTBENCH_DIR}/src/layer_probes.cc
  ${SOFTBENCH_DIR}/src/trial.cc
  ${SOFTBENCH_DIR}/src/workloads.cc)

function(softbench_driver name)
  add_executable(${name} ${SOFTBENCH_SOURCES})
  target_link_libraries(${name} PRIVATE softres_exp softres_core)
  # bench/ for bench_util.h, whose acceptance checks the workloads reuse.
  target_include_directories(${name} PRIVATE ${SOFTBENCH_DIR}/src
                                             ${CMAKE_SOURCE_DIR}/bench)
  target_compile_definitions(${name} PRIVATE
    SOFTBENCH_COMPILER="${CMAKE_CXX_COMPILER_ID}-${CMAKE_CXX_COMPILER_VERSION}"
    SOFTBENCH_BUILD_TYPE="${CMAKE_BUILD_TYPE}")
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/softbench)
endfunction()

softbench_driver(softbench)
softbench_driver(softbench_spans)
target_compile_definitions(softbench_spans PRIVATE SOFTBENCH_SPANS=1)
