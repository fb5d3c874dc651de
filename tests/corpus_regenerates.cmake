# Checks that the checked-in seed corpus is exactly what corpus_gen writes
# (DESIGN.md §11: "regenerated bit-identically").
#
#   cmake -DCORPUS_GEN=<corpus_gen> -DCORPUS=<tests/corpus> -DOUT=<scratch dir>
#         -P corpus_regenerates.cmake
#
# Regenerates 110 inputs per target with seed 1 into OUT (emptied first) and
# fails on any file present on one side only or differing in any byte.

cmake_minimum_required(VERSION 3.16)
if(NOT CORPUS_GEN OR NOT CORPUS OR NOT OUT)
  message(FATAL_ERROR "usage: cmake -DCORPUS_GEN=<exe> -DCORPUS=<dir> -DOUT=<dir> -P ${CMAKE_CURRENT_LIST_FILE}")
endif()
file(REMOVE_RECURSE "${OUT}")
execute_process(COMMAND "${CORPUS_GEN}" "${OUT}" 110 1
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${CORPUS_GEN} failed (${rc}): ${err}")
endif()

file(GLOB_RECURSE want RELATIVE "${CORPUS}" "${CORPUS}/*")
file(GLOB_RECURSE got RELATIVE "${OUT}" "${OUT}/*")
list(SORT want)
list(SORT got)
set(diffs "")
foreach(f IN LISTS want)
  if(NOT f IN_LIST got)
    string(APPEND diffs "\n  not regenerated: ${f}")
    continue()
  endif()
  file(SHA256 "${CORPUS}/${f}" a)
  file(SHA256 "${OUT}/${f}" b)
  if(NOT a STREQUAL b)
    string(APPEND diffs "\n  differs: ${f}")
  endif()
endforeach()
foreach(f IN LISTS got)
  if(NOT f IN_LIST want)
    string(APPEND diffs "\n  not checked in: ${f}")
  endif()
endforeach()
list(LENGTH want n)
if(n EQUAL 0)
  message(FATAL_ERROR "no corpus files under ${CORPUS}")
endif()
if(diffs)
  message(FATAL_ERROR "regenerated corpus differs from ${CORPUS}:${diffs}")
endif()
message(STATUS "${n} corpus files regenerate byte-identically")
