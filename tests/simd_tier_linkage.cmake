# Linkage guard for the vector SIMD tiers (DESIGN.md §16).
#
#   cmake -DNM=<nm> -DOBJECTS=<simd_sse2.o>,<simd_avx2.o> -P simd_tier_linkage.cmake
#
# Fails if a tier object defines any symbol of nm type T, W, V or u other
# than its kernel table and kAvx2Built. A weak or global function in the
# -mavx2 object (e.g. an `inline` helper from simd_common.hpp) may be the
# copy the linker keeps for every caller, baseline tiers included, and a CPU
# without AVX then dies with SIGILL. DW.ref.__gxx_personality_v0 is the
# exception-personality pointer any object with unwind tables may carry:
# weak data, not code.

if(NOT NM OR NOT OBJECTS)
  message(FATAL_ERROR "usage: cmake -DNM=<nm> -DOBJECTS=<a.o>,<b.o> -P ${CMAKE_CURRENT_LIST_FILE}")
endif()
string(REPLACE "," ";" objects "${OBJECTS}")
list(LENGTH objects n_objects)
if(NOT n_objects EQUAL 2)
  message(FATAL_ERROR "expected the SSE2 and AVX2 tier objects, got: ${OBJECTS}")
endif()

set(allowed "kSse2Kernels|kAvx2Kernels|kAvx2Built|^DW\\.ref\\.__gxx_personality_v0$")
set(leaks "")
foreach(obj IN LISTS objects)
  execute_process(COMMAND "${NM}" -P "${obj}"
    OUTPUT_VARIABLE out RESULT_VARIABLE rc ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${NM} -P ${obj} failed: ${err}")
  endif()
  string(REPLACE "\n" ";" lines "${out}")
  foreach(line IN LISTS lines)
    # POSIX format: "<name> <type> [<value> <size>]".
    if(line MATCHES "^([^ ]+) ([TWVu])( |$)")
      set(name "${CMAKE_MATCH_1}")
      set(type "${CMAKE_MATCH_2}")
      if(NOT name MATCHES "${allowed}")
        string(APPEND leaks "\n  ${obj}: ${type} ${name}")
      endif()
    endif()
  endforeach()
endforeach()

if(leaks)
  message(FATAL_ERROR "SIMD tier objects export code beyond their tables "
    "(give it internal linkage in simd_common.hpp):${leaks}")
endif()
message(STATUS "SIMD tier objects export only their tables")
