# Fails when a packed replay calls PackedFaultRamT::read or
# PackedFaultRamT::write out of line (DESIGN.md §27).  The PRT replay
# (prt_packed.cpp.o) and the March replay (march_runner.cpp.o) issue one
# of these per 512-lane access, so each must inline into them at both
# lane words; an undefined reference to either in those two objects
# means a call per access.  The cold helpers (apply_*) and the word
# accessors (read_word, write_word) stay out of line and are not
# checked.
#
#   cmake -DNM=<nm> -DARCHIVE=<libprt.a> -P tests/packed_accessors_inline.cmake
cmake_minimum_required(VERSION 3.20)

if(NOT NM)
  message(FATAL_ERROR
          "no nm tool (CMAKE_NM is empty), so the packed accessors' "
          "inlining cannot be checked")
endif()
execute_process(COMMAND "${NM}" -A -C --undefined-only "${ARCHIVE}"
                OUTPUT_VARIABLE symbols
                ERROR_VARIABLE errors
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${NM} ${ARCHIVE} exited with ${status}:\n${errors}")
endif()
# Both objects always reference some library symbol.  If nm names one
# of them nowhere, the archive's members are not named as expected and
# the match below would pass blind.
foreach(object prt_packed march_runner)
  if(NOT symbols MATCHES "${object}\\.cpp\\.o:")
    message(FATAL_ERROR
            "${NM} lists no undefined symbol of ${object}.cpp.o in "
            "${ARCHIVE}; the check would pass blind")
  endif()
endforeach()
set(replay "(prt_packed|march_runner)\\.cpp\\.o:")
set(accessor
    "PackedFaultRamT<[^\n]*>::(read\\(unsigned int\\)|write\\(unsigned int, )")
string(REGEX MATCHALL "[^\n]*${replay}[^\n]*${accessor}[^\n]*" calls
       "${symbols}")
if(calls)
  string(REPLACE ";" "\n" calls "${calls}")
  message(FATAL_ERROR
          "a packed replay calls a per-access accessor out of line:\n"
          "${calls}")
endif()
