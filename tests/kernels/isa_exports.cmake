# The ODR guard for the int8 GEMM's ISA units (see
# src/kernels/gemm_s16_body.h): each unit built with -m<isa> flags must
# define exactly one external text symbol, its own entry point. Any other
# (an inline or template function that escaped internal linkage) could be
# picked by the linker for a baseline caller and run ISA instructions on a
# CPU that lacks them.
#
#   cmake -DNM=<nm> -DOBJECTS=<obj>[|<obj>...] -P isa_exports.cmake
#
# OBJECTS lists the kernels library's objects, '|'-separated; the units
# checked are picked out of it by name.
set(units
  "gemm_avx2.cpp.o=kernels::micro::GemmS16S32Avx2("
  "gemm_avx512vnni.cpp.o=kernels::micro::GemmS16S32Avx512Vnni(")

string(REPLACE "|" ";" objects "${OBJECTS}")
set(failures 0)
foreach(unit IN LISTS units)
  string(REPLACE "=" ";" unit "${unit}")
  list(GET unit 0 file)
  list(GET unit 1 entry)
  set(object "")
  foreach(candidate IN LISTS objects)
    if(candidate MATCHES "/${file}$")
      set(object "${candidate}")
    endif()
  endforeach()
  if(object STREQUAL "")
    message(SEND_ERROR "no object named ${file} among: ${OBJECTS}")
    math(EXPR failures "${failures} + 1")
    continue()
  endif()
  execute_process(
    COMMAND "${NM}" --defined-only --extern-only -C "${object}"
    OUTPUT_VARIABLE symbols RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(SEND_ERROR "${NM} failed on ${object}")
    math(EXPR failures "${failures} + 1")
    continue()
  endif()
  # Text symbols: T (global), W (weak, e.g. an emitted inline function),
  # i (indirect function).
  string(REPLACE "\n" ";" lines "${symbols}")
  set(text "")
  foreach(line IN LISTS lines)
    if(line MATCHES "^[0-9a-fA-F]* [TWi] (.*)$")
      list(APPEND text "${CMAKE_MATCH_1}")
    endif()
  endforeach()
  list(LENGTH text count)
  set(ok FALSE)
  if(count EQUAL 1)
    string(FIND "${text}" "${entry}" at)
    if(at EQUAL 0)
      set(ok TRUE)
    endif()
  endif()
  if(ok)
    message(STATUS "${file}: exports only ${text}")
  else()
    message(SEND_ERROR "${file} must export only ${entry}...), "
                       "but its external text symbols are: ${text}")
    math(EXPR failures "${failures} + 1")
  endif()
endforeach()
if(failures GREATER 0)
  message(FATAL_ERROR "${failures} ISA unit(s) break the export rule")
endif()
