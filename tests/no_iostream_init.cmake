# Keeps the serving binaries free of the iostream initializer: fails when
# `nm -C` lists std::ios_base::Init in ocular_served or ocular_fleet. A
# translation unit that includes <iostream> links one in, and it starts
# libstdc++'s stream and locale machinery in every serving process,
# about 0.45 MB of resident libstdc++ pages each.
# Run by ctest as:
#   cmake -DNM=... -DOCULAR_SERVED=... -DOCULAR_FLEET=...
#         -P no_iostream_init.cmake

cmake_minimum_required(VERSION 3.20)

if(NOT NM)
  message(FATAL_ERROR "no nm to list the binaries' symbols")
endif()
foreach(binary IN ITEMS "${OCULAR_SERVED}" "${OCULAR_FLEET}")
  execute_process(COMMAND ${NM} -C ${binary}
    OUTPUT_VARIABLE symbols ERROR_VARIABLE errors RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "nm -C ${binary} exited ${rc}: ${errors}")
  endif()
  string(REGEX MATCHALL "[^\n]*std::ios_base::Init[^\n]*" found "${symbols}")
  if(found)
    string(REPLACE ";" "\n  " found "${found}")
    message(FATAL_ERROR
      "${binary} links the iostream initializer (a translation unit "
      "includes <iostream>):\n  ${found}")
  endif()
  message(STATUS "${binary}: no std::ios_base::Init")
endforeach()
