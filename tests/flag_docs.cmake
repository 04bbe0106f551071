# Keeps the docs in step with the flag tables: fails when README.md or
# docs/OPERATIONS.md passes ocular_cli (per command), ocular_served or
# ocular_fleet a flag that the binary's generated usage does not declare.
# Run by ctest as:
#   cmake -DOCULAR_CLI=... -DOCULAR_SERVED=... -DOCULAR_FLEET=...
#         -DSOURCE_DIR=... -P flag_docs.cmake

cmake_minimum_required(VERSION 3.20)

# The lines of `text` as a list. Semicolons become '|' and square brackets
# parentheses first, so the list splits at newlines only (an unbalanced
# '[' would hold the rest of the text in one element).
function(to_lines text out)
  string(REPLACE ";" "|" text "${text}")
  string(REPLACE "[" "(" text "${text}")
  string(REPLACE "]" ")" text "${text}")
  string(REPLACE "\n" ";" text "${text}")
  set(${out} "${text}" PARENT_SCOPE)
endfunction()

# DECLARED_<program>: the flags each usage section declares, with the
# program's spaces as '_' ("usage: ocular train [flags]" -> ocular_train).
foreach(binary IN ITEMS "${OCULAR_CLI}" "${OCULAR_SERVED}" "${OCULAR_FLEET}")
  execute_process(COMMAND ${binary}
    ERROR_VARIABLE usage OUTPUT_QUIET RESULT_VARIABLE rc)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${binary} with no arguments exited ${rc}, not 2")
  endif()
  to_lines("${usage}" lines)
  set(program "")
  foreach(line IN LISTS lines)
    if(line MATCHES "^usage: ([a-z_ ]+) \\(flags\\)$")
      string(REPLACE " " "_" program "${CMAKE_MATCH_1}")
      set(DECLARED_${program} "")
    elseif(program AND line MATCHES "^  (--[a-z0-9-]+)")
      list(APPEND DECLARED_${program} "${CMAKE_MATCH_1}")
    endif()
  endforeach()
endforeach()

set(failures "")
set(checked 0)
foreach(doc IN ITEMS README.md docs/OPERATIONS.md)
  file(READ "${SOURCE_DIR}/${doc}" text)
  # One shell command per line: join backslash continuations.
  string(REGEX REPLACE "\\\\\n[ \t]*" " " text "${text}")
  to_lines("${text}" lines)
  foreach(line IN LISTS lines)
    # A binary that starts a command (not one inside a --served= value),
    # up to the end of its inline code span, pipe, '&&' or comment.
    string(REGEX MATCHALL "[ `(][^ `=]*ocular_(cli|served|fleet)[^`|&#]*"
      commands " ${line}")
    foreach(command IN LISTS commands)
      if(command MATCHES "ocular_cli[ \t]+([a-z]+)(.*)")
        set(program "ocular_${CMAKE_MATCH_1}")
      elseif(command MATCHES "ocular_(served|fleet)(.*)")
        set(program "ocular_${CMAKE_MATCH_1}")
      else()
        continue()
      endif()
      string(REGEX MATCHALL "--[a-z0-9-]+" used "${CMAKE_MATCH_2}")
      if(used AND NOT DEFINED DECLARED_${program})
        list(APPEND failures "${doc}: no such command:${command}")
        continue()
      endif()
      foreach(flag IN LISTS used)
        math(EXPR checked "${checked} + 1")
        if(NOT flag IN_LIST DECLARED_${program})
          list(APPEND failures
            "${doc}: ${flag} is not a flag of ${program}:${command}")
        endif()
      endforeach()
    endforeach()
  endforeach()
endforeach()

if(checked EQUAL 0)
  message(FATAL_ERROR "no flag found in the docs: the command pattern broke")
endif()
if(failures)
  list(JOIN failures "\n" failures)
  message(FATAL_ERROR "undeclared flags in the docs:\n${failures}")
endif()
message(STATUS "flag_docs: ${checked} documented flags, all declared")
