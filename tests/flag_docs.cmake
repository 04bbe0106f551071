# Keeps the docs and CI in step with the flag tables: fails when README.md,
# docs/OPERATIONS.md or .github/workflows/ci.yml passes ocular_cli (per
# command) or any other binary that declares flags (the daemon, the fleet,
# each built bench and example) a flag that the binary's generated usage
# does not declare. Run by ctest as:
#   cmake -DOCULAR_CLI=... -DOCULAR_FLAG_BINARIES="a|b|..."
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
# PROGRAMS: every program but the CLI's commands. The CLI prints every
# command's usage when run bare; the other binaries print theirs for an
# undeclared flag, without running.
string(REPLACE "|" ";" flag_binaries "${OCULAR_FLAG_BINARIES}")
set(PROGRAMS "")
foreach(binary IN ITEMS "${OCULAR_CLI}" ${flag_binaries})
  if(binary STREQUAL OCULAR_CLI)
    set(args "")
  else()
    set(args "--help")
  endif()
  execute_process(COMMAND ${binary} ${args}
    ERROR_VARIABLE usage OUTPUT_QUIET RESULT_VARIABLE rc)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${binary} ${args} exited ${rc}, not 2")
  endif()
  to_lines("${usage}" lines)
  set(program "")
  foreach(line IN LISTS lines)
    if(line MATCHES "^usage: ([a-z0-9_ ]+) \\(flags\\)$")
      string(REPLACE " " "_" program "${CMAKE_MATCH_1}")
      set(DECLARED_${program} "")
      if(NOT binary STREQUAL OCULAR_CLI)
        list(APPEND PROGRAMS "${program}")
      endif()
    elseif(program AND line MATCHES "^  (--[a-z0-9-]+)")
      list(APPEND DECLARED_${program} "${CMAKE_MATCH_1}")
    endif()
  endforeach()
endforeach()
list(JOIN PROGRAMS "|" program_names)

set(failures "")
set(checked 0)
foreach(doc IN ITEMS README.md docs/OPERATIONS.md .github/workflows/ci.yml)
  file(READ "${SOURCE_DIR}/${doc}" text)
  # One shell command per line: join backslash continuations.
  string(REGEX REPLACE "\\\\\n[ \t]*" " " text "${text}")
  to_lines("${text}" raw_lines)
  # YAML folded scalars (`run: >`): the block's lines, each indented past
  # its key, fold into one line.
  set(lines "")
  set(key_indent -1)
  foreach(line IN LISTS raw_lines)
    string(REGEX MATCH "^ +" indent "${line}")
    string(LENGTH "${indent}" width)
    if(key_indent GREATER_EQUAL 0 AND width GREATER key_indent)
      string(STRIP "${line}" line)
      list(POP_BACK lines folded)
      list(APPEND lines "${folded} ${line}")
      continue()
    endif()
    set(key_indent -1)
    if(doc MATCHES "\\.yml$" AND line MATCHES ": *>[-+]?$")
      set(key_indent ${width})
    endif()
    list(APPEND lines "${line}")
  endforeach()
  foreach(line IN LISTS lines)
    # A binary that starts a command (not one inside a --served= value),
    # up to the end of its inline code span, pipe, '&&' or comment.
    string(REGEX MATCHALL "[ `(][^ `=]*(ocular_cli|${program_names})[^`|&#]*"
      commands " ${line}")
    foreach(command IN LISTS commands)
      if(command MATCHES "ocular_cli[ \t]+([a-z]+)(.*)")
        set(program "ocular_${CMAKE_MATCH_1}")
      elseif(command MATCHES "(${program_names})(.*)")
        set(program "${CMAKE_MATCH_1}")
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
