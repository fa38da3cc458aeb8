# Documentation reference check, run as a ctest (`docs_check`).
#
# Scans the backtick-quoted file references in README.md and DESIGN.md
# and fails if any referenced file no longer exists in the tree — the
# docs rot the moment a refactor renames a file, and this keeps that
# honest. A reference is accepted when it resolves relative to the repo
# root or to src/, or (for bare file names like `exchange.cpp`) when a
# file of that name exists anywhere under src/, tests/, bench/,
# examples/ or cmake/.
#
# It also checks config-field citations: every
# `FrameworkConfig::x`, `StreamConfig::x`, `CompactionPolicy::x` or
# `PartitionerConfig::x` in the two documents must name a member `x`
# declared in src/core/framework.hpp or src/core/partition_map.hpp, so a
# deleted or renamed option cannot linger in the docs.
#
# Usage: cmake -DREPO_ROOT=<repo> -P cmake/docs_check.cmake

cmake_minimum_required(VERSION 3.20)  # script mode: pin policies (IN_LIST, JOIN)

if(NOT DEFINED REPO_ROOT)
  message(FATAL_ERROR "docs_check: pass -DREPO_ROOT=<repository root>")
endif()

file(GLOB_RECURSE KNOWN_FILES RELATIVE ${REPO_ROOT}
     ${REPO_ROOT}/src/* ${REPO_ROOT}/tests/* ${REPO_ROOT}/bench/*
     ${REPO_ROOT}/examples/* ${REPO_ROOT}/cmake/*)
set(KNOWN_BASENAMES "")
foreach(f ${KNOWN_FILES})
  get_filename_component(base ${f} NAME)
  list(APPEND KNOWN_BASENAMES ${base})
endforeach()

file(READ ${REPO_ROOT}/src/core/framework.hpp config_headers)
file(READ ${REPO_ROOT}/src/core/partition_map.hpp partition_header)
string(APPEND config_headers "${partition_header}")

set(MISSING "")
foreach(doc README.md DESIGN.md)
  set(doc_path ${REPO_ROOT}/${doc})
  if(NOT EXISTS ${doc_path})
    list(APPEND MISSING "${doc} (the document itself)")
    continue()
  endif()
  file(READ ${doc_path} text)
  # `path.ext` tokens; the brace expansion form `file.{hpp,cpp}` expands.
  string(REGEX MATCHALL "`[A-Za-z0-9_/.{,}-]+\\.(hpp|cpp|md|txt|cmake)`" refs "${text}")
  string(REGEX MATCHALL "`[A-Za-z0-9_/.-]+\\.{hpp,cpp}`" brace_refs "${text}")
  list(APPEND refs ${brace_refs})
  foreach(ref ${refs})
    string(REPLACE "`" "" ref ${ref})
    set(expanded ${ref})
    if(ref MATCHES "^(.*)\\.\\{hpp,cpp\\}$")
      set(expanded ${CMAKE_MATCH_1}.hpp ${CMAKE_MATCH_1}.cpp)
    elseif(ref MATCHES "[{,}]")
      continue()  # other brace forms: skip rather than misparse
    endif()
    foreach(path ${expanded})
      get_filename_component(base ${path} NAME)
      if(EXISTS ${REPO_ROOT}/${path} OR EXISTS ${REPO_ROOT}/src/${path})
        continue()
      endif()
      if(NOT path MATCHES "/" AND base IN_LIST KNOWN_BASENAMES)
        continue()
      endif()
      list(APPEND MISSING "${doc}: ${path}")
    endforeach()
  endforeach()

  # Config-field citations: the member must still be declared, i.e. appear
  # as `<type> x;`, `<type> x = ...;` or `<type> x{...};` in a header.
  string(REGEX MATCHALL "(FrameworkConfig|StreamConfig|CompactionPolicy|PartitionerConfig)::[A-Za-z_][A-Za-z0-9_]*"
         field_refs "${text}")
  list(REMOVE_DUPLICATES field_refs)
  foreach(ref ${field_refs})
    string(REGEX REPLACE "^[A-Za-z]+::" "" field ${ref})
    if(NOT config_headers MATCHES "[A-Za-z0-9_>:*&] ${field}( = [^;]*)?[;{]")
      list(APPEND MISSING "${doc}: ${ref} (no such config field)")
    endif()
  endforeach()
endforeach()

if(MISSING)
  list(JOIN MISSING "\n  " msg)
  message(FATAL_ERROR "stale documentation references:\n  ${msg}")
endif()
message(STATUS "docs_check: all README.md/DESIGN.md file and config-field references resolve")
