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
# It also checks member citations: every `FrameworkConfig::x`,
# `FrameworkStats::x`, `StreamConfig::x`, `CompactionPolicy::x`,
# `RebalanceStats::x`, `RecoveryStats::x` or `RefineTask::x`
# (src/core/framework.hpp), `DistributedIndex::x` (src/core/indexing.hpp),
# each workload's `<Workload>Stats::x` / `<Workload>Config::x` (its own
# header: spatial_join, overlay, range_query, indexing),
# `PartitionerConfig::x` / `PartitionMap::x` (src/core/partition_map.hpp),
# `GridSpec::x` / `CellLocator::x` (src/core/grid.hpp),
# `PartitionConfig::x` / `PartitionReader::x` (src/core/file_partition.hpp), `CellStore::x`
# (src/core/cell_store.hpp), `GeometryBatch::x` / `BatchSpan::x`
# (src/geom/geometry_batch.hpp), `ExchangeStats::x` / `RoundHeader::x` /
# `ExchangeScratch::x` (src/core/exchange.hpp), `FormatReader::x` / `WkbFormatReader::x`
# (src/core/format.hpp), `Parser::x` / `WktParser::x` /
# `CsvPointParser::x` (src/core/parser.hpp), `DatasetHandle::x`
# (src/core/framework.hpp), `CheckpointCoordinator::x` /
# `ShardSetManifest::x` / `EpochSeal::x` / `IngestLog::x` /
# `SealScanCache::x` / `ChunkReadAhead::x` (src/recovery/checkpoint.hpp),
# `File::x` / `IoCounters::x` (src/io/file.hpp), `FaultPlan::x` /
# `AdoptedLogs::x` (src/recovery/recovery.hpp) and `BatchStager::x` /
# `Spiller::x` / `ChunkPrep::x` (src/core/stages.hpp) in the two
# documents must name a field or
# method `x` declared in that header, so a deleted or renamed option or
# method cannot linger in the docs.
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

# Cited type pattern = the header (under src/) declaring its members.
set(CITED_TYPES
    "FrameworkConfig|StreamConfig|CompactionPolicy=core/framework.hpp"
    "FrameworkStats|RebalanceStats|RecoveryStats=core/framework.hpp"
    "Join(Stats|Config)=core/spatial_join.hpp"
    "Overlay(Stats|Config)=core/overlay.hpp"
    "RangeQuery(Stats|Config)=core/range_query.hpp"
    "Indexing(Stats|Config)=core/indexing.hpp"
    "PartitionerConfig=core/partition_map.hpp"
    "PartitionMap=core/partition_map.hpp"
    "GridSpec|CellLocator=core/grid.hpp"
    "PartitionConfig|PartitionReader=core/file_partition.hpp"
    "CellStore=core/cell_store.hpp"
    "(Wkb)?FormatReader=core/format.hpp"
    "(Wkt|CsvPoint)?Parser=core/parser.hpp"
    "DatasetHandle=core/framework.hpp"
    "CheckpointCoordinator|ShardSetManifest|EpochSeal|IngestLog|SealScanCache|ChunkReadAhead=recovery/checkpoint.hpp"
    "FaultPlan|AdoptedLogs=recovery/recovery.hpp"
    "BatchStager|Spiller|ChunkPrep=core/stages.hpp"
    "DistributedIndex=core/indexing.hpp"
    "RefineTask=core/framework.hpp"
    "GeometryBatch|BatchSpan=geom/geometry_batch.hpp"
    "ExchangeStats|RoundHeader|ExchangeScratch=core/exchange.hpp"
    "File|IoCounters=io/file.hpp")

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

  # Member citations: the member must still be declared, i.e. appear as
  # `<type> x;`, `<type> x = ...;`, `<type> x{...};` or `<type> x(...)`
  # in the type's header.
  foreach(entry ${CITED_TYPES})
    string(REGEX REPLACE "=.*$" "" types "${entry}")
    string(REGEX REPLACE "^.*=" "" header "${entry}")
    file(READ ${REPO_ROOT}/src/${header} header_text)
    # The leading non-identifier byte keeps `FormatReader` from matching
    # inside another type's name.
    string(REGEX MATCHALL "(^|[^A-Za-z0-9_])(${types})::[A-Za-z_][A-Za-z0-9_]*"
           member_refs "${text}")
    list(REMOVE_DUPLICATES member_refs)
    foreach(ref ${member_refs})
      string(REGEX REPLACE "^[^A-Za-z]+" "" ref "${ref}")
      string(REGEX REPLACE "^.*::" "" member "${ref}")
      if(NOT header_text MATCHES "[A-Za-z0-9_>:*&] ${member}( = [^;]*)?[;{(]")
        list(APPEND MISSING "${doc}: ${ref} (not declared in src/${header})")
      endif()
    endforeach()
  endforeach()
endforeach()

if(MISSING)
  list(JOIN MISSING "\n  " msg)
  message(FATAL_ERROR "stale documentation references:\n  ${msg}")
endif()
message(STATUS "docs_check: all README.md/DESIGN.md file and member references resolve")
