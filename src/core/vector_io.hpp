#pragma once
// Umbrella header: the public API of MPI-Vector-IO.
//
// Typical use:
//
//   mvio::mpi::Runtime::run(nprocs, machine, [&](mvio::mpi::Comm& comm) {
//     auto file = mvio::io::File::open(comm, volume, "lakes.wkt");
//     auto part = mvio::core::readPartitioned(comm, file, {});
//     const mvio::core::WktParser parser;  // a FormatReader, as is "wkb"
//     mvio::geom::GeometryBatch batch;
//     parser.parseChunk(part.text, batch, /*pool=*/nullptr);
//     ...
//   });
//
// examples/quickstart.cpp does the same with Parser::parseAll's
// per-Geometry sink instead of the batch.
//
// Layering (bottom to top):
//   geom  — geometry engine (WKT/WKB, predicates, R-tree/quadtree)
//   sim   — virtual clocks + machine models
//   pfs   — simulated parallel filesystems (Lustre/GPFS)
//   mpi   — MPI-subset runtime (threads as ranks)
//   io    — MPI-IO file layer (Levels 0/1/3, two-phase collective I/O)
//   core  — this library: partitioning, spatial MPI types, grid exchange,
//           filter-refine framework, join / indexing / range query

#include "core/exchange.hpp"
#include "core/file_partition.hpp"
#include "core/framework.hpp"
#include "core/grid.hpp"
#include "core/indexing.hpp"
#include "core/overlay.hpp"
#include "core/parser.hpp"
#include "core/phases.hpp"
#include "core/range_query.hpp"
#include "core/spatial_join.hpp"
#include "core/spatial_types.hpp"
#include "geom/batch_shard.hpp"
#include "geom/geometry_batch.hpp"
#include "geom/wkt.hpp"
#include "io/file.hpp"
#include "mpi/runtime.hpp"
#include "pfs/gpfs.hpp"
#include "pfs/lustre.hpp"
#include "pfs/spill_store.hpp"
#include "pfs/volume.hpp"
