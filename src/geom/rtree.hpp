#pragma once
// R-tree spatial index over (Envelope, id) entries — the filter-phase index
// GEOS provides in the paper's pipeline. Built by Sort-Tile-Recursive
// packing (bulkLoad) over an entry set known up front: the grid-cell
// boundary index and the per-cell join and distributed-index trees.
// Consumers whose entry set grows (DistributedIndex adopting a streamed
// cell's records) re-bulk-load.
//
// Queries report ids of entries whose rectangle intersects the query
// rectangle; exact geometry tests happen in the caller's refine step.

#include <cstdint>
#include <functional>
#include <vector>

#include "geom/envelope.hpp"

namespace mvio::geom {

class BatchSpan;

class RTree {
 public:
  struct Entry {
    Envelope box;
    std::uint64_t id = 0;
  };

  /// `maxEntries` is the node fan-out M.
  explicit RTree(std::size_t maxEntries = 16);

  /// Build by STR packing; replaces any existing content.
  void bulkLoad(std::vector<Entry> entries);

  /// Build directly from a cell's batch records: entry `k` carries the
  /// k-th record's arena-resident MBR, so the filter index never touches
  /// materialized geometries. Query callbacks receive span positions
  /// (0..span.size()-1), not underlying batch record ids.
  void bulkLoad(const BatchSpan& span);

  /// Invoke `fn(id)` for every entry whose box intersects `query`.
  void query(const Envelope& query, const std::function<void(std::uint64_t)>& fn) const;

  /// Allocation-free form of query() for refine hot paths: no
  /// std::function wrapper and no heap node stack (recursion depth is the
  /// tree height). `fn` is any callable taking a std::uint64_t id.
  template <typename Fn>
  void visit(const Envelope& query, Fn&& fn) const {
    if (root_ < 0 || query.isNull()) return;
    visitNode(root_, query, fn);
  }

  /// Convenience: collect matching ids (unordered).
  [[nodiscard]] std::vector<std::uint64_t> search(const Envelope& query) const;

  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  /// Height of the tree (0 when empty, 1 for a single leaf).
  [[nodiscard]] std::size_t height() const;
  /// Bounding box of everything in the index.
  [[nodiscard]] Envelope bounds() const;

 private:
  struct Node {
    bool leaf = true;
    Envelope box;
    std::vector<Entry> entries;        // leaf payload
    std::vector<std::int32_t> children;  // internal children (indices into nodes_)
  };

  template <typename Fn>
  void visitNode(std::int32_t n, const Envelope& query, Fn& fn) const {
    const Node& node = nodes_[static_cast<std::size_t>(n)];
    if (!node.box.intersects(query)) return;
    if (node.leaf) {
      for (const auto& e : node.entries) {
        if (e.box.intersects(query)) fn(e.id);
      }
    } else {
      for (const auto c : node.children) visitNode(c, query, fn);
    }
  }

  std::vector<Node> nodes_;
  std::int32_t root_ = -1;
  std::size_t maxEntries_;
  std::size_t count_ = 0;

  std::int32_t newNode(bool leaf);
  void recomputeBox(std::int32_t n);
  std::int32_t buildStr(std::vector<Entry>& entries, std::size_t lo, std::size_t hi, int level);
};

}  // namespace mvio::geom
