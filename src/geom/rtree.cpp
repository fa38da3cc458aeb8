#include "geom/rtree.hpp"

#include <algorithm>
#include <cmath>

#include "geom/geometry_batch.hpp"
#include "util/error.hpp"

namespace mvio::geom {

RTree::RTree(std::size_t maxEntries) : maxEntries_(maxEntries) {
  MVIO_CHECK(maxEntries_ >= 4, "R-tree fan-out must be >= 4");
}

std::int32_t RTree::newNode(bool leaf) {
  nodes_.push_back(Node{});
  nodes_.back().leaf = leaf;
  return static_cast<std::int32_t>(nodes_.size() - 1);
}

void RTree::recomputeBox(std::int32_t n) {
  Node& node = nodes_[static_cast<std::size_t>(n)];
  Envelope box;
  if (node.leaf) {
    for (const auto& e : node.entries) box.expandToInclude(e.box);
  } else {
    for (auto c : node.children) box.expandToInclude(nodes_[static_cast<std::size_t>(c)].box);
  }
  node.box = box;
}

// ---- STR bulk load -------------------------------------------------------

std::int32_t RTree::buildStr(std::vector<Entry>& entries, std::size_t lo, std::size_t hi, int level) {
  const std::size_t n = hi - lo;
  if (n <= maxEntries_ && level == 0) {
    const std::int32_t leaf = newNode(true);
    nodes_[static_cast<std::size_t>(leaf)].entries.assign(entries.begin() + static_cast<std::ptrdiff_t>(lo),
                                                          entries.begin() + static_cast<std::ptrdiff_t>(hi));
    recomputeBox(leaf);
    return leaf;
  }

  // Number of leaves needed and the S x S tile layout (STR).
  const auto leaves = static_cast<std::size_t>(
      std::ceil(static_cast<double>(n) / static_cast<double>(maxEntries_)));
  const auto slices = static_cast<std::size_t>(std::ceil(std::sqrt(static_cast<double>(leaves))));
  const std::size_t sliceCap = slices * maxEntries_;

  std::sort(entries.begin() + static_cast<std::ptrdiff_t>(lo), entries.begin() + static_cast<std::ptrdiff_t>(hi),
            [](const Entry& a, const Entry& b) { return a.box.center().x < b.box.center().x; });

  std::vector<std::int32_t> children;
  for (std::size_t s = lo; s < hi; s += sliceCap) {
    const std::size_t sEnd = std::min(s + sliceCap, hi);
    std::sort(entries.begin() + static_cast<std::ptrdiff_t>(s), entries.begin() + static_cast<std::ptrdiff_t>(sEnd),
              [](const Entry& a, const Entry& b) { return a.box.center().y < b.box.center().y; });
    for (std::size_t t = s; t < sEnd; t += maxEntries_) {
      const std::size_t tEnd = std::min(t + maxEntries_, sEnd);
      const std::int32_t leaf = newNode(true);
      nodes_[static_cast<std::size_t>(leaf)].entries.assign(
          entries.begin() + static_cast<std::ptrdiff_t>(t), entries.begin() + static_cast<std::ptrdiff_t>(tEnd));
      recomputeBox(leaf);
      children.push_back(leaf);
    }
  }

  // Pack upper levels of the tree the same way until a single root remains.
  while (children.size() > 1) {
    std::vector<std::int32_t> parents;
    for (std::size_t i = 0; i < children.size(); i += maxEntries_) {
      const std::size_t iEnd = std::min(i + maxEntries_, children.size());
      const std::int32_t parent = newNode(false);
      nodes_[static_cast<std::size_t>(parent)].children.assign(children.begin() + static_cast<std::ptrdiff_t>(i),
                                                               children.begin() + static_cast<std::ptrdiff_t>(iEnd));
      recomputeBox(parent);
      parents.push_back(parent);
    }
    children = std::move(parents);
  }
  return children.front();
}

void RTree::bulkLoad(std::vector<Entry> entries) {
  nodes_.clear();
  root_ = -1;
  count_ = entries.size();
  if (entries.empty()) return;
  root_ = buildStr(entries, 0, entries.size(), entries.size() <= maxEntries_ ? 0 : 1);
}

void RTree::bulkLoad(const BatchSpan& span) {
  std::vector<Entry> entries;
  entries.reserve(span.size());
  for (std::size_t k = 0; k < span.size(); ++k) {
    entries.push_back({span.envelope(k), static_cast<std::uint64_t>(k)});
  }
  bulkLoad(std::move(entries));
}

// ---- Query ---------------------------------------------------------------

void RTree::query(const Envelope& queryBox, const std::function<void(std::uint64_t)>& fn) const {
  visit(queryBox, [&fn](std::uint64_t id) { fn(id); });
}

std::vector<std::uint64_t> RTree::search(const Envelope& queryBox) const {
  std::vector<std::uint64_t> out;
  query(queryBox, [&](std::uint64_t id) { out.push_back(id); });
  return out;
}

std::size_t RTree::height() const {
  if (root_ < 0) return 0;
  std::size_t h = 1;
  std::int32_t n = root_;
  while (!nodes_[static_cast<std::size_t>(n)].leaf) {
    n = nodes_[static_cast<std::size_t>(n)].children.front();
    ++h;
  }
  return h;
}

Envelope RTree::bounds() const {
  if (root_ < 0) return Envelope();
  return nodes_[static_cast<std::size_t>(root_)].box;
}

}  // namespace mvio::geom
