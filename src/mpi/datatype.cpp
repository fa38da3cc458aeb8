#include "mpi/datatype.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "util/error.hpp"

namespace mvio::mpi {

namespace {

/// Sort blocks by offset and merge adjacent ones (type commit).
std::vector<Datatype::Block> normalize(std::vector<Datatype::Block> blocks) {
  std::sort(blocks.begin(), blocks.end(),
            [](const Datatype::Block& a, const Datatype::Block& b) { return a.offset < b.offset; });
  std::vector<Datatype::Block> out;
  for (const auto& b : blocks) {
    if (b.length == 0) continue;
    if (!out.empty() && out.back().offset + static_cast<std::int64_t>(out.back().length) == b.offset) {
      out.back().length += b.length;
    } else {
      out.push_back(b);
    }
  }
  return out;
}

}  // namespace

struct Datatype::Impl {
  std::vector<Block> blocks;  // offset-sorted, coalesced
  std::int64_t lb = 0;
  std::uint64_t extent = 0;
  std::uint64_t size = 0;
  std::string name;
  ScalarKind kind = ScalarKind::kNone;

  static std::shared_ptr<const Impl> make(std::vector<Block> blocks, std::int64_t lb, std::uint64_t extent,
                                          std::string name, ScalarKind kind) {
    auto impl = std::make_shared<Impl>();
    impl->blocks = normalize(std::move(blocks));
    impl->lb = lb;
    impl->extent = extent;
    impl->size = 0;
    for (const auto& b : impl->blocks) impl->size += b.length;
    impl->name = std::move(name);
    impl->kind = kind;
    return impl;
  }

  static std::shared_ptr<const Impl> builtin(std::uint64_t bytes, const char* name, ScalarKind kind) {
    return make({{0, bytes}}, 0, bytes, name, kind);
  }
};

Datatype::Datatype(std::shared_ptr<const Impl> impl) : impl_(std::move(impl)) {}

Datatype::Datatype() : impl_(Impl::builtin(1, "BYTE", ScalarKind::kByte)) {}

Datatype Datatype::byte() { return Datatype(Impl::builtin(1, "BYTE", ScalarKind::kByte)); }
Datatype Datatype::char_() { return Datatype(Impl::builtin(1, "CHAR", ScalarKind::kChar)); }
Datatype Datatype::int32() { return Datatype(Impl::builtin(4, "INT32", ScalarKind::kInt32)); }
Datatype Datatype::int64() { return Datatype(Impl::builtin(8, "INT64", ScalarKind::kInt64)); }
Datatype Datatype::uint64() { return Datatype(Impl::builtin(8, "UINT64", ScalarKind::kUint64)); }
Datatype Datatype::float64() { return Datatype(Impl::builtin(8, "FLOAT64", ScalarKind::kFloat64)); }

Datatype Datatype::contiguous(int count, const Datatype& base) {
  MVIO_CHECK(count >= 0, "contiguous count must be >= 0");
  std::vector<Block> blocks;
  const auto& bb = base.blocks();
  const auto ext = static_cast<std::int64_t>(base.extent());
  blocks.reserve(bb.size() * static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    for (const auto& b : bb) blocks.push_back({b.offset + i * ext, b.length});
  }
  return Datatype(Impl::make(std::move(blocks), base.lowerBound(),
                             base.extent() * static_cast<std::uint64_t>(count),
                             "CONTIG(" + std::to_string(count) + "," + base.describe() + ")",
                             base.scalarKind()));
}

Datatype Datatype::vector(int count, int blocklength, int stride, const Datatype& base) {
  MVIO_CHECK(count >= 0 && blocklength >= 0, "vector count/blocklength must be >= 0");
  std::vector<Block> blocks;
  const auto& bb = base.blocks();
  const auto ext = static_cast<std::int64_t>(base.extent());
  for (int i = 0; i < count; ++i) {
    const std::int64_t rowStart = static_cast<std::int64_t>(i) * stride * ext;
    for (int j = 0; j < blocklength; ++j) {
      for (const auto& b : bb) blocks.push_back({rowStart + j * ext + b.offset, b.length});
    }
  }
  // MPI extent of a vector spans from the first to one past the last element.
  const std::int64_t span =
      count > 0 ? (static_cast<std::int64_t>(count - 1) * stride + blocklength) * ext : 0;
  return Datatype(Impl::make(std::move(blocks), 0,
                             static_cast<std::uint64_t>(std::max<std::int64_t>(span, 0)),
                             "VECTOR(" + std::to_string(count) + "," + std::to_string(blocklength) + "," +
                                 std::to_string(stride) + ")",
                             base.scalarKind()));
}

Datatype Datatype::indexed(std::span<const int> blocklengths, std::span<const int> displacements,
                           const Datatype& base) {
  MVIO_CHECK(blocklengths.size() == displacements.size(), "indexed arrays must have equal length");
  std::vector<Block> blocks;
  const auto& bb = base.blocks();
  const auto ext = static_cast<std::int64_t>(base.extent());
  std::int64_t maxEnd = 0;
  for (std::size_t i = 0; i < blocklengths.size(); ++i) {
    MVIO_CHECK(blocklengths[i] >= 0, "indexed blocklength must be >= 0");
    for (int j = 0; j < blocklengths[i]; ++j) {
      const std::int64_t at = (static_cast<std::int64_t>(displacements[i]) + j) * ext;
      for (const auto& b : bb) blocks.push_back({at + b.offset, b.length});
      maxEnd = std::max(maxEnd, at + ext);
    }
  }
  return Datatype(Impl::make(std::move(blocks), 0, static_cast<std::uint64_t>(maxEnd),
                             "INDEXED(" + std::to_string(blocklengths.size()) + " blocks)",
                             base.scalarKind()));
}

Datatype Datatype::structType(std::span<const int> blocklengths,
                              std::span<const std::int64_t> byteDisplacements,
                              std::span<const Datatype> types) {
  MVIO_CHECK(blocklengths.size() == byteDisplacements.size() && blocklengths.size() == types.size(),
             "struct arrays must have equal length");
  std::vector<Block> blocks;
  std::int64_t maxEnd = 0;
  for (std::size_t i = 0; i < blocklengths.size(); ++i) {
    MVIO_CHECK(blocklengths[i] >= 0, "struct blocklength must be >= 0");
    const auto ext = static_cast<std::int64_t>(types[i].extent());
    for (int j = 0; j < blocklengths[i]; ++j) {
      const std::int64_t at = byteDisplacements[i] + j * ext;
      for (const auto& b : types[i].blocks()) blocks.push_back({at + b.offset, b.length});
      maxEnd = std::max(maxEnd, at + ext);
    }
  }
  ScalarKind kind = types.empty() ? ScalarKind::kNone : types[0].scalarKind();
  for (const auto& t : types) {
    if (t.scalarKind() != kind) kind = ScalarKind::kNone;
  }
  return Datatype(Impl::make(std::move(blocks), 0, static_cast<std::uint64_t>(maxEnd),
                             "STRUCT(" + std::to_string(blocklengths.size()) + " fields)", kind));
}

Datatype Datatype::resized(std::int64_t lowerBound, std::uint64_t extent) const {
  return Datatype(Impl::make(impl_->blocks, lowerBound, extent, impl_->name + "+RESIZED", impl_->kind));
}

std::uint64_t Datatype::size() const { return impl_->size; }
std::uint64_t Datatype::extent() const { return impl_->extent; }
std::int64_t Datatype::lowerBound() const { return impl_->lb; }
const std::vector<Datatype::Block>& Datatype::blocks() const { return impl_->blocks; }

bool Datatype::isContiguous() const {
  return impl_->blocks.size() == 1 && impl_->blocks[0].offset == 0 &&
         impl_->blocks[0].length == impl_->extent;
}

std::string Datatype::describe() const { return impl_->name; }

Datatype::ScalarKind Datatype::scalarKind() const { return impl_->kind; }

void Datatype::pack(const void* src, int count, std::string& out) const {
  MVIO_CHECK(count >= 0, "pack count must be >= 0");
  const char* base = static_cast<const char*>(src);
  const auto ext = static_cast<std::int64_t>(impl_->extent);
  if (isContiguous()) {
    out.append(base, static_cast<std::size_t>(ext) * static_cast<std::size_t>(count));
    return;
  }
  out.reserve(out.size() + impl_->size * static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const char* elem = base + i * ext;
    for (const auto& b : impl_->blocks) out.append(elem + b.offset, b.length);
  }
}

void Datatype::unpack(const char* src, std::size_t srcBytes, void* dst, int count) const {
  MVIO_CHECK(count >= 0, "unpack count must be >= 0");
  MVIO_CHECK(srcBytes == impl_->size * static_cast<std::uint64_t>(count),
             "unpack: payload size does not match count*size()");
  char* base = static_cast<char*>(dst);
  const auto ext = static_cast<std::int64_t>(impl_->extent);
  if (isContiguous()) {
    std::memcpy(base, src, srcBytes);
    return;
  }
  for (int i = 0; i < count; ++i) {
    char* elem = base + i * ext;
    for (const auto& b : impl_->blocks) {
      std::memcpy(elem + b.offset, src, b.length);
      src += b.length;
    }
  }
}

}  // namespace mvio::mpi
