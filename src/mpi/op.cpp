#include "mpi/op.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "util/error.hpp"

namespace mvio::mpi {

Op Op::create(Function fn, bool commutative, std::string name) {
  MVIO_CHECK(fn != nullptr, "op function required");
  Op op;
  auto impl = std::make_shared<Impl>();
  impl->fn = std::move(fn);
  impl->commutative = commutative;
  impl->name = std::move(name);
  op.impl_ = std::move(impl);
  return op;
}

void Op::apply(const void* in, void* inout, int count, const Datatype& type) const {
  MVIO_CHECK(impl_ != nullptr, "op not initialised");
  impl_->fn(in, inout, count, type);
}

bool Op::commutative() const {
  MVIO_CHECK(impl_ != nullptr, "op not initialised");
  return impl_->commutative;
}

const std::string& Op::name() const {
  MVIO_CHECK(impl_ != nullptr, "op not initialised");
  return impl_->name;
}

namespace {

/// Apply `Combine` element-wise for whichever basic type matches the
/// datatype's element size; the datatype must be a built-in or a
/// contiguous assembly of one built-in kind.
template <typename Combine>
void applyBasic(const void* in, void* inout, int count, const Datatype& type, Combine&& combine,
                const char* opName) {
  // Reductions are defined on the *payload*: interpret count*size() bytes
  // as a flat array of the underlying scalar. This matches how the
  // built-ins get used in this codebase (flat INT/DOUBLE buffers).
  MVIO_CHECK(type.isContiguous(), std::string(opName) + " built-in op requires a contiguous datatype");
  const std::uint64_t totalBytes = type.size() * static_cast<std::uint64_t>(count);

  switch (type.scalarKind()) {
    case Datatype::ScalarKind::kFloat64:
      combine(static_cast<const double*>(in), static_cast<double*>(inout), totalBytes / 8);
      return;
    case Datatype::ScalarKind::kUint64:
      combine(static_cast<const std::uint64_t*>(in), static_cast<std::uint64_t*>(inout), totalBytes / 8);
      return;
    case Datatype::ScalarKind::kInt32:
      combine(static_cast<const std::int32_t*>(in), static_cast<std::int32_t*>(inout), totalBytes / 4);
      return;
    case Datatype::ScalarKind::kInt64:
      combine(static_cast<const std::int64_t*>(in), static_cast<std::int64_t*>(inout), totalBytes / 8);
      return;
    case Datatype::ScalarKind::kByte:
    case Datatype::ScalarKind::kChar:
    case Datatype::ScalarKind::kNone:
      break;
  }
  MVIO_CHECK(false, std::string(opName) + ": built-in reductions need a numeric scalar datatype");
}

}  // namespace

Op Op::sum() {
  return create(
      [](const void* in, void* inout, int count, const Datatype& type) {
        applyBasic(in, inout, count, type,
                   [](const auto* a, auto* b, std::uint64_t n) {
                     for (std::uint64_t i = 0; i < n; ++i) b[i] = static_cast<std::decay_t<decltype(b[0])>>(b[i] + a[i]);
                   },
                   "SUM");
      },
      true, "SUM");
}

Op Op::min() {
  return create(
      [](const void* in, void* inout, int count, const Datatype& type) {
        applyBasic(in, inout, count, type,
                   [](const auto* a, auto* b, std::uint64_t n) {
                     for (std::uint64_t i = 0; i < n; ++i) b[i] = std::min(b[i], a[i]);
                   },
                   "MIN");
      },
      true, "MIN");
}

Op Op::max() {
  return create(
      [](const void* in, void* inout, int count, const Datatype& type) {
        applyBasic(in, inout, count, type,
                   [](const auto* a, auto* b, std::uint64_t n) {
                     for (std::uint64_t i = 0; i < n; ++i) b[i] = std::max(b[i], a[i]);
                   },
                   "MAX");
      },
      true, "MAX");
}

}  // namespace mvio::mpi
