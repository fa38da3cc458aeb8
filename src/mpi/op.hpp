#pragma once
// Reduction operators. MPI's built-in MIN/MAX/SUM work on the basic
// datatypes; the paper's contribution is that *user-defined* operators
// created with MPI_Op_create extend reductions to spatial types
// (MPI_UNION over MBRs, MIN/MAX by geometric size) — see
// src/core/spatial_types.hpp for those definitions. An Op combines
// `count` elements of `in` into `inout` in place, and must be
// associative (commutativity is advisory, as in MPI).

#include <functional>
#include <memory>
#include <string>

#include "mpi/datatype.hpp"

namespace mvio::mpi {

class Op {
 public:
  /// in/inout point at `count` elements laid out with the datatype's
  /// extent; the function must compute inout[i] = op(in[i], inout[i]).
  using Function = std::function<void(const void* in, void* inout, int count, const Datatype& type)>;

  Op() = default;

  /// MPI_Op_create equivalent.
  static Op create(Function fn, bool commutative, std::string name = "user");

  /// Built-ins; defined for INT32/INT64/UINT64/FLOAT64.
  static Op sum();
  static Op min();
  static Op max();

  void apply(const void* in, void* inout, int count, const Datatype& type) const;
  [[nodiscard]] bool commutative() const;
  [[nodiscard]] const std::string& name() const;
  [[nodiscard]] bool valid() const { return impl_ != nullptr; }

 private:
  struct Impl {
    Function fn;
    bool commutative = true;
    std::string name;
  };
  std::shared_ptr<const Impl> impl_;
};

}  // namespace mvio::mpi
