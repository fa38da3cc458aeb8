#pragma once
// MPI derived datatypes (typemap model), the abstraction the paper builds
// its spatial datatypes on (MPI_POINT = contiguous doubles, MPI_RECT = 4
// doubles, vertex-indexed polygon layouts via MPI_Type_indexed, custom
// file views, ...).
//
// A Datatype is an immutable value handle over a flattened typemap: a list
// of (byte offset, byte length) blocks relative to the start of one
// element, plus an extent that positions consecutive elements. Flattening
// happens at construction (type commit), and adjacent blocks are coalesced
// — this is what lets contiguous spans degrade to a single memcpy, and
// what the non-contiguous file views hand to the I/O layer.
//
// Constructors mirror the MPI calls used in the paper:
//   contiguous  <- MPI_Type_contiguous
//   vector      <- MPI_Type_vector
//   indexed     <- MPI_Type_indexed      (variable-length polygon layouts)
//   structType  <- MPI_Type_create_struct (MPI_RECT as a C struct)
//   resized     <- MPI_Type_create_resized

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace mvio::mpi {

class Datatype {
 public:
  /// One contiguous piece of an element's typemap.
  struct Block {
    std::int64_t offset;  ///< byte offset from element start (may be negative after resize tricks)
    std::uint64_t length; ///< bytes
  };

  /// Underlying scalar of the typemap, when homogeneous. Built-in
  /// reduction ops dispatch on this; heterogeneous structs report kNone.
  enum class ScalarKind : std::uint8_t { kNone, kByte, kChar, kInt32, kInt64, kUint64, kFloat64 };

  Datatype();  ///< defaults to byte()

  // ---- Built-ins ---------------------------------------------------------
  static Datatype byte();
  static Datatype char_();
  static Datatype int32();
  static Datatype int64();
  static Datatype uint64();
  static Datatype float64();

  // ---- Constructors ------------------------------------------------------
  static Datatype contiguous(int count, const Datatype& base);
  static Datatype vector(int count, int blocklength, int stride, const Datatype& base);
  static Datatype indexed(std::span<const int> blocklengths, std::span<const int> displacements,
                          const Datatype& base);
  /// Heterogeneous struct: per-field block length, byte displacement, type.
  static Datatype structType(std::span<const int> blocklengths,
                             std::span<const std::int64_t> byteDisplacements,
                             std::span<const Datatype> types);
  /// Same typemap, new extent (element stride).
  [[nodiscard]] Datatype resized(std::int64_t lowerBound, std::uint64_t extent) const;

  // ---- Introspection -----------------------------------------------------
  /// Payload bytes per element (sum of block lengths).
  [[nodiscard]] std::uint64_t size() const;
  /// Stride between consecutive elements.
  [[nodiscard]] std::uint64_t extent() const;
  [[nodiscard]] std::int64_t lowerBound() const;
  /// Flattened, offset-sorted, coalesced blocks of one element.
  [[nodiscard]] const std::vector<Block>& blocks() const;
  /// True when one element is a single block starting at offset 0 whose
  /// length equals the extent (enables raw-memcpy fast paths).
  [[nodiscard]] bool isContiguous() const;
  /// Human-readable description for diagnostics.
  [[nodiscard]] std::string describe() const;
  /// Homogeneous scalar kind (kNone for mixed structs).
  [[nodiscard]] ScalarKind scalarKind() const;

  // ---- Pack / unpack -----------------------------------------------------
  /// Append the payload of `count` elements at `src` to `out`.
  void pack(const void* src, int count, std::string& out) const;
  /// Scatter `count` elements of payload from `src` (contiguous) into the
  /// typemap layout at `dst`. `srcBytes` must equal count*size().
  void unpack(const char* src, std::size_t srcBytes, void* dst, int count) const;

  friend bool operator==(const Datatype& a, const Datatype& b) { return a.impl_ == b.impl_; }

 private:
  struct Impl;
  explicit Datatype(std::shared_ptr<const Impl> impl);
  std::shared_ptr<const Impl> impl_;
};

}  // namespace mvio::mpi
