#pragma once
// Axis-aligned bounding rectangle (minimum bounding rectangle, MBR).
// This is the workhorse of the filter phase: every filter-and-refine step
// in the paper tests rectangle overlap before touching real geometry.
// An Envelope is also the value carried by the MPI_RECT spatial datatype.

#include <algorithm>
#include <limits>

#include "geom/coord.hpp"

namespace mvio::geom {

class Envelope {
 public:
  /// Constructs a "null" (empty) envelope that contains nothing and unions
  /// as the identity element — exactly what MPI_UNION reductions need.
  Envelope() = default;

  Envelope(double minX, double minY, double maxX, double maxY)
      : minX_(std::min(minX, maxX)),
        minY_(std::min(minY, maxY)),
        maxX_(std::max(minX, maxX)),
        maxY_(std::max(minY, maxY)) {}

  [[nodiscard]] bool isNull() const { return minX_ > maxX_; }

  [[nodiscard]] double minX() const { return minX_; }
  [[nodiscard]] double minY() const { return minY_; }
  [[nodiscard]] double maxX() const { return maxX_; }
  [[nodiscard]] double maxY() const { return maxY_; }
  [[nodiscard]] double width() const { return isNull() ? 0.0 : maxX_ - minX_; }
  [[nodiscard]] double height() const { return isNull() ? 0.0 : maxY_ - minY_; }
  [[nodiscard]] double area() const { return width() * height(); }
  [[nodiscard]] Coord center() const { return {(minX_ + maxX_) / 2, (minY_ + maxY_) / 2}; }

  /// Grow to cover `c`.
  void expandToInclude(const Coord& c) {
    if (isNull()) {
      minX_ = maxX_ = c.x;
      minY_ = maxY_ = c.y;
      return;
    }
    minX_ = std::min(minX_, c.x);
    minY_ = std::min(minY_, c.y);
    maxX_ = std::max(maxX_, c.x);
    maxY_ = std::max(maxY_, c.y);
  }

  /// Grow to cover every coordinate of [first, last): bit-identical to one
  /// expandToInclude(c) per coordinate in order. Once an envelope is not
  /// null it never becomes null again, so the null check runs only once.
  void expandToInclude(const Coord* first, const Coord* last) {
    if (first != last && isNull()) expandToInclude(*first++);
    for (; first != last; ++first) {
      minX_ = std::min(minX_, first->x);
      minY_ = std::min(minY_, first->y);
      maxX_ = std::max(maxX_, first->x);
      maxY_ = std::max(maxY_, first->y);
    }
  }

  /// Grow to cover `other` (geometric union of rectangles — the MPI_UNION op).
  void expandToInclude(const Envelope& other) {
    if (other.isNull()) return;
    expandToInclude(Coord{other.minX_, other.minY_});
    expandToInclude(Coord{other.maxX_, other.maxY_});
  }

  /// Grow by a margin on every side.
  void expandBy(double margin) {
    if (isNull()) return;
    minX_ -= margin;
    minY_ -= margin;
    maxX_ += margin;
    maxY_ += margin;
  }

  [[nodiscard]] bool intersects(const Envelope& o) const {
    if (isNull() || o.isNull()) return false;
    return !(o.minX_ > maxX_ || o.maxX_ < minX_ || o.minY_ > maxY_ || o.maxY_ < minY_);
  }

  [[nodiscard]] bool contains(const Coord& c) const {
    return !isNull() && c.x >= minX_ && c.x <= maxX_ && c.y >= minY_ && c.y <= maxY_;
  }

  [[nodiscard]] bool contains(const Envelope& o) const {
    if (isNull() || o.isNull()) return false;
    return o.minX_ >= minX_ && o.maxX_ <= maxX_ && o.minY_ >= minY_ && o.maxY_ <= maxY_;
  }

  /// Rectangle intersection; null if disjoint.
  [[nodiscard]] Envelope intersection(const Envelope& o) const {
    if (!intersects(o)) return Envelope();
    return Envelope(std::max(minX_, o.minX_), std::max(minY_, o.minY_), std::min(maxX_, o.maxX_),
                    std::min(maxY_, o.maxY_));
  }

  friend bool operator==(const Envelope& a, const Envelope& b) {
    if (a.isNull() && b.isNull()) return true;
    return a.minX_ == b.minX_ && a.minY_ == b.minY_ && a.maxX_ == b.maxX_ && a.maxY_ == b.maxY_;
  }
  friend bool operator!=(const Envelope& a, const Envelope& b) { return !(a == b); }

 private:
  double minX_ = std::numeric_limits<double>::max();
  double minY_ = std::numeric_limits<double>::max();
  double maxX_ = std::numeric_limits<double>::lowest();
  double maxY_ = std::numeric_limits<double>::lowest();
};

/// Geometric union of two rectangles (the associative MPI_UNION operator).
inline Envelope unionOf(const Envelope& a, const Envelope& b) {
  Envelope e = a;
  e.expandToInclude(b);
  return e;
}

}  // namespace mvio::geom
