// Unit + property tests for the geometry engine: envelopes, measures,
// and exact predicates (validated against brute-force formulations).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "geom/geometry.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mg = mvio::geom;

namespace {

mg::Geometry unitSquare(double x0 = 0, double y0 = 0, double side = 1) {
  return mg::Geometry::box(mg::Envelope(x0, y0, x0 + side, y0 + side));
}

mg::Geometry randomStarPolygon(mvio::util::Rng& rng, double cx, double cy, double r, int n) {
  mg::Ring ring;
  for (int k = 0; k < n; ++k) {
    const double theta = 2 * M_PI * (k + 0.7 * rng.uniform()) / n;
    const double rr = r * (0.5 + 0.5 * rng.uniform());
    ring.coords.push_back({cx + rr * std::cos(theta), cy + rr * std::sin(theta)});
  }
  ring.coords.push_back(ring.coords.front());
  return mg::Geometry::polygon({ring});
}

}  // namespace

// ---- Envelope --------------------------------------------------------------

TEST(Envelope, NullBehaviour) {
  mg::Envelope e;
  EXPECT_TRUE(e.isNull());
  EXPECT_EQ(e.area(), 0.0);
  EXPECT_FALSE(e.intersects(mg::Envelope(0, 0, 1, 1)));
  e.expandToInclude(mg::Coord{2, 3});
  EXPECT_FALSE(e.isNull());
  EXPECT_EQ(e.minX(), 2);
  EXPECT_EQ(e.maxY(), 3);
}

TEST(Envelope, UnionIsCommutativeAssociative) {
  const mg::Envelope a(0, 0, 1, 1), b(2, -1, 3, 0.5), c(-5, 4, -4, 6);
  EXPECT_EQ(unionOf(a, b), unionOf(b, a));
  EXPECT_EQ(unionOf(unionOf(a, b), c), unionOf(a, unionOf(b, c)));
  // Null is the identity.
  EXPECT_EQ(unionOf(a, mg::Envelope()), a);
}

TEST(Envelope, IntersectsAndContains) {
  const mg::Envelope a(0, 0, 10, 10);
  EXPECT_TRUE(a.intersects(mg::Envelope(9, 9, 12, 12)));
  EXPECT_TRUE(a.intersects(mg::Envelope(10, 0, 12, 5)));  // touching edge counts
  EXPECT_FALSE(a.intersects(mg::Envelope(10.01, 0, 12, 5)));
  EXPECT_TRUE(a.contains(mg::Envelope(1, 1, 2, 2)));
  EXPECT_FALSE(a.contains(mg::Envelope(1, 1, 11, 2)));
  EXPECT_TRUE(a.contains(mg::Coord{0, 0}));
}

TEST(Envelope, IntersectionComputesOverlap) {
  const mg::Envelope a(0, 0, 10, 10), b(5, 5, 15, 15);
  const mg::Envelope i = a.intersection(b);
  EXPECT_EQ(i, mg::Envelope(5, 5, 10, 10));
  EXPECT_TRUE(a.intersection(mg::Envelope(20, 20, 30, 30)).isNull());
}

// ---- Geometry basics ---------------------------------------------------------

TEST(Geometry, FactoriesValidate) {
  EXPECT_THROW(mg::Geometry::lineString({{0, 0}}), mvio::util::Error);
  mg::Ring open;
  open.coords = {{0, 0}, {1, 0}, {1, 1}, {0, 1}};  // not closed
  EXPECT_THROW(mg::Geometry::polygon({open}), mvio::util::Error);
  mg::Ring tiny;
  tiny.coords = {{0, 0}, {1, 0}, {0, 0}};  // too few
  EXPECT_THROW(mg::Geometry::polygon({tiny}), mvio::util::Error);
}

TEST(Geometry, AreaOfSquareAndHole) {
  const auto square = unitSquare(0, 0, 4);
  EXPECT_DOUBLE_EQ(mg::area(square), 16.0);

  mg::Ring shell;
  shell.coords = {{0, 0}, {4, 0}, {4, 4}, {0, 4}, {0, 0}};
  mg::Ring hole;
  hole.coords = {{1, 1}, {2, 1}, {2, 2}, {1, 2}, {1, 1}};
  const auto withHole = mg::Geometry::polygon({shell, hole});
  EXPECT_DOUBLE_EQ(mg::area(withHole), 15.0);
}

TEST(Geometry, LengthAndCentroid) {
  const auto line = mg::Geometry::lineString({{0, 0}, {3, 0}, {3, 4}});
  EXPECT_DOUBLE_EQ(mg::length(line), 7.0);
  const auto c = mg::centroid(mg::Geometry::lineString({{0, 0}, {2, 0}}));
  EXPECT_DOUBLE_EQ(c.x, 1.0);
  EXPECT_DOUBLE_EQ(c.y, 0.0);
}

TEST(Geometry, EnvelopeCachingAndMulti) {
  const auto a = unitSquare(0, 0);
  const auto b = unitSquare(5, 5);
  const auto multi = mg::Geometry::multi(mg::GeometryType::kMultiPolygon, {a, b});
  EXPECT_EQ(multi.envelope(), mg::Envelope(0, 0, 6, 6));
  EXPECT_EQ(multi.numVertices(), 10u);
  EXPECT_DOUBLE_EQ(mg::area(multi), 2.0);
}

TEST(Geometry, MultiTypeValidation) {
  EXPECT_THROW(
      mg::Geometry::multi(mg::GeometryType::kMultiPoint, {unitSquare()}),
      mvio::util::Error);
  EXPECT_NO_THROW(mg::Geometry::multi(mg::GeometryType::kGeometryCollection,
                                      {unitSquare(), mg::Geometry::point({1, 2})}));
}

// ---- Segment predicates -----------------------------------------------------

TEST(Segments, ProperAndImproperIntersections) {
  EXPECT_TRUE(mg::segmentsIntersect({0, 0}, {2, 2}, {0, 2}, {2, 0}));   // X crossing
  EXPECT_TRUE(mg::segmentsIntersect({0, 0}, {2, 0}, {1, 0}, {3, 0}));   // collinear overlap
  EXPECT_TRUE(mg::segmentsIntersect({0, 0}, {2, 0}, {2, 0}, {3, 1}));   // endpoint touch
  EXPECT_FALSE(mg::segmentsIntersect({0, 0}, {1, 0}, {2, 0}, {3, 0}));  // collinear disjoint
  EXPECT_FALSE(mg::segmentsIntersect({0, 0}, {1, 1}, {2, 0}, {3, 1}));  // parallel
  // Near-collinear with disjoint x-ranges: the rounded orientation signs
  // are -,+,+,- (a "proper crossing"), the exact ones -,+,-,-.
  EXPECT_FALSE(mg::segmentsIntersect({0.90244863541763531, 3.20172201094694},
                                     {7.6166843336871004, 1.8592339040162413},
                                     {11.056525642398086, 1.1714495821367363},
                                     {22.89100746880715, -1.1948139536721964}));
}

namespace {

bool segmentBoxesOverlap(const mg::Coord& a, const mg::Coord& b, const mg::Coord& c, const mg::Coord& d) {
  return mg::Envelope(a.x, a.y, b.x, b.y).intersects(mg::Envelope(c.x, c.y, d.x, d.y));
}

}  // namespace

TEST(Segments, NearCollinearHitsHaveOverlappingBoxes) {
  // Four points rounded off one random line, the two segments separated
  // or overlapping along it: orientation signs are rounding noise here,
  // yet a reported intersection must lie inside both segments' boxes.
  mvio::util::Rng rng(7);
  constexpr int kProbes = 2'000'000;
  int hits = 0;
  int badHits = 0;
  for (int i = 0; i < kProbes; ++i) {
    const mg::Coord p{rng.uniform(-20, 20), rng.uniform(-20, 20)};
    const double angle = rng.uniform(0, 6.283185307179586);
    const mg::Coord dir{std::cos(angle), std::sin(angle)};
    double t[4];
    for (double& v : t) v = rng.uniform(-30, 30);
    std::sort(t, t + 4);
    if (rng.below(2)) std::swap(t[1], t[2]);  // overlapping along the line
    const auto at = [&](double s) { return mg::Coord{p.x + s * dir.x, p.y + s * dir.y}; };
    const mg::Coord a = at(t[0]), b = at(t[1]), c = at(t[2]), d = at(t[3]);
    if (!mg::segmentsIntersect(a, b, c, d)) continue;
    ++hits;
    if (!segmentBoxesOverlap(a, b, c, d) && ++badHits <= 5) {
      ADD_FAILURE() << "hit with disjoint boxes at probe " << i;
    }
  }
  EXPECT_GT(hits, 0);
  EXPECT_EQ(badHits, 0) << "of " << hits << " hits";
}

TEST(Segments, Distances) {
  EXPECT_DOUBLE_EQ(mg::pointSegmentDistance({0, 1}, {-1, 0}, {1, 0}), 1.0);
  EXPECT_DOUBLE_EQ(mg::pointSegmentDistance({5, 0}, {-1, 0}, {1, 0}), 4.0);
  EXPECT_DOUBLE_EQ(mg::segmentSegmentDistance({0, 0}, {1, 0}, {0, 2}, {1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(mg::segmentSegmentDistance({0, 0}, {2, 2}, {0, 2}, {2, 0}), 0.0);
}

TEST(PointInRing, BoundaryCountsInside) {
  const std::vector<mg::Coord> ring = {{0, 0}, {4, 0}, {4, 4}, {0, 4}, {0, 0}};
  EXPECT_TRUE(mg::pointInRing({2, 2}, ring));
  EXPECT_TRUE(mg::pointInRing({0, 2}, ring));  // edge
  EXPECT_TRUE(mg::pointInRing({0, 0}, ring));  // vertex
  EXPECT_FALSE(mg::pointInRing({5, 2}, ring));
  EXPECT_FALSE(mg::pointInRing({-0.001, 2}, ring));
}

// ---- Geometry predicates ------------------------------------------------------

TEST(Intersects, PolygonPolygonCases) {
  const auto a = unitSquare(0, 0, 4);
  EXPECT_TRUE(mg::intersects(a, unitSquare(2, 2, 4)));   // overlap
  EXPECT_TRUE(mg::intersects(a, unitSquare(4, 0, 2)));   // edge touch
  EXPECT_TRUE(mg::intersects(a, unitSquare(1, 1, 2)));   // containment
  EXPECT_TRUE(mg::intersects(unitSquare(1, 1, 2), a));   // containment reversed
  EXPECT_FALSE(mg::intersects(a, unitSquare(10, 10, 1)));
}

TEST(Intersects, PolygonWithHole) {
  mg::Ring shell;
  shell.coords = {{0, 0}, {10, 0}, {10, 10}, {0, 10}, {0, 0}};
  mg::Ring hole;
  hole.coords = {{4, 4}, {6, 4}, {6, 6}, {4, 6}, {4, 4}};
  const auto donut = mg::Geometry::polygon({shell, hole});
  EXPECT_FALSE(mg::intersects(donut, mg::Geometry::point({5, 5})));  // inside the hole
  EXPECT_TRUE(mg::intersects(donut, mg::Geometry::point({2, 2})));
  EXPECT_TRUE(mg::intersects(donut, mg::Geometry::point({4, 5})));  // on hole boundary
  // A square entirely inside the hole does not intersect the donut.
  EXPECT_FALSE(mg::intersects(donut, unitSquare(4.5, 4.5, 1.0)));
  // A square crossing the hole boundary does.
  EXPECT_TRUE(mg::intersects(donut, unitSquare(3, 3, 2)));
}

TEST(Intersects, LineCases) {
  const auto line = mg::Geometry::lineString({{-1, 0.5}, {5, 0.5}});
  EXPECT_TRUE(mg::intersects(line, unitSquare(0, 0)));
  EXPECT_TRUE(mg::intersects(unitSquare(0, 0), line));
  const auto inside = mg::Geometry::lineString({{0.2, 0.2}, {0.8, 0.8}});
  EXPECT_TRUE(mg::intersects(inside, unitSquare(0, 0)));  // fully inside
  const auto far = mg::Geometry::lineString({{10, 10}, {11, 11}});
  EXPECT_FALSE(mg::intersects(far, unitSquare(0, 0)));
  EXPECT_TRUE(mg::intersects(line, mg::Geometry::lineString({{2, 0}, {2, 1}})));
  EXPECT_TRUE(mg::intersects(line, mg::Geometry::point({0, 0.5})));
}

TEST(Contains, PolygonContainsCases) {
  const auto big = unitSquare(0, 0, 10);
  EXPECT_TRUE(mg::contains(big, unitSquare(1, 1, 2)));
  EXPECT_TRUE(mg::contains(big, mg::Geometry::point({5, 5})));
  EXPECT_TRUE(mg::contains(big, mg::Geometry::point({0, 0})));  // boundary
  EXPECT_FALSE(mg::contains(big, unitSquare(9, 9, 2)));         // sticks out
  EXPECT_FALSE(mg::contains(big, mg::Geometry::point({11, 5})));
  EXPECT_TRUE(mg::contains(big, mg::Geometry::lineString({{1, 1}, {9, 9}})));
}

TEST(Distance, BetweenGeometries) {
  EXPECT_DOUBLE_EQ(mg::distance(unitSquare(0, 0), unitSquare(3, 0)), 2.0);
  EXPECT_DOUBLE_EQ(mg::distance(unitSquare(0, 0), unitSquare(0.5, 0.5)), 0.0);
  EXPECT_DOUBLE_EQ(mg::distance(mg::Geometry::point({0, 5}), mg::Geometry::lineString({{-1, 0}, {1, 0}})),
                   5.0);
}

// ---- Property tests -----------------------------------------------------------

class PredicateProperty : public ::testing::TestWithParam<int> {};

TEST_P(PredicateProperty, IntersectsIsSymmetric) {
  mvio::util::Rng rng(1000 + GetParam());
  for (int trial = 0; trial < 60; ++trial) {
    const auto a = randomStarPolygon(rng, rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0.5, 3),
                                     4 + static_cast<int>(rng.below(12)));
    const auto b = randomStarPolygon(rng, rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0.5, 3),
                                     4 + static_cast<int>(rng.below(12)));
    EXPECT_EQ(mg::intersects(a, b), mg::intersects(b, a));
  }
}

TEST_P(PredicateProperty, ContainmentImpliesIntersection) {
  mvio::util::Rng rng(2000 + GetParam());
  for (int trial = 0; trial < 60; ++trial) {
    const auto a = randomStarPolygon(rng, 0, 0, rng.uniform(2, 4), 6 + static_cast<int>(rng.below(10)));
    const auto b = randomStarPolygon(rng, rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3),
                                     rng.uniform(0.1, 0.5), 5 + static_cast<int>(rng.below(6)));
    if (mg::contains(a, b)) {
      EXPECT_TRUE(mg::intersects(a, b));
    }
  }
}

TEST_P(PredicateProperty, DistanceZeroIffIntersects) {
  mvio::util::Rng rng(3000 + GetParam());
  for (int trial = 0; trial < 40; ++trial) {
    const auto a = randomStarPolygon(rng, rng.uniform(-4, 4), rng.uniform(-4, 4), rng.uniform(0.5, 2),
                                     5 + static_cast<int>(rng.below(8)));
    const auto b = randomStarPolygon(rng, rng.uniform(-4, 4), rng.uniform(-4, 4), rng.uniform(0.5, 2),
                                     5 + static_cast<int>(rng.below(8)));
    const bool hit = mg::intersects(a, b);
    const double d = mg::distance(a, b);
    if (hit) {
      EXPECT_EQ(d, 0.0);
    } else {
      EXPECT_GT(d, 0.0);
    }
  }
}

TEST_P(PredicateProperty, EnvelopeIsSoundFilter) {
  // If envelopes are disjoint, geometries must be disjoint (no false
  // negatives in the filter phase — the core filter-refine invariant).
  mvio::util::Rng rng(4000 + GetParam());
  for (int trial = 0; trial < 60; ++trial) {
    const auto a = randomStarPolygon(rng, rng.uniform(-6, 6), rng.uniform(-6, 6), rng.uniform(0.2, 2),
                                     4 + static_cast<int>(rng.below(16)));
    const auto b = randomStarPolygon(rng, rng.uniform(-6, 6), rng.uniform(-6, 6), rng.uniform(0.2, 2),
                                     4 + static_cast<int>(rng.below(16)));
    if (!a.envelope().intersects(b.envelope())) {
      EXPECT_FALSE(mg::intersects(a, b));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PredicateProperty, ::testing::Values(1, 2, 3, 4, 5));
