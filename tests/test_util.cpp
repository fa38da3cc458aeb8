// Unit tests for mvio::util: RNG determinism and distributions, running
// statistics, formatting, histogram, CLI parsing, decimal decoding,
// CRC-32C.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "util/cli.hpp"
#include "util/crc32c.hpp"
#include "util/decimal.hpp"
#include "util/error.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace mu = mvio::util;

TEST(Rng, DeterministicAcrossInstances) {
  mu::Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  mu::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInRange) {
  mu::Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BelowIsBoundedAndCoversRange) {
  mu::Rng rng(11);
  std::array<int, 10> hits{};
  for (int i = 0; i < 20000; ++i) {
    const auto v = rng.below(10);
    ASSERT_LT(v, 10u);
    hits[static_cast<std::size_t>(v)]++;
  }
  for (int h : hits) EXPECT_GT(h, 1000);  // roughly uniform
}

TEST(Rng, BetweenInclusive) {
  mu::Rng rng(13);
  bool sawLo = false, sawHi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.between(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    sawLo |= (v == -3);
    sawHi |= (v == 3);
  }
  EXPECT_TRUE(sawLo);
  EXPECT_TRUE(sawHi);
}

TEST(Rng, PowerLawBoundsAndSkew) {
  mu::Rng rng(17);
  double sum = 0;
  std::uint64_t maxSeen = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const auto v = rng.powerLaw(4, 4096, 2.2);
    ASSERT_GE(v, 4u);
    ASSERT_LE(v, 4096u);
    sum += static_cast<double>(v);
    maxSeen = std::max(maxSeen, v);
  }
  const double mean = sum / n;
  EXPECT_LT(mean, 64.0);    // mass concentrated at the small end
  EXPECT_GT(maxSeen, 512u); // but the tail is long
}

TEST(Rng, NormalMoments) {
  mu::Rng rng(23);
  mu::RunningStats st;
  for (int i = 0; i < 50000; ++i) st.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(st.mean(), 10.0, 0.1);
  EXPECT_NEAR(st.stddev(), 2.0, 0.1);
}

TEST(RunningStats, BasicMoments) {
  mu::RunningStats st;
  for (double v : {1.0, 2.0, 3.0, 4.0}) st.add(v);
  EXPECT_EQ(st.count(), 4u);
  EXPECT_DOUBLE_EQ(st.mean(), 2.5);
  EXPECT_DOUBLE_EQ(st.min(), 1.0);
  EXPECT_DOUBLE_EQ(st.max(), 4.0);
  EXPECT_DOUBLE_EQ(st.sum(), 10.0);
  EXPECT_NEAR(st.variance(), 1.25, 1e-12);
}

TEST(RunningStats, EmptyIsZero) {
  mu::RunningStats st;
  EXPECT_EQ(st.count(), 0u);
  EXPECT_EQ(st.mean(), 0.0);
  EXPECT_EQ(st.variance(), 0.0);
}

TEST(Percentiles, Quantiles) {
  mu::Percentiles p;
  for (int i = 1; i <= 100; ++i) p.add(i);
  EXPECT_NEAR(p.quantile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(p.quantile(1.0), 100.0, 1e-9);
  EXPECT_NEAR(p.quantile(0.5), 50.5, 1.0);
}

TEST(Histogram, BucketsAndOverflow) {
  mu::Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 10; ++i) h.add(i + 0.5);
  h.add(-1);
  h.add(42);
  EXPECT_EQ(h.total(), 12u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(h.bucketCount(i), 1u);
}

TEST(Format, Bytes) {
  EXPECT_EQ(mu::formatBytes(512), "512 B");
  EXPECT_EQ(mu::formatBytes(1500), "1.50 KB");
  EXPECT_EQ(mu::formatBytes(22'000'000'000ull), "22.0 GB");
}

TEST(Format, Seconds) {
  EXPECT_EQ(mu::formatSeconds(2.0), "2.00 s");
  EXPECT_EQ(mu::formatSeconds(0.0032), "3.20 ms");
  EXPECT_EQ(mu::formatSeconds(4.2e-6), "4.20 us");
}

TEST(Format, Bandwidth) {
  EXPECT_EQ(mu::formatBandwidth(22e9), "22.0 GB/s");
  EXPECT_EQ(mu::formatBandwidth(3.5e6), "3.50 MB/s");
}

TEST(TextTable, AlignsColumns) {
  mu::TextTable t({"a", "bbbb"});
  t.addRow({"xx", "y"});
  const std::string s = t.str();
  EXPECT_NE(s.find("a"), std::string::npos);
  EXPECT_NE(s.find("xx"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(TextTable, RejectsBadRow) {
  mu::TextTable t({"a", "b"});
  EXPECT_THROW(t.addRow({"only-one"}), mu::Error);
}

TEST(Cli, ParsesFlagsBothSyntaxes) {
  mu::Cli cli("test");
  cli.flag("alpha", "1", "an int").flag("name", "x", "a string").flag("on", "false", "a bool");
  const char* argv[] = {"prog", "--alpha=7", "--name", "hello", "--on=true"};
  ASSERT_TRUE(cli.parse(5, const_cast<char**>(argv)));
  EXPECT_EQ(cli.integer("alpha"), 7);
  EXPECT_EQ(cli.str("name"), "hello");
  EXPECT_TRUE(cli.boolean("on"));
}

TEST(Cli, RejectsUnknownFlag) {
  mu::Cli cli("test");
  cli.flag("a", "1", "x");
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_THROW(cli.parse(2, const_cast<char**>(argv)), mu::Error);
}

TEST(Error, CheckMacroThrows) {
  EXPECT_THROW(MVIO_CHECK(false, "boom"), mu::Error);
  EXPECT_NO_THROW(MVIO_CHECK(true, "fine"));
}

// ---- Decimal decoding ------------------------------------------------------

namespace {

/// One token's decode through parseDouble and through std::from_chars,
/// from a heap buffer of exactly the token's size (so a sanitizer build
/// catches any read past the end). Empty on agreement, else a description.
std::string decodeMismatch(const std::string& text) {
  const std::unique_ptr<char[]> buf(new char[text.size() + (text.empty() ? 1 : 0)]);
  std::memcpy(buf.get(), text.data(), text.size());
  const char* first = buf.get();
  const char* last = first + text.size();
  double got = 12345.5;
  double want = 12345.5;
  const auto g = mu::parseDouble(first, last, got);
  const auto w = std::from_chars(first, last, want);
  const bool sameBits = std::bit_cast<std::uint64_t>(got) == std::bit_cast<std::uint64_t>(want);
  if (g.ptr == w.ptr && g.ec == w.ec && sameBits) return {};
  char msg[256];
  std::snprintf(msg, sizeof msg, "'%s': parseDouble %.17g end %td ec %d, from_chars %.17g end %td ec %d",
                text.c_str(), got, g.ptr - first, static_cast<int>(g.ec), want, w.ptr - first,
                static_cast<int>(w.ec));
  return msg;
}

const char* const kEdgeTokens[] = {
    ".5", "1.", "+1", "-", "1e", "1e-", "1.5e", "e5", "inf", "-inf", "infinity", "nan", "NaN", "-nan",
    "-0", "-0.0", "0", "0.000", "-.5", ".", "", "0x1p3", "--1", "1..2", "12.34.5", "00012.5000", "0.1",
    "-123.456", "9007199254740992", "9007199254740993", "9007199254740992.5", "9007199254740993.0",
    "1234567890123456789", "12345678901234567890", "0.0000000000000000000000001",
    "1.0000000000000000000000", "123456789012.3456789", "1e23", "1.7976931348623157e308", "1e309",
    "4.9e-324", "1e-400", "17.5)", "3 4", "-12345678.87654321,"};

std::string randomDigits(mu::Rng& rng, int n) {
  std::string s;
  for (int i = 0; i < n; ++i) s.push_back(static_cast<char>('0' + rng.below(10)));
  return s;
}

/// A number-shaped token from one of the families the ingest paths see or
/// that sit on an edge of the fast path.
std::string randomNumberToken(mu::Rng& rng) {
  char buf[64];
  switch (rng.below(8)) {
    case 0: {  // printf %g at every precision, over many magnitudes
      const double v = std::ldexp(rng.uniform(-1, 1), static_cast<int>(rng.between(-80, 80)));
      std::snprintf(buf, sizeof buf, "%.*g", static_cast<int>(rng.between(1, 17)), v);
      return buf;
    }
    case 1: {  // fixed-point coordinates, the common WKT shape
      const double v = rng.uniform(-200, 200) * std::pow(10.0, static_cast<double>(rng.between(-3, 5)));
      std::snprintf(buf, sizeof buf, "%.*f", static_cast<int>(rng.between(0, 24)), v);
      return buf;
    }
    case 2: {  // 16-20 digit significands with the point anywhere
      std::string d = randomDigits(rng, static_cast<int>(rng.between(16, 20)));
      const auto at = rng.below(d.size() + 1);
      if (at < d.size()) d.insert(at, ".");
      if (d.front() == '.') d.insert(0, "0");
      return (rng.below(2) ? "-" : "") + d;
    }
    case 3: {  // around 2^53, with and without a fraction
      const std::uint64_t m = (std::uint64_t{1} << 53) - 4 + rng.below(9);
      std::string d = std::to_string(m);
      const auto at = rng.below(d.size() + 1);
      if (at > 0 && at < d.size()) d.insert(at, ".");
      return d;
    }
    case 4: {  // integers and leading zeros, some with a fraction
      std::string d = std::string(rng.below(25), '0');
      d += randomDigits(rng, static_cast<int>(rng.between(1, 12)));
      if (rng.below(2)) d += "." + randomDigits(rng, static_cast<int>(rng.between(1, 14)));
      return (rng.below(3) == 0 ? "-" : "") + d;
    }
    case 5: {  // exponents, in and out of range
      std::snprintf(buf, sizeof buf, "%s%s%c%s%d", rng.below(2) ? "-" : "",
                    randomDigits(rng, static_cast<int>(rng.between(1, 6))).c_str(), rng.below(2) ? 'e' : 'E',
                    rng.below(2) ? "+" : "", static_cast<int>(rng.between(-400, 400)));
      return buf;
    }
    case 6: {  // long fractions past 10^22, and tiny leading-zero fractions
      return "0." + std::string(rng.below(30), '0') + randomDigits(rng, static_cast<int>(rng.between(1, 20)));
    }
    default:  // malformed, signed, non-finite, zero and boundary forms
      return kEdgeTokens[rng.below(std::size(kEdgeTokens))];
  }
}

}  // namespace

TEST(Decimal, EdgeTokensMatchFromChars) {
  for (const char* t : kEdgeTokens) EXPECT_EQ(decodeMismatch(t), "") << t;
}

TEST(Decimal, MatchesFromCharsOnSeededStrings) {
  // Each token is followed by a random tail of up to 20 bytes, so many
  // decodes end fewer than 16 bytes before the buffer's end, and some
  // tails continue a digit run or add an exponent.
  static const char kTail[] = " ,()\t.eE+-0123456789xn";
  mu::Rng rng(20240917);
  constexpr int kStrings = 1'000'000;
  int mismatches = 0;
  for (int i = 0; i < kStrings; ++i) {
    std::string text = randomNumberToken(rng);
    const auto tail = rng.below(21);
    for (std::uint64_t t = 0; t < tail; ++t) text.push_back(kTail[rng.below(sizeof kTail - 1)]);
    const std::string diff = decodeMismatch(text);
    if (!diff.empty() && ++mismatches <= 10) ADD_FAILURE() << diff;
  }
  EXPECT_EQ(mismatches, 0);
}

// ---- CRC-32C ---------------------------------------------------------------

TEST(Crc32c, Rfc3720Vectors) {
  // RFC 3720 appendix B.4, plus the catalogue check value.
  unsigned char buf[32];
  std::memset(buf, 0x00, sizeof buf);
  EXPECT_EQ(mu::crc32c(buf, sizeof buf), 0x8A9136AAu);
  EXPECT_EQ(mu::detail::crc32cTable(buf, sizeof buf), 0x8A9136AAu);
  std::memset(buf, 0xFF, sizeof buf);
  EXPECT_EQ(mu::crc32c(buf, sizeof buf), 0x62A8AB43u);
  EXPECT_EQ(mu::detail::crc32cTable(buf, sizeof buf), 0x62A8AB43u);
  for (int i = 0; i < 32; ++i) buf[i] = static_cast<unsigned char>(i);
  EXPECT_EQ(mu::crc32c(buf, sizeof buf), 0x46DD794Eu);
  EXPECT_EQ(mu::detail::crc32cTable(buf, sizeof buf), 0x46DD794Eu);
  EXPECT_EQ(mu::crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(mu::detail::crc32cTable("123456789", 9), 0xE3069283u);
  EXPECT_EQ(mu::crc32c(nullptr, 0), 0u);
}

TEST(Crc32c, DispatchedPathMatchesTableAtEveryAlignment) {
  // crc32c runs the SSE4.2 instruction where the CPU has it; the table
  // path is the reference. Every start offset mod 8 and lengths across
  // 0..4 KiB cover the word loop, the byte tail and their seams.
  mu::Rng rng(20261018);
  std::string buf(4096 + 8, '\0');
  for (char& c : buf) c = static_cast<char>(rng.next());
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 64; ++n) lengths.push_back(n);
  for (int i = 0; i < 256; ++i) lengths.push_back(rng.below(4097));
  lengths.push_back(4096);
  std::string copy(buf.size(), '\0');
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (const std::size_t n : lengths) {
      const char* p = buf.data() + offset;
      const std::uint32_t want = mu::detail::crc32cTable(p, n);
      ASSERT_EQ(mu::crc32c(p, n), want) << "offset " << offset << ", length " << n;
      // The copying form returns the same CRC and lands exactly n bytes.
      std::fill(copy.begin(), copy.end(), '\x5A');
      ASSERT_EQ(mu::crc32cCopy(copy.data() + 7 - offset, p, n), want)
          << "offset " << offset << ", length " << n;
      ASSERT_EQ(copy.compare(7 - offset, n, p, n), 0) << "offset " << offset << ", length " << n;
      ASSERT_EQ(copy[7 - offset + n], '\x5A') << "offset " << offset << ", length " << n;
    }
  }
}

TEST(Crc32c, ContinuesAcrossSplits) {
  const std::string text = "The quick brown fox jumps over the lazy dog, twice over.";
  const std::uint32_t whole = mu::crc32c(text.data(), text.size());
  for (std::size_t cut = 0; cut <= text.size(); ++cut) {
    EXPECT_EQ(mu::crc32c(text.data() + cut, text.size() - cut, mu::crc32c(text.data(), cut)),
              whole)
        << "cut at " << cut;
    EXPECT_EQ(mu::detail::crc32cTable(text.data() + cut, text.size() - cut,
                                      mu::detail::crc32cTable(text.data(), cut)),
              whole)
        << "cut at " << cut;
  }
}
