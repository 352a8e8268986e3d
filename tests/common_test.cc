// Unit tests for src/common: Status/Result, TimeInterval, Rng, Encoder /
// Decoder.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/encoding.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/types.h"

namespace streach {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad value");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.message(), "bad value");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad value");
}

TEST(StatusTest, AllConstructorsMapToPredicates) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_NE(Status::NotFound("a"), Status::NotFound("b"));
  EXPECT_NE(Status::NotFound("a"), Status::IOError("a"));
  EXPECT_EQ(Status::OK(), Status());
}

Status FailsThrough() {
  STREACH_RETURN_NOT_OK(Status::IOError("inner"));
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkPropagates) {
  EXPECT_TRUE(FailsThrough().IsIOError());
}

// ---------------------------------------------------------------- Result

Result<int> ParsePositive(int v) {
  if (v <= 0) return Status::InvalidArgument("not positive");
  return v;
}

TEST(ResultTest, HoldsValue) {
  auto r = ParsePositive(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  auto r = ParsePositive(-1);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

Result<int> Doubled(int v) {
  int parsed = 0;
  STREACH_ASSIGN_OR_RETURN(parsed, ParsePositive(v));
  return parsed * 2;
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto ok = Doubled(21);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  EXPECT_TRUE(Doubled(0).status().IsInvalidArgument());
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).ValueOrDie();
  EXPECT_EQ(*v, 5);
}

// ----------------------------------------------------------- TimeInterval

TEST(TimeIntervalTest, LengthAndEmptiness) {
  EXPECT_EQ(TimeInterval(0, 0).length(), 1);
  EXPECT_EQ(TimeInterval(3, 7).length(), 5);
  EXPECT_TRUE(TimeInterval(5, 4).empty());
  EXPECT_EQ(TimeInterval(5, 4).length(), 0);
  EXPECT_TRUE(TimeInterval().empty());
}

TEST(TimeIntervalTest, Contains) {
  const TimeInterval t(2, 8);
  EXPECT_TRUE(t.Contains(2));
  EXPECT_TRUE(t.Contains(8));
  EXPECT_FALSE(t.Contains(1));
  EXPECT_FALSE(t.Contains(9));
  EXPECT_TRUE(t.Contains(TimeInterval(3, 5)));
  EXPECT_TRUE(t.Contains(TimeInterval(2, 8)));
  EXPECT_FALSE(t.Contains(TimeInterval(1, 5)));
  EXPECT_TRUE(t.Contains(TimeInterval(9, 4)));  // Empty interval.
}

TEST(TimeIntervalTest, OverlapAndIntersect) {
  EXPECT_TRUE(TimeInterval(0, 5).Overlaps(TimeInterval(5, 9)));
  EXPECT_FALSE(TimeInterval(0, 4).Overlaps(TimeInterval(5, 9)));
  EXPECT_EQ(TimeInterval(0, 5).Intersect(TimeInterval(3, 9)),
            TimeInterval(3, 5));
  EXPECT_TRUE(TimeInterval(0, 2).Intersect(TimeInterval(4, 6)).empty());
}

TEST(TimeIntervalTest, UnionCoversBoth) {
  EXPECT_EQ(TimeInterval(0, 2).Union(TimeInterval(5, 7)), TimeInterval(0, 7));
  EXPECT_EQ(TimeInterval().Union(TimeInterval(5, 7)), TimeInterval(5, 7));
  EXPECT_EQ(TimeInterval(5, 7).Union(TimeInterval()), TimeInterval(5, 7));
}

// -------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 4);
}

TEST(RngTest, UniformRespectsBound) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const uint64_t v = rng.Uniform(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // All residues hit.
}

TEST(RngTest, UniformIntInclusiveRange) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(13);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

// --------------------------------------------------------------- Encoding

TEST(EncodingTest, FixedWidthRoundTrip) {
  Encoder enc;
  enc.PutU8(0xAB);
  enc.PutU16(0xBEEF);
  enc.PutU32(0xDEADBEEF);
  enc.PutU64(0x0123456789ABCDEFULL);
  enc.PutI32(-42);
  enc.PutI64(-1234567890123LL);
  enc.PutDouble(3.14159);

  Decoder dec(enc.buffer());
  EXPECT_EQ(*dec.GetU8(), 0xAB);
  EXPECT_EQ(*dec.GetU16(), 0xBEEF);
  EXPECT_EQ(*dec.GetU32(), 0xDEADBEEFu);
  EXPECT_EQ(*dec.GetU64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(*dec.GetI32(), -42);
  EXPECT_EQ(*dec.GetI64(), -1234567890123LL);
  EXPECT_DOUBLE_EQ(*dec.GetDouble(), 3.14159);
  EXPECT_TRUE(dec.Done());
}

TEST(EncodingTest, VarintBoundaries) {
  const std::vector<uint64_t> values = {0,    1,    127,        128,
                                        300,  16383, 16384,     (1ULL << 32),
                                        ~0ULL};
  Encoder enc;
  for (uint64_t v : values) enc.PutVarint(v);
  Decoder dec(enc.buffer());
  for (uint64_t v : values) EXPECT_EQ(*dec.GetVarint(), v);
  EXPECT_TRUE(dec.Done());
}

TEST(EncodingTest, StringRoundTrip) {
  Encoder enc;
  enc.PutString("hello");
  enc.PutString("");
  enc.PutString(std::string(1000, 'x'));
  Decoder dec(enc.buffer());
  EXPECT_EQ(*dec.GetString(), "hello");
  EXPECT_EQ(*dec.GetString(), "");
  EXPECT_EQ(dec.GetString()->size(), 1000u);
}

TEST(EncodingTest, TruncationDetected) {
  Encoder enc;
  enc.PutU64(42);
  Decoder dec(std::string_view(enc.buffer()).substr(0, 4));
  EXPECT_TRUE(dec.GetU64().status().IsCorruption());
}

TEST(EncodingTest, VarintTruncationDetected) {
  Encoder enc;
  enc.PutU8(0x80);  // Continuation bit set, nothing follows.
  Decoder dec(enc.buffer());
  EXPECT_TRUE(dec.GetVarint().status().IsCorruption());
}

TEST(EncodingTest, RandomRoundTripProperty) {
  // Property: any random mix of puts decodes back identically.
  Rng rng(23);
  for (int round = 0; round < 50; ++round) {
    Encoder enc;
    std::vector<std::pair<int, uint64_t>> ops;
    for (int i = 0; i < 100; ++i) {
      const int op = static_cast<int>(rng.Uniform(3));
      const uint64_t v = rng.Next();
      ops.emplace_back(op, v);
      switch (op) {
        case 0:
          enc.PutU32(static_cast<uint32_t>(v));
          break;
        case 1:
          enc.PutU64(v);
          break;
        default:
          enc.PutVarint(v);
          break;
      }
    }
    Decoder dec(enc.buffer());
    for (const auto& [op, v] : ops) {
      switch (op) {
        case 0:
          EXPECT_EQ(*dec.GetU32(), static_cast<uint32_t>(v));
          break;
        case 1:
          EXPECT_EQ(*dec.GetU64(), v);
          break;
        default:
          EXPECT_EQ(*dec.GetVarint(), v);
          break;
      }
    }
    EXPECT_TRUE(dec.Done());
  }
}

// -------------------------------------------------------------- Stopwatch

TEST(StopwatchTest, MonotoneNonNegative) {
  Stopwatch w;
  const double a = w.ElapsedSeconds();
  const double b = w.ElapsedSeconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
  w.Restart();
  EXPECT_GE(w.ElapsedMicros(), 0.0);
}

// ------------------------------------------------------------- ReachQuery

TEST(TypesTest, QueryToString) {
  ReachQuery q{1, 2, TimeInterval(0, 9)};
  EXPECT_EQ(q.ToString(), "q: o1 ~[0,9]~> o2");
}

}  // namespace
}  // namespace streach
