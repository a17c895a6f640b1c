// Unit tests for the common module: Status/Result, varint coding,
// deterministic RNG, histogram, ids, logging.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <vector>

#include "common/coding.h"
#include "common/histogram.h"
#include "common/inline_function.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/status.h"
#include "common/types.h"

namespace paxoscp {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoriesSetCodes) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::Conflict("x").IsConflict());
  EXPECT_TRUE(Status::TimedOut("x").IsTimedOut());
  EXPECT_TRUE(Status::Unavailable("x").IsUnavailable());
  EXPECT_TRUE(Status::Aborted("x").IsAborted());
  EXPECT_FALSE(Status::Aborted("x").ok());
}

TEST(StatusTest, ToStringIncludesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("missing row").ToString(),
            "NotFound: missing row");
  EXPECT_EQ(Status::Conflict().ToString(), "Conflict");
}

TEST(StatusTest, EqualityComparesCodesOnly) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Conflict("a"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

// ---------------------------------------------------------------- Coding --

TEST(CodingTest, Fixed64RoundTrip) {
  std::string buf;
  PutFixed64(&buf, 0x0123456789abcdefULL);
  std::string_view in = buf;
  uint64_t v = 0;
  ASSERT_TRUE(GetFixed64(&in, &v));
  EXPECT_EQ(v, 0x0123456789abcdefULL);
}

TEST(CodingTest, VarintBoundaries) {
  const uint64_t cases[] = {0,       1,      127,        128,
                            16383,   16384,  UINT32_MAX, uint64_t{1} << 42,
                            UINT64_MAX};
  for (uint64_t expected : cases) {
    std::string buf;
    PutVarint64(&buf, expected);
    std::string_view in = buf;
    uint64_t got = 0;
    ASSERT_TRUE(GetVarint64(&in, &got)) << expected;
    EXPECT_EQ(got, expected);
    EXPECT_TRUE(in.empty());
  }
}

TEST(CodingTest, VarintUnderflowFails) {
  std::string buf;
  PutVarint64(&buf, 1u << 20);
  buf.pop_back();  // truncate
  std::string_view in = buf;
  uint64_t v = 0;
  EXPECT_FALSE(GetVarint64(&in, &v));
}

TEST(CodingTest, LengthPrefixedRoundTrip) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello");
  PutLengthPrefixed(&buf, "");
  PutLengthPrefixed(&buf, std::string(300, 'x'));
  std::string_view in = buf;
  std::string_view a, b, c;
  ASSERT_TRUE(GetLengthPrefixed(&in, &a));
  ASSERT_TRUE(GetLengthPrefixed(&in, &b));
  ASSERT_TRUE(GetLengthPrefixed(&in, &c));
  EXPECT_EQ(a, "hello");
  EXPECT_EQ(b, "");
  EXPECT_EQ(c.size(), 300u);
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, LengthPrefixedUnderflowFails) {
  std::string buf;
  PutVarint64(&buf, 10);
  buf += "short";
  std::string_view in = buf;
  std::string_view v;
  EXPECT_FALSE(GetLengthPrefixed(&in, &v));
}

TEST(CodingTest, ZigZagRoundTrip) {
  const int64_t cases[] = {0, -1, 1, -2, 2, INT64_MIN, INT64_MAX, -12345};
  for (int64_t expected : cases) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(expected)), expected);
    std::string buf;
    PutVarsint64(&buf, expected);
    std::string_view in = buf;
    int64_t got = 0;
    ASSERT_TRUE(GetVarsint64(&in, &got));
    EXPECT_EQ(got, expected);
  }
}

TEST(CodingTest, SmallNegativesEncodeCompactly) {
  std::string buf;
  PutVarsint64(&buf, -1);
  EXPECT_EQ(buf.size(), 1u);
}

TEST(CodingTest, FingerprintDistinguishesAndRepeats) {
  EXPECT_EQ(Fingerprint64("abc"), Fingerprint64("abc"));
  EXPECT_NE(Fingerprint64("abc"), Fingerprint64("abd"));
  EXPECT_NE(Fingerprint64(""), Fingerprint64(std::string_view("\0", 1)));
}

TEST(CodingTest, EncodeVarint64ToMatchesPutVarint64) {
  for (uint64_t v : {uint64_t{0}, uint64_t{1}, uint64_t{127}, uint64_t{128},
                     uint64_t{300}, uint64_t{1} << 40, UINT64_MAX}) {
    std::string expected;
    PutVarint64(&expected, v);
    char buf[kMaxVarint64Bytes];
    char* end = EncodeVarint64To(buf, v);
    EXPECT_EQ(std::string_view(buf, static_cast<size_t>(end - buf)),
              expected);
  }
}

TEST(CodingTest, FingerprinterIsChunkingInvariant) {
  const std::string data =
      "the digest must not depend on how the byte stream is sliced across "
      "Add calls, only on the bytes themselves: 0123456789abcdef";
  const uint64_t whole = Fingerprint64(data);
  for (size_t cut1 : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{9},
                      size_t{40}, data.size()}) {
    for (size_t cut2 : {cut1, cut1 + 3, data.size()}) {
      if (cut2 < cut1 || cut2 > data.size()) continue;
      Fingerprinter fp;
      fp.Add(std::string_view(data).substr(0, cut1));
      fp.Add(std::string_view(data).substr(cut1, cut2 - cut1));
      fp.Add(std::string_view(data).substr(cut2));
      EXPECT_EQ(fp.Finish(), whole) << "cuts at " << cut1 << "," << cut2;
    }
  }
}

TEST(CodingTest, FingerprinterTypedAddsMatchEncodedBytes) {
  // AddVarint64 / AddVarsint64 / AddFixed64 / AddLengthPrefixed must hash
  // exactly the bytes their Put* counterparts would append.
  std::string encoded;
  PutVarsint64(&encoded, -42);
  PutVarint64(&encoded, 1234567);
  PutFixed64(&encoded, 0xdeadbeefcafef00dULL);
  PutLengthPrefixed(&encoded, "length-prefixed-payload");
  PutFixed64(&encoded, 7);  // lands unaligned after the prefix above

  Fingerprinter fp;
  fp.AddVarsint64(-42);
  fp.AddVarint64(1234567);
  fp.AddFixed64(0xdeadbeefcafef00dULL);
  fp.AddLengthPrefixed("length-prefixed-payload");
  fp.AddFixed64(7);
  EXPECT_EQ(fp.Finish(), Fingerprint64(encoded));
}

// ---------------------------------------------------------------- Random --

TEST(RandomTest, DeterministicFromSeed) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  bool any_diff = false;
  Rng a2(123);
  for (int i = 0; i < 100; ++i) {
    if (a2.Next() != c.Next()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(RandomTest, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(10), 10u);
    const int64_t v = rng.UniformRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RandomTest, UniformCoversAllValues) {
  Rng rng(99);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.Uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, BernoulliExtremes) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RandomTest, BernoulliApproximatesProbability) {
  Rng rng(17);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

// ------------------------------------------------------------- Histogram --

TEST(HistogramTest, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Mean(), 0);
  EXPECT_EQ(h.Percentile(50), 0);
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.Record(1000);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 1000);
  EXPECT_EQ(h.max(), 1000);
  EXPECT_DOUBLE_EQ(h.Mean(), 1000);
  EXPECT_EQ(h.Percentile(50), 1000);
  EXPECT_EQ(h.Percentile(99), 1000);
}

TEST(HistogramTest, MeanAndExtremes) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.Record(i * 10);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.min(), 10);
  EXPECT_EQ(h.max(), 1000);
  EXPECT_DOUBLE_EQ(h.Mean(), 505.0);
}

TEST(HistogramTest, PercentilesAreMonotone) {
  Histogram h;
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) h.Record(rng.UniformRange(1, 1000000));
  double prev = 0;
  for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0}) {
    const double v = h.Percentile(p);
    EXPECT_GE(v, prev) << "p" << p;
    prev = v;
  }
  // Median of a uniform distribution is near the middle (log buckets are
  // coarse, allow 25% slack).
  EXPECT_NEAR(h.Percentile(50), 500000, 125000);
}

TEST(HistogramTest, MergeCombinesCounts) {
  Histogram a, b;
  a.Record(10);
  a.Record(20);
  b.Record(30);
  a.Merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.max(), 30);
  EXPECT_DOUBLE_EQ(a.Mean(), 20.0);
}

TEST(HistogramTest, StdDevOfConstantIsZero) {
  Histogram h;
  for (int i = 0; i < 10; ++i) h.Record(42);
  EXPECT_NEAR(h.StdDev(), 0, 1e-9);
}

TEST(HistogramTest, ClearResets) {
  Histogram h;
  h.Record(5);
  h.Clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0);
}

namespace {

/// Reference implementation of the bucket lookup: the linear scan
/// BucketFor used before the binary search (bucket i covers
/// (limit(i-1), limit(i)], clamped to the last bucket).
int LinearBucketFor(int64_t value) {
  if (value <= 0) return 0;
  int i = 0;
  while (i < Histogram::kNumBuckets - 1 && Histogram::BucketLimit(i) < value) {
    ++i;
  }
  return i;
}

}  // namespace

TEST(HistogramTest, BinarySearchBucketMatchesLinearScan) {
  std::vector<int64_t> values = {0, std::numeric_limits<int64_t>::max()};
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    const int64_t limit = Histogram::BucketLimit(i);
    values.push_back(limit);
    if (limit > 0) values.push_back(limit - 1);
    if (limit < std::numeric_limits<int64_t>::max()) {
      values.push_back(limit + 1);
    }
  }
  // A pseudo-random sweep across the whole range on top of the edges.
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 10000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    values.push_back(static_cast<int64_t>(x >> 1));  // non-negative
  }
  for (int64_t v : values) {
    EXPECT_EQ(Histogram::BucketFor(v), LinearBucketFor(v)) << "value " << v;
  }
}

TEST(HistogramTest, BucketLimitsAreNonDecreasingAndPadded) {
  for (int i = 1; i < Histogram::kNumBuckets; ++i) {
    EXPECT_GE(Histogram::BucketLimit(i), Histogram::BucketLimit(i - 1)) << i;
  }
  EXPECT_EQ(Histogram::BucketLimit(Histogram::kNumBuckets - 1),
            std::numeric_limits<int64_t>::max());
}

TEST(HistogramTest, NegativeRecordAssertsInDebugAndClampsInRelease) {
  Histogram h;
  // Debug builds assert (the sample is a caller bug); release builds
  // clamp the sample to 0 so every statistic stays sign-consistent.
  EXPECT_DEBUG_DEATH(h.Record(-1), "negative");
#ifdef NDEBUG
  ASSERT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.Mean(), 0);
  EXPECT_EQ(h.Percentile(50), 0);
#endif
}

TEST(HistogramTest, AllNegativeHistogramStaysSignConsistent) {
#ifdef NDEBUG
  // The historical bug: min_ went negative while the buckets clamped at
  // 0, so Percentile() (bucket-based, clamped into [min, max]) and Mean()
  // (sum-based) disagreed in sign. With clamp-at-0 semantics every
  // statistic agrees.
  Histogram h;
  h.Record(-50);
  h.Record(-2);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.Mean(), 0);
  EXPECT_EQ(h.Percentile(50), 0);
  EXPECT_EQ(h.Percentile(99), 0);
  EXPECT_EQ(h.StdDev(), 0);
#endif
}

// ----------------------------------------------------------------- Types --

TEST(TypesTest, TxnIdPacksDcAndSeq) {
  const TxnId id = MakeTxnId(3, 77);
  EXPECT_EQ(TxnIdDc(id), 3);
  EXPECT_EQ(TxnIdSeq(id), 77u);
  EXPECT_EQ(TxnIdToString(id), "3.77");
}

TEST(TypesTest, TxnIdLargeSeq) {
  const uint64_t big = (uint64_t{1} << 47) + 5;
  const TxnId id = MakeTxnId(15, big);
  EXPECT_EQ(TxnIdDc(id), 15);
  EXPECT_EQ(TxnIdSeq(id), big);
}

// --------------------------------------------------------------- Logging --

TEST(LoggingTest, LevelGate) {
  const LogLevel old = GetLogLevel();
  SetLogLevel(LogLevel::kWarn);
  EXPECT_FALSE(LogEnabled(LogLevel::kDebug));
  EXPECT_TRUE(LogEnabled(LogLevel::kError));
  SetLogLevel(LogLevel::kOff);
  EXPECT_FALSE(LogEnabled(LogLevel::kError));
  SetLogLevel(old);
}

// -------------------------------------------------------- InlineFunction --

TEST(InlineFunctionTest, EmptyAndAssignedStates) {
  InlineFunction<int()> f;
  EXPECT_FALSE(static_cast<bool>(f));
  f = [] { return 7; };
  ASSERT_TRUE(static_cast<bool>(f));
  EXPECT_EQ(f(), 7);
  f = nullptr;
  EXPECT_FALSE(static_cast<bool>(f));
}

TEST(InlineFunctionTest, SmallCaptureStaysInline) {
  int counter = 0;
  InlineFunction<void()> f = [&counter] { ++counter; };
  f();
  f();
  EXPECT_EQ(counter, 2);
}

TEST(InlineFunctionTest, MoveTransfersOwnership) {
  auto owned = std::make_unique<int>(5);
  InlineFunction<int()> f = [p = std::move(owned)] { return *p; };
  InlineFunction<int()> g = std::move(f);
  EXPECT_FALSE(static_cast<bool>(f));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(g));
  EXPECT_EQ(g(), 5);
}

TEST(InlineFunctionTest, OversizedCaptureFallsBackToHeap) {
  struct Big {
    char bytes[128] = {};
  };
  Big big;
  big.bytes[100] = 42;
  InlineFunction<int()> f = [big] { return big.bytes[100]; };
  InlineFunction<int()> g = std::move(f);
  EXPECT_EQ(g(), 42);
}

TEST(InlineFunctionTest, ArgumentsAndReturnForwarded) {
  InlineFunction<int(int, int)> add = [](int a, int b) { return a + b; };
  EXPECT_EQ(add(2, 3), 5);
}

TEST(InlineFunctionTest, DestructorReleasesCapture) {
  auto shared = std::make_shared<int>(1);
  {
    InlineFunction<void()> f = [shared] {};
    EXPECT_EQ(shared.use_count(), 2);
  }
  EXPECT_EQ(shared.use_count(), 1);
}

}  // namespace
}  // namespace paxoscp
