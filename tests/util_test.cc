#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/geometry.h"
#include "util/lru_cache.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/strings.h"

namespace cobra {
namespace {

// ---------- Status / Result ----------

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
  EXPECT_TRUE(st.message().empty());
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad knob");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_EQ(st.message(), "bad knob");
  EXPECT_EQ(st.ToString(), "Invalid argument: bad knob");
}

TEST(StatusTest, EveryCodeHasName) {
  for (int c = 0; c <= 11; ++c) {
    EXPECT_STRNE(StatusCodeToString(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(StatusTest, ServingCodes) {
  Status shed = Status::Unavailable("queues full");
  EXPECT_TRUE(shed.IsUnavailable());
  EXPECT_FALSE(shed.IsDeadlineExceeded());
  EXPECT_EQ(shed.ToString(), "Unavailable: queues full");
  Status late = Status::DeadlineExceeded("past due");
  EXPECT_TRUE(late.IsDeadlineExceeded());
  EXPECT_FALSE(late.IsUnavailable());
  EXPECT_EQ(late.ToString(), "Deadline exceeded: past due");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_EQ(Status::OK(), Status());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("gone");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST(ResultTest, TakeValueMoves) {
  Result<std::string> r = std::string("payload");
  std::string v = r.TakeValue();
  EXPECT_EQ(v, "payload");
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Status UseHalf(int x, int* out) {
  COBRA_ASSIGN_OR_RETURN(int h, Half(x));
  *out = h;
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnPropagates) {
  int out = 0;
  EXPECT_TRUE(UseHalf(8, &out).ok());
  EXPECT_EQ(out, 4);
  EXPECT_TRUE(UseHalf(7, &out).IsInvalidArgument());
}

// ---------- Rng ----------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u) << "all 7 values should appear in 1000 draws";
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.Add(rng.NextGaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.NextBernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBernoulli(0.0));
    EXPECT_TRUE(rng.NextBernoulli(1.0));
  }
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(23);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 40000; ++i) counts[rng.NextCategorical(weights)]++;
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.25);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(29);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(ZipfSamplerTest, RankOneIsMostFrequent) {
  Rng rng(31);
  ZipfSampler zipf(100, 1.0);
  std::vector<int> counts(101, 0);
  for (int i = 0; i < 50000; ++i) counts[zipf.Sample(&rng)]++;
  EXPECT_GT(counts[1], counts[2]);
  EXPECT_GT(counts[2], counts[10]);
  EXPECT_GT(counts[1], 4 * counts[10]);
}

TEST(MixHashTest, PureFunctionAndSpreads) {
  EXPECT_EQ(MixHash(42), MixHash(42));
  EXPECT_NE(MixHash(42), MixHash(43));
}

// ---------- Stats ----------

TEST(RunningStatsTest, BasicMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(PrecisionRecallTest, Formulas) {
  PrecisionRecall pr{8, 2, 2};
  EXPECT_DOUBLE_EQ(pr.Precision(), 0.8);
  EXPECT_DOUBLE_EQ(pr.Recall(), 0.8);
  EXPECT_DOUBLE_EQ(pr.F1(), 0.8);
}

TEST(PrecisionRecallTest, ZeroDenominators) {
  PrecisionRecall pr;
  EXPECT_EQ(pr.Precision(), 0.0);
  EXPECT_EQ(pr.Recall(), 0.0);
  EXPECT_EQ(pr.F1(), 0.0);
}

TEST(ConfusionMatrixTest, AccuracyAndPerClass) {
  ConfusionMatrix cm(3);
  cm.Add(0, 0);
  cm.Add(0, 0);
  cm.Add(1, 1);
  cm.Add(1, 2);
  cm.Add(2, 2);
  EXPECT_EQ(cm.Total(), 5);
  EXPECT_DOUBLE_EQ(cm.Accuracy(), 0.8);
  EXPECT_DOUBLE_EQ(cm.ClassRecall(1), 0.5);
  EXPECT_DOUBLE_EQ(cm.ClassPrecision(2), 0.5);
  EXPECT_DOUBLE_EQ(cm.ClassPrecision(0), 1.0);
}

TEST(MatchWithToleranceTest, ExactAndTolerant) {
  PrecisionRecall pr = MatchWithTolerance({100, 200, 300}, {101, 205, 400}, 2);
  EXPECT_EQ(pr.true_positives, 1);  // only 101 within +-2 of 100
  EXPECT_EQ(pr.false_positives, 2);
  EXPECT_EQ(pr.false_negatives, 2);

  pr = MatchWithTolerance({100, 200, 300}, {101, 205, 400}, 5);
  EXPECT_EQ(pr.true_positives, 2);
}

TEST(MatchWithToleranceTest, EachTruthMatchedOnce) {
  // Two detections near one truth: one TP, one FP.
  PrecisionRecall pr = MatchWithTolerance({100}, {99, 101}, 3);
  EXPECT_EQ(pr.true_positives, 1);
  EXPECT_EQ(pr.false_positives, 1);
  EXPECT_EQ(pr.false_negatives, 0);
}

// ---------- Geometry ----------

TEST(RectTest, IntersectUnionArea) {
  RectI a{0, 0, 10, 10}, b{5, 5, 10, 10};
  RectI i = a.Intersect(b);
  EXPECT_EQ(i, (RectI{5, 5, 5, 5}));
  EXPECT_EQ(a.Union(b), (RectI{0, 0, 15, 15}));
  EXPECT_EQ(a.Area(), 100);
  EXPECT_NEAR(a.Iou(b), 25.0 / 175.0, 1e-12);
}

TEST(RectTest, DisjointIntersectionEmpty) {
  RectI a{0, 0, 4, 4}, b{10, 10, 4, 4};
  EXPECT_TRUE(a.Intersect(b).Empty());
  EXPECT_EQ(a.Iou(b), 0.0);
}

TEST(RectTest, ContainsAndClip) {
  RectI r{2, 3, 4, 5};
  EXPECT_TRUE(r.Contains(2, 3));
  EXPECT_TRUE(r.Contains(5, 7));
  EXPECT_FALSE(r.Contains(6, 7));
  EXPECT_EQ(r.ClipTo(4, 4), (RectI{2, 3, 2, 1}));
}

TEST(FrameIntervalTest, BasicOps) {
  FrameInterval a{10, 20};
  EXPECT_EQ(a.Length(), 11);
  EXPECT_TRUE(a.Contains(10));
  EXPECT_TRUE(a.Contains(20));
  EXPECT_FALSE(a.Contains(21));
  EXPECT_TRUE(a.Overlaps(FrameInterval{20, 30}));
  EXPECT_FALSE(a.Overlaps(FrameInterval{21, 30}));
  EXPECT_TRUE(FrameInterval{}.Empty());
}

struct AllenCase {
  FrameInterval a, b;
  AllenRelation expected;
};

class AllenTest : public ::testing::TestWithParam<AllenCase> {};

TEST_P(AllenTest, Classifies) {
  const AllenCase& c = GetParam();
  EXPECT_EQ(ClassifyAllen(c.a, c.b), c.expected)
      << c.a.ToString() << " vs " << c.b.ToString() << " expected "
      << AllenRelationToString(c.expected) << " got "
      << AllenRelationToString(ClassifyAllen(c.a, c.b));
}

INSTANTIATE_TEST_SUITE_P(
    AllRelations, AllenTest,
    ::testing::Values(
        AllenCase{{0, 5}, {10, 20}, AllenRelation::kBefore},
        AllenCase{{10, 20}, {0, 5}, AllenRelation::kAfter},
        AllenCase{{0, 9}, {10, 20}, AllenRelation::kMeets},
        AllenCase{{10, 20}, {0, 9}, AllenRelation::kMetBy},
        AllenCase{{0, 12}, {10, 20}, AllenRelation::kOverlaps},
        AllenCase{{10, 20}, {0, 12}, AllenRelation::kOverlappedBy},
        AllenCase{{10, 15}, {10, 20}, AllenRelation::kStarts},
        AllenCase{{10, 20}, {10, 15}, AllenRelation::kStartedBy},
        AllenCase{{12, 18}, {10, 20}, AllenRelation::kDuring},
        AllenCase{{10, 20}, {12, 18}, AllenRelation::kContains},
        AllenCase{{15, 20}, {10, 20}, AllenRelation::kFinishes},
        AllenCase{{10, 20}, {15, 20}, AllenRelation::kFinishedBy},
        AllenCase{{10, 20}, {10, 20}, AllenRelation::kEquals}));

TEST(AllenTest, RelationNamesAreDistinct) {
  std::set<std::string> names;
  for (int r = 0; r <= static_cast<int>(AllenRelation::kEquals); ++r) {
    names.insert(AllenRelationToString(static_cast<AllenRelation>(r)));
  }
  EXPECT_EQ(names.size(), 13u);
}

// ---------- Strings ----------

TEST(StringsTest, SplitString) {
  EXPECT_EQ(SplitString("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(SplitString("", ','), (std::vector<std::string>{""}));
}

TEST(StringsTest, SplitWhitespace) {
  EXPECT_EQ(SplitWhitespace("  foo\t bar\nbaz  "),
            (std::vector<std::string>{"foo", "bar", "baz"}));
  EXPECT_TRUE(SplitWhitespace("   ").empty());
}

TEST(StringsTest, StripAndCase) {
  EXPECT_EQ(StripWhitespace("  x y  "), "x y");
  EXPECT_EQ(ToLowerAscii("MiXeD"), "mixed");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("fo", "foo"));
  EXPECT_TRUE(EndsWith("foobar", "bar"));
  EXPECT_FALSE(EndsWith("ar", "bar"));
}

TEST(StringsTest, JoinAndFormat) {
  EXPECT_EQ(JoinStrings({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(JoinStrings({}, ","), "");
  EXPECT_EQ(StringFormat("%d-%s", 7, "x"), "7-x");
}

// ---------- LruCache ----------

TEST(LruCacheTest, EvictsAtCapacity) {
  util::LruCache<int> cache(1);
  cache.Put("a", 1);
  EXPECT_EQ(cache.Get("a"), 1);
  cache.Put("b", 2);  // evicts a
  EXPECT_FALSE(cache.Get("a").has_value());
  EXPECT_EQ(cache.Get("b"), 2);
  cache.Put("a", 3);  // evicts b
  EXPECT_FALSE(cache.Get("b").has_value());
  EXPECT_EQ(cache.Get("a"), 3);
  cache.Put("a", 4);  // replaces in place, evicts nothing
  EXPECT_EQ(cache.Get("a"), 4);
}

TEST(LruCacheTest, GetMakesAnEntryMostRecent) {
  util::LruCache<std::string> cache(2);
  cache.Put("a", "1");
  cache.Put("b", "2");
  EXPECT_EQ(cache.Get("a"), "1");  // b is now the least recent
  cache.Put("c", "3");
  EXPECT_FALSE(cache.Get("b").has_value());
  EXPECT_EQ(cache.Get("a"), "1");
  EXPECT_EQ(cache.Get("c"), "3");
}

}  // namespace
}  // namespace cobra
