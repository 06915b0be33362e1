/// \file harness_test.cc
/// Tests of the benchmark's own helpers: percentiles under the
/// ten-samples-beyond rule, CPU and RSS accounting, the result line and its
/// agreement with BENCHMARK.json, span self time, seeded generator
/// determinism, and the gate's comparator.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "harness.h"
#include "inputs.h"
#include "workloads.h"

namespace cobra::perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(PercentileTest, InterpolatesOverSortedSamples) {
  EXPECT_DOUBLE_EQ(Percentile({3, 1, 2}, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(Percentile(OneTo(101), 0.9), 91.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 0.5), 0.0);
}

TEST(PercentileTest, TailNeedsTenSamplesBeyondIt) {
  // 100 samples: p90 = 90.1, and 91..100 lie beyond it.
  ASSERT_TRUE(SupportedPercentile(OneTo(100), 0.9).has_value());
  EXPECT_NEAR(*SupportedPercentile(OneTo(100), 0.9), 90.1, 1e-9);
  // 50 samples leave only five beyond p90.
  EXPECT_FALSE(SupportedPercentile(OneTo(50), 0.9).has_value());
  // p99 needs about a thousand samples.
  EXPECT_FALSE(SupportedPercentile(OneTo(500), 0.99).has_value());
  EXPECT_TRUE(SupportedPercentile(OneTo(1000), 0.99).has_value());
  // Ties: nothing lies strictly beyond a constant sample's percentile.
  const std::vector<double> constant(200, 1.0);
  EXPECT_FALSE(SupportedPercentile(constant, 0.9).has_value());
  EXPECT_EQ(SamplesBeyond(OneTo(10), 7.5), 3u);
}

TEST(AccountingTest, CpuTimeCountsWorkOnEveryThread) {
  const double before = ProcessCpuSeconds();
  auto burn = [] {
    const auto end =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(60);
    volatile double sink = 0.0;
    while (std::chrono::steady_clock::now() < end) {
      sink = sink + std::sqrt(sink + 1.0);
    }
  };
  std::thread other(burn);
  burn();
  other.join();
  EXPECT_GE(ProcessCpuSeconds() - before, 0.09);  // two threads x 60 ms
}

TEST(AccountingTest, PeakRssSeesTouchedMemory) {
  const double before = PeakRssMb();
  {
    std::vector<char> block(size_t{96} << 20);
    std::memset(block.data(), 1, block.size());
    EXPECT_GE(PeakRssMb(), before + 64.0);
  }
  // The peak is a high-water mark: freeing does not lower it.
  EXPECT_GE(PeakRssMb(), before + 64.0);
}

TEST(AccountingTest, ThreadCpuCountsOnlyTheGivenThreads) {
  const std::vector<int> before = ThreadIds();
  ASSERT_FALSE(before.empty());
  std::atomic<bool> stop{false};
  std::atomic<int> started_tid{0};
  std::thread spinner([&] {
    started_tid = static_cast<int>(gettid());
    volatile uint64_t x = 0;
    while (!stop.load()) x = x + 1;
  });
  while (started_tid.load() == 0) std::this_thread::yield();
  const double mine0 = ThreadsCpuSeconds(before);
  const double spin0 = ThreadsCpuSeconds({started_tid.load()});
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const double mine = ThreadsCpuSeconds(before) - mine0;
  const double spin = ThreadsCpuSeconds({started_tid.load()}) - spin0;
  stop = true;
  spinner.join();
  EXPECT_GT(spin, 0.1);   // the spinner ran most of the 200 ms
  EXPECT_LT(mine, 0.05);  // the sleeping threads did not
  EXPECT_EQ(ThreadsCpuSeconds({started_tid.load()}), 0.0);  // exited
}

TEST(ResultJsonTest, CarriesEveryMetricWithItsUnit) {
  std::vector<Metric> metrics;
  for (const auto& [name, unit] : EndToEndMetricUnits()) {
    metrics.push_back({name, 1.25, unit});
  }
  auto json = ResultJson(true, 10, 0, metrics);
  ASSERT_TRUE(json.ok());
  EXPECT_EQ(json->rfind("{\"correct\": true, \"attempted\": 10, "
                        "\"failed\": 0, \"metrics\": {",
                        0),
            0u);
  for (const auto& [name, unit] : EndToEndMetricUnits()) {
    const std::string entry = "\"" + name + "\": {\"value\": 1.25, " +
                              "\"unit\": \"" + unit + "\"}";
    EXPECT_NE(json->find(entry), std::string::npos) << name;
  }
  EXPECT_EQ(json->substr(json->size() - 2), "}}");
}

TEST(ResultJsonTest, KeepsEveryDigitAndRejectsNonFinite) {
  auto json = ResultJson(true, 1, 0, {{"x", 0.1 + 0.2, "ms"}});
  ASSERT_TRUE(json.ok());
  EXPECT_NE(json->find("0.30000000000000004"), std::string::npos);
  EXPECT_FALSE(ResultJson(true, 1, 0, {{"x", std::nan(""), "ms"}}).ok());
  EXPECT_FALSE(ResultJson(true, 1, 0, {{"x", INFINITY, "ms"}}).ok());
}

/// The metrics the program prints are exactly the ones BENCHMARK.json
/// declares, with the same units and order.
TEST(ResultJsonTest, MatchesBenchmarkJson) {
  std::ifstream in(std::string(PERFBENCH_SOURCE_DIR) + "/../BENCHMARK.json");
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string declared = buffer.str();
  using Units = std::vector<std::pair<std::string, std::string>>;
  auto expect_in_order = [&declared](const std::string& section,
                                     const Units& metrics) {
    size_t pos = declared.find("\"" + section + "\"");
    ASSERT_NE(pos, std::string::npos) << section;
    for (const auto& [name, unit] : metrics) {
      const size_t at = declared.find("\"name\": \"" + name + "\"", pos);
      ASSERT_NE(at, std::string::npos) << name;
      const size_t unit_at = declared.find("\"unit\": \"" + unit + "\"", at);
      EXPECT_LT(unit_at, declared.find('}', at)) << name;
      pos = at;
    }
  };
  expect_in_order("end_to_end", EndToEndMetricUnits());
  expect_in_order("per_layer", LayerMetricUnits());
}

TEST(SpanTest, SelfTimeSubtractsChildCoverage) {
  // parent [0, 100); children [10, 30) and [20, 50) overlap; a grandchild
  // inside the first child; a child of another span outside the parent.
  std::vector<SpanRecord> spans = {
      {"parent", 0, 100, 1, 0, 7, 0},
      {"child", 10, 30, 2, 1, 7, 0},
      {"child", 20, 50, 3, 1, 7, 0},
      {"grandchild", 12, 18, 4, 2, 7, 0},
      {"late_child", 90, 130, 5, 1, 7, 1},
  };
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - 40 - 10);  // [10,50) and [90,100) covered
  EXPECT_EQ(self[1], 20 - 6);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 6);
  EXPECT_EQ(self[4], 40);
}

TEST(SpanTest, UnattributedShareIsUncoveredThreadTime) {
  std::vector<SpanRecord> spans = {
      {"a", 0, 50, 1, 0, -1, 0},
      {"b", 25, 75, 2, 0, -1, 0},   // same thread, overlapping: union 75
      {"c", 80, 200, 3, 0, -1, 1},  // clipped to the window: 20
  };
  // Window [0, 100) on two threads: 200 thread-ns, 95 covered.
  EXPECT_NEAR(UnattributedShare(spans, {{0, 100}}, 2), 1.0 - 95.0 / 200.0,
              1e-12);
  // Two windows add up; untraced work [150, 180) on thread 1 leaves the
  // second window [150, 250) with 170 thread-ns available, 50 covered.
  EXPECT_NEAR(UnattributedShare(spans, {{0, 100}, {150, 250}}, 2,
                                {{150, 180}}),
              1.0 - (95.0 + 50.0) / (200.0 + 170.0), 1e-12);
}

TEST(SpanTest, SlicesAlternateAndOverheadComparesNeighbours) {
  Tracer tracer(true);
  const TraceSlices slices(&tracer, 1000, 100);
  EXPECT_EQ(slices.At(1050), nullptr);  // slice 0: untraced
  EXPECT_EQ(slices.At(1150), &tracer);  // slice 1: traced
  EXPECT_EQ(slices.At(1250), nullptr);
  EXPECT_EQ(slices.TracedWindows(1450),
            (std::vector<std::pair<int64_t, int64_t>>{{1100, 1200},
                                                      {1300, 1400}}));
  const TraceSlices off(nullptr, 1000, 100);
  EXPECT_EQ(off.At(1150), nullptr);
  EXPECT_TRUE(off.TracedWindows(1450).empty());

  // Pair (0, 1): 2.0 -> 2.2 per unit (+10%); pair (2, 3): 4.0 -> 4.0; pair
  // (4, 5): 1.0 -> 1.3 (+30%); slice 6 has no partner.
  const std::vector<SliceCost> ops = {
      {0, 2.0, 1}, {0, 6.0, 3}, {1, 4.4, 2}, {2, 4.0, 1}, {3, 8.0, 2},
      {4, 1.0, 1}, {5, 1.3, 1}, {6, 9.0, 1}};
  EXPECT_NEAR(PairedOverheadShare(ops), 0.1, 1e-12);
  EXPECT_EQ(PairedOverheadShare({{0, 1.0, 1}}), 0.0);
}

TEST(SpanTest, TracerRecordsNestingAndCostsNothingWhenOff) {
  Tracer off(false);
  {
    Span a(&off, "a");
    Span b(&off, "b");
    EXPECT_EQ(b.id(), 0u);
  }
  EXPECT_TRUE(off.Collect().empty());

  Tracer on(true);
  uint64_t outer_id = 0;
  {
    Span outer(&on, "outer", 3);
    outer_id = outer.id();
    Span inner(&on, "inner", 3);
    std::thread other(
        [&on, outer_id] { Span remote(&on, "remote", 3, outer_id); });
    other.join();
  }
  const std::vector<SpanRecord> spans = on.Collect();
  ASSERT_EQ(spans.size(), 3u);
  for (const SpanRecord& s : spans) {
    EXPECT_EQ(s.op, 3);
    EXPECT_LE(s.begin_ns, s.end_ns);
    if (std::strcmp(s.name, "outer") == 0) {
      EXPECT_EQ(s.parent, 0u);
    }
    if (std::strcmp(s.name, "inner") == 0 ||
        std::strcmp(s.name, "remote") == 0) {
      EXPECT_EQ(s.parent, outer_id) << s.name;
    }
  }
}

TEST(GeneratorTest, SameSeedSameInputs) {
  auto digest_of = [](uint64_t seed) {
    const auto site = MakeSite(seed, 32, 3, 4);
    engine::serving::CorpusParts parts;
    parts.interviews = Interviews(site);
    AddSyntheticVideos(site.video_oids, seed, &parts);
    QueryDomain domain;
    domain.players = 32;
    domain.years = 3;
    domain.probes = SignatureProbes(parts);
    Digest digest;
    DigestParts(parts, &digest);
    DigestStream(MakeQueryStream(domain, seed, 2000), &digest);
    return digest.value();
  };
  EXPECT_EQ(digest_of(5), digest_of(5));
  EXPECT_NE(digest_of(5), digest_of(6));
}

TEST(GeneratorTest, CodedBroadcastsAreDeterministicForAnyThreadCount) {
  const auto site = MakeSite(9, 8, 1, 2);
  auto one = MakeCodedBroadcasts(site, site.video_oids, 9, 1);
  auto two = MakeCodedBroadcasts(site, site.video_oids, 9, 2);
  ASSERT_TRUE(one.ok() && two.ok());
  Digest a, b;
  DigestBroadcasts(*one, &a);
  DigestBroadcasts(*two, &b);
  EXPECT_EQ(a.value(), b.value());
  ASSERT_EQ(one->size(), site.video_oids.size());
  EXPECT_GT((*one)[0].frames, 0);
  EXPECT_EQ((*one)[0].video_oid, site.video_oids[0]);
}

TEST(GeneratorTest, StreamSharesAreExactAndTheRestDistinct) {
  QueryDomain domain;
  domain.players = 96;
  domain.years = 8;
  for (int64_t v = 1; v <= 50; ++v) domain.probes.emplace_back(v, 100);
  const auto stream = MakeQueryStream(domain, 3, 5000);
  ASSERT_EQ(stream.size(), 5000u);
  size_t by_class[kNumQueryClasses] = {};
  size_t pool = 0;
  std::set<std::string> rest;
  for (size_t i = 0; i < stream.size(); ++i) {
    ++by_class[static_cast<int>(stream[i].cls)];
    if (stream[i].from_pool) {
      ++pool;
      EXPECT_EQ(i % 5, 0u);
      EXPECT_TRUE(stream[i].cls == QueryClass::kConcept ||
                  stream[i].cls == QueryClass::kText);
    } else {
      EXPECT_TRUE(rest.insert(stream[i].text).second) << stream[i].text;
    }
  }
  EXPECT_EQ(pool, 1000u);
  EXPECT_EQ(by_class[static_cast<int>(QueryClass::kConcept)], 500u);
  EXPECT_EQ(by_class[static_cast<int>(QueryClass::kText)], 500u);
  EXPECT_EQ(by_class[static_cast<int>(QueryClass::kEvent)], 3500u);
  EXPECT_EQ(by_class[static_cast<int>(QueryClass::kSimilar)], 500u);
}

TEST(ComparatorTest, RejectsACorruptedAnswer) {
  engine::SceneHit hit;
  hit.player_oid = 4;
  hit.player_name = "Ana";
  hit.video_oid = 17;
  hit.range = {100, 180};
  hit.event = "net_play";
  hit.text_score = 0.75;
  const std::vector<engine::SceneHit> expected = {hit, hit};
  EXPECT_EQ(CompareHits(expected, expected), "");

  std::vector<engine::SceneHit> corrupted = expected;
  uint64_t bits = 0;
  std::memcpy(&bits, &corrupted[1].text_score, sizeof(bits));
  bits ^= 1;  // one ulp
  std::memcpy(&corrupted[1].text_score, &bits, sizeof(bits));
  EXPECT_NE(CompareHits(expected, corrupted), "");

  corrupted = expected;
  corrupted[0].range.end = 181;
  EXPECT_NE(CompareHits(expected, corrupted), "");
  EXPECT_NE(CompareHits(expected, {hit}), "");
  EXPECT_EQ(TopN(expected, 1).size(), 1u);

  const Result<std::vector<engine::SceneHit>> ok = expected;
  const Result<std::vector<engine::SceneHit>> error =
      Status::InvalidArgument("bad");
  EXPECT_NE(CompareAnswers(ok, error), "");
  EXPECT_NE(CompareAnswers(error, ok), "");
  EXPECT_EQ(CompareAnswers(error, error), "");
}

}  // namespace
}  // namespace cobra::perfbench
