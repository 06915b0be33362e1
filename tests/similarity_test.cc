/// \file similarity_test.cc
/// SIMD perceptual signatures + sublinear ANN index (DESIGN.md §4j):
///   * the signature distance kernels are bit-identical across SIMD tiers,
///     single-pair and strided-batch forms alike;
///   * SearchSimilar answers bit-identically to the exhaustive oracle
///     across band counts, signature prefixes, k values and SIMD tiers
///     (property sweep), and FindNearDuplicates equals a brute-force pair
///     scan;
///   * the similar_to stage end to end: query-language parsing, planner vs
///     fixed-order bit-identity, probe-not-found error parity;
///   * serving shard invariance: 1, 2 and 7 shards answer similar_to
///     queries bit-identically to the unsharded oracle through the
///     frontend's global similar seed;
///   * durable roundtrip: signatures survive flush + reopen (zero-copy
///     base chunks) and WAL replay of an unflushed window;
///   * extraction over synthesized broadcasts: transformed near-duplicate
///     clips rank their ground-truth source shot first, and the shared
///     frame cache reports hits on re-extraction;
///   * (tsan) concurrent extraction over one shared FrameFeatureCache is
///     race-free and agrees with the sequential pass.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/ingest_delta.h"
#include "engine/digital_library.h"
#include "engine/durable_library.h"
#include "engine/query_language.h"
#include "engine/serving/partition.h"
#include "engine/serving/serving.h"
#include "engine/similarity/similarity.h"
#include "media/near_duplicate.h"
#include "media/tennis_synthesizer.h"
#include "oracles/fixed_order.h"
#include "util/rng.h"
#include "vision/signature.h"
#include "vision/signature_kernels.h"
#include "webspace/site_synthesizer.h"

namespace cobra::engine {
namespace {

using similarity::Neighbor;
using similarity::SignatureIndex;
using similarity::SignatureIndexConfig;
using storage::CompareOp;

vision::SignatureRecord MakeRecord(Rng* rng, int64_t video, int64_t begin,
                                   int64_t end) {
  vision::SignatureRecord rec;
  for (uint64_t& word : rec.sig.hash) word = rng->NextU64();
  for (uint8_t& byte : rec.sig.sketch) {
    byte = static_cast<uint8_t>(rng->NextBounded(256));
  }
  rec.video_id = video;
  rec.begin = begin;
  rec.end = end;
  return rec;
}

/// Flips `flips` random hash bits and nudges a few sketch bins — a planted
/// near-duplicate at a known Hamming distance scale.
vision::ShotSignature Perturb(const vision::ShotSignature& sig, int flips,
                              Rng* rng) {
  vision::ShotSignature out = sig;
  for (int f = 0; f < flips; ++f) {
    const uint32_t bit = static_cast<uint32_t>(rng->NextBounded(256));
    out.hash[bit / 64] ^= uint64_t{1} << (bit % 64);
  }
  for (uint8_t& byte : out.sketch) {
    if (rng->NextBounded(4) == 0) {
      byte = static_cast<uint8_t>(
          std::min<int64_t>(255, byte + rng->NextBounded(5)));
    }
  }
  return out;
}

/// Random per-shot records for `num_videos` videos plus planted
/// near-duplicates of every 5th shot under later video ids. Random 256-bit
/// signatures sit ~128 bits apart, so only the planted pairs fall inside
/// the default max_hamming threshold — the interesting regime.
std::vector<vision::SignatureRecord> MakeRecordCorpus(int64_t num_videos,
                                                      int64_t shots_per_video,
                                                      Rng* rng) {
  std::vector<vision::SignatureRecord> records;
  for (int64_t v = 0; v < num_videos; ++v) {
    for (int64_t s = 0; s < shots_per_video; ++s) {
      records.push_back(MakeRecord(rng, v + 1, s * 120, s * 120 + 119));
    }
  }
  const size_t base = records.size();
  for (size_t i = 0; i < base; i += 5) {
    vision::SignatureRecord dup = records[i];
    dup.sig = Perturb(dup.sig, 1 + static_cast<int>(rng->NextBounded(14)), rng);
    dup.video_id = num_videos + 1 + static_cast<int64_t>(i % 3);
    dup.begin = static_cast<int64_t>(i) * 120;
    dup.end = dup.begin + 119;
    records.push_back(dup);
  }
  return records;
}

void ExpectSameNeighbors(const std::vector<Neighbor>& expected,
                         const std::vector<Neighbor>& actual,
                         const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].hamming, actual[i].hamming) << label << " hit " << i;
    EXPECT_EQ(expected[i].l2sq, actual[i].l2sq) << label << " hit " << i;
    // Pointer identity: the exact same record, not an equal-looking one.
    EXPECT_EQ(expected[i].record, actual[i].record) << label << " hit " << i;
  }
}

// ---------------------------------------------------------------------------
// Kernel tiers.

TEST(SignatureKernelsTest, TiersAreBitIdentical) {
  namespace sk = vision::signature_kernels;
  Rng rng(404);
  std::vector<vision::SignatureRecord> records;
  for (int i = 0; i < 257; ++i) {
    records.push_back(MakeRecord(&rng, i, 0, 10));
  }
  const auto& scalar = sk::ScalarOps();
  const auto* hash_base = reinterpret_cast<const uint8_t*>(records[0].sig.hash);
  const auto* sketch_base = records[0].sig.sketch;
  constexpr size_t kStride = sizeof(vision::SignatureRecord);
  for (sk::SimdLevel level : {sk::SimdLevel::kSse41, sk::SimdLevel::kAvx2}) {
    const sk::SignatureKernelOps* ops = sk::OpsFor(level);
    if (ops == nullptr) continue;  // tier not compiled or not supported here
    for (int q = 0; q < 8; ++q) {
      vision::ShotSignature query =
          records[rng.NextBounded(records.size())].sig;
      if (q % 2 == 1) {
        query = Perturb(query, static_cast<int>(rng.NextBounded(40)), &rng);
      }
      for (const vision::SignatureRecord& rec : records) {
        EXPECT_EQ(scalar.Hamming256(query.hash, rec.sig.hash),
                  ops->Hamming256(query.hash, rec.sig.hash));
        EXPECT_EQ(scalar.L2Sq32(query.sketch, rec.sig.sketch),
                  ops->L2Sq32(query.sketch, rec.sig.sketch));
      }
      // Batch kernels stride whole records; odd lengths exercise the tails.
      for (size_t n : {size_t{1}, size_t{7}, records.size()}) {
        std::vector<uint32_t> want(n), got(n);
        scalar.Hamming256Batch(query.hash, hash_base, kStride, n, want.data());
        ops->Hamming256Batch(query.hash, hash_base, kStride, n, got.data());
        EXPECT_EQ(want, got) << "hamming n=" << n;
        scalar.L2Sq32Batch(query.sketch, sketch_base, kStride, n, want.data());
        ops->L2Sq32Batch(query.sketch, sketch_base, kStride, n, got.data());
        EXPECT_EQ(want, got) << "l2 n=" << n;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The ANN index vs the exhaustive oracle.

TEST(SignatureIndexTest, RejectsMalformedConfigs) {
  SignatureIndex index;
  SignatureIndexConfig config;
  config.ann_bands = 0;
  EXPECT_FALSE(index.SetConfig(config).ok());
  config.ann_bands = 3;  // does not divide 256
  EXPECT_FALSE(index.SetConfig(config).ok());
  config = {};
  config.signature_bits = 100;  // not a whole number of words
  EXPECT_FALSE(index.SetConfig(config).ok());
  config = {};
  config.rerank_k = 0;
  EXPECT_FALSE(index.SetConfig(config).ok());
  config = {};
  EXPECT_TRUE(index.SetConfig(config).ok());
}

TEST(SignatureIndexTest, AnnEqualsExhaustiveAcrossConfigsAndTiers) {
  namespace sk = vision::signature_kernels;
  Rng rng(1205);
  const std::vector<vision::SignatureRecord> records =
      MakeRecordCorpus(/*num_videos=*/8, /*shots_per_video=*/40, &rng);

  // Queries: planted duplicates' sources, fresh perturbations at several
  // strengths (inside and outside the threshold), and pure noise.
  std::vector<vision::ShotSignature> queries;
  for (size_t i = 0; i < records.size(); i += 17) {
    queries.push_back(records[i].sig);
    queries.push_back(
        Perturb(records[i].sig, 1 + static_cast<int>(rng.NextBounded(40)),
                &rng));
  }
  for (int i = 0; i < 4; ++i) queries.push_back(MakeRecord(&rng, 0, 0, 1).sig);

  const sk::SimdLevel original = sk::ActiveLevel();
  for (sk::SimdLevel level :
       {sk::SimdLevel::kScalar, sk::SimdLevel::kSse41, sk::SimdLevel::kAvx2}) {
    if (sk::OpsFor(level) == nullptr) continue;
    sk::SetActiveLevel(level);
    for (int bands : {4, 8, 16}) {
      for (int bits : {64, 256}) {
        SignatureIndexConfig config;
        config.ann_bands = bands;
        config.signature_bits = bits;
        SignatureIndex index(config);
        ASSERT_EQ(index.config().ann_bands, bands);
        index.AddRecords(records.data(), records.size());
        for (size_t qi = 0; qi < queries.size(); ++qi) {
          for (size_t k : {size_t{1}, size_t{5}, size_t{64}}) {
            similarity::SimilaritySearchStats stats;
            const auto fast = index.SearchSimilar(queries[qi], k, &stats);
            const auto oracle = index.SearchSimilarExhaustive(queries[qi], k);
            ExpectSameNeighbors(
                oracle, fast,
                "tier=" + std::to_string(static_cast<int>(level)) +
                    " bands=" + std::to_string(bands) +
                    " bits=" + std::to_string(bits) +
                    " q=" + std::to_string(qi) + " k=" + std::to_string(k));
            // Every result honors the threshold and the HLB never exceeds
            // the best result's distance.
            for (const Neighbor& nb : fast) {
              EXPECT_LE(nb.hamming, config.max_hamming);
            }
            if (!fast.empty()) {
              EXPECT_LE(index.HammingLowerBound(queries[qi]),
                        fast.front().hamming);
            }
          }
        }
      }
    }
  }
  sk::SetActiveLevel(original);
}

TEST(SignatureIndexTest, ExhaustiveFallbackOnTinyIndexes) {
  // With a handful of records every enumeration beats nothing: the index
  // must fall back to the scan and still answer exactly.
  Rng rng(77);
  SignatureIndex index;
  std::vector<vision::SignatureRecord> records;
  for (int i = 0; i < 3; ++i) records.push_back(MakeRecord(&rng, 1, i, i));
  index.AddRecords(records.data(), records.size());
  similarity::SimilaritySearchStats stats;
  const auto fast = index.SearchSimilar(records[1].sig, 2, &stats);
  EXPECT_TRUE(stats.exhaustive_fallback);
  ExpectSameNeighbors(index.SearchSimilarExhaustive(records[1].sig, 2), fast,
                      "tiny");
}

TEST(SignatureIndexTest, FindNearDuplicatesEqualsBruteForce) {
  Rng rng(88);
  const std::vector<vision::SignatureRecord> records =
      MakeRecordCorpus(/*num_videos=*/4, /*shots_per_video=*/25, &rng);
  SignatureIndex index;
  index.AddRecords(records.data(), records.size());

  for (uint32_t threshold : {uint32_t{8}, uint32_t{31}}) {
    const auto& ops = vision::signature_kernels::Ops();
    std::vector<SignatureIndex::DuplicatePair> expected;
    for (size_t i = 0; i < records.size(); ++i) {
      for (size_t j = i + 1; j < records.size(); ++j) {
        const uint32_t hamming =
            ops.Hamming256(records[i].sig.hash, records[j].sig.hash);
        if (hamming > threshold) continue;
        SignatureIndex::DuplicatePair pair;
        pair.a = &index.record(i);
        pair.b = &index.record(j);
        pair.hamming = hamming;
        pair.l2sq = ops.L2Sq32(records[i].sig.sketch, records[j].sig.sketch);
        expected.push_back(pair);
      }
    }
    auto key = [](const SignatureIndex::DuplicatePair& p) {
      return std::make_tuple(p.a->video_id, p.a->begin, p.b->video_id,
                             p.b->begin);
    };
    std::sort(expected.begin(), expected.end(),
              [&](const auto& x, const auto& y) { return key(x) < key(y); });

    const auto actual = index.FindNearDuplicates(threshold);
    ASSERT_EQ(expected.size(), actual.size()) << "threshold " << threshold;
    EXPECT_GT(actual.size(), 0u);  // the planted pairs must surface
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(expected[i].a, actual[i].a) << i;
      EXPECT_EQ(expected[i].b, actual[i].b) << i;
      EXPECT_EQ(expected[i].hamming, actual[i].hamming) << i;
      EXPECT_EQ(expected[i].l2sq, actual[i].l2sq) << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Query language.

TEST(QueryLanguageTest, ParsesSimilarToClause) {
  auto query = ParseQuery("similar_to = 12:3400").TakeValue();
  EXPECT_EQ(query.similar_video, 12);
  EXPECT_EQ(query.similar_frame, 3400);
  EXPECT_EQ(query.similar_k, 0u);

  query = ParseQuery("event = net_play AND similar_to = 7:0 AND similar_to.k = 5")
              .TakeValue();
  EXPECT_EQ(query.event, "net_play");
  EXPECT_EQ(query.similar_video, 7);
  EXPECT_EQ(query.similar_frame, 0);
  EXPECT_EQ(query.similar_k, 5u);
  EXPECT_NE(FormatQuery(query).find("similar_to"), std::string::npos);

  EXPECT_FALSE(ParseQuery("similar_to = 12").ok());        // missing frame
  EXPECT_FALSE(ParseQuery("similar_to = a:b").ok());       // not numeric
  EXPECT_FALSE(ParseQuery("similar_to.k = 3").ok());       // k without probe
  EXPECT_FALSE(ParseQuery("similar_to = 1:2 AND similar_to.k = 0").ok());
}

// ---------------------------------------------------------------------------
// Library-level similar_to: planner vs fixed order, error parity.

struct LibraryFixture {
  serving::CorpusParts parts;
  std::unique_ptr<DigitalLibrary> library;
  int64_t probe_video = -1;  ///< a video with indexed signatures
};

core::VideoDescription MakeVideoDesc(int64_t oid) {
  const char* events[] = {"net_play", "rally", "service", "smash"};
  Rng rng(static_cast<uint64_t>(oid) * 977 + 5);
  core::VideoDescription desc(oid, "synthetic", 25.0, 40000);
  for (int e = 0; e < 24; ++e) {
    const int64_t begin = rng.NextInt(0, 39000);
    desc.Add(core::CobraLayer::kEvent,
             grammar::Annotation(events[rng.NextBounded(4)],
                                 {begin, begin + rng.NextInt(10, 900)})
                 .Set("player", rng.NextInt(-1, 1)));
  }
  return desc;
}

LibraryFixture MakeLibraryFixture() {
  webspace::SiteConfig config;
  config.num_players = 16;
  config.num_past_years = 3;
  config.videos_per_year = 2;
  config.seed = 2013;
  config.ensure_answer = true;
  auto site = webspace::SiteSynthesizer::Generate(config).TakeValue();

  LibraryFixture out;
  out.parts.store = std::move(site.store);
  for (const auto& [oid, body] : site.interview_texts) {
    out.parts.interviews.emplace_back(oid, body);
  }
  for (int64_t oid : site.video_oids) {
    out.parts.videos.push_back(MakeVideoDesc(oid));
  }
  // Per-video signatures with cross-video planted near-duplicates: shot s
  // of every video perturbs a common per-s base signature, so every shot
  // has neighbors in most other videos.
  Rng rng(515);
  std::vector<vision::ShotSignature> bases;
  for (int s = 0; s < 12; ++s) bases.push_back(MakeRecord(&rng, 0, 0, 1).sig);
  for (int64_t oid : site.video_oids) {
    std::vector<vision::SignatureRecord> records;
    for (int s = 0; s < 12; ++s) {
      vision::SignatureRecord rec;
      rec.sig = Perturb(bases[s], 1 + static_cast<int>(rng.NextBounded(20)),
                        &rng);
      rec.video_id = oid;
      rec.begin = s * 3000;
      rec.end = s * 3000 + 2999;
      records.push_back(rec);
    }
    out.parts.signatures.emplace_back(oid, std::move(records));
  }
  out.probe_video = site.video_oids.front();
  out.library = serving::BuildLibrary(out.parts).TakeValue();
  return out;
}

std::vector<CombinedQuery> SimilarQueries(const LibraryFixture& fixture) {
  std::vector<CombinedQuery> queries;
  Rng rng(99);
  for (int i = 0; i < 24; ++i) {
    CombinedQuery query;
    query.similar_video = fixture.probe_video;
    query.similar_frame = rng.NextInt(0, 35999);
    if (i % 4 == 1) query.event = "net_play";
    if (i % 4 == 2) {
      query.player_predicates.push_back(
          {"gender", CompareOp::kEq, std::string("female")});
      query.event = "rally";
    }
    if (i % 4 == 3) {
      query.text = "champion title";
      query.event = "service";
      query.similar_k = 1 + rng.NextBounded(8);
    }
    if (i % 6 == 5) query.similar_k = 40;  // more than the neighbor count
    queries.push_back(std::move(query));
  }
  // Probe resolution failures: unknown video, frame past every shot.
  CombinedQuery missing;
  missing.similar_video = 999999;
  missing.similar_frame = 10;
  queries.push_back(missing);
  missing.similar_video = fixture.probe_video;
  missing.similar_frame = 39999;  // past the last signed shot (12 * 3000)
  queries.push_back(missing);
  return queries;
}

void ExpectSameHits(const std::vector<SceneHit>& expected,
                    const std::vector<SceneHit>& actual,
                    const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    const SceneHit& a = expected[i];
    const SceneHit& b = actual[i];
    EXPECT_EQ(a.player_oid, b.player_oid) << label << " hit " << i;
    EXPECT_EQ(a.video_oid, b.video_oid) << label << " hit " << i;
    EXPECT_EQ(a.range.begin, b.range.begin) << label << " hit " << i;
    EXPECT_EQ(a.range.end, b.range.end) << label << " hit " << i;
    EXPECT_EQ(a.event, b.event) << label << " hit " << i;
    uint64_t bits_a = 0, bits_b = 0;
    std::memcpy(&bits_a, &a.similarity, 8);
    std::memcpy(&bits_b, &b.similarity, 8);
    EXPECT_EQ(bits_a, bits_b) << label << " hit " << i;
    std::memcpy(&bits_a, &a.text_score, 8);
    std::memcpy(&bits_b, &b.text_score, 8);
    EXPECT_EQ(bits_a, bits_b) << label << " hit " << i;
  }
}

TEST(SimilarSearchTest, PlannerMatchesFixedOrderOnSimilarQueries) {
  LibraryFixture fixture = MakeLibraryFixture();
  const auto queries = SimilarQueries(fixture);
  size_t non_empty = 0;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    auto fixed = SearchFixedOrder(*fixture.library, queries[qi]);
    auto planned = fixture.library->Search(queries[qi]);
    const std::string label = "query " + std::to_string(qi);
    ASSERT_EQ(fixed.ok(), planned.ok()) << label;
    if (!fixed.ok()) {
      // Error parity: the planner reproduces the oracle's failure exactly.
      EXPECT_EQ(fixed.status().ToString(), planned.status().ToString())
          << label;
      continue;
    }
    ExpectSameHits(*fixed, *planned, label);
    if (!fixed->empty()) ++non_empty;
    for (const SceneHit& hit : *fixed) {
      EXPECT_GE(hit.similarity, 0.0) << label;  // similar queries carry keys
      EXPECT_NE(hit.video_oid, -1) << label;
    }
  }
  EXPECT_GT(non_empty, 5u);  // the sweep must actually exercise results
}

TEST(SimilarSearchTest, ProbeWithoutSignatureIsNotFound) {
  LibraryFixture fixture = MakeLibraryFixture();
  CombinedQuery query;
  query.similar_video = 123456789;
  query.similar_frame = 0;
  auto result = fixture.library->Search(query);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotFound()) << result.status().ToString();
}

// ---------------------------------------------------------------------------
// Serving: shard-count invariance with the frontend similar seed.

std::vector<const DigitalLibrary*> Views(
    const std::vector<std::unique_ptr<DigitalLibrary>>& shards) {
  std::vector<const DigitalLibrary*> views;
  for (const auto& shard : shards) views.push_back(shard.get());
  return views;
}

TEST(SimilarServingTest, ShardCountInvarianceOnSimilarQueries) {
  LibraryFixture fixture = MakeLibraryFixture();
  const auto queries = SimilarQueries(fixture);
  for (size_t num_shards : {size_t{1}, size_t{2}, size_t{7}}) {
    auto shards =
        serving::BuildShardLibraries(fixture.parts, num_shards).TakeValue();
    auto frontend =
        serving::ServingFrontend::Create(Views(shards), serving::ServingConfig{})
            .TakeValue();
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      for (size_t top_n : {size_t{3}, size_t{0}}) {
        auto expected = fixture.library->Search(queries[qi]);
        serving::QueryStats qs;
        auto actual = frontend->Search(queries[qi], top_n, &qs);
        const std::string label = "shards=" + std::to_string(num_shards) +
                                  " query=" + std::to_string(qi) +
                                  " n=" + std::to_string(top_n);
        ASSERT_EQ(expected.ok(), actual.ok())
            << label << " " << expected.status().ToString() << " vs "
            << actual.status().ToString();
        if (!expected.ok()) {
          EXPECT_EQ(expected.status().ToString(), actual.status().ToString())
              << label;
          continue;
        }
        if (top_n > 0 && expected->size() > top_n) expected->resize(top_n);
        ExpectSameHits(*expected, *actual, label);
        EXPECT_TRUE(qs.similar_seeded) << label;
        EXPECT_FALSE(qs.single_shard_routed) << label;
      }
    }
    const serving::ServingStats stats = frontend->stats();
    EXPECT_GT(stats.similar_seeded, 0);
  }
}

// ---------------------------------------------------------------------------
// Durable roundtrip: flushed base chunks and WAL replay.

std::string TempDirPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  std::filesystem::remove_all(path);
  return path;
}

TEST(SimilarDurableTest, SignaturesSurviveFlushAndWalReplay) {
  LibraryFixture fixture = MakeLibraryFixture();
  const std::string dir = TempDirPath("similarity_durable");

  // Probe set reused across the lifecycle stages below.
  std::vector<vision::ShotSignature> probes;
  for (const auto& [oid, records] : fixture.parts.signatures) {
    (void)oid;
    probes.push_back(records[3].sig);
  }
  // Deep copies: the records a Neighbor points at die with their library,
  // and the snapshots must outlive reopen cycles.
  struct NeighborCopy {
    uint32_t hamming = 0;
    uint32_t l2sq = 0;
    vision::SignatureRecord rec;
  };
  auto snapshot = [&](const DigitalLibrary& library) {
    std::vector<std::vector<NeighborCopy>> out;
    for (const auto& probe : probes) {
      std::vector<NeighborCopy> copies;
      for (const Neighbor& nb : library.signatures().SearchSimilar(probe, 8)) {
        copies.push_back({nb.hamming, nb.l2sq, *nb.record});
      }
      out.push_back(std::move(copies));
    }
    return out;
  };
  auto expect_same = [&](const std::vector<std::vector<NeighborCopy>>& want,
                         const std::vector<std::vector<NeighborCopy>>& got,
                         const std::string& label) {
    ASSERT_EQ(want.size(), got.size()) << label;
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(want[i].size(), got[i].size()) << label << " probe " << i;
      for (size_t j = 0; j < want[i].size(); ++j) {
        EXPECT_EQ(want[i][j].hamming, got[i][j].hamming) << label;
        EXPECT_EQ(want[i][j].l2sq, got[i][j].l2sq) << label;
        EXPECT_EQ(want[i][j].rec.video_id, got[i][j].rec.video_id) << label;
        EXPECT_EQ(want[i][j].rec.begin, got[i][j].rec.begin) << label;
        EXPECT_EQ(want[i][j].rec.end, got[i][j].rec.end) << label;
      }
    }
  };

  std::vector<std::vector<NeighborCopy>> flushed_answers;
  const auto& last_batch = fixture.parts.signatures.back();
  {
    webspace::SiteConfig config;
    config.num_players = 16;
    config.num_past_years = 3;
    config.videos_per_year = 2;
    config.seed = 2013;
    config.ensure_answer = true;
    auto site = webspace::SiteSynthesizer::Generate(config).TakeValue();
    auto durable =
        DurableLibrary::Create(dir, std::move(site.store)).TakeValue();
    for (const auto& desc : fixture.parts.videos) {
      ASSERT_TRUE(durable->Apply(core::IngestDelta::Video(desc, {})).ok());
    }
    // All but the last batch land before the flush (the segment path)...
    for (size_t i = 0; i + 1 < fixture.parts.signatures.size(); ++i) {
      const auto& [oid, records] = fixture.parts.signatures[i];
      ASSERT_TRUE(
          durable->Apply(core::IngestDelta::Signatures(oid, records)).ok());
    }
    ASSERT_TRUE(durable->Flush().ok());
    // ... and the last one stays WAL-only.
    ASSERT_TRUE(durable
                    ->Apply(core::IngestDelta::Signatures(last_batch.first,
                                                          last_batch.second))
                    .ok());
    flushed_answers = snapshot(durable->library());
  }
  {
    auto durable = DurableLibrary::Open(dir).TakeValue();
    EXPECT_EQ(durable->library().signatures().num_records(),
              fixture.parts.signatures.size() * 12);
    expect_same(flushed_answers, snapshot(durable->library()), "wal replay");
    // Flush the replayed window and compact: the mmap'd base-chunk path.
    ASSERT_TRUE(durable->Flush().ok());
    ASSERT_TRUE(durable->Compact().ok());
    expect_same(flushed_answers, snapshot(durable->library()), "compacted");
  }
  {
    auto durable = DurableLibrary::Open(dir).TakeValue();
    expect_same(flushed_answers, snapshot(durable->library()),
                "compacted reopen");
    // The restored index answers similar_to queries like the in-memory one.
    CombinedQuery query;
    query.similar_video = fixture.probe_video;
    query.similar_frame = 100;
    auto expected = fixture.library->Search(query);
    auto actual = durable->library().Search(query);
    ASSERT_TRUE(expected.ok() && actual.ok());
    ExpectSameHits(*expected, *actual, "durable search");
  }
}

// ---------------------------------------------------------------------------
// Extraction over synthesized broadcasts + near-duplicate ranking.

TEST(SignatureExtractionTest, NearDuplicateClipsRankTheirSourceFirst) {
  media::TennisSynthConfig config;
  config.seed = 97;
  config.num_points = 6;
  auto broadcast =
      media::TennisBroadcastSynthesizer(config).Synthesize().TakeValue();

  vision::FrameFeatureCache cache(*broadcast.video);
  std::vector<FrameInterval> shots;
  for (const auto& shot : broadcast.truth.shots) shots.push_back(shot.range);
  vision::SignatureExtractionStats stats;
  auto sources =
      vision::ExtractShotSignatures(cache, /*video_id=*/1, shots, &stats)
          .TakeValue();
  ASSERT_EQ(sources.size(), shots.size());
  EXPECT_EQ(stats.shots, static_cast<int64_t>(shots.size()));
  EXPECT_GT(stats.cache_misses, 0);

  // A second pass rides entirely on the shared cache.
  vision::SignatureExtractionStats again;
  auto repeat =
      vision::ExtractShotSignatures(cache, /*video_id=*/1, shots, &again)
          .TakeValue();
  EXPECT_EQ(again.cache_misses, 0);
  EXPECT_GT(again.cache_hits, 0);
  for (size_t i = 0; i < sources.size(); ++i) {
    EXPECT_TRUE(repeat[i].sig == sources[i].sig) << i;  // deterministic
  }

  SignatureIndexConfig index_config;
  index_config.max_hamming = 96;  // transforms move more bits than noise
  SignatureIndex index(index_config);
  index.AddRecords(sources.data(), sources.size());

  auto clips = media::MakeNearDuplicateClips(*broadcast.video, broadcast.truth,
                                             /*every_nth=*/1,
                                             /*min_frames=*/10, {})
                   .TakeValue();
  ASSERT_GT(clips.size(), 3u);
  // Everything below is deterministic: seeded synthesis, seeded transforms,
  // integer-exact extraction — the counts cannot drift between runs or
  // platforms. The broadcast itself contains perceptual near-duplicates
  // (different points on the same court), so the properties are ranking
  // ones, not strict top-1: the noise grade barely moves the hash, and
  // clips whose transform stayed inside the threshold recall their paired
  // source in the top 3.
  const auto& ops = vision::signature_kernels::Ops();
  size_t eligible = 0, recalled_at3 = 0, noise_total = 0, noise_mild = 0;
  for (const auto& clip : clips) {
    vision::FrameFeatureCache clip_cache(*clip.video);
    const std::vector<FrameInterval> clip_shots = {
        {0, clip.video->num_frames() - 1}};
    auto clip_records =
        vision::ExtractShotSignatures(clip_cache, /*video_id=*/2, clip_shots)
            .TakeValue();
    uint32_t true_hamming = 256;
    for (const auto& src : sources) {
      if (src.begin == clip.source_range.begin) {
        true_hamming = ops.Hamming256(clip_records[0].sig.hash, src.sig.hash);
      }
    }
    if (clip.transform == media::NearDuplicateTransform::kNoise) {
      ++noise_total;
      if (true_hamming <= SignatureIndexConfig{}.max_hamming) ++noise_mild;
    }
    if (true_hamming > index_config.max_hamming) continue;
    ++eligible;
    for (const Neighbor& nb : index.SearchSimilar(clip_records[0].sig, 3)) {
      if (nb.record->begin == clip.source_range.begin) {
        ++recalled_at3;
        break;
      }
    }
  }
  EXPECT_GE(noise_total, 4u);
  EXPECT_EQ(noise_mild, noise_total);  // noise stays inside the default 31
  EXPECT_GE(eligible, 10u);
  EXPECT_GE(recalled_at3 * 4, eligible * 3)
      << recalled_at3 << " of " << eligible
      << " recoverable clips recalled their source in the top 3";
}

// Label: tsan — extraction threads share one FrameFeatureCache.
TEST(SignatureExtractionTest, ConcurrentExtractionIsRaceFreeAndDeterministic) {
  media::TennisSynthConfig config;
  config.seed = 41;
  config.num_points = 4;
  auto broadcast =
      media::TennisBroadcastSynthesizer(config).Synthesize().TakeValue();
  vision::FrameFeatureCache cache(*broadcast.video);
  std::vector<FrameInterval> shots;
  for (const auto& shot : broadcast.truth.shots) shots.push_back(shot.range);

  auto sequential =
      vision::ExtractShotSignatures(cache, /*video_id=*/1, shots).TakeValue();

  std::vector<std::vector<vision::SignatureRecord>> results(4);
  std::vector<std::thread> threads;
  for (auto& slot : results) {
    threads.emplace_back([&cache, &shots, &slot] {
      slot = vision::ExtractShotSignatures(cache, /*video_id=*/1, shots)
                 .TakeValue();
    });
  }
  for (auto& thread : threads) thread.join();
  for (const auto& result : results) {
    ASSERT_EQ(result.size(), sequential.size());
    for (size_t i = 0; i < result.size(); ++i) {
      EXPECT_TRUE(result[i].sig == sequential[i].sig) << i;
    }
  }
}

}  // namespace
}  // namespace cobra::engine
