/// \file serving_test.cc
/// The sharded scatter-gather serving tier (DESIGN.md §4i):
///   * shard-count invariance: 1, 2 and 7 shards answer the 16-modality
///     sweep bit-identically to the unsharded oracle at every top-N, and
///     fail malformed queries with the oracle's status;
///   * the per-shard top-N pushdown: on a corpus full of ties (duplicate
///     plays_in edges, a video described twice, court-level events, equal
///     text scores) the frontend's top-N equals the fixed-order oracle's
///     answer truncated to N, for event, event + text and event + similar
///     queries;
///   * the frontend text seed never changes results (seeded vs unseeded
///     evaluation on one library, through the planner and the fixed-order
///     oracle);
///   * bound-based shard pruning happens and never changes results;
///   * the durable shard build writes one segment and an empty WAL per
///     shard, and a reopened shard answers like the in-memory one;
///   * a paused backend degrades at the deadline instead of stalling, and
///     full queues shed with Unavailable instead of queueing unboundedly;
///   * per-shard epoch invalidation: mutating one shard is picked up
///     lazily while the other shards' caches stay live;
///   * (tsan) queries race CompactAsync and ReloadShard through the
///     index-epoch seam and stay bit-identical throughout.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/video_description.h"
#include "engine/digital_library.h"
#include "engine/durable_library.h"
#include "engine/serving/partition.h"
#include "engine/serving/serving.h"
#include "oracles/fixed_order.h"
#include "oracles/malformed_queries.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "vision/signature.h"
#include "webspace/site_synthesizer.h"

namespace cobra::engine::serving {
namespace {

using storage::CompareOp;

core::VideoDescription MakeVideo(int64_t oid, uint64_t salt = 5) {
  const char* events[] = {"net_play", "rally", "service", "smash"};
  Rng rng(static_cast<uint64_t>(oid) * 977 + salt);
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

CorpusParts MakeParts(int num_players = 24, int videos_per_year = 2) {
  webspace::SiteConfig config;
  config.num_players = num_players;
  config.num_past_years = 4;
  config.videos_per_year = videos_per_year;
  config.seed = 2013;
  config.ensure_answer = true;
  auto site = webspace::SiteSynthesizer::Generate(config).TakeValue();
  CorpusParts parts{std::move(site.store), {}, {}, {}};
  for (const auto& [oid, body] : site.interview_texts) {
    parts.interviews.emplace_back(oid, body);
  }
  for (int64_t oid : site.video_oids) {
    parts.videos.push_back(MakeVideo(oid));
  }
  return parts;
}

/// The durable-library test's 16-modality sweep, event-heavy variants
/// included so the scatter path dominates.
std::vector<CombinedQuery> SweepQueries() {
  std::vector<CombinedQuery> queries;
  Rng rng(21);
  for (int combo = 0; combo < 16; ++combo) {
    for (int variant = 0; variant < 3; ++variant) {
      CombinedQuery query;
      if (combo & 1) {
        switch (rng.NextBounded(4)) {
          case 0:
            query.player_predicates.push_back(
                {"gender", CompareOp::kEq, std::string("female")});
            break;
          case 1:
            query.player_predicates.push_back(
                {"hand", CompareOp::kEq, std::string("left")});
            break;
          case 2:
            query.player_predicates.push_back(
                {"ranking", CompareOp::kLe, rng.NextInt(1, 40)});
            break;
          case 3:  // provably empty
            query.player_predicates.push_back(
                {"hand", CompareOp::kEq, std::string("ambidextrous")});
            break;
        }
      }
      if (combo & 2) {
        query.require_champion = true;
        if (rng.NextBounded(2) == 0) {
          query.won_year = rng.NextInt(2018, 2022);
        }
      }
      if (combo & 4) {
        const char* texts[] = {"champion title", "net volley",
                               "australian open"};
        query.text = texts[rng.NextBounded(3)];
        query.text_top_k = 1 + rng.NextBounded(12);
      }
      if (combo & 8) {
        const char* events[] = {"net_play", "rally", "service", "no_such"};
        query.event = events[rng.NextBounded(4)];
      }
      queries.push_back(std::move(query));
    }
  }
  return queries;
}

/// MakeParts plus every kind of SceneHitLess tie and near-tie the top-N
/// pushdown must keep exact: duplicate plays_in edges, one video described
/// twice with different events (its rows are not contiguous) and one
/// described twice identically (duplicate hits), court-level events
/// (player -1, from MakeVideo), two players of one video sharing an
/// interview (equal text scores in the same video), and per-shot
/// signatures where shots s and s + 6 of every video are near shot s of
/// the others, so event + similar_to queries have answers and a video's
/// neighbor shots sit at different distances. Returns the shared
/// interview's oid in `shared_interview`.
CorpusParts MakeTiedParts(int64_t* shared_interview) {
  CorpusParts parts = MakeParts();
  const storage::Table* plays =
      parts.store.AssociationTable("plays_in").TakeValue();
  std::vector<std::array<int64_t, 3>> edges;
  for (int64_t r = 0; r < plays->num_rows(); ++r) {
    const size_t i = static_cast<size_t>(r);
    edges.push_back({plays->IntColumn(0)[i], plays->IntColumn(1)[i],
                     plays->IntColumn(2)[i]});
  }
  for (size_t e = 0; e < 8 && e < edges.size(); ++e) {
    EXPECT_TRUE(
        parts.store.Link("plays_in", edges[e][0], edges[e][1], edges[e][2])
            .ok());
  }
  // The first two distinct players of one video share the first one's
  // interview.
  const int64_t video = edges.front()[1];
  int64_t first = -1, second = -1;
  for (const auto& [player, to, role] : edges) {
    if (to != video) continue;
    if (first < 0) {
      first = player;
    } else if (player != first) {
      second = player;
      break;
    }
  }
  EXPECT_GE(second, 0);
  auto interviews = parts.store.Traverse("interviewed_in", {first});
  EXPECT_TRUE(interviews.ok() && !interviews->empty());
  *shared_interview = interviews->front();
  EXPECT_TRUE(
      parts.store.Link("interviewed_in", second, *shared_interview).ok());
  const int64_t twice = parts.videos[1].video_id();
  parts.videos.push_back(MakeVideo(twice, /*salt=*/11));
  parts.videos.push_back(parts.videos[2]);

  Rng rng(515);
  auto random_signature = [&rng] {
    vision::ShotSignature sig;
    for (uint64_t& word : sig.hash) word = rng.NextU64();
    for (uint8_t& byte : sig.sketch) {
      byte = static_cast<uint8_t>(rng.NextBounded(256));
    }
    return sig;
  };
  std::vector<vision::ShotSignature> bases;
  for (int s = 0; s < 6; ++s) bases.push_back(random_signature());
  std::set<int64_t> signed_videos;
  for (const core::VideoDescription& desc : parts.videos) {
    if (!signed_videos.insert(desc.video_id()).second) continue;
    std::vector<vision::SignatureRecord> records;
    for (int s = 0; s < 12; ++s) {
      vision::SignatureRecord rec;
      rec.sig = bases[static_cast<size_t>(s % 6)];
      for (int flip = 1 + static_cast<int>(rng.NextBounded(12)); flip > 0;
           --flip) {
        const uint32_t bit = static_cast<uint32_t>(rng.NextBounded(256));
        rec.sig.hash[bit / 64] ^= uint64_t{1} << (bit % 64);
      }
      rec.video_id = desc.video_id();
      rec.begin = s * 3300;
      rec.end = s * 3300 + 3299;
      records.push_back(rec);
    }
    parts.signatures.emplace_back(desc.video_id(), std::move(records));
  }
  return parts;
}

void ExpectBitIdentical(const std::vector<SceneHit>& expected,
                        const std::vector<SceneHit>& actual,
                        const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    const SceneHit& a = expected[i];
    const SceneHit& b = actual[i];
    EXPECT_EQ(a.player_oid, b.player_oid) << label << " hit " << i;
    EXPECT_EQ(a.player_name, b.player_name) << label << " hit " << i;
    EXPECT_EQ(a.video_oid, b.video_oid) << label << " hit " << i;
    EXPECT_EQ(a.range.begin, b.range.begin) << label << " hit " << i;
    EXPECT_EQ(a.range.end, b.range.end) << label << " hit " << i;
    EXPECT_EQ(a.event, b.event) << label << " hit " << i;
    uint64_t bits_a = 0, bits_b = 0;
    std::memcpy(&bits_a, &a.text_score, 8);
    std::memcpy(&bits_b, &b.text_score, 8);
    EXPECT_EQ(bits_a, bits_b) << label << " hit " << i;
    std::memcpy(&bits_a, &a.similarity, 8);
    std::memcpy(&bits_b, &b.similarity, 8);
    EXPECT_EQ(bits_a, bits_b) << label << " hit " << i;
  }
}

std::vector<SceneHit> Truncate(std::vector<SceneHit> hits, size_t top_n) {
  if (top_n > 0 && hits.size() > top_n) hits.resize(top_n);
  return hits;
}

std::vector<const DigitalLibrary*> Views(
    const std::vector<std::unique_ptr<DigitalLibrary>>& shards) {
  std::vector<const DigitalLibrary*> views;
  for (const auto& shard : shards) views.push_back(shard.get());
  return views;
}

TEST(ServingPartitionTest, RangeShardsCoverTheCorpusOnce) {
  const CorpusParts parts = MakeParts();
  auto shards = BuildShardLibraries(parts, 3).TakeValue();
  ASSERT_EQ(shards.size(), 3u);
  size_t total = 0;
  int64_t prev_max = INT64_MIN;
  for (const auto& shard : shards) {
    const auto& videos = shard->indexed_videos();
    total += videos.size();
    if (videos.empty()) continue;
    const int64_t lo = *std::min_element(videos.begin(), videos.end());
    const int64_t hi = *std::max_element(videos.begin(), videos.end());
    EXPECT_GT(lo, prev_max);  // contiguous, disjoint ranges in shard order
    prev_max = hi;
    // Replicated modalities: full interview index in every shard.
    EXPECT_EQ(shard->interviews().num_documents(),
              static_cast<int64_t>(parts.interviews.size()));
  }
  EXPECT_EQ(total, parts.videos.size());
}

/// The durable build persists BuildShardLibraries' shards as built: each
/// shard directory holds the MANIFEST, one segment and an empty WAL, and
/// the reopened shard answers the sweep and similar_to queries
/// bit-identically to the in-memory shard.
TEST(ServingPartitionTest, DurableShardsHoldOneSegmentAndAnswerLikeMemory) {
  const std::string base = ::testing::TempDir() + "serving_durable_shards";
  std::error_code ec;
  std::filesystem::remove_all(base, ec);  // leftovers from a prior run
  int64_t shared = -1;
  const CorpusParts parts = MakeTiedParts(&shared);
  auto memory = BuildShardLibraries(parts, 3).TakeValue();
  ASSERT_TRUE(BuildDurableShards(parts, 3, base).ok());

  std::vector<CombinedQuery> queries = SweepQueries();
  for (const auto& shard : memory) {
    for (int64_t frame : {0, 17000, 39000}) {
      CombinedQuery query;
      query.similar_video = shard->indexed_videos().front();
      query.similar_frame = frame;
      queries.push_back(query);
      query.event = "net_play";
      queries.push_back(std::move(query));
    }
  }
  for (size_t s = 0; s < memory.size(); ++s) {
    const std::string dir = base + "/shard-000" + std::to_string(s);
    std::vector<std::string> entries;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      entries.push_back(entry.path().filename().string());
    }
    std::sort(entries.begin(), entries.end());
    EXPECT_EQ(entries, (std::vector<std::string>{
                           "MANIFEST", "seg-000001.cseg", "wal-000002.wal"}));
    EXPECT_EQ(std::filesystem::file_size(dir + "/wal-000002.wal"), 0u);

    auto reopened = DurableLibrary::Open(dir).TakeValue();
    const DigitalLibrary& durable = reopened->library();
    EXPECT_EQ(durable.index_epoch(), memory[s]->index_epoch());
    EXPECT_EQ(durable.indexed_videos(), memory[s]->indexed_videos());
    EXPECT_EQ(durable.signatures().num_records(),
              memory[s]->signatures().num_records());
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const std::string label =
          "shard " + std::to_string(s) + " query " + std::to_string(qi);
      auto expected = memory[s]->Search(queries[qi]);
      auto actual = durable.Search(queries[qi]);
      ASSERT_EQ(expected.ok(), actual.ok()) << label;
      if (!expected.ok()) {
        EXPECT_EQ(expected.status().ToString(), actual.status().ToString())
            << label;
        continue;
      }
      ExpectBitIdentical(*expected, *actual, label);
    }
  }
}

TEST(ServingFrontendTest, ShardCountInvarianceProperty) {
  const CorpusParts parts = MakeParts();
  auto oracle = BuildLibrary(parts).TakeValue();
  // The sweep plus malformed queries: the frontend must fail them with the
  // oracle's status, before any shard is searched, whether they would
  // route to one shard (no content) or scatter (event, event + text).
  auto queries = SweepQueries();
  for (const MalformedQuery& m : MalformedQueries()) {
    queries.push_back(m.query);
    CombinedQuery with_content = m.query;
    with_content.event = "net_play";
    queries.push_back(with_content);
    with_content.text = "australian open";
    queries.push_back(std::move(with_content));
  }
  for (size_t num_shards : {1u, 2u, 7u}) {
    auto shards = BuildShardLibraries(parts, num_shards).TakeValue();
    ServingConfig config;
    config.replicas = 2;
    auto frontend = ServingFrontend::Create(Views(shards), config).TakeValue();
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      for (size_t top_n : {size_t{3}, size_t{10}, size_t{0}}) {
        auto expected = oracle->Search(queries[qi]);
        QueryStats qs;
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
          EXPECT_EQ(qs.shards_searched, 0u) << label;
          continue;
        }
        ExpectBitIdentical(Truncate(*expected, top_n), *actual, label);
        EXPECT_FALSE(qs.degraded) << label;
        if (queries[qi].event.empty()) {
          EXPECT_TRUE(qs.single_shard_routed) << label;
          EXPECT_LE(qs.shards_searched, 1u) << label;
        }
      }
    }
    // No interview matches the text, so every shard prunes upfront and the
    // empty answer comes back without searching any shard.
    CombinedQuery unmatched;
    unmatched.text = "zyzzyva";
    unmatched.event = "net_play";
    QueryStats qs;
    auto none = frontend->Search(unmatched, 10, &qs);
    ASSERT_TRUE(none.ok()) << none.status().ToString();
    EXPECT_TRUE(none->empty());
    EXPECT_TRUE(oracle->Search(unmatched)->empty());
    EXPECT_EQ(qs.shards_searched, 0u);
    EXPECT_EQ(qs.shards_pruned_upfront, num_shards);

    const ServingStats stats = frontend->stats();
    EXPECT_EQ(stats.shed, 0);
    EXPECT_EQ(stats.degraded, 0);
    if (num_shards > 1) {
      // Single-shard routing and upfront pruning must actually engage.
      EXPECT_GT(stats.single_shard_routed, 0);
      EXPECT_GT(stats.shards_pruned_upfront, 0);
    }
  }
}

TEST(ServingFrontendTest, BoundPruningEngagesAndNeverChangesResults) {
  const CorpusParts parts = MakeParts(/*num_players=*/24, /*videos_per_year=*/4);
  auto oracle = BuildLibrary(parts).TakeValue();
  auto shards = BuildShardLibraries(parts, 7).TakeValue();
  auto frontend =
      ServingFrontend::Create(Views(shards), ServingConfig{}).TakeValue();
  // Small top-N content queries: the first shard's hits fill the merged
  // top-N with the lowest video ids, so later shards' min-video bounds
  // rank after the Nth hit and the shards prune at dequeue.
  const char* events[] = {"net_play", "rally", "service", "smash"};
  for (int round = 0; round < 50; ++round) {
    CombinedQuery query;
    query.event = events[round % 4];
    if (round % 3 == 1) query.require_champion = true;
    if (round % 3 == 2) {
      query.player_predicates.push_back(
          {"ranking", CompareOp::kLe, static_cast<int64_t>(5 + round % 30)});
    }
    auto expected = Truncate(oracle->Search(query).TakeValue(), 2);
    auto actual = frontend->Search(query, 2).TakeValue();
    ExpectBitIdentical(expected, actual, "round " + std::to_string(round));
  }
  // Scheduling decides exactly which shards prune, but across 50 small
  // top-N scatters some later shard must have seen a filled merge.
  EXPECT_GT(frontend->stats().shards_pruned_by_bound, 0);
}

TEST(ServingFrontendTest, TextSeedIsCachedAndBitIdentical) {
  const CorpusParts parts = MakeParts();
  auto oracle = BuildLibrary(parts).TakeValue();
  auto shards = BuildShardLibraries(parts, 4).TakeValue();
  auto frontend =
      ServingFrontend::Create(Views(shards), ServingConfig{}).TakeValue();
  CombinedQuery query;
  query.text = "australian open";
  query.text_top_k = 8;
  query.event = "net_play";
  QueryStats qs;
  auto first = frontend->Search(query, 0, &qs).TakeValue();
  EXPECT_TRUE(qs.text_seeded);
  EXPECT_FALSE(qs.text_seed_cached);
  auto second = frontend->Search(query, 0, &qs).TakeValue();
  EXPECT_TRUE(qs.text_seeded);
  EXPECT_TRUE(qs.text_seed_cached);
  ExpectBitIdentical(*oracle->Search(query), first, "first");
  ExpectBitIdentical(first, second, "repeat");
}

TEST(ServingFrontendTest, DeadlineDegradesInsteadOfStalling) {
  const CorpusParts parts = MakeParts();
  auto shards = BuildShardLibraries(parts, 3).TakeValue();
  auto frontend =
      ServingFrontend::Create(Views(shards), ServingConfig{}).TakeValue();
  frontend->PauseWorkersForTest();
  CombinedQuery query;
  query.event = "rally";
  QueryStats qs;
  auto result = frontend->Search(query, 5, &qs, /*deadline_ms=*/50.0);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->empty());  // nothing merged before the deadline
  EXPECT_TRUE(qs.degraded);
  EXPECT_GT(qs.shards_timed_out, 0u);
  EXPECT_EQ(frontend->stats().degraded, 1);
  frontend->ResumeWorkers();
  // The backend drains the cancelled jobs and fresh queries work again.
  auto after = frontend->Search(query, 5, &qs);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(qs.degraded);
  EXPECT_FALSE(after->empty());
}

TEST(ServingFrontendTest, OverloadShedsWithUnavailable) {
  const CorpusParts parts = MakeParts();
  auto shards = BuildShardLibraries(parts, 2).TakeValue();
  ServingConfig config;
  config.replicas = 1;
  config.queue_depth = 1;
  auto frontend = ServingFrontend::Create(Views(shards), config).TakeValue();
  frontend->PauseWorkersForTest();
  CombinedQuery query;
  query.event = "net_play";
  // Client A enqueues onto the best-bound shard's only replica (paused
  // workers never drain it; the other shard is deferred in the cascade)...
  std::thread client_a([&] {
    auto held = frontend->Search(query, 5);
    EXPECT_TRUE(held.ok()) << held.status().ToString();
  });
  while (frontend->QueuedJobsForTest() < 1) {
    std::this_thread::yield();
  }
  // ... so client B targets the same shard first, finds its replica full,
  // and is shed, not queued.
  auto shed = frontend->Search(query, 5);
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(shed.status().IsUnavailable()) << shed.status().ToString();
  EXPECT_EQ(frontend->stats().shed, 1);
  frontend->ResumeWorkers();
  client_a.join();
}

TEST(ServingFrontendTest, EpochBumpOnOneShardInvalidatesOnlyThatShard) {
  CorpusParts parts = MakeParts();
  auto shards = BuildShardLibraries(parts, 3).TakeValue();
  auto frontend =
      ServingFrontend::Create(Views(shards), ServingConfig{}).TakeValue();
  CombinedQuery query;
  query.event = "net_play";
  auto oracle = BuildLibrary(parts).TakeValue();
  ExpectBitIdentical(*oracle->Search(query),
                     frontend->Search(query, 0).TakeValue(), "before");

  // Mutate the LAST shard in place: a new video above every existing id
  // keeps the contiguous range invariant. The frontend must rebuild that
  // shard's pruning snapshot lazily (epoch seam) while the other shards'
  // snapshots and caches stay as they are.
  int64_t max_id = 0;
  for (const auto& v : parts.videos) max_id = std::max(max_id, v.video_id());
  const core::VideoDescription extra = MakeVideo(max_id + 7);
  ASSERT_TRUE(shards.back()->AddVideoDescription(extra).ok());
  parts.videos.push_back(extra);
  auto oracle2 = BuildLibrary(parts).TakeValue();

  QueryStats qs;
  ExpectBitIdentical(*oracle2->Search(query),
                     frontend->Search(query, 0, &qs).TakeValue(),
                     "after mutation");
  // And the no-event path (cached per shard) still answers correctly.
  CombinedQuery concept_only;
  concept_only.require_champion = true;
  ExpectBitIdentical(*oracle2->Search(concept_only),
                     frontend->Search(concept_only, 0).TakeValue(),
                     "concept after mutation");
}

TEST(ServingFrontendTest, TopNPushdownMatchesFixedOrderOracleOnTies) {
  int64_t shared = -1;
  const CorpusParts parts = MakeTiedParts(&shared);
  auto oracle = BuildLibrary(parts).TakeValue();
  // The shared interview's own words: its two players tie on text score.
  std::string shared_text;
  for (const auto& [oid, body] : parts.interviews) {
    if (oid == shared) shared_text = body.substr(0, 60);
  }
  ASSERT_FALSE(shared_text.empty());

  std::vector<CombinedQuery> queries = SweepQueries();
  const int64_t probe = parts.videos.front().video_id();
  Rng rng(7);
  for (int i = 0; i < 24; ++i) {
    CombinedQuery query;
    if (i % 4 != 3) {
      query.similar_video = probe;
      query.similar_frame = rng.NextInt(0, 39599);
      query.similar_k = i % 3 == 0 ? 0 : 1 + rng.NextBounded(30);
    }
    if (i % 4 != 0) query.event = i % 2 == 0 ? "net_play" : "rally";
    if (i % 4 >= 2) {
      query.text = i % 3 == 0 ? std::string("champion title") : shared_text;
      query.text_top_k = 2 + rng.NextBounded(8);
    }
    queries.push_back(std::move(query));
  }

  bool saw_duplicate = false;
  bool saw_equal_scores = false;
  for (const CombinedQuery& query : queries) {
    auto full = SearchFixedOrder(*oracle, query);
    if (!full.ok()) continue;
    for (size_t i = 1; i < full->size(); ++i) {
      const SceneHit& a = (*full)[i - 1];
      const SceneHit& b = (*full)[i];
      saw_duplicate = saw_duplicate ||
                      (!SceneHitLess(a, b) && a.video_oid >= 0);
      saw_equal_scores = saw_equal_scores ||
                         (a.text_score > 0 && a.text_score == b.text_score &&
                          a.video_oid == b.video_oid &&
                          a.player_oid != b.player_oid);
    }
  }
  EXPECT_TRUE(saw_duplicate);     // identical hits from the repeated video
  EXPECT_TRUE(saw_equal_scores);  // the shared interview's players, one video

  for (size_t num_shards : {size_t{1}, size_t{2}, size_t{7}}) {
    auto shards = BuildShardLibraries(parts, num_shards).TakeValue();
    ServingConfig config;
    config.replicas = 2;
    auto frontend = ServingFrontend::Create(Views(shards), config).TakeValue();
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      auto full = SearchFixedOrder(*oracle, queries[qi]);
      for (size_t top_n : {size_t{0}, size_t{1}, size_t{2}, size_t{3},
                           size_t{10}, size_t{37}}) {
        const std::string label = "shards=" + std::to_string(num_shards) +
                                  " query=" + std::to_string(qi) +
                                  " n=" + std::to_string(top_n);
        auto actual = frontend->Search(queries[qi], top_n);
        ASSERT_EQ(full.ok(), actual.ok())
            << label << " " << full.status().ToString() << " vs "
            << actual.status().ToString();
        if (!full.ok()) {
          EXPECT_EQ(full.status().ToString(), actual.status().ToString())
              << label;
          continue;
        }
        ExpectBitIdentical(Truncate(*full, top_n), *actual, label);
      }
    }
  }
}

TEST(ServingFrontendTest, SeededLibrarySearchMatchesUnseeded) {
  const CorpusParts parts = MakeParts();
  auto library = BuildLibrary(parts).TakeValue();
  bool planner_seeded = false;
  for (const CombinedQuery& query : SweepQueries()) {
    if (query.text.empty()) continue;
    auto seed = library->TextStage(query.text, query.text_top_k);
    ASSERT_TRUE(seed.ok());
    for (bool planner : {true, false}) {
      planner::PlanExplain explain;
      auto unseeded =
          planner ? library->Search(query) : SearchFixedOrder(*library, query);
      auto seeded =
          planner ? library->Search({query, 0, &seed.value()}, nullptr,
                                    &explain)
                  : SearchFixedOrder(*library, query, nullptr, &seed.value());
      ASSERT_EQ(unseeded.ok(), seeded.ok());
      if (!unseeded.ok()) {
        EXPECT_EQ(unseeded.status().ToString(), seeded.status().ToString());
        continue;
      }
      ExpectBitIdentical(*unseeded, *seeded,
                         planner ? "planner" : "fixed order");
      planner_seeded = planner_seeded || explain.text_seeded;
    }
  }
  EXPECT_TRUE(planner_seeded);  // the seed path actually executed
}

/// tsan: queries racing the durable shards' background compaction and
/// frontend shard reloads through the index-epoch seam.
TEST(ServingFrontendTest, QueriesRaceCompactionAndReload) {
  const std::string base = ::testing::TempDir() + "serving_race";
  std::error_code ec;
  std::filesystem::remove_all(base, ec);  // leftovers from a prior run
  const CorpusParts parts = MakeParts(/*num_players=*/12);
  auto oracle = BuildLibrary(parts).TakeValue();
  auto durables = BuildDurableShards(parts, 3, base).TakeValue();
  // A couple of extra flush windows so compaction has segments to merge.
  for (auto& durable : durables) {
    ASSERT_TRUE(durable->Flush().ok());
  }
  std::vector<const DigitalLibrary*> views;
  for (const auto& durable : durables) views.push_back(&durable->library());
  ServingConfig config;
  config.replicas = 2;
  auto frontend = ServingFrontend::Create(views, config).TakeValue();

  const auto queries = SweepQueries();
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      for (int round = 0; round < 3; ++round) {
        for (size_t qi = static_cast<size_t>(c); qi < queries.size();
             qi += 2) {
          auto expected = oracle->Search(queries[qi]);
          auto actual = frontend->Search(queries[qi], 10);
          ASSERT_EQ(expected.ok(), actual.ok());
          if (expected.ok()) {
            ExpectBitIdentical(Truncate(*expected, 10), *actual,
                               "racing query " + std::to_string(qi));
          }
        }
      }
    });
  }
  util::ThreadPool pool(2);
  for (auto& durable : durables) {
    ASSERT_TRUE(durable->CompactAsync(&pool).ok());
  }
  for (size_t s = 0; s < durables.size(); ++s) {
    ASSERT_TRUE(frontend->ReloadShard(s, &durables[s]->library()).ok());
  }
  for (auto& durable : durables) {
    ASSERT_TRUE(durable->WaitForCompaction().ok());
  }
  for (auto& client : clients) client.join();
  // Post-race: reload from a fresh reopen of each compacted shard.
  std::vector<std::unique_ptr<DurableLibrary>> reopened;
  for (size_t s = 0; s < durables.size(); ++s) {
    reopened.push_back(
        DurableLibrary::Open(base + "/shard-000" + std::to_string(s))
            .TakeValue());
    ASSERT_TRUE(frontend->ReloadShard(s, &reopened.back()->library()).ok());
  }
  for (size_t qi = 0; qi < queries.size(); qi += 5) {
    auto expected = oracle->Search(queries[qi]);
    auto actual = frontend->Search(queries[qi], 0);
    ASSERT_EQ(expected.ok(), actual.ok());
    if (expected.ok()) {
      ExpectBitIdentical(*expected, *actual,
                         "after reload " + std::to_string(qi));
    }
  }
}

}  // namespace
}  // namespace cobra::engine::serving
