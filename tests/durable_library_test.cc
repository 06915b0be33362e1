/// \file durable_library_test.cc
/// The engine-layer durable library (DESIGN.md §4h):
///   * create → ingest → flush → reopen answers the full 16-modality
///     planner sweep identically to the never-persisted library, with and
///     without section verification on open;
///   * the bulk build: Create persists a built library as one segment and
///     an empty WAL, and refuses one holding unfinalized interviews;
///   * WaitDurable on a ticket whose record was never staged fails;
///   * crash recovery: the WAL (video and signature frames) truncated
///     mid-record at randomized offsets reopens cleanly and answers the
///     sweep and similar_to queries exactly like a clean build over the
///     surviving delta prefix;
///   * background compaction (tsan-labeled): queries run concurrently
///     with CompactAsync and stay bit-identical before, during, and after
///     the merged segment is published;
///   * the meta-index's per-video event rows are the same after AddVideo,
///     Open (FromTables), WAL replay, Compact and in ShardedIngestSink's
///     shard copies, for a video described twice and one with no events.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/ingest_delta.h"
#include "core/video_description.h"
#include "engine/digital_library.h"
#include "engine/durable_library.h"
#include "engine/ingest/ingest.h"
#include "storage/segment/io.h"
#include "storage/segment/wal.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "vision/signature.h"
#include "webspace/site_synthesizer.h"

namespace cobra::engine {
namespace {

namespace seg = storage::segment;
using storage::CompareOp;
using storage::Value;

constexpr uint64_t kSiteSeed = 2002;

webspace::SynthesizedSite MakeSite() {
  webspace::SiteConfig config;
  config.num_players = 16;
  config.num_past_years = 3;
  config.videos_per_year = 1;
  config.seed = kSiteSeed;
  config.ensure_answer = true;
  return webspace::SiteSynthesizer::Generate(config).TakeValue();
}

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

/// Four shots per video. Shot k of every video is a near-duplicate of one
/// shared base signature (a few hash bits flipped), so similar_to queries
/// find neighbors in other videos.
std::vector<vision::SignatureRecord> MakeSignatures(int64_t oid) {
  Rng base_rng(99);
  vision::ShotSignature bases[4];
  for (vision::ShotSignature& base : bases) {
    for (uint64_t& word : base.hash) word = base_rng.NextU64();
  }
  Rng rng(static_cast<uint64_t>(oid) * 131 + 9);
  std::vector<vision::SignatureRecord> records(4);
  for (size_t k = 0; k < records.size(); ++k) {
    vision::SignatureRecord& rec = records[k];
    rec.sig = bases[k];
    for (uint64_t flips = 1 + rng.NextBounded(6); flips > 0; --flips) {
      const uint64_t bit = rng.NextBounded(256);
      rec.sig.hash[bit / 64] ^= uint64_t{1} << (bit % 64);
    }
    for (uint8_t& byte : rec.sig.sketch) {
      byte = static_cast<uint8_t>(rng.NextBounded(256));
    }
    rec.video_id = oid;
    rec.begin = static_cast<int64_t>(k) * 1000;
    rec.end = rec.begin + 999;
  }
  return records;
}

/// The 16-modality sweep: every subset of {predicates, champion, text,
/// event} with a few deterministic variants each (the planner_test
/// RandomQuery pattern, seeded so both libraries see identical queries).
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

/// similar_to queries probing signed shots (MakeSignatures) of the site's
/// first and last video, alone and combined with each other modality.
/// Against a library without those signatures they fail with NotFound.
std::vector<CombinedQuery> SimilarQueries() {
  const std::vector<int64_t> videos = MakeSite().video_oids;
  std::vector<CombinedQuery> queries;
  for (int64_t probe : {videos.front(), videos.back()}) {
    for (int variant = 0; variant < 5; ++variant) {
      CombinedQuery query;
      query.similar_video = probe;
      query.similar_frame = 500 + 1000 * (variant % 4);
      if (variant == 1) query.event = "net_play";
      if (variant == 2) {
        query.player_predicates.push_back(
            {"gender", CompareOp::kEq, std::string("female")});
      }
      if (variant == 3) query.text = "champion title";
      if (variant == 4) {
        query.require_champion = true;
        query.similar_k = 3;
      }
      queries.push_back(std::move(query));
    }
  }
  return queries;
}

void ExpectSameAnswers(const DigitalLibrary& expected,
                       const DigitalLibrary& actual, const char* label) {
  std::vector<CombinedQuery> queries = SweepQueries();
  for (CombinedQuery& query : SimilarQueries()) {
    queries.push_back(std::move(query));
  }
  for (const CombinedQuery& query : queries) {
    auto hits_expected = expected.Search(query);
    auto hits_actual = actual.Search(query);
    ASSERT_EQ(hits_expected.ok(), hits_actual.ok()) << label;
    if (!hits_expected.ok()) {
      EXPECT_EQ(hits_expected.status().ToString(),
                hits_actual.status().ToString())
          << label;
      continue;
    }
    ASSERT_EQ(hits_expected->size(), hits_actual->size()) << label;
    for (size_t i = 0; i < hits_expected->size(); ++i) {
      const SceneHit& a = (*hits_expected)[i];
      const SceneHit& b = (*hits_actual)[i];
      EXPECT_EQ(a.player_oid, b.player_oid) << label;
      EXPECT_EQ(a.player_name, b.player_name) << label;
      EXPECT_EQ(a.video_oid, b.video_oid) << label;
      EXPECT_EQ(a.range.begin, b.range.begin) << label;
      EXPECT_EQ(a.range.end, b.range.end) << label;
      EXPECT_EQ(a.event, b.event) << label;
      uint64_t bits_a = 0, bits_b = 0;
      std::memcpy(&bits_a, &a.text_score, 8);
      std::memcpy(&bits_b, &b.text_score, 8);
      EXPECT_EQ(bits_a, bits_b) << label << " hit " << i;
      std::memcpy(&bits_a, &a.similarity, 8);
      std::memcpy(&bits_b, &b.similarity, 8);
      EXPECT_EQ(bits_a, bits_b) << label << " similarity of hit " << i;
    }
  }
}

/// A never-persisted reference library over the same synthesized site:
/// every interview and video, or exactly the deltas of `op_prefix`.
std::unique_ptr<DigitalLibrary> CleanLibrary(
    const std::vector<core::IngestDelta>* op_prefix = nullptr) {
  auto site = MakeSite();
  auto interviews = site.interview_texts;
  auto videos = site.video_oids;
  auto library = DigitalLibrary::Create(std::move(site.store)).TakeValue();
  if (op_prefix == nullptr) {
    for (const auto& [oid, body] : interviews) {
      EXPECT_TRUE(library->AddInterview(oid, body).ok());
    }
    EXPECT_TRUE(library->FinalizeText().ok());
    for (int64_t oid : videos) {
      EXPECT_TRUE(library->AddVideoDescription(MakeVideo(oid)).ok());
    }
  } else {
    for (const core::IngestDelta& delta : *op_prefix) {
      EXPECT_TRUE(library->Apply(delta).ok());
    }
  }
  return library;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  auto entries = seg::ListDir(dir);
  if (entries.ok()) {
    for (const std::string& entry : *entries) {
      (void)seg::RemoveFile(dir + "/" + entry);
    }
  }
  EXPECT_TRUE(seg::CreateDir(dir).ok());
  return dir;
}

std::unique_ptr<DurableLibrary> IngestEverything(const std::string& dir,
                                                 bool flush_mid_ingest) {
  auto site = MakeSite();
  auto interviews = site.interview_texts;
  auto videos = site.video_oids;
  auto durable =
      DurableLibrary::Create(dir, std::move(site.store)).TakeValue();
  size_t count = 0;
  for (const auto& [oid, body] : interviews) {
    EXPECT_TRUE(durable->Apply(core::IngestDelta::Interview(oid, body)).ok());
    if (flush_mid_ingest && ++count == interviews.size() / 2) {
      EXPECT_TRUE(durable->Flush().ok());
    }
  }
  EXPECT_TRUE(durable->Apply(core::IngestDelta::FinalizeText()).ok());
  if (flush_mid_ingest) {
    EXPECT_TRUE(durable->Flush().ok());
  }
  for (int64_t oid : videos) {
    EXPECT_TRUE(
        durable->Apply(core::IngestDelta::Video(MakeVideo(oid), {})).ok());
  }
  EXPECT_TRUE(durable->Flush().ok());
  return durable;
}

TEST(DurableLibraryTest, ReopenAnswersSweepIdentically) {
  const std::string dir = FreshDir("durable_reopen");
  auto clean = CleanLibrary();
  {
    auto durable = IngestEverything(dir, /*flush_mid_ingest=*/true);
    ExpectSameAnswers(*clean, durable->library(), "pre-close");
    EXPECT_GE(durable->num_segments(), 3u);
  }
  // Zero-copy (mmap) restore.
  {
    auto durable = DurableLibrary::Open(dir).TakeValue();
    ExpectSameAnswers(*clean, durable->library(), "mmap reopen");
  }
  // Verification off (the benchmark's fast-open arm): still identical.
  {
    DurableLibrary::Options options;
    options.verify = seg::SegmentReader::Verify::kNone;
    auto durable = DurableLibrary::Open(dir, options).TakeValue();
    ExpectSameAnswers(*clean, durable->library(), "no-verify reopen");
  }
}

TEST(DurableLibraryTest, CreateFromLibraryWritesOneSegment) {
  const std::string dir = FreshDir("durable_bulk");
  auto clean = CleanLibrary();
  {
    auto durable = DurableLibrary::Create(dir, CleanLibrary()).TakeValue();
    EXPECT_EQ(durable->num_segments(), 1u);
    EXPECT_EQ(durable->wal_sync_calls(), 0);
    ExpectSameAnswers(*clean, durable->library(), "bulk live");
  }
  std::vector<std::string> entries = seg::ListDir(dir).TakeValue();
  std::sort(entries.begin(), entries.end());
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0], "MANIFEST");
  EXPECT_EQ(entries[1], "seg-000001.cseg");
  EXPECT_EQ(entries[2], "wal-000002.wal");
  EXPECT_EQ(seg::FileSize(dir + "/" + entries[2]).TakeValue(), 0);
  auto reopened = DurableLibrary::Open(dir).TakeValue();
  EXPECT_EQ(reopened->num_segments(), 1u);
  ExpectSameAnswers(*clean, reopened->library(), "bulk reopen");

  // An unfinalized interview lives only in the open index, which keeps no
  // text to persist.
  const std::string refused = FreshDir("durable_bulk_unfinalized");
  auto site = MakeSite();
  const auto [oid, body] = *site.interview_texts.begin();
  auto library = DigitalLibrary::Create(std::move(site.store)).TakeValue();
  ASSERT_TRUE(library->AddInterview(oid, body).ok());
  EXPECT_EQ(
      DurableLibrary::Create(refused, std::move(library)).status().code(),
      StatusCode::kFailedPrecondition);
  EXPECT_FALSE(seg::FileExists(refused + "/MANIFEST"));

  // Nor are signature records borrowed from another chain's segments.
  const std::vector<vision::SignatureRecord> borrowed =
      MakeSignatures(site.video_oids.front());
  auto restored =
      DigitalLibrary::CreateFromParts(
          std::move(MakeSite().store), text::InvertedIndex(),
          core::MetaIndex::Create().TakeValue(), {}, 0,
          {{borrowed.data(), borrowed.size()}})
          .TakeValue();
  EXPECT_EQ(
      DurableLibrary::Create(refused, std::move(restored)).status().code(),
      StatusCode::kFailedPrecondition);
  EXPECT_FALSE(seg::FileExists(refused + "/MANIFEST"));
}

TEST(DurableLibraryTest, WaitDurableRejectsAnUnstagedTicket) {
  const std::string dir = FreshDir("durable_unstaged");
  auto durable =
      DurableLibrary::Create(dir, std::move(MakeSite().store)).TakeValue();
  const DurableLibrary::StageTicket ticket =
      durable->Stage(core::IngestDelta::FinalizeText()).TakeValue();
  DurableLibrary::StageTicket unstaged = ticket;
  ++unstaged.seq;
  EXPECT_EQ(durable->WaitDurable(unstaged).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(durable->WaitDurable(ticket).ok());
  EXPECT_EQ(durable->wal_records_committed(), 1);
}

TEST(DurableLibraryTest, WalReplayRecoversUnflushedMutations) {
  const std::string dir = FreshDir("durable_wal");
  auto site = MakeSite();
  auto interviews = site.interview_texts;
  auto videos = site.video_oids;
  {
    auto durable =
        DurableLibrary::Create(dir, std::move(site.store)).TakeValue();
    for (const auto& [oid, body] : interviews) {
      ASSERT_TRUE(
          durable->Apply(core::IngestDelta::Interview(oid, body)).ok());
    }
    ASSERT_TRUE(durable->Apply(core::IngestDelta::FinalizeText()).ok());
    for (int64_t oid : videos) {
      ASSERT_TRUE(
          durable->Apply(core::IngestDelta::Video(MakeVideo(oid), {})).ok());
    }
    // No Flush: everything after Create lives only in the WAL.
    EXPECT_EQ(durable->num_segments(), 1u);
  }
  auto clean = CleanLibrary();
  auto durable = DurableLibrary::Open(dir).TakeValue();
  ExpectSameAnswers(*clean, durable->library(), "wal replay");
  // The replayed window was folded into a segment on open.
  EXPECT_EQ(durable->num_segments(), 2u);
}

TEST(DurableLibraryTest, TruncatedWalRecoversPrefixIdentically) {
  const std::string dir = FreshDir("durable_torn_src");
  {
    auto site = MakeSite();
    auto interviews = site.interview_texts;
    auto videos = site.video_oids;
    auto durable =
        DurableLibrary::Create(dir, std::move(site.store)).TakeValue();
    for (const auto& [oid, body] : interviews) {
      ASSERT_TRUE(
          durable->Apply(core::IngestDelta::Interview(oid, body)).ok());
    }
    ASSERT_TRUE(durable->Apply(core::IngestDelta::FinalizeText()).ok());
    // Every video with its signature batch: the WAL holds a kAddVideo and
    // a kAddSignatures frame per video.
    for (int64_t oid : videos) {
      ASSERT_TRUE(durable
                      ->Apply(core::IngestDelta::Video(MakeVideo(oid),
                                                       MakeSignatures(oid)))
                      .ok());
    }
  }
  // Locate the WAL and the rest of the durable directory.
  auto entries = seg::ListDir(dir).TakeValue();
  std::string wal_name;
  for (const std::string& entry : entries) {
    if (entry.size() > 4 &&
        entry.compare(entry.size() - 4, 4, ".wal") == 0) {
      wal_name = entry;
    }
  }
  ASSERT_FALSE(wal_name.empty());
  auto wal_map = seg::MmapFile::Open(dir + "/" + wal_name).TakeValue();
  const std::vector<uint8_t> full_wal(wal_map.data(),
                                      wal_map.data() + wal_map.size());
  ASSERT_GT(full_wal.size(), 16u);

  Rng rng(4711);
  for (int trial = 0; trial < 6; ++trial) {
    // Kill ingest mid-record: keep a random prefix of the WAL bytes.
    const size_t keep = trial == 0 ? full_wal.size()
                                   : rng.NextBounded(full_wal.size());
    const std::string crash_dir =
        FreshDir("durable_torn_" + std::to_string(trial));
    for (const std::string& entry : entries) {
      if (entry == wal_name) continue;
      auto bytes = seg::MmapFile::Open(dir + "/" + entry).TakeValue();
      ASSERT_TRUE(seg::WriteFileAtomic(crash_dir + "/" + entry, bytes.data(),
                                       bytes.size())
                      .ok());
    }
    ASSERT_TRUE(seg::WriteFileAtomic(crash_dir + "/" + wal_name,
                                     full_wal.data(), keep)
                    .ok());

    // What a clean build over the surviving record prefix would hold.
    auto prefix =
        seg::ReplayWal(crash_dir + "/" + wal_name).TakeValue();
    auto expected = CleanLibrary(&prefix);
    if (keep == full_wal.size()) {
      // Every probe resolves, and the probes find similar scenes.
      size_t similar_hits = 0;
      for (const CombinedQuery& query : SimilarQueries()) {
        auto hits = expected->Search(query);
        ASSERT_TRUE(hits.ok()) << hits.status().ToString();
        similar_hits += hits->size();
      }
      EXPECT_GT(similar_hits, 0u);
    }

    auto recovered = DurableLibrary::Open(crash_dir);
    ASSERT_TRUE(recovered.ok()) << "keep=" << keep << ": "
                                << recovered.status().ToString();
    ExpectSameAnswers(*expected, (*recovered)->library(),
                      ("keep=" + std::to_string(keep)).c_str());
  }
}

TEST(DurableLibraryTest, ConcurrentCompactionKeepsAnswersIdentical) {
  const std::string dir = FreshDir("durable_compact");
  auto clean = CleanLibrary();
  auto durable = IngestEverything(dir, /*flush_mid_ingest=*/true);
  const size_t before = durable->num_segments();
  ASSERT_GE(before, 3u);

  util::ThreadPool pool(2);
  ASSERT_TRUE(durable->CompactAsync(&pool).ok());
  // Queries race the background merge; results must stay bit-identical
  // the whole time (the merged chain publishes atomically).
  for (int round = 0; round < 4; ++round) {
    ExpectSameAnswers(*clean, durable->library(), "during compaction");
  }
  ASSERT_TRUE(durable->WaitForCompaction().ok());
  EXPECT_LT(durable->num_segments(), before);
  ExpectSameAnswers(*clean, durable->library(), "after compaction");

  // A second compaction over the already-merged chain is a no-op or a
  // further merge; either way answers hold and reopen still works.
  ASSERT_TRUE(durable->Compact().ok());
  ExpectSameAnswers(*clean, durable->library(), "after second compaction");
  auto reopened = DurableLibrary::Open(dir).TakeValue();
  ExpectSameAnswers(*clean, reopened->library(), "reopen after compaction");
}

/// `actual`'s per-video event rows against its own events table (the rows
/// holding the video, ascending) and, row content by row content, against
/// `expected`'s, for every id in `videos`.
void ExpectSameEventRows(const core::MetaIndex& expected,
                         const core::MetaIndex& actual,
                         const std::vector<int64_t>& videos,
                         const std::string& label) {
  const storage::Table& want_table = expected.events();
  const storage::Table& got_table = actual.events();
  for (int64_t video : videos) {
    const std::string where = label + " video " + std::to_string(video);
    std::vector<int64_t> scanned;
    for (int64_t r = 0; r < got_table.num_rows(); ++r) {
      if (got_table.IntColumn(0)[static_cast<size_t>(r)] == video) {
        scanned.push_back(r);
      }
    }
    EXPECT_EQ(actual.EventRows(video), scanned) << where;
    const std::vector<int64_t>& want = expected.EventRows(video);
    const std::vector<int64_t>& got = actual.EventRows(video);
    ASSERT_EQ(want.size(), got.size()) << where;
    for (size_t i = 0; i < want.size(); ++i) {
      const size_t a = static_cast<size_t>(want[i]);
      const size_t b = static_cast<size_t>(got[i]);
      EXPECT_EQ(want_table.IntColumn(0)[a], got_table.IntColumn(0)[b]) << where;
      EXPECT_EQ(want_table.StringColumn(1)[a], got_table.StringColumn(1)[b])
          << where;
      for (size_t col : {size_t{2}, size_t{3}, size_t{4}}) {
        EXPECT_EQ(want_table.IntColumn(col)[a], got_table.IntColumn(col)[b])
            << where << " col " << col;
      }
    }
  }
}

TEST(MetaIndexEventRowsTest, SameRowsPerVideoOnEveryRestorePath) {
  auto site = MakeSite();
  ASSERT_GE(site.video_oids.size(), 3u);
  const int64_t twice = site.video_oids[0];
  const int64_t empty = site.video_oids[2];
  // Video `twice` is described again last, so its rows are not contiguous;
  // video `empty` has no events at all.
  const std::vector<core::VideoDescription> descs = {
      MakeVideo(twice), MakeVideo(site.video_oids[1]),
      core::VideoDescription(empty, "no events", 25.0, 40000),
      MakeVideo(twice, /*salt=*/17)};
  std::vector<int64_t> ids = site.video_oids;
  ids.push_back(987654321);  // never indexed

  auto reference = [&](const std::vector<const core::VideoDescription*>& in) {
    auto meta = core::MetaIndex::Create().TakeValue();
    for (const core::VideoDescription* desc : in) {
      EXPECT_TRUE(meta.AddVideo(*desc).ok());
    }
    return meta;
  };
  std::vector<const core::VideoDescription*> all;
  for (const auto& desc : descs) all.push_back(&desc);
  const core::MetaIndex want = reference(all);
  EXPECT_TRUE(want.EventRows(empty).empty());

  const std::string dir = FreshDir("event_rows");
  {
    auto durable = DurableLibrary::Create(dir, site.store).TakeValue();
    for (const auto& [oid, body] : site.interview_texts) {
      ASSERT_TRUE(
          durable->Apply(core::IngestDelta::Interview(oid, body)).ok());
    }
    ASSERT_TRUE(durable->Apply(core::IngestDelta::FinalizeText()).ok());
    ASSERT_TRUE(durable->Apply(core::IngestDelta::Video(descs[0], {})).ok());
    ASSERT_TRUE(durable->Apply(core::IngestDelta::Video(descs[1], {})).ok());
    ASSERT_TRUE(durable->Flush().ok());
    // The rest stays in the WAL.
    ASSERT_TRUE(durable->Apply(core::IngestDelta::Video(descs[2], {})).ok());
    ASSERT_TRUE(durable->Apply(core::IngestDelta::Video(descs[3], {})).ok());
    ExpectSameEventRows(want, durable->library().meta_index(), ids,
                        "AddVideo");
  }
  {
    auto durable = DurableLibrary::Open(dir).TakeValue();
    ExpectSameEventRows(want, durable->library().meta_index(), ids,
                        "FromTables + WAL replay");
  }
  {
    auto durable = DurableLibrary::Open(dir).TakeValue();
    ASSERT_GE(durable->num_segments(), 2u);
    ExpectSameEventRows(want, durable->library().meta_index(), ids,
                        "FromTables");
    ASSERT_TRUE(durable->Compact().ok());
    EXPECT_EQ(durable->num_segments(), 1u);
  }
  {
    auto durable = DurableLibrary::Open(dir).TakeValue();
    ExpectSameEventRows(want, durable->library().meta_index(), ids,
                        "Compact");
  }

  // ShardedIngestSink: two seed videos, then the other two live, each
  // publish swapping which of a shard's two copies serves.
  serving::CorpusParts seed;
  seed.store = site.store;
  for (const auto& [oid, body] : site.interview_texts) {
    seed.interviews.emplace_back(oid, body);
  }
  seed.videos = {descs[0], descs[1]};
  ingest::ShardedIngestSink::Options options;
  options.num_shards = 2;
  auto sink = ingest::ShardedIngestSink::Create(seed, options).TakeValue();
  for (size_t live = 2; live <= descs.size(); ++live) {
    for (size_t s = 0; s < sink->num_shards(); ++s) {
      std::vector<const core::VideoDescription*> routed;
      for (size_t d = 0; d < live; ++d) {
        if (sink->router().ShardOf(descs[d].video_id()) == s) {
          routed.push_back(&descs[d]);
        }
      }
      ExpectSameEventRows(reference(routed),
                          sink->shard_library(s).meta_index(), ids,
                          "shard " + std::to_string(s) + " after " +
                              std::to_string(live) + " videos");
    }
    if (live == descs.size()) break;
    ASSERT_TRUE(sink->Commit(ingest::IngestDelta::Video(descs[live], {})).ok());
    ASSERT_TRUE(sink->Barrier().ok());
  }
}

TEST(DurableLibraryTest, OpenFailsCleanlyOnMissingOrCorruptManifest) {
  const std::string missing = ::testing::TempDir() + "no_such_library";
  EXPECT_FALSE(DurableLibrary::Open(missing).ok());

  const std::string dir = FreshDir("durable_badmanifest");
  const char garbage[] = "not a manifest";
  ASSERT_TRUE(
      seg::WriteFileAtomic(dir + "/MANIFEST", garbage, sizeof(garbage)).ok());
  EXPECT_FALSE(DurableLibrary::Open(dir).ok());
}

}  // namespace
}  // namespace cobra::engine
