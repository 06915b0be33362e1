/// \file ingest_test.cc
/// The pipelined corpus-ingest tier (DESIGN.md §4k):
///   * GroupCommitWal: staged and waited records round-trip through
///     ReplayWal; concurrent writers interleave without corruption; and
///     the crash property — a WAL truncated at ANY offset replays a clean
///     record prefix containing every record whose acknowledgment
///     happened at or below the truncation watermark (no acknowledged
///     record lost);
///   * CorpusIngestPipeline: for every thread count and window the
///     produced library answers the 16-modality sweep bit-identically to
///     the serial loop; errors are sticky and the committed set is
///     exactly a prefix of the submission order;
///   * DurableLibrarySink: pipelined sync-durable ingest matches the
///     oracle, batches its fdatasyncs, and survives reopen;
///   * ShardedIngestSink (tsan-labeled): live ingest into a 1/2/7-shard
///     serving deployment — videos routed, interviews + FinalizeText
///     replicated — answers the sweep through the frontend bit-identically
///     to the unsharded oracle, while queries racing the publishes stay
///     well-formed.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/video_description.h"
#include "engine/digital_library.h"
#include "engine/durable_library.h"
#include "engine/ingest/ingest.h"
#include "engine/serving/partition.h"
#include "engine/serving/serving.h"
#include "storage/segment/io.h"
#include "storage/segment/wal.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "webspace/site_synthesizer.h"

namespace cobra::engine::ingest {
namespace {

namespace seg = storage::segment;
using storage::CompareOp;

core::VideoDescription MakeVideo(int64_t oid) {
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

std::vector<vision::SignatureRecord> MakeSignatures(int64_t oid) {
  Rng rng(static_cast<uint64_t>(oid) * 131 + 9);
  std::vector<vision::SignatureRecord> records(4);
  for (size_t k = 0; k < records.size(); ++k) {
    vision::SignatureRecord& rec = records[k];
    for (uint64_t& word : rec.sig.hash) word = rng.NextU64();
    for (uint8_t& byte : rec.sig.sketch) {
      byte = static_cast<uint8_t>(rng.NextBounded(256));
    }
    rec.video_id = oid;
    rec.begin = static_cast<int64_t>(k) * 1000;
    rec.end = rec.begin + 999;
  }
  return records;
}

webspace::SynthesizedSite MakeSite() {
  webspace::SiteConfig config;
  config.num_players = 16;
  config.num_past_years = 3;
  config.videos_per_year = 2;
  config.seed = 2002;
  config.ensure_answer = true;
  return webspace::SiteSynthesizer::Generate(config).TakeValue();
}

/// The durable-library test's 16-modality sweep (seeded, so every arm
/// sees identical queries).
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
  }
}

void ExpectSameAnswers(const DigitalLibrary& expected,
                       const DigitalLibrary& actual, const std::string& label) {
  for (const CombinedQuery& query : SweepQueries()) {
    auto hits_expected = expected.Search(query);
    auto hits_actual = actual.Search(query);
    ASSERT_EQ(hits_expected.ok(), hits_actual.ok()) << label;
    if (!hits_expected.ok()) {
      EXPECT_EQ(hits_expected.status().ToString(),
                hits_actual.status().ToString())
          << label;
      continue;
    }
    ExpectBitIdentical(*hits_expected, *hits_actual, label);
  }
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

/// The whole corpus as one deterministic delta sequence: interviews,
/// finalize, then every video with signatures.
std::vector<IngestDelta> MakeOps(const webspace::SynthesizedSite& site) {
  std::vector<IngestDelta> ops;
  for (const auto& [oid, body] : site.interview_texts) {
    ops.push_back(IngestDelta::Interview(oid, body));
  }
  ops.push_back(IngestDelta::FinalizeText());
  for (int64_t oid : site.video_oids) {
    ops.push_back(IngestDelta::Video(MakeVideo(oid), MakeSignatures(oid)));
  }
  return ops;
}

/// Applies `ops` the serial way — the oracle arm.
void ApplySerial(DigitalLibrary* library, const std::vector<IngestDelta>& ops) {
  for (const IngestDelta& op : ops) {
    ASSERT_TRUE(library->Apply(op).ok());
  }
}

/// Feeds `ops` through the pipeline. Video analyses sleep a deterministic
/// stagger so completions land out of submission order and the reorder
/// buffer actually reorders.
Status RunOps(CorpusIngestPipeline* pipeline,
              const std::vector<IngestDelta>& ops) {
  for (size_t i = 0; i < ops.size(); ++i) {
    const IngestDelta& op = ops[i];
    Status status;
    switch (op.kind) {
      case IngestDelta::Kind::kInterview:
        status = pipeline->SubmitInterview(op.interview_oid,
                                           op.interview_text);
        break;
      case IngestDelta::Kind::kFinalizeText:
        status = pipeline->SubmitFinalizeText();
        break;
      case IngestDelta::Kind::kVideo:
      case IngestDelta::Kind::kSignatures: {
        auto delta = std::make_shared<IngestDelta>(op);
        const int stagger_us = static_cast<int>((i * 37) % 5) * 150;
        status = pipeline->SubmitVideo(
            [delta, stagger_us]() -> Result<IngestDelta> {
              if (stagger_us > 0) {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(stagger_us));
              }
              return *delta;
            });
        break;
      }
    }
    if (!status.ok()) return status;
  }
  return pipeline->Finish();
}

// ---------------------------------------------------------------------------
// GroupCommitWal

/// Stages `delta` and waits for it (the serial writer surface).
Status StageAndWait(seg::GroupCommitWal* wal, const IngestDelta& delta) {
  COBRA_ASSIGN_OR_RETURN(uint64_t seq, wal->Stage(delta));
  return wal->WaitDurable(seq);
}

TEST(GroupCommitWalTest, StagedRecordsRoundTripThroughReplay) {
  const std::string dir = FreshDir("wal_roundtrip");
  const std::string path = dir + "/test.wal";
  auto wal = seg::GroupCommitWal::Open(path).TakeValue();
  const auto sigs = MakeSignatures(7);
  for (const IngestDelta& delta :
       {IngestDelta::Interview(11, "first interview"),
        IngestDelta::Interview(12, "second interview"),
        IngestDelta::FinalizeText(), IngestDelta::Video(MakeVideo(7), {}),
        IngestDelta::Signatures(7, sigs)}) {
    ASSERT_TRUE(StageAndWait(wal.get(), delta).ok());
  }
  // One writer waiting on every record: one fdatasync per record.
  EXPECT_EQ(wal->records_committed(), 5);
  EXPECT_EQ(wal->sync_calls(), 5);

  auto replay = seg::ReplayWal(path).TakeValue();
  ASSERT_EQ(replay.size(), 5u);
  EXPECT_EQ(replay[0].kind, IngestDelta::Kind::kInterview);
  EXPECT_EQ(replay[0].interview_oid, 11);
  EXPECT_EQ(replay[0].interview_text, "first interview");
  EXPECT_EQ(replay[1].interview_oid, 12);
  EXPECT_EQ(replay[2].kind, IngestDelta::Kind::kFinalizeText);
  EXPECT_EQ(replay[3].kind, IngestDelta::Kind::kVideo);
  EXPECT_EQ(replay[3].video.video_id(), 7);
  EXPECT_EQ(replay[4].kind, IngestDelta::Kind::kSignatures);
  EXPECT_EQ(replay[4].signature_video, 7);
  ASSERT_EQ(replay[4].signatures.size(), sigs.size());
  EXPECT_EQ(std::memcmp(replay[4].signatures.data(), sigs.data(),
                        sigs.size() * sizeof(vision::SignatureRecord)),
            0);
}

std::string InterviewBody(int64_t oid) {
  std::string body = "interview body ";
  body += std::to_string(oid);
  body += " with enough words to span a few frames of payload";
  return body;
}

TEST(GroupCommitWalTest, ConcurrentWritersInterleaveWithoutCorruption) {
  const std::string dir = FreshDir("wal_concurrent");
  const std::string path = dir + "/test.wal";
  auto wal = seg::GroupCommitWal::Open(path).TakeValue();
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 40;
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&wal, t] {
      for (int i = 0; i < kPerWriter; ++i) {
        const int64_t oid = t * 1000 + i;
        const IngestDelta delta =
            IngestDelta::Interview(oid, InterviewBody(oid));
        ASSERT_TRUE(StageAndWait(wal.get(), delta).ok());
      }
    });
  }
  for (std::thread& w : writers) w.join();
  EXPECT_EQ(wal->records_committed(), kWriters * kPerWriter);
  EXPECT_GE(wal->sync_calls(), 1);
  EXPECT_LE(wal->sync_calls(), kWriters * kPerWriter);

  auto replay = seg::ReplayWal(path).TakeValue();
  ASSERT_EQ(replay.size(), static_cast<size_t>(kWriters * kPerWriter));
  std::set<int64_t> oids;
  for (const IngestDelta& record : replay) {
    ASSERT_EQ(record.kind, IngestDelta::Kind::kInterview);
    EXPECT_EQ(record.interview_text, InterviewBody(record.interview_oid));
    oids.insert(record.interview_oid);
  }
  EXPECT_EQ(oids.size(), static_cast<size_t>(kWriters * kPerWriter));
}

TEST(GroupCommitWalTest, NoAcknowledgedRecordLostAtAnyTruncation) {
  const std::string dir = FreshDir("wal_crash");
  const std::string path = dir + "/test.wal";
  auto wal = seg::GroupCommitWal::Open(path).TakeValue();

  // Concurrent committers; after each acknowledgment the writer snapshots
  // durable_bytes() — by then its record is inside the synced prefix, so
  // the watermark is a truncation point that must preserve it.
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 24;
  struct Ack {
    int64_t oid = 0;
    int64_t watermark = 0;
  };
  std::vector<std::vector<Ack>> acks(kWriters);
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&wal, &acks, t] {
      for (int i = 0; i < kPerWriter; ++i) {
        const int64_t oid = t * 1000 + i;
        auto staged =
            wal->Stage(IngestDelta::Interview(oid, InterviewBody(oid)));
        ASSERT_TRUE(staged.ok());
        ASSERT_TRUE(wal->WaitDurable(*staged).ok());
        acks[t].push_back({oid, wal->durable_bytes()});
      }
    });
  }
  for (std::thread& w : writers) w.join();

  auto wal_map = seg::MmapFile::Open(path).TakeValue();
  const std::vector<uint8_t> full(wal_map.data(),
                                  wal_map.data() + wal_map.size());
  std::vector<Ack> all_acks;
  for (const auto& per_writer : acks) {
    all_acks.insert(all_acks.end(), per_writer.begin(), per_writer.end());
  }
  ASSERT_EQ(all_acks.size(), static_cast<size_t>(kWriters * kPerWriter));

  const std::string trunc = dir + "/truncated.wal";
  auto check_cut = [&](size_t keep, const std::string& label) {
    ASSERT_TRUE(seg::WriteFileAtomic(trunc, full.data(), keep).ok());
    auto replay = seg::ReplayWal(trunc);
    ASSERT_TRUE(replay.ok()) << label;  // torn tails never error
    std::set<int64_t> survived;
    for (const IngestDelta& record : *replay) {
      ASSERT_EQ(record.kind, IngestDelta::Kind::kInterview) << label;
      // Clean prefix: whatever replays is uncorrupted.
      EXPECT_EQ(record.interview_text, InterviewBody(record.interview_oid))
          << label;
      survived.insert(record.interview_oid);
    }
    // No acknowledged record lost: every ack whose watermark fits under
    // the cut was durable inside those bytes.
    for (const Ack& ack : all_acks) {
      if (ack.watermark <= static_cast<int64_t>(keep)) {
        EXPECT_TRUE(survived.count(ack.oid))
            << label << ": acked oid " << ack.oid << " (watermark "
            << ack.watermark << ") lost at cut " << keep;
      }
    }
  };

  Rng rng(4711);
  // Truncate exactly at sampled acknowledgment watermarks...
  for (int trial = 0; trial < 12; ++trial) {
    const Ack& ack = all_acks[rng.NextBounded(all_acks.size())];
    check_cut(static_cast<size_t>(ack.watermark),
              "watermark trial " + std::to_string(trial));
  }
  // ... at the full file ...
  check_cut(full.size(), "full file");
  // ... and at arbitrary (mid-record) offsets.
  for (int trial = 0; trial < 8; ++trial) {
    check_cut(rng.NextBounded(full.size() + 1),
              "random trial " + std::to_string(trial));
  }
}

// ---------------------------------------------------------------------------
// CorpusIngestPipeline

TEST(IngestPipelineTest, MatchesSerialOracleAcrossThreadCountsAndWindows) {
  auto oracle_site = MakeSite();
  const std::vector<IngestDelta> ops = MakeOps(oracle_site);
  auto oracle =
      DigitalLibrary::Create(std::move(oracle_site.store)).TakeValue();
  ApplySerial(oracle.get(), ops);

  struct Config {
    int threads;
    size_t window;
  };
  const Config configs[] = {{0, 0}, {1, 1}, {3, 0}, {3, 1}, {8, 3}};
  for (const Config& config : configs) {
    auto site = MakeSite();
    auto library = DigitalLibrary::Create(std::move(site.store)).TakeValue();
    LibrarySink sink(library.get());
    std::unique_ptr<util::ThreadPool> pool;
    if (config.threads > 0) {
      pool = std::make_unique<util::ThreadPool>(config.threads);
    }
    CorpusIngestPipeline::Options options;
    options.pool = pool.get();
    options.window = config.window;
    CorpusIngestPipeline pipeline(&sink, options);
    ASSERT_TRUE(RunOps(&pipeline, ops).ok());

    const auto stats = pipeline.stats();
    EXPECT_EQ(stats.submitted, static_cast<int64_t>(ops.size()));
    EXPECT_EQ(stats.committed, static_cast<int64_t>(ops.size()));
    EXPECT_GE(stats.sweeps, 1);
    EXPECT_LE(stats.sweeps, stats.committed);

    const std::string label = "threads=" + std::to_string(config.threads) +
                              " window=" + std::to_string(config.window);
    EXPECT_EQ(library->signatures().num_records(),
              oracle->signatures().num_records())
        << label;
    ExpectSameAnswers(*oracle, *library, label);
  }
}

TEST(IngestPipelineTest, ErrorsAreStickyAndCommitsStayAPrefix) {
  auto site = MakeSite();
  auto library = DigitalLibrary::Create(std::move(site.store)).TakeValue();
  LibrarySink sink(library.get());
  util::ThreadPool pool(4);
  CorpusIngestPipeline::Options options;
  options.pool = &pool;
  CorpusIngestPipeline pipeline(&sink, options);

  constexpr int kBeforeFailure = 5;
  for (int i = 0; i < kBeforeFailure; ++i) {
    ASSERT_TRUE(pipeline
                    .SubmitVideo([i]() -> Result<IngestDelta> {
                      return IngestDelta::Video(MakeVideo(9000 + i), {});
                    })
                    .ok());
  }
  ASSERT_TRUE(pipeline
                  .SubmitVideo([]() -> Result<IngestDelta> {
                    return Status::InvalidArgument("synthetic analysis fault");
                  })
                  .ok());
  // Later submissions may be accepted (the fault might not have landed
  // yet) but must never commit.
  for (int i = 0; i < 4; ++i) {
    Status status = pipeline.SubmitVideo([i]() -> Result<IngestDelta> {
      return IngestDelta::Video(MakeVideo(9500 + i), {});
    });
    if (!status.ok()) {
      EXPECT_TRUE(status.ToString().find("synthetic analysis fault") !=
                  std::string::npos);
    }
  }
  Status finish = pipeline.Finish();
  ASSERT_FALSE(finish.ok());
  EXPECT_TRUE(finish.ToString().find("synthetic analysis fault") !=
              std::string::npos);
  // The committed set is exactly the slots before the failed one.
  EXPECT_EQ(pipeline.stats().committed, kBeforeFailure);
  // Sticky: the pipeline refuses further work.
  EXPECT_FALSE(pipeline.SubmitFinalizeText().ok());
  EXPECT_FALSE(pipeline.Finish().ok());
}

TEST(IngestPipelineTest, DurableIngestMatchesOracleAndSurvivesReopen) {
  auto oracle_site = MakeSite();
  const std::vector<IngestDelta> ops = MakeOps(oracle_site);
  auto oracle =
      DigitalLibrary::Create(std::move(oracle_site.store)).TakeValue();
  ApplySerial(oracle.get(), ops);

  const std::string dir = FreshDir("ingest_durable");
  util::ThreadPool pool(4);
  {
    auto durable =
        DurableLibrary::Create(dir, std::move(MakeSite().store)).TakeValue();
    DurableLibrarySink sink(durable.get());
    CorpusIngestPipeline::Options options;
    options.pool = &pool;
    CorpusIngestPipeline pipeline(&sink, options);
    ASSERT_TRUE(RunOps(&pipeline, ops).ok());

    // A video delta with signatures stages two WAL records
    // (description + signature batch).
    int64_t expected_records = 0;
    for (const IngestDelta& op : ops) {
      expected_records +=
          op.kind == IngestDelta::Kind::kVideo && !op.signatures.empty() ? 2
                                                                         : 1;
    }
    EXPECT_EQ(durable->wal_records_committed(), expected_records);
    // Sweeps batch durability waits: syncs can't exceed records, and
    // with the whole pipeline feeding one WAL they should not reach
    // one-per-record either.
    EXPECT_LE(durable->wal_sync_calls(), durable->wal_records_committed());
    ExpectSameAnswers(*oracle, durable->library(), "live");
  }
  // Everything acknowledged is in the WAL: reopen replays it.
  auto reopened = DurableLibrary::Open(dir).TakeValue();
  ExpectSameAnswers(*oracle, reopened->library(), "reopened");
}

// ---------------------------------------------------------------------------
// A failed delta leaves no trace

/// A second description of `oid` whose second signature record names
/// another video: the one way a video delta's signature batch can fail.
IngestDelta MismatchedVideoDelta(int64_t oid) {
  std::vector<vision::SignatureRecord> records = MakeSignatures(oid);
  records[1].video_id = oid + 1;
  return IngestDelta::Video(MakeVideo(oid), std::move(records));
}

/// `actual` holds exactly what `expected` holds: the same videos, event
/// rows, signature records, index epoch and sweep answers.
void ExpectSameLibrary(const DigitalLibrary& expected,
                       const DigitalLibrary& actual, const std::string& label) {
  EXPECT_EQ(expected.indexed_videos(), actual.indexed_videos()) << label;
  EXPECT_EQ(expected.meta_index().events().num_rows(),
            actual.meta_index().events().num_rows())
      << label;
  EXPECT_EQ(expected.signatures().num_records(),
            actual.signatures().num_records())
      << label;
  EXPECT_EQ(expected.index_epoch(), actual.index_epoch()) << label;
  ExpectSameAnswers(expected, actual, label);
}

/// Runs `ops` and then the failing `bad` delta through a pipeline over
/// `sink`: the failure surfaces as InvalidArgument and only `ops` commit.
void ExpectPipelineRejects(IngestSink* sink,
                           const std::vector<IngestDelta>& ops,
                           const IngestDelta& bad) {
  util::ThreadPool pool(2);
  CorpusIngestPipeline::Options options;
  options.pool = &pool;
  CorpusIngestPipeline pipeline(sink, options);
  std::vector<IngestDelta> all = ops;
  all.push_back(bad);
  const Status status = RunOps(&pipeline, all);
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_EQ(pipeline.stats().committed, static_cast<int64_t>(ops.size()));
}

TEST(IngestDeltaTest, FailedVideoDeltaLeavesNoTrace) {
  auto oracle_site = MakeSite();
  const std::vector<IngestDelta> ops = MakeOps(oracle_site);
  const IngestDelta bad = MismatchedVideoDelta(oracle_site.video_oids.front());
  auto oracle =
      DigitalLibrary::Create(std::move(oracle_site.store)).TakeValue();
  ApplySerial(oracle.get(), ops);

  {
    auto library = DigitalLibrary::Create(MakeSite().store).TakeValue();
    ApplySerial(library.get(), ops);
    EXPECT_TRUE(library->Apply(bad).IsInvalidArgument());
    ExpectSameLibrary(*oracle, *library, "DigitalLibrary::Apply");
  }
  {
    auto library = DigitalLibrary::Create(MakeSite().store).TakeValue();
    LibrarySink sink(library.get());
    ExpectPipelineRejects(&sink, ops, bad);
    ExpectSameLibrary(*oracle, *library, "pipeline into LibrarySink");
  }

  const std::string apply_dir = FreshDir("failed_delta_apply");
  {
    auto durable = DurableLibrary::Create(apply_dir, MakeSite().store)
                       .TakeValue();
    for (const IngestDelta& op : ops) ASSERT_TRUE(durable->Apply(op).ok());
    const int64_t records = durable->wal_records_committed();
    EXPECT_TRUE(durable->Apply(bad).IsInvalidArgument());
    EXPECT_EQ(durable->wal_records_committed(), records);
    ExpectSameLibrary(*oracle, durable->library(), "DurableLibrary::Apply");
  }
  const std::string pipeline_dir = FreshDir("failed_delta_pipeline");
  {
    auto durable = DurableLibrary::Create(pipeline_dir, MakeSite().store)
                       .TakeValue();
    DurableLibrarySink sink(durable.get());
    ExpectPipelineRejects(&sink, ops, bad);
    ExpectSameLibrary(*oracle, durable->library(),
                      "pipeline into DurableLibrarySink");
  }
  // Nothing of the failed delta reached the WAL either.
  for (const std::string& dir : {apply_dir, pipeline_dir}) {
    auto reopened = DurableLibrary::Open(dir).TakeValue();
    ExpectSameLibrary(*oracle, reopened->library(), dir + " reopened");
  }

  // A live 2-shard deployment seeded with the interviews publishes the
  // committed videos and nothing of the failed one.
  auto site = MakeSite();
  serving::CorpusParts seed;
  seed.store = site.store;
  seed.interviews.assign(site.interview_texts.begin(),
                         site.interview_texts.end());
  std::vector<IngestDelta> videos;
  for (const IngestDelta& op : ops) {
    if (op.kind == IngestDelta::Kind::kVideo) videos.push_back(op);
  }
  ShardedIngestSink::Options options;
  options.num_shards = 2;
  auto sink = ShardedIngestSink::Create(seed, options).TakeValue();
  ExpectPipelineRejects(sink.get(), videos, bad);
  size_t signature_records = 0;
  for (size_t s = 0; s < sink->num_shards(); ++s) {
    signature_records += sink->shard_library(s).signatures().num_records();
  }
  EXPECT_EQ(signature_records, oracle->signatures().num_records());
  for (const CombinedQuery& query : SweepQueries()) {
    auto expected = oracle->Search(query);
    auto actual = sink->frontend().Search(query, 0);
    ASSERT_EQ(expected.ok(), actual.ok());
    if (expected.ok()) ExpectBitIdentical(*expected, *actual, "sharded");
  }
}

// ---------------------------------------------------------------------------
// ShardedIngestSink

/// Seed corpus (unfinalized text, first-half interviews, first-half
/// videos) + the live tail as deltas, and the full-corpus oracle.
struct ShardedFixture {
  serving::CorpusParts seed;
  std::vector<IngestDelta> live;
  std::unique_ptr<DigitalLibrary> oracle;
};

ShardedFixture MakeShardedFixture() {
  ShardedFixture fx;
  auto site = MakeSite();
  std::vector<std::pair<int64_t, std::string>> interviews(
      site.interview_texts.begin(), site.interview_texts.end());
  const std::vector<int64_t> videos = site.video_oids;
  const size_t interview_split = interviews.size() / 2;
  const size_t video_split = videos.size() / 2;

  fx.seed.store = site.store;
  for (size_t i = 0; i < interview_split; ++i) {
    fx.seed.interviews.push_back(interviews[i]);
  }
  for (size_t v = 0; v < video_split; ++v) {
    fx.seed.videos.push_back(MakeVideo(videos[v]));
    fx.seed.signatures.emplace_back(videos[v], MakeSignatures(videos[v]));
  }
  for (size_t i = interview_split; i < interviews.size(); ++i) {
    fx.live.push_back(
        IngestDelta::Interview(interviews[i].first, interviews[i].second));
  }
  fx.live.push_back(IngestDelta::FinalizeText());
  for (size_t v = video_split; v < videos.size(); ++v) {
    fx.live.push_back(IngestDelta::Video(MakeVideo(videos[v]),
                                         MakeSignatures(videos[v])));
  }

  // The oracle replays the same per-modality sequences unsharded: all
  // interviews then one finalize; videos seed-first then live.
  fx.oracle = DigitalLibrary::Create(std::move(site.store)).TakeValue();
  for (const auto& [oid, body] : interviews) {
    EXPECT_TRUE(fx.oracle->AddInterview(oid, body).ok());
  }
  EXPECT_TRUE(fx.oracle->FinalizeText().ok());
  for (int64_t oid : videos) {
    EXPECT_TRUE(fx.oracle->AddVideoDescription(MakeVideo(oid)).ok());
    EXPECT_TRUE(fx.oracle->AddVideoSignatures(oid, MakeSignatures(oid)).ok());
  }
  return fx;
}

TEST(ShardedIngestTest, LiveIngestAnswersSweepLikeTheUnshardedOracle) {
  const ShardedFixture fx = MakeShardedFixture();
  const auto queries = SweepQueries();
  for (size_t num_shards : {size_t{1}, size_t{2}, size_t{7}}) {
    ShardedIngestSink::Options options;
    options.num_shards = num_shards;
    options.finalize_seed_text = false;
    auto sink = ShardedIngestSink::Create(fx.seed, options).TakeValue();

    util::ThreadPool pool(3);
    CorpusIngestPipeline::Options pipeline_options;
    pipeline_options.pool = &pool;
    CorpusIngestPipeline pipeline(sink.get(), pipeline_options);
    ASSERT_TRUE(RunOps(&pipeline, fx.live).ok());
    EXPECT_GE(sink->publishes(), static_cast<int64_t>(num_shards));

    const std::string base = "shards=" + std::to_string(num_shards);
    size_t signature_records = 0;
    for (size_t s = 0; s < sink->num_shards(); ++s) {
      signature_records += sink->shard_library(s).signatures().num_records();
    }
    EXPECT_EQ(signature_records, fx.oracle->signatures().num_records())
        << base;

    for (size_t qi = 0; qi < queries.size(); ++qi) {
      for (size_t top_n : {size_t{3}, size_t{0}}) {
        auto expected = fx.oracle->Search(queries[qi]);
        auto actual = sink->frontend().Search(queries[qi], top_n);
        const std::string label =
            base + " query=" + std::to_string(qi) +
            " n=" + std::to_string(top_n);
        ASSERT_EQ(expected.ok(), actual.ok())
            << label << " " << expected.status().ToString() << " vs "
            << actual.status().ToString();
        if (!expected.ok()) continue;
        if (top_n > 0 && expected->size() > top_n) expected->resize(top_n);
        ExpectBitIdentical(*expected, *actual, label);
      }
    }
  }
}

TEST(ShardedIngestTest, QueriesRacingPublishesStayWellFormed) {
  const ShardedFixture fx = MakeShardedFixture();
  ShardedIngestSink::Options options;
  options.num_shards = 2;
  options.finalize_seed_text = false;
  options.serving.replicas = 2;
  auto sink = ShardedIngestSink::Create(fx.seed, options).TakeValue();

  // Hammer the frontend with content-only queries (the text index is not
  // finalized until the ingest stream says so) while ingest publishes.
  std::atomic<bool> stop{false};
  std::atomic<int64_t> answered{0};
  std::promise<void> first_answer;
  std::thread reader([&] {
    const char* events[] = {"net_play", "rally", "service", "smash"};
    int round = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      CombinedQuery query;
      query.event = events[round++ % 4];
      if (round % 3 == 0) query.require_champion = true;
      auto hits = sink->frontend().Search(query, 8);
      // Shedding under load is allowed; everything else must be a clean
      // answer from some published snapshot.
      if (hits.ok()) {
        answered.fetch_add(1, std::memory_order_relaxed);
      } else {
        EXPECT_TRUE(hits.status().IsUnavailable())
            << hits.status().ToString();
      }
      if (round == 1) first_answer.set_value();
    }
  });
  // Ingest starts only once the reader's first query is back. That query
  // ran alone against the seed snapshot, so it cannot have been shed, and
  // the answered > 0 check below holds by the order of events, not by how
  // long the ingest happens to take.
  first_answer.get_future().wait();

  util::ThreadPool pool(2);
  CorpusIngestPipeline::Options pipeline_options;
  pipeline_options.pool = &pool;
  CorpusIngestPipeline pipeline(sink.get(), pipeline_options);
  Status ingest = RunOps(&pipeline, fx.live);
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  ASSERT_TRUE(ingest.ok()) << ingest.ToString();
  EXPECT_GT(answered.load(), 0);

  // Quiescent again: the final published state is the oracle.
  auto expected = fx.oracle->Search(SweepQueries()[24]);
  auto actual = sink->frontend().Search(SweepQueries()[24], 0);
  ASSERT_EQ(expected.ok(), actual.ok());
  if (expected.ok()) {
    ExpectBitIdentical(*expected, *actual, "post-race");
  }
}

}  // namespace
}  // namespace cobra::engine::ingest
