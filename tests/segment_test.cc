/// \file segment_test.cc
/// Durable segment storage (DESIGN.md §4h):
///   * TableSerde delta roundtrips, including string dictionary deltas and
///     the out-of-order-application guard;
///   * whole-segment write/open/restore roundtrips, single segment and a
///     base+delta chain with pending interviews;
///   * the mmap-backed (zero-copy) restored text index holds the writer's
///     exact postings and answers bit-identically to the heap-backed
///     index it was written from;
///   * corruption hardening: mutated headers, section payloads, checksums
///     and truncations must fail cleanly with Status, never crash (run
///     under asan/ubsan in CI);
///   * segments that still carry the retired compressed-text section
///     (id 7) open, restore and answer the planner sweep unchanged, and
///     compaction drops the section;
///   * WAL framing roundtrip and torn-tail truncation semantics, the pinned
///     on-disk frame bytes, group commit's one fdatasync per waited group,
///     and the failed wait on a record that was never staged.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/ingest_delta.h"
#include "core/meta_index.h"
#include "core/video_description.h"
#include "engine/digital_library.h"
#include "engine/durable_library.h"
#include "storage/segment/format.h"
#include "storage/segment/io.h"
#include "storage/segment/segment.h"
#include "storage/segment/wal.h"
#include "storage/table.h"
#include "text/inverted_index.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "vision/signature.h"
#include "webspace/site_synthesizer.h"
#include "webspace/store.h"

namespace cobra::storage::segment {
namespace {

using storage::ColumnDef;
using storage::CompareOp;
using storage::DataType;
using storage::Table;
using storage::Value;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

/// Section id 7: the delta+varbyte copy of the interview postings that
/// older segments carry (format.h keeps the id reserved).
constexpr SectionId kRetiredCompressedText = static_cast<SectionId>(7);

// ---------------------------------------------------------------------------
// TableSerde deltas.

Table MakeMixedTable() {
  return Table::Create({{"id", DataType::kInt64},
                        {"score", DataType::kDouble},
                        {"name", DataType::kString}})
      .TakeValue();
}

void AppendMixedRows(Table* table, int64_t begin, int64_t end) {
  const char* names[] = {"alpha", "beta", "gamma", "delta", "epsilon"};
  for (int64_t i = begin; i < end; ++i) {
    ASSERT_TRUE(table
                    ->AppendRow({Value{i}, Value{i * 0.25},
                                 Value{std::string(names[i % 5]) +
                                       (i % 7 == 0 ? std::to_string(i) : "")}})
                    .ok());
  }
}

void ExpectTablesEqual(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_columns(), b.num_columns());
  for (size_t c = 0; c < a.num_columns(); ++c) {
    for (int64_t r = 0; r < a.num_rows(); ++r) {
      EXPECT_EQ(a.GetValue(r, c).TakeValue(), b.GetValue(r, c).TakeValue())
          << "row " << r << " col " << c;
    }
    // Derived stats must be rebuilt identically (zone maps fold into the
    // range; NDV counts dictionary entries / distinct values).
    const auto sa = a.Stats(c).TakeValue();
    const auto sb = b.Stats(c).TakeValue();
    EXPECT_EQ(sa.rows, sb.rows);
    EXPECT_EQ(sa.ndv, sb.ndv);
    EXPECT_EQ(sa.range.imin, sb.range.imin);
    EXPECT_EQ(sa.range.imax, sb.range.imax);
  }
}

TEST(TableSerdeTest, DeltaRoundtripWithStringDictionary) {
  Table original = MakeMixedTable();
  AppendMixedRows(&original, 0, 3000);  // crosses a zone-map block boundary

  ByteWriter base;
  ASSERT_TRUE(TableSerde::WriteDelta(original, 0, &base).ok());

  Table restored = MakeMixedTable();
  ByteReader base_in(base.buffer().data(), base.size());
  ASSERT_TRUE(TableSerde::ApplyDelta(&restored, &base_in).ok());
  ExpectTablesEqual(original, restored);

  // Second window: new rows reuse old dictionary entries and add new ones.
  AppendMixedRows(&original, 3000, 4500);
  ByteWriter delta;
  ASSERT_TRUE(TableSerde::WriteDelta(original, 3000, &delta).ok());
  ByteReader delta_in(delta.buffer().data(), delta.size());
  ASSERT_TRUE(TableSerde::ApplyDelta(&restored, &delta_in).ok());
  ExpectTablesEqual(original, restored);
}

TEST(TableSerdeTest, OutOfOrderDeltaIsRejected) {
  Table original = MakeMixedTable();
  AppendMixedRows(&original, 0, 100);
  ByteWriter delta;
  ASSERT_TRUE(TableSerde::WriteDelta(original, 50, &delta).ok());

  Table empty = MakeMixedTable();  // expects a delta starting at row 0
  ByteReader in(delta.buffer().data(), delta.size());
  EXPECT_FALSE(TableSerde::ApplyDelta(&empty, &in).ok());
}

TEST(TableSerdeTest, ArityMismatchIsRejected) {
  Table original = MakeMixedTable();
  AppendMixedRows(&original, 0, 10);
  ByteWriter delta;
  ASSERT_TRUE(TableSerde::WriteDelta(original, 0, &delta).ok());

  Table narrow = Table::Create({{"id", DataType::kInt64}}).TakeValue();
  ByteReader in(delta.buffer().data(), delta.size());
  EXPECT_FALSE(TableSerde::ApplyDelta(&narrow, &in).ok());
}

// ---------------------------------------------------------------------------
// Whole-segment roundtrips over a synthesized library.

struct Fixture {
  webspace::WebspaceStore store;
  core::MetaIndex meta;
  text::InvertedIndex text;
  std::vector<int64_t> video_oids;
  std::map<int64_t, std::string> interviews;
  std::vector<vision::SignatureRecord> signatures;
};

std::vector<vision::SignatureRecord> MakeSignatures(
    const std::vector<int64_t>& video_oids) {
  std::vector<vision::SignatureRecord> records;
  Rng rng(17);
  for (int64_t oid : video_oids) {
    for (int64_t shot = 0; shot < 4; ++shot) {
      vision::SignatureRecord rec;
      for (uint64_t& word : rec.sig.hash) word = rng.NextU64();
      for (uint8_t& byte : rec.sig.sketch) {
        byte = static_cast<uint8_t>(rng.NextBounded(256));
      }
      rec.video_id = oid;
      rec.begin = shot * 100;
      rec.end = shot * 100 + 99;
      records.push_back(rec);
    }
  }
  return records;
}

core::VideoDescription MakeVideo(int64_t oid, uint64_t seed) {
  const char* events[] = {"net_play", "rally", "service", "smash"};
  Rng rng(seed);
  core::VideoDescription desc(oid, "synthetic", 25.0, 40000);
  for (int e = 0; e < 20; ++e) {
    const int64_t begin = rng.NextInt(0, 39000);
    desc.Add(core::CobraLayer::kEvent,
             grammar::Annotation(events[rng.NextBounded(4)],
                                 {begin, begin + rng.NextInt(10, 900)})
                 .Set("player", rng.NextInt(-1, 1)));
  }
  return desc;
}

std::vector<std::string> MakeTokens(Rng* rng, size_t count) {
  const char* vocabulary[] = {"net",   "play",  "serve", "champion", "title",
                              "rally", "smash", "volley", "ace",     "match"};
  std::vector<std::string> tokens;
  for (size_t i = 0; i < count; ++i) {
    tokens.push_back(vocabulary[rng->NextBounded(10)]);
  }
  return tokens;
}

Fixture MakeFixture() {
  webspace::SiteConfig config;
  config.num_players = 12;
  config.num_past_years = 3;
  config.videos_per_year = 1;
  config.seed = 7;
  auto site = webspace::SiteSynthesizer::Generate(config).TakeValue();

  Fixture out{std::move(site.store), core::MetaIndex::Create().TakeValue(),
              text::InvertedIndex(), std::move(site.video_oids),
              std::move(site.interview_texts), {}};
  Rng rng(11);
  for (const auto& [oid, body] : out.interviews) {
    (void)body;
    EXPECT_TRUE(out.text.AddDocument(oid, MakeTokens(&rng, 60)).ok());
  }
  EXPECT_TRUE(out.text.Finalize().ok());
  for (int64_t oid : out.video_oids) {
    EXPECT_TRUE(
        out.meta.AddVideo(MakeVideo(oid, static_cast<uint64_t>(oid))).ok());
  }
  out.signatures = MakeSignatures(out.video_oids);
  return out;
}

LibraryDelta FullDelta(const Fixture& fixture) {
  LibraryDelta delta;
  delta.index_epoch = 5;
  delta.store = &fixture.store;
  delta.class_from_rows.assign(fixture.store.schema().classes().size(), 0);
  delta.assoc_from_rows.assign(fixture.store.schema().associations().size(),
                               0);
  delta.meta = &fixture.meta;
  delta.new_video_oids = fixture.video_oids;
  delta.text = &fixture.text;
  if (!fixture.signatures.empty()) {
    delta.signature_chunks = {
        {fixture.signatures.data(), fixture.signatures.size()}};
  }
  return delta;
}

void ExpectSameSearch(const text::InvertedIndex& a,
                      const text::InvertedIndex& b) {
  const char* queries[] = {"net play", "champion title", "serve ace match",
                           "volley", "smash rally net"};
  for (const char* query : queries) {
    auto ha = a.SearchTopN(query, 5).TakeValue();
    auto hb = b.SearchTopN(query, 5).TakeValue();
    ASSERT_EQ(ha.size(), hb.size()) << query;
    for (size_t i = 0; i < ha.size(); ++i) {
      EXPECT_EQ(ha[i].doc_id, hb[i].doc_id) << query;
      // Bit-identical scores, not approximately equal.
      uint64_t bits_a = 0, bits_b = 0;
      std::memcpy(&bits_a, &ha[i].score, 8);
      std::memcpy(&bits_b, &hb[i].score, 8);
      EXPECT_EQ(bits_a, bits_b) << query;
    }
  }
}

TEST(SegmentTest, SingleSegmentRoundtrip) {
  Fixture fixture = MakeFixture();
  const std::string path = TempPath("seg_roundtrip.cseg");
  ASSERT_TRUE(WriteSegment(FullDelta(fixture), path).ok());

  auto reader = SegmentReader::Open(path).TakeValue();
  EXPECT_EQ(reader->index_epoch(), 5);
  EXPECT_TRUE(reader->text_finalized());
  EXPECT_EQ(reader->new_video_oids(), fixture.video_oids);
  // The interview index is persisted once, as the raw kTextIndex section.
  ASSERT_TRUE(reader->has_section(SectionId::kTextIndex));
  EXPECT_FALSE(reader->has_section(kRetiredCompressedText));

  // The signature section maps back zero-copy and bit-identical.
  ASSERT_TRUE(reader->has_section(SectionId::kSignatures));
  auto chunk = reader->SignatureChunk().TakeValue();
  ASSERT_EQ(chunk.second, fixture.signatures.size());
  EXPECT_EQ(std::memcmp(chunk.first, fixture.signatures.data(),
                        chunk.second * sizeof(vision::SignatureRecord)),
            0);
  // The raw records are 64-aligned in the map, ready for SIMD loads.
  EXPECT_EQ(reinterpret_cast<uintptr_t>(chunk.first) % 64, 0u);

  auto parts = RestoreFromSegments({reader.get()}).TakeValue();
  EXPECT_EQ(parts.index_epoch, 5);
  ASSERT_EQ(parts.signature_chunks.size(), 1u);
  EXPECT_EQ(parts.signature_chunks[0].second, fixture.signatures.size());
  EXPECT_EQ(parts.indexed_videos, fixture.video_oids);
  ASSERT_TRUE(parts.text.has_value());
  EXPECT_TRUE(parts.pending_interviews.empty());
  ExpectSameSearch(fixture.text, *parts.text);

  // Webspace tables roundtrip exactly, then rebuild into a valid store.
  for (const auto& cls : fixture.store.schema().classes()) {
    const Table* original = fixture.store.ClassTable(cls.name).TakeValue();
    ASSERT_TRUE(parts.class_tables.count(cls.name));
    ExpectTablesEqual(*original, parts.class_tables.at(cls.name));
  }
  auto store = webspace::WebspaceStore::Restore(
                   parts.schema, std::move(parts.class_tables),
                   std::move(parts.assoc_tables))
                   .TakeValue();
  auto meta = core::MetaIndex::FromTables(
                  std::move(parts.shots), std::move(parts.objects),
                  std::move(parts.events),
                  static_cast<int64_t>(parts.indexed_videos.size()))
                  .TakeValue();
  ExpectTablesEqual(fixture.meta.events(), meta.events());
  EXPECT_EQ(meta.num_videos(), fixture.meta.num_videos());
  auto scenes = meta.FindScenes("net_play").TakeValue();
  EXPECT_EQ(scenes.size(), fixture.meta.FindScenes("net_play")->size());
  (void)store;
}

TEST(SegmentTest, DeltaChainWithPendingInterviews) {
  webspace::SiteConfig config;
  config.num_players = 8;
  config.num_past_years = 2;
  config.seed = 13;
  auto site = webspace::SiteSynthesizer::Generate(config).TakeValue();
  webspace::WebspaceStore& store = site.store;
  auto meta = core::MetaIndex::Create().TakeValue();

  // Segment 0: the base snapshot, text still open with two pending docs.
  LibraryDelta base;
  base.index_epoch = 1;
  base.store = &store;
  base.class_from_rows.assign(store.schema().classes().size(), 0);
  base.assoc_from_rows.assign(store.schema().associations().size(), 0);
  base.meta = &meta;
  base.pending_interviews = {{101, "net play champion"},
                             {102, "serve ace title"}};
  const std::string base_path = TempPath("seg_chain_0.cseg");
  ASSERT_TRUE(WriteSegment(base, base_path).ok());

  // Mutate: new player, one more pending doc, one indexed video.
  std::vector<int64_t> class_from, assoc_from;
  for (const auto& cls : store.schema().classes()) {
    class_from.push_back(store.ClassTable(cls.name).TakeValue()->num_rows());
  }
  for (const auto& assoc : store.schema().associations()) {
    assoc_from.push_back(
        store.AssociationTable(assoc.name).TakeValue()->num_rows());
  }
  auto player = store.Insert(
      "Player", {Value{std::string("Newcomer")}, Value{std::string("female")},
                 Value{std::string("left")}, Value{std::string("AUS")},
                 Value{int64_t{99}}});
  ASSERT_TRUE(player.ok());
  const int64_t video_oid = site.video_oids.front();
  ASSERT_TRUE(meta.AddVideo(MakeVideo(video_oid, 3)).ok());

  LibraryDelta delta;
  delta.index_epoch = 2;
  delta.store = &store;
  delta.class_from_rows = class_from;
  delta.assoc_from_rows = assoc_from;
  delta.meta = &meta;
  delta.new_video_oids = {video_oid};
  delta.pending_interviews = {{103, "rally smash volley"}};
  const std::string delta_path = TempPath("seg_chain_1.cseg");
  ASSERT_TRUE(WriteSegment(delta, delta_path).ok());

  auto base_reader = SegmentReader::Open(base_path).TakeValue();
  auto delta_reader = SegmentReader::Open(delta_path).TakeValue();
  auto parts =
      RestoreFromSegments({base_reader.get(), delta_reader.get()}).TakeValue();
  EXPECT_EQ(parts.index_epoch, 2);
  EXPECT_FALSE(parts.text.has_value());
  ASSERT_EQ(parts.pending_interviews.size(), 3u);
  EXPECT_EQ(parts.pending_interviews[0].first, 101);
  EXPECT_EQ(parts.pending_interviews[2].first, 103);
  EXPECT_EQ(parts.indexed_videos, std::vector<int64_t>{video_oid});
  for (const auto& cls : store.schema().classes()) {
    ExpectTablesEqual(*store.ClassTable(cls.name).TakeValue(),
                      parts.class_tables.at(cls.name));
  }
  auto restored = webspace::WebspaceStore::Restore(
                      parts.schema, std::move(parts.class_tables),
                      std::move(parts.assoc_tables))
                      .TakeValue();
  EXPECT_EQ(restored.GetAttribute("Player", *player, "ranking").TakeValue(),
            Value{int64_t{99}});
}

TEST(SegmentTest, MmapAndHeapTextAreBitIdentical) {
  Fixture fixture = MakeFixture();
  const std::string path = TempPath("seg_bitident.cseg");
  ASSERT_TRUE(WriteSegment(FullDelta(fixture), path).ok());
  auto reader = SegmentReader::Open(path).TakeValue();

  auto mapped = reader->LoadTextIndex().TakeValue();
  // The heap-backed side is the in-memory index the segment was written
  // from: every term views exactly its postings and skip blocks.
  const auto heap_terms = fixture.text.TermRanges().TakeValue();
  const auto mapped_terms = mapped.TermRanges().TakeValue();
  ASSERT_EQ(heap_terms.size(), mapped_terms.size());
  for (size_t t = 0; t < heap_terms.size(); ++t) {
    const auto& heap = heap_terms[t];
    const auto& view = mapped_terms[t];
    ASSERT_EQ(*heap.term, *view.term);
    EXPECT_EQ(std::memcmp(&heap.idf, &view.idf, 8), 0) << *heap.term;
    EXPECT_EQ(std::memcmp(&heap.max_weight, &view.max_weight, 8), 0)
        << *heap.term;
    ASSERT_EQ(heap.postings.size(), view.postings.size()) << *heap.term;
    ASSERT_EQ(heap.blocks.size(), view.blocks.size()) << *heap.term;
    EXPECT_EQ(std::memcmp(heap.postings.data(), view.postings.data(),
                          heap.postings.size() *
                              sizeof(text::InvertedIndex::Posting)),
              0)
        << *heap.term;
    EXPECT_EQ(std::memcmp(heap.blocks.data(), view.blocks.data(),
                          heap.blocks.size() *
                              sizeof(text::InvertedIndex::BlockMeta)),
              0)
        << *heap.term;
  }
  EXPECT_EQ(fixture.text.doc_norms(), mapped.doc_norms());
  ExpectSameSearch(fixture.text, mapped);

  // Copies of a view-backed index keep working (span re-pointing rules).
  text::InvertedIndex mapped_copy = mapped;
  ExpectSameSearch(fixture.text, mapped_copy);
}

// ---------------------------------------------------------------------------
// Corruption hardening. Every mutated or truncated file must produce a
// clean Status failure or a successful open whose loads are themselves
// clean — never UB (this test runs under asan and ubsan in CI).

std::vector<uint8_t> ReadAll(const std::string& path) {
  auto map = MmapFile::Open(path).TakeValue();
  return std::vector<uint8_t>(map.data(), map.data() + map.size());
}

void ExpectCleanOpen(const std::string& path) {
  auto reader = SegmentReader::Open(path);
  if (!reader.ok()) return;  // clean failure
  // A "lucky" mutation (padding, ignored bytes) may open; every decode
  // path must then either succeed or fail cleanly.
  std::optional<webspace::ConceptSchema> schema;
  std::map<std::string, Table> class_tables, assoc_tables;
  (void)(*reader)->ApplyWebspace(&schema, &class_tables, &assoc_tables);
  Table shots, objects, events;
  if (CreateMetaTables(&shots, &objects, &events).ok()) {
    (void)(*reader)->ApplyMeta(&shots, &objects, &events);
  }
  // Read every posting and skip-block byte the restored index views in
  // the mapping, so a size or offset a flip pushed past the section shows
  // up here (under asan).
  if (auto index = (*reader)->LoadTextIndex(); index.ok()) {
    uint32_t crc = 0;
    for (const auto& range : index->TermRanges().TakeValue()) {
      crc = util::Crc32(
          range.postings.data(),
          range.postings.size() * sizeof(text::InvertedIndex::Posting), crc);
      crc = util::Crc32(
          range.blocks.data(),
          range.blocks.size() * sizeof(text::InvertedIndex::BlockMeta), crc);
    }
    (void)crc;
  }
  (void)(*reader)->PendingInterviews();
  (void)(*reader)->SignatureChunk();
}

TEST(SegmentCorruptionTest, MutatedBytesFailCleanly) {
  Fixture fixture = MakeFixture();
  const std::string path = TempPath("seg_fuzz.cseg");
  ASSERT_TRUE(WriteSegment(FullDelta(fixture), path).ok());
  const std::vector<uint8_t> pristine = ReadAll(path);
  const std::string mutated_path = TempPath("seg_fuzz_mut.cseg");

  Rng rng(31337);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<uint8_t> mutated = pristine;
    const int flips = 1 + static_cast<int>(rng.NextBounded(4));
    for (int f = 0; f < flips; ++f) {
      const size_t pos = rng.NextBounded(mutated.size());
      mutated[pos] ^= static_cast<uint8_t>(1 + rng.NextBounded(255));
    }
    ASSERT_TRUE(
        WriteFileAtomic(mutated_path, mutated.data(), mutated.size()).ok());
    ExpectCleanOpen(mutated_path);
  }
}

TEST(SegmentCorruptionTest, TargetedHeaderAndSectionCorruptionFails) {
  Fixture fixture = MakeFixture();
  const std::string path = TempPath("seg_target.cseg");
  ASSERT_TRUE(WriteSegment(FullDelta(fixture), path).ok());
  const std::vector<uint8_t> pristine = ReadAll(path);
  const std::string mutated_path = TempPath("seg_target_mut.cseg");

  auto expect_open_fails = [&](std::vector<uint8_t> bytes) {
    ASSERT_TRUE(WriteFileAtomic(mutated_path, bytes.data(), bytes.size()).ok());
    EXPECT_FALSE(SegmentReader::Open(mutated_path).ok());
  };

  // Magic, version, header CRC.
  for (size_t pos : {size_t{0}, size_t{8}, size_t{12}}) {
    std::vector<uint8_t> bytes = pristine;
    bytes[pos] ^= 0xFF;
    expect_open_fails(std::move(bytes));
  }
  // First byte of every section payload (each is CRC-covered).
  {
    std::vector<uint8_t> bytes = pristine;
    bytes[kPageSize] ^= 0x01;  // first section starts at the first page
    expect_open_fails(std::move(bytes));
  }
  // Truncations: mid-header, mid-table, mid-payload.
  for (size_t keep : {size_t{10}, size_t{100}, pristine.size() / 2,
                      pristine.size() - 1}) {
    expect_open_fails(
        std::vector<uint8_t>(pristine.begin(), pristine.begin() + keep));
  }
}

TEST(SegmentCorruptionTest, SignatureRecordValidationRejectsBadFields) {
  // The signature section is handed out as a zero-copy view, so the loader
  // must reject field values a correct writer can never produce — a CRC
  // pass alone does not make the records meaningful.
  Fixture fixture = MakeFixture();
  const std::string path = TempPath("seg_sig_bad.cseg");
  const std::vector<vision::SignatureRecord> pristine = fixture.signatures;
  for (int which = 0; which < 3; ++which) {
    fixture.signatures = pristine;
    vision::SignatureRecord& rec = fixture.signatures[2];
    switch (which) {
      case 0:
        rec.video_id = -7;
        break;
      case 1:
        rec.begin = -1;
        break;
      case 2:
        rec.begin = 50;
        rec.end = 10;
        break;
    }
    ASSERT_TRUE(WriteSegment(FullDelta(fixture), path).ok());
    auto reader = SegmentReader::Open(path).TakeValue();
    EXPECT_FALSE(reader->SignatureChunk().ok()) << "variant " << which;
    EXPECT_FALSE(RestoreFromSegments({reader.get()}).ok())
        << "variant " << which;
  }
}

// ---------------------------------------------------------------------------
// Segments that still carry the retired compressed-text section (id 7).

/// Rewrites the segment at `path` the way a writer that still emitted `id`
/// laid it out: `payload` becomes a CRC-valid section right after
/// kTextIndex, and the section table, every offset, the file size and both
/// header CRCs are recomputed.
void SpliceSection(const std::string& path, SectionId id,
                   const std::vector<uint8_t>& payload) {
  const std::vector<uint8_t> bytes = ReadAll(path);
  FileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  std::vector<SectionEntry> entries(header.section_count);
  std::memcpy(entries.data(), bytes.data() + header.section_table_offset,
              entries.size() * sizeof(SectionEntry));
  std::vector<std::vector<uint8_t>> payloads;
  for (const SectionEntry& e : entries) {
    payloads.emplace_back(bytes.begin() + e.offset,
                          bytes.begin() + e.offset + e.size);
  }
  auto text = std::find_if(entries.begin(), entries.end(), [](const auto& e) {
    return e.id == static_cast<uint32_t>(SectionId::kTextIndex);
  });
  ASSERT_NE(text, entries.end()) << path;
  const size_t at = static_cast<size_t>(text - entries.begin()) + 1;
  SectionEntry added;
  added.id = static_cast<uint32_t>(id);
  added.size = payload.size();
  added.crc32 = util::Crc32(payload.data(), payload.size());
  entries.insert(entries.begin() + at, added);
  payloads.insert(payloads.begin() + at, payload);

  auto align = [](uint64_t v) {
    return (v + kPageSize - 1) / kPageSize * kPageSize;
  };
  uint64_t offset =
      align(sizeof(FileHeader) + entries.size() * sizeof(SectionEntry));
  for (SectionEntry& e : entries) {
    e.offset = offset;
    offset = align(offset + e.size);
  }
  header.section_count = static_cast<uint32_t>(entries.size());
  header.file_size = offset;
  header.section_table_crc =
      util::Crc32(entries.data(), entries.size() * sizeof(SectionEntry));
  header.header_crc = 0;
  header.header_crc = util::Crc32(&header, sizeof(header));

  std::vector<uint8_t> file(offset, 0);
  std::memcpy(file.data(), &header, sizeof(header));
  std::memcpy(file.data() + header.section_table_offset, entries.data(),
              entries.size() * sizeof(SectionEntry));
  for (size_t i = 0; i < entries.size(); ++i) {
    std::copy(payloads[i].begin(), payloads[i].end(),
              file.begin() + static_cast<ptrdiff_t>(entries[i].offset));
  }
  ASSERT_TRUE(WriteFileAtomic(path, file.data(), file.size()).ok());
}

/// Stand-in bytes for a retired compressed-text payload: readers never
/// decode the section, so only its size and CRC matter. Spans two pages.
std::vector<uint8_t> RetiredPayload() {
  std::vector<uint8_t> payload(6000);
  Rng rng(7);
  for (uint8_t& byte : payload) {
    byte = static_cast<uint8_t>(rng.NextBounded(256));
  }
  return payload;
}

TEST(LegacySegmentTest, RetiredCompressedTextSectionIsIgnored) {
  Fixture fixture = MakeFixture();
  const std::string path = TempPath("seg_legacy.cseg");
  ASSERT_TRUE(WriteSegment(FullDelta(fixture), path).ok());
  ASSERT_NO_FATAL_FAILURE(
      SpliceSection(path, kRetiredCompressedText, RetiredPayload()));

  for (SegmentReader::Verify verify :
       {SegmentReader::Verify::kFull, SegmentReader::Verify::kNone}) {
    auto reader = SegmentReader::Open(path, verify);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    EXPECT_TRUE((*reader)->has_section(kRetiredCompressedText));
    auto parts = RestoreFromSegments({reader->get()});
    ASSERT_TRUE(parts.ok()) << parts.status().ToString();
    ASSERT_TRUE(parts->text.has_value());
    EXPECT_EQ(parts->indexed_videos, fixture.video_oids);
    ASSERT_EQ(parts->signature_chunks.size(), 1u);
    ExpectSameSearch(fixture.text, *parts->text);
  }

  // The section is CRC-checked like any other: a flipped byte in it fails
  // a full-verify open, while a kNone open never reads it.
  std::vector<uint8_t> bytes = ReadAll(path);
  FileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  for (uint32_t i = 0; i < header.section_count; ++i) {
    SectionEntry e;
    std::memcpy(&e, bytes.data() + header.section_table_offset +
                        i * sizeof(SectionEntry),
                sizeof(e));
    if (e.id == static_cast<uint32_t>(kRetiredCompressedText)) {
      bytes[e.offset + e.size / 2] ^= 0x5A;
    }
  }
  const std::string mutated = TempPath("seg_legacy_mut.cseg");
  ASSERT_TRUE(WriteFileAtomic(mutated, bytes.data(), bytes.size()).ok());
  EXPECT_FALSE(SegmentReader::Open(mutated).ok());
  auto reader = SegmentReader::Open(mutated, SegmentReader::Verify::kNone);
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(RestoreFromSegments({reader->get()}).ok());
}

/// The 16-modality planner sweep: every subset of {player predicate,
/// champion, text, event}.
std::vector<engine::CombinedQuery> SweepQueries() {
  std::vector<engine::CombinedQuery> queries;
  for (int combo = 0; combo < 16; ++combo) {
    engine::CombinedQuery query;
    if (combo & 1) {
      query.player_predicates.push_back(
          {"hand", CompareOp::kEq, std::string("left")});
    }
    query.require_champion = (combo & 2) != 0;
    if (combo & 4) {
      query.text = "champion title";
      query.text_top_k = 6;
    }
    if (combo & 8) query.event = "net_play";
    queries.push_back(std::move(query));
  }
  return queries;
}

/// The sweep's answers, one line per query: the error status, or every
/// hit with the bit pattern of its score.
std::vector<std::string> SweepAnswers(const engine::DigitalLibrary& library) {
  std::vector<std::string> out;
  for (const engine::CombinedQuery& query : SweepQueries()) {
    auto hits = library.Search(query);
    if (!hits.ok()) {
      out.push_back(hits.status().ToString());
      continue;
    }
    std::string line;
    for (const engine::SceneHit& hit : *hits) {
      uint64_t bits = 0;
      std::memcpy(&bits, &hit.text_score, sizeof(bits));
      line += std::to_string(hit.player_oid) + " " + hit.player_name + " " +
              std::to_string(hit.video_oid) + " " +
              std::to_string(hit.range.begin) + "-" +
              std::to_string(hit.range.end) + " " + hit.event + " " +
              std::to_string(bits) + ";";
    }
    out.push_back(line);
  }
  return out;
}

/// The .cseg files in `dir`.
std::vector<std::string> SegmentFiles(const std::string& dir) {
  std::vector<std::string> out;
  for (const std::string& entry : ListDir(dir).TakeValue()) {
    if (entry.size() > 5 && entry.substr(entry.size() - 5) == ".cseg") {
      out.push_back(dir + "/" + entry);
    }
  }
  return out;
}

TEST(LegacySegmentTest, DurableLibraryRestoresAndCompactsItAway) {
  const std::string dir = TempPath("legacy_durable");
  if (auto entries = ListDir(dir); entries.ok()) {
    for (const std::string& entry : *entries) {
      (void)RemoveFile(dir + "/" + entry);
    }
  }
  webspace::SiteConfig config;
  config.num_players = 12;
  config.num_past_years = 3;
  config.videos_per_year = 1;
  config.seed = 7;
  config.ensure_answer = true;
  auto site = webspace::SiteSynthesizer::Generate(config).TakeValue();
  std::vector<std::string> expected;
  {
    auto durable =
        engine::DurableLibrary::Create(dir, std::move(site.store)).TakeValue();
    for (const auto& [oid, body] : site.interview_texts) {
      ASSERT_TRUE(durable->Apply(core::IngestDelta::Interview(oid, body)).ok());
    }
    ASSERT_TRUE(durable->Apply(core::IngestDelta::FinalizeText()).ok());
    for (int64_t oid : site.video_oids) {
      ASSERT_TRUE(durable
                      ->Apply(core::IngestDelta::Video(
                          MakeVideo(oid, static_cast<uint64_t>(oid)), {}))
                      .ok());
    }
    ASSERT_TRUE(durable->Flush().ok());
    ASSERT_EQ(durable->num_segments(), 2u);
    expected = SweepAnswers(durable->library());
  }
  size_t answered = 0;
  for (const std::string& line : expected) {
    answered += line.find(';') != std::string::npos ? 1 : 0;  // has a hit
  }
  ASSERT_GT(answered, 8u) << "the sweep must exercise non-empty answers";

  // Splice id 7 into the segment that carries the text snapshot, as the
  // flush that wrote it before the change would have.
  size_t spliced = 0;
  for (const std::string& path : SegmentFiles(dir)) {
    if (SegmentReader::Open(path).TakeValue()->text_finalized()) {
      ASSERT_NO_FATAL_FAILURE(
          SpliceSection(path, kRetiredCompressedText, RetiredPayload()));
      ++spliced;
    }
  }
  ASSERT_EQ(spliced, 1u);

  for (SegmentReader::Verify verify :
       {SegmentReader::Verify::kFull, SegmentReader::Verify::kNone}) {
    engine::DurableLibrary::Options options;
    options.verify = verify;
    auto durable = engine::DurableLibrary::Open(dir, options);
    ASSERT_TRUE(durable.ok()) << durable.status().ToString();
    EXPECT_EQ(SweepAnswers((*durable)->library()), expected);
  }

  // Compaction rewrites the chain as one segment without the section.
  {
    auto durable = engine::DurableLibrary::Open(dir).TakeValue();
    ASSERT_TRUE(durable->Compact().ok());
    EXPECT_EQ(durable->num_segments(), 1u);
    EXPECT_EQ(SweepAnswers(durable->library()), expected);
  }
  const std::vector<std::string> compacted = SegmentFiles(dir);
  ASSERT_EQ(compacted.size(), 1u);
  auto reader = SegmentReader::Open(compacted[0]).TakeValue();
  EXPECT_TRUE(reader->has_section(SectionId::kTextIndex));
  EXPECT_FALSE(reader->has_section(kRetiredCompressedText));
  auto reopened = engine::DurableLibrary::Open(dir).TakeValue();
  EXPECT_EQ(SweepAnswers(reopened->library()), expected);
}

// ---------------------------------------------------------------------------
// WAL framing.

using core::IngestDelta;

/// Stages `delta` and waits for it (the serial writer surface).
Status StageAndWait(GroupCommitWal* wal, const IngestDelta& delta) {
  COBRA_ASSIGN_OR_RETURN(uint64_t seq, wal->Stage(delta));
  return wal->WaitDurable(seq);
}

TEST(WalTest, RoundtripAndTornTail) {
  const std::string path = TempPath("wal_roundtrip.wal");
  {
    auto wal = GroupCommitWal::Open(path).TakeValue();
    ASSERT_TRUE(
        StageAndWait(wal.get(), IngestDelta::Interview(7, "net play champion"))
            .ok());
    ASSERT_TRUE(
        StageAndWait(wal.get(), IngestDelta::Video(MakeVideo(42, 1), {})).ok());
    ASSERT_TRUE(StageAndWait(wal.get(), IngestDelta::FinalizeText()).ok());
  }
  auto records = ReplayWal(path).TakeValue();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].kind, IngestDelta::Kind::kInterview);
  EXPECT_EQ(records[0].interview_oid, 7);
  EXPECT_EQ(records[0].interview_text, "net play champion");
  EXPECT_EQ(records[1].kind, IngestDelta::Kind::kVideo);
  EXPECT_EQ(records[1].video.video_id(), 42);
  EXPECT_EQ(records[1].video.Layer(core::CobraLayer::kEvent).size(), 20u);
  EXPECT_EQ(records[2].kind, IngestDelta::Kind::kFinalizeText);

  // Truncating at every offset yields a clean prefix, never an error.
  const std::vector<uint8_t> full = ReadAll(path);
  const std::string torn_path = TempPath("wal_torn.wal");
  size_t max_records = 0;
  for (size_t keep = 0; keep < full.size(); ++keep) {
    ASSERT_TRUE(WriteFileAtomic(torn_path, full.data(), keep).ok());
    auto torn = ReplayWal(torn_path);
    ASSERT_TRUE(torn.ok()) << "offset " << keep;
    ASSERT_LE(torn->size(), 3u);
    max_records = std::max(max_records, torn->size());
    for (size_t i = 0; i < torn->size(); ++i) {
      EXPECT_EQ((*torn)[i].kind, records[i].kind);
    }
  }
  EXPECT_EQ(max_records, 2u);  // one byte short of the last frame

  // Corrupting a middle byte drops that record and the tail.
  std::vector<uint8_t> corrupt = full;
  corrupt[9] ^= 0x40;  // inside record 0's payload
  ASSERT_TRUE(WriteFileAtomic(torn_path, corrupt.data(), corrupt.size()).ok());
  EXPECT_TRUE(ReplayWal(torn_path)->empty());

  EXPECT_TRUE(ReplayWal(TempPath("wal_missing.wal"))->empty());
}

TEST(WalTest, SignatureRecordsRoundtrip) {
  const std::string path = TempPath("wal_signatures.wal");
  const std::vector<vision::SignatureRecord> records = MakeSignatures({42, 43});
  {
    auto wal = GroupCommitWal::Open(path).TakeValue();
    ASSERT_TRUE(
        StageAndWait(wal.get(), IngestDelta::Signatures(42, records)).ok());
    ASSERT_TRUE(StageAndWait(wal.get(), IngestDelta::Signatures(7, {})).ok());
  }
  auto replayed = ReplayWal(path).TakeValue();
  ASSERT_EQ(replayed.size(), 2u);
  EXPECT_EQ(replayed[0].kind, IngestDelta::Kind::kSignatures);
  EXPECT_EQ(replayed[0].signature_video, 42);
  ASSERT_EQ(replayed[0].signatures.size(), records.size());
  EXPECT_EQ(std::memcmp(replayed[0].signatures.data(), records.data(),
                        records.size() * sizeof(vision::SignatureRecord)),
            0);
  EXPECT_EQ(replayed[1].kind, IngestDelta::Kind::kSignatures);
  EXPECT_EQ(replayed[1].signature_video, 7);
  EXPECT_TRUE(replayed[1].signatures.empty());

  // A torn tail drops the last record cleanly, never errors.
  const std::vector<uint8_t> full = ReadAll(path);
  const std::string torn = TempPath("wal_signatures_torn.wal");
  ASSERT_TRUE(WriteFileAtomic(torn, full.data(), full.size() - 1).ok());
  EXPECT_EQ(ReplayWal(torn)->size(), 1u);
}

/// Appends `value`'s little-endian bytes (written out by hand, so the
/// layout pinned below does not depend on ByteWriter).
template <typename T>
void PutLe(T value, std::vector<uint8_t>* out) {
  const auto bits = static_cast<uint64_t>(value);
  for (size_t i = 0; i < sizeof(T); ++i) {
    out->push_back(static_cast<uint8_t>(bits >> (8 * i)));
  }
}

/// One frame as the WAL lays it out on disk:
/// [u32 len][u32 crc32(tag ‖ payload)][u8 tag][payload].
void HandFrame(uint8_t tag, const std::vector<uint8_t>& payload,
               std::vector<uint8_t>* out) {
  std::vector<uint8_t> covered = {tag};
  covered.insert(covered.end(), payload.begin(), payload.end());
  PutLe(static_cast<uint32_t>(payload.size()), out);
  PutLe(util::Crc32(covered.data(), covered.size()), out);
  out->push_back(tag);
  out->insert(out->end(), payload.begin(), payload.end());
}

std::vector<uint8_t> SignaturePayload(
    int64_t video_id, const std::vector<vision::SignatureRecord>& records) {
  std::vector<uint8_t> payload;
  PutLe(video_id, &payload);
  PutLe(static_cast<uint64_t>(records.size()), &payload);
  const auto* raw = reinterpret_cast<const uint8_t*>(records.data());
  payload.insert(payload.end(), raw,
                 raw + records.size() * sizeof(vision::SignatureRecord));
  return payload;
}

std::vector<uint8_t> EncodedVideo(const core::VideoDescription& desc) {
  ByteWriter out;
  EncodeVideoDescription(desc, &out);
  return out.buffer();
}

// The on-disk frame layout, written by hand: a framing change that would
// strand WALs already on disk fails here, which a test that writes and
// reads through the same code cannot catch.
TEST(WalTest, OnDiskFormatIsPinned) {
  const std::vector<vision::SignatureRecord> all = MakeSignatures({42, 43});
  const std::vector<vision::SignatureRecord> video_sigs(all.begin(),
                                                        all.begin() + 2);
  const std::vector<vision::SignatureRecord> batch(all.begin() + 4,
                                                   all.end());
  const core::VideoDescription video = MakeVideo(42, 1);
  const std::string text = "net play champion";

  std::vector<uint8_t> expected;
  {
    std::vector<uint8_t> interview;
    PutLe(int64_t{7}, &interview);
    PutLe(static_cast<uint32_t>(text.size()), &interview);
    interview.insert(interview.end(), text.begin(), text.end());
    HandFrame(1, interview, &expected);
  }
  HandFrame(2, {}, &expected);
  HandFrame(3, EncodedVideo(video), &expected);
  HandFrame(4, SignaturePayload(42, video_sigs), &expected);
  HandFrame(4, SignaturePayload(43, batch), &expected);

  // Hand-made bytes replay as the matching deltas.
  const std::string hand_path = TempPath("wal_pinned_hand.wal");
  ASSERT_TRUE(
      WriteFileAtomic(hand_path, expected.data(), expected.size()).ok());
  auto replayed = ReplayWal(hand_path).TakeValue();
  ASSERT_EQ(replayed.size(), 5u);
  EXPECT_EQ(replayed[0].kind, IngestDelta::Kind::kInterview);
  EXPECT_EQ(replayed[0].interview_oid, 7);
  EXPECT_EQ(replayed[0].interview_text, text);
  EXPECT_EQ(replayed[1].kind, IngestDelta::Kind::kFinalizeText);
  EXPECT_EQ(replayed[2].kind, IngestDelta::Kind::kVideo);
  EXPECT_EQ(EncodedVideo(replayed[2].video), EncodedVideo(video));
  EXPECT_TRUE(replayed[2].signatures.empty());
  const std::pair<int64_t, const std::vector<vision::SignatureRecord>*>
      batches[] = {{42, &video_sigs}, {43, &batch}};
  for (size_t b = 0; b < 2; ++b) {
    const IngestDelta& delta = replayed[3 + b];
    EXPECT_EQ(delta.kind, IngestDelta::Kind::kSignatures);
    EXPECT_EQ(delta.signature_video, batches[b].first);
    const auto& want = *batches[b].second;
    ASSERT_EQ(delta.signatures.size(), want.size());
    EXPECT_EQ(std::memcmp(delta.signatures.data(), want.data(),
                          want.size() * sizeof(vision::SignatureRecord)),
              0);
  }

  // Staging the four deltas writes exactly those bytes: the video and its
  // two signatures are two frames, each its own record. Waited one delta
  // at a time, each wait syncs its own group; staged together, one wait
  // syncs all five records as one group.
  const IngestDelta deltas[] = {IngestDelta::Interview(7, text),
                                IngestDelta::FinalizeText(),
                                IngestDelta::Video(video, video_sigs),
                                IngestDelta::Signatures(43, batch)};
  {
    const std::string path = TempPath("wal_pinned_each.wal");
    auto wal = GroupCommitWal::Open(path).TakeValue();
    for (const IngestDelta& delta : deltas) {
      ASSERT_TRUE(StageAndWait(wal.get(), delta).ok());
    }
    EXPECT_EQ(wal->sync_calls(), 4);
    EXPECT_EQ(wal->records_committed(), 5);
    EXPECT_EQ(ReadAll(path), expected);
  }
  {
    const std::string path = TempPath("wal_pinned_group.wal");
    auto wal = GroupCommitWal::Open(path).TakeValue();
    uint64_t last = 0;
    for (const IngestDelta& delta : deltas) {
      last = wal->Stage(delta).TakeValue();
    }
    EXPECT_EQ(last, 5u);
    EXPECT_EQ(wal->sync_calls(), 0);  // staging never touches the file
    ASSERT_TRUE(wal->WaitDurable(last).ok());
    EXPECT_EQ(wal->sync_calls(), 1);
    EXPECT_EQ(wal->records_committed(), 5);
    EXPECT_EQ(ReadAll(path), expected);
  }
}

// A wait that no group can ever cover fails at once, instead of syncing
// empty batches forever.
TEST(WalTest, WaitDurableOnUnstagedRecordFails) {
  auto wal = GroupCommitWal::Open(TempPath("wal_unstaged.wal")).TakeValue();
  EXPECT_EQ(wal->WaitDurable(1).code(), StatusCode::kFailedPrecondition);
  const uint64_t seq = wal->Stage(IngestDelta::FinalizeText()).TakeValue();
  EXPECT_EQ(wal->WaitDurable(seq + 1).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(wal->sync_calls(), 0);
  ASSERT_TRUE(wal->WaitDurable(seq).ok());
  EXPECT_EQ(wal->sync_calls(), 1);
  EXPECT_EQ(wal->records_committed(), 1);
}

TEST(WalTest, VideoDescriptionCodecRoundtrip) {
  core::VideoDescription desc(9, "title with spaces", 29.97, 1234);
  desc.Add(core::CobraLayer::kFeature,
           grammar::Annotation("tennis", {0, 100}).Set("entropy", 0.75));
  desc.Add(core::CobraLayer::kEvent, grammar::Annotation("net_play", {5, 50})
                                         .Set("player", int64_t{1})
                                         .Set("note", std::string("close")));
  ByteWriter out;
  EncodeVideoDescription(desc, &out);
  ByteReader in(out.buffer().data(), out.size());
  auto decoded = DecodeVideoDescription(&in).TakeValue();
  EXPECT_EQ(decoded.video_id(), 9);
  EXPECT_EQ(decoded.title(), "title with spaces");
  EXPECT_EQ(decoded.fps(), 29.97);
  EXPECT_EQ(decoded.num_frames(), 1234);
  ASSERT_EQ(decoded.Layer(core::CobraLayer::kFeature).size(), 1u);
  const auto& shot = decoded.Layer(core::CobraLayer::kFeature)[0];
  EXPECT_EQ(shot.symbol, "tennis");
  EXPECT_EQ(std::get<double>(shot.attrs.at("entropy")), 0.75);
  const auto& event = decoded.Layer(core::CobraLayer::kEvent)[0];
  EXPECT_EQ(std::get<int64_t>(event.attrs.at("player")), 1);
  EXPECT_EQ(std::get<std::string>(event.attrs.at("note")), "close");
}

}  // namespace
}  // namespace cobra::storage::segment
