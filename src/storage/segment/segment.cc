#include "storage/segment/segment.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <limits>

#include "util/crc32.h"
#include "util/strings.h"

namespace cobra::storage::segment {

namespace {

using text::InvertedIndex;
using webspace::AssociationDef;
using webspace::AttributeDef;
using webspace::ClassDef;
using webspace::ConceptSchema;

static_assert(sizeof(size_t) == 8, "segment format assumes 64-bit offsets");

Status Corrupt(const char* what) {
  return Status::InvalidArgument(std::string("corrupt segment: ") + what);
}

uint64_t AlignUp(uint64_t v, uint64_t alignment) {
  return (v + alignment - 1) / alignment * alignment;
}

void PutZoneEntry(const ZoneEntry& z, ByteWriter* out) {
  out->PutI64(z.imin);
  out->PutI64(z.imax);
  out->PutDouble(z.dmin);
  out->PutDouble(z.dmax);
  out->PutU8(z.has_nan ? 1 : 0);
}

bool GetZoneEntry(ByteReader* in, ZoneEntry* z) {
  uint8_t has_nan = 0;
  if (!in->GetI64(&z->imin) || !in->GetI64(&z->imax) ||
      !in->GetDouble(&z->dmin) || !in->GetDouble(&z->dmax) ||
      !in->GetU8(&has_nan)) {
    return false;
  }
  z->has_nan = has_nan != 0;
  return true;
}

/// Bit-exact double equality (so ±0.0 and NaN patterns round-trip checks
/// stay meaningful; zone folds never produce NaN mins/maxes).
bool SameBits(double a, double b) {
  uint64_t ba, bb;
  std::memcpy(&ba, &a, sizeof(a));
  std::memcpy(&bb, &b, sizeof(b));
  return ba == bb;
}

}  // namespace

Status TableSerde::WriteDelta(const Table& table, int64_t from_row,
                              ByteWriter* out) {
  const int64_t to_row = table.num_rows();
  if (from_row < 0 || from_row > to_row) {
    return Status::InvalidArgument("delta from_row out of range");
  }
  const size_t added = static_cast<size_t>(to_row - from_row);
  out->PutU32(static_cast<uint32_t>(table.num_columns()));
  out->PutU64(static_cast<uint64_t>(from_row));
  out->PutU64(static_cast<uint64_t>(to_row));
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const DataType type = table.schema()[c].type;
    out->PutU8(static_cast<uint8_t>(type));
    switch (type) {
      case DataType::kInt64:
        out->PutRaw(table.IntColumn(c).data() + from_row,
                    added * sizeof(int64_t));
        break;
      case DataType::kDouble:
        out->PutRaw(table.DoubleColumn(c).data() + from_row,
                    added * sizeof(double));
        break;
      case DataType::kString: {
        const std::vector<int32_t>& codes = table.StringCodes(c);
        const std::vector<std::string>& dict = table.Dictionary(c);
        // The dictionary grows append-only and every entry is introduced by
        // some row, so the restored table's dictionary after rows
        // [0, from_row) is exactly the first (max prior code + 1) entries.
        int32_t prev_dict = 0;
        for (int64_t r = 0; r < from_row; ++r) {
          prev_dict = std::max(prev_dict, codes[static_cast<size_t>(r)] + 1);
        }
        out->PutU32(static_cast<uint32_t>(prev_dict));
        out->PutU32(static_cast<uint32_t>(dict.size()));
        for (size_t d = static_cast<size_t>(prev_dict); d < dict.size(); ++d) {
          out->PutString(dict[d]);
        }
        out->PutRaw(codes.data() + from_row, added * sizeof(int32_t));
        break;
      }
    }
  }
  // Post-delta per-column stats, verified by ApplyDelta after it rebuilt
  // the derived state — catches deltas applied out of order and any
  // corruption that slipped past the section CRC.
  for (size_t c = 0; c < table.num_columns(); ++c) {
    COBRA_ASSIGN_OR_RETURN(ColumnStats stats, table.Stats(c));
    out->PutI64(stats.rows);
    out->PutI64(stats.ndv);
    PutZoneEntry(stats.range, out);
  }
  return Status::OK();
}

Status TableSerde::ApplyDelta(Table* table, ByteReader* in) {
  uint32_t num_cols = 0;
  uint64_t from_row = 0, to_row = 0;
  if (!in->GetU32(&num_cols) || !in->GetU64(&from_row) ||
      !in->GetU64(&to_row)) {
    return Corrupt("table delta header");
  }
  if (num_cols != table->num_columns()) {
    return Corrupt("table delta column count");
  }
  if (to_row < from_row ||
      from_row != static_cast<uint64_t>(table->num_rows())) {
    return Corrupt("table delta row range (applied out of order?)");
  }
  const size_t added = static_cast<size_t>(to_row - from_row);
  for (size_t c = 0; c < num_cols; ++c) {
    uint8_t type_tag = 0;
    if (!in->GetU8(&type_tag)) return Corrupt("column type tag");
    if (type_tag != static_cast<uint8_t>(table->schema()[c].type)) {
      return Corrupt("column type mismatch");
    }
    switch (table->schema()[c].type) {
      case DataType::kInt64: {
        auto& col = std::get<std::vector<int64_t>>(table->columns_[c]);
        const size_t old = col.size();
        col.resize(old + added);
        if (!in->GetRaw(col.data() + old, added * sizeof(int64_t))) {
          return Corrupt("int column bytes");
        }
        break;
      }
      case DataType::kDouble: {
        auto& col = std::get<std::vector<double>>(table->columns_[c]);
        const size_t old = col.size();
        col.resize(old + added);
        if (!in->GetRaw(col.data() + old, added * sizeof(double))) {
          return Corrupt("double column bytes");
        }
        break;
      }
      case DataType::kString: {
        auto& sc = std::get<Table::StringColumnData>(table->columns_[c]);
        uint32_t prev_dict = 0, dict_total = 0;
        if (!in->GetU32(&prev_dict) || !in->GetU32(&dict_total)) {
          return Corrupt("string dictionary header");
        }
        if (prev_dict != sc.dict.size() || dict_total < prev_dict) {
          return Corrupt("string dictionary baseline");
        }
        for (uint32_t d = prev_dict; d < dict_total; ++d) {
          std::string entry;
          if (!in->GetString(&entry)) return Corrupt("dictionary entry");
          auto [it, inserted] = sc.dict_index.try_emplace(
              entry, static_cast<int32_t>(sc.dict.size()));
          if (!inserted) return Corrupt("duplicate dictionary entry");
          sc.dict.push_back(std::move(entry));
        }
        const size_t old = sc.codes.size();
        sc.codes.resize(old + added);
        if (!in->GetRaw(sc.codes.data() + old, added * sizeof(int32_t))) {
          return Corrupt("string code bytes");
        }
        sc.values.reserve(old + added);
        for (size_t r = old; r < old + added; ++r) {
          const int32_t code = sc.codes[r];
          if (code < 0 || static_cast<size_t>(code) >= sc.dict.size()) {
            return Corrupt("string code out of dictionary range");
          }
          sc.values.push_back(sc.dict[static_cast<size_t>(code)]);
        }
        break;
      }
    }
  }
  // Zone maps, NDV sets and code histograms rebuild through the table's
  // own incremental path — identical to what AppendRow would have built.
  table->FinishGather(static_cast<int64_t>(added));
  for (size_t c = 0; c < num_cols; ++c) {
    int64_t rows = 0, ndv = 0;
    ZoneEntry range;
    if (!in->GetI64(&rows) || !in->GetI64(&ndv) ||
        !GetZoneEntry(in, &range)) {
      return Corrupt("column stats");
    }
    COBRA_ASSIGN_OR_RETURN(ColumnStats actual, table->Stats(c));
    if (actual.rows != rows || actual.ndv != ndv ||
        actual.range.imin != range.imin || actual.range.imax != range.imax ||
        !SameBits(actual.range.dmin, range.dmin) ||
        !SameBits(actual.range.dmax, range.dmax) ||
        actual.range.has_nan != range.has_nan) {
      return Corrupt("column stats mismatch after delta");
    }
  }
  return Status::OK();
}

namespace {

// ---------------------------------------------------------------------------
// Section payload builders
// ---------------------------------------------------------------------------

void BuildLibraryMeta(const LibraryDelta& delta, ByteWriter* out) {
  out->PutU64(static_cast<uint64_t>(delta.index_epoch));
  out->PutU64(delta.new_video_oids.size());
  for (int64_t oid : delta.new_video_oids) out->PutI64(oid);
}

Status BuildWebspace(const LibraryDelta& delta, ByteWriter* out) {
  const ConceptSchema& schema = delta.store->schema();
  out->PutU32(static_cast<uint32_t>(schema.classes().size()));
  for (const ClassDef& cls : schema.classes()) {
    out->PutString(cls.name);
    out->PutU32(static_cast<uint32_t>(cls.attributes.size()));
    for (const AttributeDef& attr : cls.attributes) {
      out->PutString(attr.name);
      out->PutU8(static_cast<uint8_t>(attr.type));
    }
  }
  out->PutU32(static_cast<uint32_t>(schema.associations().size()));
  for (const AssociationDef& assoc : schema.associations()) {
    out->PutString(assoc.name);
    out->PutString(assoc.from_class);
    out->PutString(assoc.to_class);
  }
  for (size_t i = 0; i < schema.classes().size(); ++i) {
    COBRA_ASSIGN_OR_RETURN(
        const Table* table,
        delta.store->ClassTable(schema.classes()[i].name));
    COBRA_RETURN_NOT_OK(
        TableSerde::WriteDelta(*table, delta.class_from_rows[i], out));
  }
  for (size_t i = 0; i < schema.associations().size(); ++i) {
    COBRA_ASSIGN_OR_RETURN(
        const Table* table,
        delta.store->AssociationTable(schema.associations()[i].name));
    COBRA_RETURN_NOT_OK(
        TableSerde::WriteDelta(*table, delta.assoc_from_rows[i], out));
  }
  return Status::OK();
}

Status BuildTextIndex(const InvertedIndex& index, ByteWriter* out) {
  const std::map<int64_t, double>& norms = index.doc_norms();
  out->PutU64(norms.size());
  for (const auto& [doc_id, norm] : norms) {
    out->PutI64(doc_id);
    out->PutDouble(norm);
  }
  COBRA_ASSIGN_OR_RETURN(std::vector<InvertedIndex::TermRange> terms,
                         index.TermRanges());
  out->PutU64(terms.size());
  uint64_t total_postings = 0, total_blocks = 0;
  for (const InvertedIndex::TermRange& t : terms) {
    out->PutString(*t.term);
    out->PutDouble(t.idf);
    out->PutDouble(t.max_weight);
    out->PutU64(t.postings.size());
    out->PutU64(t.blocks.size());
    total_postings += t.postings.size();
    total_blocks += t.blocks.size();
  }
  // The blobs are 8-aligned relative to the (page-aligned) section start,
  // so mapped Posting/BlockMeta views are naturally aligned.
  out->Align(8);
  out->PutU64(total_postings);
  for (const InvertedIndex::TermRange& t : terms) {
    out->PutRaw(t.postings.data(),
                t.postings.size() * sizeof(InvertedIndex::Posting));
  }
  out->PutU64(total_blocks);
  for (const InvertedIndex::TermRange& t : terms) {
    out->PutRaw(t.blocks.data(),
                t.blocks.size() * sizeof(InvertedIndex::BlockMeta));
  }
  return Status::OK();
}

void BuildPending(const LibraryDelta& delta, ByteWriter* out) {
  out->PutU64(delta.pending_interviews.size());
  for (const auto& [oid, text] : delta.pending_interviews) {
    out->PutI64(oid);
    out->PutString(text);
  }
}

void BuildSignatures(const LibraryDelta& delta, ByteWriter* out) {
  uint64_t total = 0;
  for (const auto& [records, count] : delta.signature_chunks) total += count;
  out->PutU64(total);
  // 64-align the record array (the section itself is page-aligned) so the
  // mapped view is cache-line aligned for the SIMD batch kernels.
  out->Align(64);
  for (const auto& [records, count] : delta.signature_chunks) {
    out->PutRaw(records, count * sizeof(vision::SignatureRecord));
  }
}

}  // namespace

Status WriteSegment(const LibraryDelta& delta, const std::string& path) {
  if (delta.store == nullptr || delta.meta == nullptr) {
    return Status::InvalidArgument("segment delta lacks store or meta-index");
  }
  if (delta.class_from_rows.size() != delta.store->schema().classes().size() ||
      delta.assoc_from_rows.size() !=
          delta.store->schema().associations().size()) {
    return Status::InvalidArgument("segment delta from-row arity mismatch");
  }
  if (delta.text != nullptr && !delta.text->finalized()) {
    return Status::InvalidArgument("text snapshots require a finalized index");
  }

  // Section order (and so the file bytes) is the order of this list.
  struct SectionBuild {
    SectionId id;
    ByteWriter out;
  };
  std::vector<SectionBuild> sections;
  auto add = [&sections](SectionId id) {
    sections.push_back(SectionBuild{id, {}});
    return &sections.back().out;
  };
  BuildLibraryMeta(delta, add(SectionId::kLibraryMeta));
  COBRA_RETURN_NOT_OK(BuildWebspace(delta, add(SectionId::kWebspace)));
  COBRA_RETURN_NOT_OK(TableSerde::WriteDelta(
      delta.meta->shots(), delta.shots_from_row, add(SectionId::kShotsDelta)));
  COBRA_RETURN_NOT_OK(TableSerde::WriteDelta(delta.meta->objects(),
                                             delta.objects_from_row,
                                             add(SectionId::kObjectsDelta)));
  COBRA_RETURN_NOT_OK(TableSerde::WriteDelta(delta.meta->events(),
                                             delta.events_from_row,
                                             add(SectionId::kEventsDelta)));
  if (delta.text != nullptr) {
    COBRA_RETURN_NOT_OK(
        BuildTextIndex(*delta.text, add(SectionId::kTextIndex)));
  }
  if (!delta.pending_interviews.empty()) {
    BuildPending(delta, add(SectionId::kPendingInterviews));
  }
  for (const auto& [records, count] : delta.signature_chunks) {
    if (count > 0) {
      BuildSignatures(delta, add(SectionId::kSignatures));
      break;
    }
  }

  // Assemble: header, section table, page-aligned payloads.
  FileHeader header;
  header.section_count = static_cast<uint32_t>(sections.size());
  header.section_table_offset = sizeof(FileHeader);
  std::vector<SectionEntry> entries(sections.size());
  uint64_t offset = AlignUp(
      sizeof(FileHeader) + sections.size() * sizeof(SectionEntry), kPageSize);
  for (size_t i = 0; i < sections.size(); ++i) {
    entries[i].id = static_cast<uint32_t>(sections[i].id);
    entries[i].offset = offset;
    entries[i].size = sections[i].out.size();
    entries[i].crc32 =
        util::Crc32(sections[i].out.buffer().data(), sections[i].out.size());
    offset = AlignUp(offset + entries[i].size, kPageSize);
  }
  header.file_size = offset;
  header.section_table_crc =
      util::Crc32(entries.data(), entries.size() * sizeof(SectionEntry));
  header.header_crc = 0;
  header.header_crc = util::Crc32(&header, sizeof(header));

  std::vector<uint8_t> file(offset, 0);
  std::memcpy(file.data(), &header, sizeof(header));
  std::memcpy(file.data() + sizeof(FileHeader), entries.data(),
              entries.size() * sizeof(SectionEntry));
  for (size_t i = 0; i < sections.size(); ++i) {
    std::memcpy(file.data() + entries[i].offset,
                sections[i].out.buffer().data(), entries[i].size);
  }
  return WriteFileAtomic(path, file.data(), file.size());
}

Result<std::unique_ptr<SegmentReader>> SegmentReader::Open(
    const std::string& path, Verify verify) {
  COBRA_ASSIGN_OR_RETURN(MmapFile map, MmapFile::Open(path));
  if (map.size() < sizeof(FileHeader)) return Corrupt("file shorter than header");
  FileHeader header;
  std::memcpy(&header, map.data(), sizeof(header));
  if (header.magic != kSegmentMagic) return Corrupt("bad magic");
  if (header.version != kFormatVersion) {
    return Corrupt("unsupported format version");
  }
  FileHeader check = header;
  check.header_crc = 0;
  if (util::Crc32(&check, sizeof(check)) != header.header_crc) {
    return Corrupt("header checksum mismatch");
  }
  if (header.file_size != map.size()) {
    return Corrupt("file size mismatch (torn write?)");
  }
  const uint64_t table_bytes =
      static_cast<uint64_t>(header.section_count) * sizeof(SectionEntry);
  if (header.section_table_offset > map.size() ||
      table_bytes > map.size() - header.section_table_offset) {
    return Corrupt("section table out of bounds");
  }
  std::vector<SectionEntry> entries(header.section_count);
  std::memcpy(entries.data(), map.data() + header.section_table_offset,
              table_bytes);
  if (util::Crc32(entries.data(), table_bytes) != header.section_table_crc) {
    return Corrupt("section table checksum mismatch");
  }
  for (const SectionEntry& e : entries) {
    if (e.offset % kPageSize != 0 || e.offset > map.size() ||
        e.size > map.size() - e.offset) {
      return Corrupt("section out of bounds");
    }
    if (verify == Verify::kFull &&
        util::Crc32(map.data() + e.offset, e.size) != e.crc32) {
      return Corrupt("section checksum mismatch");
    }
  }
  std::unique_ptr<SegmentReader> reader(new SegmentReader());
  reader->map_ = std::move(map);
  reader->sections_ = std::move(entries);
  reader->text_finalized_ = reader->has_section(SectionId::kTextIndex);
  COBRA_ASSIGN_OR_RETURN(ByteReader meta,
                         reader->Section(SectionId::kLibraryMeta));
  uint64_t epoch = 0, num_videos = 0;
  if (!meta.GetU64(&epoch) || !meta.GetU64(&num_videos)) {
    return Corrupt("library meta section");
  }
  if (epoch > static_cast<uint64_t>(std::numeric_limits<int64_t>::max()) ||
      num_videos > meta.remaining() / sizeof(int64_t)) {
    return Corrupt("library meta counts");
  }
  reader->index_epoch_ = static_cast<int64_t>(epoch);
  reader->new_video_oids_.resize(num_videos);
  if (num_videos > 0 &&
      !meta.GetRaw(reader->new_video_oids_.data(),
                   num_videos * sizeof(int64_t))) {
    return Corrupt("library meta video oids");
  }
  return reader;
}

bool SegmentReader::has_section(SectionId id) const {
  for (const SectionEntry& e : sections_) {
    if (e.id == static_cast<uint32_t>(id)) return true;
  }
  return false;
}

Result<ByteReader> SegmentReader::Section(SectionId id) const {
  for (const SectionEntry& e : sections_) {
    if (e.id == static_cast<uint32_t>(id)) {
      return ByteReader(map_.data() + e.offset, e.size);
    }
  }
  return Status::NotFound(
      StringFormat("segment lacks section %u", static_cast<uint32_t>(id)));
}

Status SegmentReader::ApplyWebspace(
    std::optional<ConceptSchema>* schema,
    std::map<std::string, Table>* class_tables,
    std::map<std::string, Table>* assoc_tables) const {
  COBRA_ASSIGN_OR_RETURN(ByteReader in, Section(SectionId::kWebspace));
  uint32_t num_classes = 0;
  if (!in.GetU32(&num_classes)) return Corrupt("webspace class count");
  std::vector<ClassDef> classes(num_classes);
  for (ClassDef& cls : classes) {
    uint32_t num_attrs = 0;
    if (!in.GetString(&cls.name) || !in.GetU32(&num_attrs)) {
      return Corrupt("webspace class def");
    }
    cls.attributes.resize(num_attrs);
    for (AttributeDef& attr : cls.attributes) {
      uint8_t type = 0;
      if (!in.GetString(&attr.name) || !in.GetU8(&type) || type > 2) {
        return Corrupt("webspace attribute def");
      }
      attr.type = static_cast<DataType>(type);
    }
  }
  uint32_t num_assocs = 0;
  if (!in.GetU32(&num_assocs)) return Corrupt("webspace association count");
  std::vector<AssociationDef> assocs(num_assocs);
  for (AssociationDef& a : assocs) {
    if (!in.GetString(&a.name) || !in.GetString(&a.from_class) ||
        !in.GetString(&a.to_class)) {
      return Corrupt("webspace association def");
    }
  }
  COBRA_ASSIGN_OR_RETURN(ConceptSchema decoded,
                         ConceptSchema::Create(classes, assocs));
  if (schema->has_value()) {
    const ConceptSchema& have = schema->value();
    bool same = have.classes().size() == classes.size() &&
                have.associations().size() == assocs.size();
    for (size_t i = 0; same && i < classes.size(); ++i) {
      same = have.classes()[i].name == classes[i].name &&
             have.classes()[i].attributes.size() ==
                 classes[i].attributes.size();
      for (size_t j = 0; same && j < classes[i].attributes.size(); ++j) {
        same = have.classes()[i].attributes[j].name ==
                   classes[i].attributes[j].name &&
               have.classes()[i].attributes[j].type ==
                   classes[i].attributes[j].type;
      }
    }
    for (size_t i = 0; same && i < assocs.size(); ++i) {
      same = have.associations()[i].name == assocs[i].name &&
             have.associations()[i].from_class == assocs[i].from_class &&
             have.associations()[i].to_class == assocs[i].to_class;
    }
    if (!same) return Corrupt("schema changed between segments");
  } else {
    *schema = std::move(decoded);
    for (const ClassDef& cls : classes) {
      std::vector<ColumnDef> columns = {{"oid", DataType::kInt64}};
      for (const AttributeDef& attr : cls.attributes) {
        columns.push_back({attr.name, attr.type});
      }
      COBRA_ASSIGN_OR_RETURN(Table table, Table::Create(std::move(columns)));
      class_tables->emplace(cls.name, std::move(table));
    }
    for (const AssociationDef& a : assocs) {
      COBRA_ASSIGN_OR_RETURN(Table table,
                             Table::Create({{"from_oid", DataType::kInt64},
                                            {"to_oid", DataType::kInt64},
                                            {"role", DataType::kInt64}}));
      assoc_tables->emplace(a.name, std::move(table));
    }
  }
  for (const ClassDef& cls : classes) {
    COBRA_RETURN_NOT_OK(
        TableSerde::ApplyDelta(&class_tables->at(cls.name), &in));
  }
  for (const AssociationDef& a : assocs) {
    COBRA_RETURN_NOT_OK(TableSerde::ApplyDelta(&assoc_tables->at(a.name), &in));
  }
  return Status::OK();
}

Status SegmentReader::ApplyMeta(Table* shots, Table* objects,
                                Table* events) const {
  {
    COBRA_ASSIGN_OR_RETURN(ByteReader in, Section(SectionId::kShotsDelta));
    COBRA_RETURN_NOT_OK(TableSerde::ApplyDelta(shots, &in));
  }
  {
    COBRA_ASSIGN_OR_RETURN(ByteReader in, Section(SectionId::kObjectsDelta));
    COBRA_RETURN_NOT_OK(TableSerde::ApplyDelta(objects, &in));
  }
  {
    COBRA_ASSIGN_OR_RETURN(ByteReader in, Section(SectionId::kEventsDelta));
    COBRA_RETURN_NOT_OK(TableSerde::ApplyDelta(events, &in));
  }
  return Status::OK();
}

Result<InvertedIndex> SegmentReader::LoadTextIndex() const {
  COBRA_ASSIGN_OR_RETURN(ByteReader in, Section(SectionId::kTextIndex));
  uint64_t num_docs = 0;
  if (!in.GetU64(&num_docs) ||
      num_docs > in.remaining() / (sizeof(int64_t) + sizeof(double))) {
    return Corrupt("text doc norm count");
  }
  std::vector<std::pair<int64_t, double>> norms(num_docs);
  for (auto& [doc_id, norm] : norms) {
    if (!in.GetI64(&doc_id) || !in.GetDouble(&norm)) {
      return Corrupt("text doc norm");
    }
  }
  uint64_t num_terms = 0;
  if (!in.GetU64(&num_terms) || num_terms > in.remaining()) {
    return Corrupt("text term count");
  }
  std::vector<InvertedIndex::RestoredTerm> terms(num_terms);
  uint64_t total_postings = 0, total_blocks = 0;
  std::vector<std::pair<uint64_t, uint64_t>> counts(num_terms);
  for (uint64_t t = 0; t < num_terms; ++t) {
    if (!in.GetString(&terms[t].term) || !in.GetDouble(&terms[t].idf) ||
        !in.GetDouble(&terms[t].max_weight) ||
        !in.GetU64(&counts[t].first) || !in.GetU64(&counts[t].second)) {
      return Corrupt("text term directory");
    }
    total_postings += counts[t].first;
    total_blocks += counts[t].second;
  }
  if (!in.SkipAlign(8)) return Corrupt("text blob padding");
  uint64_t stored_postings = 0;
  const uint8_t* postings_base = nullptr;
  if (!in.GetU64(&stored_postings) || stored_postings != total_postings ||
      total_postings > in.remaining() / sizeof(InvertedIndex::Posting) ||
      !in.GetView(total_postings * sizeof(InvertedIndex::Posting),
                  &postings_base)) {
    return Corrupt("text postings blob");
  }
  uint64_t stored_blocks = 0;
  const uint8_t* blocks_base = nullptr;
  if (!in.GetU64(&stored_blocks) || stored_blocks != total_blocks ||
      total_blocks > in.remaining() / sizeof(InvertedIndex::BlockMeta) ||
      !in.GetView(total_blocks * sizeof(InvertedIndex::BlockMeta),
                  &blocks_base)) {
    return Corrupt("text blocks blob");
  }
  const auto* postings =
      reinterpret_cast<const InvertedIndex::Posting*>(postings_base);
  const auto* blocks =
      reinterpret_cast<const InvertedIndex::BlockMeta*>(blocks_base);
  uint64_t p = 0, b = 0;
  for (uint64_t t = 0; t < num_terms; ++t) {
    terms[t].postings = {postings + p, counts[t].first};
    terms[t].blocks = {blocks + b, counts[t].second};
    p += counts[t].first;
    b += counts[t].second;
  }
  return InvertedIndex::FromTerms(std::move(terms), std::move(norms));
}

Result<std::vector<std::pair<int64_t, std::string>>>
SegmentReader::PendingInterviews() const {
  if (!has_section(SectionId::kPendingInterviews)) {
    return std::vector<std::pair<int64_t, std::string>>{};
  }
  COBRA_ASSIGN_OR_RETURN(ByteReader in,
                         Section(SectionId::kPendingInterviews));
  uint64_t count = 0;
  if (!in.GetU64(&count) || count > in.remaining()) {
    return Corrupt("pending interview count");
  }
  std::vector<std::pair<int64_t, std::string>> out(count);
  for (auto& [oid, text] : out) {
    if (!in.GetI64(&oid) || !in.GetString(&text)) {
      return Corrupt("pending interview record");
    }
  }
  return out;
}

Result<std::pair<const vision::SignatureRecord*, size_t>>
SegmentReader::SignatureChunk() const {
  if (!has_section(SectionId::kSignatures)) {
    return std::pair<const vision::SignatureRecord*, size_t>{nullptr, 0};
  }
  COBRA_ASSIGN_OR_RETURN(ByteReader in, Section(SectionId::kSignatures));
  uint64_t count = 0;
  if (!in.GetU64(&count) || !in.SkipAlign(64)) {
    return Corrupt("signature section header");
  }
  if (count > in.remaining() / sizeof(vision::SignatureRecord)) {
    return Corrupt("signature record count");
  }
  const uint8_t* base = nullptr;
  if (!in.GetView(count * sizeof(vision::SignatureRecord), &base)) {
    return Corrupt("signature record bytes");
  }
  const auto* records = reinterpret_cast<const vision::SignatureRecord*>(base);
  // The views go straight into an ANN index; reject records a correct
  // writer can never produce so a flipped bit cannot smuggle in a
  // nonsense shot interval or id.
  for (uint64_t i = 0; i < count; ++i) {
    if (records[i].video_id < 0 || records[i].begin < 0 ||
        records[i].end < records[i].begin) {
      return Corrupt("signature record fields");
    }
  }
  return std::pair<const vision::SignatureRecord*, size_t>{records,
                                                           static_cast<size_t>(count)};
}

Status CreateMetaTables(Table* shots, Table* objects, Table* events) {
  // Mirrors MetaIndex::Create(); MetaIndex::FromTables re-validates, so a
  // drift between the two is caught at restore time.
  COBRA_ASSIGN_OR_RETURN(
      *shots, Table::Create({{"video_id", DataType::kInt64},
                             {"begin", DataType::kInt64},
                             {"end", DataType::kInt64},
                             {"category", DataType::kString},
                             {"dominant_ratio", DataType::kDouble},
                             {"skin_ratio", DataType::kDouble},
                             {"entropy", DataType::kDouble}}));
  COBRA_ASSIGN_OR_RETURN(
      *objects, Table::Create({{"video_id", DataType::kInt64},
                               {"begin", DataType::kInt64},
                               {"end", DataType::kInt64},
                               {"player", DataType::kInt64},
                               {"observed_fraction", DataType::kDouble},
                               {"mean_area", DataType::kDouble},
                               {"mean_eccentricity", DataType::kDouble}}));
  COBRA_ASSIGN_OR_RETURN(*events,
                         Table::Create({{"video_id", DataType::kInt64},
                                        {"name", DataType::kString},
                                        {"player", DataType::kInt64},
                                        {"begin", DataType::kInt64},
                                        {"end", DataType::kInt64}}));
  return Status::OK();
}

Result<RestoredParts> RestoreFromSegments(
    const std::vector<const SegmentReader*>& segments) {
  if (segments.empty()) {
    return Status::InvalidArgument("restore requires at least one segment");
  }
  RestoredParts parts;
  COBRA_RETURN_NOT_OK(
      CreateMetaTables(&parts.shots, &parts.objects, &parts.events));
  std::optional<ConceptSchema> schema;
  // A text snapshot contains every interview ever added (the index
  // finalizes once), so pending sections anywhere in the chain are
  // superseded the moment any segment carries kTextIndex.
  const SegmentReader* text_segment = nullptr;
  for (const SegmentReader* seg : segments) {
    if (seg->text_finalized()) text_segment = seg;
  }
  for (const SegmentReader* seg : segments) {
    COBRA_RETURN_NOT_OK(seg->ApplyWebspace(&schema, &parts.class_tables,
                                           &parts.assoc_tables));
    COBRA_RETURN_NOT_OK(
        seg->ApplyMeta(&parts.shots, &parts.objects, &parts.events));
    parts.indexed_videos.insert(parts.indexed_videos.end(),
                                seg->new_video_oids().begin(),
                                seg->new_video_oids().end());
    parts.index_epoch = seg->index_epoch();
    if (text_segment == nullptr) {
      COBRA_ASSIGN_OR_RETURN(auto pending, seg->PendingInterviews());
      parts.pending_interviews.insert(
          parts.pending_interviews.end(),
          std::make_move_iterator(pending.begin()),
          std::make_move_iterator(pending.end()));
    }
    COBRA_ASSIGN_OR_RETURN(auto signatures, seg->SignatureChunk());
    if (signatures.second > 0) parts.signature_chunks.push_back(signatures);
  }
  if (text_segment != nullptr) {
    COBRA_ASSIGN_OR_RETURN(InvertedIndex text,
                           text_segment->LoadTextIndex());
    parts.text = std::move(text);
  }
  parts.schema = std::move(schema.value());
  return parts;
}

}  // namespace cobra::storage::segment
