#include "engine/durable_library.h"

#include <algorithm>
#include <cstring>
#include <unordered_set>
#include <utility>

#include "util/crc32.h"
#include "util/strings.h"

namespace cobra::engine {
namespace {

namespace seg = cobra::storage::segment;

// "COBRAMAN", little endian.
constexpr uint64_t kManifestMagic = 0x4E414D4152424F43ull;
constexpr uint32_t kManifestVersion = 1;
constexpr char kManifestName[] = "MANIFEST";

std::string SegmentFileName(uint64_t number) {
  return StringFormat("seg-%06llu.cseg",
                      static_cast<unsigned long long>(number));
}

std::string WalFileName(uint64_t number) {
  return StringFormat("wal-%06llu.wal", static_cast<unsigned long long>(number));
}

std::string JoinPath(const std::string& dir, const std::string& name) {
  return dir + "/" + name;
}

/// A segment chain read back: the readers (every restored view borrows
/// from them) and the parts they fold into, with the webspace store and
/// the meta-index already rebuilt from their tables.
struct RestoredChain {
  std::vector<std::unique_ptr<seg::SegmentReader>> readers;
  seg::RestoredParts parts;
  webspace::WebspaceStore store;
  core::MetaIndex meta;
};

/// Opens segments `names` of `dir` under `verify` and restores them — the
/// read side Open and Compact share.
Result<RestoredChain> RestoreChain(const std::string& dir,
                                   const std::vector<std::string>& names,
                                   seg::SegmentReader::Verify verify) {
  std::vector<std::unique_ptr<seg::SegmentReader>> readers;
  std::vector<const seg::SegmentReader*> reader_ptrs;
  readers.reserve(names.size());
  for (const std::string& name : names) {
    COBRA_ASSIGN_OR_RETURN(
        std::unique_ptr<seg::SegmentReader> reader,
        seg::SegmentReader::Open(JoinPath(dir, name), verify));
    reader_ptrs.push_back(reader.get());
    readers.push_back(std::move(reader));
  }
  COBRA_ASSIGN_OR_RETURN(seg::RestoredParts parts,
                         seg::RestoreFromSegments(reader_ptrs));
  COBRA_ASSIGN_OR_RETURN(
      webspace::WebspaceStore store,
      webspace::WebspaceStore::Restore(parts.schema,
                                       std::move(parts.class_tables),
                                       std::move(parts.assoc_tables)));
  COBRA_ASSIGN_OR_RETURN(
      core::MetaIndex meta,
      core::MetaIndex::FromTables(
          std::move(parts.shots), std::move(parts.objects),
          std::move(parts.events),
          static_cast<int64_t>(parts.indexed_videos.size())));
  return RestoredChain{std::move(readers), std::move(parts), std::move(store),
                       std::move(meta)};
}

}  // namespace

Result<DurableLibrary::Manifest> DurableLibrary::ReadManifest(
    const std::string& dir) {
  const std::string path = JoinPath(dir, kManifestName);
  if (!seg::FileExists(path)) {
    return Status::NotFound(StringFormat("no manifest in '%s'", dir.c_str()));
  }
  COBRA_ASSIGN_OR_RETURN(seg::MmapFile map, seg::MmapFile::Open(path));
  if (map.size() < 4) return Status::ParseError("manifest too small");
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, map.data() + map.size() - 4, 4);
  if (util::Crc32(map.data(), map.size() - 4) != stored_crc) {
    return Status::ParseError("manifest checksum mismatch");
  }
  seg::ByteReader in(map.data(), map.size() - 4);
  uint64_t magic = 0;
  uint32_t version = 0, num_segments = 0;
  Manifest manifest;
  if (!in.GetU64(&magic) || magic != kManifestMagic) {
    return Status::ParseError("bad manifest magic");
  }
  if (!in.GetU32(&version) || version != kManifestVersion) {
    return Status::ParseError("unsupported manifest version");
  }
  if (!in.GetU64(&manifest.next_file_number) || !in.GetU32(&num_segments) ||
      num_segments > in.remaining()) {
    return Status::ParseError("corrupt manifest header");
  }
  manifest.segments.reserve(num_segments);
  for (uint32_t i = 0; i < num_segments; ++i) {
    std::string name;
    if (!in.GetString(&name)) return Status::ParseError("corrupt manifest");
    manifest.segments.push_back(std::move(name));
  }
  if (!in.GetString(&manifest.wal) || in.remaining() != 0) {
    return Status::ParseError("corrupt manifest");
  }
  return manifest;
}

Status DurableLibrary::WriteManifestLocked() {
  seg::ByteWriter out;
  out.PutU64(kManifestMagic);
  out.PutU32(kManifestVersion);
  out.PutU64(manifest_.next_file_number);
  out.PutU32(static_cast<uint32_t>(manifest_.segments.size()));
  for (const std::string& name : manifest_.segments) out.PutString(name);
  out.PutString(manifest_.wal);
  out.PutU32(util::Crc32(out.buffer().data(), out.size()));
  return seg::WriteFileAtomic(JoinPath(dir_, kManifestName),
                              out.buffer().data(), out.size());
}

storage::segment::LibraryDelta DurableLibrary::BuildDeltaLocked(
    const text::InvertedIndex* text) const {
  seg::LibraryDelta delta;
  delta.index_epoch = library_->index_epoch();
  delta.store = &library_->store();
  delta.class_from_rows = class_flushed_rows_;
  delta.assoc_from_rows = assoc_flushed_rows_;
  delta.meta = &library_->meta_index();
  delta.shots_from_row = shots_flushed_rows_;
  delta.objects_from_row = objects_flushed_rows_;
  delta.events_from_row = events_flushed_rows_;
  const std::vector<int64_t>& videos = library_->indexed_videos();
  delta.new_video_oids.assign(videos.begin() + videos_flushed_, videos.end());
  delta.text = text;
  // A snapshot contains every interview, so pending would be redundant.
  if (text == nullptr) delta.pending_interviews = pending_;
  delta.signature_chunks =
      library_->signatures().OwnedFrom(signatures_flushed_rows_);
  return delta;
}

Status DurableLibrary::FlushLocked() {
  const text::InvertedIndex& interviews = library_->interviews();
  const bool include_text = interviews.finalized() && !text_persisted_;
  const seg::LibraryDelta delta =
      BuildDeltaLocked(include_text ? &interviews : nullptr);

  const std::string seg_name = SegmentFileName(manifest_.next_file_number++);
  COBRA_RETURN_NOT_OK(seg::WriteSegment(delta, JoinPath(dir_, seg_name)));
  COBRA_ASSIGN_OR_RETURN(
      std::unique_ptr<seg::SegmentReader> reader,
      seg::SegmentReader::Open(JoinPath(dir_, seg_name), options_.verify));

  const std::string old_wal = manifest_.wal;
  const std::string wal_name = WalFileName(manifest_.next_file_number++);
  COBRA_ASSIGN_OR_RETURN(std::shared_ptr<seg::GroupCommitWal> wal,
                         seg::GroupCommitWal::Open(JoinPath(dir_, wal_name)));

  manifest_.segments.push_back(seg_name);
  manifest_.wal = wal_name;
  COBRA_RETURN_NOT_OK(WriteManifestLocked());
  readers_.push_back(std::move(reader));
  // Rotate. Tickets staged into the old WAL keep it alive through their
  // shared_ptr; waiting on them after the rotation completes harmlessly
  // (the fsynced segment already made those records durable).
  wal_ = std::move(wal);
  if (!old_wal.empty()) {
    (void)seg::RemoveFile(JoinPath(dir_, old_wal));
  }

  // Advance the watermarks: everything current is now persisted.
  COBRA_RETURN_NOT_OK(SetWatermarksLocked());
  if (include_text) text_persisted_ = true;
  pending_.clear();
  return Status::OK();
}

Status DurableLibrary::SetWatermarksLocked() {
  const webspace::WebspaceStore& store = library_->store();
  const webspace::ConceptSchema& schema = store.schema();
  class_flushed_rows_.clear();
  for (const auto& cls : schema.classes()) {
    COBRA_ASSIGN_OR_RETURN(const storage::Table* table,
                           store.ClassTable(cls.name));
    class_flushed_rows_.push_back(table->num_rows());
  }
  assoc_flushed_rows_.clear();
  for (const auto& assoc : schema.associations()) {
    COBRA_ASSIGN_OR_RETURN(const storage::Table* table,
                           store.AssociationTable(assoc.name));
    assoc_flushed_rows_.push_back(table->num_rows());
  }
  const core::MetaIndex& meta = library_->meta_index();
  shots_flushed_rows_ = meta.shots().num_rows();
  objects_flushed_rows_ = meta.objects().num_rows();
  events_flushed_rows_ = meta.events().num_rows();
  videos_flushed_ = library_->indexed_videos().size();
  signatures_flushed_rows_ = library_->signatures().num_records();
  return Status::OK();
}

Result<std::unique_ptr<DurableLibrary>> DurableLibrary::Create(
    const std::string& dir, webspace::WebspaceStore store,
    const Options& options) {
  COBRA_ASSIGN_OR_RETURN(std::unique_ptr<DigitalLibrary> library,
                         DigitalLibrary::Create(std::move(store)));
  return Create(dir, std::move(library), options);
}

Result<std::unique_ptr<DurableLibrary>> DurableLibrary::Create(
    const std::string& dir, std::unique_ptr<DigitalLibrary> library,
    const Options& options) {
  if (library == nullptr) return Status::InvalidArgument("null library");
  const text::InvertedIndex& interviews = library->interviews();
  if (!interviews.finalized() && interviews.num_documents() > 0) {
    return Status::FailedPrecondition(
        "cannot persist unfinalized interviews: the library does not keep "
        "their text");
  }
  // Records a restored library borrows from another chain's segments are
  // outside every flush window (SignatureIndex::OwnedFrom).
  size_t owned_signatures = 0;
  for (const auto& [records, count] : library->signatures().OwnedFrom(0)) {
    owned_signatures += count;
  }
  if (owned_signatures != library->signatures().num_records()) {
    return Status::FailedPrecondition(
        "cannot persist signature records borrowed from another segment "
        "chain");
  }
  COBRA_RETURN_NOT_OK(seg::CreateDir(dir));
  if (seg::FileExists(JoinPath(dir, kManifestName))) {
    return Status::AlreadyExists(
        StringFormat("'%s' already holds a durable library", dir.c_str()));
  }
  std::unique_ptr<DurableLibrary> out(new DurableLibrary());
  out->dir_ = dir;
  out->options_ = options;
  out->library_ = std::move(library);
  out->class_flushed_rows_.assign(
      out->library_->store().schema().classes().size(), 0);
  out->assoc_flushed_rows_.assign(
      out->library_->store().schema().associations().size(), 0);
  std::lock_guard<std::mutex> lock(out->manifest_mutex_);
  COBRA_RETURN_NOT_OK(out->FlushLocked());
  return out;
}

Result<std::unique_ptr<DurableLibrary>> DurableLibrary::Open(
    const std::string& dir, const Options& options) {
  COBRA_ASSIGN_OR_RETURN(Manifest manifest, ReadManifest(dir));
  COBRA_ASSIGN_OR_RETURN(RestoredChain restored,
                         RestoreChain(dir, manifest.segments, options.verify));
  seg::RestoredParts& parts = restored.parts;
  const bool have_text = parts.text.has_value();
  text::InvertedIndex text =
      have_text ? std::move(*parts.text) : text::InvertedIndex();
  COBRA_ASSIGN_OR_RETURN(
      std::unique_ptr<DigitalLibrary> library,
      DigitalLibrary::CreateFromParts(std::move(restored.store),
                                      std::move(text),
                                      std::move(restored.meta),
                                      parts.indexed_videos, parts.index_epoch,
                                      std::move(parts.signature_chunks)));
  if (!have_text) {
    // Persisted but not yet finalized interviews: re-add so a later
    // FinalizeText sees them. They are already durable — not pending.
    for (const auto& [oid, body] : parts.pending_interviews) {
      COBRA_RETURN_NOT_OK(library->AddInterview(oid, body));
    }
  }

  std::unique_ptr<DurableLibrary> out(new DurableLibrary());
  out->dir_ = dir;
  out->options_ = options;
  out->library_ = std::move(library);
  out->manifest_ = std::move(manifest);
  out->readers_ = std::move(restored.readers);
  out->text_persisted_ = have_text;

  // Watermarks = persisted state, before any WAL replay mutates the
  // library past what the segments hold.
  COBRA_RETURN_NOT_OK(out->SetWatermarksLocked());

  // Replay the WAL's intact prefix through the regular mutation path.
  COBRA_ASSIGN_OR_RETURN(std::vector<core::IngestDelta> deltas,
                         seg::ReplayWal(JoinPath(dir, out->manifest_.wal)));
  for (const core::IngestDelta& delta : deltas) {
    COBRA_RETURN_NOT_OK(out->ApplyInMemory(delta));
  }

  // Drop files the manifest does not reference — orphans of a crashed
  // flush or compaction (half-written .tmp siblings, superseded segments).
  {
    std::unordered_set<std::string> keep(out->manifest_.segments.begin(),
                                         out->manifest_.segments.end());
    keep.insert(kManifestName);
    keep.insert(out->manifest_.wal);
    COBRA_ASSIGN_OR_RETURN(std::vector<std::string> entries,
                           seg::ListDir(dir));
    for (const std::string& entry : entries) {
      if (keep.count(entry) == 0) {
        (void)seg::RemoveFile(JoinPath(dir, entry));
      }
    }
  }

  std::lock_guard<std::mutex> lock(out->manifest_mutex_);
  if (!deltas.empty()) {
    // Fold the replayed window into a segment immediately so recovery
    // cost never compounds across restarts.
    COBRA_RETURN_NOT_OK(out->FlushLocked());
  } else {
    // Nothing replayed: restart the (empty or torn-garbage-only) log.
    COBRA_ASSIGN_OR_RETURN(
        out->wal_,
        seg::GroupCommitWal::Open(JoinPath(dir, out->manifest_.wal)));
  }
  return out;
}

Status DurableLibrary::ApplyInMemory(const core::IngestDelta& delta) {
  COBRA_RETURN_NOT_OK(library_->Apply(delta));
  if (delta.kind == core::IngestDelta::Kind::kInterview) {
    pending_.emplace_back(delta.interview_oid, delta.interview_text);
  }
  return Status::OK();
}

Result<DurableLibrary::StageTicket> DurableLibrary::Stage(
    const core::IngestDelta& delta) {
  std::lock_guard<std::mutex> lock(mutate_mutex_);
  COBRA_RETURN_NOT_OK(ApplyInMemory(delta));
  COBRA_ASSIGN_OR_RETURN(uint64_t seq, wal_->Stage(delta));
  return StageTicket{wal_, seq};
}

Status DurableLibrary::WaitDurable(const StageTicket& ticket) {
  if (ticket.wal == nullptr) return Status::OK();
  return ticket.wal->WaitDurable(ticket.seq);
}

Status DurableLibrary::Apply(const core::IngestDelta& delta) {
  COBRA_ASSIGN_OR_RETURN(StageTicket ticket, Stage(delta));
  return WaitDurable(ticket);
}

Status DurableLibrary::Flush() {
  // Exclude writers for the whole fold: every record the delta covers is
  // in memory, and no record can land in the WAL between the segment
  // build and the rotation.
  std::scoped_lock lock(mutate_mutex_, manifest_mutex_);
  return FlushLocked();
}

Status DurableLibrary::Compact() {
  std::vector<std::string> names;
  {
    std::lock_guard<std::mutex> lock(manifest_mutex_);
    names = manifest_.segments;
  }
  if (names.size() <= 1) return Status::OK();

  // Merge from the immutable files, never the live library — queries and
  // even a concurrent Flush stay untouched until the publish below.
  COBRA_ASSIGN_OR_RETURN(RestoredChain restored,
                         RestoreChain(dir_, names, options_.verify));
  seg::RestoredParts& parts = restored.parts;
  const webspace::WebspaceStore& store = restored.store;
  seg::LibraryDelta delta;
  delta.index_epoch = parts.index_epoch;
  delta.store = &store;
  delta.class_from_rows.assign(store.schema().classes().size(), 0);
  delta.assoc_from_rows.assign(store.schema().associations().size(), 0);
  delta.meta = &restored.meta;
  delta.new_video_oids = parts.indexed_videos;
  delta.text = parts.text.has_value() ? &*parts.text : nullptr;
  if (!parts.text.has_value()) {
    delta.pending_interviews = std::move(parts.pending_interviews);
  }
  // Chunks borrow from `restored.readers`, which stay alive through
  // WriteSegment.
  delta.signature_chunks = parts.signature_chunks;

  std::string seg_name;
  {
    std::lock_guard<std::mutex> lock(manifest_mutex_);
    seg_name = SegmentFileName(manifest_.next_file_number++);
  }
  COBRA_RETURN_NOT_OK(seg::WriteSegment(delta, JoinPath(dir_, seg_name)));
  COBRA_ASSIGN_OR_RETURN(
      std::unique_ptr<seg::SegmentReader> merged,
      seg::SegmentReader::Open(JoinPath(dir_, seg_name), options_.verify));

  {
    std::lock_guard<std::mutex> lock(manifest_mutex_);
    // The merged prefix is immutable and only one compaction runs at a
    // time, so manifest_.segments still starts with `names`; anything a
    // concurrent Flush appended after it is preserved.
    std::vector<std::string> chain;
    chain.push_back(seg_name);
    chain.insert(chain.end(), manifest_.segments.begin() + names.size(),
                 manifest_.segments.end());
    manifest_.segments = std::move(chain);
    COBRA_RETURN_NOT_OK(WriteManifestLocked());
    // Retire the merged readers instead of destroying them: the live
    // text index's zero-copy spans may point into one of their mappings.
    for (size_t i = 0; i < names.size(); ++i) {
      retired_.push_back(std::move(readers_[i]));
    }
    readers_.erase(readers_.begin(),
                   readers_.begin() + static_cast<ptrdiff_t>(names.size()));
    readers_.insert(readers_.begin(), std::move(merged));
  }
  // Unlink the merged inputs; retired mappings remain valid (POSIX).
  for (const std::string& name : names) {
    (void)seg::RemoveFile(JoinPath(dir_, name));
  }
  return Status::OK();
}

Status DurableLibrary::CompactAsync(util::ThreadPool* pool) {
  if (compact_group_.has_value()) {
    return Status::FailedPrecondition(
        "a compaction is already running; WaitForCompaction first");
  }
  {
    std::lock_guard<std::mutex> lock(compact_status_mutex_);
    compact_status_ = Status::OK();
  }
  compact_group_.emplace(pool);
  compact_group_->Run([this] {
    Status status = Compact();
    std::lock_guard<std::mutex> lock(compact_status_mutex_);
    compact_status_ = std::move(status);
  });
  return Status::OK();
}

Status DurableLibrary::WaitForCompaction() {
  if (!compact_group_.has_value()) return Status::OK();
  compact_group_->Wait();
  compact_group_.reset();
  std::lock_guard<std::mutex> lock(compact_status_mutex_);
  return compact_status_;
}

int64_t DurableLibrary::wal_sync_calls() const {
  std::lock_guard<std::mutex> lock(mutate_mutex_);
  return wal_->sync_calls();
}

int64_t DurableLibrary::wal_records_committed() const {
  std::lock_guard<std::mutex> lock(mutate_mutex_);
  return wal_->records_committed();
}

size_t DurableLibrary::num_segments() const {
  std::lock_guard<std::mutex> lock(manifest_mutex_);
  return manifest_.segments.size();
}

}  // namespace cobra::engine
