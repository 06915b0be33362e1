#include "engine/serving/partition.h"

#include <algorithm>
#include <filesystem>
#include <set>

#include "util/strings.h"

namespace cobra::engine::serving {

ShardRouter::ShardRouter(const std::vector<core::VideoDescription>& videos,
                         size_t num_shards) {
  std::vector<int64_t> ids;
  ids.reserve(videos.size());
  for (const core::VideoDescription& v : videos) ids.push_back(v.video_id());
  *this = ShardRouter(std::move(ids), num_shards);
}

ShardRouter::ShardRouter(std::vector<int64_t> video_ids, size_t num_shards) {
  if (num_shards == 0) num_shards = 1;
  std::set<int64_t> distinct(video_ids.begin(), video_ids.end());
  std::vector<int64_t> sorted(distinct.begin(), distinct.end());
  upper_.assign(num_shards, INT64_MAX);
  const size_t m = sorted.size();
  for (size_t s = 0; s + 1 < num_shards; ++s) {
    const size_t cut = ((s + 1) * m) / num_shards;
    // Upper bound of shard s = first id of the next slice (or +inf when the
    // remaining slices are empty).
    upper_[s] = cut < m ? sorted[cut] : INT64_MAX;
  }
}

size_t ShardRouter::ShardOf(int64_t video_id) const {
  return static_cast<size_t>(
      std::upper_bound(upper_.begin(), upper_.end(), video_id) -
      upper_.begin());
}

Result<std::unique_ptr<DigitalLibrary>> BuildLibrary(const CorpusParts& parts) {
  COBRA_ASSIGN_OR_RETURN(std::unique_ptr<DigitalLibrary> library,
                         DigitalLibrary::Create(parts.store));
  for (const auto& [oid, text] : parts.interviews) {
    COBRA_RETURN_NOT_OK(library->AddInterview(oid, text));
  }
  COBRA_RETURN_NOT_OK(library->FinalizeText());
  for (const core::VideoDescription& desc : parts.videos) {
    COBRA_RETURN_NOT_OK(library->AddVideoDescription(desc));
  }
  for (const auto& [video_id, records] : parts.signatures) {
    COBRA_RETURN_NOT_OK(library->AddVideoSignatures(video_id, records));
  }
  return library;
}

namespace {

/// Applies shard `shard`'s insert sequence to `library`, one delta at a
/// time: every interview, FinalizeText (when `finalize_text`), the shard's
/// videos, then its signature batches, each in CorpusParts order.
Status ReplayShard(const CorpusParts& parts, const ShardRouter& router,
                   size_t shard, bool finalize_text, DigitalLibrary* library) {
  using core::IngestDelta;
  for (const auto& [oid, text] : parts.interviews) {
    COBRA_RETURN_NOT_OK(library->Apply(IngestDelta::Interview(oid, text)));
  }
  if (finalize_text) {
    COBRA_RETURN_NOT_OK(library->Apply(IngestDelta::FinalizeText()));
  }
  for (const core::VideoDescription& desc : parts.videos) {
    if (router.ShardOf(desc.video_id()) != shard) continue;
    COBRA_RETURN_NOT_OK(library->Apply(IngestDelta::Video(desc, {})));
  }
  for (const auto& [video_id, records] : parts.signatures) {
    if (router.ShardOf(video_id) != shard) continue;
    COBRA_RETURN_NOT_OK(
        library->Apply(IngestDelta::Signatures(video_id, records)));
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<std::unique_ptr<DigitalLibrary>>> BuildShardLibraries(
    const CorpusParts& parts, size_t num_shards, bool finalize_text) {
  if (num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  const ShardRouter router(parts.videos, num_shards);
  std::vector<std::unique_ptr<DigitalLibrary>> shards;
  shards.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    COBRA_ASSIGN_OR_RETURN(std::unique_ptr<DigitalLibrary> shard,
                           DigitalLibrary::Create(parts.store));
    COBRA_RETURN_NOT_OK(
        ReplayShard(parts, router, s, finalize_text, shard.get()));
    shards.push_back(std::move(shard));
  }
  return shards;
}

Result<std::vector<std::unique_ptr<DurableLibrary>>> BuildDurableShards(
    const CorpusParts& parts, size_t num_shards, const std::string& base_dir) {
  COBRA_ASSIGN_OR_RETURN(std::vector<std::unique_ptr<DigitalLibrary>> libraries,
                         BuildShardLibraries(parts, num_shards));
  std::error_code ec;
  std::filesystem::create_directories(base_dir, ec);
  if (ec) {
    return Status::Internal(
        StringFormat("cannot create '%s': %s", base_dir.c_str(),
                     ec.message().c_str()));
  }
  std::vector<std::unique_ptr<DurableLibrary>> shards;
  shards.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    const std::string dir =
        base_dir + "/" + StringFormat("shard-%04zu", s);
    COBRA_ASSIGN_OR_RETURN(
        std::unique_ptr<DurableLibrary> shard,
        DurableLibrary::Create(dir, std::move(libraries[s])));
    shards.push_back(std::move(shard));
  }
  return shards;
}

}  // namespace cobra::engine::serving
