#pragma once

/// \file partition.h
/// Corpus partitioning for the serving tier (DESIGN.md §4i).
///
/// A shard is a complete DigitalLibrary over a *slice* of the video corpus:
///   * the webspace concept store and the interview text index are
///     REPLICATED into every shard — they are player-scoped, and tf-idf
///     scores depend on the whole interview collection, so replication is
///     what keeps per-shard results bit-identical to the unsharded oracle;
///   * the video descriptions (meta-index) are RANGE-PARTITIONED by video
///     id into contiguous slices, so each shard's minimum video id is a
///     lower bound on every scene hit it can produce — the bound the
///     scatter-gather merge terminates on.
///
/// Shards are built from the same raw parts the full library is built
/// from, not by splitting a built library: replaying the identical insert
/// sequence per shard is what guarantees identical dictionaries, postings
/// and statistics on the replicated modalities.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/video_description.h"
#include "engine/digital_library.h"
#include "engine/durable_library.h"
#include "webspace/store.h"

namespace cobra::engine::serving {

/// The raw inputs a library (sharded or not) is built from.
struct CorpusParts {
  webspace::WebspaceStore store;
  /// (interview oid, text), in AddInterview order.
  std::vector<std::pair<int64_t, std::string>> interviews;
  /// Indexed videos, in AddVideoDescription order.
  std::vector<core::VideoDescription> videos;
  /// Per-video shot signature records, in AddVideoSignatures order. The
  /// signature modality is PARTITIONED: each batch lands only in the shard
  /// owning its video's range (unlike the replicated store/interviews).
  std::vector<std::pair<int64_t, std::vector<vision::SignatureRecord>>>
      signatures;
};

/// The contiguous-range video→shard assignment, as a value the ingest path
/// can hold on to: distinct video ids sorted ascending and cut into
/// `num_shards` near-equal slices; a video belongs to the shard whose
/// (exclusive) upper id bound is the first one above it. Ids never seen at
/// build time still route deterministically — anything past the last cut
/// lands in the final shard, which is how live ingest of fresh (monotonic)
/// video ids extends a running deployment without resharding.
class ShardRouter {
 public:
  /// A single-shard router (everything maps to shard 0).
  ShardRouter() : upper_(1, INT64_MAX) {}
  /// Router over the ids present in `videos`, in shard order.
  ShardRouter(const std::vector<core::VideoDescription>& videos,
              size_t num_shards);
  /// Router over explicit distinct ids (need not be sorted).
  ShardRouter(std::vector<int64_t> video_ids, size_t num_shards);

  size_t num_shards() const { return upper_.size(); }
  size_t ShardOf(int64_t video_id) const;
  /// Exclusive upper id bound per shard (INT64_MAX tail).
  const std::vector<int64_t>& upper_bounds() const { return upper_; }

 private:
  std::vector<int64_t> upper_;
};

/// Builds the unsharded library — the oracle the serving tier is validated
/// against: all interviews, all videos, text finalized.
Result<std::unique_ptr<DigitalLibrary>> BuildLibrary(const CorpusParts& parts);

/// Builds `num_shards` in-memory shard libraries: every shard gets a copy
/// of the store and all interviews (finalized); the distinct video ids are
/// sorted and split into `num_shards` contiguous ranges, and each shard
/// indexes only the descriptions and signature batches in its range
/// (preserving the original insert order within the shard). Each shard is
/// one DigitalLibrary::Apply per delta of its insert sequence: interviews,
/// FinalizeText, its videos, then its signature batches. Shards may be
/// empty of videos when there are fewer videos than shards. With
/// `finalize_text` false the interview index is left open so live ingest
/// can replicate further interviews (and the eventual FinalizeText) into
/// every shard — the ShardedIngestSink seed path; text queries fail until
/// finalized.
Result<std::vector<std::unique_ptr<DigitalLibrary>>> BuildShardLibraries(
    const CorpusParts& parts, size_t num_shards, bool finalize_text = true);

/// Durable variant: the BuildShardLibraries shards, each persisted by
/// DurableLibrary::Create under `<base_dir>/shard-NNNN` (its own segment
/// directory, the unit a replica loads) as one segment and an empty WAL.
Result<std::vector<std::unique_ptr<DurableLibrary>>> BuildDurableShards(
    const CorpusParts& parts, size_t num_shards, const std::string& base_dir);

}  // namespace cobra::engine::serving
