#pragma once

/// \file inputs.h
/// Seeded input generators of the end-to-end benchmark. Everything the
/// program receives is derived from the workload seed here: the same seed
/// gives byte-identical inputs (checked through the printed digest).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/video_description.h"
#include "engine/serving/partition.h"
#include "media/tennis_synthesizer.h"
#include "util/status.h"
#include "vision/signature.h"
#include "webspace/site_synthesizer.h"

namespace cobra::perfbench {

class Digest;

/// Mixes a workload seed with a stream label into an independent seed.
uint64_t SubSeed(uint64_t seed, uint64_t label);

/// A tournament site (players, champions, interviews, video objects).
webspace::SynthesizedSite MakeSite(uint64_t seed, int players, int years,
                                   int videos_per_year,
                                   int interviews_per_player = 1);

/// One coded broadcast: serialized BlockVideoEncoder output plus the
/// synthesizer's ground-truth counts. Several videos may air the same
/// coded bytes (see RepeatBroadcasts), so the bytes are shared.
struct CodedBroadcast {
  int64_t video_oid = 0;
  std::shared_ptr<const std::vector<uint8_t>> bytes;
  int64_t frames = 0;
  int width = 0;
  int height = 0;
  int64_t truth_shots = 0;
  int64_t truth_events = 0;

  /// Decoded RGB24 size in bytes (what the FDE frame cache would hold).
  int64_t DecodedBytes() const {
    return frames * int64_t{width} * int64_t{height} * 3;
  }
};

/// Synthesizes, encodes and serializes the broadcast of every oid in
/// `oids` on `threads` threads; result i belongs to oids[i]. A video's
/// broadcast depends only on (seed, its site video seed).
Result<std::vector<CodedBroadcast>> MakeCodedBroadcasts(
    const webspace::SynthesizedSite& site, const std::vector<int64_t>& oids,
    uint64_t seed, int threads);

/// Broadcasts for `oids` that re-air `distinct` in turn: video i gets the
/// coded bytes of distinct[i % distinct.size()] under its own oid.
std::vector<CodedBroadcast> RepeatBroadcasts(
    const std::vector<CodedBroadcast>& distinct,
    const std::vector<int64_t>& oids);

/// Generated descriptions for every video in `oids` (the search corpus and
/// the live workload's seed half), appended to `parts` in oid order: 40
/// shots of 600 frames (3/5 of them tennis shots carrying 6 events each,
/// with the FDE's event names and acting player) and one signature per
/// shot. 1% of the shots found a near-duplicate family and 15% join one
/// as a 1-12 bit perturbation of an earlier video's founder.
void AddSyntheticVideos(const std::vector<int64_t>& oids, uint64_t seed,
                        engine::serving::CorpusParts* parts);

/// Site interviews in AddInterview order (ascending oid).
std::vector<std::pair<int64_t, std::string>> Interviews(
    const webspace::SynthesizedSite& site);

/// Query classes of the mix (the serving.p50_ms.<class> split).
enum class QueryClass : int {
  kConcept = 0,
  kText = 1,
  kEvent = 2,
  kSimilar = 3
};
constexpr int kNumQueryClasses = 4;
const char* QueryClassName(QueryClass cls);

struct StreamQuery {
  std::string text;  ///< the query-language string
  QueryClass cls = QueryClass::kConcept;
  bool from_pool = false;  ///< drawn from the small repeating pool
};

/// What the query generator may refer to.
struct QueryDomain {
  int players = 0;
  int first_year = 1996;
  int years = 0;
  /// (video, frame) probes for similar_to: frames inside signed shots.
  std::vector<std::pair<int64_t, int64_t>> probes;
};

/// Probes inside the signed shots of `parts` (one per signature record).
std::vector<std::pair<int64_t, int64_t>> SignatureProbes(
    const engine::serving::CorpusParts& parts);

/// The search mix, shaped after the E13 serving bench's traffic
/// (bench/bench_e13_serving.cc): every 5th query comes from a 16-query pool
/// that repeats, alternately its 8 concept-only and its 8 text-only queries
/// (10% + 10%); the others are distinct content queries, 7 in 8 of them
/// event queries (70%) and 1 in 8 similar_to (10%, a share no source in the
/// repository fixes; RECORD.md). The shares are exact for any seed.
std::vector<StreamQuery> MakeQueryStream(const QueryDomain& domain,
                                         uint64_t seed, size_t count);

/// Digest contributions of the generated inputs.
void DigestSite(const webspace::SynthesizedSite& site, Digest* digest);
void DigestParts(const engine::serving::CorpusParts& parts, Digest* digest);
void DigestBroadcasts(const std::vector<CodedBroadcast>& broadcasts,
                      Digest* digest);
void DigestStream(const std::vector<StreamQuery>& stream, Digest* digest);

}  // namespace cobra::perfbench
