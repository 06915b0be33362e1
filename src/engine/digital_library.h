#pragma once

/// \file digital_library.h
/// The digital library search engine of the demo: one façade over the three
/// retrieval components —
///   * the webspace concept store (who won, who is left-handed, ...),
///   * the full-text index over interviews (ref [1]),
///   * the COBRA meta-index over videos (which scenes show a net play),
/// answering combined queries such as the paper's §2 example: "video scenes
/// of left-handed female players who have won the Australian Open in the
/// past, in which they approach the net."
///
/// The engine binds to the tournament schema of
/// webspace::SiteSynthesizer::TournamentSchema(). Every combined query runs
/// through one path, the cost-based planner (engine/planner), and is
/// validated before any stage runs, so whether it fails depends on the
/// query alone.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/ingest_delta.h"
#include "core/meta_index.h"
#include "core/video_description.h"
#include "engine/planner/plan.h"
#include "engine/similarity/similarity.h"
#include "text/inverted_index.h"
#include "webspace/query.h"
#include "webspace/store.h"

namespace cobra::engine {

/// One answer scene (or player-only answer when no event was asked for).
struct SceneHit {
  int64_t player_oid = 0;
  std::string player_name;
  int64_t video_oid = -1;      ///< -1 when the query had no content part
  FrameInterval range;         ///< empty when the query had no content part
  std::string event;
  double text_score = 0.0;     ///< best interview score when text was queried
  /// similarity::DistanceKey to the probe shot when the query had a
  /// similar_to condition (smaller = more similar); -1 otherwise. For event
  /// + similar queries this is the best key among neighbor shots the scene
  /// overlaps.
  double similarity = -1.0;
};

/// The combined concept + content + text query.
struct CombinedQuery {
  /// Attribute predicates on the Player class (hand, gender, country,
  /// ranking...).
  std::vector<storage::Predicate> player_predicates;
  /// Require the player to have won a tournament; restrict to a year when
  /// won_year >= 0.
  bool require_champion = false;
  int64_t won_year = -1;
  /// Full-text condition on the player's interviews (empty = none).
  std::string text;
  size_t text_top_k = 10;
  /// Content-based condition: only scenes showing this event (empty = none).
  std::string event;
  /// Query-by-example condition (similar_video >= 0 = present): scenes
  /// perceptually similar to the shot of `similar_video` containing frame
  /// `similar_frame`. Top `similar_k` neighbor shots are considered (0 =
  /// the index's rerank_k default), excluding the probe shot itself.
  int64_t similar_video = -1;
  int64_t similar_frame = -1;
  size_t similar_k = 0;
};

/// One neighbor shot of the similar stage: its interval and its
/// similarity::DistanceKey to the probe.
struct SimilarShot {
  FrameInterval range;
  double distance = 0.0;
};

/// The similar stage's result: neighbor shots grouped by video oid.
using SimilarNeighbors = std::map<int64_t, std::vector<SimilarShot>>;

/// Resolved similar stage fanned out shard-wide by the serving frontend —
/// the partitioned-modality analog of `text_seed`. The signature modality
/// is partitioned (each shard indexes only its videos), so the frontend
/// resolves the probe signature and the *global* top-k neighbor set once
/// (merging per-shard candidate lists under the total neighbor order) and
/// every shard consumes the same set; a shard contributes exactly the
/// hits of its own videos and the union reproduces the unsharded answer.
struct SimilarSeed {
  vision::ShotSignature signature;
  SimilarNeighbors neighbors;
};

/// One `Search` call: the query, how many hits to return, and the serving
/// tier's optional stage seeds. Implicitly constructible from a
/// CombinedQuery, so `Search(query)` asks for every hit, unseeded. The
/// request borrows the query and the seeds; they must outlive the call.
struct SearchRequest {
  SearchRequest(const CombinedQuery& query, size_t top_n = 0,
                const std::map<int64_t, double>* text_seed = nullptr,
                const SimilarSeed* similar_seed = nullptr)
      : query(query),
        top_n(top_n),
        text_seed(text_seed),
        similar_seed(similar_seed) {}

  const CombinedQuery& query;
  /// Only the first `top_n` hits under SceneHitLess are returned (0 = all).
  /// The answer is exactly the full answer's prefix.
  size_t top_n = 0;
  /// Precomputed player -> score text stage (DigitalLibrary::TextStage);
  /// when non-null and the query has a text condition it replaces the
  /// local DAAT run.
  const std::map<int64_t, double>* text_seed = nullptr;
  /// Frontend-resolved similar stage; when non-null and the query has a
  /// similar_to condition its neighbor set is taken verbatim.
  const SimilarSeed* similar_seed = nullptr;
};

/// Resolves the probe signature of `query` from `index` (NotFound when the
/// probe scene has no indexed signature).
Result<vision::ShotSignature> ResolveProbeSignature(
    const similarity::SignatureIndex& index, const CombinedQuery& query);

/// Groups a *sorted* candidate list (SearchSimilar order) into
/// SimilarNeighbors: drops the probe shot itself, truncates to `k`
/// neighbors, groups by video. Shared by the library and the serving
/// frontend's cross-shard merge.
SimilarNeighbors BuildSimilarNeighbors(
    const std::vector<similarity::Neighbor>& candidates,
    const CombinedQuery& query, size_t k);

/// The full similar stage against one index: resolve, search
/// (SimilarCandidates(k) candidates so the probe's own shot never
/// displaces a neighbor), group.
Result<SimilarNeighbors> SimilarStage(
    const similarity::SignatureIndex& index, const CombinedQuery& query,
    similarity::SimilaritySearchStats* stats = nullptr);

/// Effective neighbor count of `query` against `index` (similar_k, or the
/// index's rerank_k default when unset).
size_t EffectiveSimilarK(const similarity::SignatureIndex& index,
                         const CombinedQuery& query);

/// Candidates to search for `k` neighbors: k + 1, since the probe's own
/// shot is a candidate but never an answer, saturating at SIZE_MAX so a k
/// beyond the index still asks for every record.
size_t SimilarCandidates(size_t k);

class DigitalLibrary {
 public:
  /// Takes ownership of a store conforming to the tournament schema. Checks
  /// everything Search reads from the store: the four classes, the `won`,
  /// `interviewed_in` and `plays_in` associations (Player to Tournament,
  /// Interview and Video) and the string attribute `Player.name`.
  static Result<std::unique_ptr<DigitalLibrary>> Create(
      webspace::WebspaceStore store);

  /// Reassembles a library from persisted parts (the durable storage
  /// restore surface, DESIGN.md §4h). `interviews` may be finalized or
  /// still accepting documents — un-finalized pending interviews are
  /// replayed through AddInterview by the caller. The epoch is restored so
  /// epoch-tagged query caches built against the persisted library stay
  /// coherent across restarts.
  /// `signature_chunks` are zero-copy views into persisted signature
  /// sections (the caller keeps the backing segments mapped for the
  /// library's lifetime).
  static Result<std::unique_ptr<DigitalLibrary>> CreateFromParts(
      webspace::WebspaceStore store, text::InvertedIndex interviews,
      core::MetaIndex meta_index, std::vector<int64_t> indexed_videos,
      int64_t index_epoch,
      std::vector<std::pair<const vision::SignatureRecord*, size_t>>
          signature_chunks = {});

  const webspace::WebspaceStore& store() const { return store_; }
  const core::MetaIndex& meta_index() const { return meta_index_; }
  /// The interview text index (serialization surface).
  const text::InvertedIndex& interviews() const { return interviews_; }
  /// Oids of videos with an indexed description, in AddVideoDescription
  /// order (serialization surface).
  const std::vector<int64_t>& indexed_videos() const { return indexed_videos_; }

  /// Indexes an interview's text under its oid.
  Status AddInterview(int64_t interview_oid, const std::string& text);
  /// Freezes the text index; required before Search with a text condition.
  Status FinalizeText();

  /// Adds an indexed video. desc.video_id() must equal the Video object's
  /// oid in the webspace store.
  Status AddVideoDescription(const core::VideoDescription& desc);

  /// Adds per-shot perceptual signatures for `video_id` (the similar_to
  /// modality; DESIGN.md §4j). Every record must carry that video id.
  Status AddVideoSignatures(int64_t video_id,
                            const std::vector<vision::SignatureRecord>& records);

  /// Applies one mutation record: the one place a delta's kind maps onto
  /// the four mutators above. A kVideo delta first checks that every
  /// signature record carries the video's id (the only way its signature
  /// batch can fail), so it applies whole or not at all.
  Status Apply(const core::IngestDelta& delta);

  /// The signature ANN index (similar_to evaluation + serialization
  /// surface).
  const similarity::SignatureIndex& signatures() const { return signatures_; }

  /// Reconfigures the signature index (band count, bits, threshold),
  /// rebuilding its tables over the records already added. Results of
  /// similar_to queries may legitimately change (the threshold is part of
  /// the query semantics), so the epoch is bumped.
  Status SetSignatureConfig(const similarity::SignatureIndexConfig& config);

  /// Monotonic counter bumped whenever a successful mutation changes what
  /// Search can return (FinalizeText, AddVideoDescription). Query-result
  /// caches key on it: an entry tagged with an older epoch is stale.
  int64_t index_epoch() const { return index_epoch_; }

  /// Checks `query` without evaluating it, in this order: every player
  /// predicate (column exists, literal type matches), the won-year
  /// predicate, then the text condition (index finalized, some indexable
  /// term). Search fails with exactly this status on such a query, whatever
  /// rows exist. The similar_to probe is resolved by Search itself (NotFound
  /// when no signature covers it), because signatures are partitioned
  /// across serving shards while everything checked here is replicated.
  Status ValidateQuery(const CombinedQuery& query) const;

  /// The combined query, answered by the cost-based planner (DESIGN.md
  /// §4g). Results are fully deterministically ordered (SceneHitLess): text
  /// score descending, then similarity distance ascending, then video id,
  /// then scene start, then scene end, then player oid, then event name;
  /// text_score carries the interview relevance when a text condition was
  /// present (0 otherwise). With `request.top_n` > 0 only the first top_n
  /// hits are returned, and the event stage stops once no remaining
  /// (player, video) pair can enter them. When `stats` is non-null it
  /// receives the text-index work counters of this query (zeroed when the
  /// query has no text condition). When `explain` is non-null it receives
  /// the executed plan.
  ///
  /// `request.text_seed` is the shard-aware serving hook (DESIGN.md §4i): a
  /// player→score map computed by TextStage() on a library with an
  /// identical interview index (in the serving tier the interview layer is
  /// replicated, so the frontend evaluates it once and fans the result
  /// out). When non-null and the query has a text condition, the text
  /// stage is taken verbatim from the seed instead of re-running the DAAT
  /// — results are bit-identical by construction.
  ///
  /// `request.similar_seed` is the same hook for the similar_to modality,
  /// which is *partitioned* rather than replicated: the frontend resolves
  /// the probe signature and global neighbor set once and every shard
  /// consumes it verbatim (see SimilarSeed).
  Result<std::vector<SceneHit>> Search(
      const SearchRequest& request, text::SearchStats* stats = nullptr,
      planner::PlanExplain* explain = nullptr) const;

  /// The text stage in isolation: players scored by their best interview
  /// for `text` (top_k interviews ranked, walked back through
  /// "interviewed_in"). This is exactly the map Search computes internally
  /// for a text condition — exposed so the serving frontend can evaluate
  /// the replicated text modality once per query and pass it to every
  /// shard as `text_seed`.
  Result<std::map<int64_t, double>> TextStage(
      const std::string& text, size_t top_k,
      text::SearchStats* stats = nullptr) const;

  /// Plans and executes `query` for every hit (top_n 0), returning only
  /// the explain record (chosen stage order, estimated vs actual
  /// cardinalities).
  Result<planner::PlanExplain> ExplainSearch(const CombinedQuery& query) const;

  /// Keyword-only baseline (what a flat web search engine sees, paper §2):
  /// ranks players by their best interview's tf-idf score for `text`.
  Result<std::vector<SceneHit>> SearchKeywordOnly(
      const std::string& text, size_t top_k,
      text::SearchStats* stats = nullptr) const;

  /// Library statistics: event counts by name across all indexed videos
  /// (a group-by over the meta-index events table).
  Result<std::vector<storage::GroupRow>> EventStatistics() const;

  /// Scenes of `event` per player name, descending by count (players with
  /// zero scenes omitted).
  Result<std::vector<std::pair<std::string, int64_t>>> ScenesPerPlayer(
      const std::string& event) const;

 private:
  explicit DigitalLibrary(webspace::WebspaceStore store);

  webspace::WebspaceStore store_;
  text::InvertedIndex interviews_;
  core::MetaIndex meta_index_;
  std::vector<int64_t> indexed_videos_;
  similarity::SignatureIndex signatures_;
  int64_t index_epoch_ = 0;
};

/// The total order Search sorts hits by (text score descending, then
/// similarity distance ascending, then video, scene start, scene end,
/// player oid, event name). Shared with the serving merge and the test
/// oracles, so equal hit multisets imply bit-identical output.
bool SceneHitLess(const SceneHit& a, const SceneHit& b);

}  // namespace cobra::engine
