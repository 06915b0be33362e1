#include "engine/digital_library.h"

#include <algorithm>
#include <limits>
#include <set>

#include "engine/planner/planner.h"
#include "util/strings.h"

namespace cobra::engine {

bool SceneHitLess(const SceneHit& a, const SceneHit& b) {
  if (a.text_score != b.text_score) return a.text_score > b.text_score;
  // Most-similar first; hits of non-similar queries all carry -1 and fall
  // through unchanged.
  if (a.similarity != b.similarity) return a.similarity < b.similarity;
  if (a.video_oid != b.video_oid) return a.video_oid < b.video_oid;
  if (a.range.begin != b.range.begin) return a.range.begin < b.range.begin;
  if (a.range.end != b.range.end) return a.range.end < b.range.end;
  if (a.player_oid != b.player_oid) return a.player_oid < b.player_oid;
  return a.event < b.event;
}

DigitalLibrary::DigitalLibrary(webspace::WebspaceStore store)
    : store_(std::move(store)),
      meta_index_(core::MetaIndex::Create().TakeValue()) {}

Result<std::unique_ptr<DigitalLibrary>> DigitalLibrary::Create(
    webspace::WebspaceStore store) {
  // Everything Search reads from the store is checked once, here, so no
  // query can fail on a schema gap that only some row sets would reach.
  const webspace::ConceptSchema& schema = store.schema();
  for (const char* cls : {"Player", "Tournament", "Interview", "Video"}) {
    if (!schema.HasClass(cls)) {
      return Status::InvalidArgument(
          StringFormat("store lacks tournament class '%s'", cls));
    }
  }
  const webspace::AssociationDef kAssociations[] = {
      {"won", "Player", "Tournament"},
      {"interviewed_in", "Player", "Interview"},
      {"plays_in", "Player", "Video"}};
  for (const webspace::AssociationDef& want : kAssociations) {
    Result<const webspace::AssociationDef*> have =
        schema.FindAssociation(want.name);
    if (!have.ok() || have.value()->from_class != want.from_class ||
        have.value()->to_class != want.to_class) {
      return Status::InvalidArgument(StringFormat(
          "store lacks tournament association '%s' (%s -> %s)",
          want.name.c_str(), want.from_class.c_str(), want.to_class.c_str()));
    }
  }
  COBRA_ASSIGN_OR_RETURN(const webspace::ClassDef* player,
                         schema.FindClass("Player"));
  const bool has_name = std::any_of(
      player->attributes.begin(), player->attributes.end(),
      [](const webspace::AttributeDef& attr) {
        return attr.name == "name" && attr.type == storage::DataType::kString;
      });
  if (!has_name) {
    return Status::InvalidArgument(
        "store lacks tournament attribute 'Player.name' (string)");
  }
  return std::unique_ptr<DigitalLibrary>(new DigitalLibrary(std::move(store)));
}

Result<std::unique_ptr<DigitalLibrary>> DigitalLibrary::CreateFromParts(
    webspace::WebspaceStore store, text::InvertedIndex interviews,
    core::MetaIndex meta_index, std::vector<int64_t> indexed_videos,
    int64_t index_epoch,
    std::vector<std::pair<const vision::SignatureRecord*, size_t>>
        signature_chunks) {
  COBRA_ASSIGN_OR_RETURN(std::unique_ptr<DigitalLibrary> library,
                         Create(std::move(store)));
  if (index_epoch < 0) {
    return Status::InvalidArgument("negative index epoch");
  }
  library->interviews_ = std::move(interviews);
  library->meta_index_ = std::move(meta_index);
  library->indexed_videos_ = std::move(indexed_videos);
  library->index_epoch_ = index_epoch;
  for (const auto& [records, count] : signature_chunks) {
    library->signatures_.AddBaseChunk(records, count);
  }
  return library;
}

Status DigitalLibrary::AddInterview(int64_t interview_oid,
                                    const std::string& text) {
  return interviews_.AddText(interview_oid, text);
}

Status DigitalLibrary::FinalizeText() {
  COBRA_RETURN_NOT_OK(interviews_.Finalize());
  ++index_epoch_;
  return Status::OK();
}

Status DigitalLibrary::AddVideoDescription(const core::VideoDescription& desc) {
  COBRA_RETURN_NOT_OK(meta_index_.AddVideo(desc));
  indexed_videos_.push_back(desc.video_id());
  ++index_epoch_;
  return Status::OK();
}

namespace {

Status CheckSignatureVideo(
    int64_t video_id, const std::vector<vision::SignatureRecord>& records) {
  for (const vision::SignatureRecord& rec : records) {
    if (rec.video_id != video_id) {
      return Status::InvalidArgument(StringFormat(
          "signature record for video %lld added under video %lld",
          static_cast<long long>(rec.video_id),
          static_cast<long long>(video_id)));
    }
  }
  return Status::OK();
}

}  // namespace

Status DigitalLibrary::AddVideoSignatures(
    int64_t video_id, const std::vector<vision::SignatureRecord>& records) {
  COBRA_RETURN_NOT_OK(CheckSignatureVideo(video_id, records));
  signatures_.AddRecords(records.data(), records.size());
  ++index_epoch_;
  return Status::OK();
}

Status DigitalLibrary::Apply(const core::IngestDelta& delta) {
  using Kind = core::IngestDelta::Kind;
  switch (delta.kind) {
    case Kind::kInterview:
      return AddInterview(delta.interview_oid, delta.interview_text);
    case Kind::kFinalizeText:
      return FinalizeText();
    case Kind::kVideo:
      COBRA_RETURN_NOT_OK(
          CheckSignatureVideo(delta.video.video_id(), delta.signatures));
      COBRA_RETURN_NOT_OK(AddVideoDescription(delta.video));
      if (delta.signatures.empty()) return Status::OK();
      return AddVideoSignatures(delta.video.video_id(), delta.signatures);
    case Kind::kSignatures:
      return AddVideoSignatures(delta.signature_video, delta.signatures);
  }
  return Status::Internal("unreachable ingest delta kind");
}

Status DigitalLibrary::SetSignatureConfig(
    const similarity::SignatureIndexConfig& config) {
  COBRA_RETURN_NOT_OK(signatures_.SetConfig(config));
  ++index_epoch_;
  return Status::OK();
}

Result<vision::ShotSignature> ResolveProbeSignature(
    const similarity::SignatureIndex& index, const CombinedQuery& query) {
  const vision::SignatureRecord* rec =
      index.FindShot(query.similar_video, query.similar_frame);
  if (rec == nullptr) {
    return Status::NotFound(StringFormat(
        "no signature indexed for video %lld frame %lld",
        static_cast<long long>(query.similar_video),
        static_cast<long long>(query.similar_frame)));
  }
  return rec->sig;
}

size_t EffectiveSimilarK(const similarity::SignatureIndex& index,
                         const CombinedQuery& query) {
  return query.similar_k > 0 ? query.similar_k : index.config().rerank_k;
}

size_t SimilarCandidates(size_t k) {
  return k < std::numeric_limits<size_t>::max() ? k + 1 : k;
}

SimilarNeighbors BuildSimilarNeighbors(
    const std::vector<similarity::Neighbor>& candidates,
    const CombinedQuery& query, size_t k) {
  SimilarNeighbors by_video;
  size_t kept = 0;
  for (const similarity::Neighbor& nb : candidates) {
    if (kept == k) break;
    // The probe's own shot is trivially distance 0; it is not an answer.
    if (nb.record->video_id == query.similar_video &&
        nb.record->begin <= query.similar_frame &&
        query.similar_frame <= nb.record->end) {
      continue;
    }
    by_video[nb.record->video_id].push_back(
        SimilarShot{FrameInterval{nb.record->begin, nb.record->end},
                    similarity::DistanceKey(nb.hamming, nb.l2sq)});
    ++kept;
  }
  return by_video;
}

Result<SimilarNeighbors> SimilarStage(const similarity::SignatureIndex& index,
                                      const CombinedQuery& query,
                                      similarity::SimilaritySearchStats* stats) {
  COBRA_ASSIGN_OR_RETURN(vision::ShotSignature sig,
                         ResolveProbeSignature(index, query));
  const size_t k = EffectiveSimilarK(index, query);
  return BuildSimilarNeighbors(
      index.SearchSimilar(sig, SimilarCandidates(k), stats), query, k);
}

Status DigitalLibrary::ValidateQuery(const CombinedQuery& query) const {
  COBRA_ASSIGN_OR_RETURN(const storage::Table* players,
                         store_.ClassTable("Player"));
  for (const storage::Predicate& pred : query.player_predicates) {
    COBRA_RETURN_NOT_OK(storage::ValidatePredicate(*players, pred));
  }
  if (query.won_year >= 0) {
    COBRA_ASSIGN_OR_RETURN(const storage::Table* tournaments,
                           store_.ClassTable("Tournament"));
    COBRA_RETURN_NOT_OK(storage::ValidatePredicate(
        *tournaments, {"year", storage::CompareOp::kEq, query.won_year}));
  }
  if (!query.text.empty()) {
    COBRA_RETURN_NOT_OK(interviews_.AnalyzeQuery(query.text).status());
  }
  return Status::OK();
}

Result<std::map<int64_t, double>> DigitalLibrary::TextStage(
    const std::string& text, size_t top_k, text::SearchStats* stats) const {
  COBRA_ASSIGN_OR_RETURN(std::vector<text::SearchHit> hits,
                         interviews_.SearchTopN(text, top_k, stats));
  std::map<int64_t, double> player_scores;
  for (const text::SearchHit& hit : hits) {
    COBRA_ASSIGN_OR_RETURN(std::vector<int64_t> players,
                           store_.TraverseReverse("interviewed_in", {hit.doc_id}));
    for (int64_t p : players) {
      auto [it, inserted] = player_scores.emplace(p, hit.score);
      if (!inserted) it->second = std::max(it->second, hit.score);
    }
  }
  return player_scores;
}

Result<std::vector<SceneHit>> DigitalLibrary::Search(
    const SearchRequest& request, text::SearchStats* stats,
    planner::PlanExplain* explain) const {
  return planner::SearchPlanned(*this, request, stats, explain);
}

Result<planner::PlanExplain> DigitalLibrary::ExplainSearch(
    const CombinedQuery& query) const {
  planner::PlanExplain explain;
  COBRA_RETURN_NOT_OK(Search(query, nullptr, &explain).status());
  return explain;
}

Result<std::vector<SceneHit>> DigitalLibrary::SearchKeywordOnly(
    const std::string& text, size_t top_k, text::SearchStats* stats) const {
  if (stats) *stats = text::SearchStats{};
  COBRA_ASSIGN_OR_RETURN(auto player_scores, TextStage(text, top_k, stats));
  std::vector<SceneHit> out;
  for (const auto& [player, score] : player_scores) {
    SceneHit hit;
    hit.player_oid = player;
    COBRA_ASSIGN_OR_RETURN(storage::Value name,
                           store_.GetAttribute("Player", player, "name"));
    hit.player_name = std::get<std::string>(name);
    hit.text_score = score;
    out.push_back(std::move(hit));
  }
  std::sort(out.begin(), out.end(), [](const SceneHit& a, const SceneHit& b) {
    if (a.text_score != b.text_score) return a.text_score > b.text_score;
    return a.player_oid < b.player_oid;
  });
  return out;
}

Result<std::vector<storage::GroupRow>> DigitalLibrary::EventStatistics() const {
  return storage::GroupBy(meta_index_.events(), "name",
                          storage::AggregateOp::kCount);
}

Result<std::vector<std::pair<std::string, int64_t>>>
DigitalLibrary::ScenesPerPlayer(const std::string& event) const {
  COBRA_ASSIGN_OR_RETURN(const storage::Table* players,
                         store_.ClassTable("Player"));
  std::vector<std::pair<std::string, int64_t>> out;
  std::set<int64_t> indexed(indexed_videos_.begin(), indexed_videos_.end());
  COBRA_ASSIGN_OR_RETURN(size_t name_col, players->ColumnIndex("name"));
  const auto& oids = players->IntColumn(0);
  const auto& names = players->StringColumn(name_col);
  for (int64_t row = 0; row < players->num_rows(); ++row) {
    const int64_t oid = oids[static_cast<size_t>(row)];
    std::string name = names[static_cast<size_t>(row)];
    int64_t scenes = 0;
    COBRA_ASSIGN_OR_RETURN(std::vector<int64_t> videos,
                           store_.Traverse("plays_in", {oid}));
    for (int64_t video : videos) {
      if (!indexed.count(video)) continue;
      COBRA_ASSIGN_OR_RETURN(std::vector<int64_t> roles,
                             store_.Roles("plays_in", oid, video));
      std::set<int64_t> role_set(roles.begin(), roles.end());
      COBRA_ASSIGN_OR_RETURN(std::vector<core::Scene> found,
                             meta_index_.FindScenes(event, video));
      for (const core::Scene& scene : found) {
        if (scene.player < 0 || role_set.count(scene.player)) ++scenes;
      }
    }
    if (scenes > 0) out.emplace_back(std::move(name), scenes);
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  return out;
}

}  // namespace cobra::engine
