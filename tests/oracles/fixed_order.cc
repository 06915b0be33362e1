#include "oracles/fixed_order.h"

#include <algorithm>
#include <set>
#include <string>

namespace cobra::engine {

Result<std::vector<int64_t>> ConceptPlayers(const DigitalLibrary& library,
                                            const CombinedQuery& query) {
  const webspace::WebspaceStore& store = library.store();
  webspace::ClassSelection selection{"Player", query.player_predicates};
  COBRA_ASSIGN_OR_RETURN(std::vector<int64_t> players,
                         webspace::SelectObjects(store, selection));
  if (!query.require_champion && query.won_year < 0) return players;

  webspace::ClassSelection tournaments{"Tournament", {}};
  if (query.won_year >= 0) {
    tournaments.predicates.push_back(
        {"year", storage::CompareOp::kEq, query.won_year});
  }
  COBRA_ASSIGN_OR_RETURN(std::vector<int64_t> tournament_oids,
                         webspace::SelectObjects(store, tournaments));
  COBRA_ASSIGN_OR_RETURN(std::vector<int64_t> champions,
                         store.TraverseReverse("won", tournament_oids));
  std::set<int64_t> champion_set(champions.begin(), champions.end());
  std::vector<int64_t> out;
  for (int64_t p : players) {
    if (champion_set.count(p)) out.push_back(p);
  }
  return out;
}

Result<std::vector<SceneHit>> SearchFixedOrder(
    const DigitalLibrary& library, const CombinedQuery& query,
    text::SearchStats* stats, const std::map<int64_t, double>* text_seed,
    const SimilarSeed* similar_seed) {
  const webspace::WebspaceStore& store = library.store();
  if (stats) *stats = text::SearchStats{};
  COBRA_ASSIGN_OR_RETURN(std::vector<int64_t> players,
                         ConceptPlayers(library, query));

  std::map<int64_t, double> text_scores;
  if (!query.text.empty()) {
    if (text_seed) {
      // Error parity with the unseeded path: a zero-budget probe surfaces
      // the same not-finalized / malformed-query errors SearchTopN would.
      COBRA_RETURN_NOT_OK(
          library.interviews().SearchTopN(query.text, 0).status());
      text_scores = *text_seed;
    } else {
      COBRA_ASSIGN_OR_RETURN(
          text_scores,
          library.TextStage(query.text, query.text_top_k, stats));
    }
    std::vector<int64_t> filtered;
    for (int64_t p : players) {
      if (text_scores.count(p)) filtered.push_back(p);
    }
    players = std::move(filtered);
  }

  // The similar stage runs unconditionally after the text stage (stage
  // order: concept -> text -> similar -> event) so an unresolvable probe
  // surfaces its NotFound even when the player set is already empty. A
  // frontend seed means the probe was already resolved globally; the local
  // (partition-scoped) index is not consulted at all.
  const bool has_similar = query.similar_video >= 0;
  SimilarNeighbors similar;
  if (has_similar) {
    if (similar_seed) {
      similar = similar_seed->neighbors;
    } else {
      COBRA_ASSIGN_OR_RETURN(similar,
                             SimilarStage(library.signatures(), query));
    }
  }

  std::vector<SceneHit> out;
  const std::vector<int64_t>& indexed_videos = library.indexed_videos();
  std::set<int64_t> indexed(indexed_videos.begin(), indexed_videos.end());
  for (int64_t player : players) {
    COBRA_ASSIGN_OR_RETURN(storage::Value name_value,
                           store.GetAttribute("Player", player, "name"));
    std::string name = std::get<std::string>(name_value);
    double text_score =
        text_scores.count(player) ? text_scores.at(player) : 0.0;

    if (query.event.empty() && !has_similar) {
      SceneHit hit;
      hit.player_oid = player;
      hit.player_name = name;
      hit.text_score = text_score;
      out.push_back(std::move(hit));
      continue;
    }

    COBRA_ASSIGN_OR_RETURN(std::vector<int64_t> videos,
                           store.Traverse("plays_in", {player}));
    for (int64_t video : videos) {
      if (!indexed.count(video)) continue;
      const std::vector<SimilarShot>* neighbors = nullptr;
      if (has_similar) {
        auto it = similar.find(video);
        if (it == similar.end()) continue;
        neighbors = &it->second;
      }

      if (query.event.empty()) {
        // Similar-only content condition: every neighbor shot of a video
        // the player plays in is an answer scene.
        for (const SimilarShot& shot : *neighbors) {
          SceneHit hit;
          hit.player_oid = player;
          hit.player_name = name;
          hit.video_oid = video;
          hit.range = shot.range;
          hit.text_score = text_score;
          hit.similarity = shot.distance;
          out.push_back(std::move(hit));
        }
        continue;
      }

      COBRA_ASSIGN_OR_RETURN(std::vector<int64_t> roles,
                             store.Roles("plays_in", player, video));
      std::set<int64_t> role_set(roles.begin(), roles.end());
      COBRA_ASSIGN_OR_RETURN(
          std::vector<core::Scene> scenes,
          library.meta_index().FindScenes(query.event, video));
      for (const core::Scene& scene : scenes) {
        // A scene matches if it shows the player's court side, or if it is
        // court-level (player < 0: serves, rallies involve both players).
        if (scene.player >= 0 && !role_set.count(scene.player)) continue;
        // Event + similar: the scene must overlap a neighbor shot of the
        // same video; it scores the best (smallest) overlapping key.
        double similarity = -1.0;
        if (neighbors) {
          bool overlapped = false;
          for (const SimilarShot& shot : *neighbors) {
            if (!scene.range.Overlaps(shot.range)) continue;
            if (!overlapped || shot.distance < similarity) {
              similarity = shot.distance;
            }
            overlapped = true;
          }
          if (!overlapped) continue;
        }
        SceneHit hit;
        hit.player_oid = player;
        hit.player_name = name;
        hit.video_oid = video;
        hit.range = scene.range;
        hit.event = scene.event;
        hit.text_score = text_score;
        hit.similarity = similarity;
        out.push_back(std::move(hit));
      }
    }
  }
  // Total deterministic order: relevance first, then every remaining field
  // as a tie-break so equal-score hits never depend on traversal order.
  std::sort(out.begin(), out.end(), SceneHitLess);
  return out;
}

}  // namespace cobra::engine
