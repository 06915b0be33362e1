#include "engine/planner/planner.h"

#include <algorithm>
#include <limits>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>

#include "storage/stats.h"
#include "text/tokenizer.h"
#include "util/strings.h"

namespace cobra::engine::planner {
namespace {

using storage::Predicate;
using storage::Table;
using webspace::TraversalStrategy;
using webspace::WebspaceStore;

/// One attribute predicate with its selectivity estimate, in execution
/// order after the cost-based sort.
struct RankedPred {
  size_t index = 0;        ///< position in query.player_predicates
  double fraction = 1.0;   ///< estimated matching fraction
  bool provably_empty = false;
};

const char* StrategyName(TraversalStrategy s) {
  return s == TraversalStrategy::kScan ? "scan" : "walk";
}

/// Maps ascending player oids to ascending class-table rows. Oids are
/// assigned in insertion order, so row order follows oid order; non-player
/// oids cannot appear here (the schema types every association end).
std::vector<int64_t> OidsToRows(const WebspaceStore& store,
                                const std::vector<int64_t>& oids) {
  std::vector<int64_t> rows;
  rows.reserve(oids.size());
  for (int64_t oid : oids) {
    const int64_t row = store.RowOf("Player", oid);
    if (row >= 0) rows.push_back(row);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::vector<int64_t> RowsToOids(const Table& players, const std::vector<int64_t>& rows) {
  const std::vector<int64_t>& oids = players.IntColumn(0);
  std::vector<int64_t> out;
  out.reserve(rows.size());
  for (int64_t row : rows) out.push_back(oids[static_cast<size_t>(row)]);
  return out;
}

/// Keeps the first `n` hits pushed under SceneHitLess (every hit when
/// n == 0): a max-heap whose front is the current n-th hit. Hits that rank
/// equal are identical in every field, so which copy survives a tie cannot
/// show.
class TopHits {
 public:
  explicit TopHits(size_t n) : n_(n) {}

  /// True once `n` hits are held; Last() is then the n-th.
  bool Full() const { return n_ > 0 && heap_.size() == n_; }
  const SceneHit& Last() const { return heap_.front(); }

  void Push(SceneHit hit) {
    if (n_ == 0) {
      heap_.push_back(std::move(hit));
    } else if (heap_.size() < n_) {
      heap_.push_back(std::move(hit));
      std::push_heap(heap_.begin(), heap_.end(), SceneHitLess);
    } else if (SceneHitLess(hit, heap_.front())) {
      std::pop_heap(heap_.begin(), heap_.end(), SceneHitLess);
      heap_.back() = std::move(hit);
      std::push_heap(heap_.begin(), heap_.end(), SceneHitLess);
    }
  }

  /// The kept hits in SceneHitLess order.
  std::vector<SceneHit> Take() {
    std::sort(heap_.begin(), heap_.end(), SceneHitLess);
    return std::move(heap_);
  }

 private:
  size_t n_;
  std::vector<SceneHit> heap_;
};

/// One (player, indexed video) pair of the content stage. Its bound — the
/// player's text score, the smallest neighbor-shot distance in the video
/// (-1 without a similar_to condition), the video, and -inf for range and
/// player — ranks at or before every hit the pair can produce under
/// SceneHitLess: those hits share the score and video, and carry a
/// distance no smaller than the video's smallest.
struct ContentPair {
  double score = 0.0;
  double distance = -1.0;
  int64_t video = 0;
  int64_t player = 0;
  const std::vector<SimilarShot>* neighbors = nullptr;  ///< similar_to only

  SceneHit Bound() const {
    constexpr int64_t kLow = std::numeric_limits<int64_t>::min();
    SceneHit bound;
    bound.text_score = score;
    bound.similarity = distance;
    bound.video_oid = video;
    bound.range = {kLow, kLow};
    bound.player_oid = kLow;
    return bound;
  }
};

/// Bound order (SceneHitLess over Bound()), then player for determinism.
bool PairBefore(const ContentPair& a, const ContentPair& b) {
  if (a.score != b.score) return a.score > b.score;
  if (a.distance != b.distance) return a.distance < b.distance;
  if (a.video != b.video) return a.video < b.video;
  return a.player < b.player;
}

Result<std::vector<SceneHit>> SearchPlannedImpl(const DigitalLibrary& library,
                                                const SearchRequest& request,
                                                text::SearchStats* stats,
                                                PlanExplain& ex) {
  const CombinedQuery& query = request.query;
  const std::map<int64_t, double>* text_seed = request.text_seed;
  const SimilarSeed* similar_seed = request.similar_seed;
  const WebspaceStore& store = library.store();
  const text::InvertedIndex& interviews = library.interviews();
  const core::MetaIndex& meta = library.meta_index();
  const std::vector<int64_t>& indexed_videos = library.indexed_videos();
  const similarity::SignatureIndex& sig_index = library.signatures();

  if (stats) *stats = text::SearchStats{};

  const bool has_champ = query.require_champion || query.won_year >= 0;
  const bool has_text = !query.text.empty();
  const bool has_event = !query.event.empty();
  const bool has_similar = query.similar_video >= 0;
  // A frontend seed replaces the whole text or similar stage.
  const bool seeded = text_seed != nullptr && has_text;
  const bool similar_seeded = similar_seed != nullptr && has_similar;

  // --- Upfront validation -------------------------------------------------
  // Every error the query can raise is raised here, before any stage runs:
  // player predicates, the won-year predicate, the text condition, then the
  // similar_to probe (skipped when seeded: the frontend resolved it
  // globally). Create checked the schema the stages read, so no later
  // step can fail and every short-circuit below is exact.
  COBRA_RETURN_NOT_OK(library.ValidateQuery(query));
  if (has_similar && !similar_seeded) {
    COBRA_RETURN_NOT_OK(ResolveProbeSignature(sig_index, query).status());
  }
  COBRA_ASSIGN_OR_RETURN(const Table* players_table, store.ClassTable("Player"));
  const Predicate year_pred{"year", storage::CompareOp::kEq, query.won_year};

  auto finish_empty = [&](const std::string& why) {
    ex.short_circuited = true;
    ex.steps.push_back({"short_circuit: " + why, 0.0, 0});
    return std::vector<SceneHit>{};
  };

  // --- Statistics ---------------------------------------------------------
  const int64_t total_players = players_table->num_rows();

  std::vector<RankedPred> ranked;
  ranked.reserve(query.player_predicates.size());
  bool pred_empty = false;
  double concept_fraction = 1.0;
  for (size_t i = 0; i < query.player_predicates.size(); ++i) {
    COBRA_ASSIGN_OR_RETURN(
        storage::SelectivityEstimate est,
        storage::EstimateSelectivity(*players_table, query.player_predicates[i]));
    ranked.push_back({i, est.fraction, est.provably_empty});
    pred_empty = pred_empty || est.provably_empty;
    concept_fraction *= est.fraction;
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const RankedPred& a, const RankedPred& b) {
                     return a.fraction < b.fraction;
                   });

  bool champ_empty = false;
  double est_champions = 0.0;
  if (has_champ) {
    COBRA_ASSIGN_OR_RETURN(const Table* tournaments_table,
                           store.ClassTable("Tournament"));
    COBRA_ASSIGN_OR_RETURN(const Table* won_table,
                           store.AssociationTable("won"));
    const int64_t won_rows = won_table->num_rows();
    if (won_rows == 0) {
      champ_empty = true;
    } else {
      COBRA_ASSIGN_OR_RETURN(int64_t winner_ndv, won_table->Ndv(0));
      est_champions = static_cast<double>(winner_ndv);
      if (query.won_year >= 0) {
        COBRA_ASSIGN_OR_RETURN(
            storage::SelectivityEstimate year_est,
            storage::EstimateSelectivity(*tournaments_table, year_pred));
        champ_empty = champ_empty || year_est.provably_empty;
        COBRA_ASSIGN_OR_RETURN(int64_t tournament_ndv, won_table->Ndv(1));
        const double winners_per_tournament =
            won_rows / std::max<double>(1.0, static_cast<double>(tournament_ndv));
        const double est_tournaments =
            year_est.fraction * tournaments_table->num_rows();
        est_champions = std::min(est_champions,
                                 est_tournaments * winners_per_tournament);
      }
    }
  }

  double sum_df = 0.0;
  if (has_text) {
    for (const std::string& term : text::Analyze(query.text)) {
      sum_df += static_cast<double>(interviews.DocumentFrequency(term));
    }
  }

  // The events table's fixed layout (core::MetaIndex): name is column 1.
  const Table& events = meta.events();
  constexpr size_t kEventNameCol = 1;
  int32_t event_code = -1;
  bool event_provably_empty = false;
  if (has_event) {
    if (indexed_videos.empty()) {
      event_provably_empty = true;
    } else {
      event_code = events.DictCode(kEventNameCol, query.event);
      int64_t event_rows = 0;
      if (event_code >= 0) {
        COBRA_ASSIGN_OR_RETURN(event_rows,
                               events.CodeCount(kEventNameCol, event_code));
      }
      event_provably_empty = event_rows == 0;
    }
  }

  // --- Provably-empty short-circuits --------------------------------------
  if (total_players == 0) return finish_empty("player table empty");
  if (pred_empty) return finish_empty("player predicate provably empty");
  if (champ_empty) return finish_empty("champion set provably empty");
  if (event_provably_empty) {
    return finish_empty(indexed_videos.empty() ? "no indexed videos"
                                               : "event name unknown");
  }

  // --- Plan-shape decisions ------------------------------------------------
  const double champ_cap =
      has_champ ? std::min(1.0, est_champions /
                                    std::max<double>(1.0, total_players))
                : 1.0;
  const double est_concept = total_players * concept_fraction * champ_cap;
  const size_t n_preds = ranked.size();

  // Champion-first: walking the winners back through "won" costs one probe
  // plus the fan-out per tournament; seeding the refine chain from that set
  // beats scanning the player table when the winners set is much smaller.
  ex.champion_first =
      has_champ && !champ_empty &&
      est_champions * 2.0 * (n_preds + 1.0) < static_cast<double>(total_players);

  // Accept-filtered DAAT is exact only when the top-N bound cannot truncate:
  // text_top_k at least the number of scoring documents (sum of the query
  // terms' document frequencies bounds it from above). It pays when the
  // concept side prunes candidates, making whole posting blocks skippable.
  const bool filter_eligible =
      has_text && static_cast<double>(query.text_top_k) >= sum_df;
  const bool use_filtered = !seeded && filter_eligible &&
                            (n_preds > 0 || has_champ) &&
                            est_concept <= 0.5 * std::max<int64_t>(1, total_players);

  // Text-first: when the concept side is unselective and the text top-k is
  // small, refining the <= top_k text players (hash probes into the player
  // table) beats the concept scan.
  const double concept_cost =
      ex.champion_first ? est_champions * 2.0 * (n_preds + 1.0)
                        : static_cast<double>(total_players);
  const double est_text_players =
      std::min<double>(static_cast<double>(total_players),
                       static_cast<double>(query.text_top_k));
  ex.text_first =
      has_text && !use_filtered &&
      est_text_players * 16.0 * (n_preds + (has_champ ? 1.0 : 0.0) + 1.0) <
          concept_cost;

  // --- Champion set (shared by both concept orders) ------------------------
  std::vector<int64_t> champions;
  bool champions_computed = false;
  auto compute_champions = [&]() -> Status {
    if (!has_champ || champions_computed) return Status::OK();
    champions_computed = true;
    webspace::ClassSelection tournaments{"Tournament", {}};
    if (query.won_year >= 0) tournaments.predicates.push_back(year_pred);
    COBRA_ASSIGN_OR_RETURN(std::vector<int64_t> tournament_oids,
                           webspace::SelectObjects(store, tournaments));
    TraversalStrategy chosen = TraversalStrategy::kWalk;
    COBRA_ASSIGN_OR_RETURN(
        champions,
        store.TraverseReverse("won", tournament_oids, /*role=*/-1,
                              TraversalStrategy::kAuto, &chosen));
    ex.steps.push_back({StringFormat("champions[%s]", StrategyName(chosen)),
                        est_champions,
                        static_cast<int64_t>(champions.size())});
    return Status::OK();
  };

  // Refines player-table rows through the attribute predicates in
  // cost-sorted order, recording one explain step per predicate.
  auto refine_rows = [&](std::vector<int64_t> rows,
                         double est_in) -> Result<std::vector<int64_t>> {
    for (const RankedPred& rp : ranked) {
      est_in *= rp.fraction;
      COBRA_ASSIGN_OR_RETURN(
          rows, storage::Refine(*players_table,
                                query.player_predicates[rp.index], rows));
      ex.steps.push_back(
          {"predicate " + query.player_predicates[rp.index].column, est_in,
           static_cast<int64_t>(rows.size())});
    }
    return rows;
  };

  // --- Concept + text execution -------------------------------------------
  std::vector<int64_t> players;        // surviving oids, ascending
  std::map<int64_t, double> text_scores;

  auto collect_text_scores =
      [&](const std::vector<text::SearchHit>& hits) -> Status {
    for (const text::SearchHit& hit : hits) {
      COBRA_ASSIGN_OR_RETURN(
          std::vector<int64_t> hit_players,
          store.TraverseReverse("interviewed_in", {hit.doc_id}));
      for (int64_t p : hit_players) {
        auto [it, inserted] = text_scores.emplace(p, hit.score);
        if (!inserted) it->second = std::max(it->second, hit.score);
      }
    }
    return Status::OK();
  };

  if (ex.text_first) {
    if (seeded) {
      text_scores = *text_seed;
      ex.text_seeded = true;
    } else {
      COBRA_ASSIGN_OR_RETURN(
          std::vector<text::SearchHit> hits,
          interviews.SearchTopN(query.text, query.text_top_k, stats));
      COBRA_RETURN_NOT_OK(collect_text_scores(hits));
    }
    std::vector<int64_t> candidates;
    candidates.reserve(text_scores.size());
    for (const auto& [oid, score] : text_scores) candidates.push_back(oid);
    ex.steps.push_back({seeded ? "text:frontend_seed" : "text:seed",
                        est_text_players,
                        static_cast<int64_t>(candidates.size())});
    COBRA_ASSIGN_OR_RETURN(
        std::vector<int64_t> rows,
        refine_rows(OidsToRows(store, candidates),
                    static_cast<double>(candidates.size())));
    players = RowsToOids(*players_table, rows);
    if (has_champ) {
      COBRA_RETURN_NOT_OK(compute_champions());
      std::vector<int64_t> kept;
      for (int64_t p : players) {
        if (std::binary_search(champions.begin(), champions.end(), p)) {
          kept.push_back(p);
        }
      }
      players = std::move(kept);
      ex.steps.push_back({"champion filter", est_concept,
                          static_cast<int64_t>(players.size())});
    }
  } else {
    if (ex.champion_first) {
      COBRA_RETURN_NOT_OK(compute_champions());
      COBRA_ASSIGN_OR_RETURN(
          std::vector<int64_t> rows,
          refine_rows(OidsToRows(store, champions),
                      static_cast<double>(champions.size())));
      players = RowsToOids(*players_table, rows);
    } else {
      std::vector<int64_t> rows;
      if (n_preds == 0) {
        rows.reserve(static_cast<size_t>(total_players));
        for (int64_t r = 0; r < total_players; ++r) rows.push_back(r);
        COBRA_ASSIGN_OR_RETURN(rows, refine_rows(std::move(rows),
                                                 static_cast<double>(total_players)));
      } else {
        // First (most selective) predicate as a zone-map-skipping full
        // Select, the rest as refines over the shrinking selection.
        COBRA_ASSIGN_OR_RETURN(
            rows, storage::Select(*players_table,
                                  query.player_predicates[ranked[0].index]));
        ex.steps.push_back(
            {"predicate " + query.player_predicates[ranked[0].index].column,
             ranked[0].fraction * total_players,
             static_cast<int64_t>(rows.size())});
        double est_in = ranked[0].fraction * total_players;
        for (size_t k = 1; k < ranked.size(); ++k) {
          est_in *= ranked[k].fraction;
          COBRA_ASSIGN_OR_RETURN(
              rows,
              storage::Refine(*players_table,
                              query.player_predicates[ranked[k].index], rows));
          ex.steps.push_back(
              {"predicate " + query.player_predicates[ranked[k].index].column,
               est_in, static_cast<int64_t>(rows.size())});
        }
      }
      players = RowsToOids(*players_table, rows);
      if (has_champ) {
        COBRA_RETURN_NOT_OK(compute_champions());
        std::vector<int64_t> kept;
        for (int64_t p : players) {
          if (std::binary_search(champions.begin(), champions.end(), p)) {
            kept.push_back(p);
          }
        }
        players = std::move(kept);
        ex.steps.push_back({"champion filter", est_concept,
                            static_cast<int64_t>(players.size())});
      }
    }

    if (players.empty()) return finish_empty("concept stage empty");

    if (has_text && seeded) {
      text_scores = *text_seed;
      ex.text_seeded = true;
      ex.steps.push_back({"text:frontend_seed", est_text_players,
                          static_cast<int64_t>(text_scores.size())});
      std::vector<int64_t> kept;
      for (int64_t p : players) {
        if (text_scores.count(p)) kept.push_back(p);
      }
      players = std::move(kept);
    } else if (has_text) {
      std::vector<text::SearchHit> hits;
      if (use_filtered) {
        COBRA_ASSIGN_OR_RETURN(std::vector<int64_t> accept,
                               store.Traverse("interviewed_in", players));
        COBRA_ASSIGN_OR_RETURN(
            hits, interviews.SearchTopNFiltered(query.text, query.text_top_k,
                                                accept, stats));
        ex.text_filter_pushed = true;
        ex.steps.push_back({StringFormat("text:filtered(accept=%zu)",
                                         accept.size()),
                            sum_df, static_cast<int64_t>(hits.size())});
      } else {
        COBRA_ASSIGN_OR_RETURN(
            hits, interviews.SearchTopN(query.text, query.text_top_k, stats));
        ex.steps.push_back({"text:global", est_text_players,
                            static_cast<int64_t>(hits.size())});
      }
      COBRA_RETURN_NOT_OK(collect_text_scores(hits));
      std::vector<int64_t> kept;
      for (int64_t p : players) {
        if (text_scores.count(p)) kept.push_back(p);
      }
      players = std::move(kept);
    }
  }

  // --- Similar stage -------------------------------------------------------
  SimilarNeighbors similar;
  if (has_similar) {
    const double est_k =
        static_cast<double>(EffectiveSimilarK(sig_index, query));
    if (similar_seeded) {
      similar = similar_seed->neighbors;
      ex.similar_seeded = true;
      int64_t n_neighbors = 0;
      for (const auto& [video, shots] : similar) {
        n_neighbors += static_cast<int64_t>(shots.size());
      }
      ex.steps.push_back({"similar:frontend_seed", est_k, n_neighbors});
    } else {
      similarity::SimilaritySearchStats sstats;
      COBRA_ASSIGN_OR_RETURN(similar, SimilarStage(sig_index, query, &sstats));
      int64_t n_neighbors = 0;
      for (const auto& [video, shots] : similar) {
        n_neighbors += static_cast<int64_t>(shots.size());
      }
      ex.steps.push_back(
          {StringFormat("similar:%s(probes=%zu)",
                        sstats.exhaustive_fallback ? "exhaustive" : "ann",
                        sstats.probes),
           est_k, n_neighbors});
    }
  }

  ex.steps.push_back({"players", est_concept,
                      static_cast<int64_t>(players.size())});
  if (players.empty()) {
    ex.short_circuited = true;
    return std::vector<SceneHit>{};
  }

  // --- Answer stage -------------------------------------------------------
  // Every call below that returns a Status can only fail on a schema gap
  // (an unknown association, class or attribute) that Create rules out, so
  // the early stop skips no call that could fail.
  TopHits best(request.top_n);
  auto score_of = [&](int64_t player) {
    auto it = text_scores.find(player);
    return it == text_scores.end() ? 0.0 : it->second;
  };

  if (!has_event && !has_similar) {
    for (int64_t player : players) {
      SceneHit hit;
      hit.player_oid = player;
      hit.text_score = score_of(player);
      best.Push(std::move(hit));
    }
  } else {
    std::vector<int64_t> indexed = indexed_videos;
    std::sort(indexed.begin(), indexed.end());
    indexed.erase(std::unique(indexed.begin(), indexed.end()), indexed.end());

    // Every (player, indexed video) pair that can hold a hit: the video
    // has event rows (event queries) and a neighbor shot (similar_to).
    std::vector<ContentPair> pairs;
    for (int64_t player : players) {
      const double score = score_of(player);
      COBRA_ASSIGN_OR_RETURN(std::vector<int64_t> videos,
                             store.Traverse("plays_in", {player}));
      for (int64_t video : videos) {
        if (!std::binary_search(indexed.begin(), indexed.end(), video)) {
          continue;
        }
        if (has_event && meta.EventRows(video).empty()) continue;
        ContentPair pair{score, -1.0, video, player, nullptr};
        if (has_similar) {
          auto it = similar.find(video);
          if (it == similar.end() || it->second.empty()) continue;
          pair.neighbors = &it->second;
          pair.distance = it->second.front().distance;
          for (const SimilarShot& shot : it->second) {
            pair.distance = std::min(pair.distance, shot.distance);
          }
        }
        pairs.push_back(pair);
      }
    }
    std::sort(pairs.begin(), pairs.end(), PairBefore);

    // Best (smallest) distance key among neighbor shots overlapping
    // `range`; false when none overlaps (the scene is not an answer).
    auto best_overlap = [](const std::vector<SimilarShot>& shots,
                           const FrameInterval& range, double* best_key) {
      bool overlapped = false;
      for (const SimilarShot& shot : shots) {
        if (!range.Overlaps(shot.range)) continue;
        if (!overlapped || shot.distance < *best_key) *best_key = shot.distance;
        overlapped = true;
      }
      return overlapped;
    };
    const std::vector<int32_t>& event_codes = events.StringCodes(kEventNameCol);
    const std::vector<int64_t>& actors = events.IntColumn(2);
    const std::vector<int64_t>& begins = events.IntColumn(3);
    const std::vector<int64_t>& ends = events.IntColumn(4);

    size_t visited = 0;
    for (const ContentPair& pair : pairs) {
      // Pairs come in bound order: once one bound ranks strictly after the
      // N-th hit, no hit of this or any later pair can enter the top-N.
      if (best.Full() && SceneHitLess(best.Last(), pair.Bound())) break;
      ++visited;
      SceneHit hit;
      hit.player_oid = pair.player;
      hit.video_oid = pair.video;
      hit.text_score = pair.score;
      if (!has_event) {
        // Similar-only content condition: every neighbor shot of an
        // indexed video the player plays in is an answer scene.
        for (const SimilarShot& shot : *pair.neighbors) {
          hit.range = shot.range;
          hit.similarity = shot.distance;
          best.Push(hit);
        }
        continue;
      }
      COBRA_ASSIGN_OR_RETURN(std::vector<int64_t> roles,
                             store.Roles("plays_in", pair.player, pair.video));
      for (int64_t row : meta.EventRows(pair.video)) {
        const size_t r = static_cast<size_t>(row);
        if (event_codes[r] != event_code) continue;
        // Court-level events (actor -1) belong to every player of the video.
        if (actors[r] >= 0 &&
            std::find(roles.begin(), roles.end(), actors[r]) == roles.end()) {
          continue;
        }
        hit.range = FrameInterval{begins[r], ends[r]};
        hit.similarity = -1.0;
        if (pair.neighbors != nullptr &&
            !best_overlap(*pair.neighbors, hit.range, &hit.similarity)) {
          continue;
        }
        best.Push(hit);
      }
    }
    ex.steps.push_back(
        {StringFormat("%s:pairs(visited=%zu)", has_event ? "events" : "similar",
                      visited),
         static_cast<double>(pairs.size()), static_cast<int64_t>(pairs.size())});
  }

  // Strings are materialized for the kept hits only: one name lookup per
  // distinct player, and the event name every event hit shares.
  std::vector<SceneHit> out = best.Take();
  std::unordered_map<int64_t, std::string> player_names;
  for (SceneHit& hit : out) {
    auto it = player_names.find(hit.player_oid);
    if (it == player_names.end()) {
      COBRA_ASSIGN_OR_RETURN(storage::Value name,
                             store.GetAttribute("Player", hit.player_oid, "name"));
      it = player_names
               .emplace(hit.player_oid, std::get<std::string>(std::move(name)))
               .first;
    }
    hit.player_name = it->second;
    if (has_event) hit.event = query.event;
  }
  ex.steps.push_back({"hits", static_cast<double>(out.size()),
                      static_cast<int64_t>(out.size())});
  return out;
}

}  // namespace

Result<std::vector<SceneHit>> SearchPlanned(const DigitalLibrary& library,
                                            const SearchRequest& request,
                                            text::SearchStats* stats,
                                            PlanExplain* explain) {
  PlanExplain ex;
  Result<std::vector<SceneHit>> result =
      SearchPlannedImpl(library, request, stats, ex);
  if (explain != nullptr) *explain = std::move(ex);
  return result;
}

}  // namespace cobra::engine::planner
