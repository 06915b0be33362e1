#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <tuple>

#include "core/tennis_fde.h"
#include "engine/digital_library.h"
#include "engine/query_language.h"
#include "media/tennis_synthesizer.h"
#include "webspace/site_synthesizer.h"

namespace cobra::engine {
namespace {

using storage::CompareOp;
using storage::Predicate;

/// A fully-populated library: synthesized site, interviews indexed, and
/// every match video rendered + indexed through the tennis FDE.
struct LibraryFixture {
  std::unique_ptr<DigitalLibrary> library;
  webspace::SynthesizedSite site_truth;  // ground truth (store moved out)
};

const LibraryFixture& SharedLibrary() {
  static const LibraryFixture* fixture = [] {
    webspace::SiteConfig site_config;
    site_config.num_players = 12;
    site_config.num_past_years = 3;
    site_config.videos_per_year = 1;
    site_config.seed = 77;
    site_config.ensure_answer = true;
    auto site = webspace::SiteSynthesizer::Generate(site_config).TakeValue();

    auto* out = new LibraryFixture();
    // Keep a copy of truth fields before moving the store.
    out->site_truth.player_oids = site.player_oids;
    out->site_truth.video_oids = site.video_oids;
    out->site_truth.interview_texts = site.interview_texts;
    out->site_truth.video_seeds = site.video_seeds;
    out->site_truth.champions = site.champions;
    out->site_truth.left_handed_female_champions =
        site.left_handed_female_champions;

    auto library = DigitalLibrary::Create(std::move(site.store)).TakeValue();
    for (const auto& [oid, text] : out->site_truth.interview_texts) {
      EXPECT_TRUE(library->AddInterview(oid, text).ok());
    }
    EXPECT_TRUE(library->FinalizeText().ok());

    // Render + index each match video (small, fast broadcasts).
    auto indexer = core::TennisVideoIndexer::Create().TakeValue();
    for (const auto& [video_oid, seed] : out->site_truth.video_seeds) {
      media::TennisSynthConfig config;
      config.width = 128;
      config.height = 96;
      config.num_points = 2;
      config.min_court_frames = 80;
      config.max_court_frames = 110;
      config.min_cutaway_frames = 12;
      config.max_cutaway_frames = 18;
      config.noise_sigma = 3.0;
      config.net_approach_prob = 1.0;
      config.seed = seed;
      auto broadcast =
          media::TennisBroadcastSynthesizer(config).Synthesize().TakeValue();
      auto desc = indexer->Index(*broadcast.video, video_oid, "match video");
      EXPECT_TRUE(desc.ok()) << desc.status().ToString();
      EXPECT_TRUE(library->AddVideoDescription(*desc).ok());
    }
    out->library = std::move(library);
    return out;
  }();
  return *fixture;
}

// ---------- DigitalLibrary ----------

TEST(DigitalLibraryTest, RejectsWrongSchema) {
  auto schema =
      webspace::ConceptSchema::Create({webspace::ClassDef{"X", {}}}, {})
          .TakeValue();
  auto store = webspace::WebspaceStore::Create(std::move(schema)).TakeValue();
  EXPECT_FALSE(DigitalLibrary::Create(std::move(store)).ok());

  // The tournament schema with one piece Search reads taken out: every
  // association, a redirected association, and Player.name.
  auto full = webspace::SiteSynthesizer::TournamentSchema().TakeValue();
  auto create = [](std::vector<webspace::ClassDef> classes,
                   std::vector<webspace::AssociationDef> assocs) {
    auto pruned = webspace::ConceptSchema::Create(std::move(classes),
                                                  std::move(assocs));
    EXPECT_TRUE(pruned.ok());
    auto store =
        webspace::WebspaceStore::Create(std::move(pruned).TakeValue())
            .TakeValue();
    return DigitalLibrary::Create(std::move(store));
  };
  ASSERT_TRUE(create(full.classes(), full.associations()).ok());
  for (const char* missing : {"won", "interviewed_in", "plays_in"}) {
    std::vector<webspace::AssociationDef> assocs;
    for (const auto& assoc : full.associations()) {
      if (assoc.name != missing) assocs.push_back(assoc);
    }
    auto library = create(full.classes(), assocs);
    ASSERT_FALSE(library.ok()) << missing;
    EXPECT_NE(library.status().ToString().find(missing), std::string::npos)
        << library.status().ToString();
  }
  std::vector<webspace::AssociationDef> redirected = full.associations();
  for (auto& assoc : redirected) {
    if (assoc.name == "won") assoc.to_class = "Video";
  }
  EXPECT_FALSE(create(full.classes(), redirected).ok());
  std::vector<webspace::ClassDef> nameless = full.classes();
  for (auto& cls : nameless) {
    if (cls.name != "Player") continue;
    std::erase_if(cls.attributes, [](const webspace::AttributeDef& attr) {
      return attr.name == "name";
    });
  }
  EXPECT_FALSE(create(nameless, full.associations()).ok());
}

TEST(DigitalLibraryTest, ConceptOnlyQuery) {
  const LibraryFixture& fixture = SharedLibrary();
  CombinedQuery query;
  query.player_predicates = {
      Predicate{"hand", CompareOp::kEq, std::string("left")},
      Predicate{"gender", CompareOp::kEq, std::string("female")}};
  query.require_champion = true;
  auto hits = fixture.library->Search(query).TakeValue();

  std::vector<int64_t> found;
  for (const SceneHit& hit : hits) found.push_back(hit.player_oid);
  std::sort(found.begin(), found.end());
  found.erase(std::unique(found.begin(), found.end()), found.end());
  EXPECT_EQ(found, fixture.site_truth.left_handed_female_champions);
  for (const SceneHit& hit : hits) {
    EXPECT_EQ(hit.video_oid, -1) << "no content part requested";
    EXPECT_FALSE(hit.player_name.empty());
  }
}

TEST(DigitalLibraryTest, MotivatingQueryReturnsScenes) {
  // "Video scenes of left-handed female players who have won the Australian
  //  Open in the past, in which they approach the net."
  const LibraryFixture& fixture = SharedLibrary();
  CombinedQuery query;
  query.player_predicates = {
      Predicate{"hand", CompareOp::kEq, std::string("left")},
      Predicate{"gender", CompareOp::kEq, std::string("female")}};
  query.require_champion = true;
  query.event = "net_play";
  auto hits = fixture.library->Search(query).TakeValue();

  std::set<int64_t> answer(fixture.site_truth.left_handed_female_champions.begin(),
                           fixture.site_truth.left_handed_female_champions.end());
  for (const SceneHit& hit : hits) {
    EXPECT_TRUE(answer.count(hit.player_oid))
        << "scene of a player outside the concept answer";
    EXPECT_GE(hit.video_oid, 0);
    EXPECT_FALSE(hit.range.Empty());
    EXPECT_EQ(hit.event, "net_play");
  }
  // Contract check: the engine must return exactly the scenes the
  // meta-index holds for the answer players' videos and court sides.
  size_t expected = 0;
  for (int64_t player : answer) {
    auto videos =
        fixture.library->store().Traverse("plays_in", {player}).TakeValue();
    for (int64_t video : videos) {
      for (int64_t role :
           fixture.library->store().Roles("plays_in", player, video).TakeValue()) {
        expected += fixture.library->meta_index()
                        .FindScenes("net_play", video, role)
                        .TakeValue()
                        .size();
      }
    }
  }
  EXPECT_EQ(hits.size(), expected);
}

TEST(DigitalLibraryTest, SearchOrderIsDeterministicAndTotal) {
  // The hit order is part of the API contract: text score descending, then
  // video id, scene start, scene end, player oid, event. Equal-score hits
  // must therefore never depend on internal traversal order.
  const LibraryFixture& fixture = SharedLibrary();
  CombinedQuery query;
  query.require_champion = true;
  query.event = "net_play";
  auto hits = fixture.library->Search(query).TakeValue();
  ASSERT_FALSE(hits.empty());
  for (size_t i = 1; i < hits.size(); ++i) {
    const SceneHit& a = hits[i - 1];
    const SceneHit& b = hits[i];
    auto key = [](const SceneHit& h) {
      return std::make_tuple(-h.text_score, h.video_oid, h.range.begin,
                             h.range.end, h.player_oid, h.event);
    };
    EXPECT_LT(key(a), key(b)) << "hits " << i - 1 << "/" << i
                              << " out of order or duplicated";
  }
  // Re-running the identical query reproduces the identical order.
  auto again = fixture.library->Search(query).TakeValue();
  ASSERT_EQ(again.size(), hits.size());
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(again[i].player_oid, hits[i].player_oid) << i;
    EXPECT_EQ(again[i].video_oid, hits[i].video_oid) << i;
    EXPECT_EQ(again[i].range.begin, hits[i].range.begin) << i;
  }
}

TEST(DigitalLibraryTest, SearchReportsTextStats) {
  const LibraryFixture& fixture = SharedLibrary();
  CombinedQuery query;
  query.text = "champion title";
  text::SearchStats stats;
  ASSERT_TRUE(fixture.library->Search(query, &stats).ok());
  EXPECT_GT(stats.postings_scanned, 0);
  EXPECT_GT(stats.terms_evaluated, 0);

  // No text condition -> the stats out-param is zeroed, not stale.
  CombinedQuery concept_only;
  concept_only.require_champion = true;
  ASSERT_TRUE(fixture.library->Search(concept_only, &stats).ok());
  EXPECT_EQ(stats.postings_scanned, 0);
  EXPECT_EQ(stats.terms_evaluated, 0);
}

TEST(DigitalLibraryTest, TextConditionFilters) {
  const LibraryFixture& fixture = SharedLibrary();
  CombinedQuery query;
  query.text = "champion title";
  query.text_top_k = 50;
  auto hits = fixture.library->Search(query).TakeValue();
  EXPECT_FALSE(hits.empty());
  for (const SceneHit& hit : hits) EXPECT_GT(hit.text_score, 0.0);
}

TEST(DigitalLibraryTest, KeywordBaselineHasFalsePositives) {
  // The paper's §2 point: keyword search sees championship vocabulary in
  // non-champions' interviews. The conceptual query does not.
  const LibraryFixture& fixture = SharedLibrary();
  auto keyword_hits =
      fixture.library->SearchKeywordOnly("champion title", 50).TakeValue();
  std::set<int64_t> champions(fixture.site_truth.champions.begin(),
                              fixture.site_truth.champions.end());
  size_t false_positives = 0;
  for (const SceneHit& hit : keyword_hits) {
    if (!champions.count(hit.player_oid)) ++false_positives;
  }
  EXPECT_GT(false_positives, 0u)
      << "the synthesized site should contain the keyword trap";

  CombinedQuery query;
  query.require_champion = true;
  auto concept_hits = fixture.library->Search(query).TakeValue();
  for (const SceneHit& hit : concept_hits) {
    EXPECT_TRUE(champions.count(hit.player_oid));
  }
}

TEST(DigitalLibraryTest, WonYearFilter) {
  const LibraryFixture& fixture = SharedLibrary();
  CombinedQuery query;
  query.require_champion = true;
  query.won_year = 1996;
  auto hits = fixture.library->Search(query).TakeValue();
  // At most one champion per year.
  std::set<int64_t> players;
  for (const SceneHit& hit : hits) players.insert(hit.player_oid);
  EXPECT_LE(players.size(), 1u);
}

TEST(DigitalLibraryTest, TextBeforeFinalizeFails) {
  webspace::SiteConfig config;
  config.num_players = 4;
  config.num_past_years = 1;
  auto site = webspace::SiteSynthesizer::Generate(config).TakeValue();
  auto library = DigitalLibrary::Create(std::move(site.store)).TakeValue();
  CombinedQuery query;
  query.text = "anything";
  EXPECT_FALSE(library->Search(query).ok());
}

TEST(DigitalLibraryTest, EventStatistics) {
  const LibraryFixture& fixture = SharedLibrary();
  auto stats = fixture.library->EventStatistics().TakeValue();
  ASSERT_FALSE(stats.empty());
  int64_t serves = 0, rallies = 0;
  for (const auto& row : stats) {
    if (std::get<std::string>(row.key) == "serve") serves = row.count;
    if (std::get<std::string>(row.key) == "rally") rallies = row.count;
  }
  // 2 points per video, 3 videos.
  EXPECT_EQ(serves, 6);
  EXPECT_EQ(rallies, 6);
}

TEST(DigitalLibraryTest, ScenesPerPlayer) {
  const LibraryFixture& fixture = SharedLibrary();
  auto per_player = fixture.library->ScenesPerPlayer("net_play").TakeValue();
  // Each video's players are the only candidates; counts must be sorted
  // descending and positive.
  for (size_t i = 0; i < per_player.size(); ++i) {
    EXPECT_GT(per_player[i].second, 0);
    if (i > 0) {
      EXPECT_LE(per_player[i].second, per_player[i - 1].second);
    }
  }
  // Court-level serves: every video participant gets its serves counted.
  auto serves = fixture.library->ScenesPerPlayer("serve").TakeValue();
  EXPECT_FALSE(serves.empty());
}

// ---------- Query language ----------

TEST(QueryLanguageTest, ParsesMotivatingQuery) {
  auto query = ParseQuery(
      "player.hand = left AND player.gender = female AND won = any AND "
      "event = net_play AND text ~ \"approaching the net\"");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_EQ(query->player_predicates.size(), 2u);
  EXPECT_EQ(query->player_predicates[0].column, "hand");
  EXPECT_EQ(std::get<std::string>(query->player_predicates[0].literal), "left");
  EXPECT_TRUE(query->require_champion);
  EXPECT_EQ(query->won_year, -1);
  EXPECT_EQ(query->event, "net_play");
  EXPECT_EQ(query->text, "approaching the net");
}

TEST(QueryLanguageTest, NumericPredicatesAndYear) {
  auto query =
      ParseQuery("player.ranking <= 5 AND won.year = 1999").TakeValue();
  ASSERT_EQ(query.player_predicates.size(), 1u);
  EXPECT_EQ(query.player_predicates[0].op, CompareOp::kLe);
  EXPECT_EQ(std::get<int64_t>(query.player_predicates[0].literal), 5);
  EXPECT_TRUE(query.require_champion);
  EXPECT_EQ(query.won_year, 1999);
}

TEST(QueryLanguageTest, CaseInsensitiveAnd) {
  auto query = ParseQuery("player.hand = left and event = rally").TakeValue();
  EXPECT_EQ(query.player_predicates.size(), 1u);
  EXPECT_EQ(query.event, "rally");
}

TEST(QueryLanguageTest, Errors) {
  EXPECT_FALSE(ParseQuery("").ok());
  EXPECT_FALSE(ParseQuery("player.hand left").ok());     // no operator
  EXPECT_FALSE(ParseQuery("text = volley").ok());        // text needs ~
  EXPECT_FALSE(ParseQuery("event ~ net_play").ok());     // event needs =
  EXPECT_FALSE(ParseQuery("won = 1999").ok());           // use won.year
  EXPECT_FALSE(ParseQuery("won.year = soon").ok());
  EXPECT_FALSE(ParseQuery("galaxy.size = big").ok());    // unknown subject
  EXPECT_FALSE(ParseQuery("player.hand = left AND").ok());
  EXPECT_FALSE(ParseQuery("player.hand ~ left").ok());
  // Integer literals outside int64 are errors, never wrapped values.
  EXPECT_TRUE(ParseQuery("player.ranking <= 99999999999999999999")
                  .status()
                  .IsParseError());
  EXPECT_TRUE(
      ParseQuery("won.year = -99999999999999999999").status().IsParseError());
}

TEST(QueryLanguageTest, RoundTripFormat) {
  auto query = ParseQuery(
                   "player.hand = left AND won.year = 1999 AND "
                   "event = net_play AND text ~ \"volley\"")
                   .TakeValue();
  std::string formatted = FormatQuery(query);
  auto reparsed = ParseQuery(formatted);
  ASSERT_TRUE(reparsed.ok()) << formatted;
  EXPECT_EQ(reparsed->event, query.event);
  EXPECT_EQ(reparsed->won_year, query.won_year);
  EXPECT_EQ(reparsed->text, query.text);
  EXPECT_EQ(reparsed->player_predicates.size(), query.player_predicates.size());
}

TEST(QueryLanguageTest, ParsedQueryRunsEndToEnd) {
  const LibraryFixture& fixture = SharedLibrary();
  auto query = ParseQuery("won = any AND event = serve").TakeValue();
  auto hits = fixture.library->Search(query).TakeValue();
  for (const SceneHit& hit : hits) {
    EXPECT_EQ(hit.event, "serve");
  }
}

}  // namespace
}  // namespace cobra::engine
