#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "util/rng.h"
#include "webspace/query.h"
#include "webspace/schema.h"
#include "webspace/site_synthesizer.h"
#include "webspace/store.h"

namespace cobra::webspace {
namespace {

using storage::CompareOp;
using storage::DataType;
using storage::Predicate;

Result<ConceptSchema> TinySchema() {
  return ConceptSchema::Create(
      {ClassDef{"A", {{"x", DataType::kInt64}}},
       ClassDef{"B", {{"label", DataType::kString}}}},
      {AssociationDef{"ab", "A", "B"}});
}

// ---------- Schema ----------

TEST(SchemaTest, Validation) {
  EXPECT_TRUE(TinySchema().ok());
  // Duplicate class.
  EXPECT_FALSE(ConceptSchema::Create({ClassDef{"A", {}}, ClassDef{"A", {}}}, {})
                   .ok());
  // Duplicate attribute.
  EXPECT_FALSE(ConceptSchema::Create(
                   {ClassDef{"A",
                             {{"x", DataType::kInt64}, {"x", DataType::kInt64}}}},
                   {})
                   .ok());
  // Attribute shadowing the implicit oid.
  EXPECT_FALSE(
      ConceptSchema::Create({ClassDef{"A", {{"oid", DataType::kInt64}}}}, {})
          .ok());
  // Association to unknown class.
  EXPECT_FALSE(ConceptSchema::Create({ClassDef{"A", {}}},
                                     {AssociationDef{"ax", "A", "X"}})
                   .ok());
  // Duplicate association.
  EXPECT_FALSE(ConceptSchema::Create(
                   {ClassDef{"A", {}}, ClassDef{"B", {}}},
                   {AssociationDef{"ab", "A", "B"}, AssociationDef{"ab", "B", "A"}})
                   .ok());
}

TEST(SchemaTest, Lookup) {
  auto schema = TinySchema().TakeValue();
  EXPECT_TRUE(schema.HasClass("A"));
  EXPECT_FALSE(schema.HasClass("Z"));
  EXPECT_TRUE(schema.FindClass("B").ok());
  EXPECT_TRUE(schema.FindClass("Z").status().IsNotFound());
  EXPECT_TRUE(schema.FindAssociation("ab").ok());
  EXPECT_TRUE(schema.FindAssociation("zz").status().IsNotFound());
}

// ---------- Store ----------

TEST(StoreTest, InsertLinkTraverse) {
  auto store = WebspaceStore::Create(TinySchema().TakeValue()).TakeValue();
  int64_t a1 = store.Insert("A", {int64_t{10}}).TakeValue();
  int64_t a2 = store.Insert("A", {int64_t{20}}).TakeValue();
  int64_t b1 = store.Insert("B", {std::string("one")}).TakeValue();
  int64_t b2 = store.Insert("B", {std::string("two")}).TakeValue();
  EXPECT_NE(a1, a2);

  ASSERT_TRUE(store.Link("ab", a1, b1, 0).ok());
  ASSERT_TRUE(store.Link("ab", a1, b2, 1).ok());
  ASSERT_TRUE(store.Link("ab", a2, b2, 0).ok());

  EXPECT_EQ(store.Traverse("ab", {a1}).TakeValue(),
            (std::vector<int64_t>{b1, b2}));
  EXPECT_EQ(store.Traverse("ab", {a1}, /*role=*/1).TakeValue(),
            (std::vector<int64_t>{b2}));
  EXPECT_EQ(store.TraverseReverse("ab", {b2}).TakeValue(),
            (std::vector<int64_t>{a1, a2}));
  EXPECT_EQ(store.Roles("ab", a1, b2).TakeValue(), (std::vector<int64_t>{1}));
  EXPECT_TRUE(store.Roles("ab", a2, b1).TakeValue().empty());
}

TEST(StoreTest, LinkTypeChecking) {
  auto store = WebspaceStore::Create(TinySchema().TakeValue()).TakeValue();
  int64_t a = store.Insert("A", {int64_t{1}}).TakeValue();
  int64_t b = store.Insert("B", {std::string("x")}).TakeValue();
  // Reversed direction violates the association.
  EXPECT_TRUE(store.Link("ab", b, a).IsInvalidArgument());
  // Unknown association / oids.
  EXPECT_TRUE(store.Link("zz", a, b).IsNotFound());
  EXPECT_TRUE(store.Link("ab", 999, b).IsInvalidArgument());
}

TEST(StoreTest, InsertErrors) {
  auto store = WebspaceStore::Create(TinySchema().TakeValue()).TakeValue();
  EXPECT_TRUE(store.Insert("Z", {}).status().IsNotFound());
  EXPECT_FALSE(store.Insert("A", {std::string("wrong type")}).ok());
}

TEST(StoreTest, GetAttribute) {
  auto store = WebspaceStore::Create(TinySchema().TakeValue()).TakeValue();
  int64_t a = store.Insert("A", {int64_t{42}}).TakeValue();
  EXPECT_EQ(std::get<int64_t>(store.GetAttribute("A", a, "x").TakeValue()), 42);
  EXPECT_TRUE(store.GetAttribute("A", 999, "x").status().IsNotFound());
  EXPECT_TRUE(store.GetAttribute("A", a, "ghost").status().IsNotFound());
}

TEST(StoreTest, RowOfResolvesWithoutScan) {
  auto store = WebspaceStore::Create(TinySchema().TakeValue()).TakeValue();
  std::vector<int64_t> oids;
  for (int64_t i = 0; i < 100; ++i) {
    oids.push_back(store.Insert("A", {i * 3}).TakeValue());
  }
  const storage::Table* table = store.ClassTable("A").TakeValue();
  for (size_t i = 0; i < oids.size(); ++i) {
    const int64_t row = store.RowOf("A", oids[i]);
    ASSERT_EQ(row, static_cast<int64_t>(i));
    EXPECT_EQ(table->GetInt(row, 0).TakeValue(), oids[i]);
  }
  EXPECT_EQ(store.RowOf("A", 99999), -1);
  EXPECT_EQ(store.RowOf("NoSuchClass", oids[0]), -1);
}

TEST(StoreTest, IndexedTraversalMatchesAssociationTableScan) {
  auto store = WebspaceStore::Create(TinySchema().TakeValue()).TakeValue();
  Rng rng(137);
  std::vector<int64_t> as, bs;
  for (int64_t i = 0; i < 40; ++i) {
    as.push_back(store.Insert("A", {i}).TakeValue());
    bs.push_back(store.Insert("B", {std::string("b")}).TakeValue());
  }
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(store
                    .Link("ab", as[rng.NextBounded(as.size())],
                          bs[rng.NextBounded(bs.size())],
                          static_cast<int64_t>(rng.NextBounded(3)))
                    .ok());
  }
  // Oracle: scan the association table directly (the adjacency index must
  // agree with it edge for edge).
  const storage::Table* edges = store.AssociationTable("ab").TakeValue();
  const auto& from = edges->IntColumn(0);
  const auto& to = edges->IntColumn(1);
  const auto& role = edges->IntColumn(2);
  auto scan = [&](const std::vector<int64_t>& keys, bool reverse,
                  int64_t want_role) {
    std::set<int64_t> key_set(keys.begin(), keys.end());
    std::set<int64_t> out;
    for (size_t r = 0; r < from.size(); ++r) {
      const int64_t key = reverse ? to[r] : from[r];
      if (!key_set.count(key)) continue;
      if (want_role >= 0 && role[r] != want_role) continue;
      out.insert(reverse ? from[r] : to[r]);
    }
    return std::vector<int64_t>(out.begin(), out.end());
  };
  for (int64_t want_role : {int64_t{-1}, int64_t{0}, int64_t{2}}) {
    for (const std::vector<int64_t>& keys :
         {std::vector<int64_t>{}, std::vector<int64_t>{as[0]},
          std::vector<int64_t>{as[3], as[17], as[39], 424242}}) {
      EXPECT_EQ(store.Traverse("ab", keys, want_role).TakeValue(),
                scan(keys, false, want_role));
    }
    for (const std::vector<int64_t>& keys :
         {std::vector<int64_t>{bs[1]},
          std::vector<int64_t>{bs[5], bs[11], bs[38]}}) {
      EXPECT_EQ(store.TraverseReverse("ab", keys, want_role).TakeValue(),
                scan(keys, true, want_role));
    }
  }
  // Roles come back in Link (insertion) order.
  auto store2 = WebspaceStore::Create(TinySchema().TakeValue()).TakeValue();
  int64_t a = store2.Insert("A", {int64_t{1}}).TakeValue();
  int64_t b = store2.Insert("B", {std::string("x")}).TakeValue();
  ASSERT_TRUE(store2.Link("ab", a, b, 2).ok());
  ASSERT_TRUE(store2.Link("ab", a, b, 0).ok());
  ASSERT_TRUE(store2.Link("ab", a, b, 1).ok());
  EXPECT_EQ(store2.Roles("ab", a, b).TakeValue(),
            (std::vector<int64_t>{2, 0, 1}));
}

// ---------- Query ----------

TEST(QueryTest, SelectAndPath) {
  auto store = WebspaceStore::Create(TinySchema().TakeValue()).TakeValue();
  int64_t a1 = store.Insert("A", {int64_t{10}}).TakeValue();
  int64_t a2 = store.Insert("A", {int64_t{20}}).TakeValue();
  int64_t b1 = store.Insert("B", {std::string("keep")}).TakeValue();
  int64_t b2 = store.Insert("B", {std::string("drop")}).TakeValue();
  ASSERT_TRUE(store.Link("ab", a1, b1).ok());
  ASSERT_TRUE(store.Link("ab", a1, b2).ok());
  ASSERT_TRUE(store.Link("ab", a2, b2).ok());

  WebspaceQuery query;
  query.source = {"A", {Predicate{"x", CompareOp::kLe, int64_t{15}}}};
  query.path.push_back(
      PathStep{"ab", false, -1,
               {"B", {Predicate{"label", CompareOp::kEq, std::string("keep")}}}});
  EXPECT_EQ(ExecuteQuery(store, query).TakeValue(), (std::vector<int64_t>{b1}));

  // Reverse step: from B objects back to A.
  WebspaceQuery reverse;
  reverse.source = {"B", {Predicate{"label", CompareOp::kEq, std::string("drop")}}};
  reverse.path.push_back(PathStep{"ab", true, -1, {"A", {}}});
  EXPECT_EQ(ExecuteQuery(store, reverse).TakeValue(),
            (std::vector<int64_t>{a1, a2}));
}

TEST(QueryTest, EmptySourceShortCircuits) {
  auto store = WebspaceStore::Create(TinySchema().TakeValue()).TakeValue();
  WebspaceQuery query;
  query.source = {"A", {Predicate{"x", CompareOp::kEq, int64_t{999}}}};
  query.path.push_back(PathStep{"ab", false, -1, {"B", {}}});
  EXPECT_TRUE(ExecuteQuery(store, query).TakeValue().empty());
}

TEST(QueryTest, MalformedStepAfterEmptySourceFails) {
  // The source selects nothing, so the walk never reaches the steps; their
  // association, target class and predicates must be checked regardless.
  auto store = WebspaceStore::Create(TinySchema().TakeValue()).TakeValue();
  const ClassSelection empty_source{
      "A", {Predicate{"x", CompareOp::kEq, int64_t{999}}}};
  WebspaceQuery unknown_assoc{empty_source, {PathStep{"no_such", false, -1, {"B", {}}}}};
  auto result = ExecuteQuery(store, unknown_assoc);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotFound()) << result.status().ToString();

  WebspaceQuery unknown_target{empty_source, {PathStep{"ab", false, -1, {"Z", {}}}}};
  EXPECT_FALSE(ExecuteQuery(store, unknown_target).ok());

  WebspaceQuery bad_pred{
      empty_source,
      {PathStep{"ab", false, -1,
                {"B", {Predicate{"label", CompareOp::kEq, int64_t{1}}}}}}};
  EXPECT_FALSE(ExecuteQuery(store, bad_pred).ok());
}

TEST(QueryTest, UnknownClassFails) {
  auto store = WebspaceStore::Create(TinySchema().TakeValue()).TakeValue();
  WebspaceQuery query;
  query.source = {"Z", {}};
  EXPECT_FALSE(ExecuteQuery(store, query).ok());
}

// ---------- Site synthesizer ----------

SiteConfig SmallSite() {
  SiteConfig config;
  config.num_players = 16;
  config.num_past_years = 4;
  config.videos_per_year = 2;
  return config;
}

TEST(SiteSynthesizerTest, GeneratesConsistentSite) {
  auto site = SiteSynthesizer::Generate(SmallSite()).TakeValue();
  EXPECT_EQ(site.player_oids.size(), 16u);
  EXPECT_EQ(site.tournament_oids.size(), 4u);
  EXPECT_EQ(site.video_oids.size(), 8u);
  EXPECT_EQ(site.interview_oids.size(), 16u);
  EXPECT_EQ(site.interview_texts.size(), 16u);
  EXPECT_EQ(site.video_seeds.size(), 8u);
  EXPECT_FALSE(site.champions.empty());
  EXPECT_LE(site.champions.size(), 4u);

  // Every video has exactly two players, roles 0 and 1.
  for (int64_t video : site.video_oids) {
    auto players = site.store.TraverseReverse("plays_in", {video}).TakeValue();
    ASSERT_EQ(players.size(), 2u);
    std::set<int64_t> roles;
    for (int64_t p : players) {
      for (int64_t role : site.store.Roles("plays_in", p, video).TakeValue()) {
        roles.insert(role);
      }
    }
    EXPECT_EQ(roles, (std::set<int64_t>{0, 1}));
  }
}

TEST(SiteSynthesizerTest, DeterministicBySeed) {
  auto a = SiteSynthesizer::Generate(SmallSite()).TakeValue();
  auto b = SiteSynthesizer::Generate(SmallSite()).TakeValue();
  EXPECT_EQ(a.champions, b.champions);
  EXPECT_EQ(a.left_handed_female_champions, b.left_handed_female_champions);
  EXPECT_EQ(a.interview_texts.begin()->second, b.interview_texts.begin()->second);
}

TEST(SiteSynthesizerTest, GroundTruthMatchesConceptQuery) {
  auto site = SiteSynthesizer::Generate(SmallSite()).TakeValue();
  // The motivating query's concept part, expressed as a webspace query.
  WebspaceQuery query;
  query.source = {"Player",
                  {Predicate{"hand", CompareOp::kEq, std::string("left")},
                   Predicate{"gender", CompareOp::kEq, std::string("female")}}};
  auto lefties = ExecuteQuery(site.store, query).TakeValue();
  // Champions among them.
  auto champs = site.store.Traverse("won", lefties).TakeValue();  // tournaments
  auto winners = site.store.TraverseReverse("won", champs).TakeValue();
  std::vector<int64_t> answer;
  std::set<int64_t> lefty_set(lefties.begin(), lefties.end());
  for (int64_t w : winners) {
    if (lefty_set.count(w)) answer.push_back(w);
  }
  std::sort(answer.begin(), answer.end());
  EXPECT_EQ(answer, site.left_handed_female_champions);
}

TEST(SiteSynthesizerTest, ChampionInterviewsMentionTitle) {
  auto site = SiteSynthesizer::Generate(SmallSite()).TakeValue();
  for (int64_t champ : site.champions) {
    auto interviews = site.store.Traverse("interviewed_in", {champ}).TakeValue();
    ASSERT_FALSE(interviews.empty());
    bool mentions = false;
    for (int64_t i : interviews) {
      if (site.interview_texts.at(i).find("title") != std::string::npos) {
        mentions = true;
      }
    }
    EXPECT_TRUE(mentions);
  }
}

TEST(SiteSynthesizerTest, RejectsDegenerateConfig) {
  SiteConfig bad;
  bad.num_players = 2;
  EXPECT_FALSE(SiteSynthesizer::Generate(bad).ok());
}

TEST(SiteSynthesizerTest, PlayerNamesResolvable) {
  auto site = SiteSynthesizer::Generate(SmallSite()).TakeValue();
  std::set<std::string> names;
  for (int64_t oid : site.player_oids) {
    auto name = site.PlayerName(oid);
    ASSERT_TRUE(name.ok());
    EXPECT_TRUE(names.insert(*name).second) << "duplicate name " << *name;
  }
}

}  // namespace
}  // namespace cobra::webspace
