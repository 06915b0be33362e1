#include "oracles/malformed_queries.h"

namespace cobra::engine {

std::vector<MalformedQuery> MalformedQueries() {
  using storage::CompareOp;
  using storage::Predicate;
  struct Placement {
    const char* label;
    const char* text_prefix;
    std::vector<Predicate> before;
  };
  const Placement kPlacements[] = {
      {"alone", "", {}},
      {"after empty",
       "player.hand = ambidextrous AND ",
       {{"hand", CompareOp::kEq, std::string("ambidextrous")}}},
      {"after match",
       "player.hand = left AND ",
       {{"hand", CompareOp::kEq, std::string("left")}}}};
  struct Bad {
    const char* kind;
    const char* text;
    Predicate pred;
  };
  const Bad kBad[] = {{"unknown column", "player.no_such_column = 1",
                       {"no_such_column", CompareOp::kEq, int64_t{1}}},
                      {"type mismatch", "player.gender = 3",
                       {"gender", CompareOp::kEq, int64_t{3}}}};
  std::vector<MalformedQuery> out;
  for (const Bad& bad : kBad) {
    for (const Placement& placement : kPlacements) {
      MalformedQuery m;
      m.kind = bad.kind;
      m.label = std::string(bad.kind) + " " + placement.label;
      m.text = std::string(placement.text_prefix) + bad.text;
      m.query.player_predicates = placement.before;
      m.query.player_predicates.push_back(bad.pred);
      out.push_back(std::move(m));
    }
  }
  return out;
}

}  // namespace cobra::engine
