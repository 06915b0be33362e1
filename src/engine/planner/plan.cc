#include "engine/planner/plan.h"

#include "util/strings.h"

namespace cobra::engine::planner {

std::string PlanExplain::ToString() const {
  std::string out = "plan:";
  auto flag = [&](bool set, const char* name) {
    if (set) {
      out += ' ';
      out += name;
    }
  };
  flag(short_circuited, "short_circuited");
  flag(text_first, "text_first");
  flag(champion_first, "champion_first");
  flag(text_filter_pushed, "text_filter_pushed");
  flag(text_seeded, "text_seeded");
  flag(similar_seeded, "similar_seeded");
  for (const PlanStep& step : steps) {
    out += StringFormat("\n  %-40s est=%.1f actual=%lld", step.name.c_str(),
                        step.est_rows, static_cast<long long>(step.actual_rows));
  }
  return out;
}

}  // namespace cobra::engine::planner
