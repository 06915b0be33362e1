#pragma once

/// \file plan.h
/// The explain surface of the cost-based combined-query planner (DESIGN.md
/// §4g), which answers every `DigitalLibrary::Search`: one PlanStep per
/// executed stage with its estimated vs actual cardinality, plus the
/// plan-shape decisions the cost model took. Results never depend on any
/// of this — every plan is bit-identical to the fixed-order test oracle —
/// so the explain output is pure observability, wired into `QueryEngine`
/// stats and tests.

#include <cstdint>
#include <string>
#include <vector>

namespace cobra::engine::planner {

/// One executed (or short-circuiting) plan stage.
struct PlanStep {
  /// Stage label, e.g. "predicate ranking==17", "champions", "text:filtered",
  /// "pairs", "short_circuit: event name unknown".
  std::string name;
  /// Estimated output cardinality when the stage was planned.
  double est_rows = 0.0;
  /// Output cardinality observed during execution; -1 = never executed.
  int64_t actual_rows = -1;
};

/// The chosen physical plan of one combined query.
struct PlanExplain {
  /// A provably-empty modality ended the plan before the remaining stages.
  bool short_circuited = false;
  /// The text modality ran first and seeded the candidate set.
  bool text_first = false;
  /// The champion join ran before the attribute predicates.
  bool champion_first = false;
  /// The concept candidate set was pushed into the text evaluator as a
  /// DAAT accept filter.
  bool text_filter_pushed = false;
  /// The text stage was taken from a frontend-provided seed (serving tier,
  /// DESIGN.md §4i) instead of running the DAAT locally.
  bool text_seeded = false;
  /// The similar stage was taken from a frontend-provided SimilarSeed
  /// (serving tier, DESIGN.md §4j) instead of probing the ANN index.
  bool similar_seeded = false;
  /// Executed stages in order.
  std::vector<PlanStep> steps;

  /// Multi-line human-readable rendering (one line per step plus a flags
  /// summary).
  std::string ToString() const;
};

}  // namespace cobra::engine::planner
