#include "storage/ops.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <unordered_map>

#include "util/strings.h"
#include "util/thread_pool.h"

namespace cobra::storage {

namespace {

Status CheckPredicate(const Table& table, const Predicate& pred, size_t* col) {
  COBRA_ASSIGN_OR_RETURN(*col, table.ColumnIndex(pred.column));
  DataType col_type = table.schema()[*col].type;
  if (pred.op == CompareOp::kContains) {
    if (col_type != DataType::kString ||
        TypeOf(pred.literal) != DataType::kString) {
      return Status::InvalidArgument("kContains requires string column/literal");
    }
    return Status::OK();
  }
  if (TypeOf(pred.literal) != col_type) {
    return Status::InvalidArgument(StringFormat(
        "predicate literal type mismatch on column '%s'", pred.column.c_str()));
  }
  return Status::OK();
}

int NormalizeCmp(int cmp) { return cmp < 0 ? -1 : (cmp > 0 ? 1 : 0); }

/// Can any int64 value (or dictionary code) in [z.imin, z.imax] satisfy
/// `op lit`? Conservative: true means "scan the block".
bool ZoneCanMatchI64(const ZoneEntry& z, int64_t lit, CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return lit >= z.imin && lit <= z.imax;
    case CompareOp::kNe:
      return !(z.imin == z.imax && z.imin == lit);
    case CompareOp::kLt:
      return z.imin < lit;
    case CompareOp::kLe:
      return z.imin <= lit;
    case CompareOp::kGt:
      return z.imax > lit;
    case CompareOp::kGe:
      return z.imax >= lit;
    case CompareOp::kContains:
      return true;
  }
  return true;
}

/// Double variant. NaN ties under CompareValues (cmp == 0), so a NaN row
/// matches kEq/kLe/kGe against any literal, and a NaN literal matches every
/// row under those same ops; dmin/dmax ignore NaN, has_nan records it.
bool ZoneCanMatchF64(const ZoneEntry& z, double lit, CompareOp op) {
  const bool nan_matches = op == CompareOp::kEq || op == CompareOp::kLe ||
                           op == CompareOp::kGe;
  if (std::isnan(lit)) return nan_matches;
  if (z.has_nan && nan_matches) return true;
  switch (op) {
    case CompareOp::kEq:
      return lit >= z.dmin && lit <= z.dmax;
    case CompareOp::kNe:
      // dmin > dmax means the block is all NaN: no row orders against the
      // literal, so nothing satisfies kNe.
      return z.dmin <= z.dmax && !(z.dmin == z.dmax && z.dmin == lit);
    case CompareOp::kLt:
      return z.dmin < lit;
    case CompareOp::kLe:
      return z.dmin <= lit;
    case CompareOp::kGt:
      return z.dmax > lit;
    case CompareOp::kGe:
      return z.dmax >= lit;
    case CompareOp::kContains:
      return true;
  }
  return true;
}

std::vector<int64_t> AllRows(int64_t n) {
  std::vector<int64_t> rows(static_cast<size_t>(n));
  std::iota(rows.begin(), rows.end(), int64_t{0});
  return rows;
}

/// Per-unique-string predicate evaluation: lut[code] = 1 when the
/// dictionary entry satisfies the predicate. O(dict) string work once, then
/// O(1) per row through the select_lut kernel.
std::vector<uint8_t> BuildStringLut(const std::vector<std::string>& dict,
                                    const Predicate& pred) {
  std::vector<uint8_t> lut(dict.size());
  const std::string& lit = std::get<std::string>(pred.literal);
  for (size_t c = 0; c < dict.size(); ++c) {
    if (pred.op == CompareOp::kContains) {
      lut[c] = dict[c].find(lit) != std::string::npos ? 1 : 0;
    } else {
      lut[c] = EvalCompare(NormalizeCmp(dict[c].compare(lit)), pred.op) ? 1 : 0;
    }
  }
  return lut;
}

}  // namespace

Status ValidatePredicate(const Table& table, const Predicate& pred) {
  size_t col;
  return CheckPredicate(table, pred, &col);
}

Result<std::vector<int64_t>> Select(const Table& table, const Predicate& pred) {
  size_t col;
  COBRA_RETURN_NOT_OK(CheckPredicate(table, pred, &col));
  std::vector<int64_t> out;
  const int64_t n = table.num_rows();
  if (n == 0) return out;
  const DataType type = table.schema()[col].type;
  const kernels::SelectOps& ops = kernels::Ops();
  const auto& zones = table.Zones(col);

  switch (type) {
    case DataType::kInt64: {
      const int64_t* data = table.IntColumn(col).data();
      const int64_t lit = std::get<int64_t>(pred.literal);
      for (size_t b = 0; b < zones.size(); ++b) {
        if (!ZoneCanMatchI64(zones[b], lit, pred.op)) continue;
        const int64_t begin = static_cast<int64_t>(b) * Table::kBlockRows;
        const int64_t end = std::min(begin + Table::kBlockRows, n);
        ops.select_i64(data + begin, static_cast<size_t>(end - begin), lit,
                       pred.op, begin, &out);
      }
      break;
    }
    case DataType::kDouble: {
      const double* data = table.DoubleColumn(col).data();
      const double lit = std::get<double>(pred.literal);
      for (size_t b = 0; b < zones.size(); ++b) {
        if (!ZoneCanMatchF64(zones[b], lit, pred.op)) continue;
        const int64_t begin = static_cast<int64_t>(b) * Table::kBlockRows;
        const int64_t end = std::min(begin + Table::kBlockRows, n);
        ops.select_f64(data + begin, static_cast<size_t>(end - begin), lit,
                       pred.op, begin, &out);
      }
      break;
    }
    case DataType::kString: {
      const int32_t* codes = table.StringCodes(col).data();
      if (pred.op == CompareOp::kEq || pred.op == CompareOp::kNe) {
        // Equality runs over dictionary codes: one string hash for the
        // literal, then pure int32 compares.
        const int32_t lit_code =
            table.DictCode(col, std::get<std::string>(pred.literal));
        if (lit_code < 0) {
          // Literal never appears: kEq matches nothing, kNe everything.
          if (pred.op == CompareOp::kEq) return out;
          return AllRows(n);
        }
        for (size_t b = 0; b < zones.size(); ++b) {
          if (!ZoneCanMatchI64(zones[b], lit_code, pred.op)) continue;
          const int64_t begin = static_cast<int64_t>(b) * Table::kBlockRows;
          const int64_t end = std::min(begin + Table::kBlockRows, n);
          ops.select_i32(codes + begin, static_cast<size_t>(end - begin),
                         lit_code, pred.op, begin, &out);
        }
        break;
      }
      // Ordering and kContains: evaluate once per unique string into a LUT,
      // skip blocks whose code range holds no qualifying entry (prefix sums
      // over the LUT make that check O(1) per block).
      const std::vector<uint8_t> lut = BuildStringLut(table.Dictionary(col), pred);
      std::vector<int64_t> prefix(lut.size() + 1, 0);
      for (size_t c = 0; c < lut.size(); ++c) prefix[c + 1] = prefix[c] + lut[c];
      for (size_t b = 0; b < zones.size(); ++b) {
        const ZoneEntry& z = zones[b];
        if (prefix[static_cast<size_t>(z.imax) + 1] -
                prefix[static_cast<size_t>(z.imin)] ==
            0) {
          continue;
        }
        const int64_t begin = static_cast<int64_t>(b) * Table::kBlockRows;
        const int64_t end = std::min(begin + Table::kBlockRows, n);
        ops.select_lut(codes + begin, static_cast<size_t>(end - begin),
                       lut.data(), begin, &out);
      }
      break;
    }
  }
  return out;
}

Result<std::vector<int64_t>> Refine(const Table& table, const Predicate& pred,
                                    const std::vector<int64_t>& candidates) {
  size_t col;
  COBRA_RETURN_NOT_OK(CheckPredicate(table, pred, &col));
  const int64_t n = table.num_rows();
  for (int64_t r : candidates) {
    if (r < 0 || r >= n) {
      return Status::OutOfRange("candidate row out of range");
    }
  }
  std::vector<int64_t> out;
  const DataType type = table.schema()[col].type;
  switch (type) {
    case DataType::kInt64: {
      const auto& data = table.IntColumn(col);
      const int64_t lit = std::get<int64_t>(pred.literal);
      for (int64_t r : candidates) {
        if (EvalCompare(CompareScalar(data[static_cast<size_t>(r)], lit),
                        pred.op)) {
          out.push_back(r);
        }
      }
      break;
    }
    case DataType::kDouble: {
      const auto& data = table.DoubleColumn(col);
      const double lit = std::get<double>(pred.literal);
      for (int64_t r : candidates) {
        if (EvalCompare(CompareScalar(data[static_cast<size_t>(r)], lit),
                        pred.op)) {
          out.push_back(r);
        }
      }
      break;
    }
    case DataType::kString: {
      const auto& codes = table.StringCodes(col);
      if (pred.op == CompareOp::kEq || pred.op == CompareOp::kNe) {
        const int32_t lit_code =
            table.DictCode(col, std::get<std::string>(pred.literal));
        const bool keep_on_match = pred.op == CompareOp::kEq;
        for (int64_t r : candidates) {
          if ((codes[static_cast<size_t>(r)] == lit_code) == keep_on_match) {
            out.push_back(r);
          }
        }
        break;
      }
      // Ordering / kContains: memoize the per-unique-string outcome so the
      // string work is O(distinct codes seen), not O(candidates).
      const auto& dict = table.Dictionary(col);
      const std::string& lit = std::get<std::string>(pred.literal);
      std::vector<int8_t> memo(dict.size(), -1);
      for (int64_t r : candidates) {
        const int32_t c = codes[static_cast<size_t>(r)];
        int8_t& m = memo[static_cast<size_t>(c)];
        if (m < 0) {
          const bool hit =
              pred.op == CompareOp::kContains
                  ? dict[static_cast<size_t>(c)].find(lit) != std::string::npos
                  : EvalCompare(
                        NormalizeCmp(dict[static_cast<size_t>(c)].compare(lit)),
                        pred.op);
          m = hit ? 1 : 0;
        }
        if (m) out.push_back(r);
      }
      break;
    }
  }
  return out;
}

Result<std::vector<int64_t>> SelectAll(const Table& table,
                                       const std::vector<Predicate>& preds) {
  // Check the whole conjunction before selecting anything: the refine loop
  // stops at an empty selection, and a malformed predicate past that point
  // must still fail.
  for (const Predicate& pred : preds) {
    COBRA_RETURN_NOT_OK(ValidatePredicate(table, pred));
  }
  if (preds.empty()) return AllRows(table.num_rows());
  COBRA_ASSIGN_OR_RETURN(std::vector<int64_t> rows, Select(table, preds[0]));
  for (size_t i = 1; i < preds.size() && !rows.empty(); ++i) {
    COBRA_ASSIGN_OR_RETURN(rows, Refine(table, preds[i], rows));
  }
  return rows;
}

Result<Table> Materialize(const Table& table, const std::vector<int64_t>& rows,
                          const std::vector<std::string>& columns) {
  for (int64_t r : rows) {
    if (r < 0 || r >= table.num_rows()) {
      return Status::OutOfRange(
          StringFormat("row %lld out of range", static_cast<long long>(r)));
    }
  }
  std::vector<size_t> col_ids;
  std::vector<ColumnDef> schema;
  if (columns.empty()) {
    for (size_t i = 0; i < table.num_columns(); ++i) {
      col_ids.push_back(i);
      schema.push_back(table.schema()[i]);
    }
  } else {
    for (const std::string& name : columns) {
      COBRA_ASSIGN_OR_RETURN(size_t idx, table.ColumnIndex(name));
      col_ids.push_back(idx);
      schema.push_back(table.schema()[idx]);
    }
  }
  COBRA_ASSIGN_OR_RETURN(Table out, Table::Create(std::move(schema)));
  for (size_t i = 0; i < col_ids.size(); ++i) {
    out.GatherColumn(table, col_ids[i], i, rows);
  }
  out.FinishGather(static_cast<int64_t>(rows.size()));
  return out;
}

namespace {

/// Chunked, deterministic probe: `probe(l)` appends this row's matches as
/// (left row, right row) pairs. Chunks run in parallel but results are
/// concatenated in chunk order, so output order never depends on
/// scheduling.
template <typename ProbeFn>
void ProbeChunked(int64_t left_rows, int num_threads, const ProbeFn& probe,
                  std::vector<int64_t>* out_left,
                  std::vector<int64_t>* out_right) {
  constexpr int64_t kProbeChunk = 8192;
  const int threads = std::max(1, num_threads);
  if (threads <= 1 || left_rows <= kProbeChunk) {
    for (int64_t l = 0; l < left_rows; ++l) probe(l, out_left, out_right);
    return;
  }
  const int64_t num_chunks = (left_rows + kProbeChunk - 1) / kProbeChunk;
  std::vector<std::vector<int64_t>> lefts(static_cast<size_t>(num_chunks));
  std::vector<std::vector<int64_t>> rights(static_cast<size_t>(num_chunks));
  util::ThreadPool pool(threads);
  pool.ParallelFor(0, num_chunks, 1, [&](int64_t c) {
    const int64_t begin = c * kProbeChunk;
    const int64_t end = std::min(begin + kProbeChunk, left_rows);
    auto& lv = lefts[static_cast<size_t>(c)];
    auto& rv = rights[static_cast<size_t>(c)];
    for (int64_t l = begin; l < end; ++l) probe(l, &lv, &rv);
  });
  size_t total = 0;
  for (const auto& lv : lefts) total += lv.size();
  out_left->reserve(out_left->size() + total);
  out_right->reserve(out_right->size() + total);
  for (int64_t c = 0; c < num_chunks; ++c) {
    const auto& lv = lefts[static_cast<size_t>(c)];
    const auto& rv = rights[static_cast<size_t>(c)];
    out_left->insert(out_left->end(), lv.begin(), lv.end());
    out_right->insert(out_right->end(), rv.begin(), rv.end());
  }
}

}  // namespace

Result<Table> HashJoin(const Table& left, const Table& right,
                       const std::string& left_col,
                       const std::string& right_col,
                       const JoinOptions& options) {
  COBRA_ASSIGN_OR_RETURN(size_t lcol, left.ColumnIndex(left_col));
  COBRA_ASSIGN_OR_RETURN(size_t rcol, right.ColumnIndex(right_col));
  if (left.schema()[lcol].type != right.schema()[rcol].type) {
    return Status::InvalidArgument("join key types differ");
  }
  const DataType key_type = left.schema()[lcol].type;

  // Output schema: left then right, prefixing collisions.
  std::vector<ColumnDef> schema = left.schema();
  for (const ColumnDef& def : right.schema()) {
    ColumnDef out_def = def;
    for (const ColumnDef& l : left.schema()) {
      if (l.name == def.name) {
        out_def.name = "right_" + def.name;
        break;
      }
    }
    schema.push_back(out_def);
  }
  COBRA_ASSIGN_OR_RETURN(Table out, Table::Create(std::move(schema)));

  // The contract fixes the *output* order, not the build side: rows follow
  // left row order, equal-key right matches follow right row order. The
  // right-build probe emits pairs in exactly that order; the left-build
  // path re-sorts its pairs into it. kAuto builds on the smaller side
  // (hash-table construction costs a few probes' worth per row) unless the
  // left-build re-sort — sized by the estimated match count from the key
  // columns' exact NDV — would eat the gain.
  bool build_on_left = options.build_side == JoinBuildSide::kLeft;
  if (options.build_side == JoinBuildSide::kAuto) {
    COBRA_ASSIGN_OR_RETURN(int64_t lndv, left.Ndv(lcol));
    COBRA_ASSIGN_OR_RETURN(int64_t rndv, right.Ndv(rcol));
    const double lrows = static_cast<double>(left.num_rows());
    const double rrows = static_cast<double>(right.num_rows());
    const double ndv = static_cast<double>(std::max<int64_t>({1, lndv, rndv}));
    const double est_matches = lrows * rrows / ndv;
    constexpr double kBuildCostPerRow = 4.0;  // vs 1.0 per probed row
    const double cost_build_right = kBuildCostPerRow * rrows + lrows;
    const double cost_build_left = kBuildCostPerRow * lrows + rrows +
                                   est_matches * std::log2(est_matches + 2.0);
    build_on_left = cost_build_left < cost_build_right;
  }

  std::vector<int64_t> left_rows;
  std::vector<int64_t> right_rows;
  if (key_type == DataType::kDouble) {
    // Double keys are equal when their "%.6g" renderings are (the
    // observable contract, with no integer-key equivalent). No query plan
    // joins on doubles, so this path always builds right and probes inline.
    const auto& rkeys = right.DoubleColumn(rcol);
    std::unordered_map<std::string, std::vector<int64_t>> build;
    for (int64_t r = 0; r < right.num_rows(); ++r) {
      build[ValueToString(rkeys[static_cast<size_t>(r)])].push_back(r);
    }
    const auto& lkeys = left.DoubleColumn(lcol);
    for (int64_t l = 0; l < left.num_rows(); ++l) {
      auto it = build.find(ValueToString(lkeys[static_cast<size_t>(l)]));
      if (it == build.end()) continue;
      for (int64_t r : it->second) {
        left_rows.push_back(l);
        right_rows.push_back(r);
      }
    }
  } else if (build_on_left) {
    if (key_type == DataType::kInt64) {
      const auto& lkeys = left.IntColumn(lcol);
      std::unordered_map<int64_t, std::vector<int64_t>> build;
      build.reserve(lkeys.size());
      for (int64_t l = 0; l < left.num_rows(); ++l) {
        build[lkeys[static_cast<size_t>(l)]].push_back(l);
      }
      const auto& rkeys = right.IntColumn(rcol);
      ProbeChunked(
          right.num_rows(), options.num_threads,
          [&](int64_t r, std::vector<int64_t>* lv, std::vector<int64_t>* rv) {
            auto it = build.find(rkeys[static_cast<size_t>(r)]);
            if (it == build.end()) return;
            for (int64_t l : it->second) {
              lv->push_back(l);
              rv->push_back(r);
            }
          },
          &left_rows, &right_rows);
    } else {
      // Mirror of the right-build string path: translate each unique right
      // string into the left column's code space once.
      const auto& lkeys = left.StringCodes(lcol);
      std::unordered_map<int32_t, std::vector<int64_t>> build;
      build.reserve(left.Dictionary(lcol).size());
      for (int64_t l = 0; l < left.num_rows(); ++l) {
        build[lkeys[static_cast<size_t>(l)]].push_back(l);
      }
      const auto& rdict = right.Dictionary(rcol);
      std::vector<int32_t> translate(rdict.size());
      for (size_t c = 0; c < rdict.size(); ++c) {
        translate[c] = left.DictCode(lcol, rdict[c]);
      }
      const auto& rkeys = right.StringCodes(rcol);
      ProbeChunked(
          right.num_rows(), options.num_threads,
          [&](int64_t r, std::vector<int64_t>* lv, std::vector<int64_t>* rv) {
            const int32_t t =
                translate[static_cast<size_t>(rkeys[static_cast<size_t>(r)])];
            if (t < 0) return;
            auto it = build.find(t);
            if (it == build.end()) return;
            for (int64_t l : it->second) {
              lv->push_back(l);
              rv->push_back(r);
            }
          },
          &left_rows, &right_rows);
    }
    // Right-major pairs → the contract's (left row, right row) order. Each
    // pair is unique, so the sort is total and deterministic.
    std::vector<size_t> order(left_rows.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      if (left_rows[a] != left_rows[b]) return left_rows[a] < left_rows[b];
      return right_rows[a] < right_rows[b];
    });
    std::vector<int64_t> sorted_left(order.size());
    std::vector<int64_t> sorted_right(order.size());
    for (size_t i = 0; i < order.size(); ++i) {
      sorted_left[i] = left_rows[order[i]];
      sorted_right[i] = right_rows[order[i]];
    }
    left_rows = std::move(sorted_left);
    right_rows = std::move(sorted_right);
  } else if (key_type == DataType::kInt64) {
    const auto& rkeys = right.IntColumn(rcol);
    std::unordered_map<int64_t, std::vector<int64_t>> build;
    build.reserve(rkeys.size());
    for (int64_t r = 0; r < right.num_rows(); ++r) {
      build[rkeys[static_cast<size_t>(r)]].push_back(r);
    }
    const auto& lkeys = left.IntColumn(lcol);
    ProbeChunked(
        left.num_rows(), options.num_threads,
        [&](int64_t l, std::vector<int64_t>* lv, std::vector<int64_t>* rv) {
          auto it = build.find(lkeys[static_cast<size_t>(l)]);
          if (it == build.end()) return;
          for (int64_t r : it->second) {
            lv->push_back(l);
            rv->push_back(r);
          }
        },
        &left_rows, &right_rows);
  } else {
    // String keys join on dictionary codes: hash each *unique* left string
    // once to translate it into the right column's code space, then the
    // probe is pure int work.
    const auto& rkeys = right.StringCodes(rcol);
    std::unordered_map<int32_t, std::vector<int64_t>> build;
    build.reserve(right.Dictionary(rcol).size());
    for (int64_t r = 0; r < right.num_rows(); ++r) {
      build[rkeys[static_cast<size_t>(r)]].push_back(r);
    }
    const auto& ldict = left.Dictionary(lcol);
    std::vector<int32_t> translate(ldict.size());
    for (size_t c = 0; c < ldict.size(); ++c) {
      translate[c] = right.DictCode(rcol, ldict[c]);
    }
    const auto& lkeys = left.StringCodes(lcol);
    ProbeChunked(
        left.num_rows(), options.num_threads,
        [&](int64_t l, std::vector<int64_t>* lv, std::vector<int64_t>* rv) {
          const int32_t t =
              translate[static_cast<size_t>(lkeys[static_cast<size_t>(l)])];
          if (t < 0) return;
          auto it = build.find(t);
          if (it == build.end()) return;
          for (int64_t r : it->second) {
            lv->push_back(l);
            rv->push_back(r);
          }
        },
        &left_rows, &right_rows);
  }

  for (size_t c = 0; c < left.num_columns(); ++c) {
    out.GatherColumn(left, c, c, left_rows);
  }
  for (size_t c = 0; c < right.num_columns(); ++c) {
    out.GatherColumn(right, c, left.num_columns() + c, right_rows);
  }
  out.FinishGather(static_cast<int64_t>(left_rows.size()));
  return out;
}

Result<Table> HashJoin(const Table& left, const Table& right,
                       const std::string& left_col,
                       const std::string& right_col) {
  return HashJoin(left, right, left_col, right_col, JoinOptions{});
}

Result<std::vector<int64_t>> OrderBy(const Table& table,
                                     const std::string& column, bool desc,
                                     size_t limit) {
  COBRA_ASSIGN_OR_RETURN(size_t col, table.ColumnIndex(column));
  std::vector<int64_t> rows = AllRows(table.num_rows());
  // Typed comparators over the raw column; ties break by row id, which
  // makes the order total and deterministic, so partial_sort/sort match
  // the reference stable_sort exactly.
  auto sort_rows = [&](auto cmp3) {
    auto less = [&](int64_t a, int64_t b) {
      const int cmp = cmp3(a, b);
      if (cmp == 0) return a < b;
      return desc ? cmp > 0 : cmp < 0;
    };
    if (limit > 0 && limit < rows.size()) {
      std::partial_sort(rows.begin(),
                        rows.begin() + static_cast<int64_t>(limit), rows.end(),
                        less);
      rows.resize(limit);
    } else {
      std::sort(rows.begin(), rows.end(), less);
    }
  };
  switch (table.schema()[col].type) {
    case DataType::kInt64: {
      const auto& data = table.IntColumn(col);
      sort_rows([&](int64_t a, int64_t b) {
        return CompareScalar(data[static_cast<size_t>(a)],
                             data[static_cast<size_t>(b)]);
      });
      break;
    }
    case DataType::kDouble: {
      const auto& data = table.DoubleColumn(col);
      sort_rows([&](int64_t a, int64_t b) {
        return CompareScalar(data[static_cast<size_t>(a)],
                             data[static_cast<size_t>(b)]);
      });
      break;
    }
    case DataType::kString: {
      const auto& data = table.StringColumn(col);
      sort_rows([&](int64_t a, int64_t b) {
        return NormalizeCmp(data[static_cast<size_t>(a)].compare(
            data[static_cast<size_t>(b)]));
      });
      break;
    }
  }
  return rows;
}

Result<std::vector<GroupRow>> GroupBy(const Table& table,
                                      const std::string& key_column,
                                      AggregateOp op,
                                      const std::string& value_column) {
  COBRA_ASSIGN_OR_RETURN(size_t key_col, table.ColumnIndex(key_column));
  size_t value_col = 0;
  bool need_value = op != AggregateOp::kCount;
  if (need_value) {
    COBRA_ASSIGN_OR_RETURN(value_col, table.ColumnIndex(value_column));
    DataType t = table.schema()[value_col].type;
    if (t != DataType::kInt64 && t != DataType::kDouble) {
      return Status::InvalidArgument("aggregate value column must be numeric");
    }
  }

  struct Accumulator {
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    int64_t count = 0;
  };
  std::map<std::string, std::pair<Value, Accumulator>> groups;
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    COBRA_ASSIGN_OR_RETURN(Value key, table.GetValue(r, key_col));
    double v = 0.0;
    if (need_value) {
      COBRA_ASSIGN_OR_RETURN(Value raw, table.GetValue(r, value_col));
      v = std::holds_alternative<int64_t>(raw)
              ? static_cast<double>(std::get<int64_t>(raw))
              : std::get<double>(raw);
    }
    auto [it, inserted] =
        groups.try_emplace(ValueToString(key), key, Accumulator{});
    Accumulator& acc = it->second.second;
    if (acc.count == 0) {
      acc.min = acc.max = v;
    } else {
      acc.min = std::min(acc.min, v);
      acc.max = std::max(acc.max, v);
    }
    acc.sum += v;
    acc.count++;
  }

  std::vector<GroupRow> out;
  out.reserve(groups.size());
  for (auto& [text_key, entry] : groups) {
    GroupRow row;
    row.key = std::move(entry.first);
    row.count = entry.second.count;
    switch (op) {
      case AggregateOp::kCount:
        row.aggregate = static_cast<double>(entry.second.count);
        break;
      case AggregateOp::kSum:
        row.aggregate = entry.second.sum;
        break;
      case AggregateOp::kMin:
        row.aggregate = entry.second.min;
        break;
      case AggregateOp::kMax:
        row.aggregate = entry.second.max;
        break;
      case AggregateOp::kAvg:
        row.aggregate = entry.second.count
                            ? entry.second.sum / entry.second.count
                            : 0.0;
        break;
    }
    out.push_back(std::move(row));
  }
  std::sort(out.begin(), out.end(), [](const GroupRow& a, const GroupRow& b) {
    return CompareValues(a.key, b.key) < 0;
  });
  return out;
}

}  // namespace cobra::storage
