#include "oracles/reference_ops.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

namespace cobra::storage::reference {

namespace {

Status CheckPredicate(const Table& table, const Predicate& pred, size_t* col) {
  COBRA_RETURN_NOT_OK(ValidatePredicate(table, pred));
  COBRA_ASSIGN_OR_RETURN(*col, table.ColumnIndex(pred.column));
  return Status::OK();
}

std::vector<int64_t> AllRows(int64_t n) {
  std::vector<int64_t> rows(static_cast<size_t>(n));
  std::iota(rows.begin(), rows.end(), int64_t{0});
  return rows;
}

}  // namespace

Result<std::vector<int64_t>> Select(const Table& table, const Predicate& pred) {
  size_t col;
  COBRA_RETURN_NOT_OK(CheckPredicate(table, pred, &col));
  std::vector<int64_t> out;
  const int64_t n = table.num_rows();
  const DataType type = table.schema()[col].type;

  if (pred.op == CompareOp::kContains) {
    const auto& data = table.StringColumn(col);
    const std::string& needle = std::get<std::string>(pred.literal);
    for (int64_t r = 0; r < n; ++r) {
      if (data[static_cast<size_t>(r)].find(needle) != std::string::npos) {
        out.push_back(r);
      }
    }
    return out;
  }
  switch (type) {
    case DataType::kInt64: {
      const auto& data = table.IntColumn(col);
      int64_t lit = std::get<int64_t>(pred.literal);
      for (int64_t r = 0; r < n; ++r) {
        int64_t v = data[static_cast<size_t>(r)];
        int cmp = v < lit ? -1 : (v > lit ? 1 : 0);
        if (EvalCompare(cmp, pred.op)) out.push_back(r);
      }
      break;
    }
    case DataType::kDouble: {
      const auto& data = table.DoubleColumn(col);
      double lit = std::get<double>(pred.literal);
      for (int64_t r = 0; r < n; ++r) {
        double v = data[static_cast<size_t>(r)];
        int cmp = v < lit ? -1 : (v > lit ? 1 : 0);
        if (EvalCompare(cmp, pred.op)) out.push_back(r);
      }
      break;
    }
    case DataType::kString: {
      const auto& data = table.StringColumn(col);
      const std::string& lit = std::get<std::string>(pred.literal);
      for (int64_t r = 0; r < n; ++r) {
        int cmp = data[static_cast<size_t>(r)].compare(lit);
        cmp = cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
        if (EvalCompare(cmp, pred.op)) out.push_back(r);
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
  std::vector<int64_t> out;
  for (int64_t r : candidates) {
    if (r < 0 || r >= table.num_rows()) {
      return Status::OutOfRange("candidate row out of range");
    }
    bool keep;
    if (pred.op == CompareOp::kContains) {
      keep = table.StringColumn(col)[static_cast<size_t>(r)].find(
                 std::get<std::string>(pred.literal)) != std::string::npos;
    } else {
      COBRA_ASSIGN_OR_RETURN(Value v, table.GetValue(r, col));
      keep = EvalCompare(CompareValues(v, pred.literal), pred.op);
    }
    if (keep) out.push_back(r);
  }
  return out;
}

Result<std::vector<int64_t>> SelectAll(const Table& table,
                                       const std::vector<Predicate>& preds) {
  if (preds.empty()) return AllRows(table.num_rows());
  // Qualified: ADL would also find the vectorized storage::Select/Refine.
  COBRA_ASSIGN_OR_RETURN(std::vector<int64_t> rows,
                         reference::Select(table, preds[0]));
  for (size_t i = 1; i < preds.size() && !rows.empty(); ++i) {
    COBRA_ASSIGN_OR_RETURN(rows, reference::Refine(table, preds[i], rows));
  }
  return rows;
}

Result<Table> HashJoin(const Table& left, const Table& right,
                       const std::string& left_col,
                       const std::string& right_col) {
  COBRA_ASSIGN_OR_RETURN(size_t lcol, left.ColumnIndex(left_col));
  COBRA_ASSIGN_OR_RETURN(size_t rcol, right.ColumnIndex(right_col));
  if (left.schema()[lcol].type != right.schema()[rcol].type) {
    return Status::InvalidArgument("join key types differ");
  }

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

  // Build on the right side, probe with the left (keeps left order).
  std::unordered_map<std::string, std::vector<int64_t>> build;
  for (int64_t r = 0; r < right.num_rows(); ++r) {
    COBRA_ASSIGN_OR_RETURN(Value v, right.GetValue(r, rcol));
    build[ValueToString(v)].push_back(r);
  }
  for (int64_t l = 0; l < left.num_rows(); ++l) {
    COBRA_ASSIGN_OR_RETURN(Value v, left.GetValue(l, lcol));
    auto it = build.find(ValueToString(v));
    if (it == build.end()) continue;
    for (int64_t r : it->second) {
      std::vector<Value> row;
      row.reserve(out.num_columns());
      for (size_t c = 0; c < left.num_columns(); ++c) {
        COBRA_ASSIGN_OR_RETURN(Value lv, left.GetValue(l, c));
        row.push_back(std::move(lv));
      }
      for (size_t c = 0; c < right.num_columns(); ++c) {
        COBRA_ASSIGN_OR_RETURN(Value rv, right.GetValue(r, c));
        row.push_back(std::move(rv));
      }
      COBRA_RETURN_NOT_OK(out.AppendRow(std::move(row)));
    }
  }
  return out;
}

Result<std::vector<int64_t>> OrderBy(const Table& table,
                                     const std::string& column, bool desc,
                                     size_t limit) {
  COBRA_ASSIGN_OR_RETURN(size_t col, table.ColumnIndex(column));
  std::vector<int64_t> rows = AllRows(table.num_rows());
  std::vector<Value> keys;
  keys.reserve(rows.size());
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    COBRA_ASSIGN_OR_RETURN(Value v, table.GetValue(r, col));
    keys.push_back(std::move(v));
  }
  std::stable_sort(rows.begin(), rows.end(), [&](int64_t a, int64_t b) {
    int cmp = CompareValues(keys[static_cast<size_t>(a)],
                            keys[static_cast<size_t>(b)]);
    if (cmp == 0) return a < b;
    return desc ? cmp > 0 : cmp < 0;
  });
  if (limit > 0 && rows.size() > limit) rows.resize(limit);
  return rows;
}

}  // namespace cobra::storage::reference
