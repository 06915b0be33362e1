#include "engine/query_language.h"

#include <cctype>
#include <charconv>
#include <cstring>

#include "util/strings.h"

namespace cobra::engine {

namespace {

/// Splits on a top-level, case-insensitive " AND " (quotes respected).
std::vector<std::string> SplitConditions(const std::string& input) {
  std::vector<std::string> out;
  std::string current;
  bool in_quotes = false;
  for (size_t i = 0; i < input.size(); ++i) {
    if (input[i] == '"' || input[i] == '\'') in_quotes = !in_quotes;
    bool is_and = false;
    if (!in_quotes && (i == 0 || std::isspace(static_cast<unsigned char>(input[i - 1])))) {
      std::string word = ToLowerAscii(input.substr(i, 4));
      if (word == "and " || (input.size() - i == 3 && ToLowerAscii(input.substr(i)) == "and")) {
        is_and = true;
      }
    }
    if (is_and) {
      out.push_back(current);
      current.clear();
      i += 3;  // skip "and" (the following space is consumed by strip)
    } else {
      current += input[i];
    }
  }
  out.push_back(current);
  return out;
}

Result<storage::CompareOp> ParseOp(const std::string& op) {
  if (op == "=" || op == "==") return storage::CompareOp::kEq;
  if (op == "!=") return storage::CompareOp::kNe;
  if (op == "<") return storage::CompareOp::kLt;
  if (op == "<=") return storage::CompareOp::kLe;
  if (op == ">") return storage::CompareOp::kGt;
  if (op == ">=") return storage::CompareOp::kGe;
  if (op == "~") return storage::CompareOp::kContains;
  return Status::ParseError(StringFormat("unknown operator '%s'", op.c_str()));
}

std::string Unquote(std::string s) {
  if (s.size() >= 2 && ((s.front() == '"' && s.back() == '"') ||
                        (s.front() == '\'' && s.back() == '\''))) {
    return s.substr(1, s.size() - 2);
  }
  return s;
}

bool IsInteger(const std::string& s) {
  if (s.empty()) return false;
  size_t start = (s[0] == '-') ? 1 : 0;
  if (start == s.size()) return false;
  for (size_t i = start; i < s.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(s[i]))) return false;
  }
  return true;
}

/// The value of an IsInteger literal; ParseError when it lies outside
/// int64 (no literal wraps or saturates into another value).
Result<int64_t> ToInt64(const std::string& s) {
  int64_t value = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc() || end != s.data() + s.size()) {
    return Status::ParseError(
        StringFormat("integer '%s' is outside the 64-bit range", s.c_str()));
  }
  return value;
}

/// Splits one condition into lhs / op / rhs.
Status SplitCondition(const std::string& condition, std::string* lhs,
                      std::string* op, std::string* rhs) {
  static const char* kOps[] = {"<=", ">=", "!=", "==", "=", "<", ">", "~"};
  for (const char* candidate : kOps) {
    size_t pos = condition.find(candidate);
    if (pos == std::string::npos) continue;
    *lhs = std::string(StripWhitespace(condition.substr(0, pos)));
    *op = candidate;
    *rhs = std::string(
        StripWhitespace(condition.substr(pos + std::strlen(candidate))));
    if (lhs->empty() || rhs->empty()) {
      return Status::ParseError(
          StringFormat("incomplete condition '%s'", condition.c_str()));
    }
    return Status::OK();
  }
  return Status::ParseError(
      StringFormat("no operator in condition '%s'", condition.c_str()));
}

}  // namespace

Result<CombinedQuery> ParseQuery(const std::string& input) {
  if (StripWhitespace(input).empty()) {
    return Status::ParseError("empty query");
  }
  CombinedQuery query;
  for (const std::string& raw : SplitConditions(input)) {
    std::string condition{StripWhitespace(raw)};
    if (condition.empty()) {
      return Status::ParseError("empty condition (dangling AND?)");
    }
    std::string lhs, op, rhs;
    COBRA_RETURN_NOT_OK(SplitCondition(condition, &lhs, &op, &rhs));
    std::string lhs_lower = ToLowerAscii(lhs);
    rhs = Unquote(rhs);

    if (lhs_lower == "text") {
      if (op != "~") {
        return Status::ParseError("text condition requires '~'");
      }
      query.text = rhs;
      continue;
    }
    if (lhs_lower == "event") {
      if (op != "=" && op != "==") {
        return Status::ParseError("event condition requires '='");
      }
      query.event = ToLowerAscii(rhs);
      continue;
    }
    if (lhs_lower == "won") {
      if (ToLowerAscii(rhs) != "any") {
        return Status::ParseError("use 'won = any' or 'won.year = <N>'");
      }
      query.require_champion = true;
      continue;
    }
    if (lhs_lower == "won.year") {
      if (!IsInteger(rhs)) {
        return Status::ParseError(
            StringFormat("won.year needs an integer, got '%s'", rhs.c_str()));
      }
      query.require_champion = true;
      COBRA_ASSIGN_OR_RETURN(query.won_year, ToInt64(rhs));
      continue;
    }
    if (lhs_lower == "similar_to") {
      if (op != "=" && op != "==") {
        return Status::ParseError("similar_to condition requires '='");
      }
      const size_t colon = rhs.find(':');
      std::string video = colon == std::string::npos ? rhs : rhs.substr(0, colon);
      std::string frame = colon == std::string::npos ? "" : rhs.substr(colon + 1);
      if (colon == std::string::npos || !IsInteger(video) ||
          !IsInteger(frame)) {
        return Status::ParseError(StringFormat(
            "similar_to needs '<video>:<frame>', got '%s'", rhs.c_str()));
      }
      COBRA_ASSIGN_OR_RETURN(query.similar_video, ToInt64(video));
      COBRA_ASSIGN_OR_RETURN(query.similar_frame, ToInt64(frame));
      if (query.similar_video < 0 || query.similar_frame < 0) {
        return Status::ParseError("similar_to video and frame must be >= 0");
      }
      continue;
    }
    if (lhs_lower == "similar_to.k") {
      const Status not_positive = Status::ParseError(StringFormat(
          "similar_to.k needs a positive integer, got '%s'", rhs.c_str()));
      if (!IsInteger(rhs)) return not_positive;
      COBRA_ASSIGN_OR_RETURN(const int64_t k, ToInt64(rhs));
      if (k <= 0) return not_positive;
      query.similar_k = static_cast<size_t>(k);
      continue;
    }
    if (StartsWith(lhs_lower, "player.")) {
      COBRA_ASSIGN_OR_RETURN(storage::CompareOp compare_op, ParseOp(op));
      if (compare_op == storage::CompareOp::kContains) {
        return Status::ParseError("'~' applies to text conditions only");
      }
      storage::Predicate pred;
      pred.column = lhs_lower.substr(7);
      pred.op = compare_op;
      if (IsInteger(rhs)) {
        COBRA_ASSIGN_OR_RETURN(pred.literal, ToInt64(rhs));
      } else {
        pred.literal = ToLowerAscii(rhs);
      }
      query.player_predicates.push_back(std::move(pred));
      continue;
    }
    return Status::ParseError(
        StringFormat("unknown condition subject '%s'", lhs.c_str()));
  }
  if (query.similar_k > 0 && query.similar_video < 0) {
    return Status::ParseError("similar_to.k requires a similar_to condition");
  }
  return query;
}

std::string FormatQuery(const CombinedQuery& query) {
  std::vector<std::string> parts;
  for (const storage::Predicate& pred : query.player_predicates) {
    const char* op = "=";
    switch (pred.op) {
      case storage::CompareOp::kEq:
        op = "=";
        break;
      case storage::CompareOp::kNe:
        op = "!=";
        break;
      case storage::CompareOp::kLt:
        op = "<";
        break;
      case storage::CompareOp::kLe:
        op = "<=";
        break;
      case storage::CompareOp::kGt:
        op = ">";
        break;
      case storage::CompareOp::kGe:
        op = ">=";
        break;
      case storage::CompareOp::kContains:
        op = "~";
        break;
    }
    parts.push_back(StringFormat("player.%s %s %s", pred.column.c_str(), op,
                                 storage::ValueToString(pred.literal).c_str()));
  }
  if (query.won_year >= 0) {
    parts.push_back(StringFormat("won.year = %lld",
                                 static_cast<long long>(query.won_year)));
  } else if (query.require_champion) {
    parts.push_back("won = any");
  }
  if (!query.event.empty()) {
    parts.push_back(StringFormat("event = %s", query.event.c_str()));
  }
  if (query.similar_video >= 0) {
    parts.push_back(StringFormat("similar_to = %lld:%lld",
                                 static_cast<long long>(query.similar_video),
                                 static_cast<long long>(query.similar_frame)));
    if (query.similar_k > 0) {
      parts.push_back(StringFormat("similar_to.k = %zu", query.similar_k));
    }
  }
  if (!query.text.empty()) {
    parts.push_back(StringFormat("text ~ \"%s\"", query.text.c_str()));
  }
  return JoinStrings(parts, " AND ");
}

}  // namespace cobra::engine
