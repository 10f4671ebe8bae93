#include "metrics/function_metrics.h"

#include <algorithm>
#include <unordered_set>

#include "support/check.h"

namespace certkit::metrics {

namespace {

using lex::Token;
using lex::TokenKind;

bool IsDecisionToken(const Token& t) {
  if (t.kind == TokenKind::kKeyword) {
    return t.text == "if" || t.text == "for" || t.text == "while" ||
           t.text == "case" || t.text == "catch";
  }
  if (t.kind == TokenKind::kPunct) {
    return t.text == "&&" || t.text == "||" || t.text == "?";
  }
  return false;
}

}  // namespace

FunctionMetrics ComputeFunctionMetrics(const ast::SourceFileModel& file,
                                       const ast::FunctionModel& fn) {
  const auto& toks = file.lexed.tokens;
  CERTKIT_CHECK(fn.body_begin < toks.size());
  CERTKIT_CHECK(fn.body_end < toks.size());
  CERTKIT_CHECK(fn.body_begin <= fn.body_end);

  FunctionMetrics m;
  m.name = fn.name;
  m.qualified_name = fn.qualified_name;
  m.start_line = fn.start_line;
  m.end_line = fn.end_line;
  m.param_count = static_cast<std::int32_t>(fn.params.size());
  m.token_count =
      static_cast<std::int32_t>(fn.body_end - fn.sig_begin + 1);

  // Views into the file's token storage; valid for this function's scope.
  std::unordered_set<std::string_view> callees;
  std::int32_t last_code_line = -1;
  int depth = 0;

  for (std::size_t i = fn.body_begin; i <= fn.body_end; ++i) {
    const Token& t = toks[i];

    if (t.line != last_code_line) {
      ++m.nloc;
      last_code_line = t.line;
    }

    if (t.IsPunct("{")) {
      ++depth;
      m.max_nesting_depth = std::max(m.max_nesting_depth, depth - 1);
    } else if (t.IsPunct("}")) {
      --depth;
    }

    if (IsDecisionToken(t)) {
      ++m.cyclomatic_complexity;
    }
    if (t.IsKeyword("return")) ++m.return_count;
    if (t.IsKeyword("goto")) ++m.goto_count;

    if (t.IsIdentifier() && i + 1 <= fn.body_end &&
        toks[i + 1].IsPunct("(")) {
      callees.insert(t.text);
      if (t.text == fn.name) m.is_recursive_direct = true;
    }
  }

  m.callees.reserve(callees.size());
  for (std::string_view callee : callees) m.callees.emplace_back(callee);
  std::sort(m.callees.begin(), m.callees.end());
  return m;
}

ComplexityBand BandOf(std::int32_t cc) {
  if (cc <= 10) return ComplexityBand::kLow;
  if (cc <= 20) return ComplexityBand::kModerate;
  if (cc <= 50) return ComplexityBand::kRisky;
  return ComplexityBand::kUnstable;
}

}  // namespace certkit::metrics
