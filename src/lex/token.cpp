#include "lex/token.h"

#include "lex/dfa_tables.h"

namespace certkit::lex {

bool IsCppKeyword(std::string_view word) {
  return tables::CppKeywordTableContains(word);
}

bool IsCudaKeyword(std::string_view word) {
  return tables::CudaKeywordTableContains(word);
}

}  // namespace certkit::lex
