#include "lex/dfa_tables.h"

#include "support/fnv.h"

namespace certkit::lex::tables {

namespace {

constexpr std::array<std::uint8_t, 256> BuildCharClass() {
  std::array<std::uint8_t, 256> t{};
  for (int i = 0; i < 256; ++i) t[i] = kClOther;
  t[' '] = t['\t'] = t['\r'] = t['\v'] = t['\f'] = kClWs;
  t['\n'] = kClNl;
  t['0'] = kClZero;
  t['1'] = kClOne;
  for (char c = '2'; c <= '9'; ++c) t[static_cast<unsigned char>(c)] = kClDec;
  for (char c : {'a', 'c', 'd', 'A', 'C', 'D'}) {
    t[static_cast<unsigned char>(c)] = kClHexOnly;
  }
  t['b'] = t['B'] = kClB;
  t['e'] = t['E'] = kClE;
  t['f'] = t['F'] = kClF;
  t['p'] = t['P'] = kClP;
  t['x'] = t['X'] = kClX;
  t['u'] = t['U'] = t['l'] = t['L'] = kClUL;
  t['z'] = t['Z'] = kClZ;
  for (char c = 'a'; c <= 'z'; ++c) {
    unsigned char u = static_cast<unsigned char>(c);
    if (t[u] == kClOther) t[u] = kClIdent;
  }
  for (char c = 'A'; c <= 'Z'; ++c) {
    unsigned char u = static_cast<unsigned char>(c);
    if (t[u] == kClOther) t[u] = kClIdent;
  }
  t['_'] = kClIdent;
  t['+'] = t['-'] = kClSign;
  t['.'] = kClDot;
  t['\''] = kClSquote;
  t['"'] = kClDquote;
  t['/'] = kClSlash;
  t['\\'] = kClBackslash;
  t['#'] = kClHash;
  return t;
}

using DfaRow = std::array<std::uint8_t, kClassCount>;
using DfaTable = std::array<DfaRow, kStateCount>;

constexpr DfaTable BuildTokenDfa() {
  DfaTable t{};  // zero-initialized: every transition defaults to kStEnd

  // Identifier: any identifier-continuation character keeps the state.
  for (std::uint8_t cls = 0; cls < kClassCount; ++cls) {
    if (IsIdentContClass(cls)) t[kStIdent][cls] = kStIdent;
  }

  auto set = [&t](DfaState st, std::initializer_list<CharClass> classes,
                  DfaState next) {
    for (CharClass cls : classes) t[st][cls] = next;
  };

  // Decimal: digits and separators, at most one '.', one e/E exponent with
  // an optional sign, then a suffix run over {u U l L f F z Z}.
  set(kStDec, {kClZero, kClOne, kClDec, kClSquote}, kStDec);
  set(kStDec, {kClDot}, kStFrac);
  set(kStDec, {kClE}, kStExp1);
  set(kStDec, {kClUL, kClF, kClZ}, kStDSuf);

  set(kStFrac, {kClZero, kClOne, kClDec, kClSquote}, kStFrac);
  set(kStFrac, {kClE}, kStExp1);
  set(kStFrac, {kClUL, kClF, kClZ}, kStDSuf);

  set(kStExp1, {kClSign}, kStExpD);
  set(kStExp1, {kClZero, kClOne, kClDec}, kStExpD);
  set(kStExp1, {kClUL, kClF, kClZ}, kStDSuf);

  set(kStExpD, {kClZero, kClOne, kClDec}, kStExpD);
  set(kStExpD, {kClUL, kClF, kClZ}, kStDSuf);

  set(kStDSuf, {kClUL, kClF, kClZ}, kStDSuf);

  // Hex (0x consumed by the dispatcher): hex digits, separators, and dots
  // all stay; p/P opens a hex-float exponent; suffixes exclude z/Z.
  set(kStHex,
      {kClZero, kClOne, kClDec, kClHexOnly, kClB, kClE, kClF, kClSquote,
       kClDot},
      kStHex);
  set(kStHex, {kClP}, kStHexE1);
  set(kStHex, {kClUL}, kStHSuf);

  set(kStHexE1, {kClSign}, kStHexED);
  set(kStHexE1, {kClZero, kClOne, kClDec}, kStHexED);
  set(kStHexE1, {kClUL, kClF}, kStHSuf);

  set(kStHexED, {kClZero, kClOne, kClDec}, kStHexED);
  set(kStHexED, {kClUL, kClF}, kStHSuf);

  set(kStHSuf, {kClUL, kClF}, kStHSuf);

  // Binary (0b consumed by the dispatcher): 0/1/' stay; decimal suffixes.
  set(kStBin, {kClZero, kClOne, kClSquote}, kStBin);
  set(kStBin, {kClUL, kClF, kClZ}, kStDSuf);

  return t;
}

// Multi-character punctuators grouped by lead character. Within each group
// the order matches the reference lexer's kMultiPunct scan order, so maximal
// munch resolves identically (e.g. for '<': "<<=" before "<=>" before "<<"
// before "<=").
constexpr std::array<std::string_view, 27> kPunctTableInit = {
    "<<=", "<=>", "<<", "<=",   // '<'  [0..3]
    ">>=", ">>",  ">=",         // '>'  [4..6]
    "...", ".*",                // '.'  [7..8]
    "->*", "->",  "--", "-=",   // '-'  [9..12]
    "::",                       // ':'  [13]
    "++",  "+=",                // '+'  [14..15]
    "==",                       // '='  [16]
    "!=",                       // '!'  [17]
    "&&",  "&=",                // '&'  [18..19]
    "||",  "|=",                // '|'  [20..21]
    "*=",                       // '*'  [22]
    "/=",                       // '/'  [23]
    "%=",                       // '%'  [24]
    "^=",                       // '^'  [25]
    "##",                       // '#'  [26]
};

constexpr std::array<PunctGroup, 256> BuildPunctIndex() {
  std::array<PunctGroup, 256> idx{};
  for (std::uint8_t i = 0; i < kPunctTableInit.size(); ++i) {
    const unsigned char lead =
        static_cast<unsigned char>(kPunctTableInit[i].front());
    if (idx[lead].count == 0) idx[lead].offset = i;
    ++idx[lead].count;
  }
  return idx;
}

// A frozen open-addressing hash set: support::FnvStr modulo a power-of-two
// capacity, linear probing, built entirely at compile time. An empty
// string_view marks a vacant slot (no keyword is empty).
template <std::size_t Capacity>
struct FrozenStringSet {
  static_assert((Capacity & (Capacity - 1)) == 0, "capacity must be 2^k");
  std::array<std::string_view, Capacity> slots{};

  template <std::size_t N>
  constexpr explicit FrozenStringSet(
      const std::array<std::string_view, N>& words) {
    static_assert(N * 5 <= Capacity * 2, "load factor must stay under 0.4");
    for (std::string_view w : words) {
      std::size_t i = support::FnvStr(w) & (Capacity - 1);
      while (!slots[i].empty()) i = (i + 1) & (Capacity - 1);
      slots[i] = w;
    }
  }

  constexpr bool Contains(std::string_view w) const {
    std::size_t i = support::FnvStr(w) & (Capacity - 1);
    while (!slots[i].empty()) {
      if (slots[i] == w) return true;
      i = (i + 1) & (Capacity - 1);
    }
    return false;
  }
};

// C++20 keyword set, plus the C99/C11 spellings that appear in mixed C/C++
// automotive codebases. Identical contents to the seed lexer's set.
constexpr std::array<std::string_view, 93> kCppKeywords = {
    "alignas", "alignof", "and", "and_eq", "asm", "auto", "bitand", "bitor",
    "bool", "break", "case", "catch", "char", "char8_t", "char16_t",
    "char32_t", "class", "compl", "concept", "const", "consteval",
    "constexpr", "constinit", "const_cast", "continue", "co_await",
    "co_return", "co_yield", "decltype", "default", "delete", "do",
    "double", "dynamic_cast", "else", "enum", "explicit", "export",
    "extern", "false", "float", "for", "friend", "goto", "if", "inline",
    "int", "long", "mutable", "namespace", "new", "noexcept", "not",
    "not_eq", "nullptr", "operator", "or", "or_eq", "private", "protected",
    "public", "register", "reinterpret_cast", "requires", "return", "short",
    "signed", "sizeof", "static", "static_assert", "static_cast", "struct",
    "switch", "template", "this", "thread_local", "throw", "true", "try",
    "typedef", "typeid", "typename", "union", "unsigned", "using",
    "virtual", "void", "volatile", "wchar_t", "while",
    "restrict", "_Bool", "_Static_assert",
};

constexpr std::array<std::string_view, 9> kCudaKeywords = {
    "__global__",   "__device__",  "__host__",     "__shared__",
    "__constant__", "__managed__", "__restrict__", "__forceinline__",
    "__launch_bounds__",
};

constexpr FrozenStringSet<256> kCppKeywordSet(kCppKeywords);
constexpr FrozenStringSet<32> kCudaKeywordSet(kCudaKeywords);

}  // namespace

const std::array<std::uint8_t, 256> kCharClass = BuildCharClass();
const std::array<std::array<std::uint8_t, kClassCount>, kStateCount>
    kTokenDfa = BuildTokenDfa();
const std::array<std::string_view, 27> kPunctTable = kPunctTableInit;
const std::array<PunctGroup, 256> kPunctIndex = BuildPunctIndex();

bool CppKeywordTableContains(std::string_view word) {
  return kCppKeywordSet.Contains(word);
}

bool CudaKeywordTableContains(std::string_view word) {
  return kCudaKeywordSet.Contains(word);
}

}  // namespace certkit::lex::tables
