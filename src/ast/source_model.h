// certkit ast: the source model produced by the fuzzy parser.
//
// The parser is deliberately *fuzzy* in the tradition of Lizard and other
// lightweight analyzers: it recognizes the structural skeleton of C/C++/CUDA
// translation units (namespaces, types, function definitions, file-scope
// variables, casts) from the raw token stream without preprocessing or
// semantic analysis. It tolerates and skips constructs it does not
// understand. This matches the tooling used in the paper and makes the
// analyzer usable on arbitrary, unbuildable source snapshots.
#ifndef CERTKIT_AST_SOURCE_MODEL_H_
#define CERTKIT_AST_SOURCE_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "lex/token.h"

namespace certkit::ast {

struct ParamModel {
  std::string type_text;  // e.g. "const std::string &"
  std::string name;       // may be empty (unnamed parameter)
};

struct FunctionModel {
  std::string name;            // unqualified; "operator+" for operators
  std::string qualified_name;  // scope-qualified, e.g. "ns::Class::name"
  std::vector<ParamModel> params;
  std::int32_t start_line = 0;  // line of the first signature token
  std::int32_t end_line = 0;    // line of the closing brace
  // Token index ranges into LexedFile::tokens:
  std::size_t sig_begin = 0;   // first token of the declarator run
  std::size_t lparen = 0;      // index of the parameter-list '('
  std::size_t body_begin = 0;  // index of '{'
  std::size_t body_end = 0;    // index of matching '}' (inclusive)
  bool returns_void = false;   // declared return type is plain `void`
  bool is_method = false;       // defined lexically inside a class/struct
  bool is_cuda_kernel = false;  // declared __global__
  bool is_cuda_device = false;  // declared __device__
  bool is_static = false;
};

enum class TypeKind { kClass, kStruct, kUnion, kEnum };

struct TypeModel {
  TypeKind kind = TypeKind::kClass;
  std::string name;
  std::string qualified_name;
  std::int32_t line = 0;
  std::int32_t method_count = 0;       // member functions defined inline
  std::int32_t field_count = 0;        // data members (heuristic)
  std::int32_t public_method_count = 0;
};

struct GlobalVarModel {
  std::string name;
  std::string qualified_name;
  std::int32_t line = 0;
  bool is_static = false;     // internal linkage
  bool is_const = false;      // const/constexpr (not counted as mutable state)
  bool is_extern_decl = false;
  bool has_initializer = false;
};

enum class CastKind {
  kStaticCast,
  kDynamicCast,
  kReinterpretCast,
  kConstCast,
  kCStyle,       // (T)expr — heuristic detection
  kFunctional,   // T(expr) for fundamental types, e.g. int(x)
};

struct CastModel {
  CastKind kind = CastKind::kStaticCast;
  std::int32_t line = 0;
  std::string target_text;  // best-effort text of the target type
};

struct MacroModel {
  std::string name;
  std::int32_t line = 0;
  bool function_like = false;
};

// Parse result for one translation unit. Owns the lexed token stream that the
// token-index ranges in FunctionModel refer to.
struct SourceFileModel {
  std::string path;
  lex::LexedFile lexed;
  std::vector<FunctionModel> functions;   // definitions only
  std::vector<TypeModel> types;
  std::vector<GlobalVarModel> globals;    // namespace/file-scope variables
  std::vector<CastModel> casts;
  std::vector<MacroModel> macros;
  std::vector<std::string> includes;      // include targets, as written
  std::int32_t using_namespace_count = 0;
  std::int32_t typedef_count = 0;  // typedef + alias using
};

}  // namespace certkit::ast

#endif  // CERTKIT_AST_SOURCE_MODEL_H_
