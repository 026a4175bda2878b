#include "memo/memo_codegen.h"

#include <cstdio>
#include <sstream>

namespace purec {

namespace {

[[nodiscard]] std::string scalar_type_name(const TypePtr& type) {
  return to_string(type->builtin);
}

enum class WordRepr { Float32, Float64, Integer };

[[nodiscard]] WordRepr word_repr(const TypePtr& type) {
  if (type->builtin == BuiltinKind::Float) return WordRepr::Float32;
  if (type->builtin == BuiltinKind::Double) return WordRepr::Float64;
  return WordRepr::Integer;
}

/// One `PUREC_MEMO_KEY_*` statement folding `expr` into the key and
/// appending its raw word to the thunk's key-word array (verify mode
/// compares those words on a hit).
[[nodiscard]] std::string key_line(const TypePtr& type,
                                   const std::string& expr) {
  switch (word_repr(type)) {
    case WordRepr::Float32:
      return "  PUREC_MEMO_KEY_F32(purec_key, purec_kw, purec_kn, " + expr +
             ");\n";
    case WordRepr::Float64:
      return "  PUREC_MEMO_KEY_F64(purec_key, purec_kw, purec_kn, " + expr +
             ");\n";
    case WordRepr::Integer:
      return "  PUREC_MEMO_KEY_INT(purec_key, purec_kw, purec_kn, " + expr +
             ");\n";
  }
  return {};
}

/// Expression converting the cached 64-bit word back to the result type.
[[nodiscard]] std::string unpack_expr(const TypePtr& type,
                                      const std::string& word) {
  switch (word_repr(type)) {
    case WordRepr::Float32:
      return "PUREC_MEMO_UNPACK_F32(" + word + ")";
    case WordRepr::Float64:
      return "PUREC_MEMO_UNPACK_F64(" + word + ")";
    case WordRepr::Integer:
      return "(" + scalar_type_name(type) + ")(" + word + ")";
  }
  return {};
}

/// Expression packing a result value into the cache's 64-bit word.
[[nodiscard]] std::string pack_expr(const TypePtr& type,
                                    const std::string& value) {
  switch (word_repr(type)) {
    case WordRepr::Float32:
      return "PUREC_MEMO_PACK_F32(" + value + ")";
    case WordRepr::Float64:
      return "PUREC_MEMO_PACK_F64(" + value + ")";
    case WordRepr::Integer:
      return "(purec_memo_word)(" + value + ")";
  }
  return {};
}

[[nodiscard]] std::string signature(const MemoFunctionInfo& info) {
  std::ostringstream out;
  out << "static " << scalar_type_name(info.return_type) << " "
      << memo_thunk_name(info.name) << "(";
  if (info.param_types.empty()) {
    out << "void";
  } else {
    for (std::size_t i = 0; i < info.param_types.size(); ++i) {
      if (i != 0) out << ", ";
      out << scalar_type_name(info.param_types[i]) << " purec_a" << i;
    }
  }
  out << ")";
  return std::move(out).str();
}

}  // namespace

std::string memo_thunk_name(const std::string& function) {
  return "purec_memo_" + function;
}

std::uint64_t memo_function_id(const std::string& function) {
  // FNV-1a, then one mix so short names still spread over shards.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : function) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string memo_thunk_prototype(const MemoFunctionInfo& info) {
  return signature(info) + ";\n";
}

std::string memo_thunk_definition(const MemoFunctionInfo& info) {
  std::ostringstream out;
  char id[32];
  std::snprintf(id, sizeof(id), "0x%016llxULL",
                static_cast<unsigned long long>(
                    memo_function_id(info.name)));
  const std::size_t key_words =
      info.param_types.size() + info.global_snapshot.size();
  const std::string stats = "purec_memo_stats_" + info.name;
  out << "static purec_memo_stats_entry " << stats << " = {\""
      << info.name << "\", 0, 0, 0};\n";
  out << "__attribute__((constructor)) static void " << stats
      << "_register(void) {\n";
  out << "  purec_memo_stats_register(&" << stats << ");\n";
  out << "}\n";
  out << signature(info) << " {\n";
  out << "  purec_memo_word purec_key = " << id << ";\n";
  out << "  purec_memo_word purec_word;\n";
  out << "  purec_memo_word purec_kw["
      << (key_words == 0 ? std::size_t{1} : key_words) << "];\n";
  out << "  unsigned purec_kn = 0;\n";
  out << "  " << scalar_type_name(info.return_type) << " purec_result;\n";
  for (std::size_t i = 0; i < info.param_types.size(); ++i) {
    out << key_line(info.param_types[i], "purec_a" + std::to_string(i));
  }
  for (const auto& [global, type] : info.global_snapshot) {
    out << key_line(type, global);
  }
  out << "  purec_key = purec_memo_mix(purec_key);\n";
  out << "  if (purec_key == 0) purec_key = 1;\n";
  out << "  if (purec_memo_lookup(&purec_memo_tab, purec_key, purec_kw, "
         "purec_kn, &purec_word)) {\n";
  out << "    PUREC_MEMO_STAT_INC(&" << stats << ".hits);\n";
  out << "    return " << unpack_expr(info.return_type, "purec_word")
      << ";\n";
  out << "  }\n";
  out << "  PUREC_MEMO_STAT_INC(&" << stats << ".misses);\n";
  out << "  purec_result = " << info.name << "(";
  for (std::size_t i = 0; i < info.param_types.size(); ++i) {
    if (i != 0) out << ", ";
    out << "purec_a" << i;
  }
  out << ");\n";
  out << "  if (purec_memo_store(&purec_memo_tab, purec_key, purec_kw, "
      << "purec_kn, " << pack_expr(info.return_type, "purec_result")
      << ") == PUREC_MEMO_EVICTED)\n";
  out << "    PUREC_MEMO_STAT_INC(&" << stats << ".evictions);\n";
  out << "  return purec_result;\n";
  out << "}\n";
  return std::move(out).str();
}

}  // namespace purec
