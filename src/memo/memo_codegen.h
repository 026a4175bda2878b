// Emission half of the `--memoize` subsystem: per-function thunk text.
// The concurrent table the thunks call is the `memo` and `memo_program`
// sections of runtime/c/purec_rt.h, which the chain embeds (see
// emit/runtime_sections.h); tests/runtime_test.cpp tests that C directly.
//
// A memoizable call site `f(a, b)` is rewritten to `purec_memo_f(a, b)`;
// the thunk folds the argument bit patterns and the scalar global-read
// snapshot into one 64-bit fingerprint, probes the table, and only falls
// through to the real `f` on a miss. Values travel as bit patterns, so a
// hit returns exactly the bits a miss stored — memoized and unmemoized
// binaries print identical checksums.
//
// Layout in the final C file (see run_pure_chain):
//   [system includes]  [codegen prelude]  [runtime sections]
//   [thunk prototypes] [lowered program]  [thunk definitions]
// Prototypes precede the program (call sites inside it), definitions
// follow it (they reference the wrapped functions and the globals).
#pragma once

#include <cstdint>
#include <string>

#include "memo/memoizable.h"

namespace purec {

/// "purec_memo_" + fn. The prefix is reserved: user identifiers never
/// collide (the mini dialect has no way to spell it accidentally without
/// deliberately opting into the namespace).
[[nodiscard]] std::string memo_thunk_name(const std::string& function);

/// Stable 64-bit id mixed into every key so two functions with equal
/// argument tuples cannot alias (FNV-1a over the name).
[[nodiscard]] std::uint64_t memo_function_id(const std::string& function);

[[nodiscard]] std::string memo_thunk_prototype(const MemoFunctionInfo& info);
[[nodiscard]] std::string memo_thunk_definition(const MemoFunctionInfo& info);

}  // namespace purec
