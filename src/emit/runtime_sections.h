// The runtime the emitted C carries: named sections of
// runtime/c/purec_rt.h, the one C source of the purec runtime.
//
// The build embeds the header's text as a string (src/CMakeLists.txt), so
// purecc output stays self-contained and never drifts from the header.
// Each section runs from its `/* purec-rt:begin NAME */` line through its
// `/* purec-rt:end NAME */` line; the chain copies whole sections,
// markers included, and only the ones a program uses:
//   stats         purec_stats_out(), the shared exit-dump stream
//   hist          histogram cell math and percentiles
//   trace         cooperative Chrome-trace array append
//   memo          the concurrent memo table
//   memo_program  the emitted table, its knobs, thunk key/pack macros
//   instrument    --instrument counters and exit dump (needs stats, hist
//                 and trace)
#pragma once

#include <string>
#include <string_view>

namespace purec {

/// The full text of runtime/c/purec_rt.h as built into this binary.
[[nodiscard]] std::string_view runtime_header_text();

/// Section `name`, begin and end marker lines included, newline
/// terminated. Empty when the header has no such section.
[[nodiscard]] const std::string& runtime_section(std::string_view name);

}  // namespace purec
