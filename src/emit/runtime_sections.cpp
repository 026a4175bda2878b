#include "emit/runtime_sections.h"

#include <map>

namespace purec {

namespace {

/// Splits the header into its bracketed sections, once.
std::map<std::string, std::string, std::less<>> parse_sections() {
  constexpr std::string_view kBegin = "/* purec-rt:begin ";
  const std::string_view text = runtime_header_text();
  std::map<std::string, std::string, std::less<>> sections;
  std::size_t at = 0;
  while ((at = text.find(kBegin, at)) != std::string_view::npos) {
    const std::size_t name_end = text.find(" */", at);
    const std::string name(
        text.substr(at + kBegin.size(), name_end - at - kBegin.size()));
    const std::string end_marker = "/* purec-rt:end " + name + " */\n";
    const std::size_t end = text.find(end_marker, name_end);
    if (end == std::string_view::npos) break;
    sections[name] =
        std::string(text.substr(at, end + end_marker.size() - at));
    at = end + end_marker.size();
  }
  return sections;
}

}  // namespace

const std::string& runtime_section(std::string_view name) {
  static const auto sections = parse_sections();
  static const std::string empty;
  const auto it = sections.find(name);
  return it == sections.end() ? empty : it->second;
}

}  // namespace purec
