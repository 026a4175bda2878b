// Tests of the cooperative Chrome-trace append (PUREC_TRACE) of the runtime
// the emitted C carries, src/runtime/c/purec_rt.h: dumps of several
// instrumented processes land in one JSON array through purec_trace_open.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "runtime/c/purec_rt.h"
#include "support/json.h"

namespace purec {
namespace {

std::string read_file(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return {};
  std::string text;
  char buffer[4096];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof buffer, file)) > 0) {
    text.append(buffer, got);
  }
  std::fclose(file);
  return text;
}

void write_file(const std::string& path, const std::string& text) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  ASSERT_NE(file, nullptr) << path;
  std::fwrite(text.data(), 1, text.size(), file);
  std::fclose(file);
}

/// One dump the way the emitted --instrument runtime writes it: open
/// through purec_trace_open, '[' or ',' by its verdict, events, "\n]\n".
int dump_one(const std::string& path, const char* process) {
  int first = -1;
  std::FILE* out = purec_trace_open(path.c_str(), &first);
  if (out == nullptr) return -1;
  std::fputc(first ? '[' : ',', out);
  std::fprintf(out,
               "\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
               "\"args\":{\"name\":\"%s\"}}",
               process);
  std::fprintf(out,
               ",\n{\"name\":\"r:1\",\"cat\":\"region\",\"ph\":\"X\","
               "\"pid\":1,\"tid\":1,\"ts\":0,\"dur\":1,"
               "\"args\":{\"region_id\":0}}");
  std::fprintf(out, "\n]\n");
  std::fclose(out);
  return first;
}

TEST(PurecTrace, TwoDumpsAppendIntoOneArray) {
  const std::string path = ::testing::TempDir() + "purec_trace_append.json";
  std::remove(path.c_str());
  EXPECT_EQ(dump_one(path, "first"), 1) << "a missing file starts an array";
  const std::string once = read_file(path);
  ASSERT_FALSE(once.empty());
  EXPECT_EQ(once.front(), '[');
  // The second dump lands on the first one's closing bracket and turns
  // it into a separator, so the array keeps growing.
  EXPECT_EQ(dump_one(path, "second"), 0);
  const std::string merged = read_file(path);
  EXPECT_GT(merged.size(), once.size());
  std::string error;
  const auto parsed = json::parse(merged, &error);
  ASSERT_TRUE(parsed.has_value()) << error << "\n" << merged;
  ASSERT_NE(parsed->as_array(), nullptr);
  EXPECT_EQ(parsed->as_array()->size(), 4u);
  EXPECT_NE(merged.find("\"first\""), std::string::npos);
  EXPECT_NE(merged.find("\"second\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(PurecTrace, EmptyOrForeignFilesStartAFreshArray) {
  const std::string path = ::testing::TempDir() + "purec_trace_fresh.json";
  // An empty file starts a new array.
  write_file(path, "");
  EXPECT_EQ(dump_one(path, "fresh"), 1);
  std::string error;
  EXPECT_TRUE(json::parse(read_file(path), &error).has_value()) << error;
  // A tail that is not ']' is never rewritten: the dump is appended
  // after it as a fresh array, and the foreign bytes stay intact.
  write_file(path, "not a trace");
  EXPECT_EQ(dump_one(path, "after"), 1);
  const std::string text = read_file(path);
  EXPECT_EQ(text.rfind("not a trace[", 0), 0u) << text;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace purec
