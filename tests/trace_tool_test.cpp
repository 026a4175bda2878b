// The `purecc trace` machinery: the strict JSON parser it ingests traces
// with, the event aggregation + report join in analyze_trace, and the
// --diff regression gate's threshold arithmetic (the edges matter — a CI
// gate that flags at-threshold noise or misses just-past-threshold
// regressions is worse than none).
#include "tools/trace_analysis.h"

#include <gtest/gtest.h>

#include <string>

#include "support/json.h"

namespace purec::tools {
namespace {

json::Value parse_or_die(const std::string& text) {
  std::string error;
  std::optional<json::Value> v = json::parse(text, &error);
  EXPECT_TRUE(v.has_value()) << error << "\nin: " << text;
  return v.has_value() ? *v : json::Value();
}

// ---------------------------------------------------------------------------
// json::parse
// ---------------------------------------------------------------------------

TEST(JsonParse, ScalarsAndContainers) {
  EXPECT_TRUE(parse_or_die("null").is_null());
  EXPECT_TRUE(parse_or_die("true").as_bool());
  EXPECT_EQ(parse_or_die("-42").as_int(), -42);
  EXPECT_DOUBLE_EQ(parse_or_die("2.5e2").as_double(), 250.0);
  EXPECT_EQ(parse_or_die("\"hi\"").as_string(), "hi");
  const json::Value arr = parse_or_die("[1, [2, 3], {}]");
  ASSERT_NE(arr.as_array(), nullptr);
  EXPECT_EQ(arr.as_array()->size(), 3u);
  const json::Value obj = parse_or_die("{\"a\": {\"b\": 7}}");
  ASSERT_NE(obj.find("a"), nullptr);
  EXPECT_EQ(obj.find("a")->find("b")->as_int(), 7);
}

TEST(JsonParse, IntegersStayIntegersDoublesBecomeDoubles) {
  // Large trace timestamps must survive without double rounding.
  EXPECT_EQ(parse_or_die("9007199254740993").as_int(), 9007199254740993);
  EXPECT_DOUBLE_EQ(parse_or_die("1.5").as_double(), 1.5);
  EXPECT_DOUBLE_EQ(parse_or_die("1e3").as_double(), 1000.0);
}

TEST(JsonParse, StringEscapesIncludingSurrogatePairs) {
  EXPECT_EQ(parse_or_die(R"("a\"b\\c\n\t")").as_string(), "a\"b\\c\n\t");
  EXPECT_EQ(parse_or_die(R"("\u0041")").as_string(), "A");
  // U+1F600 as a surrogate pair -> 4-byte UTF-8.
  EXPECT_EQ(parse_or_die(R"("\uD83D\uDE00")").as_string(),
            "\xF0\x9F\x98\x80");
}

TEST(JsonParse, RejectsMalformedInputWithAnOffset) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "tru", "\"unterminated",
        "[1] trailing", "{\"a\" 1}", "\"bad \\x escape\"",
        "\"bad hex \\uZZZZ\""}) {
    std::string error;
    EXPECT_FALSE(json::parse(bad, &error).has_value()) << bad;
    EXPECT_NE(error.find("at byte"), std::string::npos) << bad;
  }
}

TEST(JsonParse, RejectsPathologicalNesting) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  std::string error;
  EXPECT_FALSE(json::parse(deep, &error).has_value());
}

// ---------------------------------------------------------------------------
// analyze_trace
// ---------------------------------------------------------------------------

// A mixed two-runtime trace: emitted-C region on pid 1 (X + C counter
// events), runtime chunk/steal/barrier/memo events on pid 2 that carry
// only the region_id, plus an overflow marker.
const char* kMixedTrace = R"json([
  {"name":"process_name","ph":"M","pid":1,"args":{"name":"purec-instr"}},
  {"name":"heat:12","cat":"region","ph":"X","pid":1,"tid":1,
   "ts":0.0,"dur":2000.0,"args":{"region_id":0}},
  {"name":"heat:12 chunks","cat":"chunk","ph":"C","pid":1,"tid":1,
   "ts":2000.0,"args":{"region_id":0,"w0":3,"w1":1}},
  {"name":"chunk","cat":"chunk","ph":"X","pid":2,"tid":0,
   "ts":100.0,"dur":300.0,"args":{"region_id":0}},
  {"name":"chunk","cat":"chunk","ph":"X","pid":2,"tid":1,
   "ts":100.0,"dur":100.0,"args":{"region_id":0}},
  {"name":"steal","cat":"steal","ph":"i","pid":2,"tid":1,"ts":150.0,
   "s":"t","args":{"region_id":0,"victim":0}},
  {"name":"barrier_park","cat":"barrier","ph":"X","pid":2,"tid":2,
   "ts":0.0,"dur":500.0,"args":{}},
  {"name":"memo_hit","cat":"memo","ph":"X","pid":2,"tid":0,
   "ts":10.0,"dur":1.0,"args":{}},
  {"name":"memo_miss","cat":"memo","ph":"X","pid":2,"tid":0,
   "ts":20.0,"dur":2.0,"args":{}},
  {"name":"purec: trace ring overflow","ph":"i","pid":2,"tid":0,
   "ts":999.0,"s":"g","args":{"dropped":5}}
])json";

const char* kReportV3 = R"json({
  "report_version": 3,
  "scops": [{
    "region_id": 0,
    "function": "heat",
    "location": {"line": 12},
    "parallelized": true,
    "schedule_clause": "schedule(dynamic, 16)",
    "tiled": false
  }]
})json";

TEST(AnalyzeTrace, MergesBothRuntimesIntoOneRegionRow) {
  const json::Value trace = parse_or_die(kMixedTrace);
  std::string error;
  const auto summary = analyze_trace(trace, nullptr, &error);
  ASSERT_TRUE(summary.has_value()) << error;
  // The pid-2 chunk/steal rows (known only as "region 0") must fold into
  // the named pid-1 row sharing the region id.
  ASSERT_EQ(summary->regions.size(), 1u);
  const RegionTrace& region = summary->regions.begin()->second;
  EXPECT_EQ(region.name, "heat:12");
  EXPECT_EQ(region.region_id, 0);
  EXPECT_EQ(region.executions, 1u);
  EXPECT_DOUBLE_EQ(region.wall_us, 2000.0);
  // 2 pid-2 chunk events + 4 counted in the emitted-C C event.
  EXPECT_EQ(region.chunk_events, 6u);
  EXPECT_EQ(region.steals, 1u);
  EXPECT_EQ(summary->barrier_parks, 1u);
  EXPECT_DOUBLE_EQ(summary->barrier_park_us, 500.0);
  EXPECT_EQ(summary->memo_hits, 1u);
  EXPECT_EQ(summary->memo_misses, 1u);
  EXPECT_EQ(summary->dropped, 5u);
}

TEST(AnalyzeTrace, JoinsTheReportByRegionId) {
  const json::Value trace = parse_or_die(kMixedTrace);
  const json::Value report = parse_or_die(kReportV3);
  const auto summary = analyze_trace(trace, &report);
  ASSERT_TRUE(summary.has_value());
  EXPECT_EQ(summary->report_version, 3);
  const RegionTrace& region = summary->regions.begin()->second;
  EXPECT_TRUE(region.in_report);
  EXPECT_TRUE(region.parallelized);
  EXPECT_EQ(region.schedule_clause, "schedule(dynamic, 16)");
  const std::string text = render_trace_summary(*summary);
  EXPECT_NE(text.find("heat:12"), std::string::npos) << text;
  EXPECT_NE(text.find("schedule(dynamic, 16)"), std::string::npos) << text;
  EXPECT_NE(text.find("steal_ratio="), std::string::npos) << text;
  EXPECT_NE(text.find("dropped events=5"), std::string::npos) << text;
  // A v3 report states no collapse depth: the schedule line shows none.
  EXPECT_EQ(region.collapse, 1);
  EXPECT_EQ(text.find("collapse("), std::string::npos) << text;
}

TEST(AnalyzeTrace, ShowsTheCollapseDepthOfAV5Report) {
  const json::Value trace = parse_or_die(kMixedTrace);
  const json::Value report = parse_or_die(R"json({
    "report_version": 5,
    "scops": [{
      "region_id": 0,
      "function": "heat",
      "location": {"line": 12},
      "parallelized": true,
      "schedule_clause": null,
      "collapse": 2,
      "tiled": true
    }]
  })json");
  const auto summary = analyze_trace(trace, &report);
  ASSERT_TRUE(summary.has_value());
  EXPECT_EQ(summary->report_version, 5);
  EXPECT_EQ(summary->regions.begin()->second.collapse, 2);
  const std::string text = render_trace_summary(*summary);
  EXPECT_NE(text.find("schedule: default collapse(2) (parallelized tiled)"),
            std::string::npos)
      << text;
}

TEST(AnalyzeTrace, RendersTheMemoCostModelFromAV4Report) {
  const json::Value trace = parse_or_die(kMixedTrace);
  const json::Value report = parse_or_die(R"json({
    "report_version": 4,
    "scops": [],
    "memoization": {
      "functions": [
        {"function": "shade", "memoizable": true, "cost_nodes": 41,
         "reason": null,
         "profile": {"hits": 900, "misses": 100, "score": 369.0}},
        {"function": "cold", "memoizable": false, "cost_nodes": 12,
         "reason": "profile shows no reuse (0 hits over 500 misses)",
         "profile": null}
      ]
    }
  })json");
  const auto summary = analyze_trace(trace, &report);
  ASSERT_TRUE(summary.has_value());
  ASSERT_EQ(summary->memo_model.size(), 2u);
  const std::string text = render_trace_summary(*summary);
  EXPECT_NE(text.find("memo-model shade cost_nodes=41 hits=900 misses=100 "
                      "score=369.000 -> memoized"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("memo-model cold cost_nodes=12 -> rejected "
                      "(profile shows no reuse (0 hits over 500 misses))"),
            std::string::npos)
      << text;
}

TEST(AnalyzeTrace, ImbalanceAndStealRatioArithmetic) {
  RegionTrace region;
  EXPECT_DOUBLE_EQ(region_imbalance(region), 0.0);
  EXPECT_DOUBLE_EQ(region_steal_ratio(region), 0.0);
  // busy times 300 and 100: max / mean = 300 / 200 = 1.5.
  region.workers[0] = {1, 300.0};
  region.workers[1] = {1, 100.0};
  EXPECT_DOUBLE_EQ(region_imbalance(region), 1.5);
  // Count-only fallback (emitted-C counter event): 3 and 1 -> 1.5 too.
  RegionTrace counts;
  counts.workers[0] = {3, 0.0};
  counts.workers[1] = {1, 0.0};
  EXPECT_DOUBLE_EQ(region_imbalance(counts), 1.5);
  region.chunk_events = 4;
  region.steals = 1;
  EXPECT_DOUBLE_EQ(region_steal_ratio(region), 0.25);
}

TEST(AnalyzeTrace, RejectsNonArrayInput) {
  std::string error;
  EXPECT_FALSE(analyze_trace(parse_or_die("{}"), nullptr, &error)
                   .has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(analyze_trace(parse_or_die("[1, 2]"), nullptr, &error)
                   .has_value());
}

// ---------------------------------------------------------------------------
// diff_traces
// ---------------------------------------------------------------------------

TraceSummary summary_with(const char* name, double wall_us) {
  TraceSummary s;
  RegionTrace& r = s.regions[name];
  r.name = name;
  r.wall_us = wall_us;
  return s;
}

TEST(TraceDiffGate, GrowthExactlyAtTheThresholdIsNotARegression) {
  // 1000 -> 1200 at threshold 0.2: delta == threshold, must pass (the
  // gate flags strictly-greater growth, so boundary noise never fails CI).
  const TraceDiff diff = diff_traces(summary_with("heat:12", 1000.0),
                                     summary_with("heat:12", 1200.0), 0.2);
  EXPECT_FALSE(diff.regression);
  EXPECT_DOUBLE_EQ(diff.worst_delta, 0.2);
  EXPECT_NE(diff.text.find("-> OK"), std::string::npos) << diff.text;
}

TEST(TraceDiffGate, GrowthJustPastTheThresholdFails) {
  const TraceDiff diff = diff_traces(summary_with("heat:12", 1000.0),
                                     summary_with("heat:12", 1201.0), 0.2);
  EXPECT_TRUE(diff.regression);
  EXPECT_NE(diff.text.find("REGRESSION"), std::string::npos) << diff.text;
  EXPECT_NE(diff.text.find("-> FAIL"), std::string::npos) << diff.text;
}

TEST(TraceDiffGate, ImprovementsNeverFlag) {
  const TraceDiff diff = diff_traces(summary_with("heat:12", 1000.0),
                                     summary_with("heat:12", 400.0), 0.0);
  EXPECT_FALSE(diff.regression);
  // worst_delta tracks the worst *growth* and is floored at zero.
  EXPECT_DOUBLE_EQ(diff.worst_delta, 0.0);
  EXPECT_NE(diff.text.find("-60.0%"), std::string::npos) << diff.text;
}

TEST(TraceDiffGate, RegionsMissingFromEitherSideAreReportedNotFlagged) {
  TraceSummary a = summary_with("gone:1", 1000.0);
  TraceSummary b = summary_with("new:2", 9000.0);
  const TraceDiff diff = diff_traces(a, b, 0.2);
  EXPECT_FALSE(diff.regression);
  EXPECT_NE(diff.text.find("only in baseline"), std::string::npos)
      << diff.text;
  EXPECT_NE(diff.text.find("only in candidate"), std::string::npos)
      << diff.text;
}

TEST(TraceDiffGate, ZeroBaselineRegionsAreSkipped) {
  // A region that recorded no wall time in the baseline cannot produce a
  // meaningful ratio; it must not divide by zero or flag.
  const TraceDiff diff = diff_traces(summary_with("heat:12", 0.0),
                                     summary_with("heat:12", 500.0), 0.2);
  EXPECT_FALSE(diff.regression);
}

TEST(TraceTool, LoadJsonFileReportsOpenAndParseErrors) {
  std::string error;
  EXPECT_FALSE(
      load_json_file("/nonexistent/trace.json", &error).has_value());
  EXPECT_NE(error.find("cannot open"), std::string::npos);
  const std::string path =
      std::string(::testing::TempDir()) + "trace_tool_bad.json";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("[1, 2", f);
  std::fclose(f);
  error.clear();
  EXPECT_FALSE(load_json_file(path, &error).has_value());
  EXPECT_NE(error.find("at byte"), std::string::npos) << error;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace purec::tools
