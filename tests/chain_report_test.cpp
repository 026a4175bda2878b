// ChainReport coverage: the structured JSON decision trail behind
// --report=json and the text renderer layered on it.
//
//   1. Golden: the serialized report for three representative fixtures
//      (matmul — substitution + tiling; guarded_reduce — region SCoP with
//      a reduction inside an affine guard; satellite_memo — memoization
//      verdicts incl. a rejection) is byte-pinned under
//      tests/e2e/golden/. Regenerate with PUREC_UPDATE_GOLDEN=1.
//   2. Schema: for EVERY accepted e2e fixture the report must carry the
//      full decision trail — options echo, a purity verdict per function,
//      a scop entry per candidate loop with either an outcome or a
//      located failure reason, memoization and inliner sections.
//   3. Renderer: render_report_text over the same structure reproduces
//      the classic --report lines.
//   4. Fusion: pairs where one nest writes what a pure call in the other
//      reads are recorded as rejected, with that dependence as the reason.
//   5. Alias: Listing 6 stays serial with a located reason.
#include "transform/chain_report.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "e2e/e2e_fixtures.h"
#include "transform/pure_chain.h"

#ifndef PUREC_REPO_DIR
#error "build must define PUREC_REPO_DIR (the repository root)"
#endif

namespace purec {
namespace {

using e2e::Fixture;

ChainOptions fixture_options(const Fixture& fixture) {
  ChainOptions options;
  options.infer_purity = fixture.infer;
  options.memoize = fixture.memoize;
  options.fp_reductions = fixture.fp_reductions;
  if (fixture.schedule != nullptr) {
    options.schedule = *ScheduleSpec::parse(fixture.schedule);
  }
  return options;
}

std::string fixture_source(const Fixture& fixture) {
  if (!fixture.chain_source_is_path) return fixture.chain_source;
  std::ifstream in(std::string(PUREC_REPO_DIR) + "/" +
                   fixture.chain_source);
  std::ostringstream ss;
  ss << in.rdbuf();
  return std::move(ss).str();
}

const Fixture* find_fixture(const std::vector<Fixture>& all,
                            const std::string& name) {
  for (const Fixture& f : all) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

bool update_golden() {
  const char* env = std::getenv("PUREC_UPDATE_GOLDEN");
  return env != nullptr && env[0] == '1';
}

// -- Golden-pinned serialized reports ---------------------------------------

class ReportGoldenTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ReportGoldenTest, SerializedReportMatchesGolden) {
  const std::vector<Fixture> all = e2e::all_fixtures();
  const Fixture* fixture = find_fixture(all, GetParam());
  ASSERT_NE(fixture, nullptr) << GetParam() << " missing from e2e corpus";

  const ChainOptions options = fixture_options(*fixture);
  const ChainArtifacts artifacts =
      run_pure_chain(fixture_source(*fixture), options);
  ASSERT_TRUE(artifacts.ok) << artifacts.diagnostics.format();

  const std::string serialized =
      build_chain_report(artifacts, options).dump(2) + "\n";
  const std::string path = std::string(PUREC_REPO_DIR) +
                           "/tests/e2e/golden/" + fixture->name +
                           "__report.json";
  if (update_golden()) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << serialized;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << "missing golden " << path
      << " — regenerate with PUREC_UPDATE_GOLDEN=1 ctest -R chain_report";
  std::ostringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(serialized, ss.str())
      << "report drifted from " << path
      << " — if intentional, regenerate with PUREC_UPDATE_GOLDEN=1";
}

INSTANTIATE_TEST_SUITE_P(PinnedFixtures, ReportGoldenTest,
                         ::testing::Values("matmul", "guarded_reduce",
                                           "satellite_memo"),
                         [](const ::testing::TestParamInfo<const char*>& i) {
                           return std::string(i.param);
                         });

// -- Schema completeness over the whole corpus ------------------------------

void expect_location(const json::Value& node, const std::string& where) {
  const json::Value* loc = node.find("location");
  ASSERT_NE(loc, nullptr) << where;
  ASSERT_NE(loc->find("line"), nullptr) << where;
  ASSERT_NE(loc->find("column"), nullptr) << where;
  EXPECT_GT(loc->find("line")->as_int(), 0) << where;
}

TEST(ChainReportSchema, EveryAcceptedFixtureCarriesTheFullDecisionTrail) {
  for (const Fixture& fixture : e2e::all_fixtures()) {
    if (!fixture.expect_ok) continue;
    SCOPED_TRACE(fixture.name);
    const ChainOptions options = fixture_options(fixture);
    const ChainArtifacts artifacts =
        run_pure_chain(fixture_source(fixture), options);
    ASSERT_TRUE(artifacts.ok) << artifacts.diagnostics.format();

    const json::Value report = build_chain_report(artifacts, options);
    ASSERT_EQ(report.kind(), json::Value::Kind::Object);
    EXPECT_EQ(report.find("tool")->as_string(), "purecc");
    EXPECT_EQ(report.find("report_version")->as_int(), 5);
    EXPECT_TRUE(report.find("ok")->as_bool());

    // Options echo: every chain knob must be stated.
    const json::Value* opts = report.find("options");
    ASSERT_NE(opts, nullptr);
    for (const char* key :
         {"mode", "parallelize", "tile", "tile_size", "schedule",
          "inline_pure", "infer_purity", "memoize", "memoize_all",
          "fp_reductions", "gcc_attributes", "instrument"}) {
      EXPECT_NE(opts->find(key), nullptr) << key;
    }

    // One purity verdict per analyzed function, each located and either
    // accepted or carrying a rejection reason.
    const json::Value* purity = report.find("purity");
    ASSERT_NE(purity, nullptr);
    ASSERT_NE(purity->as_array(), nullptr);
    EXPECT_FALSE(purity->as_array()->empty());
    for (const json::Value& entry : *purity->as_array()) {
      const std::string fn = entry.find("function")->as_string();
      EXPECT_FALSE(fn.empty());
      expect_location(entry, "purity " + fn);
      ASSERT_NE(entry.find("status"), nullptr) << fn;
      ASSERT_NE(entry.find("reason"), nullptr) << fn;
      if (entry.find("status")->as_string() == "rejected") {
        EXPECT_FALSE(entry.find("reason")->as_string().empty()) << fn;
      }
    }

    // One scop entry per candidate nest: a transformed outcome, or a
    // located failure reason — never silence.
    const json::Value* scops = report.find("scops");
    ASSERT_NE(scops, nullptr);
    // May be empty: loop-free fixtures (listing2_valid) have no candidate
    // nests, and that absence is itself the honest report.
    ASSERT_NE(scops->as_array(), nullptr);
    for (const json::Value& scop : *scops->as_array()) {
      const std::string where =
          scop.find("function")->as_string() + ":" +
          std::to_string(scop.find("location")->find("line")->as_int());
      expect_location(scop, where);
      ASSERT_NE(scop.find("transformed"), nullptr) << where;
      ASSERT_NE(scop.find("failure"), nullptr) << where;
      // Scheduling decisions are always stated, even when trivially
      // zero/false — consumers should not have to probe for keys.
      ASSERT_NE(scop.find("fissioned"), nullptr) << where;
      ASSERT_NE(scop.find("fission_groups"), nullptr) << where;
      ASSERT_NE(scop.find("fission_parallel_groups"), nullptr) << where;
      ASSERT_NE(scop.find("fused_loops"), nullptr) << where;
      // v3: the region id join key is always stated (null when the scop
      // was not instrumented).
      ASSERT_NE(scop.find("region_id"), nullptr) << where;
      // v5: the collapse depth is always stated; only a parallel tiled
      // band collapses (its leading tile loops).
      ASSERT_NE(scop.find("collapse"), nullptr) << where;
      EXPECT_GE(scop.find("collapse")->as_int(), 1) << where;
      if (scop.find("collapse")->as_int() > 1) {
        EXPECT_TRUE(scop.find("parallelized")->as_bool()) << where;
        EXPECT_TRUE(scop.find("tiled")->as_bool()) << where;
      }
      const json::Value* privatized = scop.find("privatized");
      ASSERT_NE(privatized, nullptr) << where;
      ASSERT_NE(privatized->as_array(), nullptr) << where;
      if (scop.find("fissioned")->as_bool()) {
        EXPECT_GE(scop.find("fission_groups")->as_int(), 2) << where;
      }
      if (!scop.find("transformed")->as_bool()) {
        const json::Value* failure = scop.find("failure");
        ASSERT_FALSE(failure->is_null())
            << where << " untransformed without a failure record";
        EXPECT_FALSE(failure->find("reason")->as_string().empty()) << where;
        expect_location(*failure, where + " failure");
      } else {
        EXPECT_TRUE(scop.find("failure")->is_null()) << where;
      }
    }

    // Fusion decisions: always an array; every entry names the two
    // loops it weighed and a rejected one says why.
    const json::Value* fusions = report.find("fusion_decisions");
    ASSERT_NE(fusions, nullptr);
    ASSERT_NE(fusions->as_array(), nullptr);
    for (const json::Value& decision : *fusions->as_array()) {
      const std::string fn = decision.find("function")->as_string();
      EXPECT_FALSE(fn.empty());
      for (const char* side : {"first", "second"}) {
        const json::Value* loc = decision.find(side);
        ASSERT_NE(loc, nullptr) << fn;
        EXPECT_GT(loc->find("line")->as_int(), 0) << fn;
      }
      ASSERT_NE(decision.find("fused"), nullptr) << fn;
      const json::Value* reason = decision.find("reason");
      ASSERT_NE(reason, nullptr) << fn;
      if (decision.find("fused")->as_bool()) {
        EXPECT_TRUE(reason->is_null()) << fn;
      } else {
        EXPECT_FALSE(reason->as_string().empty()) << fn;
      }
    }

    // Memoization and inliner sections always present; memo verdicts are
    // located and rejected ones carry a reason.
    const json::Value* memo = report.find("memoization");
    ASSERT_NE(memo, nullptr);
    EXPECT_EQ(memo->find("enabled")->as_bool(), options.memoize);
    for (const json::Value& fn : *memo->find("functions")->as_array()) {
      const std::string name = fn.find("function")->as_string();
      expect_location(fn, "memo " + name);
      if (!fn.find("memoizable")->as_bool()) {
        EXPECT_FALSE(fn.find("reason")->as_string().empty()) << name;
      }
    }
    ASSERT_NE(report.find("inliner"), nullptr);
    ASSERT_NE(report.find("canonicalized_whiles"), nullptr);
    const json::Value* instrument = report.find("instrument");
    ASSERT_NE(instrument, nullptr);
    EXPECT_FALSE(instrument->find("enabled")->as_bool());
  }
}

TEST(ChainReportSchema, InstrumentedRunListsItsRegions) {
  const std::vector<Fixture> all = e2e::all_fixtures();
  const Fixture* fixture = find_fixture(all, "matmul");
  ASSERT_NE(fixture, nullptr);
  ChainOptions options = fixture_options(*fixture);
  options.instrument = true;
  const ChainArtifacts artifacts =
      run_pure_chain(fixture_source(*fixture), options);
  ASSERT_TRUE(artifacts.ok) << artifacts.diagnostics.format();
  const json::Value report = build_chain_report(artifacts, options);
  const json::Value* instrument = report.find("instrument");
  ASSERT_NE(instrument, nullptr);
  EXPECT_TRUE(instrument->find("enabled")->as_bool());
  const auto* regions = instrument->find("regions")->as_array();
  ASSERT_NE(regions, nullptr);
  EXPECT_FALSE(regions->empty());
  for (const json::Value& region : *regions) {
    // Region labels are "function:line" — the same names the emitted
    // counters and trace events carry.
    EXPECT_NE(region.as_string().find(':'), std::string::npos)
        << region.as_string();
  }
}

/// The fusion decisions of `report` as (fused, reason) pairs.
std::vector<std::pair<bool, std::string>> fusion_trail(
    const json::Value& report) {
  std::vector<std::pair<bool, std::string>> trail;
  for (const json::Value& d : *report.find("fusion_decisions")->as_array()) {
    const json::Value* reason = d.find("reason");
    trail.emplace_back(d.find("fused")->as_bool(),
                       reason->is_null() ? "" : reason->as_string());
  }
  return trail;
}

TEST(ChainReportFusion, PureCallReaderOfAWrittenArrayIsNotFused) {
  // The writer nest and the nest that reads the array only through a
  // pure call (a pointer argument, or a global an inferred-pure callee
  // reads) must stay apart, and the report must name the dependence
  // that kept them apart.
  const std::vector<Fixture> all = e2e::all_fixtures();
  for (const auto& [name, reason] :
       {std::pair{"pure_reader_after_writer",
                  "fusion-preventing dependence on 'b': pure function 'g' "
                  "reads 'b', which is written in the same loop nest"},
        std::pair{"matmul_row_setup",
                  "fusion-preventing dependence on 'A': pure function "
                  "'dot' reads 'A', which is written in the same loop nest"},
        std::pair{"global_reader_after_writer",
                  "fusion-preventing dependence on 'gain': pure function "
                  "'weigh' reads 'gain', which is written in the same loop "
                  "nest"}}) {
    SCOPED_TRACE(name);
    const Fixture* fixture = find_fixture(all, name);
    ASSERT_NE(fixture, nullptr);
    const ChainOptions options = fixture_options(*fixture);
    const ChainArtifacts artifacts =
        run_pure_chain(fixture_source(*fixture), options);
    ASSERT_TRUE(artifacts.ok) << artifacts.diagnostics.format();
    const auto trail = fusion_trail(build_chain_report(artifacts, options));
    EXPECT_NE(std::find(trail.begin(), trail.end(),
                        std::pair{false, std::string(reason)}),
              trail.end())
        << "no rejected fusion with reason: " << reason;
    for (const auto& [fused, why] : trail) EXPECT_FALSE(fused) << why;
  }
}

TEST(ChainReportFusion, AThirdSiblingIsCheckedAgainstBothFusedNests) {
  // c and b are written by two independent nests that fuse; the third
  // nest passes b to a pure call, so it must not join the fused loop even
  // though the first nest alone never writes b.
  const char* source =
      "pure int g(pure int* b, int k) {\n"
      "  return b[k];\n"
      "}\n"
      "void k(int* a, int* b, int* c) {\n"
      "  for (int i = 0; i < 100; i++)\n"
      "    c[i] = 2 * i;\n"
      "  for (int i = 0; i < 100; i++)\n"
      "    b[i] = i;\n"
      "  for (int i = 0; i < 100; i++)\n"
      "    a[i] = g((pure int*)b, 99 - i);\n"
      "}\n";
  const ChainOptions options;
  const ChainArtifacts artifacts = run_pure_chain(source, options);
  ASSERT_TRUE(artifacts.ok) << artifacts.diagnostics.format();
  const auto trail = fusion_trail(build_chain_report(artifacts, options));
  ASSERT_EQ(trail.size(), 2u);
  EXPECT_TRUE(trail[0].first) << trail[0].second;
  EXPECT_FALSE(trail[1].first);
  EXPECT_EQ(trail[1].second,
            "fusion-preventing dependence on 'b': pure function 'g' reads "
            "'b', which is written in the same loop nest");
}

TEST(ChainReportFusion, AWriteThroughAnAliasOfAPureCallArgumentIsNotFused) {
  // The first nest writes b through the local alias p; the second passes
  // b to a pure call, which reads what the alias wrote.
  const char* source =
      "pure int g(pure int* b, int k) {\n"
      "  return b[k];\n"
      "}\n"
      "void k(int* a, int* b) {\n"
      "  int* p = b;\n"
      "  for (int i = 0; i < 100; i++)\n"
      "    p[i] = i;\n"
      "  for (int i = 0; i < 100; i++)\n"
      "    a[i] = g((pure int*)b, 99 - i);\n"
      "}\n";
  ChainOptions options;
  ChainArtifacts artifacts = run_pure_chain(source, options);
  ASSERT_TRUE(artifacts.ok) << artifacts.diagnostics.format();
  auto trail = fusion_trail(build_chain_report(artifacts, options));
  ASSERT_EQ(trail.size(), 1u);
  EXPECT_FALSE(trail[0].first);
  EXPECT_EQ(trail[0].second,
            "fusion-preventing dependence on 'b': pure function 'g' reads "
            "'b', which is written through local pointer 'p' (bound at line "
            "5) in the same loop nest");
}

// -- Listing 6: the alias of a pure-call argument ---------------------------

/// The report's scop entry for the loop in `main`.
json::Value main_scop(const json::Value& report) {
  for (const json::Value& scop : *report.find("scops")->as_array()) {
    if (scop.find("function")->as_string() == "main") return scop;
  }
  ADD_FAILURE() << "no scop in main";
  return json::Value::object();
}

TEST(ChainReportAlias, Listing6StaysSerialWithALocatedReason) {
  ChainOptions options;
  ChainArtifacts artifacts = run_pure_chain(testsrc::kListing6, options);
  ASSERT_TRUE(artifacts.ok) << artifacts.diagnostics.format();
  json::Value report = build_chain_report(artifacts, options);
  json::Value scop = main_scop(report);
  // The nest extracts; the dependence on what func reads keeps it serial.
  EXPECT_TRUE(scop.find("extracted")->as_bool());
  EXPECT_FALSE(scop.find("transformed")->as_bool());
  EXPECT_FALSE(scop.find("parallelized")->as_bool());
  const json::Value* failure = scop.find("failure");
  ASSERT_NE(failure, nullptr);
  ASSERT_FALSE(failure->is_null());
  const std::string reason = failure->find("reason")->as_string();
  for (const char* word : {"'alias'", "'array'", "'func'", "line 8"}) {
    EXPECT_NE(reason.find(word), std::string::npos) << word << ": " << reason;
  }
  expect_location(*failure, "listing6 failure");
}

// -- Text renderer over the same structure ----------------------------------

TEST(ChainReportText, RendersClassicReportLinesFromTheJson) {
  const char* source =
      "float* v;\n"
      "float twice(float x) {\n"
      "  return x + x;\n"
      "}\n"
      "void fill(int n) {\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    v[i] = twice((float)i);\n"
      "  }\n"
      "}\n";
  ChainOptions options;
  options.infer_purity = true;
  const ChainArtifacts artifacts = run_pure_chain(source, options);
  ASSERT_TRUE(artifacts.ok) << artifacts.diagnostics.format();
  const std::string text =
      render_report_text(build_chain_report(artifacts, options));
  EXPECT_NE(text.find("inferred pure: twice"), std::string::npos) << text;
  EXPECT_NE(text.find("inferred=1"), std::string::npos) << text;
  EXPECT_NE(text.find("transformed=1 parallel=1"), std::string::npos)
      << text;
}

}  // namespace
}  // namespace purec
