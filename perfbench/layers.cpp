// purec_layers — the benchmark's in-process probe of the compiler chain.
//
//   purec_layers chain   --manifest M --out R [--seconds S] [--threads T]
//                        [--batch B] [--dump-dir D]
//   purec_layers layers  --manifest M --out R --spans F [--seconds S]
//   purec_layers regions --trace T --report J --out R
//
// `chain` times run_pure_chain on units (a translation unit plus the purecc
// flags it is compiled with), batch by batch: serially, each compile
// timed and also given as a cost, its time over the reference loop's
// (below) measured between the compiles of the same pass; and, with
// --threads T > 1, interleaved with compiles of the same batch on T
// threads, the batch timed. Every compile's output and decision
// counts are compared with the unit's first compile: a unit fails when
// the chain returns !ok, when two compiles give different bytes, or when
// its decisions differ. Units flagged "dump" have their output written to
// --dump-dir for a gcc syntax check.
//
// `layers` is the traced run: for every unit it calls each layer's public
// functions in the order the chain does, recording one span per call
// (name, start, end, parent), then runs the whole chain under its own
// span. Spans stay in memory until the run ends, then go to --spans as
// Chrome trace events. The per-layer totals are written to --out.
//
// `regions` reduces one `--instrument` trace of an emitted binary, joined
// with its JSON report, through the `purecc trace` analysis: per region,
// whether it was parallelized, its worker imbalance, chunks and steals.
//
// The manifest is JSON: {"units": [{"name", "flags": [...], "source",
// "dump"}]}. Results are JSON objects.
#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "emit/c_printer.h"
#include "lexer/lexer.h"
#include "memo/memoizable.h"
#include "parser/parser.h"
#include "polyhedral/codegen.h"
#include "polyhedral/dependence.h"
#include "polyhedral/model.h"
#include "polyhedral/schedule.h"
#include "preproc/include_stripper.h"
#include "preproc/mini_cpp.h"
#include "purity/callgraph.h"
#include "purity/inference.h"
#include "purity/purity_checker.h"
#include "sema/symbols.h"
#include "support/json.h"
#include "support/rational.h"
#include "support/source_buffer.h"
#include "tools/trace_analysis.h"
#include "transform/call_substitution.h"
#include "transform/loop_canon.h"
#include "transform/pure_chain.h"

namespace {

using Clock = std::chrono::steady_clock;
using purec::json::Value;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// The reference loop: a fixed piece of compiler-shaped work that uses no
// purec code. It interns every third of a fixed list of 30000 C-like
// identifiers in a hash map (fresh heap nodes), looks every identifier up
// in it, and sorts what it found: about 5 ms and a few MB on a 4-vCPU
// Xeon. Timed between the compiles, it gauges how fast the shared host
// runs at that moment, so compile costs can be given as multiples of it: a
// host-wide slowdown cancels out, a slower compiler does not. Its size
// matters: a 0.2 ms loop that stayed in L2 slowed less than the compiles
// when the host did (log-log slope 1.2), this one slows with them (0.96).
const std::vector<std::string>& reference_words() {
  static const std::vector<std::string> words = [] {
    static const char* const stems[] = {"for",   "int",  "double", "return",
                                        "pure",  "if",   "while",  "const",
                                        "float", "void", "static", "long"};
    std::vector<std::string> w;
    std::uint32_t x = 12345;
    for (int i = 0; i < 30000; ++i) {
      x = x * 1664525u + 1013904223u;
      w.push_back(std::string(stems[(x >> 8) % 12]) + "_identifier_" +
                  std::to_string((x >> 12) % 30011));
    }
    return w;
  }();
  return words;
}

std::uint64_t reference_work() {
  const std::vector<std::string>& words = reference_words();
  std::unordered_map<std::string, int> interned;
  for (std::size_t i = 0; i < words.size(); i += 3) ++interned[words[i]];
  std::vector<const std::string*> found;
  for (const std::string& w : words) {
    const auto it = interned.find(w);
    if (it != interned.end()) found.push_back(&it->first);
  }
  std::sort(found.begin(), found.end(),
            [](const std::string* l, const std::string* r) { return *l < *r; });
  std::uint64_t h = 1469598103934665603ull;
  for (const std::string* w : found) {
    h = (h ^ w->size() ^ static_cast<unsigned char>(w->back())) *
        1099511628211ull;
  }
  return h;
}

std::atomic<std::uint64_t> reference_sink{0};  // keeps the work observable

double reference_ms() {
  const Clock::time_point t0 = Clock::now();
  reference_sink += reference_work();
  return seconds_since(t0) * 1e3;
}

struct Unit {
  std::string name;
  std::string source;
  purec::ChainOptions options;
  bool dump = false;
};

// The purecc flags the workloads use, mapped exactly as purecc maps them.
bool apply_flags(const std::vector<std::string>& flags,
                 purec::ChainOptions& options) {
  for (std::size_t i = 0; i < flags.size(); ++i) {
    if (flags[i] == "--mode" && i + 1 < flags.size() &&
        flags[i + 1] == "sica") {
      options.mode = purec::TransformMode::PlutoSica;
      ++i;
    } else if (flags[i] == "--infer-pure") {
      options.infer_purity = true;
    } else if (flags[i] == "--memoize") {
      options.memoize = true;
    } else if (flags[i] == "--fp-reductions") {
      options.fp_reductions = true;
    } else {
      std::fprintf(stderr, "purec_layers: unknown flag %s\n",
                   flags[i].c_str());
      return false;
    }
  }
  return true;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  return static_cast<bool>(out);
}

bool load_manifest(const std::string& path, std::vector<Unit>& units) {
  std::string error;
  const std::optional<Value> doc = purec::json::parse(read_file(path), &error);
  const Value* list = doc ? doc->find("units") : nullptr;
  if (list == nullptr || list->as_array() == nullptr) {
    std::fprintf(stderr, "purec_layers: bad manifest %s %s\n", path.c_str(),
                 error.c_str());
    return false;
  }
  for (const Value& entry : *list->as_array()) {
    Unit unit;
    unit.name = entry.find("name")->as_string();
    unit.source = entry.find("source")->as_string();
    unit.dump = entry.find("dump") && entry.find("dump")->as_bool();
    std::vector<std::string> flags;
    for (const Value& flag : *entry.find("flags")->as_array()) {
      flags.push_back(flag.as_string());
    }
    if (!apply_flags(flags, unit.options)) return false;
    units.push_back(std::move(unit));
  }
  return true;
}

// What the chain decided for one unit; must repeat exactly across passes.
struct Decisions {
  std::int64_t scops = 0, parallelized = 0, tiled = 0, fused = 0,
               fissioned = 0, privatized = 0, reductions = 0, thunks = 0;

  bool operator==(const Decisions&) const = default;

  Decisions& operator+=(const Decisions& o) {
    scops += o.scops;
    parallelized += o.parallelized;
    tiled += o.tiled;
    fused += o.fused;
    fissioned += o.fissioned;
    privatized += o.privatized;
    reductions += o.reductions;
    thunks += o.thunks;
    return *this;
  }

  Value json() const {
    Value v = Value::object();
    v.set("scops", scops);
    v.set("parallelized", parallelized);
    v.set("tiled", tiled);
    v.set("fused", fused);
    v.set("fissioned", fissioned);
    v.set("privatized", privatized);
    v.set("reductions", reductions);
    v.set("thunks", thunks);
    return v;
  }
};

Decisions decisions_of(const purec::ChainArtifacts& a) {
  Decisions d;
  for (const purec::ScopReport& s : a.scops) {
    ++d.scops;
    d.parallelized += s.parallelized;
    d.tiled += s.tiled;
    d.fissioned += s.fissioned;
    d.privatized += static_cast<std::int64_t>(s.privatized.size());
    d.reductions += static_cast<std::int64_t>(s.reductions.size());
  }
  for (const purec::FusionDecision& f : a.fusion_decisions) d.fused += f.fused;
  d.thunks = static_cast<std::int64_t>(a.memoization.memoizable.size());
  return d;
}

// One compile of one unit.
struct Outcome {
  bool ok = false;
  std::string output;
  Decisions decisions;
};

Outcome compile(const Unit& unit) {
  const purec::ChainArtifacts a = purec::run_pure_chain(unit.source,
                                                        unit.options);
  return {a.ok, a.final_source, decisions_of(a)};
}

// Compares every compile of a unit with its first one.
struct Checker {
  std::vector<std::optional<Outcome>> first;
  std::vector<std::string> failures;  // indexed like units; "" = fine

  explicit Checker(std::size_t n) : first(n), failures(n) {}

  void check(std::size_t i, Outcome got) {
    if (!failures[i].empty()) return;
    if (!got.ok) {
      failures[i] = "chain returned !ok";
    } else if (!first[i]) {
      first[i] = std::move(got);
    } else if (got.output != first[i]->output) {
      failures[i] = "two compiles gave different output";
    } else if (!(got.decisions == first[i]->decisions)) {
      failures[i] = "decision counts differ between compiles";
    }
  }
};

// The units are cut into batches of `batch`. Round after round, each
// batch is compiled serially (each unit timed) and, with threads > 1,
// twice on `threads` threads (the batch timed), until `seconds` have
// passed and every batch has run in each mode.
int chain_main(const std::vector<Unit>& units, double seconds,
               unsigned threads, std::size_t batch,
               const std::string& dump_dir, const std::string& out_path) {
  Checker checker(units.size());
  const std::size_t batches = (units.size() + batch - 1) / batch;
  std::vector<Value> unit_ms(units.size(), Value::array());
  std::vector<Value> unit_cost(units.size(), Value::array());
  std::vector<Value> serial_walls(batches, Value::array());
  std::vector<Value> parallel_walls(batches, Value::array());
  Value pass_reference_ms = Value::array();

  // Each compile is timed; a reference-loop shot runs before every
  // kReferenceEvery-th compile and after the last, and each compile's cost
  // is its time over the median shot of its pass. The batch wall is the
  // sum of the compile times alone.
  constexpr std::size_t kReferenceEvery = 40;
  reference_sink += reference_work();  // builds the word list untimed
  const auto serial = [&](std::size_t lo, std::size_t hi) {
    std::vector<double> ms;
    std::vector<double> shots;
    for (std::size_t i = lo; i < hi; ++i) {
      if ((i - lo) % kReferenceEvery == 0) shots.push_back(reference_ms());
      const Clock::time_point t0 = Clock::now();
      Outcome got = compile(units[i]);
      ms.push_back(seconds_since(t0) * 1e3);
      checker.check(i, std::move(got));
    }
    shots.push_back(reference_ms());
    std::sort(shots.begin(), shots.end());
    const double reference = shots.size() % 2 == 1
        ? shots[shots.size() / 2]
        : (shots[shots.size() / 2 - 1] + shots[shots.size() / 2]) / 2;
    pass_reference_ms.push(reference);
    double wall_ms = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      unit_ms[i].push(ms[i - lo]);
      unit_cost[i].push(ms[i - lo] / reference);
      wall_ms += ms[i - lo];
    }
    return wall_ms / 1e3;
  };

  const auto parallel = [&](std::size_t lo, std::size_t hi) {
    std::vector<Outcome> got(hi - lo);
    std::atomic<std::size_t> next{lo};
    const Clock::time_point batch0 = Clock::now();
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([&] {
        for (std::size_t i = next++; i < hi; i = next++) {
          got[i - lo] = compile(units[i]);
        }
      });
    }
    for (std::thread& w : workers) w.join();
    const double wall = seconds_since(batch0);
    for (std::size_t i = lo; i < hi; ++i) {
      checker.check(i, std::move(got[i - lo]));
    }
    return wall;
  };

  const Clock::time_point start = Clock::now();
  for (std::size_t step = 0;; ++step) {
    const std::size_t b = step % batches;
    if (step >= batches && b == 0 && seconds_since(start) >= seconds) {
      break;
    }
    if (step >= batches && seconds_since(start) >= seconds + 60) {
      break;  // a batch that lags behind its round is not waited for
    }
    const std::size_t lo = b * batch;
    const std::size_t hi = std::min(units.size(), lo + batch);
    // Parallel compiles bracket the serial ones, so both see the same
    // stretch of time.
    if (threads > 1) parallel_walls[b].push(parallel(lo, hi));
    serial_walls[b].push(serial(lo, hi));
    if (threads > 1) parallel_walls[b].push(parallel(lo, hi));
  }

  Decisions total;
  std::size_t failed = 0;
  Value failures = Value::array();
  for (std::size_t i = 0; i < units.size(); ++i) {
    if (checker.first[i]) total += checker.first[i]->decisions;
    if (!checker.failures[i].empty()) {
      ++failed;
      failures.push(units[i].name + ": " + checker.failures[i]);
    } else if (units[i].dump && !dump_dir.empty()) {
      write_file(dump_dir + "/" + units[i].name + ".c",
                 checker.first[i]->output);
    }
  }

  Value samples = Value::array();
  for (Value& per_unit : unit_ms) samples.push(std::move(per_unit));
  Value costs = Value::array();
  for (Value& per_unit : unit_cost) costs.push(std::move(per_unit));
  Value serial_batches = Value::array();
  Value parallel_batches = Value::array();
  for (std::size_t b = 0; b < batches; ++b) {
    serial_batches.push(std::move(serial_walls[b]));
    parallel_batches.push(std::move(parallel_walls[b]));
  }
  Value result = Value::object();
  result.set("attempted", units.size());
  result.set("failed", failed);
  result.set("failures", std::move(failures));
  result.set("unit_ms", std::move(samples));
  result.set("unit_cost", std::move(costs));
  result.set("reference_ms", std::move(pass_reference_ms));
  result.set("serial_batch_s", std::move(serial_batches));
  result.set("parallel_batch_s", std::move(parallel_batches));
  result.set("decisions", total.json());
  return write_file(out_path, result.dump()) ? 0 : 2;
}

// ---------------------------------------------------------------------------
// Traced run: one span per layer call.

struct Span {
  const char* name;
  double start_us;
  double end_us;
  int parent;  // index into the span list, -1 for a root
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  void open(const char* name) {
    spans_.push_back({name, now_us(), 0.0, open_.empty() ? -1 : open_.back()});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
  }

  void close() {
    spans_[open_.back()].end_us = now_us();
    open_.pop_back();
  }

  // Calls fn inside a span named `name`.
  template <typename Fn>
  decltype(auto) span(const char* name, Fn&& fn) {
    open(name);
    struct Closer {
      Tracer* t;
      ~Closer() { t->close(); }
    } closer{this};
    return fn();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

struct LayerCounts {
  std::int64_t compiles = 0, tokens = 0, rejected = 0, extract_attempts = 0,
               extracted = 0, dependences = 0, thunks = 0, emit_bytes = 0,
               replica_errors = 0;
  Decisions decisions;
};

// Calls each layer's public functions the way run_pure_chain does, with
// the unit's options. Transform-only steps (while canonicalization, call
// substitution) run outside any layer span and count as transform self
// time, as do the chain's fusion trials and privatization checks, which
// the replica skips.
void replicate_layers(const Unit& unit, Tracer& tr, LayerCounts& counts) {
  const purec::ChainOptions& options = unit.options;
  purec::DiagnosticEngine diags;
  const std::string preprocessed = tr.span("preproc", [&] {
    const purec::StrippedSource stripped =
        purec::strip_system_includes(unit.source);
    purec::MiniPreprocessor cpp(diags);
    return cpp.preprocess(stripped.text);
  });
  const purec::SourceBuffer buffer =
      purec::SourceBuffer::from_string(preprocessed, "<bench>");
  std::vector<purec::Token> tokens =
      tr.span("lexer", [&] { return purec::lex(buffer, diags); });
  counts.tokens += static_cast<std::int64_t>(tokens.size());
  purec::TranslationUnit tu = tr.span("parser", [&] {
    return purec::Parser(std::move(tokens), diags).parse_translation_unit();
  });
  if (diags.has_errors()) {
    ++counts.replica_errors;
    return;
  }
  (void)purec::canonicalize_while_loops(tu);

  purec::PurityOptions purity_options = options.purity;
  tr.open("purity");
  const purec::SymbolTable symbols = tr.span(
      "purity.symbols", [&] { return purec::SymbolTable::build(tu, diags); });
  (void)tr.span("purity.callgraph",
                [&] { return purec::CallGraph::build(tu); });
  const purec::InferenceResult trail = tr.span("purity.infer", [&] {
    return purec::infer_purity(tu, symbols, options.purity);
  });
  if (options.infer_purity) {
    purity_options.assume_pure = trail.inferred_pure;
    purity_options.assumed_global_reads = trail.inferred_global_reads();
  }
  const purec::PurityResult purity = tr.span("purity.check", [&] {
    return purec::PurityChecker(tu, symbols, diags, purity_options).check();
  });
  tr.close();
  for (const auto& [name, fn] : trail.functions) counts.rejected += !fn.pure;
  if (diags.has_errors()) {
    ++counts.replica_errors;
    return;
  }

  if (options.memoize) {
    const purec::MemoizableResult memo = tr.span("memo.classify", [&] {
      return purec::classify_memoizable(tu, symbols, purity.pure_functions,
                                        purity_options, !options.memoize_all);
    });
    counts.thunks += static_cast<std::int64_t>(memo.memoizable.size());
  }

  purec::poly::CodegenOptions cg;
  cg.parallelize = options.parallelize;
  cg.tile = options.tile;
  cg.tile_size = options.tile_size;
  cg.simd = options.mode == purec::TransformMode::PlutoSica;
  cg.schedule = options.schedule;
  std::size_t placeholders = 0;
  for (const purec::ScopCandidate& candidate : purity.scop_loops) {
    auto& loop = const_cast<purec::ForStmt&>(*candidate.loop);
    (void)purec::substitute_pure_calls(loop, purity.pure_functions,
                                       placeholders);
    ++counts.extract_attempts;
    purec::poly::ExtractionResult extraction = tr.span(
        "polyhedral.extract", [&] { return purec::poly::extract_scop(loop); });
    if (!extraction.ok()) continue;
    ++counts.extracted;
    const purec::poly::Scop& scop = *extraction.scop;
    try {
      const std::vector<purec::poly::Dependence> deps =
          tr.span("polyhedral.dependence",
                  [&] { return purec::poly::analyze_dependences(scop); });
      counts.dependences += static_cast<std::int64_t>(deps.size());
      if (scop.region_shaped) {
        // The region scheduler schedules and emits in one call.
        (void)tr.span("polyhedral.schedule", [&] {
          return purec::poly::schedule_region(scop, deps, cg, {});
        });
      } else {
        const purec::poly::Transform transform =
            tr.span("polyhedral.schedule",
                    [&] { return purec::poly::compute_schedule(scop, deps); });
        (void)tr.span("polyhedral.codegen", [&] {
          return purec::poly::generate_code(scop, transform, cg);
        });
      }
    } catch (const purec::ArithmeticOverflow&) {
      // The chain leaves such nests serial too.
    }
  }

  (void)tr.span("emit", [&] {
    return purec::print_c(
        tu, purec::PrintOptions{purec::PureHandling::Lower, 2});
  });

  const purec::ChainArtifacts artifacts = tr.span(
      "transform.chain",
      [&] { return purec::run_pure_chain(unit.source, options); });
  counts.emit_bytes +=
      static_cast<std::int64_t>(artifacts.final_source.size());
  counts.decisions += decisions_of(artifacts);
  ++counts.compiles;
}

int layers_main(const std::vector<Unit>& units, double seconds,
                const std::string& spans_path, const std::string& out_path) {
  const Clock::time_point start = Clock::now();
  Tracer tr(start);
  std::vector<LayerCounts> passes;
  while (passes.size() < 2 || seconds_since(start) < seconds) {
    LayerCounts counts;
    for (const Unit& unit : units) {
      tr.open("unit");
      replicate_layers(unit, tr, counts);
      tr.close();
    }
    passes.push_back(counts);
  }

  // Busy time per span name, summed over every pass.
  std::map<std::string, double> busy_us;
  for (const Span& s : tr.spans()) busy_us[s.name] += s.end_us - s.start_us;

  const LayerCounts& c = passes.front();
  bool repeat = true;
  for (const LayerCounts& p : passes) {
    repeat = repeat && p.decisions == c.decisions &&
             p.dependences == c.dependences && p.extracted == c.extracted &&
             p.thunks == c.thunks && p.tokens == c.tokens;
  }
  const double compiles =
      static_cast<double>(c.compiles) * static_cast<double>(passes.size());
  const auto per_compile_ms = [&](const char* name) {
    return compiles > 0 ? busy_us[name] / compiles / 1e3 : 0.0;
  };

  Value layers = Value::object();
  for (const char* name :
       {"preproc", "lexer", "parser", "purity", "memo.classify",
        "polyhedral.extract", "polyhedral.dependence", "polyhedral.schedule",
        "polyhedral.codegen", "emit", "transform.chain"}) {
    layers.set(name, per_compile_ms(name));
  }
  Value result = Value::object();
  result.set("passes", passes.size());
  result.set("compiles_per_pass", c.compiles);
  result.set("replica_errors", c.replica_errors);
  result.set("counts_repeat", repeat);
  result.set("per_compile_ms", std::move(layers));
  result.set("lexer_s", busy_us["lexer"] / 1e6);
  result.set("tokens", c.tokens * static_cast<std::int64_t>(passes.size()));
  result.set("purity_rejected", c.rejected);
  result.set("extract_attempts", c.extract_attempts);
  result.set("extracted", c.extracted);
  result.set("dependences", c.dependences);
  result.set("thunks", c.thunks);
  result.set("emit_bytes", c.emit_bytes);
  result.set("decisions", c.decisions.json());

  // Chrome trace events; args.parent is the index of the enclosing span.
  std::string events = "[";
  for (std::size_t i = 0; i < tr.spans().size(); ++i) {
    const Span& s = tr.spans()[i];
    char line[256];
    std::snprintf(line, sizeof line,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d}}",
                  i == 0 ? "" : ",", s.name, s.start_us,
                  s.end_us - s.start_us, i, s.parent);
    events += line;
  }
  events += "\n]\n";
  if (!write_file(spans_path, events)) return 2;
  return write_file(out_path, result.dump()) ? 0 : 2;
}

// ---------------------------------------------------------------------------

int regions_main(const std::string& trace_path, const std::string& report_path,
                 const std::string& out_path) {
  std::string error;
  const std::optional<Value> trace =
      purec::tools::load_json_file(trace_path, &error);
  const std::optional<Value> report =
      purec::tools::load_json_file(report_path, &error);
  if (!trace || !report) {
    std::fprintf(stderr, "purec_layers: %s\n", error.c_str());
    return 2;
  }
  const std::optional<purec::tools::TraceSummary> summary =
      purec::tools::analyze_trace(*trace, &*report, &error);
  if (!summary) {
    std::fprintf(stderr, "purec_layers: %s\n", error.c_str());
    return 2;
  }
  Value regions = Value::array();
  for (const auto& [name, region] : summary->regions) {
    Value row = Value::object();
    row.set("name", name);
    row.set("parallelized", region.parallelized);
    row.set("imbalance", purec::tools::region_imbalance(region));
    row.set("chunks", region.chunk_events);
    row.set("steals", region.steals);
    regions.push(std::move(row));
  }
  Value result = Value::object();
  result.set("regions", std::move(regions));
  result.set("dropped", summary->dropped);
  return write_file(out_path, result.dump()) ? 0 : 2;
}

int usage() {
  std::fprintf(stderr,
               "usage: purec_layers chain|layers|regions [options]\n"
               "  (see the header of perfbench/layers.cpp)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  std::map<std::string, std::string> args;
  for (int i = 2; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  const auto arg = [&](const char* key, const char* fallback) {
    const auto it = args.find(key);
    return it == args.end() ? std::string(fallback) : it->second;
  };
  if (mode == "regions") {
    return regions_main(arg("--trace", ""), arg("--report", ""),
                        arg("--out", ""));
  }
  std::vector<Unit> units;
  if (!load_manifest(arg("--manifest", ""), units)) return 2;
  const double seconds = std::stod(arg("--seconds", "0"));
  if (mode == "chain") {
    return chain_main(
        units, seconds,
        static_cast<unsigned>(std::stoul(arg("--threads", "1"))),
        std::max<std::size_t>(1, std::stoul(arg("--batch", "1000000"))),
        arg("--dump-dir", ""), arg("--out", ""));
  }
  if (mode == "layers") {
    return layers_main(units, seconds, arg("--spans", ""), arg("--out", ""));
  }
  return usage();
}
