#include "tools/trace_analysis.h"

#include <algorithm>
#include <cstdio>
#include <vector>

namespace purec::tools {

namespace {

[[nodiscard]] std::string find_string(const json::Value& obj,
                                      const char* key) {
  const json::Value* v = obj.find(key);
  return v != nullptr ? v->as_string() : std::string();
}

[[nodiscard]] std::int64_t find_int(const json::Value& obj, const char* key,
                                    std::int64_t fallback = 0) {
  const json::Value* v = obj.find(key);
  return v != nullptr && !v->is_null() ? v->as_int(fallback) : fallback;
}

[[nodiscard]] double find_double(const json::Value& obj, const char* key,
                                 double fallback = 0.0) {
  const json::Value* v = obj.find(key);
  return v != nullptr ? v->as_double(fallback) : fallback;
}

[[nodiscard]] bool find_bool(const json::Value& obj, const char* key) {
  const json::Value* v = obj.find(key);
  return v != nullptr && v->as_bool();
}

/// The emitted-C per-worker counter event is named "<region> chunks".
[[nodiscard]] bool strip_suffix(std::string* name, const char* suffix) {
  const std::string s = suffix;
  if (name->size() <= s.size() ||
      name->compare(name->size() - s.size(), s.size(), s) != 0) {
    return false;
  }
  name->resize(name->size() - s.size());
  return true;
}

/// Joins report scops[] onto the aggregated regions: region_id match
/// first, "function:line" name match second.
void join_report(const json::Value& report, TraceSummary* summary) {
  summary->report_version = find_int(report, "report_version");
  const json::Value* scops = report.find("scops");
  const std::vector<json::Value>* entries =
      scops != nullptr ? scops->as_array() : nullptr;
  if (entries == nullptr) return;
  for (const json::Value& scop : *entries) {
    const std::int64_t region_id = find_int(scop, "region_id", -1);
    std::string scop_name = find_string(scop, "function");
    if (const json::Value* loc = scop.find("location")) {
      scop_name += ":" + std::to_string(find_int(*loc, "line"));
    }
    for (auto& [name, region] : summary->regions) {
      const bool id_match =
          region_id >= 0 && region.region_id == region_id;
      if (!id_match && name != scop_name) continue;
      region.in_report = true;
      region.parallelized = find_bool(scop, "parallelized");
      region.schedule_clause = find_string(scop, "schedule_clause");
      region.collapse = find_int(scop, "collapse", 1);
      std::string decisions;
      if (find_bool(scop, "tiled")) decisions += " tiled";
      if (find_bool(scop, "fissioned")) {
        decisions += " fission=" +
                     std::to_string(find_int(scop, "fission_groups")) +
                     "g/" +
                     std::to_string(
                         find_int(scop, "fission_parallel_groups")) +
                     "p";
      }
      if (find_int(scop, "fused_loops") > 0) {
        decisions +=
            " fused=" + std::to_string(find_int(scop, "fused_loops"));
      }
      if (const json::Value* reds = scop.find("reductions")) {
        if (reds->size() > 0) {
          decisions += " reductions=" + std::to_string(reds->size());
        }
      }
      region.decisions = decisions;
    }
  }
  // v4 reports carry the memo cost model: static cost_nodes plus, when the
  // compile consumed a --memoize-profile, the measured reuse and score.
  const json::Value* memoization = report.find("memoization");
  const json::Value* functions =
      memoization != nullptr ? memoization->find("functions") : nullptr;
  const std::vector<json::Value>* rows =
      functions != nullptr ? functions->as_array() : nullptr;
  if (rows == nullptr) return;
  for (const json::Value& fn : *rows) {
    MemoModelRow row;
    row.function = find_string(fn, "function");
    row.memoizable = find_bool(fn, "memoizable");
    row.cost_nodes = find_int(fn, "cost_nodes");
    row.reason = find_string(fn, "reason");
    const json::Value* profile = fn.find("profile");
    if (profile != nullptr && !profile->is_null()) {
      row.profiled = true;
      row.hits = static_cast<std::uint64_t>(find_int(*profile, "hits"));
      row.misses = static_cast<std::uint64_t>(find_int(*profile, "misses"));
      row.score = find_double(*profile, "score");
    }
    summary->memo_model.push_back(std::move(row));
  }
}

[[nodiscard]] std::string format_fixed(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

[[nodiscard]] std::string format_pct(double fraction) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%+.1f%%", fraction * 100.0);
  return buf;
}

}  // namespace

std::optional<TraceSummary> analyze_trace(const json::Value& trace,
                                          const json::Value* report,
                                          std::string* error) {
  const std::vector<json::Value>* events = trace.as_array();
  if (events == nullptr) {
    if (error != nullptr) {
      *error = "trace is not a JSON array of events";
    }
    return std::nullopt;
  }
  TraceSummary summary;
  const auto region_for = [&summary](std::string name,
                                     std::int64_t region_id)
      -> RegionTrace& {
    RegionTrace& region = summary.regions[name];
    if (region.name.empty()) region.name = std::move(name);
    if (region.region_id < 0) region.region_id = region_id;
    return region;
  };
  for (const json::Value& event : *events) {
    if (event.as_object() == nullptr) {
      if (error != nullptr) *error = "trace contains a non-object event";
      return std::nullopt;
    }
    const std::string ph = find_string(event, "ph");
    std::string name = find_string(event, "name");
    const std::string cat = find_string(event, "cat");
    const json::Value* args = event.find("args");
    const std::int64_t region_id =
        args != nullptr ? find_int(*args, "region_id", -1) : -1;
    const double dur_us = find_double(event, "dur");
    if (ph == "M") continue;  // metadata names, nothing to aggregate
    if (ph == "i") {
      if (args != nullptr && args->find("dropped") != nullptr) {
        summary.dropped +=
            static_cast<std::uint64_t>(find_int(*args, "dropped"));
      } else if (cat == "steal") {
        // Steals are instants attributed to their region.
        RegionTrace& region =
            region_for("region " + std::to_string(region_id), region_id);
        region.steals += 1;
      }
      continue;
    }
    if (ph == "C") {
      // Emitted-C per-worker chunk totals: "<region> chunks" with one
      // "wN" arg per worker that claimed outer iterations.
      if (!strip_suffix(&name, " chunks") || args == nullptr) continue;
      RegionTrace& region = region_for(name, region_id);
      if (const auto* members = args->as_object()) {
        for (const auto& [key, value] : *members) {
          if (key.size() < 2 || key[0] != 'w') continue;
          const std::int64_t worker = std::atoll(key.c_str() + 1);
          region.workers[worker].chunks +=
              static_cast<std::uint64_t>(value.as_int());
          region.chunk_events +=
              static_cast<std::uint64_t>(value.as_int());
        }
      }
      continue;
    }
    if (ph != "X") continue;
    if (cat == "region") {
      RegionTrace& region = region_for(name, region_id);
      region.executions += 1;
      region.wall_us += dur_us;
    } else if (cat == "chunk") {
      RegionTrace& region =
          region_for("region " + std::to_string(region_id), region_id);
      const std::int64_t tid = find_int(event, "tid");
      region.workers[tid].chunks += 1;
      region.workers[tid].busy_us += dur_us;
      region.chunk_events += 1;
    } else if (cat == "barrier") {
      if (name == "barrier_park") {
        summary.barrier_parks += 1;
        summary.barrier_park_us += dur_us;
      } else {
        summary.barrier_spins += 1;
        summary.barrier_spin_us += dur_us;
      }
    } else if (cat == "memo") {
      if (name == "memo_hit") {
        summary.memo_hits += 1;
      } else {
        summary.memo_misses += 1;
      }
    }
  }
  // Fold placeholder rows ("region N", the runtime's unregistered-name
  // spelling) into a named region carrying the same id — a mixed trace
  // then shows one row per region with both runtimes' data joined.
  for (auto it = summary.regions.begin(); it != summary.regions.end();) {
    RegionTrace& placeholder = it->second;
    if (placeholder.region_id < 0 ||
        it->first != "region " + std::to_string(placeholder.region_id)) {
      ++it;
      continue;
    }
    RegionTrace* named = nullptr;
    for (auto& [name, region] : summary.regions) {
      if (&region != &placeholder &&
          region.region_id == placeholder.region_id) {
        named = &region;
        break;
      }
    }
    if (named == nullptr) {
      ++it;
      continue;
    }
    named->executions += placeholder.executions;
    named->wall_us += placeholder.wall_us;
    named->chunk_events += placeholder.chunk_events;
    named->steals += placeholder.steals;
    for (const auto& [tid, load] : placeholder.workers) {
      named->workers[tid].chunks += load.chunks;
      named->workers[tid].busy_us += load.busy_us;
    }
    it = summary.regions.erase(it);
  }
  if (report != nullptr) join_report(*report, &summary);
  return summary;
}

double region_imbalance(const RegionTrace& region) {
  double max_busy = 0.0;
  double total_busy = 0.0;
  std::size_t lanes = 0;
  bool have_time = false;
  for (const auto& [tid, load] : region.workers) {
    if (load.busy_us > 0.0) have_time = true;
  }
  for (const auto& [tid, load] : region.workers) {
    // Prefer busy time; a chunk-count-only trace (emitted-C counter
    // event) falls back to counts, which still exposes a skewed split.
    const double busy =
        have_time ? load.busy_us : static_cast<double>(load.chunks);
    if (busy <= 0.0) continue;
    max_busy = std::max(max_busy, busy);
    total_busy += busy;
    ++lanes;
  }
  if (lanes == 0 || total_busy <= 0.0) return 0.0;
  return max_busy / (total_busy / static_cast<double>(lanes));
}

double region_steal_ratio(const RegionTrace& region) {
  if (region.chunk_events == 0) return 0.0;
  return static_cast<double>(region.steals) /
         static_cast<double>(region.chunk_events);
}

std::string render_trace_summary(const TraceSummary& s) {
  std::string out;
  for (const auto& [name, region] : s.regions) {
    out += "purecc-trace: region " + name;
    if (region.region_id >= 0) {
      out += " id=" + std::to_string(region.region_id);
    }
    out += " executions=" + std::to_string(region.executions);
    out += " wall_ms=" + format_fixed(region.wall_us / 1000.0);
    const double imbalance = region_imbalance(region);
    if (imbalance > 0.0) out += " imbalance=" + format_fixed(imbalance);
    if (region.chunk_events > 0) {
      out += " chunks=" + std::to_string(region.chunk_events);
      out += " steal_ratio=" + format_fixed(region_steal_ratio(region));
    }
    out += "\n";
    if (region.in_report) {
      out += "purecc-trace:   schedule: ";
      out += region.schedule_clause.empty() ? "default"
                                            : region.schedule_clause;
      if (region.collapse > 1) {
        out += " collapse(" + std::to_string(region.collapse) + ")";
      }
      out += region.parallelized ? " (parallelized" : " (serial";
      out += region.decisions;
      out += ")\n";
    }
  }
  if (s.barrier_spins + s.barrier_parks > 0) {
    out += "purecc-trace: barrier spins=" + std::to_string(s.barrier_spins) +
           " spin_ms=" + format_fixed(s.barrier_spin_us / 1000.0) +
           " parks=" + std::to_string(s.barrier_parks) +
           " park_ms=" + format_fixed(s.barrier_park_us / 1000.0) + "\n";
  }
  if (s.memo_hits + s.memo_misses > 0) {
    out += "purecc-trace: memo hits=" + std::to_string(s.memo_hits) +
           " misses=" + std::to_string(s.memo_misses) + "\n";
  }
  for (const MemoModelRow& row : s.memo_model) {
    out += "purecc-trace: memo-model " + row.function +
           " cost_nodes=" + std::to_string(row.cost_nodes);
    if (row.profiled) {
      out += " hits=" + std::to_string(row.hits) +
             " misses=" + std::to_string(row.misses) +
             " score=" + format_fixed(row.score);
    }
    out += row.memoizable ? " -> memoized" : " -> rejected";
    if (!row.memoizable && !row.reason.empty()) {
      out += " (" + row.reason + ")";
    }
    out += "\n";
  }
  if (s.dropped > 0) {
    out += "purecc-trace: dropped events=" + std::to_string(s.dropped) +
           " (raise the ring capacity or trace a shorter run)\n";
  }
  if (out.empty()) out = "purecc-trace: no events\n";
  return out;
}

TraceDiff diff_traces(const TraceSummary& a, const TraceSummary& b,
                      double threshold) {
  TraceDiff diff;
  double total_a = 0.0;
  double total_b = 0.0;
  for (const auto& [name, region_a] : a.regions) {
    total_a += region_a.wall_us;
    const auto it = b.regions.find(name);
    if (it == b.regions.end()) {
      diff.text += "trace-diff: region " + name +
                   " only in baseline (wall_ms=" +
                   format_fixed(region_a.wall_us / 1000.0) + ")\n";
      continue;
    }
    const RegionTrace& region_b = it->second;
    if (region_a.wall_us <= 0.0) continue;
    const double delta =
        (region_b.wall_us - region_a.wall_us) / region_a.wall_us;
    diff.worst_delta = std::max(diff.worst_delta, delta);
    const bool flagged = delta > threshold;
    if (flagged) diff.regression = true;
    diff.text += "trace-diff: region " + name +
                 " wall_ms " + format_fixed(region_a.wall_us / 1000.0) +
                 " -> " + format_fixed(region_b.wall_us / 1000.0) + " (" +
                 format_pct(delta) + ")" +
                 (flagged ? " REGRESSION" : "") + "\n";
  }
  for (const auto& [name, region_b] : b.regions) {
    total_b += region_b.wall_us;
    if (a.regions.find(name) == a.regions.end()) {
      diff.text += "trace-diff: region " + name +
                   " only in candidate (wall_ms=" +
                   format_fixed(region_b.wall_us / 1000.0) + ")\n";
    }
  }
  if (total_a > 0.0) {
    diff.text += "trace-diff: total wall_ms " +
                 format_fixed(total_a / 1000.0) + " -> " +
                 format_fixed(total_b / 1000.0) + " (" +
                 format_pct((total_b - total_a) / total_a) + ")\n";
  }
  char verdict[128];
  std::snprintf(verdict, sizeof(verdict),
                "trace-diff: threshold %+.1f%% -> %s (worst %+.1f%%)\n",
                threshold * 100.0, diff.regression ? "FAIL" : "OK",
                diff.worst_delta * 100.0);
  diff.text += verdict;
  return diff;
}

std::optional<json::Value> load_json_file(const std::string& path,
                                          std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  std::string text;
  char buf[16384];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  std::fclose(f);
  std::string parse_error;
  std::optional<json::Value> v = json::parse(text, &parse_error);
  if (!v.has_value() && error != nullptr) {
    *error = path + ": " + parse_error;
  }
  return v;
}

}  // namespace purec::tools
