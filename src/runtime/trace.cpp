#include "runtime/trace.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>

namespace purec::rt::trace {

namespace {

/// One worker's event ring. `cursor` counts every record attempt; slots
/// past kRingCapacity are dropped (the dump reports the difference).
/// Only the owning worker writes the ring, so relaxed ordering suffices —
/// the dump runs after the pool has quiesced (atexit / explicit call).
struct alignas(64) Ring {
  std::atomic<std::uint64_t> cursor{0};
  Event events[kRingCapacity];
};

struct State {
  bool on = false;
  std::string path;
  std::unique_ptr<Ring[]> rings;
  std::string region_names[kMaxRegionNames];
  std::mutex names_mutex;
  bool atexit_registered = false;
};

State& state() {
  static State instance;
  return instance;
}

void resolve(State& s, const char* path) {
  s.on = path != nullptr && path[0] != '\0';
  s.path = s.on ? path : "";
  if (s.on && !s.rings) {
    s.rings = std::make_unique<Ring[]>(kMaxWorkers);
  }
  if (s.on && !s.atexit_registered) {
    s.atexit_registered = true;
    std::atexit([] { dump(); });
  }
}

struct Resolved {
  Resolved() { resolve(state(), std::getenv("PUREC_RT_TRACE")); }
};

[[nodiscard]] bool is_active() noexcept {
  static Resolved once;
  return state().on;
}

/// Minimal JSON string escaping for region names (quote, backslash,
/// control bytes) — the full writer lives in support/json, but the
/// runtime must not depend on the compiler libraries.
[[nodiscard]] std::string escape_name(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (const char ch : name) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out;
}

[[nodiscard]] std::string region_label(const State& s, std::uint32_t id) {
  if (id < kMaxRegionNames && !s.region_names[id].empty()) {
    return escape_name(s.region_names[id]);
  }
  return "region " + std::to_string(id);
}

struct EventShape {
  const char* name;
  const char* cat;
  bool instant;
};

[[nodiscard]] EventShape shape_of(EventKind kind) {
  switch (kind) {
    case EventKind::Region:
      return {nullptr, "region", false};
    case EventKind::Chunk:
      return {"chunk", "chunk", false};
    case EventKind::Steal:
      return {"steal", "steal", true};
    case EventKind::BarrierSpin:
      return {"barrier_spin", "barrier", false};
    case EventKind::BarrierPark:
      return {"barrier_park", "barrier", false};
    case EventKind::MemoHit:
      return {"memo_hit", "memo", false};
    case EventKind::MemoMiss:
      return {"memo_miss", "memo", false};
  }
  return {"event", "event", false};
}

/// Writes one worker's retained events plus its overflow marker.
/// `sep` alternates between the post-bracket "\n" and ",\n".
void write_worker(std::FILE* out, State& s, std::size_t worker,
                  const char** sep) {
  Ring& ring = s.rings[worker];
  const std::uint64_t attempted =
      ring.cursor.load(std::memory_order_relaxed);
  const std::uint64_t kept =
      attempted < kRingCapacity ? attempted : kRingCapacity;
  for (std::uint64_t k = 0; k < kept; ++k) {
    const Event& e = ring.events[k];
    const EventShape shape = shape_of(e.kind);
    const std::string name = shape.name != nullptr
                                 ? std::string(shape.name)
                                 : region_label(s, e.region_id);
    std::fprintf(out, "%s{\"name\":\"%s\",\"cat\":\"%s\",", *sep,
                 name.c_str(), shape.cat);
    *sep = ",\n";
    if (shape.instant) {
      std::fprintf(out, "\"ph\":\"i\",\"s\":\"t\",");
    } else {
      std::fprintf(out, "\"ph\":\"X\",");
    }
    std::fprintf(out, "\"pid\":%d,\"tid\":%zu,\"ts\":%.3f,", kTracePid,
                 worker, static_cast<double>(e.begin_ns) / 1000.0);
    if (!shape.instant) {
      std::fprintf(out, "\"dur\":%.3f,",
                   static_cast<double>(e.end_ns - e.begin_ns) / 1000.0);
    }
    std::fprintf(out, "\"args\":{\"region_id\":%u", e.region_id);
    switch (e.kind) {
      case EventKind::Chunk:
        std::fprintf(out, ",\"begin\":%lld,\"end\":%lld",
                     static_cast<long long>(e.arg0),
                     static_cast<long long>(e.arg1));
        break;
      case EventKind::Steal:
        std::fprintf(out, ",\"victim\":%lld",
                     static_cast<long long>(e.arg0));
        break;
      default:
        break;
    }
    std::fprintf(out, "}}");
  }
  if (attempted > kRingCapacity) {
    std::fprintf(out,
                 "%s{\"name\":\"purec: trace ring overflow\",\"ph\":\"i\","
                 "\"s\":\"t\",\"pid\":%d,\"tid\":%zu,\"ts\":%.3f,"
                 "\"args\":{\"dropped\":%llu}}",
                 *sep, kTracePid, worker,
                 static_cast<double>(stats::now_ns()) / 1000.0,
                 static_cast<unsigned long long>(attempted -
                                                 kRingCapacity));
    *sep = ",\n";
  }
}

void write_all(std::FILE* out, State& s, bool first) {
  const char* sep = first ? "\n" : ",\n";
  if (!first) {
    // We are sitting on the previous dump's closing bracket; turn it
    // into a separator so the array keeps growing.
    std::fputc(',', out);
    sep = "\n";
  } else {
    std::fputc('[', out);
  }
  // Metadata: name the C++ runtime's process and every worker lane that
  // recorded events, so chrome://tracing shows labels instead of tids.
  std::fprintf(out,
               "%s{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
               "\"args\":{\"name\":\"purec-rt\"}}",
               sep, kTracePid);
  sep = ",\n";
  for (std::size_t w = 0; w < kMaxWorkers; ++w) {
    if (s.rings[w].cursor.load(std::memory_order_relaxed) == 0) continue;
    std::fprintf(out,
                 "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,"
                 "\"tid\":%zu,\"args\":{\"name\":\"worker %zu\"}}",
                 sep, kTracePid, w, w);
  }
  for (std::size_t w = 0; w < kMaxWorkers; ++w) {
    write_worker(out, s, w, &sep);
  }
  std::fputs("\n]\n", out);
}

}  // namespace

bool active() noexcept { return is_active(); }

void record(std::size_t worker, EventKind kind, std::uint64_t begin_ns,
            std::uint64_t end_ns, std::uint32_t region_id,
            std::int64_t arg0, std::int64_t arg1) noexcept {
  State& s = state();
  if (!s.on || !s.rings) return;
  Ring& ring = s.rings[worker & (kMaxWorkers - 1)];
  const std::uint64_t slot =
      ring.cursor.fetch_add(1, std::memory_order_relaxed);
  if (slot >= kRingCapacity) return;  // dropped, counted by the cursor
  Event& e = ring.events[slot];
  e.begin_ns = begin_ns;
  e.end_ns = end_ns;
  e.arg0 = arg0;
  e.arg1 = arg1;
  e.region_id = region_id;
  e.kind = kind;
}

void set_region_name(std::uint32_t id, const char* name) noexcept {
  if (id >= kMaxRegionNames || name == nullptr) return;
  State& s = state();
  std::lock_guard lock(s.names_mutex);
  s.region_names[id] = name;
}

void dump() {
  State& s = state();
  if (!s.on || !s.rings) return;
  bool any = false;
  for (std::size_t w = 0; w < kMaxWorkers; ++w) {
    if (s.rings[w].cursor.load(std::memory_order_relaxed) != 0) {
      any = true;
      break;
    }
  }
  if (!any) return;
  int first = 1;
  std::FILE* out = purec_trace_open(s.path.c_str(), &first);
  if (out == nullptr) return;
  write_all(out, s, first != 0);
  std::fclose(out);
  reset();
}

void write_events(std::FILE* out) {
  State& s = state();
  if (!s.rings) s.rings = std::make_unique<Ring[]>(kMaxWorkers);
  write_all(out, s, /*first=*/true);
}

void reset() noexcept {
  State& s = state();
  if (!s.rings) return;
  for (std::size_t w = 0; w < kMaxWorkers; ++w) {
    s.rings[w].cursor.store(0, std::memory_order_relaxed);
  }
}

void set_path_for_testing(const char* path) {
  (void)is_active();  // ensure the env resolution happened first
  resolve(state(), path);
}

}  // namespace purec::rt::trace
