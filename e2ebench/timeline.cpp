// Timeline: the benchmark's spans merged with spans adopted from the
// program, plus the self-time table and the Chrome trace writer.
#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "obs/metrics.hpp"
#include "util/json_lite.hpp"

namespace wkbench {

namespace {

// Adopted threads of the benchmark's own process that are not the calling
// thread (the Study's pool threads) render on lanes from here up.
constexpr std::uint32_t kAdoptedThreadBase = 1000;
// Processes of an adopted Chrome trace render as pid + this offset, clear
// of the benchmark's pid 1.
constexpr std::uint32_t kAdoptedPidOffset = 10;

std::uint64_t shifted(std::uint64_t ts_us, std::int64_t offset_us) {
  const std::int64_t ts = static_cast<std::int64_t>(ts_us) + offset_us;
  return ts < 0 ? 0 : static_cast<std::uint64_t>(ts);
}

}  // namespace

std::optional<obs::TraceEvent> Timeline::last_event(
    const std::string& name) const {
  std::optional<obs::TraceEvent> found;
  for (auto& e : tracer_.events()) {
    if (e.name == name && (!found || e.ts_us > found->ts_us)) {
      found = std::move(e);
    }
  }
  return found;
}

void Timeline::adopt_tracer(const std::string& parent,
                            const obs::Tracer& other) {
  if (!enabled()) return;
  const auto host = last_event(parent);
  if (!host) return;
  const std::int64_t offset_us =
      static_cast<std::int64_t>(tracer_.now_us()) -
      static_cast<std::int64_t>(other.now_us());
  // A tracer numbers threads in the order they first open a span in it, so
  // its thread 0 is the one that called into the program — the thread the
  // parent span is on.
  for (const auto& e : other.events()) {
    TimelineEvent t;
    t.name = e.name;
    t.tid = e.tid == 0 ? host->tid : kAdoptedThreadBase + e.tid;
    t.ts_us = shifted(e.ts_us, offset_us);
    t.dur_us = e.dur_us;
    adopted_.push_back(std::move(t));
  }
}

void Timeline::adopt_chrome_trace(const std::string& parent,
                                  const fs::path& path) {
  if (!enabled()) return;
  const auto host = last_event(parent);
  if (!host) return;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("no trace file at " + path.string());
  std::stringstream text;
  text << in.rdbuf();
  const auto doc = weakkeys::jsonlite::parse(text.str());
  for (const auto& e : doc.at("traceEvents").array()) {
    if (e.at("ph").str() != "X") continue;
    TimelineEvent t;
    t.name = e.at("name").str();
    t.pid = kAdoptedPidOffset + static_cast<std::uint32_t>(e.at("pid").integer());
    t.tid = static_cast<std::uint32_t>(e.at("tid").integer());
    t.ts_us = host->ts_us + static_cast<std::uint64_t>(e.at("ts").integer());
    t.dur_us = static_cast<std::uint64_t>(e.at("dur").integer());
    adopted_.push_back(std::move(t));
  }
}

std::vector<TimelineEvent> Timeline::events() const {
  std::vector<TimelineEvent> out;
  for (const auto& e : tracer_.events()) {
    out.push_back({e.name, 1, e.tid, e.ts_us, e.dur_us});
  }
  out.insert(out.end(), adopted_.begin(), adopted_.end());
  return out;
}

std::map<std::string, LayerTime> Timeline::layer_times() const {
  std::vector<TimelineEvent> events = this->events();
  // Per lane, in start order with enclosing spans first: a span's parent is
  // the innermost earlier span on the lane that still contains it.
  std::sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
    if (a.pid != b.pid) return a.pid < b.pid;
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
    return a.dur_us > b.dur_us;
  });
  std::vector<std::uint64_t> covered(events.size(), 0);
  std::vector<std::size_t> open;  // indices of enclosing spans
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TimelineEvent& e = events[i];
    while (!open.empty()) {
      const TimelineEvent& top = events[open.back()];
      const bool same_lane = top.pid == e.pid && top.tid == e.tid;
      if (same_lane && e.ts_us + e.dur_us <= top.ts_us + top.dur_us) break;
      open.pop_back();
    }
    if (!open.empty()) covered[open.back()] += e.dur_us;
    open.push_back(i);
  }
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < events.size(); ++i) {
    LayerTime& t = out[events[i].name];
    const std::uint64_t dur = events[i].dur_us;
    ++t.count;
    t.total_s += static_cast<double>(dur) / 1e6;
    t.self_s += static_cast<double>(dur - std::min(dur, covered[i])) / 1e6;
  }
  return out;
}

void Timeline::write_chrome_trace(const fs::path& path) const {
  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const auto& e : events()) {
    out << (first ? "\n" : ",\n") << "{\"name\":\""
        << obs::json_escape(e.name) << "\",\"ph\":\"X\",\"pid\":" << e.pid
        << ",\"tid\":" << e.tid << ",\"ts\":" << e.ts_us
        << ",\"dur\":" << e.dur_us << "}";
    first = false;
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

void write_layer_times(const std::map<std::string, LayerTime>& times,
                       const fs::path& path) {
  std::ofstream out(path);
  out.precision(9);
  out << "{";
  bool first = true;
  for (const auto& [name, t] : times) {
    out << (first ? "\n" : ",\n") << "  \"" << obs::json_escape(name)
        << "\": {\"count\": " << t.count << ", \"total_s\": " << t.total_s
        << ", \"self_s\": " << t.self_s << "}";
    first = false;
  }
  out << "\n}\n";
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

}  // namespace wkbench
