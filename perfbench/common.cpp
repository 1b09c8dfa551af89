#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {

bool bit_identical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

CpuTicks cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string line;
  if (!std::getline(stat, line) || line.rfind("cpu ", 0) != 0) return {};
  std::istringstream fields(line.substr(4));
  std::uint64_t user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0,
                softirq = 0, steal = 0;
  fields >> user >> nice >> system >> idle >> iowait >> irq >> softirq >> steal;
  return {.busy = user + nice + system + irq + softirq, .steal = steal};
}

void NetTimer::start() {
  c0_ = cpu_ticks();
  t0_ = Clock::now();
}

double NetTimer::stop() {
  const double wall = seconds(Clock::now() - t0_);
  const CpuTicks c1 = cpu_ticks();
  wall_s_ += wall;
  // Counters only grow; a failed read (zeros) leaves the interval's ticks out.
  if (c0_.busy != 0 && c1.busy >= c0_.busy && c1.steal >= c0_.steal) {
    busy_ += c1.busy - c0_.busy;
    steal_ += c1.steal - c0_.steal;
  }
  ++intervals_;
  return wall;
}

double NetTimer::steal_share() const {
  const std::uint64_t total = busy_ + steal_;
  return total == 0 ? 0.0 : static_cast<double>(steal_) / static_cast<double>(total);
}

void MetricSet::set(const std::string& name, double value,
                    const std::string& unit) {
  values_[name] = {value, unit};
}

std::string MetricSet::to_json() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, entry] : values_) {
    char value[64];
    // %.17g keeps every digit a double carries; non-finite values are not
    // JSON, so they print as null and fail a reader's checks loudly.
    if (std::isfinite(entry.first)) {
      std::snprintf(value, sizeof value, "%.17g", entry.first);
    } else {
      std::snprintf(value, sizeof value, "null");
    }
    out += first ? "" : ", ";
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           entry.second + "\"}";
    first = false;
  }
  return out + "}";
}

void Ledger::check(bool ok, const std::string& what) {
  attempt();
  if (ok) return;
  fail();
  const std::lock_guard lock(mutex_);
  broken_.push_back(what);
}

bool Ledger::correct() const {
  const std::lock_guard lock(mutex_);
  return broken_.empty();
}

std::vector<std::string> Ledger::broken() const {
  const std::lock_guard lock(mutex_);
  return broken_;
}

void Trace::record(const SpanRecord& span) {
  const std::lock_guard lock(mutex_);
  spans_.push_back(span);
}

std::vector<SpanRecord> Trace::spans() {
  const std::lock_guard lock(mutex_);
  return spans_;
}

namespace {
// Ids of the spans open on this thread, innermost last.
thread_local std::vector<std::uint64_t> open_spans;
}  // namespace

Span::Span(const char* name, std::uint64_t request) {
  if (!Trace::on()) return;
  live_ = true;
  rec_.name = name;
  rec_.id = Trace::next_id();
  rec_.parent = open_spans.empty() ? 0 : open_spans.back();
  rec_.request = request;
  open_spans.push_back(rec_.id);
  rec_.start = Clock::now();
}

Span::~Span() {
  if (!live_) return;
  rec_.end = Clock::now();
  open_spans.pop_back();
  Trace::record(rec_);
}

SpanIndex::SpanIndex(std::vector<SpanRecord> spans) : spans_(std::move(spans)) {
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    by_id_[spans_[i].id] = i;
    if (spans_[i].parent != 0) children_[spans_[i].parent].push_back(i);
  }
}

bool SpanIndex::under(const SpanRecord& span, const std::string& root) const {
  for (std::uint64_t id = span.parent; id != 0;) {
    const auto it = by_id_.find(id);
    if (it == by_id_.end()) return false;
    if (root == spans_[it->second].name) return true;
    id = spans_[it->second].parent;
  }
  return false;
}

std::vector<double> SpanIndex::durations(const std::string& name,
                                         const std::string& root) const {
  std::vector<double> out;
  for (const SpanRecord& s : spans_) {
    if (name != s.name || (!root.empty() && !under(s, root))) continue;
    out.push_back(seconds(s.end - s.start));
  }
  return out;
}

double SpanIndex::self_of(const SpanRecord& span) const {
  // Children run nested on the span's own thread, so they never overlap
  // one another; clipping to the parent guards against clock rounding.
  double covered = 0.0;
  if (const auto it = children_.find(span.id); it != children_.end()) {
    for (const std::size_t c : it->second) {
      const auto begin = std::max(spans_[c].start, span.start);
      const auto end = std::min(spans_[c].end, span.end);
      if (end > begin) covered += seconds(end - begin);
    }
  }
  return seconds(span.end - span.start) - covered;
}

double SpanIndex::self_seconds(const std::string& name,
                               const std::string& root) const {
  double total = 0.0;
  for (const SpanRecord& s : spans_) {
    if (name != s.name || (!root.empty() && !under(s, root))) continue;
    total += self_of(s);
  }
  return total;
}

double SpanIndex::descendant_self(std::uint64_t id) const {
  double total = 0.0;
  if (const auto it = children_.find(id); it != children_.end()) {
    for (const std::size_t c : it->second) {
      total += self_of(spans_[c]) + descendant_self(spans_[c].id);
    }
  }
  return total;
}

double SpanIndex::cover(const std::string& root) const {
  double root_s = 0.0;
  double layers_s = 0.0;
  for (const SpanRecord& s : spans_) {
    if (root != s.name) continue;
    root_s += seconds(s.end - s.start);
    layers_s += descendant_self(s.id);
  }
  return root_s > 0.0 ? layers_s / root_s : 0.0;
}

}  // namespace perfbench
