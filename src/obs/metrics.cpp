#include "src/obs/metrics.h"

#include <fstream>

#include "src/obs/json.h"

namespace t2m::obs {

namespace detail {
std::atomic<bool> g_metrics_enabled{false};
}  // namespace detail

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  const MutexLock lock(mutex_);  // no-span
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  const MutexLock lock(mutex_);  // no-span
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  const MutexLock lock(mutex_);  // no-span
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

std::map<std::string, std::uint64_t> MetricsRegistry::counter_values() {
  const MutexLock lock(mutex_);  // no-span
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, counter] : counters_) out[name] = counter->value();
  return out;
}

void MetricsRegistry::reset() {
  const MutexLock lock(mutex_);  // no-span
  for (auto& [name, counter] : counters_) counter->reset();
  for (auto& [name, gauge] : gauges_) gauge->reset();
  for (auto& [name, histogram] : histograms_) histogram->reset();
}

void MetricsRegistry::write_json(std::ostream& os) {
  const MutexLock lock(mutex_);  // no-span
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    os << (first ? "\n    " : ",\n    ");
    first = false;
    write_json_string(os, name);
    os << ": " << counter->value();
  }
  os << (first ? "}" : "\n  }") << ",\n  \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    os << (first ? "\n    " : ",\n    ");
    first = false;
    write_json_string(os, name);
    os << ": " << gauge->value();
  }
  os << (first ? "}" : "\n  }") << ",\n  \"histograms\": {";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    os << (first ? "\n    " : ",\n    ");
    first = false;
    write_json_string(os, name);
    os << ": {\"count\": " << histogram->count() << ", \"sum\": " << histogram->sum()
       << ", \"buckets\": [";
    bool first_bucket = true;
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
      const std::uint64_t n = histogram->bucket(b);
      if (n == 0) continue;
      if (!first_bucket) os << ", ";
      first_bucket = false;
      os << "[" << Histogram::bucket_floor(b) << ", " << n << "]";
    }
    os << "]}";
  }
  os << (first ? "}" : "\n  }") << "\n}\n";
}

bool MetricsRegistry::write_file(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  write_json(out);
  return bool(out);
}

}  // namespace t2m::obs
