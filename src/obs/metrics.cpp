#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>

#include "util/bytes.hpp"
#include "util/error.hpp"

namespace epi::obs {

const std::vector<double>& MetricsRegistry::default_bounds() {
  static const std::vector<double> bounds = {1e-6, 1e-5, 1e-4, 1e-3, 1e-2,
                                             1e-1, 1.0,  1e1,  1e2,  1e3};
  return bounds;
}

void MetricsRegistry::add(const std::string& name, std::uint64_t delta) {
  std::lock_guard<std::mutex> lock(mutex_);
  counters_[name] += delta;
}

void MetricsRegistry::set(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  gauges_[name] = value;
}

void MetricsRegistry::set_max(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    gauges_.emplace(name, value);
  } else {
    it->second = std::max(it->second, value);
  }
}

void MetricsRegistry::observe(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  observe_locked(name, value, default_bounds());
}

void MetricsRegistry::observe(const std::string& name, double value,
                              const std::vector<double>& bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  observe_locked(name, value, bounds);
}

void MetricsRegistry::observe_locked(const std::string& name, double value,
                                     const std::vector<double>& bounds) {
  EPI_REQUIRE(!bounds.empty() &&
                  std::is_sorted(bounds.begin(), bounds.end()) &&
                  std::adjacent_find(bounds.begin(), bounds.end()) ==
                      bounds.end(),
              "histogram '" << name << "' needs strictly increasing bounds");
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    Histogram histogram;
    histogram.bounds = bounds;
    histogram.counts.assign(bounds.size() + 1, 0);
    it = histograms_.emplace(name, std::move(histogram)).first;
  } else {
    EPI_REQUIRE(it->second.bounds == bounds,
                "histogram '" << name
                              << "' re-observed with different bounds");
  }
  Histogram& histogram = it->second;
  const auto bucket = static_cast<std::size_t>(
      std::lower_bound(histogram.bounds.begin(), histogram.bounds.end(),
                       value) -
      histogram.bounds.begin());
  ++histogram.counts[bucket];
  ++histogram.count;
  histogram.sum += value;
  if (value < histogram.bounds.front()) ++histogram.underflow;
  if (histogram.count == 1) {
    histogram.min = value;
    histogram.max = value;
  } else {
    histogram.min = std::min(histogram.min, value);
    histogram.max = std::max(histogram.max, value);
  }
}

std::uint64_t MetricsRegistry::counter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double MetricsRegistry::gauge(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

std::uint64_t MetricsRegistry::histogram_count(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? 0 : it->second.count;
}

std::vector<std::byte> MetricsRegistry::serialize_state() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ByteWriter out;
  out.u64(counters_.size());
  for (const auto& [name, value] : counters_) {
    out.str(name);
    out.u64(value);
  }
  out.u64(gauges_.size());
  for (const auto& [name, value] : gauges_) {
    out.str(name);
    out.f64(value);
  }
  out.u64(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    out.str(name);
    out.u64(histogram.bounds.size());
    for (const double bound : histogram.bounds) out.f64(bound);
    out.u64(histogram.counts.size());
    for (const std::uint64_t count : histogram.counts) out.u64(count);
    out.u64(histogram.count);
    out.u64(histogram.underflow);
    out.f64(histogram.sum);
    out.f64(histogram.min);
    out.f64(histogram.max);
  }
  return out.take();
}

void MetricsRegistry::merge_state(const std::vector<std::byte>& blob) {
  std::lock_guard<std::mutex> lock(mutex_);
  ByteReader in(blob, "metrics state blob");

  const std::uint64_t n_counters = in.u64();
  for (std::uint64_t i = 0; i < n_counters; ++i) {
    const std::string name = in.str();
    counters_[name] += in.u64();
  }

  const std::uint64_t n_gauges = in.u64();
  for (std::uint64_t i = 0; i < n_gauges; ++i) {
    const std::string name = in.str();
    const double value = in.f64();
    const auto it = gauges_.find(name);
    if (it == gauges_.end()) {
      gauges_.emplace(name, value);
    } else {
      it->second = std::max(it->second, value);
    }
  }

  const std::uint64_t n_histograms = in.u64();
  for (std::uint64_t i = 0; i < n_histograms; ++i) {
    const std::string name = in.str();
    Histogram incoming;
    incoming.bounds.resize(in.count(sizeof(double)));
    for (auto& bound : incoming.bounds) bound = in.f64();
    incoming.counts.resize(in.count(sizeof(std::uint64_t)));
    EPI_REQUIRE(incoming.counts.size() == incoming.bounds.size() + 1,
                "metrics state blob: histogram '"
                    << name << "' has " << incoming.counts.size()
                    << " buckets for " << incoming.bounds.size()
                    << " bounds");
    for (auto& count : incoming.counts) count = in.u64();
    incoming.count = in.u64();
    incoming.underflow = in.u64();
    incoming.sum = in.f64();
    incoming.min = in.f64();
    incoming.max = in.f64();

    const auto it = histograms_.find(name);
    if (it == histograms_.end()) {
      histograms_.emplace(name, std::move(incoming));
      continue;
    }
    Histogram& mine = it->second;
    EPI_REQUIRE(mine.bounds == incoming.bounds,
                "histogram '" << name
                              << "' merged with different bucket bounds");
    for (std::size_t b = 0; b < mine.counts.size(); ++b) {
      mine.counts[b] += incoming.counts[b];
    }
    if (incoming.count > 0) {
      mine.min = mine.count > 0 ? std::min(mine.min, incoming.min)
                                : incoming.min;
      mine.max = mine.count > 0 ? std::max(mine.max, incoming.max)
                                : incoming.max;
    }
    mine.count += incoming.count;
    mine.underflow += incoming.underflow;
    mine.sum += incoming.sum;
  }
  EPI_REQUIRE(in.done(), "trailing bytes in metrics state blob");
}

Json MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  JsonObject counters;
  for (const auto& [name, value] : counters_) counters[name] = value;
  JsonObject gauges;
  for (const auto& [name, value] : gauges_) gauges[name] = value;
  JsonObject histograms;
  for (const auto& [name, histogram] : histograms_) {
    JsonArray buckets;
    for (std::size_t i = 0; i < histogram.counts.size(); ++i) {
      JsonObject bucket;
      bucket["le"] = i < histogram.bounds.size()
                         ? Json(histogram.bounds[i])
                         : Json(std::string("+Inf"));
      bucket["count"] = histogram.counts[i];
      buckets.push_back(Json(std::move(bucket)));
    }
    // Quantile estimate: upper bound of the bucket holding the quantile
    // rank, clamped to the observed max (keeps the +Inf bucket finite and
    // makes single-observation histograms report the exact value).
    auto quantile = [&histogram](double q) {
      const auto rank = std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(
                 std::ceil(q * static_cast<double>(histogram.count))));
      std::uint64_t cumulative = 0;
      for (std::size_t i = 0; i < histogram.counts.size(); ++i) {
        cumulative += histogram.counts[i];
        if (cumulative >= rank) {
          return i < histogram.bounds.size()
                     ? std::min(histogram.bounds[i], histogram.max)
                     : histogram.max;
        }
      }
      return histogram.max;
    };
    JsonObject out;
    out["buckets"] = Json(std::move(buckets));
    out["count"] = histogram.count;
    out["max"] = histogram.max;
    out["min"] = histogram.min;
    out["overflow"] = histogram.counts.back();
    out["p50"] = quantile(0.50);
    out["p95"] = quantile(0.95);
    out["p99"] = quantile(0.99);
    out["sum"] = histogram.sum;
    out["underflow"] = histogram.underflow;
    histograms[name] = Json(std::move(out));
  }
  JsonObject doc;
  doc["counters"] = Json(std::move(counters));
  doc["gauges"] = Json(std::move(gauges));
  doc["histograms"] = Json(std::move(histograms));
  return Json(std::move(doc));
}

void MetricsRegistry::write(const std::string& path) const {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  std::ofstream out(path);
  if (!out) throw ConfigError("cannot write metrics file: " + path);
  out << snapshot().dump(2) << "\n";
  EPI_REQUIRE(out.good(), "short write to metrics file " << path);
}

}  // namespace epi::obs
