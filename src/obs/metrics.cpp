#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/json.hpp"

namespace narada::obs {

Histogram::Histogram(std::vector<double> upper_bounds) : bounds_(std::move(upper_bounds)) {
    buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
    for (std::size_t i = 0; i <= bounds_.size(); ++i) {
        buckets_[i].store(0, std::memory_order_relaxed);
    }
}

void Histogram::observe(double v) noexcept {
    const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
    const auto idx = static_cast<std::size_t>(it - bounds_.begin());
    buckets_[idx].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    double cur = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
    }
}

Histogram::Snapshot Histogram::snapshot() const {
    Snapshot snap;
    snap.bounds = bounds_;
    snap.counts.resize(bounds_.size() + 1);
    for (std::size_t i = 0; i <= bounds_.size(); ++i) {
        snap.counts[i] = buckets_[i].load(std::memory_order_relaxed);
    }
    snap.count = count_.load(std::memory_order_relaxed);
    snap.sum = sum_.load(std::memory_order_relaxed);
    return snap;
}

std::vector<double> latency_buckets_ms() {
    return {0.5, 1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000};
}

std::vector<double> batch_buckets() { return {1, 2, 4, 8, 16, 32, 64}; }

Counter& MetricsRegistry::counter(const std::string& name, const std::string& node) {
    std::lock_guard<std::mutex> lock(mu_);
    auto& slot = counters_[{name, node}];
    if (!slot) slot = std::make_unique<Counter>();
    return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const std::string& node) {
    std::lock_guard<std::mutex> lock(mu_);
    auto& slot = gauges_[{name, node}];
    if (!slot) slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name, const std::string& node,
                                      std::vector<double> bounds) {
    std::lock_guard<std::mutex> lock(mu_);
    auto& slot = histograms_[{name, node}];
    if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
    return *slot;
}

std::uint64_t MetricsRegistry::counter_value(const std::string& name,
                                             const std::string& node) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = counters_.find({name, node});
    return it == counters_.end() ? 0 : it->second->value();
}

namespace {

void append_labels(std::string& out, const std::string& node) {
    if (node.empty()) return;
    out += "{node=\"";
    out += node;  // node labels are hostnames/roles; no quotes expected
    out += "\"}";
}

std::string format_double(double v) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

}  // namespace

std::string MetricsRegistry::to_prometheus() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::string out;
    for (const auto& [key, counter] : counters_) {
        out += "# TYPE narada_" + key.first + " counter\n";
        out += "narada_" + key.first;
        append_labels(out, key.second);
        out += " " + std::to_string(counter->value()) + "\n";
    }
    for (const auto& [key, gauge] : gauges_) {
        out += "# TYPE narada_" + key.first + " gauge\n";
        out += "narada_" + key.first;
        append_labels(out, key.second);
        out += " " + format_double(gauge->value()) + "\n";
    }
    for (const auto& [key, hist] : histograms_) {
        const auto snap = hist->snapshot();
        out += "# TYPE narada_" + key.first + " histogram\n";
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < snap.bounds.size(); ++i) {
            cumulative += snap.counts[i];
            out += "narada_" + key.first + "_bucket{";
            if (!key.second.empty()) out += "node=\"" + key.second + "\",";
            out += "le=\"" + format_double(snap.bounds[i]) + "\"} " +
                   std::to_string(cumulative) + "\n";
        }
        out += "narada_" + key.first + "_bucket{";
        if (!key.second.empty()) out += "node=\"" + key.second + "\",";
        out += "le=\"+Inf\"} " + std::to_string(snap.count) + "\n";
        out += "narada_" + key.first + "_sum";
        append_labels(out, key.second);
        out += " " + format_double(snap.sum) + "\n";
        out += "narada_" + key.first + "_count";
        append_labels(out, key.second);
        out += " " + std::to_string(snap.count) + "\n";
    }
    return out;
}

std::string MetricsRegistry::to_json() const {
    std::lock_guard<std::mutex> lock(mu_);
    JsonWriter w;
    w.begin_object();
    w.key("counters").begin_array();
    for (const auto& [key, counter] : counters_) {
        w.begin_object()
            .field("name", key.first)
            .field("node", key.second)
            .field("value", counter->value())
            .end_object();
    }
    w.end_array();
    w.key("gauges").begin_array();
    for (const auto& [key, gauge] : gauges_) {
        w.begin_object()
            .field("name", key.first)
            .field("node", key.second)
            .field("value", gauge->value())
            .end_object();
    }
    w.end_array();
    w.key("histograms").begin_array();
    for (const auto& [key, hist] : histograms_) {
        const auto snap = hist->snapshot();
        w.begin_object()
            .field("name", key.first)
            .field("node", key.second)
            .field("count", snap.count)
            .field("sum", snap.sum);
        w.key("buckets").begin_array();
        for (std::size_t i = 0; i < snap.bounds.size(); ++i) {
            w.begin_array().value(snap.bounds[i]).value(snap.counts[i]).end_array();
        }
        w.begin_array().value_null().value(snap.counts[snap.bounds.size()]).end_array();
        w.end_array();
        w.end_object();
    }
    w.end_array();
    w.end_object();
    return w.take();
}

}  // namespace narada::obs
