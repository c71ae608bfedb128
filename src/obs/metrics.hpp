// Lock-light metrics registry.
//
// Components take instrument handles (Counter&, Gauge&, Histogram&) from a
// MetricsRegistry once, at wiring time; from then on every update is a
// single relaxed atomic operation — no lock is ever taken on a hot path.
// The registry itself serializes only instrument creation and snapshotting
// behind a mutex, and instruments live behind unique_ptr so handles stay
// stable for the registry's lifetime no matter how many instruments are
// registered afterwards.
//
// Naming scheme (DESIGN.md §7): metric names are lower_snake_case and
// component-prefixed (`bdn_requests_received`, `broker_events_forwarded`,
// `transport_bytes_in`); the `node` label carries the emitting node's
// hostname or role so one registry can serve a whole simulated deployment.
// Exporters emit Prometheus-style text (names prefixed `narada_`) and a
// single-line JSON snapshot compatible with the bench `NARADA_JSON`
// convention.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace narada::obs {

/// Monotonic counter. Relaxed atomics: totals are exact, cross-counter
/// ordering is not promised (snapshots are advisory, not transactional).
class Counter {
public:
    void inc(std::uint64_t n = 1) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
    [[nodiscard]] std::uint64_t value() const noexcept {
        return value_.load(std::memory_order_relaxed);
    }

private:
    std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins gauge with CAS-based add/max updates.
class Gauge {
public:
    void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
    void add(double d) noexcept {
        double cur = value_.load(std::memory_order_relaxed);
        while (!value_.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
        }
    }
    /// Raise the gauge to `v` if `v` exceeds the current value (high-watermarks).
    void max_of(double v) noexcept {
        double cur = value_.load(std::memory_order_relaxed);
        while (cur < v && !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
        }
    }
    [[nodiscard]] double value() const noexcept { return value_.load(std::memory_order_relaxed); }

private:
    std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram. Bucket bounds are set at construction and never
/// change; observe() is a bounds scan plus three relaxed atomic updates.
/// Buckets are non-cumulative internally; the snapshot reports them
/// Prometheus-style (cumulative, with an implicit +Inf bucket).
class Histogram {
public:
    /// `upper_bounds` must be sorted ascending; an implicit +Inf bucket is
    /// always appended.
    explicit Histogram(std::vector<double> upper_bounds);

    void observe(double v) noexcept;

    struct Snapshot {
        std::vector<double> bounds;          ///< finite upper bounds (le)
        std::vector<std::uint64_t> counts;   ///< per-bucket, bounds.size()+1 entries
        std::uint64_t count = 0;
        double sum = 0;
    };
    [[nodiscard]] Snapshot snapshot() const;
    [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }

private:
    std::vector<double> bounds_;
    std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  ///< bounds_.size()+1
    std::atomic<std::uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
};

/// Default bucket ladder for latency histograms, in milliseconds: covers
/// sub-millisecond LAN hops up through the paper's 4.5 s response window.
std::vector<double> latency_buckets_ms();

/// Power-of-two ladder for syscall batch-size histograms (recvmmsg /
/// sendmmsg datagrams per call): {1, 2, 4, 8, 16, 32, 64}.
std::vector<double> batch_buckets();

class MetricsRegistry {
public:
    /// Fetch-or-create. Handles remain valid for the registry's lifetime.
    Counter& counter(const std::string& name, const std::string& node = "");
    Gauge& gauge(const std::string& name, const std::string& node = "");
    /// `bounds` is only consulted on first creation of (name, node).
    Histogram& histogram(const std::string& name, const std::string& node,
                         std::vector<double> bounds);

    /// Prometheus text exposition (names prefixed `narada_`, node label).
    [[nodiscard]] std::string to_prometheus() const;
    /// Single-line JSON object:
    /// {"counters":[{"name","node","value"}...],"gauges":[...],"histograms":[...]}
    [[nodiscard]] std::string to_json() const;

    [[nodiscard]] std::uint64_t counter_value(const std::string& name,
                                              const std::string& node = "") const;

private:
    using Key = std::pair<std::string, std::string>;  ///< (name, node)

    mutable std::mutex mu_;  ///< creation + snapshot only; never on update paths
    std::map<Key, std::unique_ptr<Counter>> counters_;
    std::map<Key, std::unique_ptr<Gauge>> gauges_;
    std::map<Key, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace narada::obs
