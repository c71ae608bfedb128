#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace narada::obs {
namespace {

TEST(Counter, StartsAtZeroAndAccumulates) {
    MetricsRegistry registry;
    Counter& c = registry.counter("bdn_requests_received", "bdn0");
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
    EXPECT_EQ(registry.counter_value("bdn_requests_received", "bdn0"), 42u);
}

TEST(Counter, FetchOrCreateReturnsSameHandle) {
    MetricsRegistry registry;
    Counter& a = registry.counter("x", "n");
    Counter& b = registry.counter("x", "n");
    EXPECT_EQ(&a, &b);
    // Different node label: a distinct series.
    Counter& c = registry.counter("x", "m");
    EXPECT_NE(&a, &c);
}

TEST(Counter, ConcurrentIncrementsAreExact) {
    MetricsRegistry registry;
    Counter& c = registry.counter("hot", "node");
    constexpr int kThreads = 4;
    constexpr int kPerThread = 20000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&c] {
            for (int i = 0; i < kPerThread; ++i) c.inc();
        });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Gauge, SetAddMax) {
    MetricsRegistry registry;
    Gauge& g = registry.gauge("queue_depth", "bdn0");
    g.set(5.0);
    EXPECT_DOUBLE_EQ(g.value(), 5.0);
    g.add(-2.0);
    EXPECT_DOUBLE_EQ(g.value(), 3.0);
    g.max_of(10.0);
    EXPECT_DOUBLE_EQ(g.value(), 10.0);
    g.max_of(4.0);  // lower: no change
    EXPECT_DOUBLE_EQ(g.value(), 10.0);
}

TEST(Histogram, BucketsObservationsAtBounds) {
    MetricsRegistry registry;
    Histogram& h = registry.histogram("lat_ms", "n", {1.0, 10.0, 100.0});
    h.observe(0.5);    // <= 1
    h.observe(1.0);    // le semantics: lands in the 1.0 bucket
    h.observe(50.0);   // <= 100
    h.observe(1e9);    // +Inf bucket
    const Histogram::Snapshot snap = h.snapshot();
    ASSERT_EQ(snap.counts.size(), 4u);
    EXPECT_EQ(snap.counts[0], 2u);
    EXPECT_EQ(snap.counts[1], 0u);
    EXPECT_EQ(snap.counts[2], 1u);
    EXPECT_EQ(snap.counts[3], 1u);
    EXPECT_EQ(snap.count, 4u);
    EXPECT_DOUBLE_EQ(snap.sum, 0.5 + 1.0 + 50.0 + 1e9);
}

TEST(Histogram, LatencyLadderIsSorted) {
    const std::vector<double> bounds = latency_buckets_ms();
    ASSERT_FALSE(bounds.empty());
    for (std::size_t i = 1; i < bounds.size(); ++i) EXPECT_LT(bounds[i - 1], bounds[i]);
}

TEST(Registry, PrometheusExposition) {
    MetricsRegistry registry;
    registry.counter("bdn_requests_received", "bdn0").inc(7);
    registry.gauge("queue_depth", "bdn0").set(2.0);
    registry.histogram("lat_ms", "bdn0", {1.0, 10.0}).observe(3.0);
    const std::string text = registry.to_prometheus();
    EXPECT_NE(text.find("narada_bdn_requests_received{node=\"bdn0\"} 7"), std::string::npos);
    EXPECT_NE(text.find("narada_queue_depth{node=\"bdn0\"} 2"), std::string::npos);
    // Cumulative buckets plus +Inf.
    EXPECT_NE(text.find("narada_lat_ms_bucket{node=\"bdn0\",le=\"10\"} 1"), std::string::npos);
    EXPECT_NE(text.find("le=\"+Inf\"} 1"), std::string::npos);
    EXPECT_NE(text.find("narada_lat_ms_count{node=\"bdn0\"} 1"), std::string::npos);
}

TEST(Registry, JsonSnapshotIsOneLine) {
    MetricsRegistry registry;
    registry.counter("a", "n").inc();
    registry.histogram("h", "n", {5.0}).observe(2.0);
    const std::string json = registry.to_json();
    EXPECT_EQ(json.find('\n'), std::string::npos);
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"histograms\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"a\""), std::string::npos);
}

TEST(Registry, CounterValueMissingIsZero) {
    MetricsRegistry registry;
    EXPECT_EQ(registry.counter_value("never_created", "nowhere"), 0u);
}

}  // namespace
}  // namespace narada::obs
