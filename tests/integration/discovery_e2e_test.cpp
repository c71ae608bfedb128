// End-to-end discovery runs on the paper's three topologies.
#include <gtest/gtest.h>

#include "scenario/scenario.hpp"

namespace narada {
namespace {

using scenario::Scenario;
using scenario::ScenarioOptions;
using scenario::Topology;

ScenarioOptions base_options(Topology topology, std::uint64_t seed = 1) {
    ScenarioOptions opts;
    opts.topology = topology;
    opts.seed = seed;
    if (topology == Topology::kUnconnected) {
        // Figure 1: no broker network; the BDN distributes to each
        // registered broker itself (O(N) distribution).
        opts.bdn.injection = config::InjectionStrategy::kAll;
    }
    if (topology == Topology::kLinear) {
        // Figure 10: "only one broker is registered with the BDN".
        opts.register_with_bdn = 1;
    }
    return opts;
}

TEST(DiscoveryE2E, StarTopologySelectsABroker) {
    Scenario s(base_options(Topology::kStar));
    const auto report = s.run_discovery();
    ASSERT_TRUE(report.success);
    EXPECT_EQ(report.candidates.size(), 5u);  // all five brokers answered
    ASSERT_TRUE(report.selected.has_value());
    const auto* chosen = report.selected_candidate();
    ASSERT_NE(chosen, nullptr);
    EXPECT_GE(chosen->ping_rtt, 0);
}

TEST(DiscoveryE2E, UnconnectedTopologyStillDiscovers) {
    Scenario s(base_options(Topology::kUnconnected));
    const auto report = s.run_discovery();
    ASSERT_TRUE(report.success);
    EXPECT_GE(report.candidates.size(), 4u);
}

TEST(DiscoveryE2E, LinearTopologyReachesUnregisteredBrokers) {
    Scenario s(base_options(Topology::kLinear));
    const auto report = s.run_discovery();
    ASSERT_TRUE(report.success);
    // Only broker 0 registered, but the request floods the chain: brokers
    // that never advertised still respond (§2.1, §10).
    EXPECT_EQ(s.bdn().registered_count(), 1u);
    EXPECT_GE(report.candidates.size(), 4u);
}

TEST(DiscoveryE2E, SelectedBrokerIsNearestByPing) {
    Scenario s(base_options(Topology::kStar, /*seed=*/7));
    const auto report = s.run_discovery();
    ASSERT_TRUE(report.success);
    const auto* chosen = report.selected_candidate();
    ASSERT_NE(chosen, nullptr);
    for (std::size_t index : report.target_set) {
        const auto& candidate = report.candidates[index];
        if (candidate.ping_rtt < 0) continue;
        EXPECT_LE(chosen->ping_rtt, candidate.ping_rtt);
    }
}

TEST(DiscoveryE2E, PhaseTimingsAreConsistent) {
    Scenario s(base_options(Topology::kStar, /*seed=*/3));
    const auto report = s.run_discovery();
    ASSERT_TRUE(report.success);
    EXPECT_GE(report.time_to_ack, 0);
    EXPECT_GE(report.time_to_first_response, report.time_to_ack);
    EXPECT_GE(report.collection_duration, report.time_to_first_response);
    EXPECT_GE(report.total_duration,
              report.collection_duration + report.scoring_duration + report.ping_duration);
    const auto breakdown = scenario::phase_breakdown(report);
    const double sum = breakdown.request_and_ack_pct + breakdown.wait_responses_pct +
                       breakdown.shortlist_pct + breakdown.ping_select_pct;
    EXPECT_GT(sum, 50.0);
    EXPECT_LE(sum, 100.5);
}

TEST(DiscoveryE2E, EstimatedDelaysWithinClockErrorBand) {
    Scenario s(base_options(Topology::kStar, /*seed=*/11));
    const auto report = s.run_discovery();
    ASSERT_TRUE(report.success);
    for (const auto& candidate : report.candidates) {
        // One-way delay estimate = true one-way + NTP errors of both ends;
        // each end is within +-20 ms (paper §5), so the estimate is within
        // about +-40 ms of truth and must stay inside a sane WAN envelope.
        EXPECT_GT(candidate.estimated_delay, -from_ms(45.0));
        EXPECT_LT(candidate.estimated_delay, from_ms(150.0));
    }
}

TEST(DiscoveryE2E, DeterministicUnderSeed) {
    auto run = [](std::uint64_t seed) {
        Scenario s(base_options(Topology::kStar, seed));
        return s.run_discovery();
    };
    const auto a = run(99);
    const auto b = run(99);
    ASSERT_EQ(a.success, b.success);
    ASSERT_EQ(a.candidates.size(), b.candidates.size());
    EXPECT_EQ(a.total_duration, b.total_duration);
    ASSERT_TRUE(a.selected.has_value());
    ASSERT_TRUE(b.selected.has_value());
    EXPECT_EQ(a.candidates[*a.selected].response.broker_name,
              b.candidates[*b.selected].response.broker_name);
}

TEST(DiscoveryE2E, StarWaitsLessThanUnconnected) {
    // The paper's central comparative finding (Figures 2 vs 9): the broker
    // network disseminates requests faster than the BDN's O(N) fan-out.
    // Loss disabled: a single lost response costs a full collection window
    // and would drown the dissemination-time comparison in noise.
    ScenarioOptions star_opts = base_options(Topology::kStar, 5);
    ScenarioOptions unc_opts = base_options(Topology::kUnconnected, 5);
    star_opts.per_hop_loss = 0;
    unc_opts.per_hop_loss = 0;
    Scenario star(star_opts);
    Scenario unconnected(unc_opts);
    const auto star_report = star.run_discovery();
    const auto unc_report = unconnected.run_discovery();
    ASSERT_TRUE(star_report.success);
    ASSERT_TRUE(unc_report.success);
    EXPECT_LT(star_report.collection_duration, unc_report.collection_duration);
}

}  // namespace
}  // namespace narada
