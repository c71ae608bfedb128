// Property-style invariants of the discovery protocol, swept over a grid
// of {topology x per-hop loss x collection window} configurations
// (parameterized gtest). Whatever the conditions, a successful discovery
// must satisfy the protocol's contracts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <ostream>

#include "scenario/scenario.hpp"

namespace narada {
namespace {

struct GridPoint {
    scenario::Topology topology;
    double per_hop_loss;
    double window_ms;
    std::uint64_t seed;
};

// gtest_discover_tests appends the printed GetParam() to each ctest name,
// and gtest's default dump of this struct includes the padding after
// `topology`, which holds whatever the memory held. This prints the same
// dump ("32-byte object <...>") built from the fields, the padding as
// zeros, so the names keep their text and are the same on every listing.
void PrintTo(const GridPoint& p, std::ostream* os) {
    unsigned char bytes[sizeof(GridPoint)] = {};
    std::memcpy(bytes + offsetof(GridPoint, topology), &p.topology, sizeof p.topology);
    std::memcpy(bytes + offsetof(GridPoint, per_hop_loss), &p.per_hop_loss,
                sizeof p.per_hop_loss);
    std::memcpy(bytes + offsetof(GridPoint, window_ms), &p.window_ms, sizeof p.window_ms);
    std::memcpy(bytes + offsetof(GridPoint, seed), &p.seed, sizeof p.seed);
    *os << sizeof bytes << "-byte object <";
    for (std::size_t i = 0; i < sizeof bytes; ++i) {
        if (i != 0) *os << (i % 2 == 0 ? ' ' : '-');
        char hex[3];
        std::snprintf(hex, sizeof hex, "%02X", bytes[i]);
        *os << hex;
    }
    *os << '>';
}

std::string point_name(const ::testing::TestParamInfo<GridPoint>& info) {
    const GridPoint& p = info.param;
    std::string name = scenario::to_string(p.topology);
    name += "_loss" + std::to_string(static_cast<int>(p.per_hop_loss * 10000));
    name += "_win" + std::to_string(static_cast<int>(p.window_ms));
    name += "_seed" + std::to_string(p.seed);
    return name;
}

class DiscoveryGridTest : public ::testing::TestWithParam<GridPoint> {
protected:
    scenario::ScenarioOptions make_options() const {
        const GridPoint& p = GetParam();
        scenario::ScenarioOptions opts;
        opts.topology = p.topology;
        opts.per_hop_loss = p.per_hop_loss;
        opts.discovery.response_window = from_ms(p.window_ms);
        opts.seed = p.seed;
        if (p.topology == scenario::Topology::kUnconnected) {
            opts.bdn.injection = config::InjectionStrategy::kAll;
        }
        if (p.topology == scenario::Topology::kLinear) {
            opts.register_with_bdn = 1;
        }
        return opts;
    }
};

TEST_P(DiscoveryGridTest, InvariantsHold) {
    scenario::Scenario s(make_options());
    const auto report = s.run_discovery();
    if (!report.success) {
        // Failure is only legitimate when no candidate was ever received.
        EXPECT_TRUE(report.candidates.empty());
        return;
    }

    // 1. The selected broker is a member of the target set, which is a
    //    subset of the candidates, bounded by the configured size.
    ASSERT_TRUE(report.selected.has_value());
    EXPECT_NE(std::find(report.target_set.begin(), report.target_set.end(), *report.selected),
              report.target_set.end());
    EXPECT_LE(report.target_set.size(),
              static_cast<std::size_t>(s.client().config().target_set_size));
    for (std::size_t index : report.target_set) {
        EXPECT_LT(index, report.candidates.size());
    }

    // 2. Candidates are unique per broker.
    for (std::size_t i = 0; i < report.candidates.size(); ++i) {
        for (std::size_t j = i + 1; j < report.candidates.size(); ++j) {
            EXPECT_NE(report.candidates[i].response.broker_id,
                      report.candidates[j].response.broker_id);
        }
    }

    // 3. The target set is ordered by non-increasing score, and no
    //    non-member outscores a member (it is exactly the top-k).
    for (std::size_t i = 0; i + 1 < report.target_set.size(); ++i) {
        EXPECT_GE(report.candidates[report.target_set[i]].score,
                  report.candidates[report.target_set[i + 1]].score);
    }
    if (report.target_set.size() < report.candidates.size()) {
        const double worst_member =
            report.candidates[report.target_set.back()].score;
        for (std::size_t i = 0; i < report.candidates.size(); ++i) {
            if (std::find(report.target_set.begin(), report.target_set.end(), i) !=
                report.target_set.end()) {
                continue;
            }
            EXPECT_LE(report.candidates[i].score, worst_member + 1e-9);
        }
    }

    // 4. If any target answered a ping, the winner has the minimal RTT.
    const auto* chosen = report.selected_candidate();
    if (chosen->ping_rtt >= 0) {
        for (std::size_t index : report.target_set) {
            const auto& candidate = report.candidates[index];
            if (candidate.ping_rtt >= 0) {
                EXPECT_LE(chosen->ping_rtt, candidate.ping_rtt);
            }
        }
        // Ping RTTs are real round trips: non-negative and plausible.
        EXPECT_LT(chosen->ping_rtt, from_ms(500));
    }

    // 5. Delay estimates stay within the NTP error envelope: true one-way
    //    plus at most ~2x20 ms of clock error on either side.
    for (const auto& candidate : report.candidates) {
        EXPECT_GT(candidate.estimated_delay, -from_ms(45));
        EXPECT_LT(candidate.estimated_delay, from_ms(200));
    }

    // 6. Phase accounting: phases nest inside the total.
    EXPECT_GE(report.collection_duration, 0);
    EXPECT_GE(report.ping_duration, 0);
    EXPECT_LE(report.collection_duration + report.scoring_duration + report.ping_duration,
              report.total_duration + 1);

    // 7. Every broker processed the request at most once (dedup), and
    //    nobody responded more than once.
    for (std::size_t i = 0; i < s.broker_count(); ++i) {
        const auto& stats = s.plugin_at(i).stats();
        EXPECT_LE(stats.responses_sent, 1u) << "broker " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DiscoveryGridTest,
    ::testing::ValuesIn([] {
        std::vector<GridPoint> points;
        const scenario::Topology topologies[] = {
            scenario::Topology::kUnconnected, scenario::Topology::kStar,
            scenario::Topology::kLinear, scenario::Topology::kFull,
            scenario::Topology::kRing,
        };
        const double losses[] = {0.0, 0.001, 0.01};
        const double windows_ms[] = {300, 4500};
        std::uint64_t seed = 1;
        for (const auto topology : topologies) {
            for (const double loss : losses) {
                for (const double window : windows_ms) {
                    points.push_back({topology, loss, window, seed += 13});
                }
            }
        }
        return points;
    }()),
    point_name);

}  // namespace
}  // namespace narada
