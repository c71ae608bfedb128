// swarm_churn: the same BDN, broker and scoring code on the simulator, with
// no sockets. A 10k-endpoint SoA swarm against 8 brokers and 4 federated
// BDNs: a flash crowd over 10 s, then 20 % of the population rebinding
// (NAT churn) and rediscovering every virtual second. The churn horizon
// follows the run length, and the plan is replayed on a fresh scenario
// until the run's seconds are spent, so every run checks that a seed
// replays to the same digest and the same virtual latencies.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/stats.hpp"
#include "scenario/swarm_scenario.hpp"
#include "swarm/workload.hpp"

namespace perfbench {
namespace {

using namespace narada;

constexpr std::uint32_t kEndpoints = 10'000;
constexpr DurationUs kFlashCrowd = 10 * kSecond;
constexpr double kChurnFraction = 0.2;
/// Virtual seconds of churn per second of run length.
constexpr int kChurnPerRunSecond = 6;
constexpr DurationUs kDrain = 10 * kSecond;
constexpr int kMaxReplays = 8;
/// setup_s is the median of at least this many setups (construction and
/// warm-up cost about a millisecond, so extra ones are cheap).
constexpr std::size_t kMinSetups = 31;

struct Replay {
    double setup_s = 0;
    double cpu_s = 0;
    std::size_t events = 0;
    std::string digest;
    double p50_ms = 0;
    double p90_ms = 0;
    swarm::SwarmCounters counters;
    std::size_t samples = 0;
    std::size_t state_bytes = 0;
    std::uint64_t bdn_requests = 0, bdn_shed = 0, bdn_injections = 0, bdn_duplicates = 0;
    double bdn_service_us = 0;  ///< virtual BDN busy time: serviced requests x service cost
    std::uint64_t gathers = 0, gathers_partial = 0;
    std::uint64_t broker_ingested = 0, broker_duplicates = 0;
};

scenario::SwarmScenarioOptions scenario_options(std::uint64_t seed) {
    scenario::SwarmScenarioOptions options;
    options.capacity = kEndpoints;
    options.broker_count = 8;
    options.bdn_count = 4;
    options.seed = seed;
    return options;
}

/// A built and warmed-up scenario; `setup_s` is what building it took.
std::unique_ptr<scenario::SwarmScenario> set_up(std::uint64_t seed, double& setup_s) {
    const std::int64_t t0 = now_ns();
    auto sc = std::make_unique<scenario::SwarmScenario>(scenario_options(seed));
    sc->warm_up();
    setup_s = static_cast<double>(now_ns() - t0) / 1e9;
    return sc;
}

Replay replay(const swarm::WorkloadPlan& plan, std::uint64_t seed) {
    Replay r;
    const auto owned = set_up(seed, r.setup_s);
    scenario::SwarmScenario& sc = *owned;

    const double cpu0 = thread_cpu_s();
    r.events = sc.run_plan(plan, kDrain);
    r.cpu_s = thread_cpu_s() - cpu0;

    const SampleSet& latency = sc.swarm().discovery_latency_ms();
    r.samples = latency.size();
    r.p50_ms = latency.percentile(50);
    r.p90_ms = latency.percentile(90);
    r.digest = sc.swarm().metrics_digest_hex();
    r.counters = sc.swarm().counters();
    r.state_bytes = sc.swarm().state_bytes();
    for (std::size_t i = 0; i < sc.bdn_count(); ++i) {
        const auto& s = sc.bdn_at(i).stats();
        r.bdn_requests += s.requests_received;
        r.bdn_shed += s.requests_shed();
        r.bdn_injections += s.injections;
        r.bdn_duplicates += s.duplicate_requests;
        r.gathers += s.gathers;
        r.gathers_partial += s.gathers_partial;
        r.bdn_service_us += static_cast<double>(s.requests_serviced) *
                            static_cast<double>(sc.bdn_at(i).config().request_service_cost);
    }
    for (std::size_t i = 0; i < sc.broker_count(); ++i) {
        r.broker_ingested += sc.broker_at(i).stats().events_ingested;
        r.broker_duplicates += sc.broker_at(i).stats().duplicates_suppressed;
    }
    return r;
}

}  // namespace

Result run_swarm_churn(const Args& args) {
    swarm::WorkloadPlan plan;
    plan.flash_crowd(0, kEndpoints, kFlashCrowd);
    plan.mobile_churn(kFlashCrowd, kChurnFraction, kSecond,
                      static_cast<DurationUs>(kChurnPerRunSecond) * args.seconds * kSecond);

    std::vector<Replay> replays;
    const std::int64_t start = now_ns();
    const std::int64_t budget = static_cast<std::int64_t>(args.seconds) * 1'000'000'000;
    while (replays.size() < 2 ||
           (now_ns() - start < budget && replays.size() < kMaxReplays)) {
        replays.push_back(replay(plan, args.seed));
    }

    std::vector<double> setups;
    while (setups.size() + replays.size() < kMinSetups) {
        set_up(args.seed, setups.emplace_back());
    }

    Result result;
    const Replay& first = replays.front();
    std::vector<double> cpu_us;
    for (const Replay& r : replays) {
        result.check(r.digest == first.digest && r.events == first.events &&
                         r.p50_ms == first.p50_ms && r.p90_ms == first.p90_ms,
                     "swarm replay with the same seed diverged (digest " + r.digest + " vs " +
                         first.digest + ")");
        setups.push_back(r.setup_s);
        cpu_us.push_back(ratio(r.cpu_s * 1e6, static_cast<double>(r.counters.connects)));
    }
    const swarm::SwarmCounters& c = first.counters;
    result.check(first.samples == c.connects, "latency samples do not match accepted responses");
    // Every activation and every rediscovery of a connected client starts a
    // discovery; one that has not connected when the drain ends failed.
    result.attempted = c.started + c.rediscoveries;
    result.failed = result.attempted > c.connects ? result.attempted - c.connects : 0;
    const double discoveries = static_cast<double>(c.connects);
    const SampleSet cpu(cpu_us);

    if (!args.trace) {
        result.set("latency_p50_ms", first.p50_ms, "ms");
        result.set("latency_p90_ms", first.p90_ms, "ms");
        // Virtual, like the latencies: the simulated BDNs' modeled service
        // time per discovery. The sim thread's host CPU swings with cache
        // contention on a shared host, so it is the per-layer
        // swarm.cpu_us_per_discovery instead (NOTES.md).
        result.set("cpu_us_per_discovery", ratio(first.bdn_service_us, discoveries), "us");
        result.set("peak_rss_mb", peak_rss_mb(), "MB");
        result.set("setup_s", SampleSet(setups).median(), "s");
    } else {
        result.set("sim.events_per_discovery", ratio(static_cast<double>(first.events), discoveries),
                   "count");
        result.set("sim.ns_per_event",
                   ratio(cpu.median() * 1e3 * discoveries, static_cast<double>(first.events)), "ns");
        result.set("swarm.cpu_us_per_discovery", cpu.median(), "us");
        result.set("swarm.requests_per_discovery",
                   ratio(static_cast<double>(c.requests_sent), discoveries), "count");
        result.set("swarm.retransmits_per_discovery",
                   ratio(static_cast<double>(c.retransmits), discoveries), "count");
        result.set("swarm.bytes_per_endpoint",
                   ratio(static_cast<double>(first.state_bytes), kEndpoints), "B");
        const double requests = static_cast<double>(first.bdn_requests);
        result.set("discovery.bdn.shed_ratio", ratio(static_cast<double>(first.bdn_shed), requests),
                   "ratio");
        result.set("discovery.bdn.gathers_partial_ratio",
                   ratio(static_cast<double>(first.gathers_partial),
                         static_cast<double>(first.gathers)),
                   "ratio");
        result.set("discovery.bdn.injections_per_request",
                   ratio(static_cast<double>(first.bdn_injections), requests), "ratio");
        result.set("discovery.bdn.duplicate_ratio",
                   ratio(static_cast<double>(first.bdn_duplicates), requests), "ratio");
        const double ingested = static_cast<double>(first.broker_ingested);
        const double dups = static_cast<double>(first.broker_duplicates);
        result.set("broker.duplicate_ratio", ratio(dups, ingested + dups), "ratio");
        result.set("harness.backlog_end", static_cast<double>(result.failed), "count");
        // Counters are read after the plan: the traced run adds nothing to
        // the simulated hot path.
        result.set("harness.trace_overhead_pct", 0.0, "%");
    }
    std::printf("diag: replays=%zu digest=%s discoveries=%llu events=%zu cpu_us=", replays.size(),
                first.digest.c_str(), static_cast<unsigned long long>(c.connects), first.events);
    for (double v : cpu_us) std::printf("%.3f ", v);
    std::printf("setup_s=");
    for (double v : setups) std::printf("%.5f ", v);
    std::printf("\n");
    return result;
}

}  // namespace perfbench
