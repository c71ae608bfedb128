// Federated registry plane at scale: selection quality and per-discovery
// latency of the sharded BDN registry at 10k / 100k / 1M advertisements.
//
// The full simulator cannot hold a million advertising brokers, so this
// bench isolates the scatter/gather computational kernel: a real ShardRing
// (8 members, 64 vnodes, R = 2) partitions a synthetic advertisement table,
// every query fans out to the owning shards, each shard answers with its
// `shard_reply_limit` lowest-RTT matches, and the coordinator merges and
// selects exactly as the BDN gather path does. Selection quality compares
// the federated pick against a monolithic oracle that scans the whole
// table — both on a full gather and with one shard dropped (the partial
// degradation path), at R = 2 and at an R = 1 control ring to show what
// replication buys.
//
// Results go to stdout (NARADA_JSON lines + a table) and to
// BENCH_registry_scale.json; the CI bench-smoke job runs `--runs 3` and
// validates the JSON schema.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "common/rng.hpp"
#include "common/uuid.hpp"
#include "discovery/registry_shard.hpp"
#include "harness.hpp"

namespace narada::discovery {
namespace {

constexpr std::size_t kScales[] = {10'000, 100'000, 1'000'000};
constexpr std::size_t kRingMembers = 8;
constexpr std::uint32_t kVnodes = 64;
constexpr std::uint32_t kReplication = 2;
constexpr std::uint32_t kShardReplyLimit = 8;  // BdnConfig::shard_reply_limit default
constexpr std::uint32_t kTopics = 512;
constexpr std::uint64_t kBaseSeed = 0x52454753u;  // "REGS"

struct Ad {
    Uuid id;
    std::uint32_t topic = 0;
    double rtt_ms = 0;
};

/// One member's slice of the table: indices of the ads it owns under the
/// ring, the entries its BDN's registry would hold.
using ShardTable = std::vector<std::uint32_t>;

struct Federation {
    ShardRing ring;
    std::vector<ShardTable> shards;  ///< one per ring member
    double build_ms = 0;
};

std::vector<Endpoint> make_group() {
    std::vector<Endpoint> group;
    for (std::size_t i = 0; i < kRingMembers; ++i) {
        group.push_back(Endpoint{static_cast<HostId>(100 + i), 7100});
    }
    return group;
}

std::vector<Ad> make_ads(std::size_t count, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<Ad> ads(count);
    for (Ad& ad : ads) {
        ad.id = Uuid::random(rng);
        ad.topic = static_cast<std::uint32_t>(rng.next() % kTopics);
        ad.rtt_ms = 1.0 + rng.uniform() * 250.0;  // 1-251 ms, uniform
    }
    return ads;
}

Federation build_federation(const std::vector<Ad>& ads, std::uint32_t replication) {
    Federation fed;
    const auto start = std::chrono::steady_clock::now();
    fed.ring = ShardRing(make_group(), {kVnodes, replication});
    fed.shards.resize(fed.ring.size());
    std::vector<std::size_t> member_index(fed.ring.size());
    for (std::size_t i = 0; i < fed.ring.size(); ++i) member_index[i] = i;
    for (std::uint32_t i = 0; i < ads.size(); ++i) {
        for (const Endpoint& owner : fed.ring.owners(ads[i].id)) {
            const auto it = std::lower_bound(fed.ring.members().begin(),
                                             fed.ring.members().end(), owner);
            fed.shards[static_cast<std::size_t>(it - fed.ring.members().begin())]
                .push_back(i);
        }
    }
    fed.build_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    return fed;
}

/// One shard's reply: its `kShardReplyLimit` lowest-RTT ads matching the
/// topic, found by a linear scan of its table (the Bdn gather path does the
/// same over its registry map).
void shard_reply(const std::vector<Ad>& ads, const ShardTable& table,
                 std::uint32_t topic, std::vector<std::uint32_t>& out) {
    out.clear();
    for (const std::uint32_t idx : table) {
        if (ads[idx].topic != topic) continue;
        out.push_back(idx);
    }
    const std::size_t keep = std::min<std::size_t>(out.size(), kShardReplyLimit);
    std::partial_sort(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(keep),
                      out.end(), [&ads](std::uint32_t a, std::uint32_t b) {
                          return ads[a].rtt_ms < ads[b].rtt_ms;
                      });
    out.resize(keep);
}

/// Coordinator merge: best RTT across the shard replies, deduplicated by ad
/// index. Returns -1 when no shard produced a candidate.
double gather_best(const std::vector<Ad>& ads, const Federation& fed,
                   std::uint32_t topic, std::size_t dropped_shard,
                   std::vector<std::uint32_t>& scratch) {
    double best = -1;
    for (std::size_t m = 0; m < fed.shards.size(); ++m) {
        if (m == dropped_shard) continue;
        shard_reply(ads, fed.shards[m], topic, scratch);
        for (const std::uint32_t idx : scratch) {
            if (best < 0 || ads[idx].rtt_ms < best) best = ads[idx].rtt_ms;
        }
    }
    return best;
}

/// Monolithic oracle: lowest RTT for the topic over the whole table.
double oracle_best(const std::vector<Ad>& ads, std::uint32_t topic) {
    double best = -1;
    for (const Ad& ad : ads) {
        if (ad.topic != topic) continue;
        if (best < 0 || ad.rtt_ms < best) best = ad.rtt_ms;
    }
    return best;
}

struct ScaleResult {
    std::size_t ad_count = 0;
    std::size_t queries = 0;
    double build_ms = 0;
    SampleSet gather_us;              ///< wall-clock per full gather
    double quality_full = 0;          ///< oracle rtt / federated rtt, full gather
    double quality_degraded_r2 = 0;   ///< one shard dropped, R = 2
    double quality_degraded_r1 = 0;   ///< one shard dropped, R = 1 control
    std::size_t empty_gathers = 0;    ///< queries where no shard had a match
};

ScaleResult run_scale(std::size_t ad_count, std::size_t queries) {
    ScaleResult result;
    result.ad_count = ad_count;
    result.queries = queries;
    const std::vector<Ad> ads = make_ads(ad_count, kBaseSeed + ad_count);
    const Federation fed = build_federation(ads, kReplication);
    const Federation fed_r1 = build_federation(ads, 1);
    result.build_ms = fed.build_ms;

    Rng query_rng(kBaseSeed ^ 0xABCDu);
    std::vector<std::uint32_t> scratch;
    scratch.reserve(ad_count);
    double acc_full = 0, acc_r2 = 0, acc_r1 = 0;
    std::size_t scored = 0;
    for (std::size_t q = 0; q < queries; ++q) {
        const auto topic = static_cast<std::uint32_t>(query_rng.next() % kTopics);
        const std::size_t dropped = q % fed.shards.size();

        const auto start = std::chrono::steady_clock::now();
        const double federated = gather_best(ads, fed, topic, fed.shards.size(), scratch);
        result.gather_us.add(std::chrono::duration<double, std::micro>(
                                 std::chrono::steady_clock::now() - start)
                                 .count());

        const double oracle = oracle_best(ads, topic);
        if (oracle < 0) {  // topic unused at this scale; nothing to score
            ++result.empty_gathers;
            continue;
        }
        const double degraded_r2 = gather_best(ads, fed, topic, dropped, scratch);
        const double degraded_r1 = gather_best(ads, fed_r1, topic, dropped, scratch);
        acc_full += federated > 0 ? oracle / federated : 0.0;
        acc_r2 += degraded_r2 > 0 ? oracle / degraded_r2 : 0.0;
        acc_r1 += degraded_r1 > 0 ? oracle / degraded_r1 : 0.0;
        ++scored;
    }
    if (scored > 0) {
        result.quality_full = acc_full / static_cast<double>(scored);
        result.quality_degraded_r2 = acc_r2 / static_cast<double>(scored);
        result.quality_degraded_r1 = acc_r1 / static_cast<double>(scored);
    }
    return result;
}

}  // namespace
}  // namespace narada::discovery

int main(int argc, char** argv) {
    using namespace narada;
    using namespace narada::discovery;

    // `--runs N` scales the query batch (CI smoke passes 3); the default
    // batch is 64 queries per run unit, capped so the 1M-ad sweep stays
    // a few seconds of linear scans.
    const int kRuns = bench::parse_runs(argc, argv, 5);
    const auto queries_for = [kRuns](std::size_t ads) {
        const std::size_t q = static_cast<std::size_t>(kRuns) * 64;
        return ads >= 1'000'000 ? std::min<std::size_t>(q, 128) : q;
    };

    std::vector<ScaleResult> results;
    for (const std::size_t scale : kScales) {
        results.push_back(run_scale(scale, queries_for(scale)));
    }

    bench::print_heading(
        "Federated registry: selection quality & gather latency vs. scale "
        "(8 members, R=2)");
    std::printf("%10s %8s %10s %10s %10s %10s %12s %12s\n", "ads", "queries",
                "build ms", "q(full)", "q(-1,R2)", "q(-1,R1)", "gather p50us",
                "gather p99us");
    for (const ScaleResult& r : results) {
        std::printf("%10zu %8zu %10.1f %10.4f %10.4f %10.4f %12.1f %12.1f\n",
                    r.ad_count, r.queries, r.build_ms, r.quality_full,
                    r.quality_degraded_r2, r.quality_degraded_r1,
                    r.gather_us.percentile(50), r.gather_us.percentile(99));
        bench::print_json_record(
            "registry_scale",
            {{"ads", static_cast<double>(r.ad_count)},
             {"queries", static_cast<double>(r.queries)},
             {"build_ms", r.build_ms},
             {"selection_quality", r.quality_full},
             {"selection_quality_one_shard_down", r.quality_degraded_r2},
             {"selection_quality_one_shard_down_r1", r.quality_degraded_r1},
             {"gather_p50_us", r.gather_us.percentile(50)},
             {"gather_p99_us", r.gather_us.percentile(99)},
             {"gather_mean_us", r.gather_us.mean()}});
    }

    {
        obs::JsonWriter w;
        w.begin_object()
            .field("bench", "registry_scale")
            .field("runs", kRuns)
            .field("ring_members", static_cast<std::uint64_t>(kRingMembers))
            .field("vnodes", static_cast<std::uint64_t>(kVnodes))
            .field("replication", static_cast<std::uint64_t>(kReplication))
            .field("shard_reply_limit", static_cast<std::uint64_t>(kShardReplyLimit))
            .key("results")
            .begin_array();
        for (const ScaleResult& r : results) {
            w.begin_object()
                .field("ads", static_cast<std::uint64_t>(r.ad_count))
                .field("queries", static_cast<std::uint64_t>(r.queries))
                .field("build_ms", r.build_ms, 2)
                .field("selection_quality", r.quality_full, 5)
                .field("selection_quality_one_shard_down", r.quality_degraded_r2, 5)
                .field("selection_quality_one_shard_down_r1", r.quality_degraded_r1, 5)
                .field("gather_p50_us", r.gather_us.percentile(50), 2)
                .field("gather_p99_us", r.gather_us.percentile(99), 2)
                .field("gather_mean_us", r.gather_us.mean(), 2)
                .field("empty_gathers", static_cast<std::uint64_t>(r.empty_gathers))
                .end_object();
        }
        w.end_array().end_object();
        if (std::FILE* f = std::fopen("BENCH_registry_scale.json", "w")) {
            std::fputs(w.str().c_str(), f);
            std::fputc('\n', f);
            std::fclose(f);
            std::printf("\nwrote BENCH_registry_scale.json\n");
        } else {
            std::perror("bench: BENCH_registry_scale.json");
        }
    }

    // Regression gates. A full gather must match the monolithic oracle to
    // within the ISSUE's floor (each shard's top-k necessarily contains the
    // global best held by that shard, so this should be ~1.0); dropping one
    // shard at R = 2 must not cost quality (the surviving replica still
    // answers); and the R = 1 control must not beat R = 2, or replication
    // is buying nothing.
    bool ok = true;
    for (const ScaleResult& r : results) {
        if (r.quality_full < 0.9) {
            std::printf("FAIL: selection quality %.4f < 0.9 at %zu ads\n",
                        r.quality_full, r.ad_count);
            ok = false;
        }
        if (r.quality_degraded_r2 < 0.9) {
            std::printf("FAIL: one-shard-down quality %.4f < 0.9 at %zu ads (R=2)\n",
                        r.quality_degraded_r2, r.ad_count);
            ok = false;
        }
        if (r.quality_degraded_r2 + 1e-9 < r.quality_degraded_r1) {
            std::printf("FAIL: R=2 degraded quality below R=1 control at %zu ads\n",
                        r.ad_count);
            ok = false;
        }
        if (r.gather_us.empty() || r.gather_us.percentile(99) <= 0) {
            std::printf("FAIL: no gather latency samples at %zu ads\n", r.ad_count);
            ok = false;
        }
    }
    return ok ? 0 : 1;
}
