// Micro-benchmarks (google-benchmark) for the hot paths under the
// discovery protocol: topic matching, the subscription trie, the wire
// codec, the dedup cache, the event kernel, scoring, and the crypto
// primitives behind Figures 13/14.
#include <benchmark/benchmark.h>

#include "broker/dedup_cache.hpp"
#include "broker/subscription_table.hpp"
#include "broker/topic.hpp"
#include "common/rng.hpp"
#include "crypto/aes.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha256.hpp"
#include "discovery/messages.hpp"
#include "discovery/scoring.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "services/fragmentation.hpp"
#include "sim/kernel.hpp"

namespace narada {
namespace {

void BM_TopicMatchExact(benchmark::State& state) {
    for (auto _ : state) {
        benchmark::DoNotOptimize(broker::topic_matches(
            "Services/BrokerDiscoveryNodes/BrokerAdvertisement",
            "Services/BrokerDiscoveryNodes/BrokerAdvertisement"));
    }
}
BENCHMARK(BM_TopicMatchExact);

void BM_TopicMatchWildcards(benchmark::State& state) {
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            broker::topic_matches("Services/*/#", "Services/BrokerDiscoveryNodes/X/Y/Z"));
    }
}
BENCHMARK(BM_TopicMatchWildcards);

void BM_SubscriptionTrieMatch(benchmark::State& state) {
    broker::SubscriptionTable table;
    Rng rng(1);
    // Populate with `range(0)` filters across a topic tree.
    const auto n = static_cast<std::size_t>(state.range(0));
    for (std::size_t i = 0; i < n; ++i) {
        table.subscribe("a/" + std::to_string(i % 64) + "/" + std::to_string(i) + "/#",
                        i + 1);
    }
    std::size_t hit = 0;
    for (auto _ : state) {
        hit += table.match("a/7/23/leaf").size();
        benchmark::DoNotOptimize(hit);
    }
}
BENCHMARK(BM_SubscriptionTrieMatch)->Arg(100)->Arg(1000)->Arg(10000);

void BM_DiscoveryResponseCodec(benchmark::State& state) {
    Rng rng(2);
    discovery::DiscoveryResponse response;
    response.request_id = Uuid::random(rng);
    response.broker_id = Uuid::random(rng);
    response.broker_name = "tungsten.ncsa.uiuc.edu/broker2";
    response.hostname = "tungsten.ncsa.uiuc.edu";
    response.endpoint = {5, 7000};
    response.protocols = {"tcp", "udp", "multicast"};
    for (auto _ : state) {
        wire::ByteWriter writer;
        response.encode(writer);
        wire::ByteReader reader(writer.bytes());
        benchmark::DoNotOptimize(discovery::DiscoveryResponse::decode(reader));
    }
}
BENCHMARK(BM_DiscoveryResponseCodec);

void BM_DedupCacheInsert(benchmark::State& state) {
    broker::DedupCache cache(1000);  // the paper's default
    Rng rng(3);
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.insert(Uuid::random(rng)));
    }
}
BENCHMARK(BM_DedupCacheInsert);

void BM_KernelScheduleRun(benchmark::State& state) {
    for (auto _ : state) {
        sim::Kernel kernel;
        for (int i = 0; i < 1000; ++i) {
            kernel.schedule_at(i, [] {});
        }
        benchmark::DoNotOptimize(kernel.run());
    }
}
BENCHMARK(BM_KernelScheduleRun);

void BM_ScoreAndShortlist(benchmark::State& state) {
    Rng rng(4);
    std::vector<discovery::Candidate> base(static_cast<std::size_t>(state.range(0)));
    for (auto& c : base) {
        c.response.metrics.cpu_load = rng.uniform();
        c.response.metrics.connections = static_cast<std::uint32_t>(rng.bounded(100));
        c.response.metrics.total_memory = 512ull << 20;
        c.response.metrics.free_memory = rng.bounded(512ull << 20);
        c.estimated_delay = rng.uniform_int(1000, 100000);
    }
    const config::MetricWeights weights;
    for (auto _ : state) {
        auto candidates = base;
        benchmark::DoNotOptimize(discovery::shortlist(candidates, weights, 10));
    }
}
BENCHMARK(BM_ScoreAndShortlist)->Arg(10)->Arg(100)->Arg(1000);

void BM_Sha256(benchmark::State& state) {
    Bytes data(static_cast<std::size_t>(state.range(0)), 0xAB);
    for (auto _ : state) {
        benchmark::DoNotOptimize(crypto::Sha256::hash(data));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536);

void BM_AesCbcEncrypt(benchmark::State& state) {
    crypto::Aes128::Key key{};
    crypto::Aes128::Block iv{};
    const crypto::Aes128 aes(key);
    Bytes data(static_cast<std::size_t>(state.range(0)), 0x37);
    for (auto _ : state) {
        benchmark::DoNotOptimize(aes.encrypt_cbc(data, iv));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_AesCbcEncrypt)->Arg(256)->Arg(4096);

void BM_FragmentAndCoalesce(benchmark::State& state) {
    Rng rng(9);
    Bytes payload(static_cast<std::size_t>(state.range(0)));
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next());
    for (auto _ : state) {
        const auto fragments =
            services::fragment_payload(payload, 8192, Uuid::random(rng));
        services::Coalescer coalescer;
        std::optional<Bytes> out;
        for (const auto& f : fragments) {
            if (auto r = coalescer.accept(f)) out = std::move(r);
        }
        benchmark::DoNotOptimize(out);
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_FragmentAndCoalesce)->Arg(1 << 20);

void BM_MetricsCounterInc(benchmark::State& state) {
    // The cost the broker request path pays per ++stats_ mirror: one
    // relaxed fetch_add through a pre-resolved handle.
    obs::MetricsRegistry registry;
    obs::Counter& counter = registry.counter("bench_counter", "node");
    for (auto _ : state) {
        counter.inc();
        benchmark::DoNotOptimize(counter);
    }
}
BENCHMARK(BM_MetricsCounterInc);

void BM_MetricsHistogramObserve(benchmark::State& state) {
    obs::MetricsRegistry registry;
    obs::Histogram& histogram =
        registry.histogram("bench_latency_ms", "node", obs::latency_buckets_ms());
    Rng rng(7);
    double v = 0.1;
    for (auto _ : state) {
        histogram.observe(v);
        v = v > 4000 ? 0.1 : v * 1.7;  // sweep the bucket ladder
        benchmark::DoNotOptimize(histogram);
    }
}
BENCHMARK(BM_MetricsHistogramObserve);

void BM_SpanBeginEnd(benchmark::State& state) {
    obs::SpanRecorder recorder(1 << 20);
    Rng rng(8);
    const Uuid trace = Uuid::random(rng);
    TimeUs now = 0;
    for (auto _ : state) {
        const std::uint64_t span = recorder.begin(trace, 0, "bench.span", "node", now);
        recorder.end(span, now + 10);
        now += 20;
        if (recorder.size() + 2 >= (1 << 20)) recorder.clear();
    }
}
BENCHMARK(BM_SpanBeginEnd);

void BM_RsaSign(benchmark::State& state) {
    Rng rng(5);
    static const crypto::RsaKeyPair keys = crypto::rsa_generate(rng, 1024);
    const Bytes message(200, 0x11);
    for (auto _ : state) {
        benchmark::DoNotOptimize(crypto::rsa_sign(keys.private_key, message));
    }
}
BENCHMARK(BM_RsaSign);

void BM_RsaVerify(benchmark::State& state) {
    Rng rng(6);
    static const crypto::RsaKeyPair keys = crypto::rsa_generate(rng, 1024);
    const Bytes message(200, 0x22);
    const Bytes signature = crypto::rsa_sign(keys.private_key, message);
    for (auto _ : state) {
        benchmark::DoNotOptimize(crypto::rsa_verify(keys.public_key, message, signature));
    }
}
BENCHMARK(BM_RsaVerify);

}  // namespace
}  // namespace narada

BENCHMARK_MAIN();
