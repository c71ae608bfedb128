// UDP datapath throughput of the shipping PosixTransport over real loopback
// sockets: pooled encode buffers (acquire_buffer), per-socket send rings
// drained with sendmmsg + UDP GSO, recvmmsg + UDP GRO into a reused slab,
// zero steady-state allocations (see test_datapath_alloc for the
// allocation proof; this bench measures rate).
//
// Workload shape: the sender runs as a zero-delay timer on the transport's
// loop thread — where protocol traffic originates in the real stack
// (brokers and BDNs send from on_datagram and timer callbacks) — so bursts
// accumulate in the send ring and leave in sendmmsg/GSO batches. The pacer
// keeps at most kWindow datagrams outstanding and forgives the balance
// after a stall so kernel drops cannot wedge the window shut; unpaced
// spraying would overflow the socket buffer and measure scheduler noise,
// not the datapath. Delivered datagrams/sec then measures the end-to-end
// per-packet CPU cost.
//
// The sharded section sweeps the same credit-paced spray over a
// ShardRuntime at several reactor counts (--shards, default {1,2,4,8}):
// each shard homes its own source and its own counting sink through
// port(i), and one pacer per shard runs as a zero-delay timer on that
// shard's loop thread, spraying that shard's sink. Shards share nothing,
// so the sweep measures how the datapath scales with reactors. A point
// with more shards than hardware cores measures the scheduler instead; it
// is recorded as skipped, not run. Every sample also records process CPU
// utilization over its measurement window (getrusage), so the results show
// cores burned next to datagrams/sec.
//
// Results go to stdout (NARADA_JSON lines + a table) and to
// BENCH_transport.json in the working directory — the repo's perf
// trajectory record; CI uploads it from the bench-smoke job and validates
// the shard_sweep schema.
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "transport/posix_transport.hpp"
#include "transport/shard_runtime.hpp"

using namespace narada;
using SteadyClock = std::chrono::steady_clock;

namespace {

constexpr int kSprayMs = 400;              // measurement window per run
constexpr int kWarmupMs = 50;              // pools/rings/caches settle
constexpr std::uint64_t kWindow = 128;     // max datagrams in flight
constexpr auto kStallTimeout = std::chrono::milliseconds(2);
constexpr std::size_t kEndpoints = 8;      // 5 brokers + BDN + client + NTP

struct PathSample {
    double dps = 0;        ///< delivered datagrams/sec
    double cpu_cores = 0;  ///< process CPU-seconds per wall-second over the window
};

/// Process CPU time (user + system, every thread) — deltas over a
/// measurement window give utilization in units of cores.
double cpu_seconds() {
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    const auto tv = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Credit-based pacing state, ticked from the owning loop thread: refill
/// the window up to kWindow outstanding; if nothing was delivered for
/// kStallTimeout, the balance was dropped by the kernel — forgive it so the
/// window reopens.
struct Pacer {
    std::uint64_t sent = 0;
    std::uint64_t forgiven = 0;
    std::uint64_t last_received = 0;
    SteadyClock::time_point last_progress = SteadyClock::now();

    template <typename SendOne>
    void tick(std::uint64_t received, SendOne&& send_one) {
        const auto now = SteadyClock::now();
        if (received != last_received) {
            last_received = received;
            last_progress = now;
        } else if (now - last_progress > kStallTimeout) {
            forgiven = sent - received;
            last_progress = now;
        }
        std::uint64_t inflight = sent - received - forgiven;
        while (inflight < kWindow) {
            send_one(sent);
            ++sent;
            ++inflight;
        }
    }
};

/// Measurement protocol for a pacer running on another thread: let it warm
/// up for kWarmupMs, then count deliveries over spray_ms.
PathSample measure_window(int spray_ms, const std::function<std::uint64_t()>& received) {
    std::this_thread::sleep_for(std::chrono::milliseconds(kWarmupMs));
    const std::uint64_t base = received();
    const double cpu_base = cpu_seconds();
    const auto start = SteadyClock::now();
    std::this_thread::sleep_for(std::chrono::milliseconds(spray_ms));
    const std::uint64_t delivered = received() - base;
    const double cpu_used = cpu_seconds() - cpu_base;
    const double elapsed = std::chrono::duration<double>(SteadyClock::now() - start).count();
    PathSample sample;
    sample.dps = static_cast<double>(delivered) / elapsed;
    sample.cpu_cores = cpu_used / elapsed;
    return sample;
}

// --- Single reactor --------------------------------------------------------

class CountingSink final : public transport::MessageHandler {
public:
    void on_datagram(const Endpoint&, const Bytes&) override {
        received_.fetch_add(1, std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t received() const {
        return received_.load(std::memory_order_relaxed);
    }

private:
    std::atomic<std::uint64_t> received_{0};
};

PathSample batched_rate(std::size_t payload_size, int spray_ms,
                        obs::MetricsRegistry& registry) {
    // Everything the loop-thread pacer touches outlives the transport:
    // declared first so the transport (and with it the loop thread and any
    // pending timer) is destroyed before the state the timer captures.
    CountingSink noop;
    CountingSink sink;
    Pacer pacer;  // loop-thread only after the first schedule()
    std::atomic<bool> stop{false};
    std::vector<Endpoint> endpoints;
    std::function<void()> tick;

    // One transport, all bindings on it: the realistic process shape (a
    // broker binds every endpoint to one transport).
    transport::PosixTransportOptions options;
    options.pool_buffers = kWindow * 3;  // window + both loops' scratch stay pooled
    transport::PosixTransport transport(options);
    transport.set_observability(&registry, "bench");

    // A loopback discovery plane's process shape: kEndpoints bound
    // endpoints (each a UDP socket plus a TCP listener), traffic between
    // the first two. The reactor's fd table makes the idle ones free.
    std::uint16_t probe = 46500;
    for (std::size_t i = 0; i < kEndpoints; ++i) {
        probe = transport::PosixTransport::find_free_port(probe);
        const Endpoint ep{static_cast<HostId>(i + 1), probe};
        transport.bind(ep, i == 1 ? &sink : &noop);
        endpoints.push_back(ep);
        ++probe;
    }
    const Endpoint a = endpoints[0];
    const Endpoint b = endpoints[1];

    // The pacer runs as a self-rescheduling zero-delay timer on the
    // transport's own loop thread — the thread protocol sends come from.
    // Each tick enqueues a burst; the loop drains it in sendmmsg/GSO
    // batches on the same iteration and delivers it through recvmmsg/GRO
    // on the next, so the pipeline never crosses threads.
    tick = [&] {
        if (stop.load(std::memory_order_relaxed)) return;
        pacer.tick(sink.received(), [&](std::uint64_t seq) {
            Bytes buf = transport.acquire_buffer();
            buf.resize(payload_size, static_cast<std::uint8_t>(seq));
            transport.send_datagram(a, b, std::move(buf));
        });
        transport.schedule(0, tick);  // a copy holding only references
    };
    transport.schedule(0, tick);

    const PathSample sample = measure_window(spray_ms, [&] { return sink.received(); });
    stop.store(true, std::memory_order_relaxed);
    return sample;  // transport dtor joins the loop before locals go away
}

// --- Sharded datapath (ShardRuntime: one homed sink per shard) ------------

/// Aggregate delivered datagrams/sec over a ShardRuntime with `nshards`
/// reactors: on each shard a credit-paced sender (a self-rescheduling
/// zero-delay timer homed there, so its acquire/send cycle stays inside
/// the shard's own pool and sendmmsg ring) sprays a sink homed on the same
/// shard.
PathSample sharded_rate(std::size_t nshards, std::size_t payload_size, int spray_ms) {
    struct alignas(64) Shard {
        CountingSink sink;  // counted on this shard's thread, read by the window
        Pacer pacer;        // touched only on this shard's loop thread
        Endpoint source;
        Endpoint rx;
    };

    // Everything the shard threads touch outlives the runtime: declared
    // first so the runtime (and with it every reactor thread and pending
    // timer) is destroyed before the state the pacers capture.
    CountingSink noop;
    std::vector<Shard> shards(nshards);
    std::atomic<bool> stop{false};
    std::vector<std::function<void()>> ticks(nshards);

    PathSample sample;
    {
        transport::ShardRuntimeOptions options;
        options.shards = nshards;
        options.transport.pool_buffers = kWindow * 3;  // window + loop scratch per shard
        transport::ShardRuntime rt(options);

        std::uint16_t probe = 47000;
        const auto next_port = [&probe] {
            probe = transport::PosixTransport::find_free_port(probe);
            return probe++;
        };
        for (std::size_t i = 0; i < nshards; ++i) {
            shards[i].rx = Endpoint{static_cast<HostId>(1 + 2 * i), next_port()};
            shards[i].source = Endpoint{static_cast<HostId>(2 + 2 * i), next_port()};
            rt.port(i).bind(shards[i].rx, &shards[i].sink);
            rt.port(i).bind(shards[i].source, &noop);
        }

        for (std::size_t i = 0; i < nshards; ++i) {
            ticks[i] = [&, i] {
                if (stop.load(std::memory_order_relaxed)) return;
                Shard& sh = shards[i];
                transport::ShardPort& port = rt.port(i);
                sh.pacer.tick(sh.sink.received(), [&](std::uint64_t seq) {
                    Bytes buf = port.acquire_buffer();
                    buf.resize(std::max<std::size_t>(payload_size, 1),
                               static_cast<std::uint8_t>(seq));
                    port.send_datagram(sh.source, sh.rx, std::move(buf));
                });
                port.schedule(0, ticks[i]);
            };
            rt.port(i).schedule(0, ticks[i]);
        }

        sample = measure_window(spray_ms, [&] {
            std::uint64_t total = 0;
            for (const Shard& sh : shards) total += sh.sink.received();
            return total;
        });
        stop.store(true, std::memory_order_relaxed);
    }  // runtime dtor joins every reactor thread before the pacers go away
    return sample;
}

/// The sweep's shard counts, split into the points this host can run and
/// those it cannot (more shards than hardware cores).
struct ShardPoints {
    std::vector<std::size_t> run;
    std::vector<std::size_t> skipped;
};

/// `--shards 1,2,4[,8]` — explicit sweep points. Default: {1,2,4,8}. 1 is
/// always run as the baseline; a point above `hw_cores` is skipped.
ShardPoints parse_shards(int argc, char** argv, std::size_t hw_cores) {
    std::string spec;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
            spec = argv[i + 1];
        } else if (std::strncmp(argv[i], "--shards=", 9) == 0) {
            spec = argv[i] + 9;
        }
    }
    std::vector<std::size_t> shards;
    if (spec.empty()) shards = {1, 2, 4, 8};
    std::size_t value = 0;
    bool in_number = false;
    for (const char c : spec + ",") {
        if (c >= '0' && c <= '9') {
            value = value * 10 + static_cast<std::size_t>(c - '0');
            in_number = true;
        } else {
            if (in_number && value > 0) shards.push_back(value);
            value = 0;
            in_number = false;
        }
    }
    if (shards.empty()) shards.push_back(1);
    ShardPoints points;
    for (const std::size_t n : shards) {
        (n == 1 || n <= hw_cores ? points.run : points.skipped).push_back(n);
    }
    return points;
}

struct PayloadResult {
    std::size_t payload_bytes = 0;
    double batched_dps = 0;  ///< best run
    double batched_mean = 0;
    double batched_cpu = 0;  ///< CPU cores of the best run
};

struct ShardResult {
    std::size_t shards = 0;
    double dps = 0;       ///< best run
    double mean_dps = 0;
    double cpu_cores = 0;  ///< CPU cores of the best run
    double scaling = 0;    ///< best vs. the 1-shard best
};

}  // namespace

int main(int argc, char** argv) {
    const int kRuns = bench::parse_runs(argc, argv, 5);
    const std::size_t hw_cores = std::max(1u, std::thread::hardware_concurrency());
    const ShardPoints shard_points = parse_shards(argc, argv, hw_cores);
    obs::MetricsRegistry registry;

    std::vector<PayloadResult> results;
    for (const std::size_t payload : {std::size_t{64}, std::size_t{1024}}) {
        SampleSet batched_dps;
        PayloadResult r;
        r.payload_bytes = payload;
        for (int run = 0; run < kRuns; ++run) {
            const PathSample batched = batched_rate(payload, kSprayMs, registry);
            batched_dps.add(batched.dps);
            if (batched.dps > r.batched_dps) {
                r.batched_dps = batched.dps;
                r.batched_cpu = batched.cpu_cores;
            }
        }
        r.batched_mean = batched_dps.mean();
        results.push_back(r);
    }

    bench::print_heading("UDP throughput: epoll + mmsg + GSO datapath, one reactor");
    std::printf("%-10s %12s %12s %10s\n", "payload", "best kdps", "mean kdps", "cpu cores");
    for (const PayloadResult& r : results) {
        std::printf("%7zu B %12.1f %12.1f %10.2f\n", r.payload_bytes, r.batched_dps / 1e3,
                    r.batched_mean / 1e3, r.batched_cpu);
        bench::print_json_record(
            "transport_throughput",
            {{"payload_bytes", static_cast<double>(r.payload_bytes)},
             {"batched_kdps", r.batched_dps / 1e3},
             {"batched_mean_kdps", r.batched_mean / 1e3},
             {"batched_cpu_cores", r.batched_cpu}});
    }

    // The shard sweep: aggregate 64 B throughput over the reactor group at
    // each configured shard count, scaling reported against the 1-shard
    // baseline of the same sweep.
    std::vector<ShardResult> sweep;
    for (const std::size_t n : shard_points.run) {
        SampleSet dps_samples;
        ShardResult sr;
        sr.shards = n;
        for (int run = 0; run < kRuns; ++run) {
            const PathSample s = sharded_rate(n, 64, kSprayMs);
            dps_samples.add(s.dps);
            if (s.dps > sr.dps) {
                sr.dps = s.dps;
                sr.cpu_cores = s.cpu_cores;
            }
        }
        sr.mean_dps = dps_samples.mean();
        sweep.push_back(sr);
    }
    double base_dps = 0;
    for (const ShardResult& sr : sweep) {
        if (sr.shards == 1) base_dps = sr.dps;
    }
    for (ShardResult& sr : sweep) {
        sr.scaling = base_dps > 0 ? sr.dps / base_dps : 0;
    }

    bench::print_heading("Sharded datapath: one homed sink per shard (64 B)");
    std::printf("(%zu hardware cores)\n", hw_cores);
    std::printf("%-7s %12s %12s %10s %8s\n", "shards", "best kdps", "mean kdps",
                "cpu cores", "scaling");
    for (const ShardResult& sr : sweep) {
        std::printf("%7zu %12.1f %12.1f %10.2f %7.2fx\n", sr.shards, sr.dps / 1e3,
                    sr.mean_dps / 1e3, sr.cpu_cores, sr.scaling);
        bench::print_json_record("transport_shard_sweep",
                                 {{"shards", static_cast<double>(sr.shards)},
                                  {"kdps", sr.dps / 1e3},
                                  {"mean_kdps", sr.mean_dps / 1e3},
                                  {"cpu_cores", sr.cpu_cores},
                                  {"scaling", sr.scaling},
                                  {"hw_cores", static_cast<double>(hw_cores)}});
    }
    for (const std::size_t n : shard_points.skipped) {
        std::printf("%7zu %12s   (skipped: more shards than hardware cores)\n", n, "-");
    }

    // BENCH_transport.json: the machine-readable perf-trajectory record.
    {
        obs::JsonWriter w;
        w.begin_object()
            .field("bench", "transport_throughput")
            .field("runs", kRuns)
            .field("spray_ms", kSprayMs)
            .field("window", static_cast<std::uint64_t>(kWindow))
            .field("hw_cores", static_cast<std::uint64_t>(hw_cores))
            .key("results")
            .begin_array();
        for (const PayloadResult& r : results) {
            w.begin_object()
                .field("payload_bytes", static_cast<std::uint64_t>(r.payload_bytes))
                .field("batched_dps", r.batched_dps, 1)
                .field("batched_mean_dps", r.batched_mean, 1)
                .field("batched_cpu_cores", r.batched_cpu, 3)
                .end_object();
        }
        w.end_array().key("shard_sweep").begin_array();
        for (const ShardResult& sr : sweep) {
            w.begin_object()
                .field("shards", static_cast<std::uint64_t>(sr.shards))
                .field("dps", sr.dps, 1)
                .field("mean_dps", sr.mean_dps, 1)
                .field("cpu_cores", sr.cpu_cores, 3)
                .field("scaling", sr.scaling, 3)
                .end_object();
        }
        w.end_array().key("shard_sweep_skipped").begin_array();
        for (const std::size_t n : shard_points.skipped) {
            w.value(static_cast<std::uint64_t>(n));
        }
        w.end_array().end_object();
        if (std::FILE* f = std::fopen("BENCH_transport.json", "w")) {
            std::fputs(w.str().c_str(), f);
            std::fputc('\n', f);
            std::fclose(f);
            std::printf("\nwrote BENCH_transport.json\n");
        } else {
            std::perror("bench: BENCH_transport.json");
        }
    }

    bench::print_metrics_snapshot(registry);

    bool ok = true;
    // Shard-scaling guard: the acceptance target is >= 3x aggregate at 4
    // shards vs. 1 on a >= 4-core machine; gate the exit code at 2x so a
    // noisy shared runner cannot flake CI, skip entirely on small machines
    // (there is nothing to scale across).
    double dps1 = 0, dps4 = 0;
    for (const ShardResult& sr : sweep) {
        if (sr.shards == 1) dps1 = sr.dps;
        if (sr.shards == 4) dps4 = sr.dps;
    }
    if (hw_cores >= 4 && dps1 > 0 && dps4 > 0) {
        const double scaling = dps4 / dps1;
        if (scaling < 2.0) {
            std::printf("FAIL: 4-shard scaling %.2fx below the 2x regression gate\n",
                        scaling);
            ok = false;
        } else if (scaling < 3.0) {
            std::printf("warn: 4-shard scaling %.2fx below the 3x target\n", scaling);
        }
    } else {
        std::printf("note: shard-scaling gate skipped (%zu hardware cores, "
                    "sweep needs 1- and 4-shard points and >= 4 cores)\n",
                    hw_cores);
    }
    return ok ? 0 : 1;
}
