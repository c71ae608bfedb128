// perfbench — the discovery benchmark's measuring program.
//
//   perfbench --workload <star_plain|registry_sealed|swarm_churn>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Prints the host fingerprint, diagnostics, any failed output check, and as
// its last line one JSON object: {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit"}}}. --trace 0 reports the end-to-end
// metrics of an untraced run, --trace 1 the per-layer split of a traced run
// (see NOTES.md). Exit code 0 when the run completed, whatever it measured.
#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <exception>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "crypto/aes.hpp"
#include "obs/json.hpp"
#include "obs/memory.hpp"

namespace perfbench {

void Result::check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    problems.push_back(what);
}

void Result::set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
}

std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

namespace {

double rusage_cpu_s(int who) {
    rusage ru{};
    getrusage(who, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

bool parse_args(int argc, char** argv, Args& args) {
    if (argc % 2 != 1) return false;
    bool have_workload = false;
    for (int i = 1; i < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        try {
            if (flag == "--workload") {
                args.workload = value;
                have_workload = true;
            } else if (flag == "--seed") {
                args.seed = std::stoull(value);
            } else if (flag == "--seconds") {
                args.seconds = std::stoi(value);
            } else if (flag == "--trace") {
                if (value != "0" && value != "1") return false;
                args.trace = value == "1";
            } else {
                return false;
            }
        } catch (const std::exception&) {
            return false;
        }
    }
    return have_workload && args.seconds >= 1 && args.seconds <= 60;
}

/// Every per-layer metric, with its unit. A traced run reports all of
/// them; a layer the workload bypasses reads 0.
const std::pair<const char*, const char*> kPerLayer[] = {
    {"transport.syscalls_per_discovery", "count"},
    {"transport.datagrams_per_discovery", "count"},
    {"transport.bytes_per_discovery", "B"},
    {"transport.recv_batch_mean", "count"},
    {"transport.send_call_us", "us"},
    {"transport.loop_self_us_per_discovery", "us"},
    {"transport.reactor_busy_ratio", "ratio"},
    {"transport.timer_lateness_p50_us", "us"},
    {"transport.timer_lateness_p99_us", "us"},
    {"transport.timers_per_discovery", "count"},
    {"transport.eagain_stalls", "count"},
    {"transport.backlog_drops", "count"},
    {"discovery.bdn.request_plain_self_us", "us"},
    {"discovery.bdn.request_sealed_self_us", "us"},
    {"discovery.bdn.ad_self_us", "us"},
    {"discovery.bdn.pong_self_us", "us"},
    {"discovery.bdn.injections_per_request", "ratio"},
    {"discovery.bdn.duplicate_ratio", "ratio"},
    {"discovery.bdn.shed_ratio", "ratio"},
    {"discovery.bdn.gathers_partial_ratio", "ratio"},
    {"crypto.open_extra_us", "us"},
    {"crypto.handshake_ms", "ms"},
    {"crypto.handshakes_per_s", "1/s"},
    {"crypto.session_hit_ratio", "ratio"},
    {"crypto.memo_hit_ratio", "ratio"},
    {"crypto.open_errors", "count"},
    {"broker.request_self_us", "us"},
    {"broker.flood_self_us", "us"},
    {"broker.ping_self_us", "us"},
    {"broker.flood_msgs_per_discovery", "count"},
    {"broker.duplicate_ratio", "ratio"},
    {"discovery.client.ack_ms", "ms"},
    {"discovery.client.first_response_ms", "ms"},
    {"discovery.client.collect_ms", "ms"},
    {"discovery.client.scoring_us", "us"},
    {"discovery.client.ping_ms", "ms"},
    {"discovery.client.response_self_us", "us"},
    {"discovery.client.pong_self_us", "us"},
    {"discovery.client.responses_per_discovery", "count"},
    {"discovery.client.retransmits_per_discovery", "count"},
    {"discovery.client.latency_p99_ms", "ms"},
    {"sim.events_per_discovery", "count"},
    {"sim.ns_per_event", "ns"},
    {"swarm.cpu_us_per_discovery", "us"},
    {"swarm.requests_per_discovery", "count"},
    {"swarm.retransmits_per_discovery", "count"},
    {"swarm.bytes_per_endpoint", "B"},
    {"harness.gen_lateness_p50_us", "us"},
    {"harness.gen_lateness_max_us", "us"},
    {"harness.backlog_end", "count"},
    {"harness.starved_slices", "count"},
    {"harness.trace_overhead_pct", "%"},
};

const std::pair<const char*, const char*> kEndToEnd[] = {
    {"latency_p50_ms", "ms"},       {"latency_p90_ms", "ms"}, {"cpu_us_per_discovery", "us"},
    {"peak_rss_mb", "MB"},          {"setup_s", "s"},
};

/// Keep exactly the metrics of the run's mode, in their catalogued units.
/// A per-layer metric the workload did not set is a layer it bypasses (0);
/// a missing end-to-end metric is a bug.
template <std::size_t N>
void keep_catalog(Result& result, const std::pair<const char*, const char*> (&catalog)[N],
                  bool bypass_reads_zero) {
    std::map<std::string, std::pair<double, std::string>> kept;
    for (const auto& [name, unit] : catalog) {
        const auto it = result.metrics.find(name);
        if (it == result.metrics.end() && !bypass_reads_zero) {
            throw std::logic_error(std::string("metric not measured: ") + name);
        }
        if (it != result.metrics.end() && it->second.second != unit) {
            throw std::logic_error(std::string("metric in the wrong unit: ") + name);
        }
        kept[name] = {it != result.metrics.end() ? it->second.first : 0.0, unit};
    }
    result.metrics = std::move(kept);
}

void finish_metrics(Result& result, bool trace) {
    if (trace) {
        keep_catalog(result, kPerLayer, /*bypass_reads_zero=*/true);
    } else {
        keep_catalog(result, kEndToEnd, /*bypass_reads_zero=*/false);
    }
}

}  // namespace

double process_cpu_s() { return rusage_cpu_s(RUSAGE_SELF); }
double thread_cpu_s() { return rusage_cpu_s(RUSAGE_THREAD); }

double peak_rss_mb() {
    return static_cast<double>(narada::obs::process_peak_rss_bytes()) / (1024.0 * 1024.0);
}

double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

}  // namespace perfbench

int main(int argc, char** argv) {
    using namespace perfbench;
    Args args;
    if (!parse_args(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: %s --workload <star_plain|registry_sealed|swarm_churn> "
                     "--seed <n> --seconds <1..60> --trace <0|1>\n",
                     argv[0]);
        return 2;
    }

    utsname host{};
    uname(&host);
    std::printf("host: nproc=%u aes_ni=%d kernel=%s\n", std::thread::hardware_concurrency(),
                narada::crypto::Aes128::accelerated() ? 1 : 0, host.release);
    std::printf("run: workload=%s seed=%llu seconds=%d trace=%d\n", args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
    std::fflush(stdout);

    // The loopback plane runs on real sockets and wall-clock timers: should
    // a lost wake-up wedge a run, SIGALRM ends it inside the time limit.
    alarm(170);
    Result result;
    try {
        if (args.workload == "star_plain") {
            result = run_star_plain(args);
        } else if (args.workload == "registry_sealed") {
            result = run_registry_sealed(args);
        } else if (args.workload == "swarm_churn") {
            result = run_swarm_churn(args);
        } else {
            std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
            return 2;
        }
        finish_metrics(result, args.trace);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: run failed: %s\n", e.what());
        return 1;
    }

    for (const std::string& problem : result.problems) {
        std::printf("check failed: %s\n", problem.c_str());
    }
    narada::obs::JsonWriter w;
    w.begin_object()
        .field("correct", result.correct)
        .field("attempted", result.attempted)
        .field("failed", result.failed)
        .key("metrics")
        .begin_object();
    for (const auto& [name, metric] : result.metrics) {
        w.key(name).begin_object().field("value", metric.first).field("unit", metric.second)
            .end_object();
    }
    w.end_object().end_object();
    std::printf("%s\n", w.take().c_str());
    return 0;
}
