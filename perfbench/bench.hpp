// Shared pieces of the discovery benchmark program: command-line arguments,
// the result every workload returns, and the clocks the workloads measure
// with. Percentiles come from narada::SampleSet.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    int seconds = 10;
    bool trace = false;
};

/// What one run reports: the output checks, the discovery counts and the
/// metrics of the selected mode (end-to-end untraced, per-layer traced).
class Result {
public:
    /// Record an output check; a failed check makes the run incorrect.
    void check(bool ok, const std::string& what);
    void set(const std::string& name, double value, const std::string& unit);

    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems;
    std::map<std::string, std::pair<double, std::string>> metrics;
};

Result run_star_plain(const Args& args);
Result run_registry_sealed(const Args& args);
Result run_swarm_churn(const Args& args);

/// Monotonic wall clock, nanoseconds.
std::int64_t now_ns();
/// CPU seconds (user + system) of the whole process / the calling thread.
double process_cpu_s();
double thread_cpu_s();
/// Peak resident set size of the process, MiB.
double peak_rss_mb();

/// a / b, or 0 when b is 0 (a ratio whose base did not occur).
double ratio(double a, double b);

}  // namespace perfbench
