// Outside-in tracing for the loopback workloads.
//
// The traced run hands every protocol node a TracedNode instead of the
// runtime itself. It implements the public Transport and Scheduler
// interfaces (transport/transport.hpp, common/scheduler.hpp) by forwarding
// to the runtime, and on the way:
//   * wraps each bound MessageHandler and times on_datagram / on_reliable,
//     keyed by the node's role and the message's type octet (the envelope
//     subtype octet splits handshakes from session frames);
//   * times each send call, so handler and timer spans report self time —
//     their duration minus the sends (and nested spans) they made;
//   * wraps each timer task to record its lateness and run time.
// Nothing in the library changes: the decorator only sits between the
// nodes and the runtime, and only in traced runs.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/scheduler.hpp"
#include "common/types.hpp"
#include "transport/shard_runtime.hpp"
#include "transport/transport.hpp"
#include "wire/msg_types.hpp"

namespace perfbench {

enum class Role : std::uint8_t { kBdn = 0, kBroker = 1, kClient = 2 };
constexpr std::size_t kRoles = 3;

/// Calls of one kind and their summed self time.
struct Span {
    std::uint64_t calls = 0;
    std::int64_t self_ns = 0;

    [[nodiscard]] double mean_us() const {
        return calls == 0 ? 0.0 : static_cast<double>(self_ns) / 1e3 / static_cast<double>(calls);
    }
};

/// Everything a traced window accumulates; a plain value so a window is
/// the difference of two snapshots.
struct Ledger {
    Span handlers[kRoles][256];  ///< by message type octet
    Span envelopes[kRoles][4];   ///< kMsgSecureEnvelope, by subtype octet
    Span sends;                  ///< send_datagram / send_reliable calls
    Span timers[kRoles];         ///< timer tasks
    Span client_start;           ///< DiscoveryClient::discover() calls
    Span harness;                ///< the benchmark's own bookkeeping on the reactor
    std::uint64_t lateness_samples = 0;  ///< size of Tracer::lateness_us

    /// Summed self time of every span kind.
    [[nodiscard]] std::int64_t total_self_ns() const;
    /// `*this - earlier`, span by span.
    [[nodiscard]] Ledger minus(const Ledger& earlier) const;
};

/// Self-time bookkeeping for one reactor thread. Calls made off the
/// reactor (setup, teardown) are forwarded untimed.
class Tracer {
public:
    explicit Tracer(narada::transport::ShardRuntime& runtime) : runtime_(runtime) {}

    struct Frame {
        std::int64_t start = 0;
        std::int64_t saved_child = 0;
        bool active = false;
    };
    Frame enter();
    /// Close `frame`, charging its self time to `span`.
    void leave(const Frame& frame, Span& span);

    Ledger ledger;
    /// Timer lateness samples, microseconds (fire time minus due time).
    std::vector<double> lateness_us;

private:
    narada::transport::ShardRuntime& runtime_;
    std::int64_t child_ns_ = 0;  ///< time of closed child spans of the open span
};

/// A protocol node's view of the runtime in traced runs.
class TracedNode final : public narada::transport::Transport, public narada::Scheduler {
public:
    TracedNode(narada::transport::ShardRuntime& runtime, Tracer& tracer, Role role)
        : runtime_(runtime), tracer_(tracer), role_(role) {}

    void bind(const narada::Endpoint& local, narada::transport::MessageHandler* handler) override;
    void unbind(const narada::Endpoint& local) override;
    void send_datagram(const narada::Endpoint& from, const narada::Endpoint& to,
                       narada::Bytes data) override;
    void send_reliable(const narada::Endpoint& from, const narada::Endpoint& to,
                       narada::Bytes data) override;
    void join_multicast(narada::transport::MulticastGroup group,
                        const narada::Endpoint& local) override;
    void leave_multicast(narada::transport::MulticastGroup group,
                         const narada::Endpoint& local) override;
    void send_multicast(narada::transport::MulticastGroup group, const narada::Endpoint& from,
                        narada::Bytes data) override;
    narada::Bytes acquire_buffer() override { return runtime_.acquire_buffer(); }

    narada::TimerHandle schedule(narada::DurationUs delay, std::function<void()> task) override;
    void cancel_timer(narada::TimerHandle handle) override { runtime_.cancel_timer(handle); }

private:
    class TimedHandler final : public narada::transport::MessageHandler {
    public:
        TimedHandler(narada::transport::MessageHandler* inner, Tracer& tracer, Role role)
            : inner_(inner), tracer_(tracer), role_(static_cast<std::size_t>(role)) {}

        void on_datagram(const narada::Endpoint& from, const narada::Bytes& data) override {
            const Tracer::Frame frame = tracer_.enter();
            inner_->on_datagram(from, data);
            tracer_.leave(frame, span_for(data));
        }
        void on_reliable(const narada::Endpoint& from, const narada::Bytes& data) override {
            const Tracer::Frame frame = tracer_.enter();
            inner_->on_reliable(from, data);
            tracer_.leave(frame, span_for(data));
        }

    private:
        Span& span_for(const narada::Bytes& data) {
            const std::uint8_t type = data.empty() ? 0 : data[0];
            if (type == narada::wire::kMsgSecureEnvelope && data.size() > 1 && data[1] < 4) {
                return tracer_.ledger.envelopes[role_][data[1]];
            }
            return tracer_.ledger.handlers[role_][type];
        }

        narada::transport::MessageHandler* inner_;
        Tracer& tracer_;
        std::size_t role_;
    };

    narada::transport::ShardRuntime& runtime_;
    Tracer& tracer_;
    Role role_;
    std::map<narada::Endpoint, std::unique_ptr<TimedHandler>> handlers_;
};

}  // namespace perfbench
