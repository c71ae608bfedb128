// Thread-per-core sharded real-socket datapath.
//
// A ShardRuntime runs N PosixTransport reactors ("shards"), each with its
// own epoll loop thread, BufferPool, DatagramRing send queues, timer heap
// and recv/send scratch — strictly share-nothing on the hot path.
//
// Serialization contract. Protocol objects (Broker, Bdn, RudpChannel …)
// are single-threaded by design — on the sim they ride the virtual-time
// kernel, on one PosixTransport they ride its loop thread. The sharded
// runtime preserves that contract with *home shards*: port(i) hands out a
// ShardPort (a Transport + Scheduler facade) whose bind() binds the
// endpoint's UDP socket and TCP listener on shard i only. Every datagram
// and frame addressed to the endpoint is received on shard i's thread,
// everything it sends leaves through shard i's sockets, and timers
// scheduled through the port fire there too. A protocol object homed on
// shard i therefore only ever executes on shard i's thread, locklessly,
// and no packet crosses between shards; the runtime uses more cores by
// homing more protocol objects, one per shard or more.
//
// Routing rules (DESIGN.md "Threading model"):
//   * an endpoint lives on exactly one shard: binding it through a second
//     shard fails like binding its port twice;
//   * a ShardPort routes its sends, acquire_buffer() and timers to its own
//     shard whatever thread calls it;
//   * a protocol object is constructed, started, read and destroyed on its
//     home reactor: a thread outside the runtime (main) does each of these
//     through ShardPort::call, which runs the step there and waits;
//   * the runtime's own Transport and Scheduler calls are shard 0's;
//   * a reliable frame leaves from its sender's home shard, so every frame
//     of a (from, to) pair rides one TCP connection and keeps per-pair FIFO.
//
// shards = 1 is a plain PosixTransport — the virtual-time sim is untouched
// either way.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "common/scheduler.hpp"
#include "common/types.hpp"
#include "obs/metrics.hpp"
#include "transport/posix_transport.hpp"
#include "transport/transport.hpp"

namespace narada::transport {

struct ShardRuntimeOptions {
    /// Reactor thread count (clamped to >= 1).
    std::size_t shards = 1;
    /// Optional CPU pins, one per shard (shorter vectors pin a prefix; -1
    /// entries skip that shard).
    std::vector<int> pin_cpus;
    /// Per-shard datapath knobs (pin_cpu/loop_start are managed by the
    /// runtime and overwritten).
    PosixTransportOptions transport;
};

class ShardRuntime;

/// Per-shard Transport + Scheduler facade. bind() homes the endpoint on
/// this shard: its sockets, handler callbacks and timers all live on one
/// thread. Sends, acquire_buffer() and timers route to this shard from any
/// calling thread. Obtained from ShardRuntime::port(i); owned by the
/// runtime.
class ShardPort final : public Transport, public Scheduler {
public:
    // --- Transport ----------------------------------------------------------
    void bind(const Endpoint& local, MessageHandler* handler) override;
    void unbind(const Endpoint& local) override;
    void send_datagram(const Endpoint& from, const Endpoint& to, Bytes data) override;
    void send_reliable(const Endpoint& from, const Endpoint& to, Bytes data) override;
    void join_multicast(MulticastGroup group, const Endpoint& local) override;
    void leave_multicast(MulticastGroup group, const Endpoint& local) override;
    void send_multicast(MulticastGroup group, const Endpoint& from, Bytes data) override;
    Bytes acquire_buffer() override;

    // --- Scheduler (fires on this shard's thread) ---------------------------
    TimerHandle schedule(DurationUs delay, std::function<void()> task) override;
    void cancel_timer(TimerHandle handle) override;

    [[nodiscard]] std::size_t shard() const { return shard_; }

    /// Run `fn` on this shard's reactor and return its result (or rethrow
    /// its exception): inline when called there, otherwise posted and
    /// waited for. The one way for a thread outside the runtime to touch a
    /// protocol object homed here. A reactor must not call into another
    /// shard this way: two reactors waiting on each other deadlock.
    template <typename Fn>
    std::invoke_result_t<Fn&> call(Fn&& fn);

private:
    friend class ShardRuntime;
    ShardPort() = default;

    [[nodiscard]] PosixTransport& own() const;

    ShardRuntime* rt_ = nullptr;
    std::size_t shard_ = 0;
};

class ShardRuntime final : public Transport, public Scheduler {
public:
    explicit ShardRuntime(ShardRuntimeOptions options = {});
    ~ShardRuntime() override;

    ShardRuntime(const ShardRuntime&) = delete;
    ShardRuntime& operator=(const ShardRuntime&) = delete;

    [[nodiscard]] std::size_t shards() const { return shards_.size(); }
    /// The per-shard facade: bind a protocol object through port(i) to home
    /// it (sockets, handler callbacks and timers) on shard i's thread.
    [[nodiscard]] ShardPort& port(std::size_t i) { return ports_[i]; }

    // --- Transport (shard 0) ------------------------------------------------
    /// Homes the handler on shard 0 — drop-in PosixTransport semantics
    /// (everything serialized on one thread). Home protocol objects on
    /// port(i) to use more cores.
    void bind(const Endpoint& local, MessageHandler* handler) override;
    /// Releases the endpoint on whichever shard it is bound.
    void unbind(const Endpoint& local) override;
    void send_datagram(const Endpoint& from, const Endpoint& to, Bytes data) override;
    void send_reliable(const Endpoint& from, const Endpoint& to, Bytes data) override;
    /// Membership is registered on every shard: a multicast send reads the
    /// member list of the sender's own shard.
    void join_multicast(MulticastGroup group, const Endpoint& local) override;
    void leave_multicast(MulticastGroup group, const Endpoint& local) override;
    void send_multicast(MulticastGroup group, const Endpoint& from, Bytes data) override;
    Bytes acquire_buffer() override;

    // --- Scheduler (fires on shard 0) ---------------------------------------
    TimerHandle schedule(DurationUs delay, std::function<void()> task) override;
    /// Cancels a timer scheduled through the runtime or any of its ports.
    void cancel_timer(TimerHandle handle) override;

    /// Run `fn(arg)` on shard `target`'s thread: inline when called from
    /// that shard, otherwise as a zero-delay timer on it (never lost).
    void run_on(std::size_t target, void (*fn)(void*), void* arg);

    /// Per-shard instruments under node labels "<node>#0".."<node>#N-1".
    /// MUST be called before the first bind (same contract as
    /// PosixTransport).
    void set_observability(obs::MetricsRegistry* metrics, const std::string& node = "sharded");
    /// One-line JSON: shard count and per-shard pool sizing (idle +
    /// high-watermark).
    [[nodiscard]] std::string debug_snapshot() const;

    /// The shard index the calling thread belongs to, or -1 if the caller
    /// is not one of this runtime's reactor threads.
    [[nodiscard]] int current_shard() const;

private:
    friend class ShardPort;

    static constexpr unsigned kTimerShardShift = 56;
    [[nodiscard]] static TimerHandle encode_timer(std::size_t shard, TimerHandle inner) {
        return (static_cast<TimerHandle>(shard + 1) << kTimerShardShift) | inner;
    }

    TimerHandle schedule_on(std::size_t shard, DurationUs delay, std::function<void()> task);

    std::vector<std::unique_ptr<PosixTransport>> shards_;
    std::unique_ptr<ShardPort[]> ports_;  ///< one per shard (private ctor)
};

template <typename Fn>
std::invoke_result_t<Fn&> ShardPort::call(Fn&& fn) {
    if (rt_->current_shard() == static_cast<int>(shard_)) return fn();
    std::packaged_task<std::invoke_result_t<Fn&>()> task(std::ref(fn));
    auto result = task.get_future();
    schedule(0, [&task] { task(); });
    return result.get();
}

}  // namespace narada::transport
