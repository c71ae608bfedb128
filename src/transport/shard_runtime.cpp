#include "transport/shard_runtime.hpp"

#include <algorithm>

#include "obs/json.hpp"

namespace narada::transport {
namespace {

/// Which shard of which runtime the calling thread is. Stamped by each
/// shard's loop_start hook before its first loop iteration, so the check
/// is a TLS read — no lock, no map.
thread_local ShardRuntime* tls_runtime = nullptr;
thread_local std::size_t tls_shard = 0;

}  // namespace

// --- ShardPort --------------------------------------------------------------

PosixTransport& ShardPort::own() const { return *rt_->shards_[shard_]; }

void ShardPort::bind(const Endpoint& local, MessageHandler* handler) {
    own().bind(local, handler);
}
void ShardPort::unbind(const Endpoint& local) { rt_->unbind(local); }
void ShardPort::send_datagram(const Endpoint& from, const Endpoint& to, Bytes data) {
    own().send_datagram(from, to, std::move(data));
}
void ShardPort::send_reliable(const Endpoint& from, const Endpoint& to, Bytes data) {
    own().send_reliable(from, to, std::move(data));
}
void ShardPort::join_multicast(MulticastGroup group, const Endpoint& local) {
    rt_->join_multicast(group, local);
}
void ShardPort::leave_multicast(MulticastGroup group, const Endpoint& local) {
    rt_->leave_multicast(group, local);
}
void ShardPort::send_multicast(MulticastGroup group, const Endpoint& from, Bytes data) {
    own().send_multicast(group, from, std::move(data));
}
Bytes ShardPort::acquire_buffer() { return own().acquire_buffer(); }

TimerHandle ShardPort::schedule(DurationUs delay, std::function<void()> task) {
    return rt_->schedule_on(shard_, delay, std::move(task));
}
void ShardPort::cancel_timer(TimerHandle handle) { rt_->cancel_timer(handle); }

// --- ShardRuntime -----------------------------------------------------------

ShardRuntime::ShardRuntime(ShardRuntimeOptions options) {
    const std::size_t n = std::max<std::size_t>(1, options.shards);

    shards_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        PosixTransportOptions t = options.transport;
        t.pin_cpu = i < options.pin_cpus.size() ? options.pin_cpus[i] : -1;
        t.loop_start = [this, i] {
            tls_runtime = this;
            tls_shard = i;
        };
        shards_.push_back(std::make_unique<PosixTransport>(std::move(t)));
    }

    ports_.reset(new ShardPort[n]);
    for (std::size_t i = 0; i < n; ++i) {
        ports_[i].rt_ = this;
        ports_[i].shard_ = i;
    }
}

ShardRuntime::~ShardRuntime() {
    // Join every reactor before the ports its callbacks may call through.
    shards_.clear();
}

int ShardRuntime::current_shard() const {
    return tls_runtime == this ? static_cast<int>(tls_shard) : -1;
}

// --- Transport (shard 0) ----------------------------------------------------

void ShardRuntime::bind(const Endpoint& local, MessageHandler* handler) {
    ports_[0].bind(local, handler);
}
void ShardRuntime::unbind(const Endpoint& local) {
    for (auto& shard : shards_) shard->unbind(local);
}
void ShardRuntime::send_datagram(const Endpoint& from, const Endpoint& to, Bytes data) {
    ports_[0].send_datagram(from, to, std::move(data));
}
void ShardRuntime::send_reliable(const Endpoint& from, const Endpoint& to, Bytes data) {
    ports_[0].send_reliable(from, to, std::move(data));
}
void ShardRuntime::join_multicast(MulticastGroup group, const Endpoint& local) {
    for (auto& shard : shards_) shard->join_multicast(group, local);
}
void ShardRuntime::leave_multicast(MulticastGroup group, const Endpoint& local) {
    for (auto& shard : shards_) shard->leave_multicast(group, local);
}
void ShardRuntime::send_multicast(MulticastGroup group, const Endpoint& from, Bytes data) {
    ports_[0].send_multicast(group, from, std::move(data));
}
Bytes ShardRuntime::acquire_buffer() { return ports_[0].acquire_buffer(); }

// --- timers -----------------------------------------------------------------

TimerHandle ShardRuntime::schedule(DurationUs delay, std::function<void()> task) {
    return schedule_on(0, delay, std::move(task));
}

TimerHandle ShardRuntime::schedule_on(std::size_t shard, DurationUs delay,
                                      std::function<void()> task) {
    const TimerHandle inner = shards_[shard]->schedule(delay, std::move(task));
    return encode_timer(shard, inner);
}

void ShardRuntime::cancel_timer(TimerHandle handle) {
    if (handle == kInvalidTimerHandle) return;
    const auto tag = static_cast<std::size_t>(handle >> kTimerShardShift);
    if (tag == 0 || tag > shards_.size()) return;  // not one of ours
    const TimerHandle inner = handle & ((TimerHandle{1} << kTimerShardShift) - 1);
    shards_[tag - 1]->cancel_timer(inner);
}

void ShardRuntime::run_on(std::size_t target, void (*fn)(void*), void* arg) {
    if (current_shard() == static_cast<int>(target)) {
        fn(arg);
        return;
    }
    shards_[target]->schedule(0, [fn, arg] { fn(arg); });
}

// --- observability ----------------------------------------------------------

void ShardRuntime::set_observability(obs::MetricsRegistry* metrics, const std::string& node) {
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        shards_[i]->set_observability(metrics, node + "#" + std::to_string(i));
    }
}

std::string ShardRuntime::debug_snapshot() const {
    obs::JsonWriter w;
    w.begin_object()
        .field("component", "shard_runtime")
        .field("shards", static_cast<std::uint64_t>(shards_.size()));
    w.key("pools").begin_array();
    for (const auto& shard : shards_) {
        const BufferPool& pool = shard->buffer_pool();
        w.begin_object()
            .field("idle", static_cast<std::uint64_t>(pool.idle()))
            .field("hwm", static_cast<std::uint64_t>(pool.peak_outstanding()))
            .end_object();
    }
    w.end_array();
    w.end_object();
    return w.take();
}

}  // namespace narada::transport
