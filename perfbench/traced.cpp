#include "traced.hpp"

#include <utility>

#include "bench.hpp"

namespace perfbench {

using narada::Bytes;
using narada::Endpoint;

std::int64_t Ledger::total_self_ns() const {
    std::int64_t total = sends.self_ns + client_start.self_ns + harness.self_ns;
    for (std::size_t r = 0; r < kRoles; ++r) {
        for (const Span& s : handlers[r]) total += s.self_ns;
        for (const Span& s : envelopes[r]) total += s.self_ns;
        total += timers[r].self_ns;
    }
    return total;
}

Ledger Ledger::minus(const Ledger& earlier) const {
    const auto diff = [](const Span& a, const Span& b) {
        return Span{a.calls - b.calls, a.self_ns - b.self_ns};
    };
    Ledger out;
    for (std::size_t r = 0; r < kRoles; ++r) {
        for (std::size_t t = 0; t < 256; ++t) {
            out.handlers[r][t] = diff(handlers[r][t], earlier.handlers[r][t]);
        }
        for (std::size_t s = 0; s < 4; ++s) {
            out.envelopes[r][s] = diff(envelopes[r][s], earlier.envelopes[r][s]);
        }
        out.timers[r] = diff(timers[r], earlier.timers[r]);
    }
    out.sends = diff(sends, earlier.sends);
    out.client_start = diff(client_start, earlier.client_start);
    out.harness = diff(harness, earlier.harness);
    out.lateness_samples = lateness_samples - earlier.lateness_samples;
    return out;
}

Tracer::Frame Tracer::enter() {
    // Only the reactor thread is timed: setup and teardown calls from other
    // threads would race on the span stack.
    if (runtime_.current_shard() != 0) return Frame{};
    Frame frame{now_ns(), child_ns_, true};
    child_ns_ = 0;
    return frame;
}

void Tracer::leave(const Frame& frame, Span& span) {
    if (!frame.active) return;
    const std::int64_t duration = now_ns() - frame.start;
    ++span.calls;
    span.self_ns += duration - child_ns_;
    child_ns_ = frame.saved_child + duration;
}

void TracedNode::bind(const Endpoint& local, narada::transport::MessageHandler* handler) {
    // Handlers stay allocated until the node goes away, so a delivery that
    // raced an unbind never reaches freed memory.
    auto& slot = handlers_[local];
    slot = std::make_unique<TimedHandler>(handler, tracer_, role_);
    runtime_.bind(local, slot.get());
}

void TracedNode::unbind(const Endpoint& local) { runtime_.unbind(local); }

void TracedNode::send_datagram(const Endpoint& from, const Endpoint& to, Bytes data) {
    const Tracer::Frame frame = tracer_.enter();
    runtime_.send_datagram(from, to, std::move(data));
    tracer_.leave(frame, tracer_.ledger.sends);
}

void TracedNode::send_reliable(const Endpoint& from, const Endpoint& to, Bytes data) {
    const Tracer::Frame frame = tracer_.enter();
    runtime_.send_reliable(from, to, std::move(data));
    tracer_.leave(frame, tracer_.ledger.sends);
}

void TracedNode::join_multicast(narada::transport::MulticastGroup group, const Endpoint& local) {
    runtime_.join_multicast(group, local);
}

void TracedNode::leave_multicast(narada::transport::MulticastGroup group, const Endpoint& local) {
    runtime_.leave_multicast(group, local);
}

void TracedNode::send_multicast(narada::transport::MulticastGroup group, const Endpoint& from,
                                Bytes data) {
    const Tracer::Frame frame = tracer_.enter();
    runtime_.send_multicast(group, from, std::move(data));
    tracer_.leave(frame, tracer_.ledger.sends);
}

narada::TimerHandle TracedNode::schedule(narada::DurationUs delay, std::function<void()> task) {
    const std::int64_t due_ns = now_ns() + delay * 1000;
    return runtime_.schedule(delay, [this, due_ns, task = std::move(task)] {
        const Tracer::Frame frame = tracer_.enter();
        if (frame.active) {
            tracer_.lateness_us.push_back(static_cast<double>(frame.start - due_ns) / 1e3);
            ++tracer_.ledger.lateness_samples;
        }
        task();
        tracer_.leave(frame, tracer_.ledger.timers[static_cast<std::size_t>(role_)]);
    });
}

}  // namespace perfbench
