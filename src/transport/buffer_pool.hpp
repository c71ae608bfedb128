// Lock-light free-list buffer pool for the real-socket datapath.
//
// Receive buffers, encode buffers and queued send payloads cycle through
// one pool so the steady state of the transport allocates nothing per
// packet: a datagram is received into a pooled buffer, handed to the
// handler as a borrowed reference, and the buffer is reused for the next
// batch; an outgoing message is encoded into a pooled buffer
// (Transport::acquire_buffer), moved through the send queue, and released
// back here after sendmmsg puts it on the wire.
//
// "Lock-light": acquire/release are one uncontended mutex acquisition
// around a vector push/pop — no allocation, no syscalls, and the mutex is
// only ever contended between a sender thread and the event loop for the
// duration of that push/pop. Hit/miss counters are optional relaxed
// atomics (see obs::Counter) wired by the owning transport.
#pragma once

#include <cstddef>
#include <functional>
#include <mutex>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "obs/metrics.hpp"

namespace narada::transport {

class BufferPool {
public:
    /// `max_buffers` bounds the idle free list (excess releases free their
    /// memory); `buffer_capacity` is the capacity fresh buffers reserve so
    /// a pooled buffer can hold any datagram without growing.
    explicit BufferPool(std::size_t max_buffers = 64,
                        std::size_t buffer_capacity = 64 * 1024)
        : max_buffers_(max_buffers), buffer_capacity_(buffer_capacity) {
        // The free list itself must never grow mid-flight: a release on the
        // event loop would pay vector growth right on the datapath.
        free_.reserve(max_buffers_);
    }

    /// Pop a recycled buffer (cleared, capacity retained) or allocate a
    /// fresh one reserving `buffer_capacity` bytes.
    Bytes acquire() {
        {
            std::scoped_lock lock(mu_);
            note_acquire_locked();
            if (!free_.empty()) {
                Bytes buf = std::move(free_.back());
                free_.pop_back();
                if (hits_ != nullptr) hits_->inc();
                buf.clear();
                return buf;
            }
        }
        if (misses_ != nullptr) misses_->inc();
        Bytes buf;
        buf.reserve(buffer_capacity_);
        return buf;
    }

    /// Return a buffer to the free list. Buffers beyond `max_buffers` (or
    /// with no capacity worth keeping) are simply freed.
    void release(Bytes buf) {
        if (buf.capacity() == 0) return;
        std::scoped_lock lock(mu_);
        if (outstanding_ > 0) --outstanding_;
        if (free_.size() >= max_buffers_) return;  // dropped: pool is full
        free_.push_back(std::move(buf));
    }

    /// Return a whole batch under one lock acquisition — the event loop
    /// recycles every payload of a sendmmsg batch at once, and one mutex
    /// round-trip per batch beats one per buffer. `proj` maps an element to
    /// the Bytes to recycle (identity for plain Bytes ranges).
    template <typename It, typename Proj = std::identity>
    void release_many(It first, It last, Proj proj = {}) {
        std::scoped_lock lock(mu_);
        for (; first != last; ++first) {
            Bytes& buf = proj(*first);
            if (buf.capacity() == 0) continue;
            if (outstanding_ > 0) --outstanding_;
            if (free_.size() >= max_buffers_) continue;  // pool full: drop this one
            free_.push_back(std::move(buf));
        }
    }

    /// Optional hit/miss counters and high-watermark gauge (relaxed
    /// atomics; any may be null). Wire before concurrent use — the pointers
    /// themselves are unsynchronized. The gauge tracks the peak number of
    /// buffers simultaneously out of the pool: the pool size a shard would
    /// need to never mint a fresh buffer.
    void set_instruments(obs::Counter* hits, obs::Counter* misses,
                         obs::Gauge* high_watermark = nullptr) {
        hits_ = hits;
        misses_ = misses;
        hwm_ = high_watermark;
        if (hwm_ != nullptr) {
            std::scoped_lock lock(mu_);
            hwm_->set(static_cast<double>(peak_outstanding_));
        }
    }

    [[nodiscard]] std::size_t idle() const {
        std::scoped_lock lock(mu_);
        return free_.size();
    }
    /// Peak count of buffers simultaneously held outside the pool.
    [[nodiscard]] std::size_t peak_outstanding() const {
        std::scoped_lock lock(mu_);
        return peak_outstanding_;
    }
    [[nodiscard]] std::size_t buffer_capacity() const { return buffer_capacity_; }
    [[nodiscard]] std::size_t max_buffers() const { return max_buffers_; }

private:
    void note_acquire_locked() {
        ++outstanding_;
        if (outstanding_ > peak_outstanding_) {
            peak_outstanding_ = outstanding_;
            if (hwm_ != nullptr) hwm_->set(static_cast<double>(peak_outstanding_));
        }
    }

    mutable std::mutex mu_;
    std::vector<Bytes> free_;
    std::size_t max_buffers_;
    std::size_t buffer_capacity_;
    /// Buffers currently out of the pool. Releases of buffers acquired
    /// elsewhere (callers may send their own vectors, or a buffer from
    /// another shard's pool) clamp at zero rather than underflow.
    std::size_t outstanding_ = 0;
    std::size_t peak_outstanding_ = 0;
    obs::Counter* hits_ = nullptr;
    obs::Counter* misses_ = nullptr;
    obs::Gauge* hwm_ = nullptr;
};

}  // namespace narada::transport
