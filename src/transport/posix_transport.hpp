// Real-socket transport backend (loopback).
//
// Implements the same Transport + Scheduler interfaces as the simulator,
// over actual POSIX sockets on 127.0.0.1, so the identical protocol stack
// (brokers, BDNs, discovery clients, NTP) runs over real networking:
//
//   * datagrams  -> UDP sockets (genuinely lossy under pressure);
//   * reliable   -> TCP connections with u32 length-prefixed frames; the
//     first frame on each connection announces the sender's bound endpoint
//     (TCP source ports are ephemeral and would not identify the sender);
//   * multicast  -> process-local group fan-out over UDP (documented
//     emulation: realm scoping is a WAN property the loopback has not got);
//   * timers     -> a wall-clock timer heap.
//
// Datapath (see DESIGN.md "Real-socket datapath"): a level-triggered epoll
// reactor with an fd -> handler table replaces the poll()-over-every-socket
// loop, UDP is batched with recvmmsg/sendmmsg through per-socket send
// queues, TCP writes coalesce into a per-connection output ring flushed on
// writability, and receive/encode buffers recycle through a lock-light
// free-list pool (BufferPool) so the steady state allocates nothing per
// packet.
//
// Concurrency model (CP.2/CP.3): ONE internal event-loop thread runs the
// reactor and fires due timers, so all MessageHandler and timer callbacks
// are serialized exactly as on the simulator's virtual-time kernel —
// protocol objects need no locks. send_* and schedule() may be called from
// any thread (including from within callbacks): they enqueue under the
// transport mutex. The loop never wakes itself: it drains the send queues
// at the end of every iteration and takes its wait from the timer heap at
// the top, so a call from a handler or timer writes nothing. Another thread
// wakes it through one eventfd: once per schedule(), and once per empty ->
// non-empty send-queue transition, so a burst of sends costs one write.
// The wait ends exactly at the earliest deadline (epoll_pwait2), and a TCP
// drain ends at the first short read.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include <netinet/in.h>

#include "common/scheduler.hpp"
#include "common/types.hpp"
#include "obs/metrics.hpp"
#include "transport/buffer_pool.hpp"
#include "transport/transport.hpp"

namespace narada::transport {

/// Datapath tuning knobs. The defaults suit the loopback benches; tests
/// shrink them to force backlog/EAGAIN paths.
struct PosixTransportOptions {
    std::size_t udp_batch = 32;          ///< recvmmsg/sendmmsg batch size (>= 1)
    std::size_t pool_buffers = 64;       ///< free-list capacity of the buffer pool
    std::size_t max_udp_backlog = 4096;  ///< queued datagrams per socket before drops
    /// SO_RCVBUF/SO_SNDBUF requested for UDP sockets (0 = kernel default).
    /// A sendmmsg burst can land a whole batch ahead of the receiver's
    /// next recvmmsg; the default ~208 KiB rcvbuf overflows after ~90
    /// 1-KiB datagrams, so the datapath asks for more headroom.
    std::size_t udp_sockbuf = 1 << 20;
    /// Use UDP generic segmentation/receive offload when the kernel has it:
    /// consecutive equal-size datagrams to one destination leave as a single
    /// UDP_SEGMENT send, and UDP_GRO coalesces arrivals so one stack
    /// traversal carries a whole batch each way. Falls back transparently
    /// (probed once at construction, and disabled on the first EINVAL).
    bool udp_gso = true;
    /// Pin the event-loop thread to this CPU (-1 = no pinning). Used by the
    /// sharded runtime's thread-per-core mode.
    int pin_cpu = -1;
    /// Runs on the event-loop thread before its first iteration — before
    /// any timer or handler can fire. The sharded runtime uses it to stamp
    /// the thread-local shard identity.
    std::function<void()> loop_start;
};

class PosixTransport final : public Transport, public Scheduler {
public:
    /// Starts the event-loop thread.
    explicit PosixTransport(PosixTransportOptions options = {});
    /// Stops the loop and closes every socket.
    ~PosixTransport() override;

    PosixTransport(const PosixTransport&) = delete;
    PosixTransport& operator=(const PosixTransport&) = delete;

    // --- Transport ----------------------------------------------------------
    /// Binds a UDP socket and a TCP listener on 127.0.0.1:port. The
    /// Endpoint's host id is an application-level label (all traffic is
    /// loopback); the port must be unique within the process/machine.
    /// Rebinding a bound endpoint replaces its handler and keeps its
    /// sockets. Throws std::system_error on bind failure.
    void bind(const Endpoint& local, MessageHandler* handler) override;
    void unbind(const Endpoint& local) override;
    void send_datagram(const Endpoint& from, const Endpoint& to, Bytes data) override;
    void send_reliable(const Endpoint& from, const Endpoint& to, Bytes data) override;
    void join_multicast(MulticastGroup group, const Endpoint& local) override;
    void leave_multicast(MulticastGroup group, const Endpoint& local) override;
    void send_multicast(MulticastGroup group, const Endpoint& from, Bytes data) override;
    /// Borrow an encode buffer from the recycling pool (returned to the
    /// pool after the bytes hit the wire when passed back via send_*).
    Bytes acquire_buffer() override;
    /// The recycling pool (sizing/occupancy introspection for snapshots).
    [[nodiscard]] const BufferPool& buffer_pool() const { return pool_; }

    // --- Scheduler ----------------------------------------------------------
    TimerHandle schedule(DurationUs delay, std::function<void()> task) override;
    void cancel_timer(TimerHandle handle) override;

    /// Find a free port by probing bind() upward from `start` (test helper).
    static std::uint16_t find_free_port(std::uint16_t start);

    /// Mirror datapath instruments (traffic totals, syscall/batch/pool/
    /// backlog counters) into a metrics registry. MUST be called before the
    /// first bind(): the instrument pointers are read by the event-loop
    /// thread without synchronization, so they may only be written while no
    /// sockets exist. Updates themselves are relaxed atomics and safe from
    /// every thread.
    void set_observability(obs::MetricsRegistry* metrics, const std::string& node = "posix");

private:
    /// A queued outbound datagram (pooled payload, pre-resolved address).
    struct OutDatagram {
        sockaddr_in addr{};
        Bytes payload;
    };

    /// FIFO of outbound datagrams: a power-of-two ring over a vector.
    /// Unlike std::deque it never allocates in steady state — slots (and
    /// the pooled Bytes capacity inside them) recycle in place; growth only
    /// happens when the depth exceeds every previous high-water mark.
    class DatagramRing {
    public:
        [[nodiscard]] std::size_t size() const { return size_; }
        [[nodiscard]] bool empty() const { return size_ == 0; }

        void push_back(OutDatagram&& out) {
            if (size_ == slots_.size()) grow();
            slots_[(head_ + size_) & (slots_.size() - 1)] = std::move(out);
            ++size_;
        }
        /// Put an entry back at the front (requeue after a partial
        /// sendmmsg); the pop that handed it out guarantees room.
        void push_front(OutDatagram&& out) {
            if (size_ == slots_.size()) grow();
            head_ = (head_ + slots_.size() - 1) & (slots_.size() - 1);
            slots_[head_] = std::move(out);
            ++size_;
        }
        OutDatagram pop_front() {
            OutDatagram out = std::move(slots_[head_]);
            head_ = (head_ + 1) & (slots_.size() - 1);
            --size_;
            return out;
        }

    private:
        void grow() {
            std::vector<OutDatagram> bigger(slots_.empty() ? 16 : slots_.size() * 2);
            for (std::size_t i = 0; i < size_; ++i) {
                bigger[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
            }
            slots_ = std::move(bigger);
            head_ = 0;
        }

        std::vector<OutDatagram> slots_;
        std::size_t head_ = 0;
        std::size_t size_ = 0;
    };

    struct Binding {
        MessageHandler* handler = nullptr;
        Endpoint endpoint;
        int udp_fd = -1;
        int listen_fd = -1;
        DatagramRing send_queue;  ///< drained in sendmmsg batches
        bool queued = false;      ///< on dirty_udp_ or mid-drain (wake elision)
        bool want_write = false;  ///< EPOLLOUT registered after EAGAIN
    };

    /// An accepted or initiated TCP connection carrying framed messages.
    struct TcpConn {
        int fd = -1;
        Endpoint local;        ///< our endpoint label
        Endpoint remote;       ///< peer label (learned from its hello frame)
        bool remote_known = false;
        Bytes rx_buffer;       ///< partial frame accumulation
        std::size_t rx_head = 0;  ///< consumed prefix (compacted lazily)
        Bytes tx_ring;         ///< coalesced outbound frames (header+payload)
        std::size_t tx_head = 0;  ///< flushed prefix of tx_ring
        bool queued = false;      ///< on dirty_tcp_ or mid-flush
        bool want_write = false;  ///< EPOLLOUT registered after EAGAIN
    };

    /// What the reactor knows about a registered fd: dispatch without
    /// scanning any container.
    enum class FdKind : std::uint8_t { kWake, kUdp, kListen, kTcp };
    struct FdEntry {
        FdKind kind;
        Endpoint owner;  ///< bound endpoint for kUdp/kListen
    };

    struct Timer {
        TimeUs deadline;
        TimerHandle handle;
        std::function<void()> task;
        bool operator>(const Timer& other) const { return deadline > other.deadline; }
    };

    /// Loop-thread-only scratch for recvmmsg/sendmmsg (msghdr/iovec arrays
    /// and the raw receive slab); defined in the .cpp to keep <sys/socket.h>
    /// internals out of this header.
    struct IoScratch;

    void loop();
    /// Wake the loop from another thread; a no-op on the loop's own thread.
    void wake();
    /// epoll_ctl wrappers (fd_table_ entries are managed by the callers,
    /// under the same mutex_ hold as the owning container update).
    void epoll_register(int fd, bool want_write = false);
    void epoll_update(int fd, bool want_write);
    void epoll_del(int fd);
    void handle_udp_readable(const Endpoint& owner);
    /// Drain a binding's send queue in sendmmsg batches until empty or the
    /// kernel pushes back (then EPOLLOUT resumes it).
    void drain_udp(const Endpoint& owner);
    void handle_accept(int listen_fd, const Endpoint& local);
    void handle_tcp_readable(int fd);
    /// Flush a connection's output ring; expects mutex_ held.
    void flush_tcp_locked(int fd);
    void close_tcp(int fd);
    void close_tcp_locked(int fd);
    /// Get or create the outgoing connection from `from` to `to`.
    int outgoing_fd(const Endpoint& from, const Endpoint& to);
    /// Append a length-prefixed frame to a connection's output ring and put
    /// it on the dirty list; expects mutex_ held. Returns -1 if the fd is
    /// unknown, 1 if the caller must wake the loop, 0 otherwise.
    int enqueue_frame_locked(int fd, const Bytes& payload);
    [[nodiscard]] static TimeUs wall_now();

    PosixTransportOptions options_;
    BufferPool pool_;

    std::mutex mutex_;  // guards every container below
    std::map<Endpoint, Binding> bindings_;
    std::unordered_map<int, std::unique_ptr<TcpConn>> tcp_conns_;     // by fd
    std::unordered_map<int, FdEntry> fd_table_;                       // reactor dispatch
    std::map<std::pair<Endpoint, Endpoint>, int> outgoing_;           // (from,to) -> fd
    std::map<MulticastGroup, std::vector<Endpoint>> groups_;
    std::map<std::uint16_t, Endpoint> port_to_endpoint_;
    /// Bumped (under mutex_) whenever port_to_endpoint_ changes; the loop
    /// thread keeps a lock-free snapshot in its scratch and refreshes it on
    /// a generation mismatch, so the per-packet source-endpoint resolution
    /// on the receive path takes no lock (see handle_udp_readable).
    std::atomic<std::uint64_t> port_map_gen_{0};
    std::vector<Endpoint> dirty_udp_;  ///< bindings with newly non-empty queues
    std::vector<int> dirty_tcp_;       ///< conns with newly non-empty rings

    std::vector<Timer> timers_;  // min-heap by deadline
    TimerHandle next_timer_ = 1;

    /// Kernel supports UDP_SEGMENT (probed in the constructor). Written in
    /// the constructor and by the loop thread on an EINVAL fallback; only
    /// the loop thread reads it afterwards.
    bool gso_ok_ = false;

    int epoll_fd_ = -1;
    int wake_fd_ = -1;  ///< eventfd: one write wakes, one read drains
    std::atomic<bool> running_{true};
    std::unique_ptr<IoScratch> scratch_;  // loop-thread only
    std::thread loop_thread_;

    // Observability (optional; written once before any bind, see
    // set_observability).
    struct Instruments {
        obs::Counter* bytes_in = nullptr;
        obs::Counter* bytes_out = nullptr;
        obs::Counter* frames_in = nullptr;
        obs::Counter* frames_out = nullptr;
        obs::Counter* syscalls_recv = nullptr;   ///< recvmmsg/read calls
        obs::Counter* syscalls_send = nullptr;   ///< sendmmsg/send calls
        obs::Counter* eagain_stalls = nullptr;   ///< kernel pushed back; EPOLLOUT armed
        obs::Counter* udp_backlog_dropped = nullptr;
        obs::Counter* wakeups = nullptr;         ///< eventfd writes from other threads
        obs::Histogram* recv_batch = nullptr;    ///< datagrams per recvmmsg
        obs::Histogram* send_batch = nullptr;    ///< datagrams per sendmmsg
    } inst_;
};

}  // namespace narada::transport
