#include "transport/posix_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <pthread.h>
#include <sched.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <system_error>

#include "common/log.hpp"

// UDP segmentation/receive offload: present since Linux 4.18/5.0 but the
// libc headers in minimal toolchains may not carry the constants.
#ifndef SOL_UDP
#define SOL_UDP 17
#endif
#ifndef UDP_SEGMENT
#define UDP_SEGMENT 103
#endif
#ifndef UDP_GRO
#define UDP_GRO 104
#endif

namespace narada::transport {
namespace {

constexpr std::size_t kMaxDatagram = 64 * 1024;
/// Kernel caps a GSO send at UDP_MAX_SEGMENTS segments...
constexpr std::size_t kMaxGsoSegments = 64;
/// ...and the summed payload must fit the u16 UDP length field.
constexpr std::size_t kMaxGsoBytes = 65000;

bool same_dest(const sockaddr_in& a, const sockaddr_in& b) {
    return a.sin_port == b.sin_port && a.sin_addr.s_addr == b.sin_addr.s_addr;
}
constexpr std::uint32_t kMaxFrame = 16 * 1024 * 1024;
/// Compact a TCP rx buffer once this much consumed prefix accumulates
/// (until then parsing advances rx_head with no memmove at all).
constexpr std::size_t kRxCompactThreshold = 64 * 1024;

/// The transport whose loop runs on this thread (stamped at loop start):
/// calls made from its handlers and timers need no wake-up.
thread_local const PosixTransport* tls_loop_owner = nullptr;

void set_nonblocking(int fd) {
    const int flags = fcntl(fd, F_GETFL, 0);
    fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

sockaddr_in loopback_addr(std::uint16_t port) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    return addr;
}

}  // namespace

/// Loop-thread-only scratch: mmsghdr/iovec arrays sized to the batch knob,
/// a raw receive slab (batch x 64 KiB slices), and the reusable delivery
/// buffers handlers borrow. Allocated once at construction — the receive
/// path never touches the heap after warm-up.
struct PosixTransport::IoScratch {
    explicit IoScratch(std::size_t batch)
        : rx_raw(new std::uint8_t[batch * kMaxDatagram]),
          rx_msgs(batch),
          rx_iovs(batch),
          rx_addrs(batch),
          tx_msgs(batch),
          tx_iovs(batch),
          tx_ctrl(batch),
          rx_ctrl(batch),
          events(64) {
        tx_batch.reserve(batch);
        tx_groups.reserve(batch);
        udp_delivery.reserve(kMaxDatagram);
        tcp_delivery.reserve(kMaxDatagram);
        // The mmsghdr/iovec wiring never changes: set it up once instead of
        // re-initializing `batch` headers on every syscall. Only the fields
        // the kernel rewrites (rx msg_namelen) and the per-batch payload
        // pointers (tx iov/name) are touched per call.
        for (std::size_t i = 0; i < batch; ++i) {
            rx_iovs[i].iov_base = rx_raw.get() + i * kMaxDatagram;
            rx_iovs[i].iov_len = kMaxDatagram;
            std::memset(&rx_msgs[i], 0, sizeof(mmsghdr));
            rx_msgs[i].msg_hdr.msg_name = &rx_addrs[i];
            rx_msgs[i].msg_hdr.msg_namelen = sizeof(sockaddr_in);
            rx_msgs[i].msg_hdr.msg_iov = &rx_iovs[i];
            rx_msgs[i].msg_hdr.msg_iovlen = 1;
            std::memset(&tx_msgs[i], 0, sizeof(mmsghdr));
            tx_msgs[i].msg_hdr.msg_namelen = sizeof(sockaddr_in);
            tx_msgs[i].msg_hdr.msg_iov = &tx_iovs[i];
            tx_msgs[i].msg_hdr.msg_iovlen = 1;
        }
    }

    std::unique_ptr<std::uint8_t[]> rx_raw;
    std::vector<mmsghdr> rx_msgs;
    std::vector<iovec> rx_iovs;
    std::vector<sockaddr_in> rx_addrs;
    std::vector<mmsghdr> tx_msgs;
    std::vector<iovec> tx_iovs;
    std::vector<OutDatagram> tx_batch;  ///< entries mid-sendmmsg
    /// A GSO group: `count` consecutive tx_batch entries from `start`,
    /// same destination and equal payload size, sent as one message.
    struct TxGroup {
        std::size_t start;
        std::size_t count;
    };
    std::vector<TxGroup> tx_groups;
    /// Per-message cmsg storage (UDP_SEGMENT on tx, UDP_GRO on rx).
    struct alignas(cmsghdr) CtrlBuf {
        char data[CMSG_SPACE(sizeof(int))];
    };
    std::vector<CtrlBuf> tx_ctrl;
    std::vector<CtrlBuf> rx_ctrl;
    Bytes udp_delivery;                 ///< borrowed by on_datagram
    Bytes tcp_delivery;                 ///< borrowed by on_reliable
    /// Lock-free snapshot of port_to_endpoint_ for per-packet source
    /// resolution; refreshed when port_map_gen_ moves (bind/unbind).
    std::unordered_map<std::uint16_t, Endpoint> port_cache;
    std::uint64_t port_cache_gen = ~std::uint64_t{0};
    std::vector<Endpoint> udp_work;     ///< swap target for dirty_udp_
    std::vector<int> tcp_work;          ///< swap target for dirty_tcp_
    std::vector<epoll_event> events;
    std::uint8_t tcp_read_buf[64 * 1024];
};

PosixTransport::PosixTransport(PosixTransportOptions options)
    : options_(options),
      pool_(options.pool_buffers, kMaxDatagram) {
    options_.udp_batch = std::clamp<std::size_t>(options_.udp_batch, 1, 64);
    if (options_.udp_gso) {
        // Probe UDP_SEGMENT support once on a throwaway socket; a kernel
        // without it returns ENOPROTOOPT and the datapath stays plain.
        const int probe = ::socket(AF_INET, SOCK_DGRAM, 0);
        if (probe >= 0) {
            const int zero = 0;
            gso_ok_ = setsockopt(probe, SOL_UDP, UDP_SEGMENT, &zero, sizeof(zero)) == 0;
            ::close(probe);
        }
    }
    epoll_fd_ = ::epoll_create1(0);
    if (epoll_fd_ < 0) {
        throw std::system_error(errno, std::generic_category(), "epoll_create1");
    }
    wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (wake_fd_ < 0) {
        const int saved = errno;
        ::close(epoll_fd_);
        throw std::system_error(saved, std::generic_category(), "eventfd");
    }
    scratch_ = std::make_unique<IoScratch>(options_.udp_batch);
    // The loop waits with epoll_pwait2 (Linux 5.11): refuse to start on a
    // kernel without it rather than spin on ENOSYS.
    const timespec zero{};
    if (::epoll_pwait2(epoll_fd_, scratch_->events.data(), 1, &zero, nullptr) < 0 &&
        errno == ENOSYS) {
        ::close(wake_fd_);
        ::close(epoll_fd_);
        throw std::system_error(ENOSYS, std::generic_category(), "epoll_pwait2");
    }
    fd_table_[wake_fd_] = FdEntry{FdKind::kWake, {}};
    epoll_register(wake_fd_);
    loop_thread_ = std::thread([this] { loop(); });
}

PosixTransport::~PosixTransport() {
    running_ = false;
    wake();
    if (loop_thread_.joinable()) loop_thread_.join();
    std::scoped_lock lock(mutex_);
    for (auto& [ep, binding] : bindings_) {
        if (binding.udp_fd >= 0) ::close(binding.udp_fd);
        if (binding.listen_fd >= 0) ::close(binding.listen_fd);
    }
    for (auto& [fd, conn] : tcp_conns_) ::close(fd);
    ::close(wake_fd_);
    ::close(epoll_fd_);
}

TimeUs PosixTransport::wall_now() {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void PosixTransport::wake() {
    // The loop drains the dirty lists at the end of every iteration and
    // recomputes its timeout at the top, so its own thread never wakes it.
    if (tls_loop_owner == this) return;
    if (inst_.wakeups) inst_.wakeups->inc();
    const std::uint64_t one = 1;
    (void)!::write(wake_fd_, &one, sizeof(one));
}

void PosixTransport::epoll_register(int fd, bool want_write) {
    epoll_event ev{};
    ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0);
    ev.data.fd = fd;
    (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
}

void PosixTransport::epoll_update(int fd, bool want_write) {
    epoll_event ev{};
    ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0);
    ev.data.fd = fd;
    (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
}

void PosixTransport::epoll_del(int fd) {
    (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

Bytes PosixTransport::acquire_buffer() { return pool_.acquire(); }

void PosixTransport::bind(const Endpoint& local, MessageHandler* handler) {
    if (handler == nullptr) throw std::invalid_argument("bind: null handler");
    {
        // Rebinding replaces the handler and keeps the sockets.
        std::scoped_lock lock(mutex_);
        if (const auto it = bindings_.find(local); it != bindings_.end()) {
            it->second.handler = handler;
            return;
        }
    }
    Binding binding;
    binding.handler = handler;
    binding.endpoint = local;

    const sockaddr_in addr = loopback_addr(local.port);

    binding.udp_fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    if (binding.udp_fd < 0 ||
        ::bind(binding.udp_fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
        const int saved = errno;
        if (binding.udp_fd >= 0) ::close(binding.udp_fd);
        throw std::system_error(saved, std::generic_category(), "udp bind " + local.str());
    }
    if (options_.udp_sockbuf > 0) {
        // Best-effort: the kernel clamps to net.core.{r,w}mem_max.
        const int sockbuf = static_cast<int>(options_.udp_sockbuf);
        setsockopt(binding.udp_fd, SOL_SOCKET, SO_RCVBUF, &sockbuf, sizeof(sockbuf));
        setsockopt(binding.udp_fd, SOL_SOCKET, SO_SNDBUF, &sockbuf, sizeof(sockbuf));
    }
    if (gso_ok_) {
        // Ask the kernel to coalesce same-flow arrivals; the receive path
        // splits them back on the UDP_GRO cmsg segment size (best-effort —
        // without it every datagram simply arrives individually).
        const int one = 1;
        setsockopt(binding.udp_fd, SOL_UDP, UDP_GRO, &one, sizeof(one));
    }

    binding.listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    const int reuse = 1;
    setsockopt(binding.listen_fd, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
    if (binding.listen_fd < 0 ||
        ::bind(binding.listen_fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(binding.listen_fd, 64) != 0) {
        const int saved = errno;
        ::close(binding.udp_fd);
        if (binding.listen_fd >= 0) ::close(binding.listen_fd);
        throw std::system_error(saved, std::generic_category(), "tcp bind " + local.str());
    }
    set_nonblocking(binding.udp_fd);
    set_nonblocking(binding.listen_fd);

    const int udp_fd = binding.udp_fd;
    const int listen_fd = binding.listen_fd;
    {
        std::scoped_lock lock(mutex_);
        port_to_endpoint_[local.port] = local;
        port_map_gen_.fetch_add(1, std::memory_order_relaxed);
        fd_table_[udp_fd] = FdEntry{FdKind::kUdp, local};
        fd_table_[listen_fd] = FdEntry{FdKind::kListen, local};
        bindings_.emplace(local, std::move(binding));
    }
    // epoll_ctl is thread-safe against a concurrent epoll_wait; the loop
    // starts seeing events for these fds immediately, and the fd_table_
    // entries above are already in place.
    epoll_register(udp_fd);
    epoll_register(listen_fd);
}

void PosixTransport::unbind(const Endpoint& local) {
    std::vector<int> to_close;
    {
        std::scoped_lock lock(mutex_);
        // Membership can outlive a binding's absence here: a ShardRuntime
        // registers it on every shard but binds on one.
        for (auto& [group, members] : groups_) std::erase(members, local);
        const auto it = bindings_.find(local);
        if (it == bindings_.end()) return;
        to_close.push_back(it->second.udp_fd);
        to_close.push_back(it->second.listen_fd);
        fd_table_.erase(it->second.udp_fd);
        fd_table_.erase(it->second.listen_fd);
        bindings_.erase(it);
        port_to_endpoint_.erase(local.port);
        port_map_gen_.fetch_add(1, std::memory_order_relaxed);
        // Drop outgoing connections originating here.
        for (auto oit = outgoing_.begin(); oit != outgoing_.end();) {
            if (oit->first.first == local) {
                to_close.push_back(oit->second);
                tcp_conns_.erase(oit->second);
                fd_table_.erase(oit->second);
                oit = outgoing_.erase(oit);
            } else {
                ++oit;
            }
        }
    }
    for (int fd : to_close) {
        if (fd >= 0) {
            epoll_del(fd);
            ::close(fd);
        }
    }
}

void PosixTransport::send_datagram(const Endpoint& from, const Endpoint& to, Bytes data) {
    bool need_wake = false;
    {
        std::scoped_lock lock(mutex_);
        const auto it = bindings_.find(from);
        if (it == bindings_.end()) {
            NARADA_WARN("posix", "send_datagram from unbound endpoint {}", from.str());
            return;
        }
        Binding& b = it->second;
        if (b.send_queue.size() >= options_.max_udp_backlog) {
            if (inst_.udp_backlog_dropped) inst_.udp_backlog_dropped->inc();
            return;  // best-effort, like UDP under pressure
        }
        OutDatagram out;
        out.addr = loopback_addr(to.port);
        out.payload = std::move(data);
        b.send_queue.push_back(std::move(out));
        if (!b.queued) {
            b.queued = true;
            dirty_udp_.push_back(from);
            need_wake = true;  // empty -> non-empty: one wake covers the burst
        }
    }
    if (need_wake) wake();
}

void PosixTransport::drain_udp(const Endpoint& owner) {
    IoScratch& s = *scratch_;
    while (true) {
        int fd = -1;
        std::size_t n = 0;
        {
            std::scoped_lock lock(mutex_);
            const auto it = bindings_.find(owner);
            if (it == bindings_.end()) return;  // unbound mid-flight
            Binding& b = it->second;
            fd = b.udp_fd;
            n = std::min(b.send_queue.size(), options_.udp_batch);
            if (n == 0) {
                b.queued = false;
                if (b.want_write) {
                    b.want_write = false;
                    epoll_update(fd, false);
                }
                return;
            }
            s.tx_batch.clear();
            for (std::size_t i = 0; i < n; ++i) {
                s.tx_batch.push_back(b.send_queue.pop_front());
            }
        }

        // Put unsent entries [from_idx, n) back at the queue front (they are
        // older than anything enqueued meanwhile); optionally arm EPOLLOUT.
        const auto requeue = [&](std::size_t from_idx, bool arm) {
            std::scoped_lock lock(mutex_);
            const auto it = bindings_.find(owner);
            if (it == bindings_.end()) return;
            Binding& b = it->second;
            for (std::size_t i = n; i > from_idx; --i) {
                b.send_queue.push_front(std::move(s.tx_batch[i - 1]));
            }
            if (arm && !b.want_write) {
                b.want_write = true;
                epoll_update(b.udp_fd, true);
            }
            // b.queued stays true: EPOLLOUT (or the retry) resumes the drain.
        };

        // Fold consecutive equal-size datagrams to one destination into GSO
        // groups: each group goes out as a single message with a UDP_SEGMENT
        // cmsg, so the kernel traverses its stack once for the whole run and
        // splits it on the wire. Mixed traffic degenerates to one-datagram
        // groups — exactly the plain sendmmsg path.
        s.tx_groups.clear();
        for (std::size_t i = 0; i < n;) {
            const std::size_t sz = s.tx_batch[i].payload.size();
            std::size_t count = 1;
            if (gso_ok_ && sz > 0) {
                std::size_t total = sz;
                while (i + count < n && count < kMaxGsoSegments &&
                       s.tx_batch[i + count].payload.size() == sz &&
                       total + sz <= kMaxGsoBytes &&
                       same_dest(s.tx_batch[i + count].addr, s.tx_batch[i].addr)) {
                    total += sz;
                    ++count;
                }
            }
            s.tx_groups.push_back({i, count});
            i += count;
        }
        const std::size_t m = s.tx_groups.size();
        bool used_gso = false;
        for (std::size_t g = 0; g < m; ++g) {
            const auto [start, count] = s.tx_groups[g];
            for (std::size_t i = start; i < start + count; ++i) {
                s.tx_iovs[i].iov_base = s.tx_batch[i].payload.data();
                s.tx_iovs[i].iov_len = s.tx_batch[i].payload.size();
            }
            msghdr& mh = s.tx_msgs[g].msg_hdr;
            mh.msg_name = &s.tx_batch[start].addr;
            mh.msg_iov = &s.tx_iovs[start];
            mh.msg_iovlen = count;
            if (count > 1) {
                used_gso = true;
                mh.msg_control = s.tx_ctrl[g].data;
                mh.msg_controllen = CMSG_SPACE(sizeof(std::uint16_t));
                cmsghdr* cm = CMSG_FIRSTHDR(&mh);
                cm->cmsg_level = SOL_UDP;
                cm->cmsg_type = UDP_SEGMENT;
                cm->cmsg_len = CMSG_LEN(sizeof(std::uint16_t));
                const auto seg = static_cast<std::uint16_t>(s.tx_batch[start].payload.size());
                std::memcpy(CMSG_DATA(cm), &seg, sizeof(seg));
            } else {
                // Headers are reused across batches: a stale control block
                // from a previous GSO group must not leak onto this message.
                mh.msg_control = nullptr;
                mh.msg_controllen = 0;
            }
        }
        const int sent_groups = ::sendmmsg(fd, s.tx_msgs.data(), static_cast<unsigned>(m), 0);
        if (inst_.syscalls_send) inst_.syscalls_send->inc();
        if (sent_groups < 0) {
            if (errno == EINTR) {
                requeue(0, false);
                continue;
            }
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                if (inst_.eagain_stalls) inst_.eagain_stalls->inc();
                requeue(0, true);
                return;
            }
            if (errno == EINVAL && used_gso) {
                // The probe lied (e.g. a device without segmentation support
                // behind the route): drop to plain sends permanently.
                gso_ok_ = false;
                requeue(0, false);
                continue;
            }
            // Hard per-message error (e.g. oversized datagram): UDP is
            // best-effort — drop this batch and keep draining.
            pool_.release_many(s.tx_batch.begin(), s.tx_batch.end(),
                               [](OutDatagram& o) -> Bytes& { return o.payload; });
            continue;
        }
        // Groups are contiguous runs over tx_batch, so the datagrams the
        // kernel consumed are exactly [0, start-of-first-unsent-group).
        const std::size_t sent = static_cast<std::size_t>(sent_groups) == m
                                     ? n
                                     : s.tx_groups[static_cast<std::size_t>(sent_groups)].start;
        if (inst_.send_batch) inst_.send_batch->observe(static_cast<double>(sent));
        for (std::size_t i = 0; i < sent; ++i) {
            if (inst_.frames_out) inst_.frames_out->inc();
            if (inst_.bytes_out) inst_.bytes_out->inc(s.tx_batch[i].payload.size());
        }
        pool_.release_many(s.tx_batch.begin(), s.tx_batch.begin() + sent,
                           [](OutDatagram& o) -> Bytes& { return o.payload; });
        if (sent < n) {
            if (inst_.eagain_stalls) inst_.eagain_stalls->inc();
            requeue(sent, true);
            return;
        }
    }
}

int PosixTransport::outgoing_fd(const Endpoint& from, const Endpoint& to) {
    {
        std::scoped_lock lock(mutex_);
        const auto it = outgoing_.find({from, to});
        if (it != outgoing_.end()) return it->second;
    }
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    const sockaddr_in addr = loopback_addr(to.port);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    const int nodelay = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
    set_nonblocking(fd);

    auto conn = std::make_unique<TcpConn>();
    conn->fd = fd;
    conn->local = from;
    conn->remote = to;
    conn->remote_known = true;  // we initiated; the peer is `to` by construction

    // Hello frame: announce our endpoint label so the peer can attribute
    // inbound messages (TCP source ports are ephemeral). First frame on the
    // output ring, so it precedes every payload frame.
    Bytes hello(6);
    hello[0] = static_cast<std::uint8_t>(from.host >> 24);
    hello[1] = static_cast<std::uint8_t>(from.host >> 16);
    hello[2] = static_cast<std::uint8_t>(from.host >> 8);
    hello[3] = static_cast<std::uint8_t>(from.host);
    hello[4] = static_cast<std::uint8_t>(from.port >> 8);
    hello[5] = static_cast<std::uint8_t>(from.port);

    {
        std::scoped_lock lock(mutex_);
        // Another thread may have raced the connect; keep the first one.
        const auto it = outgoing_.find({from, to});
        if (it != outgoing_.end()) {
            ::close(fd);
            return it->second;
        }
        tcp_conns_.emplace(fd, std::move(conn));
        outgoing_[{from, to}] = fd;
        fd_table_[fd] = FdEntry{FdKind::kTcp, {}};
        (void)enqueue_frame_locked(fd, hello);
    }
    epoll_register(fd);
    wake();
    return fd;
}

int PosixTransport::enqueue_frame_locked(int fd, const Bytes& payload) {
    const auto it = tcp_conns_.find(fd);
    if (it == tcp_conns_.end()) return -1;
    TcpConn& conn = *it->second;
    const std::size_t len = payload.size();
    const std::uint8_t header[4] = {
        static_cast<std::uint8_t>(len >> 24),
        static_cast<std::uint8_t>(len >> 16),
        static_cast<std::uint8_t>(len >> 8),
        static_cast<std::uint8_t>(len),
    };
    conn.tx_ring.insert(conn.tx_ring.end(), header, header + 4);
    conn.tx_ring.insert(conn.tx_ring.end(), payload.begin(), payload.end());
    if (!conn.queued) {
        conn.queued = true;
        dirty_tcp_.push_back(fd);
        return 1;
    }
    return 0;
}

void PosixTransport::send_reliable(const Endpoint& from, const Endpoint& to, Bytes data) {
    const int fd = outgoing_fd(from, to);
    if (fd < 0) {
        NARADA_DEBUG("posix", "reliable connect {} -> {} failed", from.str(), to.str());
        return;
    }
    int rc = -1;
    {
        std::scoped_lock lock(mutex_);
        rc = enqueue_frame_locked(fd, data);
        if (rc >= 0) {
            // Committed to the ordered ring; count here (the flush is
            // all-or-nothing short of the connection dying).
            if (inst_.frames_out) inst_.frames_out->inc();
            if (inst_.bytes_out) inst_.bytes_out->inc(data.size());
        }
    }
    pool_.release(std::move(data));  // payload was coalesced into the ring
    if (rc == 1) wake();
}

void PosixTransport::flush_tcp_locked(int fd) {
    const auto it = tcp_conns_.find(fd);
    if (it == tcp_conns_.end()) return;
    TcpConn& conn = *it->second;
    while (conn.tx_head < conn.tx_ring.size()) {
        const ssize_t n = ::send(fd, conn.tx_ring.data() + conn.tx_head,
                                 conn.tx_ring.size() - conn.tx_head, MSG_NOSIGNAL);
        if (inst_.syscalls_send) inst_.syscalls_send->inc();
        if (n < 0) {
            if (errno == EINTR) continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                if (inst_.eagain_stalls) inst_.eagain_stalls->inc();
                if (!conn.want_write) {
                    conn.want_write = true;
                    epoll_update(fd, true);
                }
                return;  // EPOLLOUT resumes; conn.queued stays true
            }
            close_tcp_locked(fd);
            return;
        }
        conn.tx_head += static_cast<std::size_t>(n);
    }
    conn.tx_ring.clear();
    conn.tx_head = 0;
    conn.queued = false;
    if (conn.want_write) {
        conn.want_write = false;
        epoll_update(fd, false);
    }
}

void PosixTransport::join_multicast(MulticastGroup group, const Endpoint& local) {
    std::scoped_lock lock(mutex_);
    auto& members = groups_[group];
    if (std::find(members.begin(), members.end(), local) == members.end()) {
        members.push_back(local);
    }
}

void PosixTransport::leave_multicast(MulticastGroup group, const Endpoint& local) {
    std::scoped_lock lock(mutex_);
    const auto it = groups_.find(group);
    if (it != groups_.end()) std::erase(it->second, local);
}

void PosixTransport::send_multicast(MulticastGroup group, const Endpoint& from, Bytes data) {
    std::vector<Endpoint> members;
    {
        std::scoped_lock lock(mutex_);
        const auto it = groups_.find(group);
        if (it != groups_.end()) members = it->second;
    }
    for (const Endpoint& member : members) {
        if (member == from) continue;
        send_datagram(from, member, Bytes(data));  // fan-out copy per member
    }
}

TimerHandle PosixTransport::schedule(DurationUs delay, std::function<void()> task) {
    if (delay < 0) delay = 0;
    TimerHandle handle = kInvalidTimerHandle;
    {
        std::scoped_lock lock(mutex_);
        handle = next_timer_++;
        timers_.push_back(Timer{wall_now() + delay, handle, std::move(task)});
        std::push_heap(timers_.begin(), timers_.end(), std::greater<>{});
    }
    wake();
    return handle;
}

void PosixTransport::cancel_timer(TimerHandle handle) {
    if (handle == kInvalidTimerHandle) return;
    std::scoped_lock lock(mutex_);
    const auto it = std::find_if(timers_.begin(), timers_.end(),
                                 [handle](const Timer& t) { return t.handle == handle; });
    if (it != timers_.end()) {
        timers_.erase(it);
        std::make_heap(timers_.begin(), timers_.end(), std::greater<>{});
    }
}

void PosixTransport::handle_udp_readable(const Endpoint& owner) {
    IoScratch& s = *scratch_;
    int fd = -1;
    MessageHandler* handler = nullptr;
    {
        std::scoped_lock lock(mutex_);
        const auto it = bindings_.find(owner);
        if (it == bindings_.end()) return;
        fd = it->second.udp_fd;
        handler = it->second.handler;
        // Refresh the lock-free port snapshot while we hold the lock
        // anyway. A bind/unbind racing with this batch can leave one batch
        // of stale source labels — the same window the message itself spent
        // in flight, so protocol-invisible.
        const std::uint64_t gen = port_map_gen_.load(std::memory_order_relaxed);
        if (s.port_cache_gen != gen) {
            s.port_cache.clear();
            s.port_cache.insert(port_to_endpoint_.begin(), port_to_endpoint_.end());
            s.port_cache_gen = gen;
        }
    }
    const std::size_t batch = options_.udp_batch;
    // Consecutive datagrams usually share a source, so resolving
    // port -> endpoint memoizes the previous answer before falling back to
    // the snapshot; no lock, no shared lookup, on the per-packet path.
    std::uint16_t memo_port = 0;
    Endpoint memo_from{};
    bool memo_valid = false;
    while (true) {
        for (std::size_t i = 0; i < batch; ++i) {
            // Fields the kernel rewrites per call: the source-address length
            // and (with GRO) the control block carrying the segment size.
            s.rx_msgs[i].msg_hdr.msg_namelen = sizeof(sockaddr_in);
            s.rx_msgs[i].msg_hdr.msg_control = s.rx_ctrl[i].data;
            s.rx_msgs[i].msg_hdr.msg_controllen = sizeof(s.rx_ctrl[i].data);
        }
        const int n = ::recvmmsg(fd, s.rx_msgs.data(), static_cast<unsigned>(batch), 0, nullptr);
        if (inst_.syscalls_recv) inst_.syscalls_recv->inc();
        if (n <= 0) return;  // EWOULDBLOCK or error: drained
        std::size_t delivered = 0;
        for (int i = 0; i < n; ++i) {
            const std::size_t len = s.rx_msgs[i].msg_len;
            const std::uint8_t* data = s.rx_raw.get() + static_cast<std::size_t>(i) * kMaxDatagram;
            const std::uint16_t src_port = ntohs(s.rx_addrs[i].sin_port);
            Endpoint from{0, src_port};
            if (memo_valid && src_port == memo_port) {
                from = memo_from;
            } else {
                const auto pit = s.port_cache.find(src_port);
                if (pit != s.port_cache.end()) from = pit->second;
                memo_port = src_port;
                memo_from = from;
                memo_valid = true;
            }
            // GRO may hand us several coalesced same-flow datagrams as one
            // message; the UDP_GRO cmsg carries the original segment size
            // (every segment equal, except a possibly-short tail), so
            // splitting on it restores the datagram boundaries exactly.
            std::size_t seg = len;
            for (cmsghdr* cm = CMSG_FIRSTHDR(&s.rx_msgs[i].msg_hdr); cm != nullptr;
                 cm = CMSG_NXTHDR(&s.rx_msgs[i].msg_hdr, cm)) {
                if (cm->cmsg_level == SOL_UDP && cm->cmsg_type == UDP_GRO) {
                    int gro_size = 0;
                    std::memcpy(&gro_size, CMSG_DATA(cm), sizeof(gro_size));
                    if (gro_size > 0) seg = static_cast<std::size_t>(gro_size);
                    break;
                }
            }
            if (seg == 0) seg = len > 0 ? len : 1;
            std::size_t off = 0;
            do {
                const std::size_t piece = std::min(seg, len - off);
                if (inst_.frames_in) inst_.frames_in->inc();
                if (inst_.bytes_in) inst_.bytes_in->inc(piece);
                // One reusable delivery buffer: assign() copies into
                // retained capacity, so the handler borrow costs zero
                // allocations.
                s.udp_delivery.assign(data + off, data + off + piece);
                handler->on_datagram(from, s.udp_delivery);
                ++delivered;
                off += piece;
            } while (off < len);
        }
        // The batch histogram counts datagrams (post-GRO-split) per syscall:
        // that is the amortization the knob controls.
        if (inst_.recv_batch) inst_.recv_batch->observe(static_cast<double>(delivered));
        if (static_cast<std::size_t>(n) < batch) return;  // drained
    }
}

void PosixTransport::handle_accept(int listen_fd, const Endpoint& local) {
    while (true) {
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0) return;
        set_nonblocking(fd);
        const int nodelay = 1;
        setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
        auto conn = std::make_unique<TcpConn>();
        conn->fd = fd;
        conn->local = local;
        conn->remote_known = false;  // until the hello frame arrives
        {
            std::scoped_lock lock(mutex_);
            tcp_conns_.emplace(fd, std::move(conn));
            fd_table_[fd] = FdEntry{FdKind::kTcp, {}};
        }
        epoll_register(fd);
    }
}

void PosixTransport::close_tcp_locked(int fd) {
    tcp_conns_.erase(fd);
    fd_table_.erase(fd);
    for (auto it = outgoing_.begin(); it != outgoing_.end();) {
        it = (it->second == fd) ? outgoing_.erase(it) : std::next(it);
    }
    epoll_del(fd);
    ::close(fd);
}

void PosixTransport::close_tcp(int fd) {
    std::scoped_lock lock(mutex_);
    close_tcp_locked(fd);
}

void PosixTransport::handle_tcp_readable(int fd) {
    IoScratch& s = *scratch_;
    while (true) {
        const ssize_t n = ::read(fd, s.tcp_read_buf, sizeof(s.tcp_read_buf));
        if (inst_.syscalls_recv) inst_.syscalls_recv->inc();
        if (n == 0) {
            close_tcp(fd);
            return;
        }
        if (n < 0) break;  // drained (EWOULDBLOCK) or transient error
        {
            std::scoped_lock lock(mutex_);
            const auto it = tcp_conns_.find(fd);
            if (it == tcp_conns_.end()) return;
            Bytes& rx = it->second->rx_buffer;
            rx.insert(rx.end(), s.tcp_read_buf, s.tcp_read_buf + n);
        }
        // A short read emptied the socket. Level-triggered epoll reports
        // whatever arrives later (the peer's close too), so no read to EAGAIN.
        if (static_cast<std::size_t>(n) < sizeof(s.tcp_read_buf)) break;
    }

    // Extract complete frames. Parsing advances rx_head; the buffer is only
    // compacted when the consumed prefix grows past the threshold (no
    // erase-front per frame).
    const auto compact = [](TcpConn& conn) {
        if (conn.rx_head == conn.rx_buffer.size()) {
            conn.rx_buffer.clear();
            conn.rx_head = 0;
        } else if (conn.rx_head > kRxCompactThreshold) {
            conn.rx_buffer.erase(conn.rx_buffer.begin(),
                                 conn.rx_buffer.begin() + static_cast<std::ptrdiff_t>(conn.rx_head));
            conn.rx_head = 0;
        }
    };
    while (true) {
        Endpoint from;
        MessageHandler* handler = nullptr;
        {
            std::scoped_lock lock(mutex_);
            const auto it = tcp_conns_.find(fd);
            if (it == tcp_conns_.end()) return;
            TcpConn& conn = *it->second;
            const std::size_t avail = conn.rx_buffer.size() - conn.rx_head;
            if (avail < 4) {
                compact(conn);
                return;
            }
            const std::uint8_t* p = conn.rx_buffer.data() + conn.rx_head;
            const std::uint32_t len = (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
                                      (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
            if (len > kMaxFrame) {
                // Hostile or corrupt framing: drop the connection.
                close_tcp_locked(fd);
                return;
            }
            if (avail < 4 + static_cast<std::size_t>(len)) {
                compact(conn);
                return;
            }
            const std::uint8_t* payload = p + 4;
            if (!conn.remote_known) {
                // First frame: the peer's endpoint label.
                if (len == 6) {
                    conn.remote.host = (std::uint32_t{payload[0]} << 24) |
                                       (std::uint32_t{payload[1]} << 16) |
                                       (std::uint32_t{payload[2]} << 8) | std::uint32_t{payload[3]};
                    conn.remote.port =
                        static_cast<std::uint16_t>((payload[4] << 8) | payload[5]);
                    conn.remote_known = true;
                }
                conn.rx_head += 4 + len;
                continue;  // hello consumed; look for the next frame
            }
            s.tcp_delivery.assign(payload, payload + len);
            conn.rx_head += 4 + len;
            from = conn.remote;
            const auto bit = bindings_.find(conn.local);
            if (bit != bindings_.end()) handler = bit->second.handler;
        }
        if (inst_.frames_in) inst_.frames_in->inc();
        if (inst_.bytes_in) inst_.bytes_in->inc(s.tcp_delivery.size());
        if (handler != nullptr) handler->on_reliable(from, s.tcp_delivery);
    }
}

void PosixTransport::loop() {
    IoScratch& s = *scratch_;
    if (options_.pin_cpu >= 0) {
        // Best-effort: a pin past the online-CPU count simply fails and the
        // scheduler keeps placing the thread.
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(static_cast<unsigned>(options_.pin_cpu), &set);
        (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
    }
    // Runs before the first wait, so it precedes every timer and handler
    // this loop will ever invoke. The owner is stamped after it: anything
    // the hook queues wakes the first wait.
    if (options_.loop_start) options_.loop_start();
    tls_loop_owner = this;
    while (running_) {
        DurationUs timeout_us = 100 * kMillisecond;  // idle tick
        {
            std::scoped_lock lock(mutex_);
            if (!timers_.empty()) {
                timeout_us = std::max<DurationUs>(0, timers_.front().deadline - wall_now());
            }
        }
        // The wait ends at the earliest deadline itself, not at the next
        // whole millisecond past it.
        timeout_us = std::min<DurationUs>(timeout_us, kSecond);
        const timespec timeout{static_cast<time_t>(timeout_us / kSecond),
                               static_cast<long>(timeout_us % kSecond * 1000)};
        const int nev = ::epoll_pwait2(epoll_fd_, s.events.data(),
                                       static_cast<int>(s.events.size()), &timeout, nullptr);
        if (!running_) break;

        // Fire timers due as of this instant (outside the wait, outside the
        // lock). The ceiling is captured once: a task that reschedules
        // itself with a zero delay lands past it and fires next iteration,
        // so self-rescheduling timers cannot livelock the loop away from
        // I/O events.
        const TimeUs fire_ceiling = wall_now();
        while (true) {
            std::function<void()> task;
            {
                std::scoped_lock lock(mutex_);
                if (timers_.empty() || timers_.front().deadline > fire_ceiling) break;
                std::pop_heap(timers_.begin(), timers_.end(), std::greater<>{});
                task = std::move(timers_.back().task);
                timers_.pop_back();
            }
            task();
        }

        for (int i = 0; i < nev; ++i) {
            const int fd = s.events[i].data.fd;
            const std::uint32_t ev = s.events[i].events;
            FdEntry entry;
            {
                std::scoped_lock lock(mutex_);
                const auto it = fd_table_.find(fd);
                if (it == fd_table_.end()) continue;  // unbound/closed meanwhile
                entry = it->second;
            }
            switch (entry.kind) {
                case FdKind::kWake: {
                    std::uint64_t wakes = 0;  // one read resets the counter
                    (void)!::read(wake_fd_, &wakes, sizeof(wakes));
                    break;
                }
                case FdKind::kUdp:
                    if (ev & (EPOLLIN | EPOLLERR)) handle_udp_readable(entry.owner);
                    if (ev & EPOLLOUT) drain_udp(entry.owner);
                    break;
                case FdKind::kListen:
                    handle_accept(fd, entry.owner);
                    break;
                case FdKind::kTcp:
                    if (ev & (EPOLLIN | EPOLLHUP | EPOLLERR)) handle_tcp_readable(fd);
                    if (ev & EPOLLOUT) {
                        std::scoped_lock lock(mutex_);
                        flush_tcp_locked(fd);
                    }
                    break;
            }
        }

        // Drain send queues that turned non-empty since the last pass
        // (including sends issued by the handlers above).
        {
            std::scoped_lock lock(mutex_);
            s.udp_work.swap(dirty_udp_);
            s.tcp_work.swap(dirty_tcp_);
            // A binding or connection sits on a dirty list at most once, so
            // lists reserved to the containers' sizes never grow on a send.
            dirty_udp_.reserve(bindings_.size());
            dirty_tcp_.reserve(tcp_conns_.size());
        }
        for (const Endpoint& ep : s.udp_work) drain_udp(ep);
        if (!s.tcp_work.empty()) {
            std::scoped_lock lock(mutex_);
            for (int fd : s.tcp_work) flush_tcp_locked(fd);
        }
        s.udp_work.clear();
        s.tcp_work.clear();
    }
}

std::uint16_t PosixTransport::find_free_port(std::uint16_t start) {
    for (std::uint16_t port = start; port < 65500; ++port) {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0) continue;
        const sockaddr_in addr = loopback_addr(port);
        const bool ok =
            ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0;
        ::close(fd);
        if (ok) return port;
    }
    throw std::runtime_error("no free loopback port found");
}

void PosixTransport::set_observability(obs::MetricsRegistry* metrics, const std::string& node) {
    inst_ = {};
    if (metrics == nullptr) {
        pool_.set_instruments(nullptr, nullptr, nullptr);
        return;
    }
    inst_.bytes_in = &metrics->counter("transport_bytes_in", node);
    inst_.bytes_out = &metrics->counter("transport_bytes_out", node);
    inst_.frames_in = &metrics->counter("transport_frames_in", node);
    inst_.frames_out = &metrics->counter("transport_frames_out", node);
    inst_.syscalls_recv = &metrics->counter("transport_syscalls_recv", node);
    inst_.syscalls_send = &metrics->counter("transport_syscalls_send", node);
    inst_.eagain_stalls = &metrics->counter("transport_eagain_stalls", node);
    inst_.udp_backlog_dropped = &metrics->counter("transport_udp_backlog_dropped", node);
    inst_.wakeups = &metrics->counter("transport_wakeups", node);
    inst_.recv_batch = &metrics->histogram("transport_recv_batch", node, obs::batch_buckets());
    inst_.send_batch = &metrics->histogram("transport_send_batch", node, obs::batch_buckets());
    pool_.set_instruments(&metrics->counter("transport_pool_hits", node),
                          &metrics->counter("transport_pool_misses", node),
                          &metrics->gauge("transport_pool_hwm", node));
}

}  // namespace narada::transport
