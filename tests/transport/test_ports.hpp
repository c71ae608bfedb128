// Loopback ports for real-socket tests.
//
// ctest runs every test case as its own process, several at a time, so a
// port that one process probed free can be bound by another before the
// first one binds it. Each process therefore claims a private block of
// ports and hands them out in order. It claims a block by binding a UDP
// socket on the block's first port and keeping it open until the process
// exits, so no other process can claim the same block. The blocks lie
// below the kernel's ephemeral range (32768 and up by default), where no
// port-0 bind or outgoing connection lands. Each port handed out is also
// probed free for both UDP and TCP, in case an unrelated program holds it.
#pragma once

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <stdexcept>

namespace narada::transport {

namespace test_ports_detail {

inline bool bind_loopback(int fd, std::uint16_t port) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    return ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0;
}

/// Both sockets PosixTransport::bind would open can bind `port` right now.
inline bool free_for_udp_and_tcp(std::uint16_t port) {
    const int udp = ::socket(AF_INET, SOCK_DGRAM, 0);
    const int tcp = ::socket(AF_INET, SOCK_STREAM, 0);
    const int reuse = 1;  // like the transport's listener: TIME_WAIT does not block it
    if (tcp >= 0) ::setsockopt(tcp, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
    const bool ok = udp >= 0 && tcp >= 0 && bind_loopback(udp, port) && bind_loopback(tcp, port);
    if (udp >= 0) ::close(udp);
    if (tcp >= 0) ::close(tcp);
    return ok;
}

}  // namespace test_ports_detail

/// A loopback port no other test process can be handed, free for both UDP
/// and TCP. Call from one thread.
inline std::uint16_t claim_test_port() {
    constexpr std::uint16_t kFirstBlock = 10000;
    constexpr std::uint16_t kBlockSize = 64;
    constexpr std::uint16_t kBlocks = 150;  // ports 10000..19599
    static std::uint16_t next = 0;          // next port of the claimed block
    static std::uint16_t block_end = 0;
    static std::uint16_t tried = 0;         // blocks tried, from a pid-spread start
    static const auto start = static_cast<std::uint16_t>(::getpid() % kBlocks);

    while (true) {
        while (next < block_end) {
            const std::uint16_t port = next++;
            if (test_ports_detail::free_for_udp_and_tcp(port)) return port;
        }
        if (tried == kBlocks) throw std::runtime_error("no free test port block");
        const auto first =
            static_cast<std::uint16_t>(kFirstBlock + ((start + tried++) % kBlocks) * kBlockSize);
        const int lock = ::socket(AF_INET, SOCK_DGRAM, 0);
        if (lock >= 0 && test_ports_detail::bind_loopback(lock, first)) {
            // Held open, never closed: the claim lasts until the process exits.
            next = static_cast<std::uint16_t>(first + 1);
            block_end = static_cast<std::uint16_t>(first + kBlockSize);
        } else if (lock >= 0) {
            ::close(lock);
        }
    }
}

}  // namespace narada::transport
