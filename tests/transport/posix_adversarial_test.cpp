// Adversarial inputs against the POSIX transport: hostile TCP framing,
// garbage UDP, and protocol nodes receiving raw junk over real sockets.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "transport/posix_transport.hpp"
#include "test_ports.hpp"

namespace narada::transport {
namespace {

class Recorder final : public MessageHandler {
public:
    void on_datagram(const Endpoint&, const Bytes& data) override {
        std::scoped_lock lock(mutex_);
        datagrams.push_back(data);
    }
    void on_reliable(const Endpoint&, const Bytes& data) override {
        std::scoped_lock lock(mutex_);
        reliables.push_back(data);
    }
    std::vector<Bytes> snapshot_reliables() {
        std::scoped_lock lock(mutex_);
        return reliables;
    }
    std::vector<Bytes> snapshot_datagrams() {
        std::scoped_lock lock(mutex_);
        return datagrams;
    }

private:
    std::mutex mutex_;
    std::vector<Bytes> datagrams;
    std::vector<Bytes> reliables;
};

int raw_tcp_connect(std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

struct AdversarialFixture : ::testing::Test {
    AdversarialFixture() {
        ep = {0, claim_test_port()};
        transport.bind(ep, &rx);
    }

    PosixTransport transport;
    Recorder rx;
    Endpoint ep;
};

TEST_F(AdversarialFixture, OversizedFrameHeaderDropsConnection) {
    const int fd = raw_tcp_connect(ep.port);
    ASSERT_GE(fd, 0);
    // Announce a 512 MiB frame: far over kMaxFrame; the transport must
    // shed the connection instead of buffering.
    const std::uint8_t evil[4] = {0x20, 0x00, 0x00, 0x00};
    ASSERT_EQ(::send(fd, evil, 4, 0), 4);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    // The transport closed its side; a further send eventually fails or
    // the socket reports EOF on read.
    char probe = 'x';
    (void)::send(fd, &probe, 1, MSG_NOSIGNAL);
    char buffer;
    const ssize_t n = ::recv(fd, &buffer, 1, MSG_DONTWAIT);
    EXPECT_LE(n, 0);  // no data, peer closed (0) or EWOULDBLOCK after RST
    ::close(fd);
    EXPECT_TRUE(rx.snapshot_reliables().empty());
}

TEST_F(AdversarialFixture, PartialFrameThenCloseDeliversNothing) {
    const int fd = raw_tcp_connect(ep.port);
    ASSERT_GE(fd, 0);
    // Valid hello announcing endpoint {7, 7} then half a frame.
    const std::uint8_t hello[10] = {0, 0, 0, 6, 0, 0, 0, 7, 0, 7};
    ASSERT_EQ(::send(fd, hello, sizeof(hello), 0), (ssize_t)sizeof(hello));
    const std::uint8_t partial[6] = {0, 0, 0, 10, 0xAA, 0xBB};  // 10-byte frame, 2 sent
    ASSERT_EQ(::send(fd, partial, sizeof(partial), 0), (ssize_t)sizeof(partial));
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    EXPECT_TRUE(rx.snapshot_reliables().empty());
}

TEST_F(AdversarialFixture, SlowLorisFrameEventuallyCompletes) {
    const int fd = raw_tcp_connect(ep.port);
    ASSERT_GE(fd, 0);
    const std::uint8_t hello[10] = {0, 0, 0, 6, 0, 0, 0, 7, 0, 9};
    ASSERT_EQ(::send(fd, hello, sizeof(hello), 0), (ssize_t)sizeof(hello));
    // Dribble a 4-byte frame one byte at a time.
    const std::uint8_t frame[8] = {0, 0, 0, 4, 1, 2, 3, 4};
    for (std::uint8_t byte : frame) {
        ASSERT_EQ(::send(fd, &byte, 1, 0), 1);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    for (int i = 0; i < 100 && rx.snapshot_reliables().empty(); ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    const auto reliables = rx.snapshot_reliables();
    ASSERT_EQ(reliables.size(), 1u);
    EXPECT_EQ(reliables[0], (Bytes{1, 2, 3, 4}));
    ::close(fd);
}

TEST_F(AdversarialFixture, MultipleFramesInOneSegment) {
    const int fd = raw_tcp_connect(ep.port);
    ASSERT_GE(fd, 0);
    // hello + two frames coalesced into a single write.
    const std::uint8_t blob[] = {
        0, 0, 0, 6, 0, 0, 0, 7, 0, 9,  // hello {7, 9}
        0, 0, 0, 2, 0xAA, 0xBB,        // frame 1
        0, 0, 0, 1, 0xCC,              // frame 2
    };
    ASSERT_EQ(::send(fd, blob, sizeof(blob), 0), (ssize_t)sizeof(blob));
    for (int i = 0; i < 100 && rx.snapshot_reliables().size() < 2; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    const auto reliables = rx.snapshot_reliables();
    ASSERT_EQ(reliables.size(), 2u);
    EXPECT_EQ(reliables[0], (Bytes{0xAA, 0xBB}));
    EXPECT_EQ(reliables[1], (Bytes{0xCC}));
    ::close(fd);
}

TEST_F(AdversarialFixture, GarbageUdpDeliveredVerbatimNotCrashing) {
    // The transport is payload-agnostic: garbage UDP reaches the handler,
    // whose parser is responsible for rejecting it (fuzz-tested elsewhere).
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(ep.port);
    const std::uint8_t junk[] = {0xFF, 0x00, 0xDE, 0xAD};
    ASSERT_EQ(::sendto(fd, junk, sizeof(junk), 0, reinterpret_cast<const sockaddr*>(&addr),
                       sizeof(addr)),
              (ssize_t)sizeof(junk));
    ::close(fd);
    for (int i = 0; i < 100 && rx.snapshot_datagrams().empty(); ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    const auto datagrams = rx.snapshot_datagrams();
    ASSERT_EQ(datagrams.size(), 1u);
    EXPECT_EQ(datagrams[0], (Bytes{0xFF, 0x00, 0xDE, 0xAD}));
}

}  // namespace
}  // namespace narada::transport
