#include "discovery/messages.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "wire/msg_types.hpp"

namespace narada::discovery {
namespace {

BrokerAdvertisement sample_ad(Rng& rng) {
    BrokerAdvertisement ad;
    ad.broker_id = Uuid::random(rng);
    ad.broker_name = "broker-7";
    ad.hostname = "webis.msi.umn.edu";
    ad.endpoint = {4, 7000};
    ad.protocols = {"tcp", "udp", "multicast"};
    ad.realm = "umn";
    ad.geo_location = "Minneapolis, MN, USA";
    ad.institution = "UMN";
    return ad;
}

TEST(Messages, AdvertisementRoundTrip) {
    Rng rng(1);
    const BrokerAdvertisement ad = sample_ad(rng);
    wire::ByteWriter w;
    ad.encode(w);
    wire::ByteReader r(w.bytes());
    EXPECT_EQ(BrokerAdvertisement::decode(r), ad);
    EXPECT_TRUE(r.at_end());
}

TEST(Messages, AdvertisementOptionalFieldsEmpty) {
    Rng rng(2);
    BrokerAdvertisement ad = sample_ad(rng);
    ad.geo_location.clear();
    ad.institution.clear();
    ad.protocols.clear();
    wire::ByteWriter w;
    ad.encode(w);
    wire::ByteReader r(w.bytes());
    EXPECT_EQ(BrokerAdvertisement::decode(r), ad);
}

TEST(Messages, RequestRoundTrip) {
    Rng rng(3);
    DiscoveryRequest req;
    req.request_id = Uuid::random(rng);
    req.requester_hostname = "client.gf1.ucs.indiana.edu";
    req.reply_to = {2, 7200};
    req.protocols = {"tcp", "udp"};
    req.credential = "x509:alice";
    req.realm = "iu-lab";
    wire::ByteWriter w;
    req.encode(w);
    wire::ByteReader r(w.bytes());
    EXPECT_EQ(DiscoveryRequest::decode(r), req);
    EXPECT_TRUE(r.at_end());
}

TEST(Messages, ResponseRoundTrip) {
    Rng rng(4);
    DiscoveryResponse resp;
    resp.request_id = Uuid::random(rng);
    resp.sent_utc = 1234567890123456LL;
    resp.broker_id = Uuid::random(rng);
    resp.broker_name = "tungsten/broker2";
    resp.hostname = "tungsten.ncsa.uiuc.edu";
    resp.endpoint = {5, 7000};
    resp.protocols = {"tcp", "udp"};
    resp.metrics.connections = 17;
    resp.metrics.broker_links = 3;
    resp.metrics.cpu_load = 0.42;
    resp.metrics.total_memory = 512ull << 20;
    resp.metrics.free_memory = 200ull << 20;
    wire::ByteWriter w;
    resp.encode(w);
    wire::ByteReader r(w.bytes());
    EXPECT_EQ(DiscoveryResponse::decode(r), resp);
    EXPECT_TRUE(r.at_end());
}

TEST(Messages, NegativeTimestampSurvives) {
    Rng rng(5);
    DiscoveryResponse resp;
    resp.request_id = Uuid::random(rng);
    resp.sent_utc = -5;  // clock skew can make UTC estimates negative early on
    wire::ByteWriter w;
    resp.encode(w);
    wire::ByteReader r(w.bytes());
    EXPECT_EQ(DiscoveryResponse::decode(r).sent_utc, -5);
}

TEST(Messages, OversizedProtocolListRejected) {
    Rng rng(6);
    DiscoveryRequest req;
    req.request_id = Uuid::random(rng);
    req.reply_to = {1, 1};
    wire::ByteWriter w;
    req.encode(w);
    Bytes data = w.take();
    // The protocol-list count sits right after uuid(16) + hostname(4+0) +
    // endpoint(6). Corrupt it to a huge value.
    const std::size_t count_offset = 16 + 4 + 6;
    data[count_offset] = 0xFF;
    data[count_offset + 1] = 0xFF;
    wire::ByteReader r(data);
    EXPECT_THROW(DiscoveryRequest::decode(r), wire::WireError);
}

std::string random_text(Rng& rng, std::size_t max_len) {
    std::string out(rng.next() % (max_len + 1), '\0');
    for (char& c : out) c = static_cast<char>('a' + rng.next() % 26);
    return out;
}

DiscoveryRequest random_request(Rng& rng) {
    DiscoveryRequest req;
    req.request_id = Uuid::random(rng);
    req.requester_hostname = random_text(rng, 40);
    req.reply_to = {static_cast<HostId>(rng.next()), static_cast<std::uint16_t>(rng.next())};
    for (std::size_t i = rng.next() % 4; i > 0; --i) req.protocols.push_back(random_text(rng, 8));
    req.credential = random_text(rng, 24);
    req.realm = random_text(rng, 12);
    if (rng.next() % 2 == 0) {
        req.trace.trace_id = Uuid::random(rng);
        req.trace.parent_span = rng.next();
    }
    return req;
}

TEST(Messages, TraceParentCopyMatchesReencode) {
    Rng rng(8);
    for (int i = 0; i < 500; ++i) {
        const DiscoveryRequest req = random_request(rng);
        wire::ByteWriter w;
        req.encode(w);
        const Bytes encoded = w.take();
        wire::ByteReader r(encoded);
        const DiscoveryRequestView view = DiscoveryRequestView::peek(r);

        const std::uint64_t parent = i % 5 == 0 ? req.trace.parent_span : rng.next();
        DiscoveryRequest edited = view.materialize();
        edited.trace.parent_span = parent;
        wire::ByteWriter reencoded;
        edited.encode(reencoded);

        wire::ByteWriter copied;
        copied.u8(0x7f);  // the helper appends; a leading octet must survive
        copy_with_trace_parent(copied, view.raw, parent);
        const Bytes& expected = reencoded.bytes();
        const Bytes& got = copied.bytes();
        ASSERT_EQ(got.size(), expected.size() + 1) << "request " << i;
        EXPECT_EQ(got[0], 0x7f);
        EXPECT_TRUE(std::equal(expected.begin(), expected.end(), got.begin() + 1))
            << "request " << i;
        if (parent == req.trace.parent_span) {
            EXPECT_TRUE(std::equal(encoded.begin(), encoded.end(), got.begin() + 1));
        }
    }
}

TEST(Messages, TraceParentCopyRejectsShortRegion) {
    const Bytes short_region(obs::TraceContext::kWireSize - 1, 0);
    wire::ByteWriter w;
    EXPECT_THROW(copy_with_trace_parent(w, short_region, 1), wire::WireError);
}

// The fixed-size datagrams against the bytes their former inline writers
// (BDN, client, ManagedConnection, broker heartbeat and pong, Bdn::
// announce_to) produced, and back.
TEST(Messages, PingMatchesItsFormerWriters) {
    for (const TimeUs sent : {TimeUs{0}, TimeUs{123456}, TimeUs{-5}, TimeUs{1} << 62}) {
        wire::ByteWriter former;
        former.u8(wire::kMsgPing);
        former.i64(sent);
        const Bytes framed = Ping{sent}.frame({});
        EXPECT_EQ(framed, former.bytes());
        wire::ByteReader r(framed);
        ASSERT_EQ(r.u8(), wire::kMsgPing);
        EXPECT_EQ(Ping::decode(r).sent, sent);
        EXPECT_TRUE(r.at_end());
    }
}

TEST(Messages, PongMatchesItsFormerWriter) {
    const Pong pong{987654321, -42};
    wire::ByteWriter former;
    former.u8(wire::kMsgPong);
    former.i64(pong.echoed);
    former.i64(pong.responder_utc);
    const Bytes framed = pong.frame({});
    EXPECT_EQ(framed, former.bytes());
    wire::ByteReader r(framed);
    ASSERT_EQ(r.u8(), wire::kMsgPong);
    const Pong read = Pong::decode(r);
    EXPECT_EQ(read.echoed, pong.echoed);
    EXPECT_EQ(read.responder_utc, pong.responder_utc);
    EXPECT_TRUE(r.at_end());
}

TEST(Messages, BdnAnnouncementMatchesItsFormerWriter) {
    const Endpoint bdn{0x0A000001u, 47000};
    wire::ByteWriter former;
    former.u8(wire::kMsgBdnAdvertisement);
    former.u32(bdn.host);
    former.u16(bdn.port);
    const Bytes framed = BdnAnnouncement{bdn}.frame({});
    EXPECT_EQ(framed, former.bytes());
    wire::ByteReader r(framed);
    ASSERT_EQ(r.u8(), wire::kMsgBdnAdvertisement);
    EXPECT_EQ(BdnAnnouncement::decode(r).bdn, bdn);
    EXPECT_TRUE(r.at_end());
}

TEST(Messages, FramingReusesTheRecycledBuffer) {
    Bytes recycled;
    recycled.reserve(256);
    recycled.assign(40, 0xEE);  // stale contents are discarded
    const std::uint8_t* storage = recycled.data();
    const Bytes framed = Ping{7}.frame(std::move(recycled));
    EXPECT_EQ(framed.data(), storage);
    EXPECT_EQ(framed.size(), 1u + 8u);
}

TEST(Messages, RequestStampMatchesReencode) {
    Rng rng(9);
    for (int i = 0; i < 200; ++i) {
        const DiscoveryRequest req = random_request(rng);
        const RequestTemplate tmpl(req);
        for (int j = 0; j < 5; ++j) {
            const Uuid id = Uuid::random(rng);
            const Endpoint reply{static_cast<HostId>(rng.next()),
                                 static_cast<std::uint16_t>(rng.next())};
            wire::ByteWriter w;
            w.u8(wire::kMsgDiscoveryRequest);
            req.encode(w);
            wire::ByteReader r(w.bytes());
            ASSERT_EQ(r.u8(), wire::kMsgDiscoveryRequest);
            DiscoveryRequest edited = DiscoveryRequestView::peek(r).materialize();
            edited.request_id = id;
            edited.reply_to = reply;
            wire::ByteWriter expected;
            expected.u8(wire::kMsgDiscoveryRequest);
            edited.encode(expected);

            Bytes recycled(3, 0xEE);  // stale contents are replaced
            EXPECT_EQ(tmpl.stamp(std::move(recycled), id, reply), expected.bytes())
                << "request " << i << " stamp " << j;
        }
        EXPECT_EQ(tmpl.framed().size(), 1 + req.measured_size());
    }
}

TEST(Messages, TruncatedResponseThrows) {
    Rng rng(7);
    DiscoveryResponse resp;
    resp.request_id = Uuid::random(rng);
    wire::ByteWriter w;
    resp.encode(w);
    Bytes data = w.take();
    data.resize(data.size() / 2);
    wire::ByteReader r(data);
    EXPECT_THROW(DiscoveryResponse::decode(r), wire::WireError);
}

}  // namespace
}  // namespace narada::discovery
