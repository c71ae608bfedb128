// Decoder robustness: every protocol decoder must survive arbitrary bytes
// (throwing wire::WireError at worst — never crashing, hanging, or
// allocating absurd amounts) and must survive every truncation of a valid
// encoding. A hostile datagram can reach any node, so this is a security
// property of the whole system.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <string_view>

#include "broker/event.hpp"
#include "common/rng.hpp"
#include "crypto/certificate.hpp"
#include "crypto/envelope.hpp"
#include "discovery/messages.hpp"
#include "services/fragmentation.hpp"
#include "wire/codec.hpp"

namespace narada {
namespace {

using DecoderFn = void (*)(wire::ByteReader&);

struct NamedDecoder {
    const char* name;
    DecoderFn decode;
};

const NamedDecoder kDecoders[] = {
    {"Event", [](wire::ByteReader& r) { (void)broker::Event::decode(r); }},
    {"BrokerAdvertisement",
     [](wire::ByteReader& r) { (void)discovery::BrokerAdvertisement::decode(r); }},
    {"DiscoveryRequest",
     [](wire::ByteReader& r) { (void)discovery::DiscoveryRequest::decode(r); }},
    {"DiscoveryResponse",
     [](wire::ByteReader& r) { (void)discovery::DiscoveryResponse::decode(r); }},
    {"Fragment", [](wire::ByteReader& r) { (void)services::Fragment::decode(r); }},
    {"Certificate", [](wire::ByteReader& r) { (void)crypto::Certificate::decode(r); }},
    {"SecureEnvelope", [](wire::ByteReader& r) { (void)crypto::SecureEnvelope::decode(r); }},
    // The borrowed views are the BDN's, broker's and client's only decode
    // path for these three messages.
    {"BrokerAdvertisementView",
     [](wire::ByteReader& r) { (void)discovery::BrokerAdvertisementView::peek(r); }},
    {"DiscoveryRequestView",
     [](wire::ByteReader& r) { (void)discovery::DiscoveryRequestView::peek(r); }},
    {"DiscoveryResponseView",
     [](wire::ByteReader& r) { (void)discovery::DiscoveryResponseView::peek(r); }},
    {"RegistrySyncEntry",
     [](wire::ByteReader& r) { (void)discovery::RegistrySyncEntry::decode(r); }},
    {"ShardQuery", [](wire::ByteReader& r) { (void)discovery::ShardQuery::decode(r); }},
    {"ShardReply", [](wire::ByteReader& r) { (void)discovery::ShardReply::decode(r); }},
    {"RegistryDigest",
     [](wire::ByteReader& r) { (void)discovery::RegistryDigest::decode(r); }},
    {"Ping", [](wire::ByteReader& r) { (void)discovery::Ping::decode(r); }},
    {"Pong", [](wire::ByteReader& r) { (void)discovery::Pong::decode(r); }},
    {"BdnAnnouncement",
     [](wire::ByteReader& r) { (void)discovery::BdnAnnouncement::decode(r); }},
};

const NamedDecoder& decoder_named(std::string_view name) {
    for (const NamedDecoder& d : kDecoders) {
        if (name == d.name) return d;
    }
    throw std::logic_error("no decoder named " + std::string(name));
}

/// `frame`'s body: the bytes after the type octet the datagram codecs write.
Bytes body_of(const Bytes& frame) { return Bytes(frame.begin() + 1, frame.end()); }

TEST(WireFuzz, RandomBytesNeverCrashDecoders) {
    Rng rng(0xF0221);
    for (int iteration = 0; iteration < 500; ++iteration) {
        const std::size_t len = rng.bounded(512);
        Bytes junk(len);
        for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next());
        for (const auto& decoder : kDecoders) {
            wire::ByteReader reader(junk);
            try {
                decoder.decode(reader);
            } catch (const wire::WireError&) {
                // Expected for malformed input.
            }
        }
    }
}

TEST(WireFuzz, BitFlippedValidMessagesNeverCrash) {
    Rng rng(0xF0222);
    // A valid DiscoveryResponse, then every single-bit corruption.
    discovery::DiscoveryResponse response;
    response.request_id = Uuid::random(rng);
    response.broker_id = Uuid::random(rng);
    response.broker_name = "bouscat.cs.cf.ac.uk/broker4";
    response.hostname = "bouscat.cs.cf.ac.uk";
    response.endpoint = {4, 7000};
    response.protocols = {"tcp", "udp"};
    wire::ByteWriter writer;
    response.encode(writer);
    const Bytes valid = writer.take();

    for (std::size_t byte = 0; byte < valid.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            Bytes mutated = valid;
            mutated[byte] = static_cast<std::uint8_t>(mutated[byte] ^ (1u << bit));
            wire::ByteReader reader(mutated);
            try {
                (void)discovery::DiscoveryResponse::decode(reader);
            } catch (const wire::WireError&) {
            }
        }
    }
}

TEST(WireFuzz, EveryTruncationOfValidEncodingsThrowsOrParses) {
    Rng rng(0xF0223);
    // Valid encodings for each message type, with every decoder of it.
    std::vector<std::pair<const NamedDecoder*, Bytes>> cases;
    const auto add = [&cases](std::initializer_list<std::string_view> names,
                              const Bytes& valid) {
        for (std::string_view name : names) cases.emplace_back(&decoder_named(name), valid);
    };

    {
        broker::Event event;
        event.id = Uuid::random(rng);
        event.topic = "Services/BrokerDiscoveryNodes/BrokerAdvertisement";
        event.payload = Bytes(64, 0x42);
        event.headers = {{"k", "v"}};
        wire::ByteWriter w;
        event.encode(w);
        add({"Event"}, w.take());
    }
    discovery::BrokerAdvertisement ad;
    ad.broker_id = Uuid::random(rng);
    ad.broker_name = "b";
    ad.hostname = "h";
    ad.protocols = {"tcp"};
    {
        wire::ByteWriter w;
        ad.encode(w);
        add({"BrokerAdvertisement", "BrokerAdvertisementView"}, w.take());
    }
    {
        discovery::DiscoveryRequest req;
        req.request_id = Uuid::random(rng);
        req.reply_to = {1, 2};
        req.protocols = {"udp"};
        wire::ByteWriter w;
        req.encode(w);
        add({"DiscoveryRequest", "DiscoveryRequestView"}, w.take());
    }
    {
        discovery::DiscoveryResponse resp;
        resp.request_id = Uuid::random(rng);
        resp.broker_id = Uuid::random(rng);
        resp.broker_name = "b";
        resp.protocols = {"udp"};
        wire::ByteWriter w;
        resp.encode(w);
        add({"DiscoveryResponse", "DiscoveryResponseView"}, w.take());
    }
    {
        services::Fragment f;
        f.payload_id = Uuid::random(rng);
        f.count = 2;
        f.total_size = 10;
        f.chunk = Bytes(5, 1);
        wire::ByteWriter w;
        f.encode(w);
        add({"Fragment"}, w.take());
    }
    {
        const discovery::RegistrySyncEntry entry{ad, 5 * kSecond, 7, 9};
        wire::ByteWriter w;
        entry.encode(w);
        add({"RegistrySyncEntry"}, w.take());
    }
    {
        const discovery::ShardQuery query{Uuid::random(rng), {3, 4}, 8};
        wire::ByteWriter w;
        query.encode(w);
        add({"ShardQuery"}, w.take());
    }
    {
        discovery::ShardReply reply;
        reply.query_id = Uuid::random(rng);
        reply.entries = {{Uuid::random(rng), {5, 6}, 1200}, {Uuid::random(rng), {7, 8}, -1}};
        wire::ByteWriter w;
        reply.encode(w);
        add({"ShardReply"}, w.take());
    }
    {
        const discovery::RegistryDigest digest{11, 12, 13};
        wire::ByteWriter w;
        digest.encode(w);
        add({"RegistryDigest"}, w.take());
    }
    add({"Ping"}, body_of(discovery::Ping{42}.frame({})));
    add({"Pong"}, body_of(discovery::Pong{42, 43}.frame({})));
    add({"BdnAnnouncement"}, body_of(discovery::BdnAnnouncement{{9, 10}}.frame({})));

    for (const auto& [decoder, valid] : cases) {
        // The full encoding must parse.
        {
            wire::ByteReader reader(valid);
            EXPECT_NO_THROW(decoder->decode(reader)) << decoder->name;
        }
        // Every strict prefix must throw (no silent partial parses).
        for (std::size_t len = 0; len < valid.size(); ++len) {
            Bytes prefix(valid.begin(), valid.begin() + static_cast<std::ptrdiff_t>(len));
            wire::ByteReader reader(prefix);
            EXPECT_THROW(decoder->decode(reader), wire::WireError)
                << decoder->name << " len=" << len;
        }
    }
}

TEST(WireFuzz, LengthPrefixBombsRejectedWithoutAllocation) {
    // Craft messages whose length prefixes announce gigabytes.
    Rng rng(0xF0224);
    for (int iteration = 0; iteration < 50; ++iteration) {
        wire::ByteWriter w;
        w.uuid(Uuid::random(rng));      // plausible uuid field
        w.u32(0x7FFFFFFF);              // huge string length
        w.raw(reinterpret_cast<const std::uint8_t*>("x"), 1);
        const Bytes bomb = w.take();
        for (const auto& decoder : kDecoders) {
            wire::ByteReader reader(bomb);
            try {
                decoder.decode(reader);
            } catch (const wire::WireError&) {
            }
        }
    }
}

TEST(WireFuzz, OversizedLengthPrefixThrowsTypedErrorBeforeAllocation) {
    // A length prefix beyond the cap must raise FrameTooLargeError (a
    // WireError subtype carrying the offending length) without touching
    // the (absent) payload bytes.
    wire::ByteWriter w;
    w.u32(wire::kMaxFieldLength + 1);
    const Bytes bomb = w.take();
    wire::ByteReader reader(bomb);
    try {
        (void)reader.str();
        FAIL() << "oversized prefix must throw";
    } catch (const wire::FrameTooLargeError& e) {
        EXPECT_EQ(e.length(), wire::kMaxFieldLength + 1);
        EXPECT_EQ(e.limit(), wire::kMaxFieldLength);
    }
    // blob() enforces the same cap.
    wire::ByteReader blob_reader(bomb);
    EXPECT_THROW((void)blob_reader.blob(), wire::FrameTooLargeError);
}

TEST(WireFuzz, PerReaderFrameCapTightensTheLimit) {
    // A transport that knows its MTU can reject far smaller bombs. The
    // prefix here is under the global cap but over the reader's.
    wire::ByteWriter w;
    w.u32(4096);
    w.raw(reinterpret_cast<const std::uint8_t*>("x"), 1);
    const Bytes frame = w.take();

    wire::ByteReader strict(frame);
    strict.set_max_field_length(1024);
    EXPECT_EQ(strict.max_field_length(), 1024u);
    EXPECT_THROW((void)strict.str(), wire::FrameTooLargeError);

    // The default reader only rejects it as truncated (length is honest
    // about exceeding the buffer), not as oversized.
    wire::ByteReader lax(frame);
    try {
        (void)lax.str();
        FAIL() << "truncated payload must throw";
    } catch (const wire::FrameTooLargeError&) {
        FAIL() << "under-cap length must not be typed as oversized";
    } catch (const wire::WireError&) {
        // truncated message — expected
    }
}

TEST(WireFuzz, PerReaderCapCannotExceedGlobalCap) {
    wire::ByteWriter w;
    w.u32(wire::kMaxFieldLength + 1);
    const Bytes bomb = w.take();
    wire::ByteReader reader(bomb);
    reader.set_max_field_length(0xFFFFFFFFu);  // clamped to the global cap
    EXPECT_EQ(reader.max_field_length(), wire::kMaxFieldLength);
    EXPECT_THROW((void)reader.str(), wire::FrameTooLargeError);
}

TEST(WireFuzz, FrameTooLargeIsCatchableAsWireError) {
    // Transports catch WireError and count a dropped packet; the typed
    // subclass must keep flowing through those handlers.
    wire::ByteWriter w;
    w.u32(wire::kMaxFieldLength + 7);
    const Bytes bomb = w.take();
    wire::ByteReader reader(bomb);
    EXPECT_THROW((void)reader.str(), wire::WireError);
}

}  // namespace
}  // namespace narada
