#include "discovery/messages.hpp"

#include "wire/msg_types.hpp"

namespace narada::discovery {
namespace {

constexpr std::uint32_t kMaxListLength = 64;
constexpr std::size_t kEndpointWireSize = 4 + 2;  // host u32 + port u16

void encode_string_list(wire::ByteWriter& writer, const std::vector<std::string>& list) {
    writer.u32(static_cast<std::uint32_t>(list.size()));
    for (const std::string& item : list) writer.str(item);
}

std::vector<std::string> decode_string_list(wire::ByteReader& reader) {
    const std::uint32_t count = reader.u32();
    if (count > kMaxListLength) throw wire::WireError("string list too long");
    std::vector<std::string> out;
    out.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) out.push_back(reader.str());
    return out;
}

/// Validate and step over a string list without materializing it (the
/// borrowed-view decoders capture it inside their raw span instead).
void skip_string_list(wire::ByteReader& reader) {
    const std::uint32_t count = reader.u32();
    if (count > kMaxListLength) throw wire::WireError("string list too long");
    for (std::uint32_t i = 0; i < count; ++i) (void)reader.str_view();
}

std::size_t string_list_size(const std::vector<std::string>& list) {
    std::size_t n = 4;
    for (const std::string& item : list) n += 4 + item.size();
    return n;
}

void encode_endpoint(wire::ByteWriter& writer, const Endpoint& ep) {
    writer.u32(ep.host);
    writer.u16(ep.port);
}

Endpoint decode_endpoint(wire::ByteReader& reader) {
    Endpoint ep;
    ep.host = reader.u32();
    ep.port = reader.u16();
    return ep;
}

/// Overwrite `width` bytes of `buf` at `at` with `v`, big-endian.
void put_be(Bytes& buf, std::size_t at, std::uint64_t v, std::size_t width) {
    for (std::size_t i = 0; i < width; ++i) {
        buf[at + i] = static_cast<std::uint8_t>(v >> (8 * (width - 1 - i)));
    }
}

}  // namespace

void BrokerAdvertisement::encode(wire::ByteWriter& writer) const {
    writer.uuid(broker_id);
    writer.str(broker_name);
    writer.str(hostname);
    encode_endpoint(writer, endpoint);
    encode_string_list(writer, protocols);
    writer.str(realm);
    writer.str(geo_location);
    writer.str(institution);
}

BrokerAdvertisement BrokerAdvertisement::decode(wire::ByteReader& reader) {
    BrokerAdvertisement ad;
    ad.broker_id = reader.uuid();
    ad.broker_name = reader.str();
    ad.hostname = reader.str();
    ad.endpoint = decode_endpoint(reader);
    ad.protocols = decode_string_list(reader);
    ad.realm = reader.str();
    ad.geo_location = reader.str();
    ad.institution = reader.str();
    return ad;
}

std::size_t BrokerAdvertisement::measured_size() const {
    return 16 + (4 + broker_name.size()) + (4 + hostname.size()) + kEndpointWireSize +
           string_list_size(protocols) + (4 + realm.size()) + (4 + geo_location.size()) +
           (4 + institution.size());
}

BrokerAdvertisementView BrokerAdvertisementView::peek(wire::ByteReader& reader) {
    const std::size_t start = reader.position();
    BrokerAdvertisementView v;
    v.broker_id = reader.uuid();
    v.broker_name = reader.str_view();
    v.hostname = reader.str_view();
    v.endpoint = decode_endpoint(reader);
    skip_string_list(reader);
    v.realm = reader.str_view();
    v.geo_location = reader.str_view();
    v.institution = reader.str_view();
    v.raw = reader.span_from(start);
    return v;
}

BrokerAdvertisement BrokerAdvertisementView::materialize() const {
    wire::ByteReader reader(raw);
    return BrokerAdvertisement::decode(reader);
}

void DiscoveryRequest::encode(wire::ByteWriter& writer) const {
    writer.uuid(request_id);
    writer.str(requester_hostname);
    encode_endpoint(writer, reply_to);
    encode_string_list(writer, protocols);
    writer.str(credential);
    writer.str(realm);
    trace.encode(writer);
}

DiscoveryRequest DiscoveryRequest::decode(wire::ByteReader& reader) {
    DiscoveryRequest req;
    req.request_id = reader.uuid();
    req.requester_hostname = reader.str();
    req.reply_to = decode_endpoint(reader);
    req.protocols = decode_string_list(reader);
    req.credential = reader.str();
    req.realm = reader.str();
    req.trace = obs::TraceContext::decode(reader);
    return req;
}

std::size_t DiscoveryRequest::measured_size() const {
    return 16 + (4 + requester_hostname.size()) + kEndpointWireSize +
           string_list_size(protocols) + (4 + credential.size()) + (4 + realm.size()) +
           obs::TraceContext::kWireSize;
}

DiscoveryRequestView DiscoveryRequestView::peek(wire::ByteReader& reader) {
    const std::size_t start = reader.position();
    DiscoveryRequestView v;
    v.request_id = reader.uuid();
    v.requester_hostname = reader.str_view();
    v.reply_to = decode_endpoint(reader);
    skip_string_list(reader);
    v.credential = reader.str_view();
    v.realm = reader.str_view();
    v.trace = obs::TraceContext::decode(reader);
    v.raw = reader.span_from(start);
    return v;
}

DiscoveryRequest DiscoveryRequestView::materialize() const {
    wire::ByteReader reader(raw);
    return DiscoveryRequest::decode(reader);
}

void copy_with_trace_parent(wire::ByteWriter& writer, std::span<const std::uint8_t> raw,
                            std::uint64_t parent_span) {
    // The trace context closes the request and its parent span closes the
    // trace context (DiscoveryRequest::encode, TraceContext::encode).
    constexpr std::size_t kParentSize = 8;
    if (raw.size() < obs::TraceContext::kWireSize) {
        throw wire::WireError("request region shorter than its trace context");
    }
    writer.raw(raw.data(), raw.size() - kParentSize);
    writer.u64(parent_span);
}

void DiscoveryResponse::encode(wire::ByteWriter& writer) const {
    writer.uuid(request_id);
    writer.i64(sent_utc);
    writer.uuid(broker_id);
    writer.str(broker_name);
    writer.str(hostname);
    encode_endpoint(writer, endpoint);
    encode_string_list(writer, protocols);
    writer.u32(metrics.connections);
    writer.u32(metrics.broker_links);
    writer.f64(metrics.cpu_load);
    writer.u64(metrics.total_memory);
    writer.u64(metrics.free_memory);
    writer.boolean(overloaded);
    trace.encode(writer);
}

DiscoveryResponse DiscoveryResponse::decode(wire::ByteReader& reader) {
    DiscoveryResponse resp;
    resp.request_id = reader.uuid();
    resp.sent_utc = reader.i64();
    resp.broker_id = reader.uuid();
    resp.broker_name = reader.str();
    resp.hostname = reader.str();
    resp.endpoint = decode_endpoint(reader);
    resp.protocols = decode_string_list(reader);
    resp.metrics.connections = reader.u32();
    resp.metrics.broker_links = reader.u32();
    resp.metrics.cpu_load = reader.f64();
    resp.metrics.total_memory = reader.u64();
    resp.metrics.free_memory = reader.u64();
    resp.overloaded = reader.boolean();
    resp.trace = obs::TraceContext::decode(reader);
    return resp;
}

std::size_t DiscoveryResponse::measured_size() const {
    return 16 + 8 + 16 + (4 + broker_name.size()) + (4 + hostname.size()) +
           kEndpointWireSize + string_list_size(protocols) + 4 + 4 + 8 + 8 + 8 + 1 +
           obs::TraceContext::kWireSize;
}

DiscoveryResponseView DiscoveryResponseView::peek(wire::ByteReader& reader) {
    const std::size_t start = reader.position();
    DiscoveryResponseView v;
    v.request_id = reader.uuid();
    v.sent_utc = reader.i64();
    v.broker_id = reader.uuid();
    v.broker_name = reader.str_view();
    v.hostname = reader.str_view();
    v.endpoint = decode_endpoint(reader);
    skip_string_list(reader);
    v.metrics.connections = reader.u32();
    v.metrics.broker_links = reader.u32();
    v.metrics.cpu_load = reader.f64();
    v.metrics.total_memory = reader.u64();
    v.metrics.free_memory = reader.u64();
    v.overloaded = reader.boolean();
    v.trace = obs::TraceContext::decode(reader);
    v.raw = reader.span_from(start);
    return v;
}

DiscoveryResponse DiscoveryResponseView::materialize() const {
    wire::ByteReader reader(raw);
    return DiscoveryResponse::decode(reader);
}

void RegistrySyncEntry::encode(wire::ByteWriter& writer) const {
    ad.encode(writer);
    writer.i64(lease_remaining);
    writer.u64(origin);
    writer.u64(version);
}

RegistrySyncEntry RegistrySyncEntry::decode(wire::ByteReader& reader) {
    RegistrySyncEntry e;
    e.ad = BrokerAdvertisement::decode(reader);
    e.lease_remaining = reader.i64();
    e.origin = reader.u64();
    e.version = reader.u64();
    return e;
}

std::size_t RegistrySyncEntry::measured_size() const {
    return ad.measured_size() + 8 + 8 + 8;
}

void ShardQuery::encode(wire::ByteWriter& writer) const {
    writer.uuid(query_id);
    encode_endpoint(writer, reply_to);
    writer.u32(limit);
}

ShardQuery ShardQuery::decode(wire::ByteReader& reader) {
    ShardQuery q;
    q.query_id = reader.uuid();
    q.reply_to = decode_endpoint(reader);
    q.limit = reader.u32();
    return q;
}

std::size_t ShardQuery::measured_size() const { return 16 + kEndpointWireSize + 4; }

void ShardReply::encode(wire::ByteWriter& writer) const {
    writer.uuid(query_id);
    writer.u32(static_cast<std::uint32_t>(entries.size()));
    for (const Entry& e : entries) {
        writer.uuid(e.broker_id);
        encode_endpoint(writer, e.endpoint);
        writer.i64(e.rtt);
    }
}

ShardReply ShardReply::decode(wire::ByteReader& reader) {
    ShardReply r;
    r.query_id = reader.uuid();
    const std::uint32_t count = reader.u32();
    if (count > kMaxListLength) throw wire::WireError("shard reply too long");
    r.entries.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        Entry e;
        e.broker_id = reader.uuid();
        e.endpoint = decode_endpoint(reader);
        e.rtt = reader.i64();
        r.entries.push_back(e);
    }
    return r;
}

std::size_t ShardReply::measured_size() const {
    return 16 + 4 + entries.size() * (16 + kEndpointWireSize + 8);
}

void RegistryDigest::encode(wire::ByteWriter& writer) const {
    writer.u64(ring_hash);
    writer.u64(digest);
    writer.u32(count);
}

RegistryDigest RegistryDigest::decode(wire::ByteReader& reader) {
    RegistryDigest d;
    d.ring_hash = reader.u64();
    d.digest = reader.u64();
    d.count = reader.u32();
    return d;
}

Bytes Ping::frame(Bytes buffer) const {
    wire::ByteWriter writer(std::move(buffer));
    writer.reserve(1 + 8);
    writer.u8(wire::kMsgPing);
    writer.i64(sent);
    return writer.take();
}

Ping Ping::decode(wire::ByteReader& reader) { return Ping{reader.i64()}; }

Bytes Pong::frame(Bytes buffer) const {
    wire::ByteWriter writer(std::move(buffer));
    writer.reserve(1 + 8 + 8);
    writer.u8(wire::kMsgPong);
    writer.i64(echoed);
    writer.i64(responder_utc);
    return writer.take();
}

Pong Pong::decode(wire::ByteReader& reader) {
    Pong pong;
    pong.echoed = reader.i64();
    pong.responder_utc = reader.i64();
    return pong;
}

Bytes BdnAnnouncement::frame(Bytes buffer) const {
    wire::ByteWriter writer(std::move(buffer));
    writer.reserve(1 + kEndpointWireSize);
    writer.u8(wire::kMsgBdnAdvertisement);
    encode_endpoint(writer, bdn);
    return writer.take();
}

BdnAnnouncement BdnAnnouncement::decode(wire::ByteReader& reader) {
    return BdnAnnouncement{decode_endpoint(reader)};
}

RequestTemplate::RequestTemplate(const DiscoveryRequest& request)
    // Type octet, request id, then the length-prefixed hostname: the reply
    // endpoint follows it (DiscoveryRequest::encode).
    : reply_to_offset_(1 + 16 + 4 + request.requester_hostname.size()) {
    wire::ByteWriter writer(1 + request.measured_size());
    writer.u8(wire::kMsgDiscoveryRequest);
    request.encode(writer);
    framed_ = writer.take();
}

Bytes RequestTemplate::stamp(Bytes buffer, const Uuid& id, const Endpoint& reply_to) const {
    buffer.assign(framed_.begin(), framed_.end());
    put_be(buffer, 1, id.hi(), 8);
    put_be(buffer, 1 + 8, id.lo(), 8);
    put_be(buffer, reply_to_offset_, reply_to.host, 4);
    put_be(buffer, reply_to_offset_ + 4, reply_to.port, 2);
    return buffer;
}

}  // namespace narada::discovery
