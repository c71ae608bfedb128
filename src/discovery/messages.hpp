// Discovery protocol messages (paper §2.2, §2.4, §3, §5.1, §6).
//
// Three messages make up the discovery conversation:
//   * BrokerAdvertisement — a broker registering itself with BDNs;
//   * DiscoveryRequest    — a node asking for the nearest available broker;
//   * DiscoveryResponse   — a broker answering with its NTP timestamp,
//     process information and usage metrics.
// Each struct carries its own encode/decode against the wire codec; the
// message-type octet is written by the sender (see wire/msg_types.hpp).
// The fixed-size datagrams — Ping, Pong and the BDN's BdnAnnouncement —
// are framed here, type octet included: this file is their only writer,
// and every sender and reader in the plane goes through one codec each.
// RequestTemplate frames a request once and stamps a fresh id and reply
// endpoint into copies, so no caller needs the request's byte layout.
//
// Hot-path support: each of the three also has
//   * measured_size() — the exact encoded byte count, so senders can
//     reserve once (measure-then-encode, at most one allocation);
//   * a borrowed View (peek()) — string fields become string_views into
//     the receive buffer and the whole message region is captured as a raw
//     span. BDNs and brokers only inspect and pass on a request (dedup,
//     credential/realm policy, injection, flooding), so the view is their
//     one decode path: they forward its raw bytes, and a sampled request's
//     one edit, its trace parent, goes through copy_with_trace_parent().
//     A View is valid only while the receive buffer lives; materialize()
//     produces the owned struct when a component must retain the message
//     (see DESIGN.md borrowing rules).
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "broker/load_model.hpp"
#include "common/types.hpp"
#include "common/uuid.hpp"
#include "obs/trace.hpp"
#include "wire/codec.hpp"

namespace narada::discovery {

/// "the advertisement contains information regarding the hostname,
/// transport protocols supported and communication ports, NB logical
/// address and, if provided, geographical and institutional information"
/// (§2.2).
struct BrokerAdvertisement {
    Uuid broker_id;                       ///< NB logical address
    std::string broker_name;
    std::string hostname;
    Endpoint endpoint;                    ///< connect here
    std::vector<std::string> protocols;   ///< e.g. {"tcp", "udp"}
    std::string realm;                    ///< network realm of the broker
    std::string geo_location;             ///< optional
    std::string institution;              ///< optional

    void encode(wire::ByteWriter& writer) const;
    static BrokerAdvertisement decode(wire::ByteReader& reader);
    [[nodiscard]] std::size_t measured_size() const;

    friend bool operator==(const BrokerAdvertisement&, const BrokerAdvertisement&) = default;
};

/// Borrowed decode of a BrokerAdvertisement: string fields alias the
/// receive buffer. Lets a BDN apply its realm filter (§2.3) before paying
/// for an owned copy it may throw away.
struct BrokerAdvertisementView {
    Uuid broker_id;
    std::string_view broker_name;
    std::string_view hostname;
    Endpoint endpoint;
    std::string_view realm;
    std::string_view geo_location;
    std::string_view institution;
    /// The full encoded message region (no type octet); re-decodable.
    std::span<const std::uint8_t> raw;

    static BrokerAdvertisementView peek(wire::ByteReader& reader);
    [[nodiscard]] BrokerAdvertisement materialize() const;
};

/// "The broker discovery request includes information regarding the
/// requesting node process such as hostname, ports and transport protocols
/// ... and sometimes also includes credentials" (§3).
struct DiscoveryRequest {
    Uuid request_id;  ///< "a UUID which uniquely identifies the request"
    std::string requester_hostname;
    Endpoint reply_to;                   ///< UDP endpoint for responses
    std::vector<std::string> protocols;  ///< transports the requester speaks
    std::string credential;              ///< optional, for response policies
    std::string realm;                   ///< requester's network realm
    /// Observability piggyback: nil trace id = not sampled. Each hop
    /// (client -> BDN -> injection -> broker) rewrites `parent_span` to its
    /// own active span before forwarding, so the recorded spans link into
    /// one end-to-end tree.
    obs::TraceContext trace;

    void encode(wire::ByteWriter& writer) const;
    static DiscoveryRequest decode(wire::ByteReader& reader);
    [[nodiscard]] std::size_t measured_size() const;

    friend bool operator==(const DiscoveryRequest&, const DiscoveryRequest&) = default;
};

/// Borrowed decode of a DiscoveryRequest: everything a forwarding hop
/// (BDN or broker) inspects — request UUID for dedup, credential/realm for
/// policy, reply endpoint for acks, trace for the sampling branch —
/// without copying. The untouched protocol list stays inside `raw`.
struct DiscoveryRequestView {
    Uuid request_id;
    std::string_view requester_hostname;
    Endpoint reply_to;
    std::string_view credential;
    std::string_view realm;
    obs::TraceContext trace;
    /// The full encoded message region (no type octet); forward this
    /// verbatim instead of re-encoding when nothing was rewritten.
    std::span<const std::uint8_t> raw;

    static DiscoveryRequestView peek(wire::ByteReader& reader);
    [[nodiscard]] DiscoveryRequest materialize() const;
};

/// Append the encoded request region `raw` (a DiscoveryRequestView's raw
/// bytes) to `writer` with its trace parent set to `parent_span`: the bytes
/// materialize -> set trace.parent_span -> encode would give, copied rather
/// than decoded. Passing the request's own parent copies it verbatim.
void copy_with_trace_parent(wire::ByteWriter& writer, std::span<const std::uint8_t> raw,
                            std::uint64_t parent_span);

/// "(a) The current timestamp ... (b) The broker process information ...
/// (c) Usage metric information" (§5.1).
struct DiscoveryResponse {
    Uuid request_id;   ///< echoes the request UUID
    TimeUs sent_utc;   ///< NTP-based UTC when the response was issued

    // Broker process information.
    Uuid broker_id;
    std::string broker_name;
    std::string hostname;
    Endpoint endpoint;
    std::vector<std::string> protocols;

    // Usage metric information.
    broker::UsageMetrics metrics;

    /// The broker shed discovery work recently (load shedding engaged);
    /// requesters penalize overloaded brokers when shortlisting so new
    /// clients steer away from the hot spot while it drains.
    bool overloaded = false;

    /// Echo of the request's trace id; `parent_span` is the responding
    /// broker's span so the client's response events attach under it.
    obs::TraceContext trace;

    void encode(wire::ByteWriter& writer) const;
    static DiscoveryResponse decode(wire::ByteReader& reader);
    [[nodiscard]] std::size_t measured_size() const;

    friend bool operator==(const DiscoveryResponse&, const DiscoveryResponse&) = default;
};

/// Borrowed decode of a DiscoveryResponse: enough to filter (request UUID
/// match, duplicate broker id) before materializing a candidate the client
/// will actually keep. Late or duplicate responses cost no allocation.
struct DiscoveryResponseView {
    Uuid request_id;
    TimeUs sent_utc = 0;
    Uuid broker_id;
    std::string_view broker_name;
    std::string_view hostname;
    Endpoint endpoint;
    broker::UsageMetrics metrics;
    bool overloaded = false;
    obs::TraceContext trace;
    /// The full encoded message region (no type octet); re-decodable.
    std::span<const std::uint8_t> raw;

    static DiscoveryResponseView peek(wire::ByteReader& reader);
    [[nodiscard]] DiscoveryResponse materialize() const;
};

/// One advertisement inside a v2 registry push (kMsgBdnRegistrySync2).
/// Carries the sender's *remaining* lease — never an absolute deadline, so
/// clock offsets between BDNs cannot stretch a lease — plus the entry's
/// version stamp for convergent merges: (version, origin) totally orders
/// concurrent writes of the same broker id across replicas.
struct RegistrySyncEntry {
    BrokerAdvertisement ad;
    /// Microseconds of lease the sender still granted this ad at encode
    /// time; -1 = the sender does not track leases (ad_lease == 0), <= 0
    /// otherwise means expired and receivers must drop the entry.
    DurationUs lease_remaining = -1;
    /// Node id of the BDN that minted this version (splitmix of its endpoint).
    std::uint64_t origin = 0;
    /// Lamport stamp minted at the origin; higher (version, origin) wins.
    std::uint64_t version = 0;

    void encode(wire::ByteWriter& writer) const;
    static RegistrySyncEntry decode(wire::ByteReader& reader);
    [[nodiscard]] std::size_t measured_size() const;

    friend bool operator==(const RegistrySyncEntry&, const RegistrySyncEntry&) = default;
};

/// Scatter half of a federated discovery: the coordinating BDN asks a peer
/// shard for its best broker candidates for one request.
struct ShardQuery {
    Uuid query_id;      ///< echoes the discovery request UUID
    Endpoint reply_to;  ///< the coordinator BDN's endpoint
    std::uint32_t limit = 8;  ///< max candidates wanted back

    void encode(wire::ByteWriter& writer) const;
    static ShardQuery decode(wire::ByteReader& reader);
    [[nodiscard]] std::size_t measured_size() const;

    friend bool operator==(const ShardQuery&, const ShardQuery&) = default;
};

/// Gather half: a shard's candidate slice, ordered best (lowest RTT) first.
struct ShardReply {
    struct Entry {
        Uuid broker_id;
        Endpoint endpoint;
        DurationUs rtt = -1;  ///< shard's measured ping RTT; -1 unmeasured

        friend bool operator==(const Entry&, const Entry&) = default;
    };

    Uuid query_id;
    std::vector<Entry> entries;

    void encode(wire::ByteWriter& writer) const;
    static ShardReply decode(wire::ByteReader& reader);
    [[nodiscard]] std::size_t measured_size() const;

    friend bool operator==(const ShardReply&, const ShardReply&) = default;
};

/// Anti-entropy probe: a digest over the registry entries whose ownership
/// the sender and receiver share under the sender's ring. `ring_hash`
/// fingerprints the sender's member list so digests from a different ring
/// epoch are never compared (they would always mismatch and cause push
/// storms during a rebalance).
struct RegistryDigest {
    std::uint64_t ring_hash = 0;
    std::uint64_t digest = 0;     ///< xor-fold over (id, origin, version)
    std::uint32_t count = 0;      ///< entries folded into `digest`

    void encode(wire::ByteWriter& writer) const;
    static RegistryDigest decode(wire::ByteReader& reader);
    [[nodiscard]] static constexpr std::size_t wire_size() { return 8 + 8 + 4; }

    friend bool operator==(const RegistryDigest&, const RegistryDigest&) = default;
};

// --- fixed-size datagrams ------------------------------------------------------
// frame() writes the type octet and body into `buffer`, keeping its
// capacity (a Transport::acquire_buffer buffer, or an empty one for an
// exact-size allocation), and returns the datagram; decode() reads the
// body after the type octet, in place.

/// UDP ping (§6; §10: it "may be repeated multiple times"). One codec for
/// the BDN's distance table, the client's target-set pings,
/// ManagedConnection heartbeats and broker peer liveness. `sent` is the
/// pinger's local clock and is opaque to the responder.
struct Ping {
    TimeUs sent = 0;

    [[nodiscard]] Bytes frame(Bytes buffer) const;
    static Ping decode(wire::ByteReader& reader);
};

/// The answer to a Ping: its `sent`, echoed verbatim, and the responder's
/// UTC estimate. Every pong reader (BDN, client, ManagedConnection, broker)
/// decodes through here, so a truncated pong is rejected everywhere alike.
struct Pong {
    TimeUs echoed = 0;
    TimeUs responder_utc = 0;

    [[nodiscard]] Bytes frame(Bytes buffer) const;
    static Pong decode(wire::ByteReader& reader);
};

/// A (private) BDN announcing itself to a broker, which "may have the
/// option to re-advertise" to `bdn` (§2.4).
struct BdnAnnouncement {
    Endpoint bdn;

    [[nodiscard]] Bytes frame(Bytes buffer) const;
    static BdnAnnouncement decode(wire::ByteReader& reader);
};

/// A DiscoveryRequest framed once (type octet first) whose copies are
/// stamped with a fresh request id and reply endpoint — the swarm's send
/// path, where every other field is the same for the whole swarm. stamp()
/// yields the bytes that framing the request with those two fields set
/// would.
class RequestTemplate {
public:
    explicit RequestTemplate(const DiscoveryRequest& request);

    /// The framed request copied into `buffer` (capacity reused) with `id`
    /// and `reply_to` in place of the template's own.
    [[nodiscard]] Bytes stamp(Bytes buffer, const Uuid& id, const Endpoint& reply_to) const;
    [[nodiscard]] const Bytes& framed() const { return framed_; }

private:
    Bytes framed_;
    std::size_t reply_to_offset_;
};

}  // namespace narada::discovery
