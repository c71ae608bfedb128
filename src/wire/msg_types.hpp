// Wire message-type catalogue.
//
// Every narada datagram / reliable message starts with one of these type
// octets. Centralized so the broker, discovery and time modules can never
// collide.
#pragma once

#include <cstdint>

namespace narada::wire {

// --- pub/sub client <-> broker ---------------------------------------------
constexpr std::uint8_t kMsgClientHello = 0x01;    ///< client joins a broker
constexpr std::uint8_t kMsgClientWelcome = 0x02;  ///< broker accepts client
constexpr std::uint8_t kMsgSubscribe = 0x03;      ///< topic filter registration
constexpr std::uint8_t kMsgUnsubscribe = 0x04;
constexpr std::uint8_t kMsgPublish = 0x05;       ///< client-originated event
constexpr std::uint8_t kMsgEventDeliver = 0x06;  ///< broker -> subscriber
constexpr std::uint8_t kMsgClientBye = 0x07;     ///< client leaves

// --- broker <-> broker overlay ---------------------------------------------
constexpr std::uint8_t kMsgLinkHello = 0x10;   ///< broker link setup
constexpr std::uint8_t kMsgLinkAccept = 0x11;
constexpr std::uint8_t kMsgEventFlood = 0x12;  ///< event propagation
constexpr std::uint8_t kMsgInterest = 0x13;    ///< subscription-interest announcement

// --- discovery (the paper's protocol) ---------------------------------------
constexpr std::uint8_t kMsgBrokerAdvertisement = 0x20;  ///< broker -> BDN (§2.2)
constexpr std::uint8_t kMsgDiscoveryRequest = 0x21;     ///< node -> BDN / flood (§3)
constexpr std::uint8_t kMsgDiscoveryAck = 0x22;         ///< BDN timely ack (§3)
constexpr std::uint8_t kMsgDiscoveryResponse = 0x23;    ///< broker -> node, UDP (§5)
constexpr std::uint8_t kMsgPing = 0x24;                 ///< UDP ping (§6)
constexpr std::uint8_t kMsgPong = 0x25;
constexpr std::uint8_t kMsgBdnAdvertisement = 0x26;     ///< private BDN ad (§2.4)

// --- BDN federation ----------------------------------------------------------
// 0x27 stays unassigned: it was a registry push without leases or versions.
constexpr std::uint8_t kMsgBdnRegistrySync2 = 0x28;  ///< registry push: leases + versions (RUDP payload)
constexpr std::uint8_t kMsgShardQuery = 0x29;        ///< gather: ask a shard for candidates
constexpr std::uint8_t kMsgShardReply = 0x2A;        ///< gather: shard's candidate slice
constexpr std::uint8_t kMsgAdForward = 0x2B;         ///< ad relayed to its ring owners
constexpr std::uint8_t kMsgRegistryDigest = 0x2C;    ///< anti-entropy shared-range digest

// --- security (§9.1) ---------------------------------------------------------
constexpr std::uint8_t kMsgSecureEnvelope = 0x40;  ///< signed + encrypted wrapper

// --- reliable-UDP bulk lane --------------------------------------------------
constexpr std::uint8_t kMsgRudpData = 0x60;  ///< paced bulk segment (seq + fragment)
constexpr std::uint8_t kMsgRudpAck = 0x61;   ///< cumulative ack + selective-NAK ranges

// --- time service (§5) -------------------------------------------------------
constexpr std::uint8_t kMsgTimeRequest = 0x71;
constexpr std::uint8_t kMsgTimeResponse = 0x72;

}  // namespace narada::wire
