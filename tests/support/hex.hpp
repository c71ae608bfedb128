// Test support: hex encoding/decoding for known-answer vectors (digests,
// cipher blocks, RSA keys and signatures).
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "common/types.hpp"

namespace narada {

/// Lower-case hex encoding of a byte buffer.
std::string hex_encode(const Bytes& data);
std::string hex_encode(const std::uint8_t* data, std::size_t len);

/// Decode a hex string (even length, case-insensitive). nullopt on bad input.
std::optional<Bytes> hex_decode(std::string_view text);

}  // namespace narada
