#include "support/hex.hpp"

#include <gtest/gtest.h>

namespace narada {
namespace {

TEST(Hex, EncodeEmpty) { EXPECT_EQ(hex_encode(Bytes{}), ""); }

TEST(Hex, EncodeKnown) {
    EXPECT_EQ(hex_encode(Bytes{0x00, 0xff, 0x10, 0xab}), "00ff10ab");
}

TEST(Hex, RoundTrip) {
    Bytes data;
    for (int i = 0; i < 256; ++i) data.push_back(static_cast<std::uint8_t>(i));
    const auto decoded = hex_decode(hex_encode(data));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, data);
}

TEST(Hex, DecodeCaseInsensitive) {
    const auto a = hex_decode("ABCDEF");
    const auto b = hex_decode("abcdef");
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(*a, *b);
}

TEST(Hex, DecodeRejectsOddLength) { EXPECT_FALSE(hex_decode("abc").has_value()); }

TEST(Hex, DecodeRejectsNonHex) {
    EXPECT_FALSE(hex_decode("zz").has_value());
    EXPECT_FALSE(hex_decode("0g").has_value());
}

}  // namespace
}  // namespace narada
