// Known-answer vectors for the RSA kernel.
//
// Captured from the square-and-multiply kernel that preceded the Montgomery
// ladder and the CRT private operation: for two seeds and two key sizes,
// rsa_generate's n and d, a PKCS#1 v1.5 signature over kMessage and a
// ciphertext of kPlaintext (padding drawn from Rng(seed + 1)). Keys,
// signatures and decryptions must stay bit-identical, so every certificate
// and handshake derived from a fixed seed does too.
#include <gtest/gtest.h>

#include <string>

#include "crypto/rsa.hpp"
#include "support/hex.hpp"

namespace narada::crypto {
namespace {

struct KnownAnswer {
    std::uint64_t seed;
    std::size_t bits;
    const char* n;
    const char* d;
    const char* signature;
    const char* ciphertext;
};

const std::string kMessage = "narada known-answer vector";

Bytes plaintext() {
    Bytes out;
    for (int i = 0; i < 16; ++i) out.push_back(static_cast<std::uint8_t>(0xA0 + i));
    return out;
}

const KnownAnswer kSeed2005Bits512{
    2005, 512,
    // n
    "514e9731137bc00952349384078ff65a546626e49cd2e2d52615e5b643d57ba0"
    "7c7db057e2156feb7f91a5da7b85922c1e87321940b267a39f4f7ded89449679",
    // d
    "19ce17ae3bc0caf22a65056ca1f9cef65c530f84ff40ef3d37193c0edcf8a483"
    "af6ae03cca9db4c63490f55287a38b585f0755c18ebac8cf07328bf992907101",
    // signature
    "22f62b32feeb9df06583815b9dccb858bd438992ca4a757371b1e0d01a8c21bc"
    "b53205d9a9c104e77820e798f761f06700b0424b79bb9f3138e5fcf2e5ed43b5",
    // ciphertext
    "1cca9b54e5837dc0d1356a17e60a57e70d4cb97460da7b28ddc6b5bae6956dfb"
    "f3614f5c569aadefd24e7e1634b2ad56a22b542bafe8a795fc5c7e08ca8f3204"};

const KnownAnswer kSeed2005Bits1024{
    2005, 1024,
    // n
    "74b530e74f920c800a092f9d870569add181c2829c765df3f71ce9add51d9fb7"
    "51dfa789aa78b11268676a8e67e1f255dce8849aee03e4da47dc9acfbadb58c7"
    "f35766f303668235a5f6631ce1869cd1b5f63a1bd55910aea394b499bfee6cd9"
    "1410066e1a8c465fe0e6cbf8f9e09e2e168ffcf25da8f2de721dae1d18ce9663",
    // d
    "4e42ae6f7e3936aea98c2d64da04f42fbddce0bd4b0448ce6f37f12f4348e130"
    "41f3d35a0a79726c209cb0a49bdeb4ed84fc5ae7b591e0e5cae890db99b6bb1a"
    "375e821d23987a7c0908e9637ff759b58eb111f600f8cf4db19cc676cbc4b897"
    "a8c50c1a61563a8c2a5ccd626993a2c4730b8f80fc9632090689a2c196553409",
    // signature
    "1c2aef60e778bbe6de944012412081ee83da156963fd7126ebe4a85c71027c8e"
    "5b19cb2eb7eb4dd74027252d18667782784310ac93af80c53accb1984f87465c"
    "f0eb772d0badec106daf969466e88dfec1f701eddfb1165ad62cc0090fd4535b"
    "292c1c12484b1a692e2ed9305639ea35fa843d8784172b0aaf10b993e4765d98",
    // ciphertext
    "300c6b8c837b11c22a3e43808cc63cc391b7c01429b0fb87e8d8d55bc50d982a"
    "4e3584a411d0fb4b85f4ab89764b202a633f5f1c45cab8a77f74bc8a403dc085"
    "490a27adea5eeb452d4bdc8f6bc96783fda3dac1b249eebeaf78681ad6d52f47"
    "e98bb1caf69326bf09f0b6bd7bceb95b6b0c512e33c5671eb0d733256d4228c9"};

const KnownAnswer kSeed4242Bits512{
    4242, 512,
    // n
    "bfb1f8e687b03532115c75e0620f97161bbdcbe2b48c135a478f9c6092ae4e5e"
    "7984a79c56e0fecd37ec813e1ddbad6002d350d9eaa9e70498de2397895d8857",
    // d
    "a4901f51a02887f23c6f388e71005b3ed27fe3f8f1efd2694d479f0254c9a861"
    "fbbab83eb5175bfad1a8c82ba209dd86df0a0f74accb20ba68d02dbf628bfb49",
    // signature
    "507fdce0c127fe3ec863202d1b2504c063734dd778867cc0a00963f2a1b2392e"
    "78d7e54b90d07e90fe2fb85d9dc812db60c1fb0da54e6d6e7e0058b066d32c0f",
    // ciphertext
    "3ef9f168c843a0f3b487ae710c7f59e937e2655b3e3818455ed978651e861088"
    "ecf0bbc433a0c4250f4f97f1af721227078bd4a67ab0b8896a0082c3d558961e"};

const KnownAnswer kSeed4242Bits1024{
    4242, 1024,
    // n
    "59549c2534c8b43ea6e4e7f6fda67469ad101bee98d674e924197c4fcf555de2"
    "982d5133ba36d3f38c6d3169d8b1823e6df33415587f9b8ef67eaedd046bdb32"
    "ad178f34addd69866357e3c8cc1197bf79421ce51ac864a0a074ede4bac2c411"
    "ffa3d88b2a849cd4eba437da5f439d540166fce921a7cdc353dcb1fef1283237",
    // d
    "4e1f9beb420d60ed06025d0779ef7011d763a639f57a608660a6d53beb244a56"
    "582611c4fe4ee2f035586d8597182ec2b05fa8a61e5e8349f532f7749d604233"
    "366d38076d6169885a068279055280a86d11771472c9abb8e6f460669f41b8d4"
    "c765e40354dfa72e6db2f99b220fc4e26ae55178d64d7d230f254fccde699211",
    // signature
    "049ed6f7338fa94104b35351a37301b5504cbcee7b76927bc984907004de2b01"
    "d3f975d5f230dc10cbf7696131f0c512fc7dc301cd641150ecd57522fc89241d"
    "d07741bcf2f0f1f39e3575e1770c6428b39b094ae8e48f349a6af1df813109e8"
    "ad92b0856331dd57ce149010b89a6093656299c23bdad9d2f690546d2655b443",
    // ciphertext
    "2c4ab5724ff61e7499898a73e2f4bd857c4e97fcfc90151630803e4fd6d1c61f"
    "1b51a24fa7a18724394582f088d5273a91374a034ce321d43d6a4508e5147357"
    "2164ab8406afc3fbd52209cee9a8a92d5cc5da5bfeeaedc1e44c85854bd061f3"
    "342c61f97b953adb694a0ca4cc274a41b244c69229b95a225c250342ec4ad07c"};

void check(const KnownAnswer& kat) {
    Rng rng(kat.seed);
    const RsaKeyPair keys = rsa_generate(rng, kat.bits);
    EXPECT_EQ(keys.public_key.n.to_hex(), kat.n);
    EXPECT_EQ(keys.private_key.d.to_hex(), kat.d);

    const RsaPrivateKey& key = keys.private_key;
    EXPECT_EQ(key.p * key.q, key.n);
    EXPECT_EQ(key.dp, key.d % (key.p - BigInt(1)));
    EXPECT_EQ(key.dq, key.d % (key.q - BigInt(1)));
    EXPECT_EQ((key.qinv * key.q) % key.p, BigInt(1));

    const Bytes message(kMessage.begin(), kMessage.end());
    EXPECT_EQ(hex_encode(rsa_sign(key, message)), kat.signature);

    Rng padding_rng(kat.seed + 1);
    const auto ciphertext = rsa_encrypt(keys.public_key, plaintext(), padding_rng);
    ASSERT_TRUE(ciphertext.has_value());
    EXPECT_EQ(hex_encode(*ciphertext), kat.ciphertext);
    const auto decrypted = rsa_decrypt(key, *hex_decode(kat.ciphertext));
    ASSERT_TRUE(decrypted.has_value());
    EXPECT_EQ(*decrypted, plaintext());
}

TEST(RsaKnownAnswer, Seed2005Bits512) { check(kSeed2005Bits512); }

TEST(RsaKnownAnswer, Seed2005Bits1024) { check(kSeed2005Bits1024); }

TEST(RsaKnownAnswer, Seed4242Bits512) { check(kSeed4242Bits512); }

TEST(RsaKnownAnswer, Seed4242Bits1024) { check(kSeed4242Bits1024); }


TEST(RsaKnownAnswer, SignRefusesAFaultyCrtHalf) {
    Rng rng(2005);
    RsaKeyPair keys = rsa_generate(rng, 512);
    keys.private_key.dp = keys.private_key.dp + BigInt(2);  // a fault in the p half
    const Bytes message(kMessage.begin(), kMessage.end());
    EXPECT_THROW(rsa_sign(keys.private_key, message), std::runtime_error);
}

}  // namespace
}  // namespace narada::crypto
