// SHA-256 (FIPS 180-4) and an output stream buffer that hashes whatever
// is written through it, so a workload's export can be digested without
// keeping the bytes. Used for the benchmark's output checks.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <streambuf>
#include <string>

namespace perfbench {

class Sha256 {
 public:
  void update(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    bytes_ += n;
    while (n > 0) {
      const std::size_t take = std::min(n, block_.size() - fill_);
      std::memcpy(block_.data() + fill_, p, take);
      fill_ += take;
      p += take;
      n -= take;
      if (fill_ == block_.size()) {
        compress(block_.data());
        fill_ = 0;
      }
    }
  }

  /// Lower-case hex digest of everything hashed so far (finalizes a copy,
  /// so hashing may continue).
  [[nodiscard]] std::string hex() const {
    Sha256 fin = *this;
    const std::uint64_t bits = bytes_ * 8;
    const unsigned char pad = 0x80;
    fin.update(&pad, 1);
    const unsigned char zero = 0;
    while (fin.fill_ != 56) fin.update(&zero, 1);
    unsigned char len[8];
    for (int i = 0; i < 8; ++i)
      len[i] = static_cast<unsigned char>(bits >> (56 - 8 * i));
    fin.update(len, 8);
    std::string out;
    char buf[9];
    for (const std::uint32_t word : fin.h_) {
      std::snprintf(buf, sizeof(buf), "%08x", word);
      out += buf;
    }
    return out;
  }

  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }

 private:
  static std::uint32_t rotr(std::uint32_t x, int n) {
    return (x >> n) | (x << (32 - n));
  }

  void compress(const unsigned char* b) {
    static constexpr std::uint32_t k[64] = {
        0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b,
        0x59f111f1, 0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01,
        0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7,
        0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc,
        0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152,
        0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
        0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
        0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
        0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819,
        0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116, 0x1e376c08,
        0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f,
        0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
        0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i)
      w[i] = (std::uint32_t{b[4 * i]} << 24) |
             (std::uint32_t{b[4 * i + 1]} << 16) |
             (std::uint32_t{b[4 * i + 2]} << 8) | std::uint32_t{b[4 * i + 3]};
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t a = h_[0], bb = h_[1], c = h_[2], d = h_[3], e = h_[4],
                  f = h_[5], g = h_[6], h = h_[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t t1 = h + (rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25)) +
                               ((e & f) ^ (~e & g)) + k[i] + w[i];
      const std::uint32_t t2 = (rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22)) +
                               ((a & bb) ^ (a & c) ^ (bb & c));
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = bb;
      bb = a;
      a = t1 + t2;
    }
    h_[0] += a;
    h_[1] += bb;
    h_[2] += c;
    h_[3] += d;
    h_[4] += e;
    h_[5] += f;
    h_[6] += g;
    h_[7] += h;
  }

  std::array<std::uint32_t, 8> h_{0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                  0xa54ff53a, 0x510e527f, 0x9b05688c,
                                  0x1f83d9ab, 0x5be0cd19};
  std::array<unsigned char, 64> block_{};
  std::size_t fill_ = 0;
  std::uint64_t bytes_ = 0;
};

/// std::streambuf sink that feeds every byte into a Sha256 and counts
/// newlines; nothing is kept beyond one buffered block.
class HashingBuf : public std::streambuf {
 public:
  HashingBuf() { setp(buf_.data(), buf_.data() + buf_.size()); }

  /// Digest of everything written so far.
  [[nodiscard]] std::string hex() {
    drain();
    return sha_.hex();
  }
  [[nodiscard]] std::uint64_t bytes() {
    drain();
    return sha_.bytes();
  }
  [[nodiscard]] std::uint64_t lines() {
    drain();
    return lines_;
  }

 protected:
  int_type overflow(int_type ch) override {
    drain();
    if (ch != traits_type::eof()) {
      *pptr() = traits_type::to_char_type(ch);
      pbump(1);
    }
    return traits_type::not_eof(ch);
  }
  int sync() override {
    drain();
    return 0;
  }

 private:
  void drain() {
    const auto n = static_cast<std::size_t>(pptr() - pbase());
    sha_.update(pbase(), n);
    for (std::size_t i = 0; i < n; ++i) lines_ += pbase()[i] == '\n' ? 1 : 0;
    setp(buf_.data(), buf_.data() + buf_.size());
  }

  std::array<char, 1 << 16> buf_{};
  Sha256 sha_;
  std::uint64_t lines_ = 0;
};

}  // namespace perfbench
