// Fixed-width integer helpers shared by the action language, the TEP
// datapath model, and the SLA logic generator. The PSCP tool flow deals in
// arbitrary bit widths (1..32), so everything here is width-parameterised.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "support/diag.hpp"

namespace pscp {

/// Maximum data width supported anywhere in the flow (the paper's widest
/// declared type is int:32).
inline constexpr int kMaxWidth = 32;

/// All-ones mask for an n-bit value, n in [0, 32].
[[nodiscard]] constexpr uint32_t maskBits(int width) {
  return width >= 32 ? 0xFFFFFFFFu
         : width <= 0 ? 0u
                      : ((1u << width) - 1u);
}

/// Truncate a value to `width` bits.
[[nodiscard]] constexpr uint32_t truncBits(uint32_t value, int width) {
  return value & maskBits(width);
}

/// Sign-extend the low `width` bits of `value` to a signed 32-bit integer.
[[nodiscard]] constexpr int32_t signExtend(uint32_t value, int width) {
  if (width <= 0 || width >= 32) return static_cast<int32_t>(value);
  const uint32_t sign = 1u << (width - 1);
  const uint32_t truncated = truncBits(value, width);
  return static_cast<int32_t>((truncated ^ sign) - sign);
}

/// Number of bits needed to represent `count` distinct values (>= 1).
[[nodiscard]] constexpr int bitsFor(uint32_t count) {
  int bits = 0;
  uint32_t v = (count == 0) ? 1 : count - 1;
  while (v != 0) {
    ++bits;
    v >>= 1;
  }
  return bits == 0 ? 1 : bits;
}

/// A packed bit vector over uint64_t words — the software image of wide
/// hardware registers (the Configuration Register, SLA select outputs,
/// state activity masks). Unlike std::vector<bool> it exposes its words,
/// so mask-compiled logic (the SLA's AND plane) evaluates whole words at a
/// time instead of bit-by-bit.
class BitVec {
 public:
  BitVec() = default;
  explicit BitVec(int bits)
      : bits_(bits), words_((static_cast<size_t>(bits) + 63) / 64, 0) {
    PSCP_ASSERT(bits >= 0);
  }

  [[nodiscard]] int size() const { return bits_; }
  [[nodiscard]] size_t wordCount() const { return words_.size(); }
  [[nodiscard]] uint64_t word(size_t w) const { return words_[w]; }

  /// Whole-word store (rebuilding a CR from journal words). Bits beyond
  /// size() are dropped so the all-zero tail invariant — which
  /// any()/operator== rely on — holds regardless of the incoming word.
  void setWord(size_t w, uint64_t value) {
    PSCP_ASSERT(w < words_.size());
    const int tail = bits_ - static_cast<int>(w) * 64;
    if (tail < 64) value &= (uint64_t{1} << tail) - 1;
    words_[w] = value;
  }

  [[nodiscard]] bool test(int i) const {
    PSCP_ASSERT(i >= 0 && i < bits_);
    return (words_[static_cast<size_t>(i) >> 6] >> (static_cast<size_t>(i) & 63)) & 1u;
  }
  void set(int i, bool value = true) {
    PSCP_ASSERT(i >= 0 && i < bits_);
    const uint64_t mask = uint64_t{1} << (static_cast<size_t>(i) & 63);
    if (value)
      words_[static_cast<size_t>(i) >> 6] |= mask;
    else
      words_[static_cast<size_t>(i) >> 6] &= ~mask;
  }
  void reset(int i) { set(i, false); }
  void clear() { std::fill(words_.begin(), words_.end(), 0); }
  /// Clear bits [0, bits).
  void resetBelow(int bits) {
    PSCP_ASSERT(bits >= 0 && bits <= bits_);
    const auto full = static_cast<size_t>(bits) / 64;
    for (size_t w = 0; w < full; ++w) words_[w] = 0;
    if (bits % 64 != 0) words_[full] &= ~uint64_t{0} << (bits % 64);
  }
  /// Become `bits` clear bits, reusing the word storage (allocation-free
  /// once it has held that many words).
  void assign(int bits) {
    PSCP_ASSERT(bits >= 0);
    bits_ = bits;
    words_.assign((static_cast<size_t>(bits) + 63) / 64, 0);
  }

  [[nodiscard]] bool any() const {
    for (uint64_t w : words_)
      if (w != 0) return true;
    return false;
  }
  [[nodiscard]] bool none() const { return !any(); }

  /// True when this and `other` share at least one set bit.
  [[nodiscard]] bool intersects(const BitVec& other) const {
    const size_t n = words_.size() < other.words_.size() ? words_.size()
                                                         : other.words_.size();
    for (size_t w = 0; w < n; ++w)
      if ((words_[w] & other.words_[w]) != 0) return true;
    return false;
  }

  /// this |= (a & b) — one fused pass, used for "mark exited ∩ active".
  void orWithAnd(const BitVec& a, const BitVec& b) {
    PSCP_ASSERT(a.words_.size() == words_.size() && b.words_.size() == words_.size());
    for (size_t w = 0; w < words_.size(); ++w) words_[w] |= a.words_[w] & b.words_[w];
  }

  /// Low `width` bits starting at absolute bit `base`, as an integer
  /// (width <= 64). Models a field read of a wide register.
  [[nodiscard]] uint64_t extract(int base, int width) const {
    PSCP_ASSERT(width >= 0 && width <= 64 && base >= 0 && base + width <= bits_);
    uint64_t out = 0;
    for (int i = 0; i < width; ++i)
      out |= static_cast<uint64_t>(test(base + i)) << i;
    return out;
  }

  /// Visit set bits in ascending order.
  template <typename Fn>
  void forEachSetBit(Fn&& fn) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      uint64_t bits = words_[w];
      while (bits != 0) {
        const int b = __builtin_ctzll(bits);
        fn(static_cast<int>(w * 64) + b);
        bits &= bits - 1;
      }
    }
  }

  [[nodiscard]] static BitVec fromBools(const std::vector<bool>& bools) {
    BitVec out(static_cast<int>(bools.size()));
    for (size_t i = 0; i < bools.size(); ++i)
      if (bools[i]) out.set(static_cast<int>(i));
    return out;
  }
  [[nodiscard]] std::vector<bool> toBools() const {
    std::vector<bool> out(static_cast<size_t>(bits_));
    for (int i = 0; i < bits_; ++i) out[static_cast<size_t>(i)] = test(i);
    return out;
  }

  friend bool operator==(const BitVec& a, const BitVec& b) {
    return a.bits_ == b.bits_ && a.words_ == b.words_;
  }

 private:
  int bits_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace pscp
