#pragma once
// Byte-level helpers shared by the VFS, the fault models and the mini-HDF5
// format code: little-endian scalar encode/decode, word loads/stores in an
// explicit byte order, bit manipulation on byte buffers, and hexdump
// rendering for diagnostics.
//
// load_word/store_word are the one place that knows the host byte order:
// every other module states the on-disk order it wants and gets the same
// bytes on a little- or big-endian host.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

namespace ffis::util {

using Bytes = std::vector<std::byte>;
using ByteSpan = std::span<const std::byte>;
using MutableByteSpan = std::span<std::byte>;

/// Reverses the byte order of a 64-bit word.
[[nodiscard]] constexpr std::uint64_t byteswap64(std::uint64_t v) noexcept {
  v = ((v & 0x00ff00ff00ff00ffULL) << 8) | ((v >> 8) & 0x00ff00ff00ff00ffULL);
  v = ((v & 0x0000ffff0000ffffULL) << 16) | ((v >> 16) & 0x0000ffff0000ffffULL);
  return (v << 32) | (v >> 32);
}

/// Reads the `width`-byte (1..8) unsigned integer stored at p in the given
/// byte order.  Unchecked: the caller guarantees p[0..width) is readable.
[[nodiscard]] inline std::uint64_t load_word(const std::byte* p, std::size_t width,
                                             bool big_endian) noexcept {
  std::uint64_t v = 0;
  std::memcpy(&v, p, width);
  if constexpr (std::endian::native == std::endian::little) {
    return big_endian ? byteswap64(v) >> (64 - 8 * width) : v;
  } else {
    return big_endian ? v >> (64 - 8 * width) : byteswap64(v);
  }
}

/// Stores the low `width` bytes (1..8) of `value` at p in the given byte
/// order; higher bits are dropped.  Unchecked like load_word.
inline void store_word(std::byte* p, std::uint64_t value, std::size_t width,
                       bool big_endian) noexcept {
  std::uint64_t v = big_endian ? value << (64 - 8 * width) : value;
  if ((std::endian::native == std::endian::little) == big_endian) v = byteswap64(v);
  std::memcpy(p, &v, width);
}

/// Appends an unsigned little-endian integer of `width` bytes (1..8).
void put_le(Bytes& out, std::uint64_t value, std::size_t width);

/// Writes value little-endian into buf[offset..offset+width). Bounds-checked;
/// throws std::out_of_range on overflow.
void put_le_at(MutableByteSpan buf, std::size_t offset, std::uint64_t value,
               std::size_t width);

/// Reads an unsigned little-endian integer of `width` bytes (1..8).
/// Throws std::out_of_range if the read would exceed the span.
[[nodiscard]] std::uint64_t get_le(ByteSpan buf, std::size_t offset,
                                   std::size_t width);

/// Appends raw bytes.
void put_bytes(Bytes& out, ByteSpan data);

/// Appends an ASCII signature (no NUL), e.g. "TREE".
void put_signature(Bytes& out, std::string_view sig);

/// Flips `count` consecutive bits starting at absolute bit position
/// `bit_offset` (bit 0 = LSB of byte 0). Bits past the end of the buffer are
/// ignored (mirrors a device corrupting the final partial byte).
void flip_bits(MutableByteSpan buf, std::size_t bit_offset, std::size_t count);

/// Tests the bit at absolute position `bit_offset`.
[[nodiscard]] bool test_bit(ByteSpan buf, std::size_t bit_offset);

/// Extracts `nbits` (<= 64) starting at absolute bit position `bit_offset`,
/// little-endian bit order (the order HDF5 uses for floating-point fields).
[[nodiscard]] std::uint64_t extract_bits(ByteSpan buf, std::size_t bit_offset,
                                         std::size_t nbits);

/// Deposits the low `nbits` of `value` at absolute bit position `bit_offset`.
void deposit_bits(MutableByteSpan buf, std::size_t bit_offset,
                  std::size_t nbits, std::uint64_t value);

/// Renders buf as a classic 16-bytes-per-line hexdump (offset, hex, ASCII).
[[nodiscard]] std::string hexdump(ByteSpan buf, std::size_t max_bytes = 512);

/// Number of positions where the two spans differ; spans may differ in length
/// (the length difference counts as differing bytes).
[[nodiscard]] std::size_t count_diff_bytes(ByteSpan a, ByteSpan b) noexcept;

/// Convenience conversions between std::byte buffers and string-ish data.
[[nodiscard]] Bytes to_bytes(std::string_view s);
[[nodiscard]] std::string to_string(ByteSpan b);

}  // namespace ffis::util
