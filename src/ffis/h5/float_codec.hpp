#pragma once
// Generic floating-point codec driven by the HDF5 datatype message.
//
// Every element is decoded *through* the FloatFormat read from the file's
// datatype message (sign location, exponent location/size/bias, mantissa
// location/size, normalization mode).  Only the canonical little-endian IEEE
// binary64 type, for which decode_element is exactly std::bit_cast, is
// copied in bulk on a little-endian host; any corrupted field moves the
// array onto the per-element arithmetic.  This is the property that makes
// metadata faults reproduce the paper's SDC phenomenology — a corrupted
// Exponent Bias genuinely rescales all values by a power of two, a corrupted
// Mantissa Size genuinely re-partitions the bit fields, a flipped
// normalization bit genuinely changes the implied-MSB rule.
//
// Decoding is deliberately *permissive* for the paper's SDC-capable fields
// (locations/sizes are clamped to the element width instead of rejected),
// matching the observation that the HDF5 library accepts these values and
// silently produces wrong data.  Structurally impossible values (reserved
// normalization mode 3, zero-size datatype) throw, producing crashes.

#include <cstdint>

#include "ffis/h5/format.hpp"
#include "ffis/util/bytes.hpp"

namespace ffis::h5 {

/// Decodes one raw element (little-endian bit numbering within the
/// `format.size_bytes * 8`-bit word) to a double.
[[nodiscard]] double decode_element(std::uint64_t raw, const FloatFormat& format);

/// Encodes a double into the raw bit pattern for `format`.  Exact for IEEE
/// binary64; best-effort (round-to-nearest mantissa truncation, clamped
/// exponent) for other formats.
[[nodiscard]] std::uint64_t encode_element(double value, const FloatFormat& format);

/// Decodes `count` elements from `raw` (size_bytes stride, honouring
/// format.big_endian); bit-identical to decode_element on each element.
/// Validates the format once and throws H5BoundsError when raw is too short.
[[nodiscard]] std::vector<double> decode_array(util::ByteSpan raw, std::uint64_t count,
                                               const FloatFormat& format);

/// Encodes values into a byte buffer (size_bytes stride, honouring
/// format.big_endian); bit-identical to encode_element on each element.
[[nodiscard]] util::Bytes encode_array(const std::vector<double>& values,
                                       const FloatFormat& format);

}  // namespace ffis::h5
