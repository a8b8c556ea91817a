// Checkpoint codec derived from a record's fields() list (core/record.hpp).
//
// The field's type decides its width: bool -> u8, uint32_t -> u32,
// size_t/uint64_t -> u64, double -> f64 (raw IEEE-754 bits, so a round trip
// is exact), string -> str. A nested record is inlined field by field; a
// vector is a u64 count followed by its elements. decode() is the only place
// that reads a count, and it checks the count against the bytes left before
// it allocates: a CRC-valid payload with a forged count is rejected, never
// turned into a huge allocation.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "ranycast/core/record.hpp"
#include "ranycast/guard/checkpoint.hpp"

namespace ranycast::guard {

namespace detail {
template <class T>
inline constexpr bool is_u64_v =
    std::is_same_v<T, std::uint64_t> || std::is_same_v<T, std::size_t>;
}  // namespace detail

template <class T>
void encode(ByteWriter& w, const T& value) {
  if constexpr (std::is_same_v<T, bool>) {
    w.u8(value ? 1 : 0);
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    w.u32(value);
  } else if constexpr (detail::is_u64_v<T>) {
    w.u64(value);
  } else if constexpr (std::is_same_v<T, double>) {
    w.f64(value);
  } else if constexpr (std::is_same_v<T, std::string>) {
    w.str(value);
  } else if constexpr (core::is_vector_v<T>) {
    w.u64(value.size());
    for (const auto& element : value) guard::encode(w, element);
  } else {
    static_assert(core::Record<T>, "no checkpoint encoding for this field type");
    const auto visit = [&w](std::string_view, const auto& field) { guard::encode(w, field); };
    fields(visit, value);
  }
}

/// Decode into `value`; returns r.ok(). On failure `value` is unspecified
/// and the reader is latched failed.
template <class T>
bool decode(ByteReader& r, T& value) {
  if constexpr (std::is_same_v<T, bool>) {
    // Only the two bytes encode() writes: anything else would decode to a
    // value that re-encodes differently.
    const std::uint8_t byte = r.u8();
    if (byte > 1) r.fail();
    value = byte == 1;
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    value = r.u32();
  } else if constexpr (detail::is_u64_v<T>) {
    value = r.u64();
  } else if constexpr (std::is_same_v<T, double>) {
    value = r.f64();
  } else if constexpr (std::is_same_v<T, std::string>) {
    value = r.str();
  } else if constexpr (core::is_vector_v<T>) {
    const std::uint64_t count = r.u64();
    value.clear();
    // Every element takes at least one byte, so a count beyond the bytes
    // left cannot be genuine.
    if (!r.ok() || count > r.remaining()) {
      r.fail();
      return false;
    }
    value.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count && r.ok(); ++i) {
      typename T::value_type element{};
      guard::decode(r, element);
      value.push_back(std::move(element));
    }
  } else {
    static_assert(core::Record<T>, "no checkpoint decoding for this field type");
    const auto visit = [&r](std::string_view, auto& field) { guard::decode(r, field); };
    fields(visit, value);
  }
  return r.ok();
}

}  // namespace ranycast::guard
