// One field list per report record.
//
// A record (a chaos step, a transient, a traffic solve, ...) lists its
// fields once, in declaration order, next to its definition:
//
//   template <class V, core::RecordOf<StepReport> T>
//   void fields(V& v, T& r) {
//     v("index", r.index);
//     v("event", r.event);
//     ...
//   }
//
// `T` is the record itself, const or not, so the same list drives both
// directions. Every serialization of a record is a visitor over that list:
// the checkpoint codec (guard/codec.hpp), the report JSON (io::to_json) and
// the journal fields (obs::journal_fields). A new field is added in the
// list and nowhere else.
#pragma once

#include <concepts>
#include <string_view>
#include <type_traits>
#include <vector>

namespace ranycast::core {

/// The parameter constraint of a fields() overload: `T` is the record `R`,
/// const or not.
template <class T, class R>
concept RecordOf = std::same_as<std::remove_const_t<T>, R>;

namespace detail {
struct IgnoreFields {
  template <class F>
  void operator()(std::string_view, F&) const noexcept {}
};
}  // namespace detail

/// A type with a fields() list, found by argument-dependent lookup in the
/// record's namespace.
template <class T>
concept Record = requires(detail::IgnoreFields& v, T& r) { fields(v, r); };

template <class T>
inline constexpr bool is_vector_v = false;
template <class T, class A>
inline constexpr bool is_vector_v<std::vector<T, A>> = true;

}  // namespace ranycast::core
