#ifndef DPJL_COMMON_ENUM_NAMES_H_
#define DPJL_COMMON_ENUM_NAMES_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "src/common/result.h"

namespace dpjl {

/// One row of an enum's name list, the one place a value's name is
/// written. A value's first row is its name; later rows for the same value
/// are aliases that only parse.
template <typename E>
struct EnumName {
  E value;
  const char* name;
};

template <typename E, size_t N>
std::string_view NameOf(const EnumName<E> (&names)[N], E value) {
  for (const EnumName<E>& row : names) {
    if (row.value == value) return row.name;
  }
  return "unknown";
}

/// The value `raw` names; nullptr when no row does.
template <typename E, size_t N>
const E* FindValue(const EnumName<E> (&names)[N], std::string_view raw) {
  for (const EnumName<E>& row : names) {
    if (raw == row.name) return &row.value;
  }
  return nullptr;
}

/// Every name, aliases included, as "a|b|c".
template <typename E, size_t N>
std::string JoinNames(const EnumName<E> (&names)[N]) {
  std::string joined = names[0].name;
  for (size_t i = 1; i < N; ++i) joined += std::string("|") + names[i].name;
  return joined;
}

/// FindValue for a flag: an unknown name is kInvalidArgument
/// "--<key> expects one of a|b|c, got '<raw>'".
template <typename E, size_t N>
Result<E> ParseEnumFlag(const std::string& key, const EnumName<E> (&names)[N],
                        const std::string& raw) {
  if (const E* value = FindValue(names, raw)) return *value;
  return Status::InvalidArgument("--" + key + " expects one of " +
                                 JoinNames(names) + ", got '" + raw + "'");
}

}  // namespace dpjl

#endif  // DPJL_COMMON_ENUM_NAMES_H_
