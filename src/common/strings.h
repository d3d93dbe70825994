#ifndef FRAGDB_COMMON_STRINGS_H_
#define FRAGDB_COMMON_STRINGS_H_

#include <cstdint>
#include <string>

namespace fragdb {

/// `prefix` followed by `n` in decimal: Numbered("F", 3) == "F3". Names of
/// fragments, objects and transactions in fixtures and trace details are
/// built this way. Spelled out rather than as `"F" + std::to_string(n)`,
/// whose inlined insert GCC 12 flags with a false -Wrestrict at -O2.
inline std::string Numbered(const char* prefix, int64_t n) {
  std::string out(prefix);
  out += std::to_string(n);
  return out;
}

}  // namespace fragdb

#endif  // FRAGDB_COMMON_STRINGS_H_
