// Lint fixture: a private byte codec beside the one in src/common/bytes.h.
// The test copies this file to <tmp>/src/net/codec.cc, where both the char
// cast and the memcpy fire `hand-rolled-codec`; in src/common/ only the
// cast fires, and as src/common/bytes.h nothing does.
#include <cstdint>
#include <cstring>
#include <string>

void AppendU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

bool ReadU64(const std::string& in, size_t offset, uint64_t* v) {
  if (in.size() - offset < sizeof(*v)) return false;
  std::memcpy(v, in.data() + offset, sizeof(*v));
  return true;
}
