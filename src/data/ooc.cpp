#include "src/data/ooc.hpp"

#include <algorithm>
#include <cstdlib>

#include "src/util/env.hpp"

namespace iotax::data::ooc {

namespace {

std::size_t env_size_or(const char* name, std::size_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(raw, &end, 10);
  if (end == raw) return fallback;
  return static_cast<std::size_t>(v);
}

Settings make_settings() {
  Settings s;
  const char* ooc = std::getenv("IOTAX_OOC");
  if (ooc != nullptr && *ooc != '\0') {
    s.env_forced = true;
    s.enabled = !(ooc[0] == '0' && ooc[1] == '\0');
  }
  // Keep chunks sane: below 256 rows the per-chunk overhead dominates
  // and the bit-identity guarantee still holds, so only tests go there.
  s.chunk_rows = std::max<std::size_t>(env_size_or("IOTAX_OOC_CHUNK_ROWS",
                                                   s.chunk_rows),
                                       16);
  s.spill_threshold_bytes =
      env_size_or("IOTAX_OOC_SPILL_BYTES", s.spill_threshold_bytes);
  s.spill_dir = util::env_or("IOTAX_OOC_DIR", util::env_or("TMPDIR", "/tmp"));
  return s;
}

}  // namespace

Settings& settings() {
  static Settings s = make_settings();
  return s;
}

void enable_for_store() {
  Settings& s = settings();
  if (!s.env_forced) s.enabled = true;
}

}  // namespace iotax::data::ooc
