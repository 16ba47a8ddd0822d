// Process-wide out-of-core policy for the data path. One settings block
// decides whether large intermediates (BinnedMatrix code planes, the
// binning quantile scratch) live on the heap or in unlinked mmap spill
// files, and how many rows a streaming pass touches at a time.
//
// Settings are seeded once from the environment on first use:
//   IOTAX_OOC=0|1            force out-of-core off/on (default: off; the
//                            CLI turns it on whenever --store is used)
//   IOTAX_OOC_CHUNK_ROWS     rows per streaming chunk (default 65536)
//   IOTAX_OOC_SPILL_BYTES    spill a code buffer to mmap once it exceeds
//                            this many bytes (default 32 MiB; 0 spills
//                            everything, handy in tests)
//   IOTAX_OOC_DIR            spill directory (default: TMPDIR or /tmp)
//
// Chunking never changes results: the out-of-core binning path is
// bit-identical to the in-RAM path by construction (see binning.cpp).
// Mutate settings() only outside parallel regions — the block is plain
// data read concurrently by worker threads.
#pragma once

#include <cstddef>
#include <string>

namespace iotax::data::ooc {

struct Settings {
  bool enabled = false;
  /// Whether IOTAX_OOC was set explicitly (the CLI's --store default
  /// does not override an explicit env choice).
  bool env_forced = false;
  std::size_t chunk_rows = 65536;
  std::size_t spill_threshold_bytes = 32u << 20;
  std::string spill_dir;
};

/// The live settings block (env-seeded on first call).
Settings& settings();

/// Enable out-of-core mode unless IOTAX_OOC explicitly disabled it.
/// Called by the CLI when a --store dataset source is selected.
void enable_for_store();

}  // namespace iotax::data::ooc
