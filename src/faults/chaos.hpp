// A chaos plan: process- and connection-level faults for the serving
// fleet, the network-layer sibling of FaultPlan's byte-level faults.
// Where FaultPlan corrupts records probabilistically, a ChaosPlan is a
// *script*: each event names the exact router-ingress request count at
// which it fires and the exact shard it targets, so a test can state
// its expected supervisor counters (restarts, kills) as ground truth
// instead of sleeping and hoping.
//
//   {"seed": 7, "accept_delay_ms": 0, "events": [
//     {"at_request": 100, "action": "kill",  "group": 0, "replica": 1},
//     {"at_request": 400, "action": "hang",  "group": 1, "replica": 0},
//     {"at_request": 700, "action": "drop",  "group": 0, "replica": 0},
//     {"at_request": 900, "action": "delay", "group": 1, "replica": 1,
//      "delay_ms": 5}]}
//
// Unknown keys are rejected, same as FaultPlan: a typo must not
// silently run a zero-chaos plan and vacuously pass the smoke test.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/json.hpp"

namespace iotax::faults {

enum class ChaosAction : std::uint8_t {
  kKill = 0,   // SIGKILL the shard process (supervisor must restart it)
  kHang = 1,   // SIGSTOP the shard: alive but silent; health pings time
               // out, supervisor SIGKILLs and restarts it
  kDrop = 2,   // router drops its backhaul connection to the shard
               // mid-conversation (client-side reset, no process harm —
               // exercises reconnect, not restart)
  kDelay = 3,  // router defers the triggering request delay_ms
};

const char* chaos_action_name(ChaosAction action);
bool chaos_action_from_name(std::string_view name, ChaosAction* out);

struct ChaosEvent {
  /// Fires when the router has admitted this many predict requests
  /// (1-based: at_request = 1 fires before the first forward).
  std::uint64_t at_request = 0;
  ChaosAction action = ChaosAction::kKill;
  std::size_t group = 0;
  std::size_t replica = 0;
  std::uint64_t delay_ms = 0;  // kDelay only
};

struct ChaosPlan {
  /// Seed forwarded to the router's retry jitter RNG so a replayed plan
  /// reproduces the same backoff schedule.
  std::uint64_t seed = 0xc0a5ULL;

  /// Sleep applied by the router to every accepted client connection
  /// before its first read — models a slow accept path.
  std::uint64_t accept_delay_ms = 0;

  /// Events sorted by at_request (from_json enforces the order so the
  /// router can walk the list with a single cursor).
  std::vector<ChaosEvent> events;

  bool empty() const { return accept_delay_ms == 0 && events.empty(); }

  /// Ground truth for supervisor counters: kills + hangs each force one
  /// shard restart; drops and delays do not touch the process.
  std::size_t expected_restarts() const;
  std::size_t count(ChaosAction action) const;

  /// Throws std::invalid_argument when an event is out of order, has
  /// at_request == 0, or targets group/replica >= the given shape
  /// (pass 0 to skip the shape check at parse time).
  void validate(std::size_t n_groups = 0, std::size_t n_replicas = 0) const;

  util::Json to_json() const;

  /// Parse a plan object. Missing keys keep defaults; unknown keys
  /// throw. The result is validate()d (shape-blind).
  static ChaosPlan from_json(const util::Json& doc);

  /// Load from a JSON file; throws std::runtime_error if unreadable.
  static ChaosPlan from_file(const std::string& path);
};

}  // namespace iotax::faults
