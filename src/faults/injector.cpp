#include "src/faults/injector.hpp"

#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "src/obs/metrics.hpp"
#include "src/telemetry/binary_log.hpp"
#include "src/util/rng.hpp"

namespace iotax::faults {

namespace {

// Stream ids for the per-class RNG forks. Each fault class draws from
// its own stream so changing one rate never shifts another class's
// sampling (and therefore never silently changes the ground truth of an
// unrelated experiment axis).
enum Stream : std::uint64_t {
  kDropStream = 1,
  kDuplicateStream,
  kZeroStream,
  kBadThroughputStream,
  kClockSkewStream,
  kReorderStream,
  kMangleStream,
};

/// A record headed for the corrupted archive, with the fault flags the
/// ground-truth simulation needs downstream.
struct Tagged {
  telemetry::JobLogRecord rec;
  bool bad_throughput = false;
};

/// Half-open byte span of one serialized record within the archive.
struct Span {
  std::size_t begin = 0;
  std::size_t end = 0;
};

std::size_t header_bytes(bool binary) {
  // Binary container: 8-byte magic + u32 version + u32 count.
  return binary ? sizeof(telemetry::kBinaryMagic) + 2 * sizeof(std::uint32_t)
                : 0;
}

std::string serialize(const std::vector<Tagged>& work, bool binary,
                      std::vector<Span>* spans) {
  std::ostringstream out(std::ios::binary);
  spans->clear();
  spans->reserve(work.size());
  if (binary) {
    std::vector<telemetry::JobLogRecord> records;
    records.reserve(work.size());
    for (const auto& t : work) records.push_back(t.rec);
    telemetry::write_binary_archive(out, records);
    const std::string bytes = out.str();
    // Recover record boundaries by walking the framing we just wrote.
    std::size_t pos = header_bytes(true);
    for (std::size_t i = 0; i < work.size(); ++i) {
      std::uint32_t size = 0;
      std::memcpy(&size, bytes.data() + pos, sizeof(size));
      const std::size_t end = pos + 2 * sizeof(std::uint32_t) + size;
      spans->push_back({pos, end});
      pos = end;
    }
    return bytes;
  }
  std::size_t pos = 0;
  for (const auto& t : work) {
    telemetry::write_record(out, t.rec);
    const std::size_t end = static_cast<std::size_t>(out.tellp());
    spans->push_back({pos, end});
    pos = end;
  }
  return out.str();
}

/// Decide where the tail cut lands. Returns bytes.size() (no cut) when
/// the truncate rate is zero. The cut always lands past the container
/// header and — for text — on a line boundary strictly inside a record,
/// so the partially kept record parses as exactly one kTruncated entry.
std::size_t choose_cut(const std::string& bytes, const std::vector<Span>& spans,
                       bool binary, double rate) {
  if (rate == 0.0 || spans.empty()) return bytes.size();
  const auto total = bytes.size();
  auto cut_bytes = static_cast<std::size_t>(
      static_cast<double>(total) * rate + 0.5);
  if (cut_bytes == 0) cut_bytes = 1;
  std::size_t target = total - cut_bytes;
  // Keep the container header (and at least one byte of the first
  // record) so the loss is a record-level truncation, not a refused
  // container.
  const std::size_t min_keep = spans.front().begin + 1;
  if (target < min_keep) target = min_keep;
  if (binary) return target;  // any mid-stream cut maps to kTruncated

  // Text: find the record the target lands in (or the boundary case
  // where it lands exactly at a record's end — then cut into the next).
  std::size_t j = 0;
  while (j < spans.size() && spans[j].end <= target) ++j;
  if (j == spans.size()) j = spans.size() - 1;  // unreachable guard
  // Snap back to the last newline at or before the target that keeps at
  // least one line of record j and does not complete it.
  const std::size_t lo = spans[j].begin;
  const std::size_t hi = std::min(target, spans[j].end - 2);
  std::size_t cut = std::string::npos;
  if (hi > lo) {
    const auto nl = bytes.rfind('\n', hi - 1);
    if (nl != std::string::npos && nl >= lo) cut = nl + 1;
  }
  if (cut == std::string::npos) {
    // Target sits inside record j's first line: keep that full line.
    cut = bytes.find('\n', lo) + 1;
  }
  return cut;
}

}  // namespace

std::size_t InjectionReport::injected_total() const {
  return dropped + duplicated + zeroed + bad_throughput + skewed + reordered +
         mangled + truncated_records;
}

std::size_t InjectionReport::expected_total() const {
  std::size_t total = 0;
  for (const auto n : expected_quarantine) total += n;
  return total;
}

util::Json InjectionReport::to_json() const {
  util::Json doc = util::Json::object();
  doc.set("input_records", input_records);
  doc.set("written_records", written_records);
  util::Json injected = util::Json::object();
  injected.set("dropped", dropped);
  injected.set("duplicated", duplicated);
  injected.set("zeroed", zeroed);
  injected.set("bad_throughput", bad_throughput);
  injected.set("skewed", skewed);
  injected.set("reordered", reordered);
  injected.set("mangled", mangled);
  injected.set("truncated_records", truncated_records);
  injected.set("truncated_bytes", truncated_bytes);
  doc.set("injected", std::move(injected));
  util::Json expected = util::Json::object();
  for (std::size_t i = 0; i < util::kReasonCount; ++i) {
    if (expected_quarantine[i] != 0) {
      expected.set(util::reason_name(static_cast<util::Reason>(i)),
                   expected_quarantine[i]);
    }
  }
  doc.set("expected_quarantine", std::move(expected));
  doc.set("expected_total", expected_total());
  return doc;
}

InjectionReport InjectionReport::from_json(const util::Json& doc) {
  InjectionReport rep;
  const auto get = [](const util::Json& obj, const char* key) {
    const auto* v = obj.find(key);
    return v == nullptr ? std::size_t{0}
                        : static_cast<std::size_t>(v->as_int());
  };
  rep.input_records = get(doc, "input_records");
  rep.written_records = get(doc, "written_records");
  const auto& injected = doc.at("injected");
  rep.dropped = get(injected, "dropped");
  rep.duplicated = get(injected, "duplicated");
  rep.zeroed = get(injected, "zeroed");
  rep.bad_throughput = get(injected, "bad_throughput");
  rep.skewed = get(injected, "skewed");
  rep.reordered = get(injected, "reordered");
  rep.mangled = get(injected, "mangled");
  rep.truncated_records = get(injected, "truncated_records");
  rep.truncated_bytes = get(injected, "truncated_bytes");
  for (const auto& [key, value] : doc.at("expected_quarantine").items()) {
    bool matched = false;
    for (std::size_t i = 0; i < util::kReasonCount; ++i) {
      if (key == util::reason_name(static_cast<util::Reason>(i))) {
        rep.expected_quarantine[i] = static_cast<std::size_t>(value.as_int());
        matched = true;
        break;
      }
    }
    if (!matched) {
      throw std::invalid_argument("injection report: unknown reason '" + key +
                                  "'");
    }
  }
  return rep;
}

InjectionResult inject_archive_bytes(
    const std::vector<telemetry::JobLogRecord>& records, const FaultPlan& plan,
    bool binary) {
  plan.validate();
  InjectionResult out;
  auto& rep = out.report;
  rep.input_records = records.size();
  const util::Rng root(plan.seed);

  // ---- Record-level faults, one forked stream per class.
  std::vector<Tagged> work;
  work.reserve(records.size());
  {
    auto rng = root.fork(kDropStream);
    for (const auto& rec : records) {
      if (rng.bernoulli(plan.drop)) {
        ++rep.dropped;
        continue;
      }
      work.push_back({rec});
    }
  }
  {
    auto rng = root.fork(kDuplicateStream);
    std::vector<Tagged> doubled;
    doubled.reserve(work.size());
    for (auto& t : work) {
      const bool dup = rng.bernoulli(plan.duplicate);
      doubled.push_back(std::move(t));
      if (dup) {
        doubled.push_back(doubled.back());
        ++rep.duplicated;
      }
    }
    work = std::move(doubled);
  }
  {
    auto rng = root.fork(kZeroStream);
    for (auto& t : work) {
      if (!rng.bernoulli(plan.zero_counters)) continue;
      t.rec.posix.assign(t.rec.posix.size(), 0.0);
      t.rec.mpiio.assign(t.rec.mpiio.size(), 0.0);
      ++rep.zeroed;
    }
  }
  {
    auto rng = root.fork(kBadThroughputStream);
    for (auto& t : work) {
      if (!rng.bernoulli(plan.bad_throughput)) continue;
      t.rec.agg_perf_mib = rng.bernoulli(0.5)
                               ? std::numeric_limits<double>::quiet_NaN()
                               : -t.rec.agg_perf_mib;
      t.bad_throughput = true;
      ++rep.bad_throughput;
    }
  }
  {
    auto rng = root.fork(kClockSkewStream);
    for (auto& t : work) {
      if (!rng.bernoulli(plan.clock_skew)) continue;
      t.rec.start_time += plan.skew_seconds;
      t.rec.end_time += plan.skew_seconds;
      ++rep.skewed;
    }
  }
  {
    auto rng = root.fork(kReorderStream);
    for (std::size_t i = 0; i + 1 < work.size();) {
      if (rng.bernoulli(plan.reorder)) {
        std::swap(work[i], work[i + 1]);
        ++rep.reordered;
        i += 2;  // a swapped pair is not re-entered
      } else {
        ++i;
      }
    }
  }
  rep.written_records = work.size();

  // ---- Serialize, then byte-level faults.
  std::vector<Span> spans;
  out.bytes = serialize(work, binary, &spans);

  // Truncation first: its position depends only on the byte length,
  // which mangling (a same-length overwrite) does not change; records
  // the cut removes are then excluded from mangling so each corrupted
  // record has exactly one expected defect.
  const std::size_t cut = choose_cut(out.bytes, spans, binary, plan.truncate);
  std::size_t fully_kept = 0;  // records entirely inside [0, cut)
  while (fully_kept < spans.size() && spans[fully_kept].end <= cut) {
    ++fully_kept;
  }
  rep.truncated_records = work.size() - fully_kept;
  rep.truncated_bytes = out.bytes.size() - cut;

  std::vector<bool> mangled(work.size(), false);
  {
    auto rng = root.fork(kMangleStream);
    for (std::size_t i = 0; i < work.size(); ++i) {
      if (!rng.bernoulli(plan.mangle) || i >= fully_kept) continue;
      mangled[i] = true;
      ++rep.mangled;
      if (binary) {
        // Flip one payload byte: the CRC catches it, the framing
        // survives, and the parser resynchronises at the next record.
        const std::size_t payload_begin =
            spans[i].begin + 2 * sizeof(std::uint32_t);
        const auto off = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(spans[i].end - payload_begin) - 1));
        out.bytes[payload_begin + off] =
            static_cast<char>(out.bytes[payload_begin + off] ^ 0xff);
      } else {
        // Overwrite the agg_perf_mib header value in place (every record
        // has one): the field fails to parse as a number and the record
        // is quarantined without breaking the framing of its neighbours.
        constexpr const char* kField = "# agg_perf_mib: ";
        const auto field = out.bytes.find(kField, spans[i].begin);
        const auto value_begin = field + std::strlen(kField);
        const auto value_end = out.bytes.find('\n', value_begin);
        for (std::size_t p = value_begin; p < value_end; ++p) {
          out.bytes[p] = 'x';
        }
      }
    }
  }
  out.bytes.resize(cut);

  // ---- Ground truth: simulate the detection pipeline exactly.
  auto& expected = rep.expected_quarantine;
  const auto bump = [&expected](util::Reason r, std::size_t n = 1) {
    expected[static_cast<std::size_t>(r)] += n;
  };
  if (binary) {
    // The header's record count makes every lost record detectable.
    bump(util::Reason::kTruncated, rep.truncated_records);
    bump(util::Reason::kBadChecksum, rep.mangled);
  } else {
    // Text has no record count: fully lost records vanish silently; the
    // partially kept one (the cut always lands on a line boundary inside
    // a record) parses as a single truncated record.
    if (fully_kept < work.size()) bump(util::Reason::kTruncated, 1);
    bump(util::Reason::kBadNumber, rep.mangled);
  }
  // Parse survivors flow into the ingest checks, which reject bad
  // throughput before a record can claim its job id (same order as
  // build_dataset_ingest).
  std::unordered_set<std::uint64_t> seen;
  for (std::size_t i = 0; i < fully_kept; ++i) {
    if (mangled[i]) continue;
    if (work[i].bad_throughput) {
      bump(util::Reason::kBadThroughput);
    } else if (!seen.insert(work[i].rec.job_id).second) {
      bump(util::Reason::kDuplicateJobId);
    }
  }

  IOTAX_OBS_COUNT("faults.injected", rep.injected_total());
  return out;
}

InjectionReport inject_archive(const std::string& in_path,
                               const std::string& out_path, bool binary,
                               const FaultPlan& plan) {
  const auto parsed =
      binary ? telemetry::read_binary_archive_file_outcome(
                   in_path, telemetry::ParseMode::kStrict)
             : telemetry::parse_archive_file_outcome(
                   in_path, telemetry::ParseMode::kStrict);
  if (!parsed.ok) throw std::runtime_error("inject: " + parsed.error);
  auto result = inject_archive_bytes(parsed.records, plan, binary);
  std::ofstream out(out_path, std::ios::binary);
  if (!out) throw std::runtime_error("inject: cannot open " + out_path);
  out.write(result.bytes.data(),
            static_cast<std::streamsize>(result.bytes.size()));
  if (!out) throw std::runtime_error("inject: write failed for " + out_path);
  return result.report;
}

}  // namespace iotax::faults
