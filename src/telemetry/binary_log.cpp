#include "src/telemetry/binary_log.hpp"

#include <array>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "src/telemetry/counters.hpp"

namespace iotax::telemetry {

namespace {

// CRC-32C table, built once.
const std::array<std::uint32_t, 256>& crc_table() {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    constexpr std::uint32_t kPoly = 0x82f63b78u;  // reflected Castagnoli
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? (c >> 1) ^ kPoly : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

class Writer {
 public:
  void u16(std::uint16_t v) { raw(&v, sizeof(v)); }
  void u32(std::uint32_t v) { raw(&v, sizeof(v)); }
  void u64(std::uint64_t v) { raw(&v, sizeof(v)); }
  void f64(double v) { raw(&v, sizeof(v)); }
  void raw(const void* p, std::size_t n) {
    const auto* b = static_cast<const char*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }
  const std::vector<char>& buffer() const { return buf_; }

 private:
  std::vector<char> buf_;
};

class Reader {
 public:
  Reader(const char* data, std::size_t size) : data_(data), size_(size) {}

  std::uint16_t u16() { return get<std::uint16_t>(); }
  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  double f64() { return get<double>(); }
  bool exhausted() const { return pos_ == size_; }

 private:
  template <typename T>
  T get() {
    if (pos_ + sizeof(T) > size_) {
      throw std::runtime_error("binary log: truncated payload");
    }
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

void write_sparse(Writer* w, const std::vector<double>& counters) {
  std::uint16_t n = 0;
  for (const double v : counters) n += (v != 0.0) ? 1 : 0;
  w->u16(n);
  for (std::size_t i = 0; i < counters.size(); ++i) {
    if (counters[i] == 0.0) continue;
    w->u16(static_cast<std::uint16_t>(i));
    w->f64(counters[i]);
  }
}

void read_sparse(Reader* r, std::vector<double>* counters) {
  const std::uint16_t n = r->u16();
  for (std::uint16_t i = 0; i < n; ++i) {
    const std::uint16_t idx = r->u16();
    const double value = r->f64();
    if (idx >= counters->size()) {
      throw std::runtime_error("binary log: counter index out of range");
    }
    (*counters)[idx] = value;
  }
}

std::vector<char> encode_record(const JobLogRecord& rec) {
  Writer w;
  w.u64(rec.job_id);
  w.u64(rec.app_id);
  w.u64(rec.config_id);
  w.u32(rec.n_procs);
  w.u32(rec.nodes);
  w.f64(rec.start_time);
  w.f64(rec.end_time);
  w.f64(rec.placement_spread);
  w.f64(rec.agg_perf_mib);
  write_sparse(&w, rec.posix);
  write_sparse(&w, rec.mpiio);
  return w.buffer();
}

JobLogRecord decode_record(const char* data, std::size_t size) {
  Reader r(data, size);
  JobLogRecord rec;
  rec.job_id = r.u64();
  rec.app_id = r.u64();
  rec.config_id = r.u64();
  rec.n_procs = r.u32();
  rec.nodes = r.u32();
  rec.start_time = r.f64();
  rec.end_time = r.f64();
  rec.placement_spread = r.f64();
  rec.agg_perf_mib = r.f64();
  rec.posix.assign(posix_feature_names().size(), 0.0);
  rec.mpiio.assign(mpiio_feature_names().size(), 0.0);
  read_sparse(&r, &rec.posix);
  read_sparse(&r, &rec.mpiio);
  if (!r.exhausted()) {
    throw std::runtime_error("binary log: trailing bytes in payload");
  }
  return rec;
}

}  // namespace

std::uint32_t crc32c(const void* data, std::size_t size, std::uint32_t seed) {
  const auto& table = crc_table();
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t crc = ~seed;
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ bytes[i]) & 0xffu] ^ (crc >> 8);
  }
  return ~crc;
}

void write_binary_archive(std::ostream& out,
                          const std::vector<JobLogRecord>& records) {
  out.write(kBinaryMagic, sizeof(kBinaryMagic));
  const std::uint32_t version = kBinaryVersion;
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  const auto count = static_cast<std::uint32_t>(records.size());
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  for (const auto& rec : records) {
    if (rec.posix.size() != posix_feature_names().size() ||
        rec.mpiio.size() != mpiio_feature_names().size()) {
      throw std::invalid_argument(
          "write_binary_archive: counter size mismatch");
    }
    const auto payload = encode_record(rec);
    const auto size = static_cast<std::uint32_t>(payload.size());
    const std::uint32_t crc = crc32c(payload.data(), payload.size());
    out.write(reinterpret_cast<const char*>(&size), sizeof(size));
    out.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  }
  if (!out) throw std::runtime_error("write_binary_archive: stream failure");
}

void write_binary_archive_file(const std::string& path,
                               const std::vector<JobLogRecord>& records) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error("write_binary_archive_file: cannot open " + path);
  }
  write_binary_archive(out, records);
}

// Every defect lands in the outcome with a reason code, never a throw.
// Strict mode stops at the first defect; lenient mode continues past
// every recoverable one.
ParseOutcome read_binary_archive_outcome(std::istream& in, ParseMode mode) {
  const bool stop_on_first = mode == ParseMode::kStrict;
  ParseOutcome out;
  const auto container_error = [&](util::Reason reason,
                                   const std::string& what,
                                   std::size_t offset) {
    out.ok = false;
    out.error = "binary log: " + what;
    out.quarantine.add(
        {reason, 0, static_cast<std::size_t>(-1), offset, what});
  };

  char magic[sizeof(kBinaryMagic)] = {};
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kBinaryMagic, sizeof(magic)) != 0) {
    container_error(util::Reason::kBadMagic, "bad magic", 0);
    return out;
  }
  std::uint32_t version = 0;
  std::uint32_t count = 0;
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  if (!in) {
    container_error(util::Reason::kTruncated, "truncated header",
                    sizeof(kBinaryMagic));
    return out;
  }
  if (version != kBinaryVersion) {
    container_error(util::Reason::kBadVersion, "unsupported version",
                    sizeof(kBinaryMagic));
    return out;
  }
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  if (!in) {
    container_error(util::Reason::kTruncated, "truncated header",
                    sizeof(kBinaryMagic) + sizeof(version));
    return out;
  }

  std::size_t offset = sizeof(kBinaryMagic) + sizeof(version) + sizeof(count);
  bool stopped = false;
  std::uint32_t i = 0;
  std::vector<JobLogRecord> records;
  // A corrupted count field must not drive allocation; push_back grows
  // the vector naturally past this if the records really are there.
  records.reserve(std::min<std::uint32_t>(count, 1u << 16));
  std::vector<char> payload;

  // Quarantines record i and every later record the header promised but
  // the unrecoverable framing makes unreachable. Counts stay exact even
  // for absurd header counts; only one sample entry is stored.
  const auto lose_rest = [&](util::Reason reason, const std::string& what) {
    out.quarantine.add_many(reason, count - i, {reason, 0, i, offset, what});
    stopped = true;
  };

  for (; i < count && !stopped; ++i) {
    const std::size_t record_offset = offset;
    std::uint32_t size = 0;
    std::uint32_t crc = 0;
    in.read(reinterpret_cast<char*>(&size), sizeof(size));
    in.read(reinterpret_cast<char*>(&crc), sizeof(crc));
    if (!in) {
      lose_rest(util::Reason::kTruncated, "truncated archive");
      break;
    }
    if (size > (1u << 24)) {
      // Framing is clearly corrupt; cannot resynchronise safely.
      lose_rest(util::Reason::kImplausibleSize, "implausible record size");
      break;
    }
    payload.resize(size);
    in.read(payload.data(), size);
    if (!in) {
      lose_rest(util::Reason::kTruncated, "truncated record");
      break;
    }
    offset = record_offset + sizeof(size) + sizeof(crc) + size;
    if (crc32c(payload.data(), payload.size()) != crc) {
      out.quarantine.add({util::Reason::kBadChecksum, 0, i, record_offset,
                          "checksum mismatch"});
      if (stop_on_first) stopped = true;
      continue;  // framing intact; move to the next record
    }
    try {
      records.push_back(decode_record(payload.data(), payload.size()));
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      auto reason = util::Reason::kTruncated;
      if (what.find("counter index") != std::string::npos) {
        reason = util::Reason::kCounterIndexOutOfRange;
      } else if (what.find("trailing") != std::string::npos) {
        reason = util::Reason::kTrailingBytes;
      }
      out.quarantine.add({reason, 0, i, record_offset, what});
      if (stop_on_first) stopped = true;
    }
  }
  out.records = std::move(records);
  if (stop_on_first && out.quarantine.total() != 0) {
    out.ok = false;
    // Decode-error details already carry the "binary log: " prefix
    // (they come from decode_record's own throws); container defects do
    // not. Normalise so the message carries it exactly once.
    const std::string& detail = out.quarantine.entries().front().detail;
    out.error = detail.rfind("binary log: ", 0) == 0 ? detail
                                                     : "binary log: " + detail;
  }
  return out;
}

ParseOutcome read_binary_archive_file_outcome(const std::string& path,
                                              ParseMode mode) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    ParseOutcome out;
    out.ok = false;
    out.error = "cannot open " + path;
    return out;
  }
  return read_binary_archive_outcome(in, mode);
}

}  // namespace iotax::telemetry
