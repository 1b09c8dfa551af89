#include "rainshine/stream/store.hpp"

#include <algorithm>
#include <cstring>
#include <istream>
#include <ostream>

#include "rainshine/obs/metrics.hpp"
#include "rainshine/serve/artifact.hpp"  // serve::crc32
#include "rainshine/util/check.hpp"

namespace rainshine::stream {

namespace {

constexpr char kMagic[4] = {'R', 'S', 'S', '1'};
constexpr std::uint32_t kSnapshotVersion = 1;
constexpr std::size_t kSlotRecordBytes = 32;  // {u32 count, u32 pad, f64 sum/min/max}

void append_bytes(std::string& out, const void* p, std::size_t n) {
  out.append(static_cast<const char*>(p), n);
}
void append_u32(std::string& out, std::uint32_t v) { append_bytes(out, &v, 4); }
void append_u64(std::string& out, std::uint64_t v) { append_bytes(out, &v, 8); }
void append_i64(std::string& out, std::int64_t v) { append_bytes(out, &v, 8); }
void append_f64(std::string& out, double v) { append_bytes(out, &v, 8); }

/// Bounds-checked cursor over the snapshot payload.
struct Reader {
  const unsigned char* p;
  std::size_t remaining;

  void take(void* dst, std::size_t n) {
    if (n > remaining) throw snapshot_error("snapshot payload truncated");
    std::memcpy(dst, p, n);
    p += n;
    remaining -= n;
  }
  std::uint32_t u32() { std::uint32_t v; take(&v, 4); return v; }
  std::uint64_t u64() { std::uint64_t v; take(&v, 8); return v; }
  std::int64_t i64() { std::int64_t v; take(&v, 8); return v; }
  double f64() { double v; take(&v, 8); return v; }
};

}  // namespace

SeriesId SeriesStore::add_series(SeriesSpec spec) {
  util::require(!spec.name.empty(), "series name must be non-empty");
  util::require(!spec.tiers.empty(), "series needs at least one tier");
  for (const TierSpec& t : spec.tiers) {
    util::require(t.step_hours >= 1, "tier step_hours must be >= 1");
    util::require(t.slots >= 1, "tier slots must be >= 1");
  }
  std::unique_lock lock(mutex_);
  const auto same_name = [&](const Series& s) { return s.name == spec.name; };
  util::require(std::none_of(series_.begin(), series_.end(), same_name),
                "duplicate series name: " + spec.name);
  Series series;
  series.name = std::move(spec.name);
  series.tiers.reserve(spec.tiers.size());
  for (const TierSpec& t : spec.tiers) {
    Tier tier;
    tier.spec = t;
    tier.slots.assign(t.slots, AggregateSample{});
    series.tiers.push_back(std::move(tier));
  }
  series_.push_back(std::move(series));
  return series_.size() - 1;
}

void SeriesStore::advance_to(Tier& t, std::int64_t bucket) {
  // Zero every bucket between the old head and the new one (bounded by the
  // ring length) so missed ticks read back as count-0 gaps, then stamp each
  // slot with its bucket start. Slots whose residue has no representative
  // yet stay default — they are outside the readable window by definition.
  const std::int64_t slots = static_cast<std::int64_t>(t.spec.slots);
  std::int64_t first = std::max<std::int64_t>(t.last_bucket + 1, bucket - slots + 1);
  first = std::max<std::int64_t>(first, 0);
  for (std::int64_t b = first; b <= bucket; ++b) {
    AggregateSample& slot = t.slots[static_cast<std::size_t>(b % slots)];
    slot = AggregateSample{};
    slot.bucket_start_hour = b * t.spec.step_hours;
  }
  t.last_bucket = bucket;
}

bool SeriesStore::push(SeriesId id, std::int64_t hour, double value) {
  std::unique_lock lock(mutex_);
  util::require(id < series_.size(), "unknown series id");
  Series& s = series_[id];
  if (hour < 0) {  // before the epoch: older than every tier's window
    lock.unlock();
    obs::registry().counter("stream.store_late_drops").add(1);
    return false;
  }
  s.last_hour = std::max(s.last_hour, hour);

  std::uint64_t late = 0;
  for (Tier& t : s.tiers) {
    const std::int64_t bucket = hour / t.spec.step_hours;
    if (bucket > t.last_bucket) advance_to(t, bucket);
    if (bucket <= t.last_bucket - static_cast<std::int64_t>(t.spec.slots)) {
      ++late;  // already rotated out of this tier's window
      continue;
    }
    AggregateSample& slot =
        t.slots[static_cast<std::size_t>(bucket % static_cast<std::int64_t>(t.spec.slots))];
    if (slot.count == 0) {
      slot.min = value;
      slot.max = value;
    } else {
      slot.min = std::min(slot.min, value);
      slot.max = std::max(slot.max, value);
    }
    slot.sum += value;
    ++slot.count;
  }
  lock.unlock();
  if (late > 0) obs::registry().counter("stream.store_late_drops").add(late);
  // False signals the sample was late for at least one tier — it may still
  // have folded into coarser tiers whose windows reach further back.
  return late == 0;
}

std::vector<AggregateSample> SeriesStore::read(SeriesId id, std::size_t tier,
                                               std::int64_t from_hour,
                                               std::int64_t to_hour) const {
  std::shared_lock lock(mutex_);
  util::require(id < series_.size(), "unknown series id");
  const Series& s = series_[id];
  util::require(tier < s.tiers.size(), "unknown tier index");
  const Tier& t = s.tiers[tier];
  if (t.last_bucket < 0 || to_hour <= 0) return {};

  const std::int64_t step = t.spec.step_hours;
  const std::int64_t slots = static_cast<std::int64_t>(t.spec.slots);
  std::int64_t lo = std::max<std::int64_t>(0, t.last_bucket - slots + 1);
  std::int64_t hi = t.last_bucket;
  if (from_hour > 0) {
    lo = std::max(lo, from_hour / step + (from_hour % step != 0 ? 1 : 0));
  }
  hi = std::min(hi, (to_hour - 1) / step);

  std::vector<AggregateSample> out;
  if (hi < lo) return out;
  out.reserve(static_cast<std::size_t>(hi - lo + 1));
  for (std::int64_t b = lo; b <= hi; ++b) {
    const AggregateSample& slot = t.slots[static_cast<std::size_t>(b % slots)];
    util::ensure(slot.bucket_start_hour == b * step,
                 "ring slot does not hold its window bucket");
    out.push_back(slot);
  }
  return out;
}

SeriesId SeriesStore::id_of(std::string_view name) const {
  std::shared_lock lock(mutex_);
  for (std::size_t i = 0; i < series_.size(); ++i) {
    if (series_[i].name == name) return i;
  }
  throw std::out_of_range("unknown series: " + std::string(name));
}

bool SeriesStore::contains(std::string_view name) const {
  std::shared_lock lock(mutex_);
  return std::any_of(series_.begin(), series_.end(),
                     [&](const Series& s) { return s.name == name; });
}

std::vector<SeriesSpec> SeriesStore::describe() const {
  std::shared_lock lock(mutex_);
  std::vector<SeriesSpec> out;
  out.reserve(series_.size());
  for (const Series& s : series_) {
    SeriesSpec spec;
    spec.name = s.name;
    for (const Tier& t : s.tiers) spec.tiers.push_back(t.spec);
    out.push_back(std::move(spec));
  }
  return out;
}

std::size_t SeriesStore::num_series() const {
  std::shared_lock lock(mutex_);
  return series_.size();
}

std::int64_t SeriesStore::last_hour(SeriesId id) const {
  std::shared_lock lock(mutex_);
  util::require(id < series_.size(), "unknown series id");
  return series_[id].last_hour;
}

std::size_t SeriesStore::memory_bytes() const {
  std::shared_lock lock(mutex_);
  std::size_t total = sizeof(SeriesStore) + series_.capacity() * sizeof(Series);
  for (const Series& s : series_) {
    total += s.name.capacity();
    total += s.tiers.capacity() * sizeof(Tier);
    for (const Tier& t : s.tiers) {
      total += t.slots.capacity() * sizeof(AggregateSample);
    }
  }
  return total;
}

void SeriesStore::snapshot(std::ostream& out) const {
  std::shared_lock lock(mutex_);
  std::string payload;
  append_u32(payload, static_cast<std::uint32_t>(series_.size()));
  for (const Series& s : series_) {
    append_u32(payload, static_cast<std::uint32_t>(s.name.size()));
    append_bytes(payload, s.name.data(), s.name.size());
    append_i64(payload, s.last_hour);
    append_u32(payload, static_cast<std::uint32_t>(s.tiers.size()));
    for (const Tier& t : s.tiers) {
      append_i64(payload, t.spec.step_hours);
      append_u64(payload, t.spec.slots);
      append_i64(payload, t.last_bucket);
      // Slot records are fixed-width and 8-byte aligned within the payload
      // so a future mmap reader can point straight at the array.
      while (payload.size() % 8 != 0) payload.push_back('\0');
      for (const AggregateSample& slot : t.slots) {
        append_u32(payload, slot.count);
        append_u32(payload, 0);  // reserved
        append_f64(payload, slot.sum);
        append_f64(payload, slot.min);
        append_f64(payload, slot.max);
      }
    }
  }
  out.write(kMagic, 4);
  std::uint32_t version = kSnapshotVersion;
  out.write(reinterpret_cast<const char*>(&version), 4);
  const std::uint64_t payload_size = payload.size();
  out.write(reinterpret_cast<const char*>(&payload_size), 8);
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  const std::uint32_t crc = serve::crc32(
      {reinterpret_cast<const unsigned char*>(payload.data()), payload.size()});
  out.write(reinterpret_cast<const char*>(&crc), 4);
  util::ensure(out.good(), "snapshot write failed");
}

void SeriesStore::restore(std::istream& in) {
  std::unique_lock lock(mutex_);
  if (!series_.empty()) throw snapshot_error("restore() needs an empty store");

  char magic[4];
  std::uint32_t version = 0;
  std::uint64_t payload_size = 0;
  in.read(magic, 4);
  in.read(reinterpret_cast<char*>(&version), 4);
  in.read(reinterpret_cast<char*>(&payload_size), 8);
  if (!in.good()) throw snapshot_error("snapshot header truncated");
  if (std::memcmp(magic, kMagic, 4) != 0) {
    throw snapshot_error("not a series snapshot (bad magic)");
  }
  if (version != kSnapshotVersion) {
    throw snapshot_error("unsupported snapshot version " + std::to_string(version));
  }
  if (payload_size > (1ull << 34)) {
    throw snapshot_error("implausible snapshot payload size");
  }
  std::string payload(payload_size, '\0');
  in.read(payload.data(), static_cast<std::streamsize>(payload_size));
  if (in.gcount() != static_cast<std::streamsize>(payload_size)) {
    throw snapshot_error("snapshot payload truncated");
  }
  std::uint32_t stored_crc = 0;
  in.read(reinterpret_cast<char*>(&stored_crc), 4);
  if (!in.good()) throw snapshot_error("snapshot checksum missing");
  const std::uint32_t crc = serve::crc32(
      {reinterpret_cast<const unsigned char*>(payload.data()), payload.size()});
  if (crc != stored_crc) throw snapshot_error("snapshot checksum mismatch");
  if (in.peek() != std::istream::traits_type::eof()) {
    throw snapshot_error("trailing bytes after snapshot checksum");
  }

  Reader r{reinterpret_cast<const unsigned char*>(payload.data()), payload.size()};
  std::vector<Series> parsed;
  const std::uint32_t num_series = r.u32();
  parsed.reserve(num_series);
  std::size_t consumed_prefix = 0;  // bytes consumed so far, for alignment
  for (std::uint32_t si = 0; si < num_series; ++si) {
    Series s;
    const std::uint32_t name_len = r.u32();
    if (name_len == 0 || name_len > 4096) {
      throw snapshot_error("malformed series name length");
    }
    s.name.resize(name_len);
    r.take(s.name.data(), name_len);
    for (const Series& prev : parsed) {
      if (prev.name == s.name) throw snapshot_error("duplicate series name");
    }
    s.last_hour = r.i64();
    const std::uint32_t num_tiers = r.u32();
    if (num_tiers == 0 || num_tiers > 64) {
      throw snapshot_error("malformed tier count");
    }
    s.tiers.reserve(num_tiers);
    for (std::uint32_t ti = 0; ti < num_tiers; ++ti) {
      Tier t;
      t.spec.step_hours = r.i64();
      const std::uint64_t slots = r.u64();
      t.last_bucket = r.i64();
      if (t.spec.step_hours < 1 || slots < 1 || slots > (1u << 26) ||
          t.last_bucket < -1) {
        throw snapshot_error("malformed tier shape");
      }
      t.spec.slots = static_cast<std::size_t>(slots);
      consumed_prefix = payload.size() - r.remaining;
      while (consumed_prefix % 8 != 0) {
        char pad = 0;
        r.take(&pad, 1);
        if (pad != 0) throw snapshot_error("malformed alignment padding");
        ++consumed_prefix;
      }
      t.slots.assign(t.spec.slots, AggregateSample{});
      for (AggregateSample& slot : t.slots) {
        slot.count = r.u32();
        (void)r.u32();  // reserved
        slot.sum = r.f64();
        slot.min = r.f64();
        slot.max = r.f64();
      }
      // Re-derive each window slot's bucket start from the ring geometry —
      // it is not stored (the invariant read() checks).
      if (t.last_bucket >= 0) {
        const std::int64_t nslots = static_cast<std::int64_t>(t.spec.slots);
        const std::int64_t lo = std::max<std::int64_t>(0, t.last_bucket - nslots + 1);
        for (std::int64_t b = lo; b <= t.last_bucket; ++b) {
          t.slots[static_cast<std::size_t>(b % nslots)].bucket_start_hour =
              b * t.spec.step_hours;
        }
      }
      s.tiers.push_back(std::move(t));
    }
    parsed.push_back(std::move(s));
  }
  if (r.remaining != 0) throw snapshot_error("trailing bytes after snapshot payload");
  series_ = std::move(parsed);
}

}  // namespace rainshine::stream
