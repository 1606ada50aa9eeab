#include "fault/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "fault/bytes.h"

namespace sensedroid::fault {

namespace {

// "SDCP" little-endian.
constexpr std::uint32_t kMagic = 0x50434453u;
constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 4;  // magic ver size crc
constexpr std::size_t kSizeAt = 8;                    // payload size field
constexpr std::size_t kCrcAt = 16;                    // payload CRC field

// ---------------------------------------------------------------------
// Payload codec.  Every reader-side length is bounds-checked by
// ByteReader, so a hostile payload throws CodecError instead of
// overrunning; callers translate that to CheckpointError.

template <typename Writer>
void put_rng(Writer& w, const linalg::Rng::State& st) {
  for (std::uint64_t word : st.s) w.u64(word);
  w.f64(st.cached_gaussian);
  w.boolean(st.has_cached_gaussian);
}

linalg::Rng::State get_rng(ByteReader& r) {
  linalg::Rng::State st;
  for (std::uint64_t& word : st.s) word = r.u64();
  st.cached_gaussian = r.f64();
  st.has_cached_gaussian = r.boolean();
  return st;
}

template <typename Writer>
void put_sample(Writer& w, const obs::MetricsRegistry::Sample& s) {
  w.str(s.name);
  w.u64(s.labels.size());
  for (const auto& [k, v] : s.labels) {
    w.str(k);
    w.str(v);
  }
  w.u8(static_cast<std::uint8_t>(s.kind));
  w.f64(s.value);
  w.u64(s.count);
  w.f64(s.sum);
  w.f64(s.min);
  w.f64(s.max);
  w.u64(s.bounds.size());
  for (double b : s.bounds) w.f64(b);
  w.u64(s.buckets.size());
  for (std::uint64_t b : s.buckets) w.u64(b);
}

obs::MetricsRegistry::Sample get_sample(ByteReader& r) {
  obs::MetricsRegistry::Sample s;
  s.name = r.str();
  const std::size_t n_labels = r.count(/*min_element_bytes=*/16);
  s.labels.reserve(n_labels);
  for (std::size_t i = 0; i < n_labels; ++i) {
    std::string k = r.str();
    std::string v = r.str();
    s.labels.emplace_back(std::move(k), std::move(v));
  }
  const std::uint8_t kind = r.u8();
  if (kind != 'c' && kind != 'g' && kind != 'h') {
    throw CodecError("checkpoint: unknown metric kind");
  }
  s.kind = static_cast<char>(kind);
  s.value = r.f64();
  s.count = r.u64();
  s.sum = r.f64();
  s.min = r.f64();
  s.max = r.f64();
  const std::size_t n_bounds = r.count(8);
  s.bounds.reserve(n_bounds);
  for (std::size_t i = 0; i < n_bounds; ++i) s.bounds.push_back(r.f64());
  const std::size_t n_buckets = r.count(8);
  if (n_buckets != 0 && n_buckets != n_bounds + 1) {
    throw CodecError("checkpoint: histogram bucket/bound count mismatch");
  }
  s.buckets.reserve(n_buckets);
  for (std::size_t i = 0; i < n_buckets; ++i) s.buckets.push_back(r.u64());
  return s;
}

template <typename Writer>
void put_zone(Writer& w, const ZoneSnapshot& z) {
  w.u32(z.zone);
  for (double j : z.broker_meter_j) w.f64(j);
  w.u64(z.nodes.size());
  for (const NodeSnapshot& n : z.nodes) {
    w.u32(n.id);
    w.f64(n.battery_consumed_j);
    for (double j : n.meter_j) w.f64(j);
    w.u64(n.sensors.size());
    for (const SensorSnapshot& s : n.sensors) {
      w.u8(s.kind);
      put_rng(w, s.rng);
    }
  }
  w.u64(z.store.size());
  for (const StoreRecord& rec : z.store) {
    w.u32(rec.node);
    w.u8(rec.sensor);
    w.f64(rec.timestamp);
    w.f64(rec.value);
  }
}

ZoneSnapshot get_zone(ByteReader& r) {
  ZoneSnapshot z;
  z.zone = r.u32();
  for (double& j : z.broker_meter_j) j = r.f64();
  const std::size_t n_nodes = r.count(4 + 8 + 5 * 8 + 8);
  z.nodes.reserve(n_nodes);
  for (std::size_t i = 0; i < n_nodes; ++i) {
    NodeSnapshot n;
    n.id = r.u32();
    n.battery_consumed_j = r.f64();
    for (double& j : n.meter_j) j = r.f64();
    const std::size_t n_sensors = r.count(1 + 41);
    n.sensors.reserve(n_sensors);
    for (std::size_t s = 0; s < n_sensors; ++s) {
      SensorSnapshot ss;
      ss.kind = r.u8();
      ss.rng = get_rng(r);
      n.sensors.push_back(ss);
    }
    z.nodes.push_back(std::move(n));
  }
  const std::size_t n_store = r.count(4 + 1 + 8 + 8);
  z.store.reserve(n_store);
  for (std::size_t i = 0; i < n_store; ++i) {
    StoreRecord rec;
    rec.node = r.u32();
    rec.sensor = r.u8();
    rec.timestamp = r.f64();
    rec.value = r.f64();
    z.store.push_back(rec);
  }
  return z;
}

// Writer is ByteWriter or ByteCounter: the same walk sizes and writes.
template <typename Writer>
void put_payload(Writer& w, const CampaignSnapshot& snap) {
  w.u64(snap.rounds_done);
  w.f64(snap.virtual_s);
  put_rng(w, snap.campaign_rng);
  w.blob(snap.injector);
  w.blob(snap.guard);
  w.u64(snap.metrics.size());
  for (const auto& s : snap.metrics) put_sample(w, s);
  w.u64(snap.zones.size());
  for (const auto& z : snap.zones) put_zone(w, z);
  w.blob(snap.driver);
}

CampaignSnapshot decode_payload(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  CampaignSnapshot snap;
  snap.rounds_done = r.u64();
  snap.virtual_s = r.f64();
  snap.campaign_rng = get_rng(r);
  const auto inj = r.blob();
  snap.injector.assign(inj.begin(), inj.end());
  const auto guard = r.blob();
  snap.guard.assign(guard.begin(), guard.end());
  const std::size_t n_metrics = r.count(/*min_element_bytes=*/8);
  snap.metrics.reserve(n_metrics);
  for (std::size_t i = 0; i < n_metrics; ++i) {
    snap.metrics.push_back(get_sample(r));
  }
  const std::size_t n_zones = r.count(4 + 5 * 8 + 16);
  snap.zones.reserve(n_zones);
  for (std::size_t i = 0; i < n_zones; ++i) {
    snap.zones.push_back(get_zone(r));
  }
  const auto drv = r.blob();
  snap.driver.assign(drv.begin(), drv.end());
  r.expect_end();
  return snap;
}

[[noreturn]] void throw_errno(const std::string& what) {
  throw CheckpointError(what + ": " + std::strerror(errno));
}

}  // namespace

std::vector<std::uint8_t> encode(const CampaignSnapshot& snap) {
  // One exactly-sized buffer: header placeholders, then the payload,
  // then the size and CRC patched in — no second copy of the image.
  ByteCounter counted;
  put_payload(counted, snap);
  ByteWriter w;
  w.reserve(kHeaderBytes + counted.size());
  w.u32(kMagic);
  w.u32(kCheckpointVersion);
  w.u64(0);  // payload size
  w.u32(0);  // payload CRC
  put_payload(w, snap);
  const auto payload =
      std::span<const std::uint8_t>(w.data()).subspan(kHeaderBytes);
  w.patch_u64(kSizeAt, payload.size());
  w.patch_u32(kCrcAt, crc32(payload));
  return w.take();
}

CampaignSnapshot decode(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kHeaderBytes) {
    throw CheckpointError("checkpoint: file shorter than header");
  }
  ByteReader r(bytes);
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  std::uint64_t payload_size = 0;
  std::uint32_t crc = 0;
  try {
    magic = r.u32();
    version = r.u32();
    payload_size = r.u64();
    crc = r.u32();
  } catch (const CodecError& e) {
    throw CheckpointError(e.what());
  }
  if (magic != kMagic) {
    throw CheckpointError("checkpoint: bad magic");
  }
  if (version != kCheckpointVersion) {
    throw CheckpointError("checkpoint: unsupported version " +
                          std::to_string(version));
  }
  if (payload_size != bytes.size() - kHeaderBytes) {
    throw CheckpointError("checkpoint: payload size mismatch");
  }
  const auto payload = bytes.subspan(kHeaderBytes);
  if (crc32(payload) != crc) {
    throw CheckpointError("checkpoint: CRC mismatch");
  }
  try {
    return decode_payload(payload);
  } catch (const CodecError& e) {
    throw CheckpointError(e.what());
  }
}

std::size_t write_atomic(const std::string& path,
                         const CampaignSnapshot& snap) {
  return write_atomic_image(path, encode(snap));
}

std::size_t write_atomic_image(const std::string& path,
                               std::span<const std::uint8_t> image) {
  const std::string tmp = path + ".tmp";

  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw_errno("checkpoint: open " + tmp);
  std::size_t off = 0;
  while (off < image.size()) {
    const ssize_t n = ::write(fd, image.data() + off, image.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::unlink(tmp.c_str());
      throw_errno("checkpoint: write " + tmp);
    }
    off += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw_errno("checkpoint: fsync " + tmp);
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    throw_errno("checkpoint: close " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    throw_errno("checkpoint: rename to " + path);
  }
  // Durability of the rename itself: fsync the containing directory.
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash + 1);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);  // best-effort: some filesystems refuse directory fsync
    ::close(dfd);
  }
  return image.size();
}

CampaignSnapshot load(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw_errno("checkpoint: open " + path);
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      throw_errno("checkpoint: read " + path);
    }
    if (n == 0) break;
    bytes.insert(bytes.end(), buf, buf + n);
  }
  ::close(fd);
  return decode(bytes);
}

void restore_metrics(
    obs::MetricsRegistry& reg,
    const std::vector<obs::MetricsRegistry::Sample>& samples) {
  reg.clear();
  for (const auto& s : samples) {
    switch (s.kind) {
      case 'c':
        reg.counter(s.name, s.labels).add(s.value);
        break;
      case 'g':
        reg.gauge(s.name, s.labels).set(s.value);
        break;
      case 'h': {
        obs::Histogram& h = reg.histogram(s.name, s.labels, s.bounds);
        h.absorb(s.bounds, s.buckets, s.count, s.sum, s.min, s.max);
        break;
      }
      default:
        throw CheckpointError("restore_metrics: unknown sample kind");
    }
  }
}

}  // namespace sensedroid::fault
