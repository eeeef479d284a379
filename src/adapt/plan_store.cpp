#include "adapt/plan_store.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/plan_io.hpp"
#include "util/fsync.hpp"
#include "util/log.hpp"

namespace spmv::adapt {

namespace {

/// row_hash travels as a hex string: prof::Json numbers are doubles, whose
/// 53-bit mantissa would silently corrupt a 64-bit hash.
std::string hash_to_hex(std::uint64_t h) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(h));
  return std::string(buf);
}

/// Writes all of `data` to `fd`, retrying short writes and EINTR.
bool write_all(int fd, const std::string& data) {
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<std::size_t>(n);
  }
  return true;
}

std::uint64_t hash_from_hex(const std::string& s) {
  return std::stoull(s, nullptr, 16);
}

/// prof::Json numbers are doubles; static_cast of a non-integral,
/// out-of-range, or (for unsigned targets) negative double is undefined
/// behaviour, and the store file is untrusted input. Throws so the caller's
/// per-entry catch counts the entry as malformed.
std::int64_t checked_i64(const prof::Json& j, const char* what,
                         std::int64_t lo, std::int64_t hi) {
  const double v = j.as_number();
  if (!std::isfinite(v) || v != std::floor(v) ||
      v < static_cast<double>(lo) || v > static_cast<double>(hi))
    throw std::runtime_error(std::string("plan store: ") + what +
                             " out of range");
  return static_cast<std::int64_t>(v);
}

constexpr std::int64_t kMaxI64Double = 1LL << 53;  // exact-double ceiling

prof::Json fingerprint_to_json(const serve::Fingerprint& f) {
  prof::Json j = prof::Json::object();
  j.set("rows", f.rows);
  j.set("cols", f.cols);
  j.set("nnz", f.nnz);
  j.set("row_hash", hash_to_hex(f.row_hash));
  return j;
}

serve::Fingerprint fingerprint_from_json(const prof::Json& j) {
  serve::Fingerprint f;
  f.rows = checked_i64(j.at("rows"), "rows", 0, kMaxI64Double);
  f.cols = checked_i64(j.at("cols"), "cols", 0, kMaxI64Double);
  f.nnz = checked_i64(j.at("nnz"), "nnz", 0, kMaxI64Double);
  f.row_hash = hash_from_hex(j.at("row_hash").as_string());
  return f;
}

std::int64_t unix_now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

PlanStore::PlanStore(std::string path, std::string device_config,
                     std::string model_version)
    : path_(std::move(path)),
      device_(std::move(device_config)),
      model_(std::move(model_version)) {}

PlanStoreStats PlanStore::load() {
  std::string text;
  {
    std::ifstream in(path_);
    if (!in) {
      // Missing file = empty store; the normal first-run state.
      std::lock_guard<std::mutex> lock(mutex_);
      return stats_;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    text = ss.str();
  }

  prof::Json doc;
  try {
    doc = prof::Json::parse(text);
    if (!doc.is_object()) throw std::runtime_error("root is not an object");
  } catch (const std::exception& e) {
    util::log_warn() << "plan store " << path_
                     << ": unreadable, starting empty (" << e.what() << ")";
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.skipped_malformed += 1;
    return stats_;
  }

  std::lock_guard<std::mutex> lock(mutex_);

  // Type-check before as_int(): a type-confused schema field must count as
  // a schema mismatch, not throw out of load(). Comparing as_number avoids
  // the out-of-range cast for absurd values like 1e300.
  const prof::Json* schema = doc.find("schema");
  const bool schema_ok =
      schema != nullptr && schema->type() == prof::Json::Type::Number &&
      schema->as_number() >= static_cast<double>(kStoreSchemaMinSupported) &&
      schema->as_number() <= static_cast<double>(kStoreSchemaVersion) &&
      schema->as_number() == std::floor(schema->as_number());
  if (!schema_ok) {
    util::log_warn() << "plan store " << path_ << ": schema "
                     << (schema != nullptr ? schema->dump(0) : "<missing>")
                     << " outside supported [" << kStoreSchemaMinSupported
                     << ", " << kStoreSchemaVersion << "], ignoring file";
    stats_.skipped_schema += 1;
    return stats_;
  }

  const prof::Json* entries = doc.find("entries");
  if (entries == nullptr || !entries->is_array()) {
    util::log_warn() << "plan store " << path_
                     << ": no entries array, starting empty";
    stats_.skipped_malformed += 1;
    return stats_;
  }

  for (const prof::Json& e : entries->items()) {
    try {
      const std::string& dev = e.at("device").as_string();
      const std::string& model = e.at("model").as_string();
      if (dev != device_) {
        util::log_info() << "plan store: skipping entry for device '" << dev
                         << "' (this device: '" << device_ << "')";
        stats_.skipped_device += 1;
        foreign_.push_back(e);
        continue;
      }
      if (model != model_) {
        util::log_info() << "plan store: skipping entry for model '" << model
                         << "' (this model: '" << model_ << "')";
        stats_.skipped_model += 1;
        foreign_.push_back(e);
        continue;
      }
      StoredPlan sp;
      sp.plan = core::plan_from_json(e.at("plan"));
      if (sp.plan.backend != exec::BackendKind::Native) {
        stats_.skipped_backend += 1;
        foreign_.push_back(e);
        continue;
      }
      if (const prof::Json* v = e.find("gflops"); v != nullptr)
        sp.gflops = v->as_number();
      if (const prof::Json* v = e.find("trials"); v != nullptr)
        sp.trials = static_cast<std::uint64_t>(
            checked_i64(*v, "trials", 0, kMaxI64Double));
      if (const prof::Json* v = e.find("saved_unix_ms"); v != nullptr)
        sp.saved_unix_ms = checked_i64(*v, "saved_unix_ms", 0, kMaxI64Double);
      if (const prof::Json* v = e.find("last_used_unix_ms"); v != nullptr)
        sp.last_used_unix_ms =
            checked_i64(*v, "last_used_unix_ms", 0, kMaxI64Double);
      // Pre-TTL artifacts have no usage stamp; age from the save time.
      if (sp.last_used_unix_ms == 0) sp.last_used_unix_ms = sp.saved_unix_ms;
      map_[fingerprint_from_json(e.at("fingerprint"))] = std::move(sp);
      stats_.loaded += 1;
    } catch (const std::exception& ex) {
      util::log_warn() << "plan store " << path_
                       << ": skipping malformed entry (" << ex.what() << ")";
      stats_.skipped_malformed += 1;
    }
  }
  return stats_;
}

void PlanStore::flush() const {
  prof::Json entries = prof::Json::array();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [key, sp] : map_) {
      prof::Json e = prof::Json::object();
      e.set("fingerprint", fingerprint_to_json(key));
      e.set("device", device_);
      e.set("model", model_);
      e.set("plan", core::plan_to_json(sp.plan));
      e.set("gflops", sp.gflops);
      e.set("trials", sp.trials);
      e.set("saved_unix_ms", sp.saved_unix_ms);
      e.set("last_used_unix_ms", sp.last_used_unix_ms);
      entries.push_back(std::move(e));
    }
    for (const prof::Json& e : foreign_) entries.push_back(e);
  }
  prof::Json doc = prof::Json::object();
  doc.set("schema", kStoreSchemaVersion);
  doc.set("entries", std::move(entries));

  // pid + counter: unique across processes and across stores of one
  // process, so two writers never share (and clobber) one temp file.
  static std::atomic<std::uint64_t> next_tmp{0};
  const std::string tmp = path_ + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(next_tmp.fetch_add(1));
  const std::string body = doc.dump(2) + "\n";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC,
                        0644);
  if (fd < 0) throw std::runtime_error("cannot write plan store: " + tmp);
  bool ok = write_all(fd, body) && ::fsync(fd) == 0;
  ok = ::close(fd) == 0 && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    throw std::runtime_error("error writing plan store: " + tmp);
  }
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("cannot rename " + tmp + " -> " + path_);
  }
  util::fsync_parent_dir(path_);
}

std::optional<StoredPlan> PlanStore::lookup(const serve::Fingerprint& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = map_.find(key);
  if (it == map_.end()) return std::nullopt;
  it->second.last_used_unix_ms = unix_now_ms();
  return it->second;
}

void PlanStore::put(const serve::Fingerprint& key, const StoredPlan& value) {
  exec::require_native(value.plan.backend, "PlanStore::put");
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = map_.find(key);
  if (it != map_.end() && it->second.plan.revision > value.plan.revision)
    return;  // stale writer: a newer revision is already stored
  StoredPlan sp = value;
  if (sp.saved_unix_ms == 0) sp.saved_unix_ms = unix_now_ms();
  if (sp.last_used_unix_ms == 0) sp.last_used_unix_ms = unix_now_ms();
  map_[key] = std::move(sp);
}

bool PlanStore::erase(const serve::Fingerprint& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (map_.erase(key) == 0) return false;
  stats_.erased += 1;
  return true;
}

std::size_t PlanStore::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return map_.size();
}

std::vector<std::pair<serve::Fingerprint, StoredPlan>> PlanStore::entries()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<serve::Fingerprint, StoredPlan>> out;
  out.reserve(map_.size());
  for (const auto& [key, sp] : map_) out.emplace_back(key, sp);
  return out;
}

std::size_t PlanStore::gc() {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t dropped = foreign_.size();
  foreign_.clear();
  return dropped;
}

std::size_t PlanStore::gc_expired(std::int64_t ttl_ms, std::int64_t now_ms) {
  if (ttl_ms < 0) return 0;
  if (now_ms == 0) now_ms = unix_now_ms();
  const std::int64_t cutoff = now_ms - ttl_ms;
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t dropped = 0;
  for (auto it = map_.begin(); it != map_.end();) {
    const StoredPlan& sp = it->second;
    const std::int64_t used =
        std::max(sp.last_used_unix_ms, sp.saved_unix_ms);
    if (used < cutoff) {
      it = map_.erase(it);
      dropped += 1;
    } else {
      ++it;
    }
  }
  return dropped;
}

PlanStoreStats PlanStore::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::string PlanStore::device_config_string(const clsim::Device& device) {
  std::ostringstream ss;
  ss << "cu=" << device.resolved_compute_units()
     << " group=" << device.max_group_size
     << " lds=" << device.local_mem_bytes;
  return ss.str();
}

}  // namespace spmv::adapt
