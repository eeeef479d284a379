#include "prof/trajectory.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace spmv::prof {

namespace {

/// Depth-first numeric-leaf flatten with dot-joined keys. Arrays are
/// skipped: their lengths vary run to run (bin lists, width histograms)
/// and a trajectory needs stable metric names.
void flatten(const Json& j, const std::string& prefix,
             std::vector<std::pair<std::string, double>>& out) {
  if (j.is_object()) {
    for (const auto& [key, value] : j.members()) {
      flatten(value, prefix.empty() ? key : prefix + "." + key, out);
    }
  } else if (j.type() == Json::Type::Number && !prefix.empty()) {
    out.emplace_back(prefix, j.as_number());
  }
}

std::string format_value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// Unicode sparkline of `values` (oldest left), scaled to their own
/// min..max; a flat series renders mid-height.
std::string sparkline(const std::vector<double>& values) {
  static const char* kBars[] = {"▁", "▂", "▃", "▄", "▅", "▆", "▇", "█"};
  if (values.empty()) return "";
  double lo = values[0];
  double hi = values[0];
  for (double v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  std::string out;
  for (double v : values) {
    int idx = 3;  // flat series: mid-height
    if (hi > lo) {
      idx = static_cast<int>((v - lo) / (hi - lo) * 7.0 + 0.5);
      idx = std::clamp(idx, 0, 7);
    }
    out += kBars[idx];
  }
  return out;
}

}  // namespace

const double* TrajectoryEntry::find(const std::string& name) const {
  for (const auto& [key, value] : metrics) {
    if (key == name) return &value;
  }
  return nullptr;
}

bool Trajectory::higher_is_better(const std::string& name) {
  // Throughput-like metrics (and the adapt benches' recovery fraction of
  // the oracle): a DROP is the regression. Everything else
  // (latency percentiles, seconds-flavored costs) regresses upward.
  return name.find("rps") != std::string::npos ||
         name.find("gflops") != std::string::npos ||
         name.find("speedup") != std::string::npos ||
         name.find("hit_rate") != std::string::npos ||
         name.find("recovery") != std::string::npos;
}

bool Trajectory::gated(const std::string& name) {
  // Only performance signals gate: throughput-like metrics and times.
  // Counters and sizes (batches, promotions, trials, rows, nnz) move with
  // batching and bandit noise or with the bench setup, not with speed, so
  // they are reported but never fail the check; config.* likewise.
  if (name.starts_with("config.")) return false;
  return higher_is_better(name) || name.ends_with("_s") ||
         name.ends_with("_ms") || name.ends_with("_us");
}

Trajectory Trajectory::from_json(const Json& j) {
  Trajectory t;
  for (const Json& ej : j.at("entries").items()) {
    TrajectoryEntry e;
    e.seq = ej.at("seq").as_uint();
    e.label = ej.at("label").as_string();
    if (const Json* s = ej.find("stream")) e.stream = s->as_string();
    for (const auto& [key, value] : ej.at("metrics").members())
      e.metrics.emplace_back(key, value.as_number());
    t.next_seq_ = std::max(t.next_seq_, e.seq + 1);
    t.entries_.push_back(std::move(e));
  }
  return t;
}

Json Trajectory::to_json() const {
  Json j = Json::object();
  j.set("version", 1);
  Json entries = Json::array();
  for (const TrajectoryEntry& e : entries_) {
    Json ej = Json::object();
    ej.set("seq", e.seq);
    ej.set("label", e.label);
    if (!e.stream.empty()) ej.set("stream", e.stream);
    Json metrics = Json::object();
    for (const auto& [key, value] : e.metrics) metrics.set(key, value);
    ej.set("metrics", std::move(metrics));
    entries.push_back(std::move(ej));
  }
  j.set("entries", std::move(entries));
  return j;
}

Trajectory Trajectory::load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Trajectory{};  // first run: no history yet
  std::ostringstream text;
  text << in.rdbuf();
  try {
    return from_json(Json::parse(text.str()));
  } catch (const std::exception& e) {
    throw std::runtime_error("trajectory file " + path +
                             " is corrupt: " + e.what());
  }
}

void Trajectory::save_file(const std::string& path) const {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp);
    if (!out)
      throw std::runtime_error("cannot write trajectory file: " + tmp);
    out << to_json().dump(2) << "\n";
    if (!out)
      throw std::runtime_error("error writing trajectory file: " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec)
    throw std::runtime_error("cannot replace trajectory file " + path + ": " +
                             ec.message());
}

void Trajectory::append(const Json& bench, const std::string& label,
                        std::size_t max_entries) {
  TrajectoryEntry e;
  e.seq = next_seq_++;
  e.label = label;
  // Stream identity: the bench's own name (+ mode), so one history file
  // can carry e.g. the standard and the sharded serve snapshots without
  // either gating against the other's schema.
  if (const Json* b = bench.find("bench");
      b && b->type() == Json::Type::String) {
    e.stream = b->as_string();
    if (const Json* m = bench.find("mode");
        m && m->type() == Json::Type::String)
      e.stream += "/" + m->as_string();
  }
  flatten(bench, "", e.metrics);
  entries_.push_back(std::move(e));
  const std::size_t cap = std::max<std::size_t>(1, max_entries);
  while (entries_.size() > cap) entries_.erase(entries_.begin());
}

TrajectoryCheck Trajectory::check(std::size_t window, double threshold,
                                  bool learned) const {
  if (window < 1)
    throw std::invalid_argument("Trajectory::check: window must be >= 1");
  if (threshold <= 0.0)
    throw std::invalid_argument("Trajectory::check: threshold must be > 0");
  TrajectoryCheck result;
  // Every stream is gated, in order of first appearance: its newest entry
  // against the last `window` entries OF THE SAME STREAM. Entries appended
  // from a different bench document neither pollute the means nor read as
  // schema drift.
  std::vector<std::string> streams;
  for (const TrajectoryEntry& e : entries_) {
    if (std::find(streams.begin(), streams.end(), e.stream) == streams.end())
      streams.push_back(e.stream);
  }
  for (const std::string& stream : streams) {
    std::vector<const TrajectoryEntry*> prior;
    for (const TrajectoryEntry& e : entries_) {
      if (e.stream == stream) prior.push_back(&e);
    }
    const TrajectoryEntry& head = *prior.back();
    prior.pop_back();
    if (prior.empty()) continue;  // young stream: observe only
    const std::size_t first =
        prior.size() > window ? prior.size() - window : 0;

    for (const auto& [name, head_value] : head.metrics) {
      double sum = 0.0;
      double sum_sq = 0.0;
      std::size_t n = 0;
      for (std::size_t i = first; i < prior.size(); ++i) {
        if (const double* v = prior[i]->find(name)) {
          sum += *v;
          sum_sq += *v * *v;
          n += 1;
        }
      }
      if (n == 0) continue;  // metric is new: observe only
      TrajectoryMetric m;
      m.stream = stream;
      m.name = name;
      m.head = head_value;
      m.window = sum / static_cast<double>(n);
      m.higher_is_better = higher_is_better(name);
      m.gated = gated(name);
      // Normalize direction so ratio > 1 always reads "worse than the
      // window". Non-positive sides defeat a ratio test; treat as neutral.
      if (m.head > 0.0 && m.window > 0.0)
        m.ratio = m.higher_is_better ? m.window / m.head : m.head / m.window;
      m.threshold = threshold;
      if (learned && m.window > 0.0 && n >= 2) {
        // Per-metric noise-derived gate: a head value beyond mean + 3σ of
        // its own window is an outlier regardless of what a one-size fixed
        // ratio says; the fixed `threshold` stays as the floor so a
        // low-noise metric cannot tighten into gating on measurement
        // jitter.
        const double variance = std::max(
            0.0, sum_sq / static_cast<double>(n) - m.window * m.window);
        const double sigma = std::sqrt(variance);
        m.threshold =
            std::max(threshold, (m.window + 3.0 * sigma) / m.window);
      }
      m.regressed = m.gated && m.ratio > m.threshold;
      result.metrics.push_back(std::move(m));
    }

    // Schema drift: a metric the stream's previous entry carried but its
    // head lost.
    for (const auto& [name, value] : prior.back()->metrics) {
      (void)value;
      if (head.find(name) == nullptr) result.missing.push_back({stream, name});
    }
  }
  return result;
}

std::string Trajectory::render_markdown(std::size_t window) const {
  std::string out = "# Perf trajectory\n\n";
  if (entries_.empty()) {
    out += "_No entries yet._\n";
    return out;
  }
  const TrajectoryEntry& head = entries_.back();
  out += "Entries: " + std::to_string(entries_.size()) + " · head: `" +
         head.label + "` (seq " + std::to_string(head.seq) + ")\n\n";
  out += "| metric | trend | head | window mean | Δ |\n";
  out += "|---|---|---:|---:|---:|\n";
  const std::size_t first =
      entries_.size() > window ? entries_.size() - window : 0;
  for (const auto& [name, head_value] : head.metrics) {
    std::vector<double> series;
    double sum = 0.0;
    std::size_t n = 0;
    for (std::size_t i = first; i < entries_.size(); ++i) {
      if (const double* v = entries_[i].find(name)) {
        series.push_back(*v);
        if (i + 1 < entries_.size()) {
          sum += *v;
          n += 1;
        }
      }
    }
    const double mean = n == 0 ? head_value : sum / static_cast<double>(n);
    double delta_pct = 0.0;
    if (mean > 0.0) delta_pct = (head_value / mean - 1.0) * 100.0;
    char delta[32];
    std::snprintf(delta, sizeof(delta), "%+.1f%%", delta_pct);
    out += "| `" + name + "` | " + sparkline(series) + " | " +
           format_value(head_value) + " | " + format_value(mean) + " | " +
           delta + " |\n";
  }
  return out;
}

}  // namespace spmv::prof
