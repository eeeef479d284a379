#include "prof/profile.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace spmv::prof {

void ServeStats::merge(const ServeStats& other) {
  requests += other.requests;
  rejected += other.rejected;
  batches += other.batches;
  queue_wait_total_s += other.queue_wait_total_s;
  queue_wait_max_s = std::max(queue_wait_max_s, other.queue_wait_max_s);
  exec_total_s += other.exec_total_s;
  layout_build_s += other.layout_build_s;
  cache_hits += other.cache_hits;
  cache_misses += other.cache_misses;
  cache_evictions += other.cache_evictions;
  cache_plan_hits += other.cache_plan_hits;
  cache_warm_hits += other.cache_warm_hits;
  cache_not_admitted += other.cache_not_admitted;
  planning_passes += other.planning_passes;
  cache_promotions += other.cache_promotions;
  cache_rebin_promotions += other.cache_rebin_promotions;
  if (batch_width_hist.size() < other.batch_width_hist.size())
    batch_width_hist.resize(other.batch_width_hist.size(), 0);
  for (std::size_t i = 0; i < other.batch_width_hist.size(); ++i)
    batch_width_hist[i] += other.batch_width_hist[i];
  request_latency.merge(other.request_latency);
  queue_wait.merge(other.queue_wait);
  batch_exec.merge(other.batch_exec);
  // Tenant blocks match by name, shard blocks by index; unseen ones append
  // (two sharded runs over different partitions still merge losslessly).
  for (const TenantStats& ot : other.tenants) {
    const auto it =
        std::find_if(tenants.begin(), tenants.end(),
                     [&](const TenantStats& t) { return t.name == ot.name; });
    if (it == tenants.end()) {
      tenants.push_back(ot);
      continue;
    }
    it->weight = ot.weight;
    it->requests += ot.requests;
    it->rejected += ot.rejected;
    it->dispatched += ot.dispatched;
    it->latency.merge(ot.latency);
  }
  for (const ShardStats& os : other.shards) {
    const auto it =
        std::find_if(shards.begin(), shards.end(),
                     [&](const ShardStats& sh) { return sh.shard == os.shard; });
    if (it == shards.end()) {
      shards.push_back(os);
      continue;
    }
    it->row_begin = os.row_begin;
    it->row_end = os.row_end;
    it->nnz = os.nnz;
    it->plan = os.plan;
    it->executions += os.executions;
    it->exec_total_s += os.exec_total_s;
    it->promotions += os.promotions;
  }
}

void RunProfile::add_bin_run(int bin_id, const std::string& kernel,
                             std::int64_t virtual_rows,
                             std::int64_t rows_covered,
                             std::int64_t nnz_covered, double seconds) {
  for (BinRunSample& s : bins) {
    if (s.bin_id == bin_id) {
      // One sample per bin (bins[*].nnz must sum to the matrix nnz). The
      // label follows the latest execution mode: a lazily amortized layout
      // flips "serial" to "serial+ell" mid-profile without splitting the
      // sample.
      s.kernel = kernel;
      s.virtual_rows = virtual_rows;
      s.rows = rows_covered;
      s.nnz = nnz_covered;
      s.seconds += seconds;
      s.launches += 1;
      return;
    }
  }
  BinRunSample s;
  s.bin_id = bin_id;
  s.kernel = kernel;
  s.virtual_rows = virtual_rows;
  s.rows = rows_covered;
  s.nnz = nnz_covered;
  s.seconds = seconds;
  s.launches = 1;
  const auto pos = std::find_if(bins.begin(), bins.end(), [&](const auto& b) {
    return b.bin_id > bin_id;
  });
  bins.insert(pos, std::move(s));
}

void RunProfile::add_candidate(const std::string& label, double measure_s,
                               std::int64_t measurements, double best_s) {
  tuning.push_back({label, measure_s, measurements, best_s});
  tuning_total_s += measure_s;
}

void RunProfile::merge_engine_delta(const EngineCountersSnapshot& delta) {
  engine.launches += delta.launches;
  engine.inline_launches += delta.inline_launches;
  engine.groups += delta.groups;
  engine.chunks += delta.chunks;
  engine.arena_high_water_bytes =
      std::max(engine.arena_high_water_bytes, delta.arena_high_water_bytes);
}

Json RunProfile::to_json() const {
  Json j = Json::object();

  Json matrix = Json::object();
  matrix.set("label", label);
  matrix.set("rows", rows);
  matrix.set("cols", cols);
  matrix.set("nnz", nnz);
  j.set("matrix", matrix);

  Json plan_j = Json::object();
  plan_j.set("summary", plan);
  Json timing = Json::object();
  timing.set("features_s", plan_timing.features_s);
  timing.set("predict_s", plan_timing.predict_s);
  timing.set("binning_s", plan_timing.binning_s);
  timing.set("total_s", plan_timing.total_s());
  plan_j.set("timing", timing);
  j.set("plan", plan_j);

  Json runs_j = Json::object();
  runs_j.set("count", runs);
  runs_j.set("total_s", run_total_s);
  // Only multi-vector runs that missed a blocked path record this; absent
  // from (and ignored in) pre-iter artifacts.
  if (spmm_fallback_columns != 0)
    runs_j.set("spmm_fallback_columns", spmm_fallback_columns);
  j.set("runs", runs_j);

  Json bins_j = Json::array();
  for (const BinRunSample& s : bins) {
    Json b = Json::object();
    b.set("bin", s.bin_id);
    b.set("kernel", s.kernel);
    b.set("virtual_rows", s.virtual_rows);
    b.set("rows", s.rows);
    b.set("nnz", s.nnz);
    b.set("seconds", s.seconds);
    b.set("launches", s.launches);
    bins_j.push_back(b);
  }
  j.set("bins", bins_j);

  Json eng = Json::object();
  eng.set("launches", engine.launches);
  eng.set("inline_launches", engine.inline_launches);
  eng.set("groups", engine.groups);
  eng.set("chunks", engine.chunks);
  eng.set("arena_high_water_bytes", engine.arena_high_water_bytes);
  j.set("engine", eng);

  Json tuning_j = Json::object();
  tuning_j.set("total_s", tuning_total_s);
  Json cands = Json::array();
  for (const CandidateCost& c : tuning) {
    Json cj = Json::object();
    cj.set("label", c.label);
    cj.set("measure_s", c.measure_s);
    cj.set("measurements", c.measurements);
    cj.set("best_s", c.best_s);
    cands.push_back(cj);
  }
  tuning_j.set("candidates", cands);
  j.set("tuning", tuning_j);

  if (!serve.empty()) {
    Json sv = Json::object();
    sv.set("requests", serve.requests);
    sv.set("rejected", serve.rejected);
    sv.set("batches", serve.batches);
    sv.set("queue_wait_total_s", serve.queue_wait_total_s);
    sv.set("queue_wait_max_s", serve.queue_wait_max_s);
    sv.set("exec_total_s", serve.exec_total_s);
    sv.set("layout_build_s", serve.layout_build_s);
    Json cache = Json::object();
    cache.set("hits", serve.cache_hits);
    cache.set("misses", serve.cache_misses);
    cache.set("evictions", serve.cache_evictions);
    cache.set("hit_rate", serve.cache_hit_rate());
    cache.set("plan_hits", serve.cache_plan_hits);
    cache.set("warm_hits", serve.cache_warm_hits);
    cache.set("not_admitted", serve.cache_not_admitted);
    cache.set("planning_passes", serve.planning_passes);
    cache.set("promotions", serve.cache_promotions);
    cache.set("rebin_promotions", serve.cache_rebin_promotions);
    sv.set("cache", cache);
    Json hist = Json::array();
    for (std::uint64_t n : serve.batch_width_hist) hist.push_back(n);
    sv.set("batch_width_hist", hist);
    if (!serve.request_latency.empty())
      sv.set("request_latency", serve.request_latency.to_json());
    if (!serve.queue_wait.empty())
      sv.set("queue_wait", serve.queue_wait.to_json());
    if (!serve.batch_exec.empty())
      sv.set("batch_exec", serve.batch_exec.to_json());
    // Sharded-serving blocks (arrays: the perf-trajectory flattener skips
    // arrays, so variable tenant/shard counts never churn the gated metric
    // schema).
    if (!serve.tenants.empty()) {
      Json tenants = Json::array();
      for (const TenantStats& t : serve.tenants) {
        Json tj = Json::object();
        tj.set("name", t.name);
        tj.set("weight", t.weight);
        tj.set("requests", t.requests);
        tj.set("rejected", t.rejected);
        tj.set("dispatched", t.dispatched);
        if (!t.latency.empty()) tj.set("latency", t.latency.to_json());
        tenants.push_back(std::move(tj));
      }
      sv.set("tenants", tenants);
    }
    if (!serve.shards.empty()) {
      Json shards = Json::array();
      for (const ShardStats& sh : serve.shards) {
        Json sj = Json::object();
        sj.set("shard", sh.shard);
        sj.set("row_begin", sh.row_begin);
        sj.set("row_end", sh.row_end);
        sj.set("nnz", sh.nnz);
        sj.set("plan", sh.plan);
        sj.set("executions", sh.executions);
        sj.set("exec_total_s", sh.exec_total_s);
        sj.set("promotions", sh.promotions);
        shards.push_back(std::move(sj));
      }
      sv.set("shards", shards);
    }
    j.set("serve", sv);
  }

  if (!adapt.empty()) {
    Json ad = Json::object();
    ad.set("trials", adapt.trials);
    ad.set("promotions", adapt.promotions);
    ad.set("regret_s", adapt.regret_s);
    ad.set("u_trials", adapt.u_trials);
    ad.set("u_promotions", adapt.u_promotions);
    ad.set("l_trials", adapt.l_trials);
    ad.set("l_promotions", adapt.l_promotions);
    j.set("adapt", ad);
  }

  if (threads_active_max != 0) {
    Json th = Json::object();
    th.set("active_max", threads_active_max);
    j.set("threads", th);
  }

  if (!trace_stats.empty()) {
    Json tr = Json::object();
    tr.set("events", trace_stats.events);
    tr.set("dropped_spans", trace_stats.dropped_spans);
    tr.set("threads", trace_stats.threads);
    j.set("trace", tr);
  }
  return j;
}

RunProfile RunProfile::from_json(const Json& j) {
  RunProfile p;
  const Json& matrix = j.at("matrix");
  p.label = matrix.at("label").as_string();
  p.rows = matrix.at("rows").as_int();
  p.cols = matrix.at("cols").as_int();
  p.nnz = matrix.at("nnz").as_int();

  const Json& plan_j = j.at("plan");
  p.plan = plan_j.at("summary").as_string();
  const Json& timing = plan_j.at("timing");
  p.plan_timing.features_s = timing.at("features_s").as_number();
  p.plan_timing.predict_s = timing.at("predict_s").as_number();
  p.plan_timing.binning_s = timing.at("binning_s").as_number();

  p.runs = j.at("runs").at("count").as_uint();
  p.run_total_s = j.at("runs").at("total_s").as_number();
  if (const Json* v = j.at("runs").find("spmm_fallback_columns");
      v != nullptr)
    p.spmm_fallback_columns = v->as_uint();

  for (const Json& b : j.at("bins").items()) {
    BinRunSample s;
    s.bin_id = static_cast<int>(b.at("bin").as_int());
    s.kernel = b.at("kernel").as_string();
    s.virtual_rows = b.at("virtual_rows").as_int();
    s.rows = b.at("rows").as_int();
    s.nnz = b.at("nnz").as_int();
    s.seconds = b.at("seconds").as_number();
    s.launches = b.at("launches").as_uint();
    p.bins.push_back(std::move(s));
  }

  const Json& eng = j.at("engine");
  p.engine.launches = eng.at("launches").as_uint();
  p.engine.inline_launches = eng.at("inline_launches").as_uint();
  p.engine.groups = eng.at("groups").as_uint();
  p.engine.chunks = eng.at("chunks").as_uint();
  p.engine.arena_high_water_bytes = eng.at("arena_high_water_bytes").as_uint();

  const Json& tuning_j = j.at("tuning");
  p.tuning_total_s = tuning_j.at("total_s").as_number();
  for (const Json& cj : tuning_j.at("candidates").items()) {
    CandidateCost c;
    c.label = cj.at("label").as_string();
    c.measure_s = cj.at("measure_s").as_number();
    c.measurements = cj.at("measurements").as_int();
    c.best_s = cj.at("best_s").as_number();
    p.tuning.push_back(std::move(c));
  }

  // Optional: only present when a serving layer recorded into the profile.
  if (const Json* sv = j.find("serve"); sv != nullptr) {
    p.serve.requests = sv->at("requests").as_uint();
    p.serve.rejected = sv->at("rejected").as_uint();
    p.serve.batches = sv->at("batches").as_uint();
    p.serve.queue_wait_total_s = sv->at("queue_wait_total_s").as_number();
    p.serve.queue_wait_max_s = sv->at("queue_wait_max_s").as_number();
    p.serve.exec_total_s = sv->at("exec_total_s").as_number();
    if (const Json* v = sv->find("layout_build_s"); v != nullptr)
      p.serve.layout_build_s = v->as_number();
    const Json& cache = sv->at("cache");
    p.serve.cache_hits = cache.at("hits").as_uint();
    p.serve.cache_misses = cache.at("misses").as_uint();
    p.serve.cache_evictions = cache.at("evictions").as_uint();
    // Warm-start counters arrived with the adapt layer; older artifacts
    // simply omit them.
    if (const Json* v = cache.find("warm_hits"); v != nullptr)
      p.serve.cache_warm_hits = v->as_uint();
    // The plan tier's counter is newer still.
    if (const Json* v = cache.find("plan_hits"); v != nullptr)
      p.serve.cache_plan_hits = v->as_uint();
    // Admission arrived after the plan tier.
    if (const Json* v = cache.find("not_admitted"); v != nullptr)
      p.serve.cache_not_admitted = v->as_uint();
    if (const Json* v = cache.find("planning_passes"); v != nullptr)
      p.serve.planning_passes = v->as_uint();
    if (const Json* v = cache.find("promotions"); v != nullptr)
      p.serve.cache_promotions = v->as_uint();
    if (const Json* v = cache.find("rebin_promotions"); v != nullptr)
      p.serve.cache_rebin_promotions = v->as_uint();
    for (const Json& n : sv->at("batch_width_hist").items())
      p.serve.batch_width_hist.push_back(n.as_uint());
    // Histograms arrived with this schema revision; older artifacts and
    // empty distributions simply omit them.
    if (const Json* h = sv->find("request_latency"); h != nullptr)
      p.serve.request_latency = LatencyHistogram::from_json(*h);
    if (const Json* h = sv->find("queue_wait"); h != nullptr)
      p.serve.queue_wait = LatencyHistogram::from_json(*h);
    if (const Json* h = sv->find("batch_exec"); h != nullptr)
      p.serve.batch_exec = LatencyHistogram::from_json(*h);
    // Sharded-serving blocks (spmv::shard); older artifacts omit them.
    if (const Json* tenants = sv->find("tenants"); tenants != nullptr) {
      for (const Json& tj : tenants->items()) {
        TenantStats t;
        t.name = tj.at("name").as_string();
        t.weight = tj.at("weight").as_number();
        t.requests = tj.at("requests").as_uint();
        t.rejected = tj.at("rejected").as_uint();
        t.dispatched = tj.at("dispatched").as_uint();
        if (const Json* h = tj.find("latency"); h != nullptr)
          t.latency = LatencyHistogram::from_json(*h);
        p.serve.tenants.push_back(std::move(t));
      }
    }
    if (const Json* shards = sv->find("shards"); shards != nullptr) {
      for (const Json& sj : shards->items()) {
        ShardStats sh;
        sh.shard = static_cast<int>(sj.at("shard").as_int());
        sh.row_begin = sj.at("row_begin").as_int();
        sh.row_end = sj.at("row_end").as_int();
        sh.nnz = sj.at("nnz").as_int();
        sh.plan = sj.at("plan").as_string();
        sh.executions = sj.at("executions").as_uint();
        sh.exec_total_s = sj.at("exec_total_s").as_number();
        sh.promotions = sj.at("promotions").as_uint();
        p.serve.shards.push_back(std::move(sh));
      }
    }
  }

  // Optional: only present when an online tuner recorded into the profile.
  if (const Json* ad = j.find("adapt"); ad != nullptr) {
    p.adapt.trials = ad->at("trials").as_uint();
    p.adapt.promotions = ad->at("promotions").as_uint();
    p.adapt.regret_s = ad->at("regret_s").as_number();
    // U-exploration counters arrived later; older artifacts omit them.
    // Artifacts from before the backend and format levels were removed
    // also carry b_/f_ trial and promotion counters, which are ignored.
    if (const Json* v = ad->find("u_trials"); v != nullptr)
      p.adapt.u_trials = v->as_uint();
    if (const Json* v = ad->find("u_promotions"); v != nullptr)
      p.adapt.u_promotions = v->as_uint();
    if (const Json* v = ad->find("l_trials"); v != nullptr)
      p.adapt.l_trials = v->as_uint();
    if (const Json* v = ad->find("l_promotions"); v != nullptr)
      p.adapt.l_promotions = v->as_uint();
  }

  // Optional: only present when tracing ran alongside the profiled work.
  if (const Json* th = j.find("threads"); th != nullptr)
    p.threads_active_max = th->at("active_max").as_int();
  if (const Json* tr = j.find("trace"); tr != nullptr) {
    p.trace_stats.events = tr->at("events").as_uint();
    p.trace_stats.dropped_spans = tr->at("dropped_spans").as_uint();
    p.trace_stats.threads = tr->at("threads").as_int();
  }
  return p;
}

std::string RunProfile::to_json_text(int indent) const {
  return to_json().dump(indent) + "\n";
}

void write_profile_file(const std::string& path, const RunProfile& profile) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write profile file: " + path);
  out << profile.to_json_text();
  if (!out) throw std::runtime_error("error writing profile file: " + path);
}

std::string prometheus_escape_label(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

namespace {

void metric(std::string& out, const std::string& name, const char* type,
            const char* help, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  out += "# HELP " + name + " " + help + "\n";
  out += "# TYPE " + name + " " + type + "\n";
  out += name + " " + buf + "\n";
}

/// A latency distribution as a Prometheus summary: quantiles + _sum/_count.
void summary(std::string& out, const std::string& name, const char* help,
             const LatencyHistogram& h) {
  out += "# HELP " + name + " " + help + "\n";
  out += "# TYPE " + name + " summary\n";
  const struct {
    const char* label;
    double p;
  } quantiles[] = {{"0.5", 50.0}, {"0.95", 95.0}, {"0.99", 99.0}};
  char buf[64];
  for (const auto& q : quantiles) {
    std::snprintf(buf, sizeof(buf), "%.9g", h.percentile(q.p));
    out += name + "{quantile=\"" + q.label + "\"} " + buf + "\n";
  }
  std::snprintf(buf, sizeof(buf), "%.9g", h.total_s());
  out += name + "_sum " + buf + "\n";
  out += name + "_count " + std::to_string(h.count()) + "\n";
}

/// Exemplar label values. Backend numbers follow exec::BackendKind (not
/// included here — prof sits below exec in the layering).
const char* backend_label(std::uint8_t backend) {
  switch (backend) {
    case 0: return "clsim";
    case 1: return "native";
    default: return "unknown";
  }
}

const char* promo_label(std::uint8_t level) {
  switch (level) {
    case 1: return "kernel";
    case 2: return "unit";
    default: return "none";
  }
}

std::string exemplar_text(const Exemplar& e) {
  char tid[32];
  std::snprintf(tid, sizeof(tid), "%016llx",
                static_cast<unsigned long long>(e.trace_id));
  char fp[32];
  std::snprintf(fp, sizeof(fp), "%016llx",
                static_cast<unsigned long long>(e.fingerprint));
  char val[64];
  std::snprintf(val, sizeof(val), "%.9g", e.value_s);
  std::string out = " # {trace_id=\"";
  out += tid;
  out += "\",fingerprint=\"";
  out += fp;
  out += "\",plan_revision=\"";
  out += std::to_string(e.plan_revision);
  out += "\",backend=\"";
  out += backend_label(e.backend);
  out += "\",formats=\"";
  out += e.formats ? "1" : "0";
  out += "\",promo_level=\"";
  out += promo_label(e.promo_level);
  if (e.shard >= 0) {
    out += "\",shard=\"";
    out += std::to_string(e.shard);
  }
  out += "\"} ";
  out += val;
  return out;
}

/// One labelled sample line (no HELP/TYPE header — callers emit the header
/// once and then one line per tenant/shard label set).
void labelled(std::string& out, const std::string& name,
              const std::string& labels, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  out += name + "{" + labels + "} " + buf + "\n";
}

/// A latency distribution as a full Prometheus histogram: cumulative
/// `le`-labelled bucket counts (non-empty buckets plus +Inf), _sum and
/// _count — and, OpenMetrics-style, each non-empty bucket's retained
/// exemplar appended after `#`.
void histogram(std::string& out, const std::string& name, const char* help,
               const LatencyHistogram& h) {
  out += "# HELP " + name + " " + help + "\n";
  out += "# TYPE " + name + " histogram\n";
  char buf[64];
  std::uint64_t cum = 0;
  for (int i = 0; i < LatencyHistogram::kBuckets; ++i) {
    const std::uint64_t n = h.buckets()[static_cast<std::size_t>(i)];
    if (n == 0) continue;
    cum += n;
    std::snprintf(buf, sizeof(buf), "%.9g",
                  LatencyHistogram::bucket_upper_bound(i));
    out += name + "_bucket{le=\"" + buf + "\"} " + std::to_string(cum);
    const Exemplar& e = h.exemplar(i);
    if (e.valid()) out += exemplar_text(e);
    out += "\n";
  }
  out += name + "_bucket{le=\"+Inf\"} " + std::to_string(h.count()) + "\n";
  std::snprintf(buf, sizeof(buf), "%.9g", h.total_s());
  out += name + "_sum " + buf + "\n";
  out += name + "_count " + std::to_string(h.count()) + "\n";
}

}  // namespace

std::string prometheus_text(const RunProfile& profile) {
  std::string out;
  if (!profile.label.empty()) {
    out += "# HELP spmv_profile_info Profile identity (value is always 1)\n";
    out += "# TYPE spmv_profile_info gauge\n";
    out += "spmv_profile_info{label=\"" +
           prometheus_escape_label(profile.label) + "\"} 1\n";
  }
  metric(out, "spmv_runs_total", "counter", "SpMV executions recorded",
         static_cast<double>(profile.runs));
  metric(out, "spmv_run_seconds_total", "counter",
         "Summed wall time of recorded executions", profile.run_total_s);
  metric(out, "spmv_plan_seconds", "gauge",
         "Plan construction time (features + predict + binning)",
         profile.plan_timing.total_s());
  metric(out, "spmv_engine_launches_total", "counter",
         "Engine kernel launches", static_cast<double>(profile.engine.launches));
  metric(out, "spmv_engine_groups_total", "counter",
         "Engine parallel group dispatches",
         static_cast<double>(profile.engine.groups));
  if (profile.spmm_fallback_columns != 0)
    metric(out, "spmv_spmm_fallback_columns_total", "counter",
           "Dense RHS columns executed via per-column fallback",
           static_cast<double>(profile.spmm_fallback_columns));
  const ServeStats& s = profile.serve;
  if (!s.empty()) {
    metric(out, "spmv_serve_requests_total", "counter",
           "Requests accepted into the serving queue",
           static_cast<double>(s.requests));
    metric(out, "spmv_serve_rejected_total", "counter",
           "Requests bounced by backpressure", static_cast<double>(s.rejected));
    metric(out, "spmv_serve_batches_total", "counter",
           "Batches dispatched to execution", static_cast<double>(s.batches));
    metric(out, "spmv_serve_cache_hits_total", "counter",
           "Plan-cache hits", static_cast<double>(s.cache_hits));
    metric(out, "spmv_serve_cache_misses_total", "counter",
           "Plan-cache misses", static_cast<double>(s.cache_misses));
    metric(out, "spmv_serve_cache_evictions_total", "counter",
           "Plan-cache evictions", static_cast<double>(s.cache_evictions));
    metric(out, "spmv_serve_cache_hit_rate", "gauge",
           "Plan-cache hit fraction", s.cache_hit_rate());
    metric(out, "spmv_serve_cache_plan_hits_total", "counter",
           "Cache misses rebuilt from a kept plan",
           static_cast<double>(s.cache_plan_hits));
    metric(out, "spmv_serve_cache_warm_hits_total", "counter",
           "Cache misses satisfied from a warm PlanStore",
           static_cast<double>(s.cache_warm_hits));
    metric(out, "spmv_serve_cache_not_admitted_total", "counter",
           "Cache misses served uncached by the frequency gate",
           static_cast<double>(s.cache_not_admitted));
    metric(out, "spmv_serve_planning_passes_total", "counter",
           "Full predictor-driven planning passes",
           static_cast<double>(s.planning_passes));
    metric(out, "spmv_serve_cache_rebin_promotions_total", "counter",
           "Promotions that re-binned a cached plan",
           static_cast<double>(s.cache_rebin_promotions));
    summary(out, "spmv_serve_request_latency_seconds",
            "End-to-end request latency quantiles", s.request_latency);
    summary(out, "spmv_serve_queue_wait_seconds",
            "Submit-to-dispatch wait quantiles", s.queue_wait);
    summary(out, "spmv_serve_batch_exec_seconds",
            "Batch execution wall-time quantiles", s.batch_exec);
    histogram(out, "spmv_serve_request_latency_hist_seconds",
              "End-to-end request latency distribution", s.request_latency);
    histogram(out, "spmv_serve_queue_wait_hist_seconds",
              "Submit-to-dispatch wait distribution", s.queue_wait);
    histogram(out, "spmv_serve_batch_exec_hist_seconds",
              "Batch execution wall-time distribution", s.batch_exec);
    if (!s.tenants.empty()) {
      out += "# HELP spmv_serve_tenant_requests_total Requests accepted per"
             " tenant\n# TYPE spmv_serve_tenant_requests_total counter\n";
      for (const TenantStats& t : s.tenants)
        labelled(out, "spmv_serve_tenant_requests_total",
                 "tenant=\"" + prometheus_escape_label(t.name) + "\"",
                 static_cast<double>(t.requests));
      out += "# HELP spmv_serve_tenant_rejected_total Admission bounces per"
             " tenant (global bound or fair-queue quota)\n"
             "# TYPE spmv_serve_tenant_rejected_total counter\n";
      for (const TenantStats& t : s.tenants)
        labelled(out, "spmv_serve_tenant_rejected_total",
                 "tenant=\"" + prometheus_escape_label(t.name) + "\"",
                 static_cast<double>(t.rejected));
      out += "# HELP spmv_serve_tenant_latency_seconds Per-tenant end-to-end"
             " latency quantiles\n"
             "# TYPE spmv_serve_tenant_latency_seconds summary\n";
      for (const TenantStats& t : s.tenants) {
        const std::string tl =
            "tenant=\"" + prometheus_escape_label(t.name) + "\"";
        labelled(out, "spmv_serve_tenant_latency_seconds",
                 tl + ",quantile=\"0.5\"", t.latency.percentile(50.0));
        labelled(out, "spmv_serve_tenant_latency_seconds",
                 tl + ",quantile=\"0.95\"", t.latency.percentile(95.0));
        labelled(out, "spmv_serve_tenant_latency_seconds",
                 tl + ",quantile=\"0.99\"", t.latency.percentile(99.0));
        labelled(out, "spmv_serve_tenant_latency_seconds_sum", tl,
                 t.latency.total_s());
        labelled(out, "spmv_serve_tenant_latency_seconds_count", tl,
                 static_cast<double>(t.latency.count()));
      }
    }
    if (!s.shards.empty()) {
      out += "# HELP spmv_serve_shard_executions_total Kernel dispatches per"
             " row shard\n# TYPE spmv_serve_shard_executions_total counter\n";
      for (const ShardStats& sh : s.shards)
        labelled(out, "spmv_serve_shard_executions_total",
                 "shard=\"" + std::to_string(sh.shard) + "\"",
                 static_cast<double>(sh.executions));
      out += "# HELP spmv_serve_shard_exec_seconds_total Execution wall time"
             " per row shard\n"
             "# TYPE spmv_serve_shard_exec_seconds_total counter\n";
      for (const ShardStats& sh : s.shards)
        labelled(out, "spmv_serve_shard_exec_seconds_total",
                 "shard=\"" + std::to_string(sh.shard) + "\"",
                 sh.exec_total_s);
      out += "# HELP spmv_serve_shard_promotions_total Bandit promotions per"
             " row shard\n# TYPE spmv_serve_shard_promotions_total counter\n";
      for (const ShardStats& sh : s.shards)
        labelled(out, "spmv_serve_shard_promotions_total",
                 "shard=\"" + std::to_string(sh.shard) + "\"",
                 static_cast<double>(sh.promotions));
    }
  }
  const AdaptStats& a = profile.adapt;
  if (!a.empty()) {
    metric(out, "spmv_adapt_trials_total", "counter",
           "Shadow-measurement trials", static_cast<double>(a.trials));
    metric(out, "spmv_adapt_promotions_total", "counter",
           "Plan promotions into the cache",
           static_cast<double>(a.promotions));
    metric(out, "spmv_adapt_regret_seconds_total", "counter",
           "Wall time lost to losing challengers", a.regret_s);
    metric(out, "spmv_adapt_u_trials_total", "counter",
           "Binning-unit (U) exploration trials",
           static_cast<double>(a.u_trials));
    metric(out, "spmv_adapt_u_promotions_total", "counter",
           "Binning-unit (U) promotions", static_cast<double>(a.u_promotions));
    metric(out, "spmv_adapt_l_trials_total", "counter",
           "Latency-feedback challenger iterations observed",
           static_cast<double>(a.l_trials));
    metric(out, "spmv_adapt_l_promotions_total", "counter",
           "Latency-feedback promotions", static_cast<double>(a.l_promotions));
  }
  const TraceStats& t = profile.trace_stats;
  if (!t.empty()) {
    metric(out, "spmv_trace_events_total", "counter",
           "Trace spans surviving in the per-thread rings",
           static_cast<double>(t.events));
    metric(out, "spmv_trace_dropped_spans_total", "counter",
           "Trace spans lost to ring wrap-around",
           static_cast<double>(t.dropped_spans));
    metric(out, "spmv_trace_threads", "gauge",
           "Distinct recording threads", static_cast<double>(t.threads));
  }
  return out;
}

}  // namespace spmv::prof
