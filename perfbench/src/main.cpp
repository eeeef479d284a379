// perfbench — the repository benchmark program.
//
//   perfbench --workload solve_stream|serve_mix|shard_fanout --seed N
//             --seconds S --trace 0|1 [--spans-out FILE]
//
// Prints human-readable lines, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Exits 1 on a wrong
// result or a bad argument.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans-out FILE]\n");
}

std::string json_result(const perfbench::RunResult& r) {
  std::string out = std::string("{\"correct\": ") +
                    (r.correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failed) +
                    ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    out += (i > 0 ? ", " : "") + std::string("\"") + m.name +
           "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions o;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        o.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        o.trace = std::stoi(value) != 0;
      } else if (flag == "--spans-out") {
        o.spans_path = value;
      } else {
        usage();
        return 1;
      }
    } catch (const std::exception&) {
      usage();
      return 1;
    }
  }
  if (!have_workload || argc % 2 == 0 || !(o.seconds > 0.0)) {
    usage();
    return 1;
  }

  // glibc raises its mmap threshold after each large free, so whether an
  // array of a few MiB lands in the heap (and stays resident after free)
  // depends on allocation history and on exact array sizes. A fixed 4 MiB
  // threshold maps every matrix-, layout- or vector-sized array on its own,
  // so peak RSS follows live memory; request-sized buffers stay in the heap.
  // Fixing it also stops glibc adjusting the trim threshold, which is set
  // to twice the mmap threshold as glibc's own adjustment would, so freed
  // request buffers are not handed back to the kernel on every free.
  mallopt(M_MMAP_THRESHOLD, 4 << 20);
  mallopt(M_TRIM_THRESHOLD, 8 << 20);

  perfbench::RunResult r;
  try {
    r = perfbench::run_workload(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  for (const auto& m : r.metrics)
    std::printf("%-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("%s\n", json_result(r).c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
