// Host wall-clock benchmark for MND-MST (perfbench/README.md).
//
// One timed operation is a *solve*: mst::run_mnd_mst (or
// run_mnd_mst_streamed) on an input generated during setup, checked against
// the exact Kruskal forest. `--trace 0` measures the end-to-end metrics
// with tracing off. `--trace 1` alternates untraced and traced solves and
// reads per-phase wall time from the engine's span trace plus the metrics
// registry. Both modes also time the single-machine references (CSR build,
// Boruvka, Kruskal) in this process, so "distance from the speed of light"
// is one division. The last stdout line is one JSON object.
//
//   mnd_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--size full|tiny]
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/mndg.hpp"
#include "graph/reference_mst.hpp"
#include "hypar/stream_load.hpp"
#include "mst/mnd_mst.hpp"
#include "util/check.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

using namespace mnd;

namespace {

constexpr int kSetupReps = 3;  // setup_s is the median of these
// Timed solves per run at the least, whatever --seconds says.
constexpr std::uint64_t kMinSolves = 3;
constexpr std::uint64_t kMinTracedRunSolves = 4;  // two of each kind

// ---- workloads -------------------------------------------------------------

// Each workload is one fixed graph whose edge weights are drawn from --seed,
// as the paper assigns random weights to fixed real graphs. Drawing the
// structure from the seed too would swing the merge work (levels, ring
// rounds, virtual time) by more than the bounds allow.
constexpr std::uint64_t kStructureSeed = 2018;

graph::EdgeList make_rmat(bool tiny) {
  const graph::VertexId log2v = tiny ? 10 : 16;
  return graph::rmat(log2v, std::size_t{16} << log2v, kStructureSeed);
}

// The it-2004 stand-in's generator parameters (graph/datasets.cpp) at 8x
// its vertex and edge count; tiny is 1/16 of the stand-in.
graph::EdgeList make_web(bool tiny) {
  graph::WebGraphParams p;
  p.n = graph::VertexId{1} << (tiny ? 10 : 17);
  p.target_edges = tiny ? 28'125 : 3'600'000;
  p.locality_alpha = 0.95;
  p.hub_fraction = 0.05;
  p.num_hubs = 32;
  p.seed = kStructureSeed;
  return graph::web_graph(p);
}

graph::EdgeList make_road(bool tiny) {
  const graph::VertexId side = tiny ? 32 : 1024;
  return graph::road_grid(side, side, /*diag_p=*/0.03, /*drop_p=*/0.30,
                          kStructureSeed);
}

struct Workload {
  const char* name;
  int nodes;
  std::size_t threads;  // per rank; 0 = the library default
  bool filter;
  bool streamed;  // solve through the chunked .mndg loader
  graph::EdgeList (*make)(bool tiny);
};

// Why these three: perfbench/README.md.
constexpr Workload kWorkloads[] = {
    {"rmat-1node", 1, 0, false, false, make_rmat},
    {"web-4node-filter", 4, 1, true, false, make_web},
    {"road-4node-stream", 4, 1, false, true, make_road},
};

// ---- arguments -------------------------------------------------------------

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool tiny = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "mnd_perfbench: " << why
            << "\nusage: mnd_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--size full|tiny]\nworkloads:";
  for (const Workload& w : kWorkloads) std::cerr << ' ' << w.name;
  std::cerr << '\n';
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != text.size() || text[0] == '-') {
    usage(flag + " wants a non-negative integer, got \"" + text + "\"");
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) a.workload = &w;
      }
      if (a.workload == nullptr) usage("unknown workload \"" + value + "\"");
    } else if (flag == "--seed") {
      a.seed = parse_uint(flag, value);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = static_cast<double>(parse_uint(flag, value));
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace wants 0 or 1");
      a.trace = value == "1";
      have_trace = true;
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") usage("--size wants full|tiny");
      a.tiny = value == "tiny";
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.workload == nullptr || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return a;
}

// ---- metrics output --------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double median(std::vector<double> v) {
  return v.empty() ? 0.0 : percentile(std::move(v), 50.0);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// Median and every sample; for solves also the highest percentile that
// still has ten samples beyond it.
void print_timing(const char* what, const std::vector<double>& t,
                  bool tail = false) {
  std::printf("%s: median %.6f s over %zu [", what, median(t), t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    std::printf("%s%.4f", i == 0 ? "" : " ", t[i]);
  }
  std::printf("]");
  if (tail && t.size() >= 11) {
    const double q = std::floor(100.0 * static_cast<double>(t.size() - 10) /
                                static_cast<double>(t.size()));
    std::printf(", p%.0f %.6f s (10 samples beyond)", q, percentile(t, q));
  } else if (tail) {
    std::printf(", too few for a tail percentile with 10 samples beyond");
  }
  std::printf("\n");
}

// ---- process memory (Linux procfs) ---------------------------------------

// Lowers the kernel's peak-RSS mark (VmHWM) to the current RSS, so the
// solve phase's peak is not masked by setup's high-water mark.
bool reset_peak_rss() {
  malloc_trim(0);  // hand setup's freed heap back first
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

// Keeps freed heap memory in the process from here on. Otherwise every
// solve re-faults its working set from the kernel, and on a VM whose
// balloon reports free pages to the host, the price of those faults swings
// with the host's memory load, by up to a third of a solve.
void keep_freed_memory() {
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, -1);
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

// ---- setup -----------------------------------------------------------------

struct Input {
  graph::EdgeList el;
  graph::MstResult ref;  // the exact Kruskal forest
  std::string mndg;      // streamed workloads only: the encoded input
  double kruskal_s = 0.0;
};

Input make_input(const Workload& w, const Args& a) {
  Input in;
  in.el = w.make(a.tiny);
  in.el.randomize_weights(a.seed, 1, 1'000'000);
  WallTimer k;
  in.ref = graph::kruskal_mst(in.el);
  in.kruskal_s = k.seconds();
  if (w.streamed) {
    std::ostringstream os;
    graph::write_mndg(in.el, os);
    in.mndg = std::move(os).str();
  }
  return in;
}

// ---- solves ----------------------------------------------------------------

struct Solve {
  double wall_s = 0.0;
  bool ok = false;  // returned, and the forest equals Kruskal's
  mst::MndMstReport report;
};

Solve run_solve(const Workload& w, const Input& in, bool traced) {
  mst::MndMstOptions opts;
  opts.num_nodes = w.nodes;
  opts.threads = w.threads;
  if (w.filter) opts.engine.filter.mode = mst::FilterMode::kOn;
  opts.collect_traces = traced;
  Solve s;
  try {
    std::istringstream stream;
    if (w.streamed) stream.str(in.mndg);  // copied outside the timed region
    WallTimer t;
    s.report = w.streamed ? mst::run_mnd_mst_streamed(stream, opts)
                          : mst::run_mnd_mst(in.el, opts);
    s.wall_s = t.seconds();
  } catch (const std::exception& e) {
    std::cerr << "FAILED: solve threw: " << e.what() << '\n';
    return s;
  }
  s.ok = s.report.forest.edges == in.ref.edges &&
         s.report.forest.total_weight == in.ref.total_weight;
  if (!s.ok) {
    std::cerr << "FAILED: forest differs from Kruskal ("
              << s.report.forest.edges.size() << " edges, weight "
              << s.report.forest.total_weight << " vs " << in.ref.edges.size()
              << " edges, weight " << in.ref.total_weight << ")\n";
  }
  return s;
}

std::uint64_t ring_rounds(const mst::MndMstReport& r) {
  std::uint64_t n = 0;
  for (const hypar::RankTrace& t : r.traces) {
    n += static_cast<std::uint64_t>(t.ring_rounds);
  }
  return n;
}

// Counts solves and enforces the two checks: the forest equals Kruskal's,
// and the deterministic outputs (virtual makespan, bytes on the wire, ring
// rounds) repeat exactly across every solve, traced or not.
class Checker {
 public:
  void check(const Solve& s) {
    ++attempted_;
    if (!s.ok) {
      ++mismatched_;
      ++failed_;
      return;
    }
    const mst::MndMstReport& r = s.report;
    const Fingerprint fp{r.total_seconds, r.run.total_bytes_sent(),
                         ring_rounds(r)};
    bool same = true;
    if (!first_) {
      first_ = fp;
    } else if (!(fp == *first_)) {
      same = false;
    }
    if (!r.run.rank_traces.empty()) {
      // comm.bytes_wire is recorded only when traces are collected.
      const std::uint64_t wire =
          r.run.merged_metrics().counter("comm.bytes_wire");
      if (!first_wire_) {
        first_wire_ = wire;
      } else if (wire != *first_wire_) {
        same = false;
      }
    }
    if (!same) {
      std::cerr << "FAILED: nondeterministic solve: virtual_s "
                << fp.virtual_s << " bytes " << fp.bytes << " ring_rounds "
                << fp.ring_rounds << " differ from the first solve\n";
      ++failed_;
    }
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  double match_rate() const {
    return 1.0 - ratio(static_cast<double>(mismatched_),
                       static_cast<double>(attempted_));
  }
  double virtual_s() const { return first_ ? first_->virtual_s : 0.0; }

 private:
  struct Fingerprint {
    double virtual_s;
    std::uint64_t bytes;
    std::uint64_t ring_rounds;
    bool operator==(const Fingerprint&) const = default;
  };
  std::uint64_t attempted_ = 0;
  std::uint64_t mismatched_ = 0;  // threw, or forest differs
  std::uint64_t failed_ = 0;      // mismatched or nondeterministic
  std::optional<Fingerprint> first_;
  std::optional<std::uint64_t> first_wire_;
};

// ---- per-layer numbers from one traced solve -------------------------------

// Main-track phase spans, in pipeline order. ringRound and leaderMerge nest
// inside mergeParts; the rest are top-level.
constexpr const char* kPhases[] = {
    "partGraph",  "filterEdges", "makeGhost",   "indComp",       "mergeParts",
    "ringRound",  "leaderMerge", "postProcess", "collectResults"};

std::vector<Metric> trace_layers(const Solve& s) {
  const mst::MndMstReport& r = s.report;
  // Span wall time per phase name (summed over levels) and the sum of the
  // top-level spans, per rank. The slowest rank has the largest top sum.
  const std::size_t ranks = r.run.rank_traces.size();
  std::vector<std::map<std::string, double, std::less<>>> phase(ranks);
  std::vector<double> top(ranks, 0.0);
  std::size_t slow = 0;
  for (std::size_t k = 0; k < ranks; ++k) {
    for (const obs::SpanRecord& span : r.run.rank_traces[k].spans) {
      if (span.track != obs::Tracer::kMainTrack) continue;
      const double d = (span.wall_end_us - span.wall_begin_us) * 1e-6;
      phase[k][span.name] += d;
      if (span.depth == 0) top[k] += d;
    }
    if (top[k] > top[slow]) slow = k;
  }
  std::vector<Metric> out;
  for (const char* p : kPhases) {
    double v = 0.0;
    if (ranks > 0) {
      const auto it = phase[slow].find(std::string_view(p));
      if (it != phase[slow].end()) v = it->second;
    }
    out.push_back({std::string("hypar.") + p + "_s", v, "s"});
  }
  out.push_back({"hypar.unspanned_s", s.wall_s - (ranks > 0 ? top[slow] : 0.0),
                 "s"});

  std::uint64_t levels = 0, comps = 0, frozen = 0, ghosts = 0;
  for (const hypar::RankTrace& t : r.traces) {
    levels = std::max(
        levels, static_cast<std::uint64_t>(t.levels_participated));
    comps += t.components_after_level0;
    frozen += t.frozen_after_level0;
    ghosts += t.ghost_edges;
  }
  out.push_back({"hypar.levels", static_cast<double>(levels), "count"});
  out.push_back({"hypar.ring_rounds", static_cast<double>(ring_rounds(r)),
                 "count"});
  out.push_back({"hypar.components_after_level0", static_cast<double>(comps),
                 "count"});
  out.push_back({"hypar.frozen_after_level0", static_cast<double>(frozen),
                 "count"});
  out.push_back({"hypar.ghost_edges", static_cast<double>(ghosts), "count"});

  const obs::MetricsRegistry m = r.run.merged_metrics();
  double wait = 0.0;
  for (const sim::CommStats& c : r.run.rank_comm) {
    wait = std::max(wait, c.wait_seconds);
  }
  out.push_back({"simcluster.messages_sent",
                 static_cast<double>(m.counter("comm.messages_sent")),
                 "count"});
  out.push_back({"simcluster.bytes_wire",
                 static_cast<double>(m.counter("comm.bytes_wire")), "B"});
  out.push_back({"simcluster.bytes_raw",
                 static_cast<double>(m.counter("comm.bytes_raw")), "B"});
  out.push_back({"simcluster.vt_comm_s", r.comm_seconds, "s"});
  out.push_back({"simcluster.vt_wait_s", wait, "s"});

  // No filter run means every edge survived it.
  const double scanned =
      static_cast<double>(m.counter("boruvka.filter.scanned_edges"));
  const double dropped =
      static_cast<double>(m.counter("boruvka.filter.dropped_edges"));
  out.push_back({"mst.filter_survival_rate",
                 scanned > 0.0 ? (scanned - dropped) / scanned : 1.0,
                 "ratio"});
  out.push_back({"mst.compactions",
                 static_cast<double>(m.counter("boruvka.compactions")),
                 "count"});
  out.push_back({"device.vt_indcomp_s", r.indcomp_seconds, "s"});
  out.push_back({"device.vt_merge_s", r.merge_seconds, "s"});
  out.push_back({"device.vt_postprocess_s", r.postprocess_seconds, "s"});
  return out;
}

// ---- single-machine references --------------------------------------------

// Samples of the speed-of-light rows: CSR build (at the solve's own thread
// count), sequential Boruvka, and (streamed workloads) the chunked loader.
struct References {
  std::size_t threads = 1;
  std::vector<double> csr_t, boruvka_t, stream_t;
  std::size_t stream_peak_bytes = 0;

  void time_round(const Workload& w, const Input& in) {
    {
      WallTimer t;
      const graph::Csr csr = graph::Csr::from_edge_list(in.el, threads);
      csr_t.push_back(t.seconds());
      WallTimer b;
      const graph::MstResult r = graph::boruvka_mst(csr);
      boruvka_t.push_back(b.seconds());
      MND_CHECK_MSG(r.edges == in.ref.edges,
                    "reference Boruvka disagrees with Kruskal");
    }
    if (w.streamed) {
      hypar::StreamLoadOptions so;
      so.ranks = w.nodes;
      so.threads = threads;
      std::istringstream stream(in.mndg);
      WallTimer t;
      const hypar::StreamedGraph sg = hypar::stream_load_mndg(stream, so);
      stream_t.push_back(t.seconds());
      stream_peak_bytes = sg.peak_rank_bytes;
    }
  }

  void print() const {
    print_timing("graph.csr_build_s", csr_t);
    print_timing("graph.ref_boruvka_s", boruvka_t);
    if (!stream_t.empty()) print_timing("hypar.stream_load_s", stream_t);
  }
};

// ---- main ------------------------------------------------------------------

int run(const Args& a) {
  const Workload& w = *a.workload;
  std::printf("perfbench %s seed=%llu seconds=%.0f trace=%d size=%s\n", w.name,
              static_cast<unsigned long long>(a.seed), a.seconds,
              a.trace ? 1 : 0, a.tiny ? "tiny" : "full");

  // Setup: generate + weight, Kruskal reference, (streamed) .mndg encode.
  std::vector<double> setup_t, kruskal_t;
  Input in;
  for (int i = 0; i < kSetupReps; ++i) {
    in = Input{};  // free the previous copy outside the timed region
    WallTimer t;
    in = make_input(w, a);
    setup_t.push_back(t.seconds());
    kruskal_t.push_back(in.kruskal_s);
  }
  const std::size_t edges = in.el.num_edges();
  std::printf("input: %u vertices, %zu edges; forest %zu edges\n",
              in.el.num_vertices(), edges, in.ref.edges.size());
  print_timing("setup_s", setup_t);

  // Warm-up: two untimed solves. The first runs as a one-off solve would,
  // from a trimmed heap with default malloc; VmHWM after it is
  // peak_rss_mb. The second fills the heap that keep_freed_memory() then
  // keeps warm for the timed solves.
  Checker checker;
  if (!reset_peak_rss()) std::cerr << "warning: could not reset VmHWM\n";
  checker.check(run_solve(w, in, /*traced=*/false));
  const double peak = peak_rss_mb();
  keep_freed_memory();
  checker.check(run_solve(w, in, /*traced=*/false));

  // The speed-of-light rows run once after every solve, so they sample the
  // same stretch of host time as the solves they are divided into.
  References refs;
  refs.threads = w.threads != 0 ? w.threads : default_thread_count();
  refs.time_round(w, in);

  std::vector<Metric> metrics;
  WallTimer clock;
  if (!a.trace) {
    std::vector<double> solve_t;
    for (std::uint64_t i = 0; i < kMinSolves || clock.seconds() < a.seconds;
         ++i) {
      const Solve s = run_solve(w, in, /*traced=*/false);
      checker.check(s);
      if (s.ok) solve_t.push_back(s.wall_s);
      refs.time_round(w, in);
    }
    print_timing("solve_s", solve_t, /*tail=*/true);
    refs.print();
    const double solve_s = median(solve_t);
    metrics = {
        {"solve_s", solve_s, "s"},
        {"edges_per_s", ratio(static_cast<double>(edges), solve_s), "1/s"},
        {"vs_boruvka_x", ratio(solve_s, median(refs.boruvka_t)), "x"},
        {"virtual_s", checker.virtual_s(), "s"},
        {"peak_rss_mb", peak, "MB"},
        {"setup_s", median(setup_t), "s"},
        {"forest_match_rate", checker.match_rate(), "ratio"},
    };
  } else {
    // Alternate untraced and traced solves so drift hits both alike.
    std::vector<double> plain_t;
    std::vector<std::pair<double, std::vector<Metric>>> traced;
    for (std::uint64_t i = 0;
         i < kMinTracedRunSolves || clock.seconds() < a.seconds; ++i) {
      const bool with_trace = i % 2 == 1;
      const Solve s = run_solve(w, in, with_trace);
      checker.check(s);
      if (s.ok && with_trace) traced.emplace_back(s.wall_s, trace_layers(s));
      if (s.ok && !with_trace) plain_t.push_back(s.wall_s);
      refs.time_round(w, in);
    }
    // Report the traced solve at the (lower) median wall time, whole, so
    // its top-level spans plus hypar.unspanned_s add up to its solve time.
    std::sort(traced.begin(), traced.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    std::vector<double> traced_t;
    for (const auto& t : traced) traced_t.push_back(t.first);
    print_timing("untraced solve_s", plain_t, /*tail=*/true);
    print_timing("traced solve_s", traced_t, /*tail=*/true);
    refs.print();
    print_timing("graph.ref_kruskal_s", kruskal_t);
    metrics = {
        {"graph.csr_build_s", median(refs.csr_t), "s"},
        {"graph.ref_boruvka_s", median(refs.boruvka_t), "s"},
        {"graph.ref_kruskal_s", median(kruskal_t), "s"},
        {"hypar.stream_load_s", median(refs.stream_t), "s"},
        {"hypar.stream_peak_rank_mb",
         static_cast<double>(refs.stream_peak_bytes) / (1024.0 * 1024.0),
         "MB"},
    };
    const double traced_s =
        traced.empty() ? 0.0 : traced[(traced.size() - 1) / 2].first;
    if (!traced.empty()) {
      const auto& layers = traced[(traced.size() - 1) / 2].second;
      metrics.insert(metrics.end(), layers.begin(), layers.end());
    }
    metrics.push_back({"obs.traced_solve_s", traced_s, "s"});
    metrics.push_back(
        {"obs.trace_overhead_x", ratio(traced_s, median(plain_t)), "x"});
  }
  const bool correct = checker.failed() == 0;
  print_result(correct, checker.attempted(), checker.failed(), metrics);
  if (!correct) {
    std::cerr << "FAILED: " << checker.failed() << " of "
              << checker.attempted() << " solves failed their checks\n";
  }
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  try {
    return run(a);
  } catch (const std::exception& e) {
    std::cerr << "mnd_perfbench: " << e.what() << '\n';
    return 1;
  }
}
