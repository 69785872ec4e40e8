// cknn_bench: the repository benchmark's program (perfbench/README.md).
//
//   cknn_bench --workload=<name> --seed=<n> --seconds=<s>
//              [--trace=<file>] [--scale=smoke]
//
// Runs one workload in this process and prints, as the last line of
// standard output, one JSON object: {"correct", "attempted", "failed",
// "metrics"}. Every timing is taken here, around calls into the library's
// public functions; nothing inside src/ is instrumented.
//
// Without --trace, the whole run is measured untraced and the metrics are
// the end-to-end set (serve_* add the generator lag the runner checks). With --trace,
// the run spends half its time untraced and half traced, writes the
// traced half's spans to <file> (one per line) and prints the per-layer
// set. The traced half also drives a mirror monitor (table2_*) or replays
// the request stream serially on a fresh server (serve_*).
//
// Every run checks the system's answers against NaiveOracle (oracle.h),
// which shares no code with the expansion core, after self-testing the
// oracle against SnapshotKnn.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <malloc.h>
#include <time.h>

#include "perfbench/oracle.h"
#include "perfbench/spans.h"
#include "src/core/gma.h"
#include "src/core/ima.h"
#include "src/core/knn_search.h"
#include "src/core/object_table.h"
#include "src/core/server.h"
#include "src/gen/network_gen.h"
#include "src/gen/workload.h"
#include "src/serve/front_end.h"
#include "src/util/rng.h"
#include "src/util/stopwatch.h"

namespace cknn::perfbench {
namespace {

// ------------------------------------------------------------- helpers --

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

Clock::duration Seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

/// Nearest-rank percentile (the convention of src/sim/metrics.cc); 0 for
/// an empty sample.
double Percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(v.size())));
  rank = std::max<std::size_t>(rank, 1);
  return v[rank - 1];
}

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

/// High-water resident set of this process (VmHWM), in MB.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::atof(line + 6);
  }
  std::fclose(f);
  return kb / 1024.0;
}

/// Restarts VmHWM from the current RSS (Linux >= 4.0). Where the kernel
/// refuses, the peak keeps counting from process start.
void ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return;
  std::fputs("5", f);
  std::fclose(f);
}

std::size_t BatchSize(const UpdateBatch& b) {
  return b.objects.size() + b.queries.size() + b.edges.size();
}

// -------------------------------------------------------------- report --

/// What the run prints: correctness, operation counts and named metrics.
class Report {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    metrics_.push_back(Metric{name, value, unit});
  }

  void Fail(const std::string& why) {
    correct_ = false;
    std::fprintf(stderr, "cknn_bench: FAIL: %s\n", why.c_str());
  }

  void Attempted(std::uint64_t n) { attempted_ += n; }
  void Failed(std::uint64_t n) { failed_ += n; }

  void Print() const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct_ ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      const double value = std::isfinite(m.value) ? m.value : 0.0;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), value, m.unit);
    }
    std::printf("}}\n");
  }

 private:
  struct Metric {
    std::string name;
    double value;
    const char* unit;
  };
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
};

// ----------------------------------------------------------- workloads --

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  std::string trace_path;  ///< Empty: untraced.
  bool smoke = false;
};

/// One workload's inputs. The network (10K target edges, network seed 1)
/// is fixed; the run's --seed drives placement, movement, request order,
/// read targets and oracle sampling.
struct Spec {
  bool serve = false;
  Algorithm algorithm = Algorithm::kIma;
  int shards = 1;
  int pipeline_depth = 1;
  NetworkGenConfig network;
  WorkloadConfig population;
  /// serve_*: open-loop offered updates/s; 0 = blocking Submit as fast as
  /// back-pressure allows.
  double rate = 0.0;
  bool reads = false;       ///< One ReadResult every 10 ms beside the writes.
  double warmup_s = 0.0;    ///< On a discarded front end, before measuring.
  /// Pre-generated requests for the blocking producer, cycled; an open
  /// loop pre-generates exactly what its schedule needs.
  std::size_t pool_requests = 0;
  std::size_t probe_requests = 0;  ///< Hostile-probe window (traced).
};

std::optional<Spec> SpecOf(const Options& opt) {
  Spec s;
  s.network.seed = 1;
  s.network.target_edges = opt.smoke ? 1000 : 10000;
  s.population.seed = opt.seed;
  if (opt.workload == "table2_ima" || opt.workload == "table2_gma") {
    // Table 2 defaults: uniform objects, Gaussian queries, f_obj = f_qry
    // = 10%, f_edg = 4%, speed 1 (the WorkloadConfig defaults).
    s.algorithm =
        opt.workload == "table2_ima" ? Algorithm::kIma : Algorithm::kGma;
    s.population.num_objects = opt.smoke ? 5000 : 100000;
    s.population.num_queries = opt.smoke ? 200 : 5000;
    s.population.k = opt.smoke ? 8 : 50;
    return s;
  }
  if (opt.workload == "serve_steady_ima" ||
      opt.workload == "serve_saturate_ima") {
    const bool steady = opt.workload == "serve_steady_ima";
    s.serve = true;
    s.shards = 2;
    s.pipeline_depth = 2;
    s.population.num_objects = opt.smoke ? 5000 : 200000;
    s.population.num_queries = opt.smoke ? 500 : 20000;
    s.population.k = opt.smoke ? 4 : 10;
    // 10K/s, not more: each tick carries a fixed cost of over 1 ms of
    // CPU, so at 30K/s windows grow until the marginal cost feeds back
    // into latency and the p50 drifts within a run (README.md, findings).
    s.rate = steady ? (opt.smoke ? 2000.0 : 10000.0) : 0.0;
    s.reads = steady;
    s.warmup_s = opt.smoke ? 0.2 : 2.0;
    s.pool_requests = opt.smoke ? 50000 : 1000000;
    s.probe_requests = opt.smoke ? 200 : 2000;
    return s;
  }
  return std::nullopt;
}

// --------------------------------------------------------------- setup --

struct Deployment {
  std::unique_ptr<MonitoringServer> server;
  std::unique_ptr<Workload> workload;  ///< Reads the server's network.
};

/// One set-up: network generation, spatial index and server construction,
/// then the initial install (`Tick(Initial())` + `Drain`). Generating the
/// initial placement is input generation and is not timed.
Deployment SetUp(const Spec& spec, double* seconds, Report* report) {
  Deployment d;
  const Stopwatch build;
  d.server = std::make_unique<MonitoringServer>(
      GenerateRoadNetwork(spec.network), spec.algorithm, spec.shards,
      spec.pipeline_depth);
  const double build_s = build.ElapsedSeconds();
  d.workload = std::make_unique<Workload>(
      &d.server->network(), &d.server->spatial_index(), spec.population);
  const UpdateBatch initial = d.workload->Initial();
  const Stopwatch install;
  Status status = d.server->Tick(initial);
  if (status.ok()) status = d.server->Drain();
  *seconds = build_s + install.ElapsedSeconds();
  if (!status.ok()) report->Fail("initial install: " + status.ToString());
  return d;
}

/// Prints an FNV-1a digest of the generated initial placement to stderr,
/// so a run names the inputs it measured (the smoke check uses it to show
/// that --seed reaches the generator and that a seed reproduces them).
void PrintInputDigest(const Workload& workload) {
  std::uint64_t h = 14695981039346656037ULL;
  auto mix = [&h](const NetworkPoint& p) {
    unsigned char bytes[sizeof p.edge + sizeof p.t];
    std::memcpy(bytes, &p.edge, sizeof p.edge);
    std::memcpy(bytes + sizeof p.edge, &p.t, sizeof p.t);
    for (unsigned char b : bytes) h = (h ^ b) * 1099511628211ULL;
  };
  for (const NetworkPoint& p : workload.object_positions()) mix(p);
  for (const NetworkPoint& p : workload.query_positions()) mix(p);
  std::fprintf(stderr, "cknn_bench: inputs %016llx\n",
               static_cast<unsigned long long>(h));
}

/// Sets up kSetups times and keeps the last deployment; setup_s is the
/// median, so one slow set-up does not move it. The discarded set-ups'
/// pages are handed back and the peak-RSS counter is reset before the last
/// one, so peak_rss_mb covers one deployment and the run, not the pages
/// the allocator kept from earlier set-ups.
Deployment SetUpRepeatedly(const Spec& spec, Report* report) {
  constexpr int kSetups = 7;
  std::vector<double> seconds(kSetups);
  Deployment d;
  for (int i = 0; i < kSetups; ++i) {
    d = Deployment{};  // Release the previous one first.
    malloc_trim(0);
    if (i == kSetups - 1) ResetPeakRss();
    d = SetUp(spec, &seconds[i], report);
  }
  report->Add("setup_s", Percentile(seconds, 50.0), "s");
  PrintInputDigest(*d.workload);
  return d;
}

// -------------------------------------------------------------- oracle --

/// The benchmark's own account of what the system should hold, advanced
/// with every update the system accepted.
struct Truth {
  Truth(const MonitoringServer& server, const Workload& workload, int k)
      : oracle(server.network(), workload.object_positions()),
        queries(workload.query_positions()),
        k(k) {}

  void Apply(const UpdateBatch& batch) {
    for (const ObjectUpdate& u : batch.objects) {
      oracle.MoveObject(u.id, *u.new_pos);
    }
    for (const QueryUpdate& u : batch.queries) queries[u.id] = u.pos;
    for (const EdgeUpdate& u : batch.edges) {
      oracle.SetWeight(u.edge, u.new_weight);
    }
  }

  void Apply(const ServeRequest& r) {
    switch (r.op) {
      case ServeRequest::Op::kMoveObject:
        oracle.MoveObject(static_cast<ObjectId>(r.id), r.pos);
        break;
      case ServeRequest::Op::kMoveQuery:
        queries[r.id] = r.pos;
        break;
      case ServeRequest::Op::kUpdateWeight:
        oracle.SetWeight(static_cast<EdgeId>(r.id), r.weight);
        break;
      default:
        break;  // The generated streams hold only moves and weights.
    }
  }

  NaiveOracle oracle;
  std::vector<NetworkPoint> queries;
  int k;
};

/// Checks `count` randomly sampled queries, reading each through `read`
/// (a callable QueryId -> Result<std::vector<Neighbor>>).
template <typename ReadFn>
void CheckSample(const Truth& truth, int count, Rng* rng, ReadFn&& read,
                 std::uint64_t* checks, Report* report) {
  for (int i = 0; i < count; ++i) {
    const QueryId id =
        static_cast<QueryId>(rng->NextIndex(truth.queries.size()));
    Result<std::vector<Neighbor>> got = read(id);
    ++*checks;
    if (!got.ok()) {
      report->Fail("read of query " + std::to_string(id) + ": " +
                   got.status().ToString());
      continue;
    }
    const std::string why = truth.oracle.Verify(truth.queries[id], truth.k,
                                                *got);
    if (!why.empty()) {
      report->Fail("query " + std::to_string(id) + ": " + why);
    }
  }
}

/// Without this, a run could be `correct` vacuously: the oracle must agree
/// with SnapshotKnn on random points and must flag a perturbed answer. Runs before the first update, while the server's weights are
/// the oracle's.
void OracleSelfTest(const MonitoringServer& server, const Truth& truth,
                    Rng* rng, Report* report) {
  constexpr int kPoints = 100;
  const RoadNetwork& net = server.network();
  const std::vector<NetworkPoint>& objects = truth.oracle.objects();
  ObjectTable table(net.NumEdges());
  for (std::size_t i = 0; i < objects.size(); ++i) {
    if (!table.Insert(static_cast<ObjectId>(i), objects[i]).ok()) {
      report->Fail("oracle self-test: could not build the object table");
      return;
    }
  }
  std::vector<Neighbor> last;
  NetworkPoint last_q;
  for (int i = 0; i < kPoints; ++i) {
    const NetworkPoint q{static_cast<EdgeId>(rng->NextIndex(net.NumEdges())),
                         rng->NextDouble()};
    last = SnapshotKnn(net, table, q, truth.k);
    last_q = q;
    const std::string why = truth.oracle.Verify(q, truth.k, last);
    if (!why.empty()) report->Fail("oracle self-test disagrees: " + why);
  }
  std::vector<Neighbor> off = last;
  off[off.size() / 2].distance *= 1.0 + 1e-4;
  std::vector<Neighbor> swapped = last;
  swapped.back().id = static_cast<ObjectId>(
      (swapped.back().id + objects.size() / 2) % objects.size());
  if (truth.oracle.Verify(last_q, truth.k, off).empty() ||
      truth.oracle.Verify(last_q, truth.k, swapped).empty()) {
    report->Fail("oracle self-test: a perturbed result went unflagged");
  }
}

// ------------------------------------------------------ engine counters --

/// ImaEngine and Gma counters summed over the shards. The IMA engine is
/// the one the queries use (IMA) or the active nodes use (GMA).
struct Counters {
  ImaEngine::Stats ima;
  Gma::Stats gma;
  std::size_t active_nodes = 0;
};

/// Requires a drained server with no concurrent submitter.
Counters ReadCounters(MonitoringServer& server) {
  Counters c;
  auto add_ima = [&c](const ImaEngine::Stats& s) {
    c.ima.full_recomputes += s.full_recomputes;
    c.ima.reroots += s.reroots;
    c.ima.rebuilds += s.rebuilds;
    c.ima.updates_routed += s.updates_routed;
    c.ima.updates_ignored += s.updates_ignored;
  };
  for (int i = 0; i < server.num_shards(); ++i) {
    Monitor& m = server.shards().monitor(i);
    if (auto* ima = dynamic_cast<Ima*>(&m)) {
      add_ima(ima->engine().stats());
    } else if (auto* gma = dynamic_cast<Gma*>(&m)) {
      add_ima(gma->engine().stats());
      c.gma.evaluations += gma->stats().evaluations;
      c.gma.affected_by_node_change += gma->stats().affected_by_node_change;
      c.gma.affected_by_object += gma->stats().affected_by_object;
      c.gma.affected_by_edge += gma->stats().affected_by_edge;
      c.active_nodes += gma->NumActiveNodes();
    }
  }
  return c;
}

void AddCounterMetrics(const Counters& before, const Counters& after,
                       double ticks, Report* r) {
  auto per_tick = [ticks](std::uint64_t a, std::uint64_t b) {
    return Ratio(static_cast<double>(b - a), ticks);
  };
  const double routed = static_cast<double>(after.ima.updates_routed -
                                            before.ima.updates_routed);
  const double ignored = static_cast<double>(after.ima.updates_ignored -
                                             before.ima.updates_ignored);
  r->Add("ima.routed_per_tick", Ratio(routed, ticks), "count");
  r->Add("ima.ignored_per_tick", Ratio(ignored, ticks), "count");
  r->Add("ima.filter_pass_ratio", Ratio(routed, routed + ignored), "ratio");
  r->Add("ima.rebuilds_per_tick",
         per_tick(before.ima.rebuilds, after.ima.rebuilds), "count");
  r->Add("ima.reroots_per_tick",
         per_tick(before.ima.reroots, after.ima.reroots), "count");
  r->Add("ima.full_recomputes_per_tick",
         per_tick(before.ima.full_recomputes, after.ima.full_recomputes),
         "count");
  r->Add("gma.evaluations_per_tick",
         per_tick(before.gma.evaluations, after.gma.evaluations), "count");
  r->Add("gma.node_change_affected_per_tick",
         per_tick(before.gma.affected_by_node_change,
                  after.gma.affected_by_node_change),
         "count");
  r->Add("gma.object_affected_per_tick",
         per_tick(before.gma.affected_by_object,
                  after.gma.affected_by_object),
         "count");
  r->Add("gma.edge_affected_per_tick",
         per_tick(before.gma.affected_by_edge, after.gma.affected_by_edge),
         "count");
  r->Add("gma.active_nodes", static_cast<double>(after.active_nodes),
         "count");
}

void AddMemoryMetrics(const MonitoringServer& server, Report* r) {
  const Result<std::size_t> bytes = server.TryMonitorMemoryBytes();
  const Result<std::size_t> queries = server.TryNumQueries();
  if (!bytes.ok() || !queries.ok()) {
    r->Fail("monitor memory unavailable on a drained server");
    return;
  }
  const double b = static_cast<double>(*bytes);
  r->Add("core.monitor_mb", b / (1024.0 * 1024.0), "MB");
  r->Add("core.monitor_kb_per_query",
         Ratio(b / 1024.0, static_cast<double>(*queries)), "KB");
}

/// The per-layer metrics of the layers a workload does not reach, so that
/// every workload prints the same set (0 = the layer is not on the path).
void AddAbsent(const std::vector<std::pair<const char*, const char*>>& names,
               Report* r) {
  for (const auto& [name, unit] : names) r->Add(name, 0.0, unit);
}

void WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs, Report* r) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    r->Fail("cannot write " + path);
    return;
  }
  for (const SpanLog* log : logs) log->Write(f);
  std::fclose(f);
}

// -------------------------------------------------------------- table2 --

constexpr int kCheckEveryTicks = 20;
constexpr int kChecksPerRound = 16;
/// IMA's structures keep growing with every tick (README.md, findings),
/// so a time-bounded run's final peak RSS would grow with the speed of
/// the code. Memory is read after a fixed number of ticks instead.
constexpr std::uint64_t kMemoryTicks = 50;

/// A monitor of the server's algorithm on its own shared-topology view and
/// object table, started from the system's current state and fed the
/// server's aggregated batches through ProcessTimestamp.
struct Mirror {
  Mirror(const MonitoringServer& server, const Truth& truth)
      : net(server.network().SharedView()), objects(net.NumEdges()) {
    if (server.algorithm() == Algorithm::kGma) {
      monitor = std::make_unique<Gma>(&net, &objects);
    } else {
      monitor = std::make_unique<Ima>(&net, &objects);
    }
    UpdateBatch install;
    const std::vector<NetworkPoint>& pos = truth.oracle.objects();
    for (std::size_t i = 0; i < pos.size(); ++i) {
      install.objects.push_back(
          ObjectUpdate{static_cast<ObjectId>(i), std::nullopt, pos[i]});
    }
    for (std::size_t i = 0; i < truth.queries.size(); ++i) {
      install.queries.push_back(QueryUpdate{static_cast<QueryId>(i),
                                            QueryUpdate::Kind::kInstall,
                                            truth.queries[i], truth.k});
    }
    status = monitor->ProcessTimestamp(install);
  }

  RoadNetwork net;
  ObjectTable objects;
  std::unique_ptr<Monitor> monitor;
  Status status;
};

/// Per-tick samples: the run reports medians over ticks, which a burst of
/// interference from other processes moves far less than a mean.
struct TickPhase {
  std::vector<double> tick_ms;
  std::vector<double> updates_per_s;
  std::vector<double> cpu_us_per_update;
  double updates = 0.0;
  double peak_rss_mb = 0.0;  ///< After kMemoryTicks ticks (or at the end).
  // Traced only.
  std::vector<double> aggregate_ms;
  std::vector<double> process_ms;
  std::vector<double> overhead_ms;
  double kept = 0.0;
  Counters before;
  Counters after;
};

/// Closed loop: generate a batch (untimed), Tick it, repeat, for `seconds`
/// of loop time; oracle checks run between ticks and are not counted.
TickPhase RunTicks(MonitoringServer& server, Workload& workload,
                   Truth& truth, double seconds, Rng* pick,
                   std::uint64_t* checks, SpanLog* log, Mirror* mirror,
                   Report* r) {
  TickPhase out;
  out.before = ReadCounters(server);
  auto read = [&server](QueryId id) -> Result<std::vector<Neighbor>> {
    const std::vector<Neighbor>* n = server.ResultOf(id);
    if (n == nullptr) return Status::NotFound("unknown query");
    return *n;
  };
  double busy = 0.0;
  std::uint64_t mirror_mismatches = 0;
  for (std::uint64_t tick = 0; busy < seconds; ++tick) {
    const Clock::time_point loop_start = Clock::now();
    const UpdateBatch batch = workload.Step();
    truth.Apply(batch);
    const std::uint64_t root = log ? log->Open("tick", 0, tick) : 0;
    const CpuStopwatch cpu;
    double tick_ms = 0.0;
    const Status status =
        Timed(log, "MonitoringServer::Tick", root, tick, &tick_ms,
              [&] { return server.Tick(batch); });
    const double cpu_s = cpu.ElapsedSeconds();
    const std::size_t n = BatchSize(batch);
    out.tick_ms.push_back(tick_ms);
    out.updates_per_s.push_back(Ratio(static_cast<double>(n), tick_ms / 1e3));
    out.cpu_us_per_update.push_back(
        Ratio(cpu_s * 1e6, static_cast<double>(n)));
    out.updates += static_cast<double>(n);
    r->Attempted(n);
    if (!status.ok()) {
      r->Failed(n);
      r->Fail("tick rejected: " + status.ToString());
      break;
    }
    if (mirror != nullptr) {
      double agg_ms = 0.0;
      double proc_ms = 0.0;
      const UpdateBatch aggregated =
          Timed(log, "MonitoringServer::AggregateBatch", root, tick, &agg_ms,
                [&] { return MonitoringServer::AggregateBatch(batch); });
      const Status mirrored =
          Timed(log, "Monitor::ProcessTimestamp", root, tick, &proc_ms,
                [&] { return mirror->monitor->ProcessTimestamp(aggregated); });
      out.aggregate_ms.push_back(agg_ms);
      out.process_ms.push_back(proc_ms);
      out.overhead_ms.push_back(tick_ms - agg_ms - proc_ms);
      out.kept += static_cast<double>(BatchSize(aggregated));
      if (!mirrored.ok()) {
        r->Fail("mirror rejected a batch: " + mirrored.ToString());
        break;
      }
      for (QueryId q = 0; q < truth.queries.size(); ++q) {
        const std::vector<Neighbor>* a = server.ResultOf(q);
        const std::vector<Neighbor>* b = mirror->monitor->ResultOf(q);
        if (a == nullptr || b == nullptr || !SameDistances(*a, *b)) {
          ++mirror_mismatches;
        }
      }
    }
    if (log != nullptr) log->Close(root);
    busy += MsBetween(loop_start, Clock::now()) / 1e3;
    if (tick + 1 == kMemoryTicks) out.peak_rss_mb = PeakRssMb();
    if ((tick + 1) % kCheckEveryTicks == 0) {
      CheckSample(truth, kChecksPerRound, pick, read, checks, r);
    }
  }
  if (out.peak_rss_mb == 0.0) out.peak_rss_mb = PeakRssMb();
  CheckSample(truth, kChecksPerRound, pick, read, checks, r);
  if (mirror_mismatches > 0) {
    r->Fail("mirror monitor disagreed with the server on " +
            std::to_string(mirror_mismatches) + " query-ticks");
  }
  out.after = ReadCounters(server);
  return out;
}

void RunTable2(const Spec& spec, const Options& opt, Report* r) {
  Deployment d = SetUpRepeatedly(spec, r);
  MonitoringServer& server = *d.server;
  Truth truth(server, *d.workload, spec.population.k);
  Rng pick(opt.seed ^ 0x0AC1E5EEDULL);
  OracleSelfTest(server, truth, &pick, r);
  std::uint64_t checks = 0;
  const bool traced = !opt.trace_path.empty();
  const double untraced_s = traced ? opt.seconds / 2 : opt.seconds;

  const TickPhase plain = RunTicks(server, *d.workload, truth, untraced_s,
                                   &pick, &checks, nullptr, nullptr, r);
  const double p50 = Percentile(plain.tick_ms, 50.0);
  if (!traced) {
    r->Add("latency_ms_p50", p50, "ms");
    r->Add("throughput_ups", Percentile(plain.updates_per_s, 50.0),
           "updates/s");
    r->Add("cpu_us_per_update", Percentile(plain.cpu_us_per_update, 50.0),
           "us");
    r->Add("peak_rss_mb", plain.peak_rss_mb, "MB");
    return;
  }

  const Clock::time_point epoch = Clock::now();
  SpanLog log(0, epoch);
  Mirror mirror(server, truth);
  if (!mirror.status.ok()) {
    r->Fail("mirror install: " + mirror.status.ToString());
    return;
  }
  const TickPhase t = RunTicks(server, *d.workload, truth, opt.seconds / 2,
                               &pick, &checks, &log, &mirror, r);
  const double ticks = static_cast<double>(t.tick_ms.size());
  r->Add("latency_ms_p95", Percentile(t.tick_ms, 95.0), "ms");
  r->Add("server.aggregate_ms_p50", Percentile(t.aggregate_ms, 50.0), "ms");
  r->Add("server.aggregate_keep_ratio", Ratio(t.kept, t.updates), "ratio");
  r->Add("server.overhead_ms_p50", Percentile(t.overhead_ms, 50.0), "ms");
  r->Add("engine.process_ms_p50", Percentile(t.process_ms, 50.0), "ms");
  r->Add("engine.process_ms_p95", Percentile(t.process_ms, 95.0), "ms");
  AddCounterMetrics(t.before, t.after, ticks, r);
  AddMemoryMetrics(server, r);
  AddAbsent({{"gen.pregen_s", "s"},
             {"gen.lag_ms_p99", "ms"},
             {"serve.visible_ms_p99", "ms"},
             {"serve.read_ms_p50", "ms"},
             {"serve.read_ms_p99", "ms"},
             {"serve.submit_us_p99", "us"},
             {"serve.blocked_s", "s"},
             {"serve.queue_depth_p50", "count"},
             {"serve.queue_depth_max", "count"},
             {"serve.updates_per_tick", "count"},
             {"serve.rejected_invalid", "count"},
             {"serve.refused_full", "count"},
             {"serve.fold_us_per_update", "us"},
             {"serve.hostile_window_ms", "ms"},
             {"serve.hostile_ticks", "count"},
             {"server.submit_ms_p50", "ms"},
             {"server.drain_ms_p50", "ms"}},
            r);
  r->Add("oracle.checks", static_cast<double>(checks), "count");
  r->Add("trace.overhead_pct",
         100.0 * (Ratio(Percentile(t.tick_ms, 50.0), p50) - 1.0), "%");
  WriteSpans(opt.trace_path, {&log}, r);
}

// --------------------------------------------------------------- serve --

/// The generated stream holds one request per moved object, moved query
/// and changed edge weight of each workload step, shuffled within the
/// step. Every request is valid against any state of the server (ids
/// exist, positions and weights are absolute), so the stream may be cycled.
std::vector<ServeRequest> Pregenerate(Workload* workload, std::size_t count,
                                      Rng* rng) {
  std::vector<ServeRequest> stream;
  stream.reserve(count);
  while (stream.size() < count) {
    const UpdateBatch batch = workload->Step();
    std::vector<ServeRequest> step;
    step.reserve(BatchSize(batch));
    for (const ObjectUpdate& u : batch.objects) {
      ServeRequest r;
      r.op = ServeRequest::Op::kMoveObject;
      r.id = u.id;
      r.pos = *u.new_pos;
      step.push_back(r);
    }
    for (const QueryUpdate& u : batch.queries) {
      ServeRequest r;
      r.op = ServeRequest::Op::kMoveQuery;
      r.id = u.id;
      r.pos = u.pos;
      step.push_back(r);
    }
    for (const EdgeUpdate& u : batch.edges) {
      ServeRequest r;
      r.op = ServeRequest::Op::kUpdateWeight;
      r.id = u.edge;
      r.weight = u.new_weight;
      step.push_back(r);
    }
    rng->Shuffle(&step);
    stream.insert(stream.end(), step.begin(), step.end());
  }
  stream.resize(count);
  return stream;
}

/// Position in the (cycled) request stream; every phase continues it.
struct StreamCursor {
  const std::vector<ServeRequest>* stream;
  std::size_t next = 0;
  const ServeRequest& Take() { return (*stream)[next++ % stream->size()]; }
};

struct LivePhase {
  ServingStats stats;
  double wall_s = 0.0;        ///< First submit to Flush return.
  double server_cpu_s = 0.0;  ///< Process CPU minus the load threads'.
  std::uint64_t refused = 0;  ///< TrySubmit ResourceExhausted.
  std::uint64_t errors = 0;   ///< Any other failed submit.
  std::vector<double> lag_ms;
  std::vector<double> read_ms;
  std::vector<double> depth;
  std::vector<double> submit_us;  ///< Traced only (sampled when blocking).
  double submit_s = 0.0;          ///< Total time inside Submit/TrySubmit.
  Counters before;
  Counters after;
};

/// Blocking submits are recorded as spans one in kBlockingSpanStride: at
/// saturation there are millions, and the total blocked time is summed
/// from every call anyway.
constexpr std::uint64_t kBlockingSpanStride = 8;

/// One measured phase on a fresh front end with its pump. The main thread
/// is the generator: open loop at spec.rate (TrySubmit, never blocks), or
/// blocking Submit as fast as back-pressure allows. A second thread wakes
/// every 10 ms, samples QueueDepth and, with spec.reads, times one
/// ReadResult of a random query from its scheduled time. With `checks`,
/// that many queries are verified through ReadResult after the Flush.
LivePhase RunLive(MonitoringServer& server, const Spec& spec,
                  StreamCursor* cursor, Truth* truth, double seconds,
                  std::uint64_t read_seed, int checks, Rng* pick,
                  std::uint64_t* check_count, SpanLog* main_log,
                  SpanLog* side_log, Report* r) {
  LivePhase out;
  out.before = ReadCounters(server);
  ServingConfig config;
  config.latency_reservoir_capacity =
      spec.rate > 0.0
          ? static_cast<std::size_t>(spec.rate * seconds * 1.25) + 1024
          : std::size_t{1} << 20;
  ServingFrontEnd fe(&server, config);
  fe.Start();

  const CpuStopwatch process_cpu;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end = start + Seconds(seconds);
  double side_cpu = 0.0;
  std::uint64_t read_errors = 0;
  const std::size_t num_queries = truth->queries.size();
  std::thread side([&] {
    const double cpu0 = ThreadCpuSeconds();
    Rng targets(read_seed);
    for (std::uint64_t j = 0;; ++j) {
      const Clock::time_point due = start + std::chrono::milliseconds(10 * j);
      if (due >= end) break;
      std::this_thread::sleep_until(due);
      if (spec.reads) {
        const QueryId id = static_cast<QueryId>(targets.NextIndex(num_queries));
        const Result<std::vector<Neighbor>> got =
            Timed(side_log, "ServingFrontEnd::ReadResult", 0, id, nullptr,
                  [&] { return fe.ReadResult(id); });
        out.read_ms.push_back(MsBetween(due, Clock::now()));
        if (!got.ok()) ++read_errors;
      }
      out.depth.push_back(static_cast<double>(
          Timed(side_log, "ServingFrontEnd::QueueDepth", 0, j, nullptr,
                [&] { return fe.QueueDepth(); })));
    }
    side_cpu = ThreadCpuSeconds() - cpu0;
  });

  const double main_cpu0 = ThreadCpuSeconds();
  auto account = [&](const Status& s, const ServeRequest& req) {
    if (s.ok()) {
      truth->Apply(req);
    } else if (s.code() == StatusCode::kResourceExhausted) {
      ++out.refused;
    } else {
      ++out.errors;
    }
  };
  std::uint64_t submitted = 0;
  if (spec.rate > 0.0) {
    const std::chrono::duration<double> period(1.0 / spec.rate);
    out.lag_ms.reserve(static_cast<std::size_t>(spec.rate * seconds) + 1);
    for (;; ++submitted) {
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      period * static_cast<double>(submitted));
      if (due >= end) break;
      Clock::time_point now = Clock::now();
      if (now < due) {
        std::this_thread::sleep_until(due);
        now = Clock::now();
      }
      out.lag_ms.push_back(MsBetween(due, now));
      const ServeRequest& req = cursor->Take();
      double ms = 0.0;
      const Status s = Timed(main_log, "ServingFrontEnd::TrySubmit", 0,
                             submitted, &ms, [&] { return fe.TrySubmit(req); });
      out.submit_s += ms / 1e3;
      if (main_log != nullptr) out.submit_us.push_back(ms * 1e3);
      account(s, req);
    }
  } else {
    for (; Clock::now() < end; ++submitted) {
      const ServeRequest& req = cursor->Take();
      const bool record =
          main_log != nullptr && submitted % kBlockingSpanStride == 0;
      double ms = 0.0;
      const Status s =
          Timed(record ? main_log : nullptr, "ServingFrontEnd::Submit", 0,
                submitted, &ms, [&] { return fe.Submit(req); });
      out.submit_s += ms / 1e3;
      if (record) out.submit_us.push_back(ms * 1e3);
      account(s, req);
    }
  }
  const double main_cpu = ThreadCpuSeconds() - main_cpu0;
  side.join();
  const Status flushed = Timed(main_log, "ServingFrontEnd::Flush", 0, 0,
                               nullptr, [&] { return fe.Flush(); });
  out.wall_s = MsBetween(start, Clock::now()) / 1e3;
  out.server_cpu_s = process_cpu.ElapsedSeconds() - main_cpu - side_cpu;
  out.stats = Timed(main_log, "ServingFrontEnd::Stats", 0, 0, nullptr,
                    [&] { return fe.Stats(); });
  r->Attempted(submitted + out.read_ms.size());
  if (!flushed.ok()) r->Fail("flush: " + flushed.ToString());
  if (!fe.last_error().ok()) {
    r->Fail("engine rejected a generated update: " +
            fe.last_error().ToString());
  }
  // Accepted updates the engine never applied count as failed too.
  const std::uint64_t accepted = submitted - out.refused - out.errors;
  const std::uint64_t lost = accepted - std::min(accepted, out.stats.applied);
  r->Failed(out.refused + out.errors + lost + read_errors);
  if (checks > 0) {
    CheckSample(*truth, checks, pick,
                [&fe](QueryId id) { return fe.ReadResult(id); }, check_count,
                r);
  }
  fe.Shutdown();
  out.after = ReadCounters(server);
  return out;
}

/// One window of `n` generated requests plus two hostile ones, through a
/// pump-less front end and one Flush: a NaN weight update, which the
/// engine rejects and which makes the front end re-apply the window one
/// update per tick, and a move of an unknown object, which BuildBatch
/// drops. Both must be rejected and counted; every valid request applied.
void RunHostileProbe(MonitoringServer& server, const Spec& spec,
                     StreamCursor* cursor, Truth* truth, Rng* pick,
                     std::uint64_t* check_count, SpanLog* log, Report* r) {
  const std::size_t n = spec.probe_requests;
  ServingConfig config;
  config.queue_capacity = n + 2;
  ServingFrontEnd fe(&server, config);
  ServeRequest nan_weight;
  nan_weight.op = ServeRequest::Op::kUpdateWeight;
  nan_weight.id = 0;
  nan_weight.weight = std::numeric_limits<double>::quiet_NaN();
  ServeRequest unknown_object;
  unknown_object.op = ServeRequest::Op::kMoveObject;
  unknown_object.id = spec.population.num_objects + 7;
  unknown_object.pos = truth->queries[0];
  bool queued = true;
  for (std::size_t i = 0; i < n; ++i) {
    if (i == n / 4) queued &= fe.TrySubmit(unknown_object).ok();
    if (i == n / 2) queued &= fe.TrySubmit(nan_weight).ok();
    const ServeRequest& req = cursor->Take();
    queued &= fe.TrySubmit(req).ok();
    truth->Apply(req);
  }
  r->Attempted(n);
  double ms = 0.0;
  const Status flushed = Timed(log, "ServingFrontEnd::Flush", 0, 1, &ms,
                               [&] { return fe.Flush(); });
  const ServingStats stats = fe.Stats();
  if (!queued || !flushed.ok() || stats.rejected_invalid != 2 ||
      stats.applied != n) {
    r->Failed(n - std::min<std::uint64_t>(n, stats.applied));
    r->Fail("hostile probe: expected 2 rejects and " + std::to_string(n) +
            " applied, got " + std::to_string(stats.rejected_invalid) +
            " and " + std::to_string(stats.applied));
  }
  r->Add("serve.hostile_window_ms", ms, "ms");
  r->Add("serve.hostile_ticks", static_cast<double>(stats.ticks), "count");
  CheckSample(*truth, 16, pick,
              [&fe](QueryId id) { return fe.ReadResult(id); }, check_count,
              r);
}

/// Serial replay of the stream's first requests on a fresh server, in
/// windows of `window` requests: BuildBatch -> SubmitBatch -> Drain, plus
/// an AggregateBatch of each built batch, until `seconds` pass or
/// `requests` are replayed.
void RunReplay(const Spec& spec, const std::vector<ServeRequest>& stream,
               std::size_t requests, std::size_t window, double seconds,
               SpanLog* log, Report* r) {
  double ignored = 0.0;
  Deployment d = SetUp(spec, &ignored, r);
  MonitoringServer& server = *d.server;
  StreamCursor cursor{&stream};
  std::vector<double> build_ms, aggregate_ms, submit_ms, drain_ms;
  double raw = 0.0;
  double kept = 0.0;
  double built = 0.0;
  const Stopwatch elapsed;
  std::vector<ServeRequest> slice;
  for (std::uint64_t w = 0;
       elapsed.ElapsedSeconds() < seconds && cursor.next < requests; ++w) {
    slice.clear();
    for (std::size_t i = 0; i < window; ++i) slice.push_back(cursor.Take());
    const std::uint64_t root = log->Open("replay_window", 0, w);
    double ms = 0.0;
    const ServingFrontEnd::BatchBuild b =
        Timed(log, "ServingFrontEnd::BuildBatch", root, w, &ms,
              [&] { return ServingFrontEnd::BuildBatch(slice, server); });
    build_ms.push_back(ms);
    const UpdateBatch aggregated =
        Timed(log, "MonitoringServer::AggregateBatch", root, w, &ms,
              [&] { return MonitoringServer::AggregateBatch(b.batch); });
    aggregate_ms.push_back(ms);
    raw += static_cast<double>(BatchSize(b.batch));
    kept += static_cast<double>(BatchSize(aggregated));
    built += static_cast<double>(slice.size());
    Status s = Timed(log, "MonitoringServer::SubmitBatch", root, w, &ms,
                     [&] { return server.SubmitBatch(b.batch); });
    submit_ms.push_back(ms);
    if (s.ok()) {
      s = Timed(log, "MonitoringServer::Drain", root, w, &ms,
                [&] { return server.Drain(); });
      drain_ms.push_back(ms);
    }
    log->Close(root);
    if (!s.ok() || b.rejected != 0) {
      r->Fail("replay window " + std::to_string(w) + " rejected: " +
              s.ToString());
      break;
    }
  }
  r->Add("serve.fold_us_per_update", Ratio(Sum(build_ms) * 1e3, built), "us");
  r->Add("server.aggregate_ms_p50", Percentile(aggregate_ms, 50.0), "ms");
  r->Add("server.aggregate_keep_ratio", Ratio(kept, raw), "ratio");
  r->Add("server.submit_ms_p50", Percentile(submit_ms, 50.0), "ms");
  r->Add("server.drain_ms_p50", Percentile(drain_ms, 50.0), "ms");
}

void RunServe(const Spec& spec, const Options& opt, Report* r) {
  const bool traced = !opt.trace_path.empty();
  Deployment d = SetUpRepeatedly(spec, r);
  MonitoringServer& server = *d.server;
  Truth truth(server, *d.workload, spec.population.k);
  Rng pick(opt.seed ^ 0x0AC1E5EEDULL);
  OracleSelfTest(server, truth, &pick, r);
  Rng order(opt.seed ^ 0x5EED0F0DE5ULL);
  const Stopwatch pregen;
  const std::size_t requests =
      spec.rate > 0.0 ? static_cast<std::size_t>(
                            spec.rate * (spec.warmup_s + opt.seconds)) + 1
                      : spec.pool_requests;
  const std::vector<ServeRequest> stream =
      Pregenerate(d.workload.get(), requests, &order);
  const double pregen_s = pregen.ElapsedSeconds();
  StreamCursor cursor{&stream};
  std::uint64_t checks = 0;

  RunLive(server, spec, &cursor, &truth, spec.warmup_s, opt.seed + 1, 0,
          &pick, &checks, nullptr, nullptr, r);
  const double untraced_s = traced ? opt.seconds / 2 : opt.seconds;
  const LivePhase plain =
      RunLive(server, spec, &cursor, &truth, untraced_s, opt.seed + 2,
              traced ? 0 : 64, &pick, &checks, nullptr, nullptr, r);
  const double applied = static_cast<double>(plain.stats.applied);
  if (!traced) {
    r->Add("latency_ms_p50", plain.stats.latency_p50_sec * 1e3, "ms");
    r->Add("throughput_ups", Ratio(applied, plain.wall_s), "updates/s");
    r->Add("cpu_us_per_update", Ratio(plain.server_cpu_s * 1e6, applied),
           "us");
    r->Add("peak_rss_mb", PeakRssMb(), "MB");
    r->Add("gen.lag_ms_p99", Percentile(plain.lag_ms, 99.0), "ms");
    return;
  }

  const Clock::time_point epoch = Clock::now();
  SpanLog main_log(0, epoch);
  SpanLog side_log(1, epoch);
  const LivePhase t =
      RunLive(server, spec, &cursor, &truth, opt.seconds / 2, opt.seed + 3,
              64, &pick, &checks, &main_log, &side_log, r);
  if (spec.rate > 0.0) {
    AddAbsent({{"serve.hostile_window_ms", "ms"},
               {"serve.hostile_ticks", "count"}},
              r);
  } else {
    RunHostileProbe(server, spec, &cursor, &truth, &pick, &checks, &main_log,
                    r);
  }
  const double ticks = static_cast<double>(t.stats.ticks);
  r->Add("gen.pregen_s", pregen_s, "s");
  r->Add("gen.lag_ms_p99", Percentile(t.lag_ms, 99.0), "ms");
  r->Add("latency_ms_p95", t.stats.latency_p95_sec * 1e3, "ms");
  r->Add("serve.visible_ms_p99", t.stats.latency_p99_sec * 1e3, "ms");
  r->Add("serve.read_ms_p50", Percentile(t.read_ms, 50.0), "ms");
  r->Add("serve.read_ms_p99", Percentile(t.read_ms, 99.0), "ms");
  r->Add("serve.submit_us_p99", Percentile(t.submit_us, 99.0), "us");
  r->Add("serve.blocked_s", spec.rate > 0.0 ? 0.0 : t.submit_s, "s");
  r->Add("serve.queue_depth_p50", Percentile(t.depth, 50.0), "count");
  r->Add("serve.queue_depth_max", Percentile(t.depth, 100.0), "count");
  r->Add("serve.updates_per_tick",
         Ratio(static_cast<double>(t.stats.applied), ticks), "count");
  r->Add("serve.rejected_invalid",
         static_cast<double>(t.stats.rejected_invalid), "count");
  r->Add("serve.refused_full", static_cast<double>(t.refused), "count");
  AddCounterMetrics(t.before, t.after, ticks, r);
  AddMemoryMetrics(server, r);
  r->Add("oracle.checks", static_cast<double>(checks), "count");
  r->Add("trace.overhead_pct",
         100.0 * (Ratio(t.stats.latency_p50_sec,
                        plain.stats.latency_p50_sec) -
                  1.0),
         "%");

  d = Deployment{};  // Released before the replay builds its own server.
  const double window = Ratio(applied, static_cast<double>(plain.stats.ticks));
  RunReplay(spec, stream, cursor.next,
            std::max<std::size_t>(1, static_cast<std::size_t>(
                                         std::lround(window))),
            opt.seconds / 2, &main_log, r);
  AddAbsent({{"server.overhead_ms_p50", "ms"},
             {"engine.process_ms_p50", "ms"},
             {"engine.process_ms_p95", "ms"}},
            r);
  WriteSpans(opt.trace_path, {&main_log, &side_log}, r);
}

// ---------------------------------------------------------------- main --

bool ParseArgs(int argc, char** argv, Options* opt) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* flag) -> std::optional<std::string> {
      const std::string prefix = std::string(flag) + "=";
      if (arg.compare(0, prefix.size(), prefix) != 0) return std::nullopt;
      return arg.substr(prefix.size());
    };
    char* end = nullptr;
    if (auto v = value("--workload")) {
      opt->workload = *v;
      have_workload = true;
    } else if (auto v = value("--seed")) {
      opt->seed = std::strtoull(v->c_str(), &end, 10);
      if (v->empty() || *end != '\0') return false;
    } else if (auto v = value("--seconds")) {
      opt->seconds = std::strtod(v->c_str(), &end);
      if (v->empty() || *end != '\0' || !(opt->seconds > 0.0)) return false;
    } else if (auto v = value("--trace")) {
      opt->trace_path = *v;
      if (v->empty()) return false;
    } else if (auto v = value("--scale")) {
      if (*v != "smoke") return false;
      opt->smoke = true;
    } else {
      return false;
    }
  }
  return have_workload;
}

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: cknn_bench --workload=<name> [--seed=<n>] "
                 "[--seconds=<s>] [--trace=<file>] [--scale=smoke]\n");
    return 2;
  }
  const std::optional<Spec> spec = SpecOf(opt);
  if (!spec.has_value()) {
    std::fprintf(stderr,
                 "cknn_bench: unknown workload '%s' (table2_ima, table2_gma, "
                 "serve_steady_ima, serve_saturate_ima)\n",
                 opt.workload.c_str());
    return 2;
  }
  Report report;
  if (spec->serve) {
    RunServe(*spec, opt, &report);
  } else {
    RunTable2(*spec, opt, &report);
  }
  report.Print();
  return 0;
}

}  // namespace
}  // namespace cknn::perfbench

int main(int argc, char** argv) { return cknn::perfbench::Main(argc, argv); }
