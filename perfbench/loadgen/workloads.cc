#include "loadgen/workloads.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <thread>

#include "loadgen/traced.h"
#include "loadgen/world.h"
#include "net/client.h"
#include "net/coordinator.h"
#include "net/server.h"

namespace vzb {

using vz::core::SvsId;
using vz::core::VideoZilla;
using vz::net::Client;

namespace {

/// Set-ups per run; `setup_s` is their median.
constexpr int kSetups = 3;
constexpr size_t kMaxReplayDirect = 400;
constexpr size_t kMaxReplayClustering = 100;
constexpr size_t kFanoutProbeQueries = 300;

const char* KindName(uint32_t kind) {
  return kind == kClustering ? "clustering" : "direct";
}

/// Latencies of one open-loop phase, per operation kind, plus how late each
/// send ran against its schedule.
struct LatencyLog {
  std::vector<double> direct_ms;
  std::vector<double> clustering_ms;
  std::vector<double> late_ms;

  void Merge(const LatencyLog& other) {
    direct_ms.insert(direct_ms.end(), other.direct_ms.begin(),
                     other.direct_ms.end());
    clustering_ms.insert(clustering_ms.end(), other.clustering_ms.begin(),
                         other.clustering_ms.end());
    late_ms.insert(late_ms.end(), other.late_ms.begin(), other.late_ms.end());
  }
};

/// The arrivals due in [from_s, to_s), shifted to start at 0.
std::vector<Arrival> Window(const std::vector<Arrival>& arrivals, double from_s,
                            double to_s) {
  std::vector<Arrival> out;
  for (Arrival a : arrivals) {
    if (a.due_s < from_s || a.due_s >= to_s) continue;
    a.due_s -= from_s;
    out.push_back(a);
  }
  return out;
}

/// Drives `arrivals` open loop: one sender thread per connection, each
/// sending its own arrivals at their due times (a send that finds its
/// connection busy goes out late and is charged from its due time).
/// `issue(arrival)` performs and checks one request and returns whether it
/// succeeded; failed requests are counted by `issue`, not timed. Stops early
/// once `stop` is set.
template <typename Issue>
LatencyLog RunOpenLoop(const std::vector<Arrival>& arrivals, size_t num_conns,
                       Tracer* tracer, const std::atomic<bool>* stop,
                       const Issue& issue) {
  std::vector<LatencyLog> logs(num_conns);
  std::vector<std::thread> senders;
  const Clock::time_point origin = Clock::now();
  for (size_t conn = 0; conn < num_conns; ++conn) {
    senders.emplace_back([&, conn] {
      LatencyLog& log = logs[conn];
      for (const Arrival& a : arrivals) {
        if (a.conn != conn) continue;
        const Clock::time_point due =
            origin + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(a.due_s));
        SleepUntil(due);
        if (stop != nullptr && stop->load()) break;
        const Clock::time_point start = Clock::now();
        const bool ok = issue(a);
        const Clock::time_point end = Clock::now();
        log.late_ms.push_back(MsBetween(due, start));
        if (!ok) continue;
        (a.kind == kClustering ? log.clustering_ms : log.direct_ms)
            .push_back(MsBetween(due, end));
        if (tracer != nullptr) {
          const uint64_t id = tracer->NextId();
          tracer->Record(id, 0, KindName(a.kind), due, end);
          tracer->Record(tracer->NextId(), id, "send_wait", due, start);
          tracer->Record(tracer->NextId(), id, "rpc", start, end);
        }
      }
    });
  }
  for (std::thread& t : senders) t.join();
  LatencyLog merged;
  for (const LatencyLog& log : logs) merged.Merge(log);
  return merged;
}

vz::net::ClientOptions BenchClientOptions() {
  vz::net::ClientOptions options;
  // A shed, a reconnect or a timeout is a failed operation here, never
  // something to paper over with retries.
  options.max_shed_retries = 0;
  options.max_reconnects = 0;
  options.io_timeout_ms = 30'000;
  return options;
}

bool ConnectClients(uint16_t port, size_t n, std::vector<Client>* clients,
                    std::string* error) {
  for (size_t i = 0; i < n; ++i) {
    auto client = Client::Connect("127.0.0.1", port, BenchClientOptions());
    if (!client.ok()) {
      *error = "connect: " + client.status().ToString();
      return false;
    }
    clients->push_back(std::move(*client));
  }
  return true;
}

void SetMs(MetricSet* set, const std::string& name, double ms) {
  set->Set(name, ms, "ms");
}

/// The first direct-query features and clustering targets of a schedule, in
/// schedule order — the inputs of the in-process replays.
void ReplayInputs(const Inputs& in, std::vector<vz::FeatureVector>* features,
                  std::vector<SvsId>* targets) {
  for (const Arrival& a : in.arrivals) {
    if (a.kind == kDirect && features->size() < kMaxReplayDirect) {
      features->push_back(in.features[a.input]);
    } else if (a.kind == kClustering &&
               targets->size() < kMaxReplayClustering) {
      targets->push_back(static_cast<SvsId>(a.input));
    }
  }
}

void ReportLatencies(const LatencyLog& log, RunReport* report) {
  SetMs(&report->e2e, "direct_p50_ms", Median(log.direct_ms));
  SetMs(&report->workload_metrics, "direct_p99_ms",
        Quantile(log.direct_ms, 0.99));
  report->workload_metrics.Set("direct_samples",
                               static_cast<double>(log.direct_ms.size()),
                               "count");
}

void ReportErrorRate(RunReport* report) {
  const double attempted =
      std::max<double>(1.0, static_cast<double>(report->outcome.attempted()));
  report->workload_metrics.Set(
      "error_rate", static_cast<double>(report->outcome.failed()) / attempted,
      "ratio");
}

// --------------------------------------------------------------------------
// Deployments: one edge server, or a coordinator over two edges.
// --------------------------------------------------------------------------

struct EdgeDeployment {
  std::unique_ptr<VideoZilla> system;
  std::unique_ptr<vz::net::Server> server;
  std::vector<Client> clients;

  ~EdgeDeployment() { Stop(); }
  /// Stops serving; the system stays for in-process replays.
  void Stop() {
    clients.clear();
    if (server) server->Shutdown();
    server.reset();
  }
};

/// Ingests the whole feed in-process, then serves it on 4 connections.
bool SetUpEdge(World* world, EdgeDeployment* edge, std::string* error) {
  edge->system = world->NewSystem();
  vz::Status status = world->deployment().IngestAll(edge->system.get());
  if (!status.ok()) {
    *error = "ingest: " + status.ToString();
    return false;
  }
  edge->server = std::make_unique<vz::net::Server>(edge->system.get(),
                                                   vz::net::ServerOptions{});
  status = edge->server->Start();
  if (!status.ok()) {
    *error = "server start: " + status.ToString();
    return false;
  }
  return ConnectClients(edge->server->port(), 4, &edge->clients, error);
}

struct ShardedDeployment {
  std::vector<std::unique_ptr<VideoZilla>> systems;
  std::vector<std::unique_ptr<vz::net::Server>> servers;
  std::unique_ptr<vz::net::Coordinator> coordinator;
  std::vector<Client> clients;

  ~ShardedDeployment() { Stop(); }
  /// Stops serving; the edge systems stay for in-process replays.
  void Stop() {
    clients.clear();
    if (coordinator) coordinator->Shutdown();
    coordinator.reset();
    for (auto& server : servers) server->Shutdown();
    servers.clear();
  }
};

/// Two edges, each pre-ingested with its `PartitionCameras(2)` half of the
/// feed, behind a coordinator serving 4 connections.
bool SetUpSharded(World* world, ShardedDeployment* d, std::string* error) {
  vz::net::CoordinatorOptions options;
  for (const auto& part : world->deployment().PartitionCameras(2)) {
    d->systems.push_back(world->NewSystem());
    vz::Status status =
        world->deployment().IngestShard(d->systems.back().get(), part);
    if (!status.ok()) {
      *error = "shard ingest: " + status.ToString();
      return false;
    }
    d->servers.push_back(std::make_unique<vz::net::Server>(
        d->systems.back().get(), vz::net::ServerOptions{}));
    status = d->servers.back()->Start();
    if (!status.ok()) {
      *error = "edge start: " + status.ToString();
      return false;
    }
    options.edges.push_back({"127.0.0.1", d->servers.back()->port()});
  }
  const vz::core::VideoZillaOptions system_options = WorldSystemOptions();
  options.omd = system_options.omd;
  options.inter = system_options.inter;
  options.boundary_scale = system_options.boundary_scale;
  // The edges are static: `Start` syncs every edge's representatives once,
  // and no background re-sync competes with the measured queries.
  options.sync_interval_ms = 0;
  d->coordinator = std::make_unique<vz::net::Coordinator>(options);
  vz::Status status = d->coordinator->Start();
  if (!status.ok()) {
    *error = "coordinator start: " + status.ToString();
    return false;
  }
  return ConnectClients(d->coordinator->port(), 4, &d->clients, error);
}

void CoordinatorLegMetrics(const vz::net::CoordinatorStats& before,
                           const vz::net::CoordinatorStats& after,
                           MetricSet* layers) {
  const double queries = std::max<double>(
      1.0, static_cast<double>(after.requests_served - before.requests_served));
  const double legs =
      static_cast<double>(after.fanout_legs - before.fanout_legs);
  const double pruned =
      static_cast<double>(after.pruned_legs - before.pruned_legs);
  layers->Set("net.legs_per_query", legs / queries, "count");
  layers->Set("net.pruned_leg_ratio",
              legs + pruned > 0 ? pruned / (legs + pruned) : 0.0, "ratio");
}

/// Fan-out overhead: each query through the coordinator, then straight to
/// every edge, closed loop; the overhead is the coordinator's latency minus
/// the slower leg. Also the legs per query and pruned-leg share it saw. Runs
/// after the measured phase on one coordinator connection plus one per edge.
bool ProbeFanout(ShardedDeployment* d,
                 const std::vector<vz::FeatureVector>& features,
                 MetricSet* layers, std::string* error) {
  d->clients.erase(d->clients.begin() + 1, d->clients.end());
  std::vector<Client> edges;
  for (const auto& server : d->servers) {
    if (!ConnectClients(server->port(), 1, &edges, error)) return false;
  }
  const vz::net::CoordinatorStats before = d->coordinator->stats();
  std::vector<double> overhead_us;
  for (size_t i = 0; i < std::min(kFanoutProbeQueries, features.size()); ++i) {
    const Clock::time_point t0 = Clock::now();
    const bool ok = d->clients[0].DirectQuery(features[i]).ok();
    const double coordinated = UsBetween(t0, Clock::now());
    double slowest_leg = 0.0;
    for (Client& edge : edges) {
      const Clock::time_point t1 = Clock::now();
      (void)edge.DirectQuery(features[i]);
      slowest_leg = std::max(slowest_leg, UsBetween(t1, Clock::now()));
    }
    if (ok) overhead_us.push_back(coordinated - slowest_leg);
  }
  CoordinatorLegMetrics(before, d->coordinator->stats(), layers);
  layers->Set("net.fanout_overhead_us", Median(overhead_us), "us");
  return true;
}

/// Per-layer metrics every workload reports the same way: in-process
/// replays of its query inputs over `systems` (one per shard) and of the
/// feed (ingest path, index maintenance, WAL append, subscription scoring),
/// and — unless the workload already probed its own coordinator — a fan-out
/// probe of a fresh two-edge cluster. Every layer is timed on every
/// workload, so no time reads as a constant placeholder.
bool SharedLayerMetrics(World* world, const RunConfig& config,
                        const Inputs& in,
                        const std::vector<VideoZilla*>& systems,
                        double rpc_direct_p50_ms, bool probe_fanout,
                        IngestReplay* replay, RunReport* report,
                        std::string* error) {
  MetricSet& layers = report->layers;
  std::vector<vz::FeatureVector> features;
  std::vector<SvsId> targets;
  ReplayInputs(in, &features, &targets);
  if (targets.empty()) {
    // No clustering in the schedule: time the first stored SVSs instead.
    const std::vector<SvsId> ids = systems.front()->svs_store().AllIds();
    targets.assign(ids.begin(),
                   ids.begin() + std::min<size_t>(8, ids.size()));
  }
  QueryLayerMetrics(systems, features, targets, &layers);
  layers.Set("net.rpc_overhead_us",
             rpc_direct_p50_ms * 1000.0 - layers.Get("core.direct_us_p50"),
             "us");
  const std::set<SvsId> distinct(targets.begin(), targets.end());
  std::vector<SvsId> pair_targets(distinct.begin(), distinct.end());
  if (pair_targets.size() > 8) pair_targets.resize(8);
  KernelLayerMetrics(systems.front(), pair_targets, features, &layers);

  if (replay->system == nullptr && !ReplayIngest(world, replay, error)) {
    return false;
  }
  IngestLayerMetrics(*replay, &layers);
  IndexLayerMetrics(*replay->system, &layers);
  WalLayerMetrics(world,
                  config.work_dir + "/wal-layer-" + std::to_string(getpid()),
                  &layers);
  SubscriptionLayerMetrics(*replay->system, in.features, &layers);
  if (!probe_fanout) return true;
  ShardedDeployment cluster;
  return SetUpSharded(world, &cluster, error) &&
         ProbeFanout(&cluster, features, &layers, error);
}

/// Runs `set_up` kSetups times on fresh deployments, keeping the last, and
/// reports the median wall time as `setup_s`.
template <typename Deployment, typename SetUp>
std::unique_ptr<Deployment> SetUpRepeatedly(const SetUp& set_up,
                                            RunReport* report) {
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> d;
  for (int k = 0; k < kSetups; ++k) {
    d.reset();
    d = std::make_unique<Deployment>();
    const Clock::time_point t0 = Clock::now();
    if (!set_up(d.get())) return nullptr;
    setup_s.push_back(MsBetween(t0, Clock::now()) / 1000.0);
  }
  report->e2e.Set("setup_s", Median(setup_s), "s");
  return d;
}

// --------------------------------------------------------------------------
// query_mix: one edge, pre-ingested; direct + clustering open loop.
// --------------------------------------------------------------------------

bool RunQueryMix(const RunConfig& config, RunReport* report,
                 std::string* error) {
  World world;
  auto edge = SetUpRepeatedly<EdgeDeployment>(
      [&](EdgeDeployment* e) { return SetUpEdge(&world, e, error); }, report);
  if (edge == nullptr) return false;
  VideoZilla& system = *edge->system;
  const std::vector<SvsId> ids = system.svs_store().AllIds();

  const Inputs in =
      MakeInputs("query_mix", config.seed, config.seconds, &world, ids.size());
  report->schedule_digest = in.digest.hex();
  report->properties.Set("direct_repeat_share", in.direct_repeat_share,
                         "ratio");
  report->properties.Set("clustering_repeat_share", in.clustering_repeat_share,
                         "ratio");

  // Oracle: in-process answers for every pool feature and stored SVS,
  // computed before serving. The OMD cache is then emptied so the served
  // phase starts cold and its hit ratio reflects the schedule's repeats.
  std::vector<vz::core::DirectQueryResult> direct_oracle;
  for (const vz::FeatureVector& f : in.features) {
    auto r = system.DirectQuery(f);
    if (!r.ok()) {
      *error = "oracle direct: " + r.status().ToString();
      return false;
    }
    direct_oracle.push_back(*r);
  }
  std::vector<std::vector<SvsId>> clustering_oracle(ids.size());
  for (SvsId id : ids) {
    auto r = system.ClusteringQuery(id);
    if (!r.ok()) {
      *error = "oracle clustering: " + r.status().ToString();
      return false;
    }
    clustering_oracle[id] = r->similar_svss;
  }
  system.omd_cache().Clear();
  system.omd_cache().ResetStats();

  Outcome& outcome = report->outcome;
  auto issue = [&](const Arrival& a) {
    Client& client = edge->clients[a.conn];
    if (a.kind == kClustering) {
      auto r = client.ClusteringQuery(static_cast<SvsId>(a.input));
      if (!r.ok()) {
        outcome.Fail("clustering: " + r.status().ToString());
        return false;
      }
      if (r->timed_out || r->similar_svss != clustering_oracle[a.input]) {
        outcome.Fail("clustering answer differs from the in-process answer");
        return false;
      }
    } else {
      auto r = client.DirectQuery(in.features[a.input]);
      if (!r.ok()) {
        outcome.Fail("direct: " + r.status().ToString());
        return false;
      }
      const auto& want = direct_oracle[a.input];
      if (r->timed_out || r->candidate_svss != want.candidate_svss ||
          r->matched_svss != want.matched_svss) {
        outcome.Fail("direct answer differs from the in-process answer");
        return false;
      }
    }
    outcome.Ok();
    return true;
  };

  const double phase_s = config.trace ? config.seconds / 2 : config.seconds;
  const LatencyLog log =
      RunOpenLoop(Window(in.arrivals, 0, phase_s), 4, nullptr, nullptr, issue);
  ReportLatencies(log, report);
  SetMs(&report->workload_metrics, "clustering_p50_ms",
        Median(log.clustering_ms));
  SetMs(&report->workload_metrics, "clustering_p99_ms",
        Quantile(log.clustering_ms, 0.99));
  report->workload_metrics.Set("clustering_samples",
                               static_cast<double>(log.clustering_ms.size()),
                               "count");
  report->layers.Set("core.omd_cache_hit_ratio",
                     system.omd_cache().stats().hit_rate(), "ratio");
  SetMs(&report->layers, "loadgen.late_p99_ms", Quantile(log.late_ms, 0.99));
  if (config.trace) {
    // The schedule's second half, traced.
    const LatencyLog traced = RunOpenLoop(
        Window(in.arrivals, phase_s, config.seconds), 4, &report->tracer,
        nullptr, issue);
    report->layers.Set(
        "trace.overhead",
        Median(traced.direct_ms) / std::max(1e-9, Median(log.direct_ms)),
        "ratio");
  }
  ReportErrorRate(report);
  if (!config.trace) return true;
  edge->Stop();
  IngestReplay replay;
  return SharedLayerMetrics(&world, config, in, {&system},
                            Median(log.direct_ms), /*probe_fanout=*/true,
                            &replay, report, error);
}

// --------------------------------------------------------------------------
// sharded_fanout: a coordinator over two pre-ingested edges; direct queries
// open loop, a fresh feature each.
// --------------------------------------------------------------------------

bool RunShardedFanout(const RunConfig& config, RunReport* report,
                      std::string* error) {
  World world;
  const Inputs in =
      MakeInputs("sharded_fanout", config.seed, config.seconds, &world, 0);
  report->schedule_digest = in.digest.hex();
  report->properties.Set("direct_repeat_share", in.direct_repeat_share,
                         "ratio");
  report->properties.Set("clustering_repeat_share", 0.0, "ratio");
  auto d = SetUpRepeatedly<ShardedDeployment>(
      [&](ShardedDeployment* s) { return SetUpSharded(&world, s, error); },
      report);
  if (d == nullptr) return false;

  // Answers are checked after serving against the per-edge in-process
  // answers (shard order, global ids), so keep each one.
  struct Answer {
    bool ok = false;
    std::vector<SvsId> candidates;
    std::vector<SvsId> matched;
  };
  std::vector<Answer> answers(in.features.size());
  Outcome& outcome = report->outcome;
  auto issue = [&](const Arrival& a) {
    auto r = d->clients[a.conn].DirectQuery(in.features[a.input]);
    if (!r.ok()) {
      outcome.Fail("direct: " + r.status().ToString());
      return false;
    }
    if (r->degraded || r->timed_out) {
      outcome.Fail("direct answer degraded or timed out");
      return false;
    }
    answers[a.input] = {true, r->candidate_svss, r->matched_svss};
    outcome.Ok();
    return true;
  };

  const double phase_s = config.trace ? config.seconds / 2 : config.seconds;
  const vz::net::CoordinatorStats stats0 = d->coordinator->stats();
  const LatencyLog log =
      RunOpenLoop(Window(in.arrivals, 0, phase_s), 4, nullptr, nullptr, issue);
  CoordinatorLegMetrics(stats0, d->coordinator->stats(), &report->layers);
  ReportLatencies(log, report);
  SetMs(&report->layers, "loadgen.late_p99_ms", Quantile(log.late_ms, 0.99));
  if (config.trace) {
    const LatencyLog traced = RunOpenLoop(
        Window(in.arrivals, phase_s, config.seconds), 4, &report->tracer,
        nullptr, issue);
    report->layers.Set(
        "trace.overhead",
        Median(traced.direct_ms) / std::max(1e-9, Median(log.direct_ms)),
        "ratio");
    MetricSet probe;
    if (!ProbeFanout(d.get(), in.features, &probe, error)) return false;
    report->layers.Set("net.fanout_overhead_us",
                       probe.Get("net.fanout_overhead_us"), "us");
  }
  d->Stop();

  // Oracle: each edge's in-process answer, mapped into the global id space
  // in shard order.
  for (size_t i = 0; i < answers.size(); ++i) {
    if (!answers[i].ok) continue;
    std::vector<SvsId> candidates;
    std::vector<SvsId> matched;
    for (size_t shard = 0; shard < d->systems.size(); ++shard) {
      auto r = d->systems[shard]->DirectQuery(in.features[i]);
      if (!r.ok()) continue;
      for (SvsId id : r->candidate_svss) {
        candidates.push_back(vz::net::GlobalSvsId(shard, id));
      }
      for (SvsId id : r->matched_svss) {
        matched.push_back(vz::net::GlobalSvsId(shard, id));
      }
    }
    if (candidates != answers[i].candidates || matched != answers[i].matched) {
      outcome.FailCheck("sharded answer differs from the per-edge answers");
    }
  }
  ReportErrorRate(report);
  if (!config.trace) return true;
  std::vector<VideoZilla*> systems;
  for (auto& system : d->systems) systems.push_back(system.get());
  IngestReplay replay;
  return SharedLayerMetrics(&world, config, in, systems, Median(log.direct_ms),
                            /*probe_fanout=*/false, &replay, report, error);
}

// --------------------------------------------------------------------------
// ingest_live: a WAL-backed edge; the feed streams in beside standing
// queries and direct reads.
// --------------------------------------------------------------------------

struct PushRecord {
  uint64_t subscription = 0;
  vz::net::PushKind kind = vz::net::PushKind::kMatch;
  SvsId svs = 0;
  std::string camera;
  int64_t start_ms = 0;
  int64_t end_ms = 0;
  Clock::time_point arrived;
};

struct PushLog {
  std::mutex mu;
  std::vector<PushRecord> pushes;
  size_t matches = 0;
};

/// Aggregates over ingest_live's rounds.
struct IngestLiveTotals {
  std::vector<double> setup_s;
  std::vector<double> fps;
  std::vector<double> flush_s;
  std::vector<double> ack_ms;
  std::vector<double> push_ms;
  LatencyLog reads;
  uint64_t wal_appends = 0;
  uint64_t wal_fsyncs = 0;
  uint64_t push_drops = 0;
  uint64_t push_gaps = 0;
};

/// One round: a fresh WAL-backed edge; the feed streams closed loop on one
/// connection while 64 standing queries wait on a second and direct reads
/// arrive open loop on a third; then a timed Flush and the audit.
bool IngestLiveRound(World* world, const RunConfig& config, const Inputs& in,
                     const IngestReplay& oracle, int round, Tracer* tracer,
                     IngestLiveTotals* totals, Outcome* outcome,
                     std::string* error) {
  const std::string wal_dir = config.work_dir + "/wal-" +
                              std::to_string(getpid()) + "-" +
                              std::to_string(round);
  std::error_code ec;
  std::filesystem::remove_all(wal_dir, ec);
  std::filesystem::create_directories(wal_dir, ec);

  const Clock::time_point setup_start = Clock::now();
  std::unique_ptr<VideoZilla> system = world->NewSystem();
  vz::net::ServerOptions server_options;
  server_options.wal_dir = wal_dir;
  auto server = std::make_unique<vz::net::Server>(system.get(), server_options);
  vz::Status status = server->Start();
  if (!status.ok()) {
    *error = "server start: " + status.ToString();
    return false;
  }
  std::vector<Client> clients;  // 0 = ingest, 1 = subscriber, 2 = reader
  if (!ConnectClients(server->port(), 3, &clients, error)) return false;
  for (const auto& camera : world->cameras()) {
    status = clients[0].CameraStart(camera);
    if (!status.ok()) {
      *error = "CameraStart: " + status.ToString();
      return false;
    }
  }
  PushLog push_log;
  std::map<uint64_t, bool> match_all;  // subscription id -> matches all
  for (const SubscribeSpec& spec : StandingQueries(in.features)) {
    vz::net::SubscribeRequest request;
    request.query = spec.query;
    request.threshold = spec.threshold;
    auto id = clients[1].Subscribe(
        request, [&push_log](const vz::net::PushEvent& event) {
          PushRecord record{event.subscription_id, event.kind, event.svs_id,
                            event.camera,          event.start_ms, event.end_ms,
                            Clock::now()};
          std::lock_guard<std::mutex> lock(push_log.mu);
          if (event.kind == vz::net::PushKind::kMatch) ++push_log.matches;
          push_log.pushes.push_back(std::move(record));
        });
    if (!id.ok()) {
      *error = "Subscribe: " + id.status().ToString();
      return false;
    }
    match_all[*id] = spec.match_all;
  }
  totals->setup_s.push_back(MsBetween(setup_start, Clock::now()) / 1000.0);

  // Stream the feed; reads run open loop until the last frame is acked.
  const auto& frames = world->frames_by_time();
  std::vector<Clock::time_point> sent(frames.size());
  std::atomic<bool> streaming_done{false};
  LatencyLog reads;
  std::thread reader([&] {
    reads = RunOpenLoop(in.arrivals, 1, tracer, &streaming_done,
                        [&](const Arrival& a) {
                          auto r = clients[2].DirectQuery(in.features[a.input]);
                          if (!r.ok() || r->timed_out) {
                            outcome->Fail("direct during ingest: " +
                                          r.status().ToString());
                            return false;
                          }
                          outcome->Ok();
                          return true;
                        });
  });
  const Clock::time_point stream_start = Clock::now();
  for (size_t i = 0; i < frames.size(); ++i) {
    sent[i] = Clock::now();
    status = clients[0].IngestFrame(frames[i]);
    const Clock::time_point acked = Clock::now();
    if (!status.ok()) {
      outcome->Fail("IngestFrame: " + status.ToString());
      continue;
    }
    outcome->Ok();
    totals->ack_ms.push_back(MsBetween(sent[i], acked));
    if (tracer != nullptr) {
      tracer->Record(tracer->NextId(), 0, "ingest_frame", sent[i], acked);
    }
  }
  const Clock::time_point stream_end = Clock::now();
  streaming_done = true;
  reader.join();
  totals->reads.Merge(reads);
  totals->fps.push_back(static_cast<double>(frames.size()) /
                        (MsBetween(stream_start, stream_end) / 1000.0));

  const Clock::time_point flush_start = Clock::now();
  status = clients[0].Flush();
  const Clock::time_point flush_end = Clock::now();
  if (!status.ok()) {
    outcome->Fail("Flush: " + status.ToString());
  } else {
    outcome->Ok();
    totals->flush_s.push_back(MsBetween(flush_start, flush_end) / 1000.0);
    if (tracer != nullptr) {
      tracer->Record(tracer->NextId(), 0, "flush", flush_start, flush_end);
    }
  }

  // Every match-all subscription must see every non-empty SVS once.
  const vz::core::SvsStore& want = oracle.system->svs_store();
  std::vector<SvsId> nonempty;
  for (SvsId id : want.AllIds()) {
    auto svs = want.Get(id);
    if (svs.ok() && (*svs)->features().size() > 0) nonempty.push_back(id);
  }
  const size_t expected_pushes = 32 * nonempty.size();
  const Clock::time_point wait_until = Clock::now() + std::chrono::seconds(10);
  while (Clock::now() < wait_until) {
    {
      std::lock_guard<std::mutex> lock(push_log.mu);
      if (push_log.matches >= expected_pushes) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Audit.
  auto monitor = clients[0].MonitorStats();
  if (!monitor.ok()) {
    outcome->Fail("MonitorStats: " + monitor.status().ToString());
  } else {
    outcome->Ok();
    if (monitor->ingest.frames_offered != frames.size() ||
        monitor->ingest.frames_rejected != 0) {
      outcome->FailCheck("monitor ingest counters disagree with frames sent");
    }
    if (monitor->serving.wal_durable_lsn != monitor->serving.wal_last_lsn) {
      outcome->FailCheck("wal_durable_lsn != wal_last_lsn after the acks");
    }
    if (monitor->svs_count != want.size()) {
      outcome->FailCheck("served SVS count differs from the replay");
    }
  }
  std::map<std::pair<uint64_t, SvsId>, int> seen;
  std::set<SvsId> pushed_svss;
  {
    std::lock_guard<std::mutex> lock(push_log.mu);
    for (const PushRecord& p : push_log.pushes) {
      if (p.kind == vz::net::PushKind::kGap) {
        outcome->FailCheck("gap marker on a subscription");
        continue;
      }
      if (p.kind != vz::net::PushKind::kMatch) continue;
      auto svs = want.Get(p.svs);
      if (!match_all[p.subscription] || !svs.ok() ||
          (*svs)->camera() != p.camera || (*svs)->start_ms() != p.start_ms ||
          (*svs)->end_ms() != p.end_ms) {
        outcome->FailCheck("push does not match the replayed SVS");
        continue;
      }
      if (++seen[{p.subscription, p.svs}] > 1) {
        outcome->FailCheck("duplicate push");
        continue;
      }
      pushed_svss.insert(p.svs);
      // Pushes of segments finalized by a frame count from that frame's
      // send; those finalized by Flush count from the Flush call.
      const int64_t by = p.svs < static_cast<SvsId>(oracle.emitted_by.size())
                             ? oracle.emitted_by[p.svs]
                             : -1;
      const Clock::time_point cause = by >= 0 ? sent[by] : flush_start;
      totals->push_ms.push_back(MsBetween(cause, p.arrived));
      if (tracer != nullptr) {
        tracer->Record(tracer->NextId(), 0, "push", cause, p.arrived);
      }
    }
  }
  for (const auto& [sub, all] : match_all) {
    if (!all) continue;
    for (SvsId id : nonempty) {
      if (seen.count({sub, id}) > 0) {
        outcome->Ok();
      } else {
        outcome->Fail("missing push");
      }
    }
  }
  for (SvsId id : pushed_svss) {
    auto meta = clients[0].GetMetaData(id);
    if (!meta.ok() || meta->camera != want.Get(id).value()->camera()) {
      outcome->Fail("GetMetaData of a pushed SVS does not resolve");
    } else {
      outcome->Ok();
    }
  }

  const vz::net::ServerStats stats = server->stats();
  totals->wal_appends += stats.wal_appends;
  totals->wal_fsyncs += stats.wal_fsyncs;
  totals->push_drops += stats.push_drops;
  totals->push_gaps += stats.push_gaps_sent;
  clients.clear();
  server->Shutdown();
  server.reset();
  system.reset();
  std::filesystem::remove_all(wal_dir, ec);
  return true;
}

bool RunIngestLive(const RunConfig& config, RunReport* report,
                   std::string* error) {
  World world;
  const Inputs in =
      MakeInputs("ingest_live", config.seed, config.seconds, &world, 0);
  report->schedule_digest = in.digest.hex();
  report->properties.Set("direct_repeat_share", in.direct_repeat_share,
                         "ratio");
  report->properties.Set("clustering_repeat_share", 0.0, "ratio");

  IngestReplay oracle;
  if (!ReplayIngest(&world, &oracle, error)) return false;
  size_t finalizing = 0;
  for (bool emitted : oracle.frame_emitted) finalizing += emitted ? 1 : 0;
  report->properties.Set(
      "segment_frame_share",
      static_cast<double>(finalizing) /
          std::max<double>(1.0,
                           static_cast<double>(oracle.frame_emitted.size())),
      "ratio");

  // Rounds repeat until the phase's time is used up (at least one).
  auto run_rounds = [&](double seconds, Tracer* tracer, int* round,
                        IngestLiveTotals* totals) {
    const Clock::time_point start = Clock::now();
    do {
      if (!IngestLiveRound(&world, config, in, oracle, (*round)++, tracer,
                           totals, &report->outcome, error)) {
        return false;
      }
    } while (MsBetween(start, Clock::now()) / 1000.0 < seconds);
    return true;
  };
  const double phase_s = config.trace ? config.seconds / 2 : config.seconds;
  int round = 0;
  IngestLiveTotals totals;
  if (!run_rounds(phase_s, nullptr, &round, &totals)) return false;

  report->e2e.Set("setup_s", Median(totals.setup_s), "s");
  ReportLatencies(totals.reads, report);
  MetricSet& w = report->workload_metrics;
  w.Set("ingest_fps", Median(totals.fps), "frames/s");
  SetMs(&w, "ingest_ack_p50_ms", Median(totals.ack_ms));
  SetMs(&w, "ingest_ack_p99_ms", Quantile(totals.ack_ms, 0.99));
  w.Set("flush_s", Median(totals.flush_s), "s");
  SetMs(&w, "push_p50_ms", Median(totals.push_ms));
  SetMs(&w, "push_p99_ms", Quantile(totals.push_ms, 0.99));
  w.Set("rounds", static_cast<double>(round), "count");
  w.Set("push_samples", static_cast<double>(totals.push_ms.size()), "count");
  SetMs(&report->layers, "loadgen.late_p99_ms",
        Quantile(totals.reads.late_ms, 0.99));
  report->layers.Set(
      "io.appends_per_fsync",
      static_cast<double>(totals.wal_appends) /
          std::max<double>(1.0, static_cast<double>(totals.wal_fsyncs)),
      "ratio");
  report->layers.Set("net.push_drops", static_cast<double>(totals.push_drops),
                     "count");
  report->layers.Set("net.push_gaps", static_cast<double>(totals.push_gaps),
                     "count");
  if (config.trace) {
    IngestLiveTotals traced;
    if (!run_rounds(phase_s, &report->tracer, &round, &traced)) return false;
    report->layers.Set(
        "trace.overhead",
        Median(traced.ack_ms) / std::max(1e-9, Median(totals.ack_ms)),
        "ratio");
  }
  ReportErrorRate(report);
  if (!config.trace) return true;
  return SharedLayerMetrics(&world, config, in, {oracle.system.get()},
                            Median(totals.reads.direct_ms),
                            /*probe_fanout=*/true, &oracle, report, error);
}

}  // namespace

const std::vector<std::pair<std::string, std::string>>& LayerMetricUnits() {
  static const std::vector<std::pair<std::string, std::string>> kUnits = {
      {"vector.ground_matrix_us", "us"},
      {"vector.euclid_ns_per_row", "ns"},
      {"solver.omd_solve_us", "us"},
      {"core.omd_solves_per_clustering", "count"},
      {"core.omd_solves_per_direct", "count"},
      {"core.omd_cache_hit_ratio", "ratio"},
      {"core.direct_us_p50", "us"},
      {"core.clustering_us_p50", "us"},
      {"core.candidates_per_direct", "count"},
      {"core.cameras_searched_per_direct", "count"},
      {"core.frames_verified_per_direct", "count"},
      {"core.ingest_frame_us_p50", "us"},
      {"core.segment_emit_ms_p50", "ms"},
      {"core.segment_emit_ms_max", "ms"},
      {"core.segment_time_share", "ratio"},
      {"core.omd_solves_per_segment", "count"},
      {"core.flush_ms", "ms"},
      {"index.intra_insert_us_p50", "us"},
      {"index.intra_insert_us_max", "us"},
      {"index.inter_update_ms_p50", "ms"},
      {"index.inter_update_ms_max", "ms"},
      {"io.append_durable_us_p50", "us"},
      {"io.append_durable_us_p99", "us"},
      {"io.appends_per_fsync", "ratio"},
      {"net.rpc_overhead_us", "us"},
      {"net.sub_on_segment_us_p50", "us"},
      {"net.sub_on_segment_us_max", "us"},
      {"net.push_drops", "count"},
      {"net.push_gaps", "count"},
      {"net.fanout_overhead_us", "us"},
      {"net.legs_per_query", "count"},
      {"net.pruned_leg_ratio", "ratio"},
      {"loadgen.late_p99_ms", "ms"},
      {"trace.overhead", "ratio"},
  };
  return kUnits;
}

bool RunWorkload(const RunConfig& config, RunReport* report,
                 std::string* error) {
  // Counters of a layer a workload does not exercise read 0 (see README.md).
  for (const auto& [name, unit] : LayerMetricUnits()) {
    report->layers.Set(name, 0.0, unit);
  }
  std::error_code ec;
  std::filesystem::create_directories(config.work_dir, ec);
  bool ok = false;
  if (config.workload == "query_mix") {
    ok = RunQueryMix(config, report, error);
  } else if (config.workload == "ingest_live") {
    ok = RunIngestLive(config, report, error);
  } else if (config.workload == "sharded_fanout") {
    ok = RunShardedFanout(config, report, error);
  } else {
    *error = "unknown workload: " + config.workload;
    return false;
  }
  if (ok && config.trace && !config.trace_out.empty() &&
      !report->tracer.WriteJsonl(config.trace_out)) {
    *error = "cannot write spans to " + config.trace_out;
    return false;
  }
  return ok;
}

std::string DumpSchedule(const RunConfig& config, const std::string& path) {
  World world;
  size_t num_svs = 0;
  if (config.workload == "query_mix") {
    auto system = world.NewSystem();
    if (world.deployment().IngestAll(system.get()).ok()) {
      num_svs = system->svs_store().size();
    }
  }
  const Inputs in =
      MakeInputs(config.workload, config.seed, config.seconds, &world, num_svs);
  std::ofstream out(path, std::ios::binary);
  out.write(in.digest.bytes().data(),
            static_cast<std::streamsize>(in.digest.bytes().size()));
  return in.digest.hex();
}

}  // namespace vzb
