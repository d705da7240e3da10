// vz_cli — a small operator console for the indexing layer: build a
// simulated deployment, ingest it, answer queries, snapshot and restore.
// With --connect the same console drives a remote vz_server over the binary
// RPC protocol instead of an in-process instance.
//
//   vz_cli [--downtown N] [--highway N] [--stations N] [--harbors N]
//          [--minutes M] [--query CLASS]...
//          [--mode hierarchical|intra|flatsvs|flat]
//          [--save PATH] [--load PATH] [--seed S]
//          [--deadline-ms D] [--max-inflight N] [--connect HOST:PORT]
//          [--subscribe CLASS|all] [--sub-threshold T] [--sub-camera NAME]...
//          [--watch-seconds S] [--tune-boundary-scale X] [--tune-omd-alpha A]
//          [--tune-index-mode MODE] [--tune-keyframe on|off]
//
// Examples:
//   vz_cli --downtown 4 --harbors 2 --minutes 6 --query boat --query train
//   vz_cli --load snapshot.vzss --query fire_hydrant
//   vz_cli --connect 127.0.0.1:9400 --query boat
//   vz_cli --connect 127.0.0.1:9400 --subscribe boat --watch-seconds 60
//   vz_cli --connect 127.0.0.1:9400 --tune-boundary-scale 1.5
//
// In connect mode the deployment flags must match the server's (both sides
// regenerate the same simulated world); ingestion streams over the wire
// unless the server already holds data, and --save/--load trigger
// server-local snapshots. --subscribe registers a standing query and
// prints match pushes as the server finalizes segments —
// run it in one terminal while another vz_cli (or any ingest source) feeds
// the server. --tune-* sends a kAdminTune RPC and prints the echoed
// settings.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "core/videozilla.h"
#include "io/svs_snapshot.h"
#include "net/client.h"
#include "sim/dataset.h"
#include "sim/object_class.h"
#include "sim/verifier.h"

namespace {

int ClassByName(const std::string& name) {
  for (int c = 0; c < vz::sim::kNumObjectClasses; ++c) {
    if (vz::sim::ObjectClassName(c) == name) return c;
  }
  return -1;
}

// Index mode names, in `core::IndexMode` (and kAdminTune wire) order.
constexpr const char* kModeNames[] = {"hierarchical", "intra", "flatsvs",
                                      "flat"};

int ModeByName(const std::string& name) {
  for (int m = 0; m < static_cast<int>(std::size(kModeNames)); ++m) {
    if (name == kModeNames[m]) return m;
  }
  return -1;
}

struct CliOptions {
  size_t downtown = 2;
  size_t highway = 2;
  size_t stations = 1;
  size_t harbors = 1;
  int64_t minutes = 5;
  std::vector<int> queries;
  int mode = 0;  // index into kModeNames
  std::string save_path;
  std::string load_path;
  uint64_t seed = 7;
  // Wall-clock budget per query; <= 0 means no deadline.
  int64_t deadline_ms = 0;
  // Admission gate size; 0 means unlimited (no gating).
  size_t max_inflight = 0;
  // Remote mode: drive a vz_server at host:port instead of an in-process
  // instance.
  std::string connect;
  // Standing query (connect mode only): object class name, or "all".
  std::string subscribe_class;
  double sub_threshold = 1e12;
  std::vector<std::string> sub_cameras;
  int64_t watch_seconds = 30;
  // kAdminTune knobs (connect mode only); unset fields are left untouched
  // server-side.
  vz::net::AdminTuneRequest tune;
  bool has_tune = false;
};

bool ParseArgs(int argc, char** argv, CliOptions* options) {
  auto next_value = [&](int* i) -> const char* {
    if (*i + 1 >= argc) return nullptr;
    return argv[++*i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = nullptr;
    if (arg == "--downtown" && (value = next_value(&i))) {
      options->downtown = static_cast<size_t>(std::atoi(value));
    } else if (arg == "--highway" && (value = next_value(&i))) {
      options->highway = static_cast<size_t>(std::atoi(value));
    } else if (arg == "--stations" && (value = next_value(&i))) {
      options->stations = static_cast<size_t>(std::atoi(value));
    } else if (arg == "--harbors" && (value = next_value(&i))) {
      options->harbors = static_cast<size_t>(std::atoi(value));
    } else if (arg == "--minutes" && (value = next_value(&i))) {
      options->minutes = std::atoll(value);
    } else if (arg == "--seed" && (value = next_value(&i))) {
      options->seed = static_cast<uint64_t>(std::atoll(value));
    } else if (arg == "--query" && (value = next_value(&i))) {
      const int cls = ClassByName(value);
      if (cls < 0) {
        std::fprintf(stderr, "unknown object class: %s\n", value);
        return false;
      }
      options->queries.push_back(cls);
    } else if (arg == "--mode" && (value = next_value(&i))) {
      options->mode = ModeByName(value);
      if (options->mode < 0) {
        std::fprintf(stderr, "unknown index mode: %s\n", value);
        return false;
      }
    } else if (arg == "--deadline-ms" && (value = next_value(&i))) {
      options->deadline_ms = std::atoll(value);
    } else if (arg == "--max-inflight" && (value = next_value(&i))) {
      options->max_inflight = static_cast<size_t>(std::atoi(value));
    } else if (arg == "--save" && (value = next_value(&i))) {
      options->save_path = value;
    } else if (arg == "--load" && (value = next_value(&i))) {
      options->load_path = value;
    } else if (arg == "--connect" && (value = next_value(&i))) {
      options->connect = value;
    } else if (arg == "--subscribe" && (value = next_value(&i))) {
      if (std::string(value) != "all" && ClassByName(value) < 0) {
        std::fprintf(stderr, "unknown object class: %s\n", value);
        return false;
      }
      options->subscribe_class = value;
    } else if (arg == "--sub-threshold" && (value = next_value(&i))) {
      options->sub_threshold = std::atof(value);
    } else if (arg == "--sub-camera" && (value = next_value(&i))) {
      options->sub_cameras.push_back(value);
    } else if (arg == "--watch-seconds" && (value = next_value(&i))) {
      options->watch_seconds = std::atoll(value);
    } else if (arg == "--tune-boundary-scale" && (value = next_value(&i))) {
      options->tune.boundary_scale = std::atof(value);
      options->has_tune = true;
    } else if (arg == "--tune-omd-alpha" && (value = next_value(&i))) {
      options->tune.omd_alpha = std::atof(value);
      options->has_tune = true;
    } else if (arg == "--tune-index-mode" && (value = next_value(&i))) {
      const int mode = ModeByName(value);
      if (mode < 0) {
        std::fprintf(stderr, "unknown index mode: %s\n", value);
        return false;
      }
      options->tune.index_mode = static_cast<uint32_t>(mode);
      options->has_tune = true;
    } else if (arg == "--tune-keyframe" && (value = next_value(&i))) {
      options->tune.keyframe_selection = std::strcmp(value, "on") == 0;
      options->has_tune = true;
    } else if (arg == "--help") {
      return false;
    } else {
      std::fprintf(stderr, "unknown or incomplete flag: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

// Remote mode: the same console flow — ingest, query, snapshot — but every
// operation is an RPC against a vz_server. The deployment is still built
// locally: it supplies the frames to stream (when the server is empty) and
// the query features, and matching flags/seed guarantee both sides describe
// the same simulated world.
int RunConnected(vz::sim::Deployment* deployment, const CliOptions& cli) {
  using namespace vz;
  const size_t colon = cli.connect.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == cli.connect.size()) {
    std::fprintf(stderr, "--connect expects HOST:PORT, got %s\n",
                 cli.connect.c_str());
    return 2;
  }
  const std::string host = cli.connect.substr(0, colon);
  const int port = std::atoi(cli.connect.c_str() + colon + 1);
  if (port <= 0 || port > 65535) {
    std::fprintf(stderr, "bad port in --connect %s\n", cli.connect.c_str());
    return 2;
  }
  auto client_or = net::Client::Connect(host, static_cast<uint16_t>(port));
  if (!client_or.ok()) {
    std::fprintf(stderr, "connect failed: %s\n",
                 client_or.status().ToString().c_str());
    return 1;
  }
  net::Client client = std::move(*client_or);
  std::printf("connected to %s (protocol v%u)\n", cli.connect.c_str(),
              client.server_protocol_version());
  if (cli.mode != 0) {
    std::fprintf(stderr,
                 "--mode is server-side configuration; ignored in connect "
                 "mode\n");
  }

  if (cli.has_tune) {
    auto tuned = client.AdminTune(cli.tune);
    if (!tuned.ok()) {
      std::fprintf(stderr, "admin tune failed: %s\n",
                   tuned.status().ToString().c_str());
      return 1;
    }
    std::printf("tuned: index_mode=%s boundary_scale=%.3f omd_alpha=%.3f "
                "keyframe=%s inter_groups=%llu intra_clusters=%llu\n",
                tuned->index_mode < std::size(kModeNames)
                    ? kModeNames[tuned->index_mode]
                    : "?",
                tuned->boundary_scale, tuned->omd_alpha,
                tuned->keyframe_selection ? "on" : "off",
                static_cast<unsigned long long>(tuned->inter_group_count),
                static_cast<unsigned long long>(tuned->intra_cluster_count));
  }

  if (!cli.subscribe_class.empty()) {
    // Standing-query mode: no ingest, no one-shot queries — register the
    // subscription and print pushes as the server finalizes segments.
    Rng sub_rng(cli.seed ^ 0x5B);
    net::SubscribeRequest request;
    const bool match_all = cli.subscribe_class == "all";
    request.query = deployment->MakeQueryFeature(
        match_all ? 0 : ClassByName(cli.subscribe_class), &sub_rng);
    request.threshold = match_all ? 1e12 : cli.sub_threshold;
    if (!cli.sub_cameras.empty()) {
      request.has_camera_filter = true;
      request.cameras = cli.sub_cameras;
    }
    request.want_stats = true;  // index-version updates ride along
    std::atomic<uint64_t> pushes{0};
    auto sub_id = client.Subscribe(request, [&](const net::PushEvent& event) {
      switch (event.kind) {
        case net::PushKind::kMatch:
          std::printf("push #%llu: match svs %lld  %-20s %5llds - %5llds  "
                      "distance %.3f\n",
                      static_cast<unsigned long long>(event.sequence),
                      static_cast<long long>(event.svs_id),
                      event.camera.c_str(),
                      static_cast<long long>(event.start_ms / 1000),
                      static_cast<long long>(event.end_ms / 1000),
                      event.distance);
          break;
        case net::PushKind::kIndexUpdate:
          std::printf("push #%llu: index version %llu\n",
                      static_cast<unsigned long long>(event.sequence),
                      static_cast<unsigned long long>(event.index_version));
          break;
        case net::PushKind::kGap:
          std::printf("push #%llu: GAP — %llu events dropped (slow "
                      "consumer)\n",
                      static_cast<unsigned long long>(event.sequence),
                      static_cast<unsigned long long>(event.dropped));
          break;
      }
      std::fflush(stdout);
      pushes.fetch_add(1);
    });
    if (!sub_id.ok()) {
      std::fprintf(stderr, "subscribe failed: %s\n",
                   sub_id.status().ToString().c_str());
      return 1;
    }
    std::printf("subscribed (id %llu): standing query '%s', threshold %g%s; "
                "watching %llds (feed the server from another terminal)\n",
                static_cast<unsigned long long>(*sub_id),
                cli.subscribe_class.c_str(), request.threshold,
                cli.sub_cameras.empty() ? "" : ", camera-filtered",
                static_cast<long long>(cli.watch_seconds));
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::seconds(cli.watch_seconds));
    if (Status s = client.Unsubscribe(*sub_id); !s.ok()) {
      std::fprintf(stderr, "unsubscribe failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("unsubscribed after %llu pushes\n",
                static_cast<unsigned long long>(pushes.load()));
    return 0;
  }

  if (!cli.load_path.empty()) {
    auto loaded = client.LoadSnapshot(cli.load_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "load failed: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    std::printf("restored %llu SVSs from %s (server-local)\n",
                static_cast<unsigned long long>(*loaded),
                cli.load_path.c_str());
  } else {
    auto stats = client.MonitorStats();
    if (!stats.ok()) {
      std::fprintf(stderr, "stats failed: %s\n",
                   stats.status().ToString().c_str());
      return 1;
    }
    if (stats->ingest.frames_offered == 0 && stats->svs_count == 0) {
      // Stream the local world over the wire: the same camera-start /
      // per-frame / flush sequence Deployment::IngestAll performs
      // in-process.
      for (const auto& info : deployment->cameras()) {
        if (Status s = client.CameraStart(info.camera); !s.ok()) {
          std::fprintf(stderr, "camera start failed: %s\n",
                       s.ToString().c_str());
          return 1;
        }
      }
      for (const auto& observation : deployment->observations()) {
        if (Status s = client.IngestFrame(observation); !s.ok()) {
          std::fprintf(stderr, "ingest failed: %s\n", s.ToString().c_str());
          return 1;
        }
      }
      if (Status s = client.Flush(); !s.ok()) {
        std::fprintf(stderr, "flush failed: %s\n", s.ToString().c_str());
        return 1;
      }
      stats = client.MonitorStats();
      if (!stats.ok()) {
        std::fprintf(stderr, "stats failed: %s\n",
                     stats.status().ToString().c_str());
        return 1;
      }
    } else {
      std::printf("server already holds data; skipping ingest\n");
    }
    std::printf("ingested %llu frames / %llu features -> %llu SVSs across "
                "%llu cameras\n",
                static_cast<unsigned long long>(stats->ingest.frames_offered),
                static_cast<unsigned long long>(
                    stats->ingest.features_extracted),
                static_cast<unsigned long long>(stats->svs_count),
                static_cast<unsigned long long>(stats->camera_count));
    if (stats->ingest.frames_rejected > 0 ||
        stats->ingest.objects_quarantined > 0) {
      std::printf("quarantined: %llu frames rejected, %llu objects\n",
                  static_cast<unsigned long long>(
                      stats->ingest.frames_rejected),
                  static_cast<unsigned long long>(
                      stats->ingest.objects_quarantined));
    }
    // Disk health surfaces only when something is actually wrong — a
    // healthy deployment prints nothing here.
    if (stats->serving.disk_io_errors > 0 ||
        stats->serving.disk_fsync_failures > 0 ||
        stats->serving.checkpoints_quarantined > 0 ||
        stats->serving.disk_full || stats->serving.read_only) {
      std::printf("disk health: %llu io errors, %llu fsync failures, "
                  "%llu checkpoints quarantined%s%s\n",
                  static_cast<unsigned long long>(
                      stats->serving.disk_io_errors),
                  static_cast<unsigned long long>(
                      stats->serving.disk_fsync_failures),
                  static_cast<unsigned long long>(
                      stats->serving.checkpoints_quarantined),
                  stats->serving.disk_full ? " [disk full]" : "",
                  stats->serving.read_only ? " [READ-ONLY]" : "");
    }
    if (auto health = client.CameraHealthReport(); health.ok()) {
      for (const auto& entry : *health) {
        if (entry.health != core::CameraHealth::kHealthy) {
          std::printf(
              "camera %s: %s\n", entry.camera.c_str(),
              std::string(core::CameraHealthToString(entry.health)).c_str());
        }
      }
    }
  }

  Rng rng(cli.seed ^ 0x51);
  core::QueryConstraints constraints;
  if (cli.deadline_ms > 0) constraints.deadline_ms = cli.deadline_ms;
  for (int object_class : cli.queries) {
    const FeatureVector query =
        deployment->MakeQueryFeature(object_class, &rng);
    auto result = client.DirectQuery(query, constraints);
    if (!result.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   result.status().ToString().c_str());
      continue;
    }
    std::printf("\nquery %s [remote]: %zu candidates -> %zu matches, "
                "%.0f ms GPU%s\n",
                std::string(sim::ObjectClassName(object_class)).c_str(),
                result->candidate_svss.size(), result->matched_svss.size(),
                result->total_gpu_ms,
                result->timed_out ? " [timed out: partial result]" : "");
    if (result->timed_out) {
      std::printf("  completed %.0f%% of planned verification before the "
                  "%lldms deadline\n",
                  result->completed_fraction * 100.0,
                  static_cast<long long>(cli.deadline_ms));
    }
    for (core::SvsId id : result->matched_svss) {
      auto meta = client.GetMetaData(id);
      if (!meta.ok()) continue;
      std::printf("  %-20s %5llds - %5llds  (%zu frames)\n",
                  meta->camera.c_str(),
                  static_cast<long long>(meta->start_ms / 1000),
                  static_cast<long long>(meta->end_ms / 1000),
                  meta->num_frames);
    }
    if (!result->matched_svss.empty()) {
      // Pivot the best match into the other query primitive: all streams
      // semantically similar to it, again entirely over the wire.
      const core::SvsId pivot = result->matched_svss.front();
      auto peers = client.ClusteringQuery(pivot, constraints);
      if (peers.ok()) {
        std::printf("  clusteringQuery(SVS %lld): %zu similar streams "
                    "across %zu cameras%s\n",
                    static_cast<long long>(pivot),
                    peers->similar_svss.size(), peers->cameras_contributing,
                    peers->timed_out ? " [timed out: partial result]" : "");
      }
    }
  }

  if (auto load = client.QueryLoadStats();
      load.ok() && (load->shed > 0 || load->timed_out > 0)) {
    std::printf("\noverload: %llu queries shed, %llu timed out "
                "(%lldms total deadline overshoot)\n",
                static_cast<unsigned long long>(load->shed),
                static_cast<unsigned long long>(load->timed_out),
                static_cast<long long>(load->timeout_overshoot_ms_total));
  }

  if (!cli.save_path.empty()) {
    if (Status s = client.SaveSnapshot(cli.save_path); !s.ok()) {
      std::fprintf(stderr, "save failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("\nsnapshot written to %s (server-local)\n",
                cli.save_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vz;
  CliOptions cli;
  if (!ParseArgs(argc, argv, &cli)) {
    std::fprintf(stderr,
                 "usage: vz_cli [--downtown N] [--highway N] [--stations N] "
                 "[--harbors N] [--minutes M] [--query CLASS]... "
                 "[--mode hierarchical|intra|flatsvs|flat] [--save PATH] "
                 "[--load PATH] [--seed S] [--deadline-ms D] "
                 "[--max-inflight N] [--connect HOST:PORT] "
                 "[--subscribe CLASS|all] [--sub-threshold T] "
                 "[--sub-camera NAME]... [--watch-seconds S] "
                 "[--tune-boundary-scale X] [--tune-omd-alpha A] "
                 "[--tune-index-mode MODE] [--tune-keyframe on|off]\n");
    return 2;
  }
  if (cli.connect.empty() && (!cli.subscribe_class.empty() || cli.has_tune)) {
    std::fprintf(stderr,
                 "--subscribe and --tune-* require --connect: standing "
                 "queries and admin tuning are server-side features\n");
    return 2;
  }

  sim::DeploymentOptions dep_options;
  dep_options.cities = 1;
  dep_options.downtown_per_city = cli.downtown;
  dep_options.highway_cameras = cli.highway;
  dep_options.train_stations = cli.stations;
  dep_options.harbors = cli.harbors;
  dep_options.feed_duration_ms = cli.minutes * 60 * 1000;
  dep_options.fps = 1.0;
  dep_options.seed = cli.seed;
  sim::Deployment deployment(dep_options);

  if (!cli.connect.empty()) return RunConnected(&deployment, cli);

  core::VideoZillaOptions options;
  options.segmenter.t_max_ms = std::max<int64_t>(30'000,
                                                 cli.minutes * 60'000 / 5);
  options.segmenter.t_split_ms = options.segmenter.t_max_ms / 10;
  options.boundary_scale = 1.8;
  options.enable_keyframe_selection = false;
  // Overload protection: deadlines run on the wall clock (the default time
  // source); the admission gate is sized by --max-inflight with a one-deep
  // wait queue so a brief burst queues instead of shedding.
  if (cli.max_inflight > 0) {
    options.admission.max_in_flight = cli.max_inflight;
    options.admission.max_queue = 1;
  }
  core::VideoZilla vz(options);

  if (!cli.load_path.empty()) {
    // The simulated world (and its ground-truth log, which the verifier
    // consults) must be regenerated with the same deployment flags the
    // snapshot was built with.
    (void)deployment.observations();
    core::SvsStore loaded;
    if (Status s = io::LoadSvsStore(cli.load_path, &loaded); !s.ok()) {
      std::fprintf(stderr, "load failed: %s\n", s.ToString().c_str());
      return 1;
    }
    if (Status s = vz.RestoreFromSvsStore(loaded); !s.ok()) {
      std::fprintf(stderr, "restore failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("restored %zu SVSs across %zu cameras from %s\n",
                vz.svs_store().size(), vz.cameras().size(),
                cli.load_path.c_str());
  } else {
    if (Status s = deployment.IngestAll(&vz); !s.ok()) {
      std::fprintf(stderr, "ingest failed: %s\n", s.ToString().c_str());
      return 1;
    }
    const auto& stats = vz.ingest_stats();
    std::printf("ingested %llu frames / %llu features -> %zu SVSs across "
                "%zu cameras\n",
                static_cast<unsigned long long>(stats.frames_offered),
                static_cast<unsigned long long>(stats.features_extracted),
                vz.svs_store().size(), vz.cameras().size());
    if (stats.frames_rejected > 0 || stats.objects_quarantined > 0) {
      std::printf("quarantined: %llu frames rejected, %llu objects\n",
                  static_cast<unsigned long long>(stats.frames_rejected),
                  static_cast<unsigned long long>(stats.objects_quarantined));
    }
    for (const auto& [camera, health] : vz.CameraHealthReport()) {
      if (health != core::CameraHealth::kHealthy) {
        std::printf("camera %s: %s\n", camera.c_str(),
                    std::string(core::CameraHealthToString(health)).c_str());
      }
    }
  }

  vz.SetIndexMode(static_cast<core::IndexMode>(cli.mode));

  sim::HeavyModel heavy;
  sim::SimObjectVerifier verifier(&deployment.space(), &deployment.log(),
                                  &heavy);
  vz.SetVerifier(&verifier);

  Rng rng(cli.seed ^ 0x51);
  core::QueryConstraints constraints;
  if (cli.deadline_ms > 0) constraints.deadline_ms = cli.deadline_ms;
  for (int object_class : cli.queries) {
    const FeatureVector query =
        deployment.MakeQueryFeature(object_class, &rng);
    auto result = vz.DirectQuery(query, constraints);
    if (!result.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   result.status().ToString().c_str());
      continue;
    }
    std::printf("\nquery %s [%s mode]: %zu candidates -> %zu matches, "
                "%.0f ms GPU%s\n",
                std::string(sim::ObjectClassName(object_class)).c_str(),
                kModeNames[cli.mode], result->candidate_svss.size(),
                result->matched_svss.size(), result->total_gpu_ms,
                result->timed_out ? " [timed out: partial result]" : "");
    if (result->timed_out) {
      std::printf("  completed %.0f%% of planned verification before the "
                  "%lldms deadline\n",
                  result->completed_fraction * 100.0,
                  static_cast<long long>(cli.deadline_ms));
    }
    for (core::SvsId id : result->matched_svss) {
      auto meta = vz.GetMetaData(id);
      if (!meta.ok()) continue;
      std::printf("  %-20s %5llds - %5llds  (%zu frames)\n",
                  meta->camera.c_str(),
                  static_cast<long long>(meta->start_ms / 1000),
                  static_cast<long long>(meta->end_ms / 1000),
                  meta->num_frames);
    }
    if (!result->matched_svss.empty()) {
      // Pivot the best match into the other query primitive: all streams
      // semantically similar to it.
      const core::SvsId pivot = result->matched_svss.front();
      auto peers = vz.ClusteringQuery(pivot, constraints);
      if (peers.ok()) {
        std::printf("  clusteringQuery(SVS %lld): %zu similar streams "
                    "across %zu cameras%s\n",
                    static_cast<long long>(pivot),
                    peers->similar_svss.size(), peers->cameras_contributing,
                    peers->timed_out ? " [timed out: partial result]" : "");
      }
    }
  }

  // Overload counters, in the same style as the ingestion quarantine line.
  const core::QueryLoadStats load = vz.query_load_stats();
  if (load.shed > 0 || load.timed_out > 0) {
    std::printf("\noverload: %llu queries shed, %llu timed out "
                "(%lldms total deadline overshoot)\n",
                static_cast<unsigned long long>(load.shed),
                static_cast<unsigned long long>(load.timed_out),
                static_cast<long long>(load.timeout_overshoot_ms_total));
  }

  if (!cli.save_path.empty()) {
    if (Status s = io::SaveSvsStore(vz.svs_store(), cli.save_path); !s.ok()) {
      std::fprintf(stderr, "save failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("\nsnapshot written to %s\n", cli.save_path.c_str());
  }
  return 0;
}
