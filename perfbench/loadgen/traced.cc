#include "loadgen/traced.h"

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>

#include "core/inter_camera_index.h"
#include "core/intra_camera_index.h"
#include "core/omd.h"
#include "core/omd_cache.h"
#include "io/binary_format.h"
#include "io/wal.h"
#include "net/subscription.h"
#include "net/wire.h"

namespace vzb {

using vz::core::SvsId;
using vz::core::VideoZilla;

bool ReplayIngest(World* world, IngestReplay* replay, std::string* error) {
  replay->system = world->NewSystem();
  VideoZilla& system = *replay->system;
  for (const auto& camera : world->cameras()) {
    vz::Status status = system.CameraStart(camera);
    if (!status.ok()) {
      *error = "replay CameraStart: " + status.ToString();
      return false;
    }
  }
  const auto& frames = world->frames_by_time();
  replay->frame_us.reserve(frames.size());
  auto note_new_svss = [&](uint64_t before, int64_t frame) {
    const uint64_t after = system.ingest_stats().svs_created;
    for (uint64_t id = before; id < after; ++id) {
      replay->emitted_by.resize(id + 1, -1);
      replay->emitted_by[id] = frame;
    }
    return after > before;
  };
  for (size_t i = 0; i < frames.size(); ++i) {
    const uint64_t before = system.ingest_stats().svs_created;
    const uint64_t solves = system.omd().num_computations();
    const Clock::time_point t0 = Clock::now();
    vz::Status status = system.IngestFrame(frames[i]);
    const Clock::time_point t1 = Clock::now();
    if (!status.ok()) {
      *error = "replay IngestFrame: " + status.ToString();
      return false;
    }
    replay->frame_us.push_back(UsBetween(t0, t1));
    const bool emitted = note_new_svss(before, static_cast<int64_t>(i));
    replay->frame_emitted.push_back(emitted);
    if (emitted) {
      replay->emit_solves.push_back(
          static_cast<double>(system.omd().num_computations() - solves));
    }
  }
  const uint64_t before = system.ingest_stats().svs_created;
  const uint64_t solves = system.omd().num_computations();
  const Clock::time_point t0 = Clock::now();
  vz::Status status = system.Flush();
  replay->flush_ms = MsBetween(t0, Clock::now());
  if (!status.ok()) {
    *error = "replay Flush: " + status.ToString();
    return false;
  }
  replay->flush_solves = system.omd().num_computations() - solves;
  note_new_svss(before, -1);
  return true;
}

void IngestLayerMetrics(const IngestReplay& replay, MetricSet* out) {
  std::vector<double> plain_us;
  std::vector<double> emit_ms;
  double total_us = replay.flush_ms * 1000.0;
  double emit_us = replay.flush_ms * 1000.0;
  for (size_t i = 0; i < replay.frame_us.size(); ++i) {
    total_us += replay.frame_us[i];
    if (replay.frame_emitted[i]) {
      emit_ms.push_back(replay.frame_us[i] / 1000.0);
      emit_us += replay.frame_us[i];
    } else {
      plain_us.push_back(replay.frame_us[i]);
    }
  }
  double solves = static_cast<double>(replay.flush_solves);
  for (double s : replay.emit_solves) solves += s;
  const double segments =
      std::max<double>(1.0, static_cast<double>(replay.emitted_by.size()));
  out->Set("core.ingest_frame_us_p50", Median(plain_us), "us");
  out->Set("core.segment_emit_ms_p50", Median(emit_ms), "ms");
  out->Set("core.segment_emit_ms_max", Max(emit_ms), "ms");
  out->Set("core.segment_time_share", total_us > 0 ? emit_us / total_us : 0.0,
           "ratio");
  out->Set("core.omd_solves_per_segment", solves / segments, "count");
  out->Set("core.flush_ms", replay.flush_ms, "ms");
}

void QueryLayerMetrics(const std::vector<VideoZilla*>& systems,
                       const std::vector<vz::FeatureVector>& direct_features,
                       const std::vector<SvsId>& clustering_targets,
                       MetricSet* out) {
  std::vector<double> direct_us;
  double solves = 0.0, candidates = 0.0, cameras = 0.0, frames = 0.0;
  for (const vz::FeatureVector& feature : direct_features) {
    double us = 0.0;
    for (VideoZilla* system : systems) {
      const uint64_t s0 = system->omd().num_computations();
      const Clock::time_point t0 = Clock::now();
      auto result = system->DirectQuery(feature);
      us += UsBetween(t0, Clock::now());
      solves += static_cast<double>(system->omd().num_computations() - s0);
      if (!result.ok()) continue;
      candidates += static_cast<double>(result->candidate_svss.size());
      cameras += static_cast<double>(result->cameras_searched);
      frames += static_cast<double>(result->frames_processed);
    }
    direct_us.push_back(us);
  }
  const double n_direct =
      std::max<double>(1.0, static_cast<double>(direct_features.size()));
  out->Set("core.direct_us_p50", Median(direct_us), "us");
  out->Set("core.omd_solves_per_direct", solves / n_direct, "count");
  out->Set("core.candidates_per_direct", candidates / n_direct, "count");
  out->Set("core.cameras_searched_per_direct", cameras / n_direct, "count");
  out->Set("core.frames_verified_per_direct", frames / n_direct, "count");

  std::vector<double> clustering_us;
  double clustering_solves = 0.0;
  for (SvsId target : clustering_targets) {
    VideoZilla* system = systems.front();
    const uint64_t s0 = system->omd().num_computations();
    const Clock::time_point t0 = Clock::now();
    (void)system->ClusteringQuery(target);
    clustering_us.push_back(UsBetween(t0, Clock::now()));
    clustering_solves +=
        static_cast<double>(system->omd().num_computations() - s0);
  }
  const double n_clustering =
      std::max<double>(1.0, static_cast<double>(clustering_targets.size()));
  out->Set("core.clustering_us_p50", Median(clustering_us), "us");
  out->Set("core.omd_solves_per_clustering", clustering_solves / n_clustering,
           "count");
}

void KernelLayerMetrics(VideoZilla* system, const std::vector<SvsId>& targets,
                        const std::vector<vz::FeatureVector>& features,
                        MetricSet* out) {
  const vz::core::SvsStore& store = system->svs_store();
  const std::vector<SvsId> ids = store.AllIds();
  std::vector<SvsId> pair_targets = targets;
  if (pair_targets.empty()) {
    pair_targets.assign(ids.begin(), ids.begin() + std::min<size_t>(4, ids.size()));
  }
  std::vector<double> ground_us;
  std::vector<double> solve_us;
  vz::core::OmdCalculator& omd = system->omd();
  for (SvsId target : pair_targets) {
    auto a = store.Get(target);
    if (!a.ok()) continue;
    for (SvsId other : ids) {
      if (other == target) continue;
      auto b = store.Get(other);
      if (!b.ok()) continue;
      const vz::FeatureMap& fa = (*a)->features();
      const vz::FeatureMap& fb = (*b)->features();
      const Clock::time_point t0 = Clock::now();
      auto matrix = omd.ComputeGroundMatrix(fa, fb);
      const Clock::time_point t1 = Clock::now();
      auto distance = omd.Distance(fa, fb);
      const Clock::time_point t2 = Clock::now();
      if (!matrix.ok() || !distance.ok()) continue;
      ground_us.push_back(UsBetween(t0, t1));
      solve_us.push_back(std::max(0.0, UsBetween(t1, t2) - UsBetween(t0, t1)));
    }
  }
  out->Set("vector.ground_matrix_us", Median(ground_us), "us");
  out->Set("solver.omd_solve_us", Median(solve_us), "us");

  // Every stored feature-map row, the corpus a direct query's exact stage
  // and the subscription engine scan.
  std::vector<const float*> rows;
  size_t dim = 0;
  for (SvsId id : ids) {
    auto svs = store.Get(id);
    if (!svs.ok()) continue;
    const vz::FeatureMap& map = (*svs)->features();
    if (map.size() == 0) continue;
    dim = map.dim();
    for (size_t r = 0; r < map.size(); ++r) rows.push_back(map.row(r));
  }
  std::vector<double> distances(rows.size());
  double ns = 0.0;
  size_t scanned = 0;
  for (const vz::FeatureVector& feature : features) {
    if (feature.dim() != dim || rows.empty()) continue;
    const Clock::time_point t0 = Clock::now();
    vz::EuclideanDistancesTo(feature.data(), rows.data(), rows.size(), dim,
                             distances.data());
    ns += UsBetween(t0, Clock::now()) * 1000.0;
    scanned += rows.size();
  }
  out->Set("vector.euclid_ns_per_row",
           scanned == 0 ? 0.0 : ns / static_cast<double>(scanned), "ns");
}

void IndexLayerMetrics(const VideoZilla& system, MetricSet* out) {
  const vz::core::VideoZillaOptions options = WorldSystemOptions();
  vz::core::SvsStore store;
  std::vector<SvsId> order;
  for (SvsId id : system.svs_store().AllIds()) {
    auto svs = system.svs_store().Get(id);
    if (!svs.ok()) continue;
    order.push_back(store.Create((*svs)->camera(), (*svs)->start_ms(),
                                 (*svs)->end_ms(), (*svs)->features()));
  }
  vz::core::OmdCalculator omd(options.omd);
  vz::core::OmdDistanceCache cache(options.omd_cache_capacity);
  vz::core::SvsMetric metric(
      &store, &omd,
      vz::core::SvsMetricOptions{.memoize = true,
                                 .quantized_prune = options.quantized_prune});
  metric.set_shared_cache(&cache);
  vz::core::InterIndexOptions inter_options = options.inter;
  inter_options.quantized_prune = options.quantized_prune;
  vz::core::InterCameraIndex inter(&omd, inter_options,
                                   vz::Rng(options.seed ^ 0x1357));
  vz::Rng rng(options.seed);
  std::map<std::string, std::unique_ptr<vz::core::IntraCameraIndex>> intra;
  std::map<std::string, uint64_t> synced;
  std::vector<double> insert_us;
  std::vector<double> update_ms;
  for (SvsId id : order) {
    auto svs = store.Get(id);
    if (!svs.ok()) continue;
    const std::string camera = (*svs)->camera();
    auto& index = intra[camera];
    if (!index) {
      index = std::make_unique<vz::core::IntraCameraIndex>(
          camera, &store, &metric, options.intra, rng.Fork());
      synced[camera] = 0;
    }
    const Clock::time_point t0 = Clock::now();
    if (!index->Insert(id).ok()) continue;
    insert_us.push_back(UsBetween(t0, Clock::now()));
    if (index->representative_version() != synced[camera]) {
      synced[camera] = index->representative_version();
      const Clock::time_point t1 = Clock::now();
      if (inter.UpdateCamera(*index).ok()) {
        update_ms.push_back(MsBetween(t1, Clock::now()));
      }
    }
  }
  out->Set("index.intra_insert_us_p50", Median(insert_us), "us");
  out->Set("index.intra_insert_us_max", Max(insert_us), "us");
  out->Set("index.inter_update_ms_p50", Median(update_ms), "ms");
  out->Set("index.inter_update_ms_max", Max(update_ms), "ms");
}

void WalLayerMetrics(World* world, const std::string& dir, MetricSet* out) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  vz::io::WalOptions options;
  options.dir = dir;
  options.fsync_interval_ms = 2;
  std::vector<double> us;
  {
    auto wal = vz::io::Wal::Open(options);
    if (wal.ok()) {
      const auto& frames = world->frames_by_time();
      const size_t n = std::min<size_t>(300, frames.size());
      for (size_t i = 0; i < n; ++i) {
        vz::io::BinaryWriter writer;
        vz::net::EncodeFrameObservation(&writer, frames[i]);
        vz::io::WalRecord record;
        record.session_id = 1;
        record.sequence = i + 1;
        record.op = static_cast<uint32_t>(vz::net::MsgType::kIngestFrame);
        record.payload = writer.buffer();
        const Clock::time_point t0 = Clock::now();
        auto lsn = (*wal)->Append(record);
        if (!lsn.ok() || !(*wal)->WaitDurable(*lsn).ok()) break;
        us.push_back(UsBetween(t0, Clock::now()));
      }
    }
  }
  std::filesystem::remove_all(dir, ec);
  out->Set("io.append_durable_us_p50", Median(us), "us");
  out->Set("io.append_durable_us_p99", Quantile(us, 0.99), "us");
}

std::vector<SubscribeSpec> StandingQueries(
    const std::vector<vz::FeatureVector>& pool) {
  std::vector<SubscribeSpec> specs;
  for (size_t i = 0; i < 64; ++i) {
    SubscribeSpec spec;
    spec.query = pool[i % pool.size()];
    spec.match_all = i < 32;
    // Distances are >= 0, so -1 never matches while still being scored.
    spec.threshold = spec.match_all ? 1e12 : -1.0;
    specs.push_back(spec);
  }
  return specs;
}

void SubscriptionLayerMetrics(const VideoZilla& system,
                              const std::vector<vz::FeatureVector>& pool,
                              MetricSet* out) {
  vz::net::SubscriptionEngine engine;
  uint64_t correlation = 0;
  for (const SubscribeSpec& spec : StandingQueries(pool)) {
    vz::net::SubscribeRequest request;
    request.query = spec.query;
    request.threshold = spec.threshold;
    engine.Subscribe(/*conn_id=*/1, ++correlation, request);
  }
  std::vector<double> us;
  for (SvsId id : system.svs_store().AllIds()) {
    auto svs = system.svs_store().Get(id);
    if (!svs.ok()) continue;
    const Clock::time_point t0 = Clock::now();
    engine.OnSegment(**svs);
    us.push_back(UsBetween(t0, Clock::now()));
    (void)engine.Drain(1);
  }
  out->Set("net.sub_on_segment_us_p50", Median(us), "us");
  out->Set("net.sub_on_segment_us_max", Max(us), "us");
}

}  // namespace vzb
