#include "core/videozilla.h"

#include <algorithm>
#include <thread>
#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "common/math_util.h"

namespace vz::core {

/// Per-camera ingestion state: key-frame selector, segmenter, intra-camera
/// index, and the frames awaiting assignment to an SVS.
struct VideoZilla::CameraPipeline {
  CameraPipeline(const CameraId& camera, SvsStore* store, SvsMetric* metric,
                 const VideoZillaOptions& options, Rng rng)
      : keyframe(options.keyframe),
        segmenter(options.segmenter, rng.Fork()),
        index(camera, store, metric, options.intra, rng.Fork()),
        expected_dim(options.ingest.expected_feature_dim) {}

  struct PendingFrame {
    int64_t frame_id;
    int64_t timestamp_ms;
    size_t bytes;
    bool keyframe;
  };

  KeyframeSelector keyframe;
  VideoSegmenter segmenter;
  IntraCameraIndex index;
  std::vector<PendingFrame> pending;
  uint64_t synced_rep_version = 0;
  // Ingestion-guard state (see IngestGuardOptions).
  CameraIngestStats stats;
  int64_t last_frame_id = -1;
  // Health baseline before the first frame: a camera started and then never
  // heard from counts as stalled once the threshold passes.
  int64_t started_ms = 0;
  // Pinned feature dimensionality; 0 until the first valid object.
  size_t expected_dim = 0;
};

std::string_view CameraHealthToString(CameraHealth health) {
  switch (health) {
    case CameraHealth::kHealthy:
      return "healthy";
    case CameraHealth::kDegraded:
      return "degraded";
    case CameraHealth::kStalled:
      return "stalled";
  }
  return "unknown";
}

VideoZilla::VideoZilla(const VideoZillaOptions& options)
    : options_(options),
      rng_(options.seed),
      admission_(options.admission),
      omd_(options.omd),
      omd_cache_(options.omd_cache_capacity),
      metric_(&store_, &omd_,
              SvsMetricOptions{.memoize = true,
                               .quantized_prune = options.quantized_prune}),
      inter_(&omd_,
             [&options] {
               InterIndexOptions inter = options.inter;
               inter.quantized_prune = options.quantized_prune;
               return inter;
             }(),
             Rng(options.seed ^ 0x1357)) {
  const size_t threads =
      options_.num_threads == 0
          ? std::max<size_t>(1, std::thread::hardware_concurrency())
          : options_.num_threads;
  if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads);
  omd_.set_thread_pool(pool_.get());
  metric_.set_shared_cache(&omd_cache_);
}

VideoZilla::~VideoZilla() = default;

Status VideoZilla::CameraStart(const CameraId& camera) {
  if (pipelines_.count(camera) > 0) {
    return Status::FailedPrecondition("camera already started: " + camera);
  }
  auto pipeline = std::make_unique<CameraPipeline>(camera, &store_, &metric_,
                                                   options_, rng_.Fork());
  pipeline->started_ms = now_ms_;
  pipelines_.emplace(camera, std::move(pipeline));
  return Status::OK();
}

Status VideoZilla::CameraTerminate(const CameraId& camera) {
  auto it = pipelines_.find(camera);
  if (it == pipelines_.end()) {
    return Status::NotFound("camera not started: " + camera);
  }
  pipelines_.erase(it);
  VZ_RETURN_IF_ERROR(inter_.RemoveCamera(camera));
  index_version_.fetch_add(1, std::memory_order_acq_rel);
  return Status::OK();
}

Status VideoZilla::Reset() {
  pipelines_.clear();
  store_.Clear();
  // Ids restart at 0 after the store clears, so every id-keyed memo entry
  // (private and shared) is stale.
  metric_.InvalidateCache();
  omd_cache_.Clear();
  ingest_stats_ = IngestStats();
  now_ms_ = 0;
  spread_cache_ = 0.0;
  spread_cache_svs_count_ = 0;
  index_mode_ = IndexMode::kHierarchical;
  // Rewind every seeded stream to its construction state: derived state
  // rebuilt after this reset must be bit-identical to a fresh instance's.
  rng_ = Rng(options_.seed);
  VZ_RETURN_IF_ERROR(inter_.Reset(Rng(options_.seed ^ 0x1357)));
  index_version_.fetch_add(1, std::memory_order_acq_rel);
  return Status::OK();
}

Status VideoZilla::IngestFrame(const FrameObservation& frame) {
  auto it = pipelines_.find(frame.camera);
  if (it == pipelines_.end()) {
    return Status::FailedPrecondition("camera not started: " + frame.camera);
  }
  CameraPipeline* pipeline = it->second.get();
  ++ingest_stats_.frames_offered;
  ++pipeline->stats.frames_offered;

  // Timestamp-order guard: frames of one camera must arrive in increasing
  // timestamp order. Exact re-deliveries and late arrivals within the
  // tolerance window are quarantined (dropped + counted, OK returned) so a
  // jittery transport cannot take down ingestion; anything older is a
  // contract violation the caller must hear about.
  // `frames_accepted`, not a timestamp sentinel, decides "first frame":
  // legitimately negative timestamps must not disable the guard.
  const int64_t last = pipeline->stats.last_frame_ms;
  if (pipeline->stats.frames_accepted > 0 && frame.timestamp_ms <= last) {
    if (frame.timestamp_ms == last &&
        frame.frame_id == pipeline->last_frame_id) {
      ++ingest_stats_.frames_rejected;
      ++ingest_stats_.duplicates_dropped;
      ++pipeline->stats.frames_rejected;
      ++pipeline->stats.duplicates_dropped;
      return Status::OK();
    }
    if (last - frame.timestamp_ms <= options_.ingest.reorder_tolerance_ms) {
      ++ingest_stats_.frames_rejected;
      ++ingest_stats_.out_of_order_dropped;
      ++pipeline->stats.frames_rejected;
      ++pipeline->stats.out_of_order_dropped;
      return Status::OK();
    }
    return Status::FailedPrecondition(
        "frame " + std::to_string(frame.frame_id) + " of camera " +
        frame.camera + " is " + std::to_string(last - frame.timestamp_ms) +
        "ms out of order (tolerance " +
        std::to_string(options_.ingest.reorder_tolerance_ms) + "ms)");
  }
  pipeline->stats.last_frame_ms = frame.timestamp_ms;
  pipeline->last_frame_id = frame.frame_id;
  ++pipeline->stats.frames_accepted;
  now_ms_ = std::max(now_ms_, frame.timestamp_ms);

  // Feature validation: quarantine objects whose vectors would poison the
  // index (NaN/Inf, empty, or a dimension the camera's feature space does
  // not have). The surviving objects are processed normally — a partially
  // bad detector output degrades one frame's coverage, not the stream.
  size_t quarantined = 0;
  for (const DetectedObject& object : frame.objects) {
    if (ObjectIsIngestible(object, pipeline->expected_dim)) {
      if (pipeline->expected_dim == 0) {
        pipeline->expected_dim = object.feature.dim();
      }
    } else {
      ++quarantined;
    }
  }
  FrameObservation sanitized;
  const FrameObservation* effective = &frame;
  if (quarantined > 0) {
    ingest_stats_.objects_quarantined += quarantined;
    pipeline->stats.objects_quarantined += quarantined;
    sanitized = frame;
    sanitized.objects.clear();
    for (const DetectedObject& object : frame.objects) {
      if (ObjectIsIngestible(object, pipeline->expected_dim)) {
        sanitized.objects.push_back(object);
      }
    }
    effective = &sanitized;
  }

  const bool selected = options_.enable_keyframe_selection
                            ? pipeline->keyframe.ShouldProcess(*effective)
                            : true;
  pipeline->pending.push_back({effective->frame_id, effective->timestamp_ms,
                               effective->encoded_bytes, selected});
  if (!selected) return Status::OK();
  ++ingest_stats_.keyframes_selected;

  if (effective->objects.empty()) {
    auto segment = pipeline->segmenter.AdvanceTime(effective->timestamp_ms);
    if (segment.has_value()) {
      VZ_RETURN_IF_ERROR(HandleSegment(pipeline, std::move(*segment)));
    }
    return Status::OK();
  }
  for (const DetectedObject& object : effective->objects) {
    ++ingest_stats_.features_extracted;
    ingest_stats_.raw_feature_bytes += object.feature.dim() * sizeof(float);
    auto segment =
        pipeline->segmenter.AddFeature(effective->timestamp_ms, object.feature);
    if (segment.has_value()) {
      VZ_RETURN_IF_ERROR(HandleSegment(pipeline, std::move(*segment)));
    }
  }
  return Status::OK();
}

Status VideoZilla::Flush() {
  for (auto& [camera, pipeline] : pipelines_) {
    auto segment = pipeline->segmenter.Flush();
    if (segment.has_value()) {
      VZ_RETURN_IF_ERROR(HandleSegment(pipeline.get(), std::move(*segment)));
    }
    // Force a recluster so every SVS — including ones inserted since the
    // last periodic recluster — is reachable through cluster membership and
    // the inter-camera index. Without this, late arrivals are invisible to
    // hierarchical queries until the next recluster.
    if (pipeline->index.size() > 0) {
      VZ_RETURN_IF_ERROR(pipeline->index.Recluster());
      pipeline->synced_rep_version = pipeline->index.representative_version();
      VZ_RETURN_IF_ERROR(inter_.UpdateCamera(pipeline->index));
      index_version_.fetch_add(1, std::memory_order_acq_rel);
    }
  }
  return Status::OK();
}

Status VideoZilla::RestoreFromSvsStore(const SvsStore& source) {
  if (store_.size() != 0) {
    return Status::FailedPrecondition(
        "RestoreFromSvsStore requires an empty instance");
  }
  for (SvsId id : source.AllIds()) {
    VZ_ASSIGN_OR_RETURN(const Svs* svs, source.Get(id));
    if (pipelines_.count(svs->camera()) == 0) {
      VZ_RETURN_IF_ERROR(CameraStart(svs->camera()));
    }
    const SvsId new_id = store_.Create(svs->camera(), svs->start_ms(),
                                       svs->end_ms(), svs->features());
    omd_cache_.InvalidateSvs(new_id);
    VZ_ASSIGN_OR_RETURN(Svs * copy, store_.GetMutable(new_id));
    copy->set_representative(svs->representative());
    copy->set_frame_ids(svs->frame_ids());
    copy->set_encoded_bytes(svs->encoded_bytes());
    copy->RestoreAccessStats(svs->access_count(), svs->last_access_ms());
    now_ms_ = std::max(now_ms_, svs->end_ms());
    auto it = pipelines_.find(svs->camera());
    VZ_RETURN_IF_ERROR(it->second->index.Insert(new_id));
    ++ingest_stats_.svs_created;
  }
  // Derive clusters and the inter-camera index once, after all insertions.
  for (auto& [camera, pipeline] : pipelines_) {
    if (pipeline->index.size() == 0) continue;
    VZ_RETURN_IF_ERROR(pipeline->index.Recluster());
    pipeline->synced_rep_version = pipeline->index.representative_version();
    VZ_RETURN_IF_ERROR(inter_.UpdateCamera(pipeline->index));
    index_version_.fetch_add(1, std::memory_order_acq_rel);
  }
  // Restoring fast-forwarded `now_ms_` to the snapshot's end, but the
  // pipelines were (re)started along the way with earlier clocks. Reset the
  // stall reference to "now" so a freshly restored instance is healthy until
  // real silence accumulates — not instantly stalled by historic time.
  for (auto& [camera, pipeline] : pipelines_) {
    pipeline->started_ms = now_ms_;
  }
  return Status::OK();
}

Status VideoZilla::HandleSegment(CameraPipeline* pipeline, Segment segment) {
  // Associate pending frames up to the segment end with the new SVS.
  std::vector<int64_t> frame_ids;
  size_t bytes = 0;
  size_t consumed = 0;
  for (const CameraPipeline::PendingFrame& pf : pipeline->pending) {
    if (pf.timestamp_ms > segment.end_ms) break;
    // Every frame of the window belongs to the SVS: key-frame selection
    // bounds *ingestion* compute, but the archived segment the heavy model
    // verifies at query time contains all frames.
    frame_ids.push_back(pf.frame_id);
    bytes += pf.bytes;
    ++consumed;
  }
  pipeline->pending.erase(pipeline->pending.begin(),
                          pipeline->pending.begin() +
                              static_cast<long>(consumed));

  const SvsId id = store_.Create(pipeline->index.camera(), segment.start_ms,
                                 segment.end_ms, std::move(segment.features));
  // Ids are dense and fresh, but the invalidation contract is per store
  // insertion: any cached distance involving this id is stale by definition.
  omd_cache_.InvalidateSvs(id);
  ++ingest_stats_.svs_created;
  {
    VZ_ASSIGN_OR_RETURN(Svs * svs, store_.GetMutable(id));
    svs->set_frame_ids(std::move(frame_ids));
    svs->set_encoded_bytes(bytes);
  }
  VZ_RETURN_IF_ERROR(pipeline->index.Insert(id));

  // The reference for further segmentation is the representative of the
  // cluster the new SVS joined (Sec. 5.1); fall back to its own
  // representative when clusters are not derived yet.
  auto cluster_rep = pipeline->index.ClusterRepresentativeFor(id);
  if (cluster_rep.ok() && !(*cluster_rep)->empty()) {
    pipeline->segmenter.SetReference(**cluster_rep);
  } else {
    VZ_ASSIGN_OR_RETURN(const Svs* svs, store_.Get(id));
    if (!svs->representative().empty()) {
      pipeline->segmenter.SetReference(svs->representative());
    }
  }

  // Propagate representative updates to the inter-camera index (Sec. 5.1,
  // "Hierarchical index update").
  if (pipeline->index.representative_version() !=
      pipeline->synced_rep_version) {
    pipeline->synced_rep_version = pipeline->index.representative_version();
    VZ_RETURN_IF_ERROR(inter_.UpdateCamera(pipeline->index));
    index_version_.fetch_add(1, std::memory_order_acq_rel);
  }

  // Standing queries see the segment only once it is fully stored and
  // indexed. The observer must be non-blocking (it runs on the ingest path);
  // it also fires during WAL replay, which is harmless — no subscriptions
  // exist before serving starts.
  if (segment_observer_) {
    VZ_ASSIGN_OR_RETURN(const Svs* stored, store_.Get(id));
    segment_observer_(*stored);
  }
  return Status::OK();
}

CameraHealth VideoZilla::HealthOf(const CameraPipeline& pipeline) const {
  // Silence wins over fault history: a camera that stopped sending is
  // stalled whatever its past error rate. The reference point before the
  // first frame is the start time, so a feed that never delivered anything
  // also stalls out.
  const int64_t reference = pipeline.stats.frames_accepted > 0
                                ? pipeline.stats.last_frame_ms
                                : pipeline.started_ms;
  if (now_ms_ - reference > options_.ingest.stall_threshold_ms) {
    return CameraHealth::kStalled;
  }
  if (pipeline.stats.frames_offered >= options_.ingest.degraded_min_frames) {
    const double faults =
        static_cast<double>(pipeline.stats.frames_rejected +
                            pipeline.stats.objects_quarantined);
    if (faults > options_.ingest.degraded_fault_fraction *
                     static_cast<double>(pipeline.stats.frames_offered)) {
      return CameraHealth::kDegraded;
    }
  }
  return CameraHealth::kHealthy;
}

StatusOr<CameraHealth> VideoZilla::camera_health(const CameraId& camera) const {
  auto it = pipelines_.find(camera);
  if (it == pipelines_.end()) {
    return Status::NotFound("camera not started: " + camera);
  }
  return HealthOf(*it->second);
}

StatusOr<CameraIngestStats> VideoZilla::camera_ingest_stats(
    const CameraId& camera) const {
  auto it = pipelines_.find(camera);
  if (it == pipelines_.end()) {
    return Status::NotFound("camera not started: " + camera);
  }
  return it->second->stats;
}

std::vector<std::pair<CameraId, CameraHealth>> VideoZilla::CameraHealthReport()
    const {
  std::vector<std::pair<CameraId, CameraHealth>> report;
  report.reserve(pipelines_.size());
  for (const auto& [camera, pipeline] : pipelines_) {
    report.emplace_back(camera, HealthOf(*pipeline));
  }
  std::sort(report.begin(), report.end());
  return report;
}

void VideoZilla::AdvanceTime(int64_t now_ms) {
  now_ms_ = std::max(now_ms_, now_ms);
}

StatusOr<CameraGuardState> VideoZilla::ExportCameraGuardState(
    const CameraId& camera) const {
  auto it = pipelines_.find(camera);
  if (it == pipelines_.end()) {
    return Status::NotFound("camera not started: " + camera);
  }
  CameraGuardState state;
  state.stats = it->second->stats;
  state.last_frame_id = it->second->last_frame_id;
  state.expected_dim = it->second->expected_dim;
  return state;
}

Status VideoZilla::RestoreCameraGuardState(const CameraId& camera,
                                           const CameraGuardState& state) {
  auto it = pipelines_.find(camera);
  if (it == pipelines_.end()) {
    return Status::NotFound("camera not started: " + camera);
  }
  it->second->stats = state.stats;
  it->second->last_frame_id = state.last_frame_id;
  it->second->expected_dim = static_cast<size_t>(state.expected_dim);
  it->second->started_ms = now_ms_;
  return Status::OK();
}

std::pair<std::unordered_set<CameraId>, std::vector<CameraId>>
VideoZilla::ExcludedCameras(const QueryConstraints& constraints) const {
  std::unordered_set<CameraId> excluded;
  for (const auto& [camera, pipeline] : pipelines_) {
    if (!constraints.AllowsCamera(camera)) continue;
    if (HealthOf(*pipeline) == CameraHealth::kStalled) excluded.insert(camera);
  }
  std::vector<CameraId> sorted(excluded.begin(), excluded.end());
  std::sort(sorted.begin(), sorted.end());
  return {std::move(excluded), std::move(sorted)};
}

const CancelToken* VideoZilla::MakeQueryToken(
    const QueryConstraints& constraints, std::optional<CancelToken>* storage,
    Deadline* deadline) const {
  if (!constraints.deadline_ms.has_value()) return constraints.cancel;
  const TimeSource* clock =
      options_.time_source != nullptr ? options_.time_source : &wall_clock_;
  *deadline = Deadline::AfterMs(clock, *constraints.deadline_ms);
  storage->emplace(*deadline, constraints.cancel);
  return &**storage;
}

void VideoZilla::NoteTimeout(const Deadline& deadline) {
  timed_out_queries_.fetch_add(1, std::memory_order_relaxed);
  timeout_overshoot_ms_total_.fetch_add(deadline.overshoot_ms(),
                                        std::memory_order_relaxed);
}

QueryLoadStats VideoZilla::query_load_stats() const {
  const AdmissionController::Stats gate = admission_.stats();
  QueryLoadStats stats;
  stats.in_flight = gate.in_flight;
  stats.waiting = gate.waiting;
  stats.admitted = gate.admitted;
  stats.shed = gate.shed;
  stats.timed_out = timed_out_queries_.load(std::memory_order_relaxed);
  stats.fast_omd_routed = fast_omd_routed_.load(std::memory_order_relaxed);
  stats.timeout_overshoot_ms_total =
      timeout_overshoot_ms_total_.load(std::memory_order_relaxed);
  stats.max_in_flight = gate.max_in_flight;
  stats.max_queue = gate.max_queue;
  stats.omd_failures = metric_.failed_distances() + inter_.omd_failures();
  return stats;
}

double VideoZilla::EstimateFeatureSpread() {
  // Concurrent admitted queries share the spread cache; serialize the
  // compute-and-fill.
  std::lock_guard<std::mutex> lock(query_mu_);
  if (spread_cache_svs_count_ == store_.size() && spread_cache_ > 0.0) {
    return spread_cache_;
  }
  std::vector<double> spreads;
  for (SvsId id : store_.AllIds()) {
    auto svs = store_.Get(id);
    if (!svs.ok()) continue;
    for (const WeightedCenter& center : (*svs)->representative().centers()) {
      if (center.mean_member_distance > 0.0) {
        spreads.push_back(center.mean_member_distance);
      }
      if (spreads.size() >= 2000) break;
    }
    if (spreads.size() >= 2000) break;
  }
  spread_cache_svs_count_ = store_.size();
  spread_cache_ = spreads.empty() ? 1.0 : Percentile(std::move(spreads), 50.0);
  return spread_cache_;
}

std::vector<SvsId> VideoZilla::DirectCandidates(
    const FeatureVector& feature, const QueryConstraints& constraints,
    const std::unordered_set<CameraId>& excluded, const CancelToken* cancel) {
  // One predicate for every index mode: the caller's constraints plus the
  // health exclusion set (stalled feeds serve no candidates).
  const auto allowed = [&](const CameraId& camera) {
    return constraints.AllowsCamera(camera) && excluded.count(camera) == 0;
  };
  std::vector<SvsId> candidates;
  const double scale = options_.boundary_scale;
  switch (index_mode_) {
    case IndexMode::kHierarchical: {
      std::unordered_set<SvsId> seen;
      for (const InterCameraIndex::RepEntry* entry :
           inter_.FeatureSearch(feature, scale)) {
        if (Cancelled(cancel)) break;
        if (!allowed(entry->camera)) continue;
        auto it = pipelines_.find(entry->camera);
        if (it == pipelines_.end()) continue;
        const IntraCameraIndex& intra = it->second->index;
        auto members = intra.ClusterMembers(entry->intra_cluster_index);
        if (!members.ok()) continue;
        for (SvsId id : *members) {
          auto svs = store_.Get(id);
          if (!svs.ok()) continue;
          if (!(*svs)->representative().Hit(feature, scale)) continue;
          if (seen.insert(id).second) candidates.push_back(id);
        }
      }
      break;
    }
    case IndexMode::kIntraOnly: {
      // The per-camera index scans are independent const reads, so they fan
      // out over the pool — one task per intra-camera index. Per-camera
      // results land in their own slot and are concatenated in the same
      // pipeline order the serial loop uses, keeping the output identical.
      std::vector<const IntraCameraIndex*> indices;
      for (const auto& [camera, pipeline] : pipelines_) {
        if (!allowed(camera)) continue;
        indices.push_back(&pipeline->index);
      }
      std::vector<std::vector<SvsId>> per_camera_hits(indices.size());
      ParallelFor(
          pool_.get(), indices.size(),
          [&](size_t i) {
            per_camera_hits[i] = indices[i]->FeatureSearch(feature, scale);
          },
          cancel);
      for (const std::vector<SvsId>& hits : per_camera_hits) {
        candidates.insert(candidates.end(), hits.begin(), hits.end());
      }
      break;
    }
    case IndexMode::kFlatSvs: {
      // Flat SVS index (Sec. 5.3 adjustment iii): every SVS's own
      // representative is probed directly, with no cluster-level pruning.
      for (SvsId id : store_.AllIds()) {
        if (Cancelled(cancel)) break;
        auto svs = store_.Get(id);
        if (!svs.ok()) continue;
        if (!allowed((*svs)->camera())) continue;
        if ((*svs)->representative().Hit(feature, scale)) {
          candidates.push_back(id);
        }
      }
      break;
    }
    case IndexMode::kFlat: {
      // Bailout: no pruning at all — every SVS of every allowed camera is a
      // candidate (Sec. 5.3, "downgrade to a frame-level index to search
      // through video frames across all cameras").
      for (SvsId id : store_.AllIds()) {
        if (Cancelled(cancel)) break;
        auto svs = store_.Get(id);
        if (!svs.ok()) continue;
        if (!allowed((*svs)->camera())) continue;
        candidates.push_back(id);
      }
      break;
    }
  }
  // Time-range filtering happens per intra-camera index (Sec. 5.4).
  std::vector<SvsId> filtered;
  filtered.reserve(candidates.size());
  for (SvsId id : candidates) {
    auto svs = store_.Get(id);
    if (!svs.ok()) continue;
    if (constraints.AllowsTime((*svs)->start_ms(), (*svs)->end_ms())) {
      filtered.push_back(id);
    }
  }
  // Second stage of the feature search (Sec. 4.2): "searching all SVSs in
  // candidate clusters to find the SVSs that actually meet the requirement".
  // The stored feature map is checked directly — microseconds at the edge,
  // versus heavy-DNN milliseconds per frame — which removes candidates whose
  // representative ball matched only spuriously. The frame-level bailout
  // mode scans everything by definition and skips this.
  if (index_mode_ == IndexMode::kFlat || !options_.enable_exact_stage) {
    return filtered;
  }
  // The query feature and a truly matching stored feature each carry one
  // draw of extractor noise, so their distance runs ~sqrt(2) above the
  // typical member-to-center spread. The spread estimate is global (the
  // median over all representative centers): a fat merged ball in this
  // particular SVS must not widen its own acceptance test. Computed before
  // the fan-out — it caches into mutable state.
  const double threshold = scale * 2.0 * EstimateFeatureSpread();
  std::vector<char> matched(filtered.size(), 0);
  ParallelFor(
      pool_.get(), filtered.size(),
      [&](size_t task) {
        auto svs = store_.Get(filtered[task]);
        if (!svs.ok()) return;
        const FeatureMap& map = (*svs)->features();
        if (map.dim() != feature.dim()) return;
        for (size_t i = 0; i < map.size(); ++i) {
          if (EuclideanDistance(feature.data(), map.row(i), map.dim()) <=
              threshold) {
            matched[task] = 1;
            return;
          }
        }
      },
      cancel);
  std::vector<SvsId> confirmed;
  confirmed.reserve(filtered.size());
  for (size_t task = 0; task < filtered.size(); ++task) {
    if (matched[task]) confirmed.push_back(filtered[task]);
  }
  return confirmed;
}

StatusOr<DirectQueryResult> VideoZilla::DirectQuery(
    const FeatureVector& object_feature, const QueryConstraints& constraints) {
  std::optional<CancelToken> deadline_token;
  Deadline deadline;
  const CancelToken* cancel =
      MakeQueryToken(constraints, &deadline_token, &deadline);
  VZ_RETURN_IF_ERROR(admission_.Admit());
  ScopedAdmission slot(&admission_);

  DirectQueryResult result;
  if (Cancelled(cancel)) {
    // Deadline already expired (or caller cancelled) on entry: the
    // best-effort answer is empty, returned immediately and marked — never
    // an error.
    result.timed_out = true;
    result.completed_fraction = 0.0;
    NoteTimeout(deadline);
    return result;
  }
  auto [excluded, excluded_sorted] = ExcludedCameras(constraints);
  result.degraded = !excluded_sorted.empty();
  result.excluded_cameras = std::move(excluded_sorted);
  result.candidate_svss =
      DirectCandidates(object_feature, constraints, excluded, cancel);

  // Count distinct cameras consulted.
  std::unordered_set<CameraId> cameras;
  for (SvsId id : result.candidate_svss) {
    auto svs = store_.Get(id);
    if (svs.ok()) cameras.insert((*svs)->camera());
  }
  result.cameras_searched = cameras.size();

  // Verification stage: the heavy model runs only over candidate SVSs; its
  // GPU time is what Figs. 15-17 compare. The per-candidate heavy-model
  // calls are independent, so they fan out over the pool; each task writes
  // only its own slot. Aggregation (GPU-time sums, matched list, access
  // stats) happens afterwards in candidate order — the serial order — so the
  // result is bit-identical for any thread count. On deadline expiry the
  // fan-out drains at the iteration cursor: attempted slots aggregate
  // normally, untouched slots are skipped, and the result is the ranked
  // partial answer.
  const size_t n = result.candidate_svss.size();
  std::vector<ObjectVerifier::Verification> verifications(n);
  std::vector<char> attempted(n, 0);
  std::vector<char> resolved(n, 0);
  if (verifier_ != nullptr) {
    ParallelFor(
        pool_.get(), n,
        [&](size_t i) {
          attempted[i] = 1;
          auto svs = store_.Get(result.candidate_svss[i]);
          if (!svs.ok()) return;
          resolved[i] = 1;
          verifications[i] = verifier_->Verify(**svs, object_feature);
        },
        cancel);
  }
  {
    // Access-stat updates mutate shared SVS state; serialize against other
    // admitted queries.
    std::lock_guard<std::mutex> lock(query_mu_);
    std::unordered_map<CameraId, double> per_camera;
    for (size_t i = 0; i < n; ++i) {
      const SvsId id = result.candidate_svss[i];
      auto svs = store_.GetMutable(id);
      if (!svs.ok()) continue;
      if (verifier_ == nullptr) {
        result.matched_svss.push_back(id);
        (*svs)->RecordAccess(now_ms_);
        continue;
      }
      if (!resolved[i]) continue;
      const ObjectVerifier::Verification& v = verifications[i];
      result.total_gpu_ms += v.gpu_ms;
      result.frames_processed += v.frames_processed;
      per_camera[(*svs)->camera()] += v.gpu_ms;
      if (v.contains) {
        result.matched_svss.push_back(id);
        (*svs)->RecordAccess(now_ms_);
      }
    }
    for (auto& [camera, ms] : per_camera) {
      result.per_camera_gpu_ms.emplace_back(camera, ms);
      result.bottleneck_camera_gpu_ms =
          std::max(result.bottleneck_camera_gpu_ms, ms);
    }
  }
  result.timed_out = Cancelled(cancel);
  if (verifier_ != nullptr && n > 0) {
    size_t attempted_count = 0;
    for (char a : attempted) attempted_count += a != 0;
    result.completed_fraction =
        static_cast<double>(attempted_count) / static_cast<double>(n);
  } else {
    // Without a verifier the planned work is the candidate scan itself; a
    // mid-scan expiry leaves no per-slot progress to measure, so report the
    // conservative bound.
    result.completed_fraction = result.timed_out ? 0.0 : 1.0;
  }
  if (result.timed_out) NoteTimeout(deadline);
  return result;
}

StatusOr<ClusteringQueryResult> VideoZilla::ClusteringQuery(
    const FeatureMap& target, const QueryConstraints& constraints) {
  return ClusteringQueryImpl(target, /*target_id=*/-1, constraints);
}

StatusOr<ClusteringQueryResult> VideoZilla::ClusteringQuery(
    SvsId target_id, const QueryConstraints& constraints) {
  VZ_ASSIGN_OR_RETURN(const Svs* svs, store_.Get(target_id));
  return ClusteringQueryImpl(svs->features(), target_id, constraints);
}

StatusOr<ClusteringQueryResult> VideoZilla::ClusteringQueryImpl(
    const FeatureMap& target, SvsId target_id,
    const QueryConstraints& constraints) {
  std::optional<CancelToken> deadline_token;
  Deadline deadline;
  const CancelToken* cancel =
      MakeQueryToken(constraints, &deadline_token, &deadline);
  VZ_RETURN_IF_ERROR(admission_.Admit());
  ScopedAdmission slot(&admission_);

  ClusteringQueryResult result;
  if (Cancelled(cancel)) {
    result.timed_out = true;
    result.completed_fraction = 0.0;
    NoteTimeout(deadline);
    return result;
  }
  auto [excluded, excluded_sorted] = ExcludedCameras(constraints);
  result.degraded = !excluded_sorted.empty();
  result.excluded_cameras = std::move(excluded_sorted);
  const auto allowed = [&](const CameraId& camera) {
    return constraints.AllowsCamera(camera) && excluded.count(camera) == 0;
  };
  std::unordered_set<CameraId> cameras;
  if (index_mode_ == IndexMode::kHierarchical && inter_.size() > 0) {
    VZ_ASSIGN_OR_RETURN(const InterCameraIndex::Group* group,
                        inter_.GroupOfNearest(target));
    // Cancellation checkpoint per group entry: an expired deadline keeps the
    // entries gathered so far — a valid partial answer.
    size_t entries_processed = 0;
    for (size_t entry_idx : group->entry_indices) {
      if (Cancelled(cancel)) break;
      ++entries_processed;
      const InterCameraIndex::RepEntry& entry = inter_.entries()[entry_idx];
      if (!allowed(entry.camera)) continue;
      auto it = pipelines_.find(entry.camera);
      if (it == pipelines_.end()) continue;
      auto members =
          it->second->index.ClusterMembers(entry.intra_cluster_index);
      if (!members.ok()) continue;
      for (SvsId id : *members) {
        auto svs = store_.Get(id);
        if (!svs.ok()) continue;
        if (!constraints.AllowsTime((*svs)->start_ms(), (*svs)->end_ms())) {
          continue;
        }
        result.similar_svss.push_back(id);
        cameras.insert(entry.camera);
      }
    }
    result.completed_fraction =
        group->entry_indices.empty()
            ? 1.0
            : static_cast<double>(entries_processed) /
                  static_cast<double>(group->entry_indices.size());
  } else {
    // Flat fallback: scan every SVS and keep those within 1.5x of the
    // nearest OMD — a relative similarity band standing in for the missing
    // hierarchy. Candidates are filtered serially (cheap metadata reads),
    // then the OMD evaluations — the expensive part — fan out over the
    // pool, one slot per candidate. When the target is itself a stored SVS,
    // each pairwise distance is served from / memoized into the shared
    // distance cache under the (target, candidate) pair.
    std::vector<SvsId> ids;
    for (SvsId id : store_.AllIds()) {
      auto svs = store_.Get(id);
      if (!svs.ok()) continue;
      if (!allowed((*svs)->camera())) continue;
      if (!constraints.AllowsTime((*svs)->start_ms(), (*svs)->end_ms())) {
        continue;
      }
      ids.push_back(id);
    }
    // Cost-based routing (the admission controller's latency rung): when the
    // estimated work — candidates x feature-map vectors — is oversized, the
    // whole scan runs with thresholded (FastOMD) distances instead of the
    // configured mode. A per-query options override, not a global mode
    // switch: concurrent queries must not observe each other's routing.
    OmdOptions effective = omd_.options();
    const size_t cost_threshold = options_.admission.fast_omd_cost_threshold;
    const size_t estimated_cost =
        ids.size() * std::max<size_t>(1, target.size());
    if (cost_threshold > 0 && estimated_cost >= cost_threshold) {
      effective.mode = OmdMode::kThresholded;
      effective.threshold_alpha = options_.admission.fast_omd_alpha;
      result.fast_omd_routed = true;
      fast_omd_routed_.fetch_add(1, std::memory_order_relaxed);
    }
    std::vector<double> distances(ids.size(), -1.0);  // -1 = failed solve
    std::vector<char> attempted(ids.size(), 0);
    ParallelFor(
        pool_.get(), ids.size(),
        [&](size_t i) {
          attempted[i] = 1;
          const SvsId id = ids[i];
          if (target_id >= 0) {
            auto hit = omd_cache_.Lookup(target_id, id, effective.mode,
                                         effective.threshold_alpha);
            if (hit.has_value()) {
              distances[i] = *hit;
              return;
            }
          }
          auto svs = store_.Get(id);
          if (!svs.ok()) return;
          // A cached pair is solved lower id first, as `SvsMetric` solves
          // it: the solver is not bit-symmetric, and the cache must hold
          // the same bits whichever side asked first.
          const bool swap = target_id >= 0 && id < target_id;
          const FeatureMap& left = swap ? (*svs)->features() : target;
          const FeatureMap& right = swap ? target : (*svs)->features();
          auto d = omd_.DistanceWithOptions(left, right, effective, cancel);
          if (!d.ok()) return;
          distances[i] = *d;
          if (target_id >= 0) {
            // Token-guarded: a distance computed under a fired token must
            // never be memoized (see OmdDistanceCache::Insert).
            omd_cache_.Insert(target_id, id, effective.mode,
                              effective.threshold_alpha, *d, cancel);
          }
        },
        cancel);
    size_t attempted_count = 0;
    for (char a : attempted) attempted_count += a != 0;
    result.completed_fraction =
        ids.empty() ? 1.0
                    : static_cast<double>(attempted_count) /
                          static_cast<double>(ids.size());
    std::vector<std::pair<double, SvsId>> scored;
    scored.reserve(ids.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      if (distances[i] >= 0.0) scored.emplace_back(distances[i], ids[i]);
    }
    if (!scored.empty()) {
      std::sort(scored.begin(), scored.end());
      const double band = scored.front().first * 1.5 + 1e-12;
      for (const auto& [d, id] : scored) {
        if (d > band) break;
        result.similar_svss.push_back(id);
        auto svs = store_.Get(id);
        if (svs.ok()) cameras.insert((*svs)->camera());
      }
    }
  }
  result.cameras_contributing = cameras.size();
  result.timed_out = Cancelled(cancel);
  if (result.timed_out) NoteTimeout(deadline);
  return result;
}

StatusOr<SvsMetadata> VideoZilla::GetMetaData(SvsId id) const {
  VZ_ASSIGN_OR_RETURN(const Svs* svs, store_.Get(id));
  return svs->Metadata(now_ms_);
}

Status VideoZilla::SetInterGroupCount(std::optional<size_t> k) {
  VZ_RETURN_IF_ERROR(inter_.SetForcedGroupCount(k));
  forced_inter_groups_ = k;
  return Status::OK();
}

Status VideoZilla::SetIntraClusterCount(std::optional<size_t> k) {
  for (auto& [camera, pipeline] : pipelines_) {
    pipeline->index.SetForcedClusterCount(k);
    VZ_RETURN_IF_ERROR(pipeline->index.Recluster());
    pipeline->synced_rep_version = pipeline->index.representative_version();
    VZ_RETURN_IF_ERROR(inter_.UpdateCamera(pipeline->index));
    index_version_.fetch_add(1, std::memory_order_acq_rel);
  }
  forced_intra_clusters_ = k;
  return Status::OK();
}

StatusOr<const IntraCameraIndex*> VideoZilla::intra_index(
    const CameraId& camera) const {
  auto it = pipelines_.find(camera);
  if (it == pipelines_.end()) {
    return Status::NotFound("camera not started: " + camera);
  }
  return &it->second->index;
}

std::vector<CameraId> VideoZilla::cameras() const {
  std::vector<CameraId> out;
  out.reserve(pipelines_.size());
  for (const auto& [camera, pipeline] : pipelines_) out.push_back(camera);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace vz::core
