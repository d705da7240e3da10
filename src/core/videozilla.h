#ifndef VZ_CORE_VIDEOZILLA_H_
#define VZ_CORE_VIDEOZILLA_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "common/rng.h"
#include "common/statusor.h"
#include "common/thread_pool.h"
#include "core/admission.h"
#include "core/frame.h"
#include "core/inter_camera_index.h"
#include "core/intra_camera_index.h"
#include "core/keyframe_selector.h"
#include "core/omd.h"
#include "core/omd_cache.h"
#include "core/query.h"
#include "core/segmenter.h"
#include "core/svs.h"

namespace vz::core {

/// How queries traverse the index (Sec. 5.3 / Sec. 7.4): the full hierarchy;
/// only per-camera indices ("intra only", Fig. 19); one flat index over all
/// SVSs without the intra/inter distinction (the monitor's third
/// adjustment); or the frame-level fallback the bailout degrades to
/// (no pruning at all).
enum class IndexMode { kHierarchical, kIntraOnly, kFlatSvs, kFlat };

/// Ingestion guard rails (see DESIGN.md, "Failure model"): how far out of
/// order a frame may arrive before it is a contract violation, when a silent
/// camera counts as stalled, and when a fault-ridden one counts as degraded.
struct IngestGuardOptions {
  /// Frames whose timestamp trails the camera's newest accepted frame by at
  /// most this much are quarantined (dropped + counted) instead of erroring;
  /// older frames are a hard `kFailedPrecondition`. The window absorbs the
  /// reordering real transports produce without letting a rebooted camera
  /// silently rewrite history.
  int64_t reorder_tolerance_ms = 2'000;
  /// A camera whose newest accepted frame trails `now_ms()` by more than
  /// this is `kStalled` and is excluded from queries (which then report
  /// `degraded = true`). Stalls heal automatically when frames resume.
  int64_t stall_threshold_ms = 60'000;
  /// A camera is `kDegraded` once its lifetime fault fraction — rejected
  /// frames plus quarantined objects over frames offered — exceeds this.
  /// Degraded cameras keep serving queries; the state is a health signal
  /// for operators and the performance monitor.
  double degraded_fault_fraction = 0.05;
  /// Faults are not diagnostic below this many offered frames (a single
  /// early glitch must not mark a fresh camera degraded).
  uint64_t degraded_min_frames = 20;
  /// Expected feature dimensionality; 0 learns it per camera from the first
  /// valid object. Mismatched objects are quarantined either way.
  size_t expected_feature_dim = 0;
};

/// Top-level configuration of the indexing layer.
struct VideoZillaOptions {
  OmdOptions omd;
  SegmenterOptions segmenter;
  IntraIndexOptions intra;
  InterIndexOptions inter;
  KeyframeOptions keyframe;
  /// Scales every decision boundary during query hit tests; wider boundaries
  /// trade FNR for FPR (Sec. 7.4).
  double boundary_scale = 1.0;
  /// Disable to ingest every frame (microbenchmarks).
  bool enable_keyframe_selection = true;
  /// Run the exact second stage of the feature search (Sec. 4.2): candidate
  /// SVSs are confirmed against their stored feature maps before the heavy
  /// model runs. Disable to expose the raw index selectivity (Fig. 20).
  bool enable_exact_stage = true;
  /// Master seed; every camera pipeline forks its own deterministic stream.
  uint64_t seed = 7;
  /// Execution lanes for the parallel query path (OMD ground-distance
  /// matrices, candidate verification, per-camera index scans). 1 (the
  /// default) forces the fully serial legacy behaviour; 0 means one lane per
  /// hardware thread. Parallel results are bit-identical to `num_threads=1`
  /// for any value: every parallel loop writes per-slot results and
  /// aggregates them in the serial iteration order.
  size_t num_threads = 1;
  /// Capacity of the instance's OMD memo (`OmdDistanceCache`).
  size_t omd_cache_capacity = OmdDistanceCache::kDefaultCapacity;
  /// Tighten index lower bounds with the 8-bit quantized shadow tier
  /// (`QuantizedOmdLowerBound`) on top of OCD, in both the per-camera and
  /// inter-camera indexes. Pruning-only: query results are identical with
  /// the tier on or off; only the number of OMD solves changes.
  bool quantized_prune = true;
  /// Ingestion fault tolerance: reorder window, stall/degraded thresholds,
  /// feature validation.
  IngestGuardOptions ingest;
  /// Clock that query deadlines (`QueryConstraints::deadline_ms`) are
  /// measured against. Borrowed, must outlive the instance; nullptr (the
  /// default) uses the host's steady clock. Tests pass a
  /// `SimClockTimeSource` for deterministic expiry; the bound clock must not
  /// advance while a query is in flight.
  const TimeSource* time_source = nullptr;
  /// Overload protection of the query path: in-flight gate, bounded wait
  /// queue, load shedding, and cost-based FastOMD routing. Defaults disable
  /// all gating (legacy behaviour).
  AdmissionOptions admission;
};

/// Ingestion counters.
struct IngestStats {
  uint64_t frames_offered = 0;
  uint64_t keyframes_selected = 0;
  uint64_t features_extracted = 0;
  uint64_t svs_created = 0;
  /// Bytes of raw object features extracted — what a flat centralized index
  /// would have shipped to the cloud (Sec. 7.3 traffic comparison).
  size_t raw_feature_bytes = 0;
  /// Frames dropped whole by the ingestion guard (out-of-order within the
  /// tolerance window, or duplicates). Always `out_of_order_dropped +
  /// duplicates_dropped`.
  uint64_t frames_rejected = 0;
  /// Frames dropped because their timestamp trailed the camera's newest
  /// accepted frame (within the reorder-tolerance window; older is an error).
  uint64_t out_of_order_dropped = 0;
  /// Frames dropped as exact re-deliveries (same id and timestamp as the
  /// camera's newest accepted frame).
  uint64_t duplicates_dropped = 0;
  /// Objects skipped for carrying an unusable feature vector (empty,
  /// NaN/Inf, or dimension mismatch). The rest of the frame is processed.
  uint64_t objects_quarantined = 0;
};

/// Health of one camera feed, derived from its ingestion history
/// (`kHealthy` -> `kDegraded` on accumulated faults, any state -> `kStalled`
/// on silence past the stall threshold, `kStalled` -> healthy/degraded again
/// when frames resume). Stalled cameras are excluded from queries.
enum class CameraHealth { kHealthy, kDegraded, kStalled };

/// Human-readable name of a health state ("healthy" / "degraded" /
/// "stalled").
std::string_view CameraHealthToString(CameraHealth health);

/// Load and overload counters of the query path, surfaced through
/// `VideoZilla::query_load_stats()` and `PerformanceMonitor` next to the OMD
/// cache stats: the admission gate's gauges (in-flight, waiting) and
/// counters (admitted, shed), plus the deadline outcomes (timed-out count,
/// cumulative checkpoint latency past the deadline) and cost-based FastOMD
/// reroutes.
struct QueryLoadStats {
  size_t in_flight = 0;
  size_t waiting = 0;
  uint64_t admitted = 0;
  uint64_t shed = 0;
  /// Queries that returned `timed_out = true` (deadline or external cancel).
  uint64_t timed_out = 0;
  /// Clustering queries rerouted to thresholded OMD by the cost estimate.
  uint64_t fast_omd_routed = 0;
  /// Total ms queries ran past their deadline before the next checkpoint
  /// noticed — the observed cancellation-checkpoint latency. Always 0 under
  /// a `SimClock` (time cannot advance mid-query).
  int64_t timeout_overshoot_ms_total = 0;
  size_t max_in_flight = 0;
  size_t max_queue = 0;
  /// OMD distance evaluations that failed and were poisoned to +inf instead
  /// of silently reading as 0.0 ("identical"). Anything nonzero deserves
  /// investigation: it means clustering/search quality is degraded.
  uint64_t omd_failures = 0;
};

/// Per-camera ingestion/fault counters (introspection; also the inputs of
/// the health classification).
struct CameraIngestStats {
  uint64_t frames_offered = 0;
  uint64_t frames_accepted = 0;
  uint64_t frames_rejected = 0;
  uint64_t out_of_order_dropped = 0;
  uint64_t duplicates_dropped = 0;
  uint64_t objects_quarantined = 0;
  /// Timestamp of the newest accepted frame; -1 before the first.
  int64_t last_frame_ms = -1;
};

/// One camera's complete ingestion-guard state (counters, duplicate
/// detector, pinned feature dimensionality), as captured into a WAL
/// checkpoint. Replaying a WAL tail over a restored snapshot must resume
/// from the exact guard state at the cut, or quarantine decisions — and with
/// them the applied frame set — diverge from the original run.
struct CameraGuardState {
  CameraIngestStats stats;
  int64_t last_frame_id = -1;
  uint64_t expected_dim = 0;
};

/// The Video-zilla indexing layer (Fig. 1): per-camera ingestion (key-frame
/// selection -> segmentation -> intra-camera index) plus one inter-camera
/// index over representative SVSs, and the query APIs of Sec. 6.
class VideoZilla {
 public:
  explicit VideoZilla(const VideoZillaOptions& options);
  ~VideoZilla();

  VideoZilla(const VideoZilla&) = delete;
  VideoZilla& operator=(const VideoZilla&) = delete;

  /// `cameraStart(cameraID, ...)`: registers a feed and its pipeline.
  Status CameraStart(const CameraId& camera);

  /// `cameraTerminate(cameraID, ...)`: drops the pipeline and the camera's
  /// representatives from the inter-camera index. Stored SVSs remain
  /// queryable through the store but stop being indexed.
  Status CameraTerminate(const CameraId& camera);

  /// Feeds one frame through validation, key-frame selection, feature
  /// segmentation and index maintenance.
  ///
  /// Frames of one camera must arrive in timestamp order; arrivals that
  /// trail the newest accepted frame by at most
  /// `IngestGuardOptions::reorder_tolerance_ms` (and exact duplicates) are
  /// quarantined — dropped, counted in `IngestStats`, `OK` returned — while
  /// older arrivals return `kFailedPrecondition`. Objects with unusable
  /// features (empty, NaN/Inf, dimension mismatch) are quarantined
  /// individually; the rest of the frame is processed normally. Malformed
  /// input therefore degrades counters and health states, never the index.
  Status IngestFrame(const FrameObservation& frame);

  /// Flushes all segmenters (end of stream); emits the final SVSs.
  Status Flush();

  /// Rebuilds the indexing layer from persisted SVSs (e.g. a snapshot loaded
  /// with `vz::io::LoadSvsStore`): every SVS of `source` is copied into this
  /// instance's store, its camera pipeline is started on demand, and the
  /// intra-/inter-camera indices are re-derived. Index structures are pure
  /// derived state, so this restores query behavior exactly. Requires an
  /// empty store (call on a fresh instance, or after `Reset`).
  Status RestoreFromSvsStore(const SvsStore& source);

  /// Returns the instance to its freshly-constructed emptiness: store,
  /// pipelines, indexes, caches, ingest counters and clock are dropped, and
  /// every seeded random stream is rewound to its initial state — so a
  /// `Reset` + `RestoreFromSvsStore` regenerates bit-identical derived state
  /// to a brand-new instance restoring the same store. The standby re-seed
  /// path runs this before installing a fetched checkpoint. Must not run
  /// concurrently with ingestion or queries (the serving layer holds its
  /// state lock exclusively).
  Status Reset();

  /// Installs the heavy-model verifier used by direct queries. May be null.
  void SetVerifier(ObjectVerifier* verifier) { verifier_ = verifier; }

  /// `directQuery(objectImg, ...)`: find SVSs containing an object similar
  /// to `object_feature` (Sec. 5.2). Matched SVSs get their access stats
  /// bumped (for archival).
  StatusOr<DirectQueryResult> DirectQuery(
      const FeatureVector& object_feature,
      const QueryConstraints& constraints = QueryConstraints());

  /// `clusteringQuery(targetSVS, ...)`: all SVSs semantically similar to the
  /// query feature map (Sec. 5.2). `kInvalidArgument` when the map is of a
  /// dimension no stored SVS has, before any OMD is solved.
  StatusOr<ClusteringQueryResult> ClusteringQuery(
      const FeatureMap& target,
      const QueryConstraints& constraints = QueryConstraints());

  /// `clusteringQuery` with a *stored* SVS as the target — the paper's
  /// primary form. Its OMDs — target to inter-camera entry in the hierarchy,
  /// target to candidate on the flat fallback — are memoized in the shared
  /// distance cache, so repeated queries over an unchanged index are served
  /// from the cache.
  StatusOr<ClusteringQueryResult> ClusteringQuery(
      SvsId target_id, const QueryConstraints& constraints = QueryConstraints());

  /// `getMetaData(SVS)` (Sec. 6).
  StatusOr<SvsMetadata> GetMetaData(SvsId id) const;

  // --- Adaptation knobs driven by the performance monitor (Sec. 5.3). ---

  void SetIndexMode(IndexMode mode) { index_mode_ = mode; }
  IndexMode index_mode() const { return index_mode_; }

  /// Forces the inter-camera group count (nullopt = silhouette-chosen).
  Status SetInterGroupCount(std::optional<size_t> k);
  std::optional<size_t> forced_inter_group_count() const {
    return forced_inter_groups_;
  }

  /// Forces every intra-camera cluster count and reclusters.
  Status SetIntraClusterCount(std::optional<size_t> k);
  std::optional<size_t> forced_intra_cluster_count() const {
    return forced_intra_clusters_;
  }

  void SetBoundaryScale(double scale) { options_.boundary_scale = scale; }
  double boundary_scale() const { return options_.boundary_scale; }

  /// Adjusts the FastOMD threshold (1.0 = exact).
  void SetOmdAlpha(double alpha) { omd_.set_threshold_alpha(alpha); }
  double omd_alpha() const { return omd_.options().threshold_alpha; }

  /// Toggles ingestion-time key-frame selection (the live-tuning face of
  /// `VideoZillaOptions::enable_keyframe_selection`). Takes effect on the
  /// next ingested frame; already-buffered frames are unaffected.
  void SetKeyframeSelection(bool enabled) {
    options_.enable_keyframe_selection = enabled;
  }
  bool keyframe_selection() const {
    return options_.enable_keyframe_selection;
  }

  /// Called with every newly finalized segment's SVS, after it is stored and
  /// indexed — the subscription engine's incremental-evaluation hook. Runs
  /// on the ingest path (under the serving layer's exclusive state lock when
  /// driven over the wire), so the observer must be fast and non-blocking:
  /// enqueue and return. Pass nullptr to clear. Not thread-safe against
  /// concurrent ingest; set before serving starts or while quiesced.
  using SegmentObserver = std::function<void(const Svs&)>;
  void SetSegmentObserver(SegmentObserver observer) {
    segment_observer_ = std::move(observer);
  }

  // --- Introspection. ---

  /// The configuration this instance was built with. The serving layer reads
  /// the admission knobs (retry-after hint) to annotate wire-level shed
  /// responses.
  const VideoZillaOptions& options() const { return options_; }

  SvsStore& svs_store() { return store_; }
  const SvsStore& svs_store() const { return store_; }
  OmdCalculator& omd() { return omd_; }
  /// The one OMD memo of the instance (hit/miss counters included).
  OmdDistanceCache& omd_cache() { return omd_cache_; }
  const OmdDistanceCache& omd_cache() const { return omd_cache_; }
  /// The query thread pool; nullptr when running serial (`num_threads = 1`).
  ThreadPool* thread_pool() { return pool_.get(); }
  /// Effective execution lanes of the query path.
  size_t query_threads() const { return pool_ ? pool_->num_threads() : 1; }
  const InterCameraIndex& inter_index() const { return inter_; }
  /// Monotone version of the inter-camera index's entry set, bumped on every
  /// representative change (segment emission, flush, recluster, camera
  /// terminate, restore, reset). A coordinator's RepSync round compares it
  /// against the version of its last sync to skip re-shipping an unchanged
  /// index. Safe to read concurrently with queries.
  uint64_t index_version() const {
    return index_version_.load(std::memory_order_acquire);
  }
  StatusOr<const IntraCameraIndex*> intra_index(const CameraId& camera) const;
  std::vector<CameraId> cameras() const;
  const IngestStats& ingest_stats() const { return ingest_stats_; }
  /// Load/overload gauges and counters of the query path (thread-safe).
  QueryLoadStats query_load_stats() const;
  /// Largest timestamp ingested so far.
  int64_t now_ms() const { return now_ms_; }

  // --- Camera health (consumed by queries and the Sec. 5.3 monitor). ---

  /// Health of one started camera at the current `now_ms()`.
  StatusOr<CameraHealth> camera_health(const CameraId& camera) const;
  /// Per-camera fault counters of one started camera.
  StatusOr<CameraIngestStats> camera_ingest_stats(const CameraId& camera) const;
  /// Health of every started camera, sorted by camera id.
  std::vector<std::pair<CameraId, CameraHealth>> CameraHealthReport() const;
  /// Advances the health clock without ingesting (e.g. wall-clock ticks
  /// while every feed is silent); `now_ms()` only moves forward.
  void AdvanceTime(int64_t now_ms);

  // --- Durability hooks (WAL checkpoints; see DESIGN.md, "Durability and
  // --- replication"). ---

  /// Guard state of one started camera, for checkpoint capture.
  StatusOr<CameraGuardState> ExportCameraGuardState(
      const CameraId& camera) const;
  /// Restores guard state onto a started camera and resets its health
  /// baseline to the current clock (a freshly recovered feed is healthy
  /// until real silence accumulates).
  Status RestoreCameraGuardState(const CameraId& camera,
                                 const CameraGuardState& state);
  /// Overwrites the global ingest counters with the checkpoint's capture.
  /// (`RestoreFromSvsStore` re-counts restored SVSs; the checkpoint cut is
  /// the authority over every counter.)
  void RestoreIngestStats(const IngestStats& stats) { ingest_stats_ = stats; }

 private:
  struct CameraPipeline;

  // Turns a finished segment into a stored + indexed SVS.
  Status HandleSegment(CameraPipeline* pipeline, Segment segment);
  // Median per-center member spread across all SVS representatives — the
  // typical intra-class feature scatter, used by the exact second-stage
  // check of direct queries. Cached per store size.
  double EstimateFeatureSpread();
  // Candidate SVSs for a direct query under the current index mode.
  // `excluded` holds cameras removed for health reasons (stalled feeds);
  // `cancel` (may be null) truncates the scan at the next checkpoint.
  std::vector<SvsId> DirectCandidates(
      const FeatureVector& feature, const QueryConstraints& constraints,
      const std::unordered_set<CameraId>& excluded, const CancelToken* cancel);
  // Effective cancel token of a query: the caller's external token chained
  // with a deadline token when `deadline_ms` is set (kept alive in
  // `storage`). `deadline` receives the deadline for overshoot accounting.
  const CancelToken* MakeQueryToken(const QueryConstraints& constraints,
                                    std::optional<CancelToken>* storage,
                                    Deadline* deadline) const;
  // Counts a timed-out query and its checkpoint overshoot.
  void NoteTimeout(const Deadline& deadline);
  // Shared implementation of both ClusteringQuery overloads; without
  // `target_id` the target is not a stored SVS and no pair is memoized.
  StatusOr<ClusteringQueryResult> ClusteringQueryImpl(
      const FeatureMap& target, std::optional<SvsId> target_id,
      const QueryConstraints& constraints);
  // Health classification of one pipeline at the current now_ms().
  CameraHealth HealthOf(const CameraPipeline& pipeline) const;
  // Stalled cameras the constraints would otherwise allow, as (set, sorted
  // list) — the query-time exclusion set and the `excluded_cameras` field.
  std::pair<std::unordered_set<CameraId>, std::vector<CameraId>>
  ExcludedCameras(const QueryConstraints& constraints) const;

  VideoZillaOptions options_;
  Rng rng_;
  std::unique_ptr<ThreadPool> pool_;  // before users; null when serial
  WallClockTimeSource wall_clock_;    // default deadline clock
  AdmissionController admission_;
  std::atomic<uint64_t> timed_out_queries_{0};
  std::atomic<uint64_t> fast_omd_routed_{0};
  std::atomic<int64_t> timeout_overshoot_ms_total_{0};
  // Serializes the mutable shared state the query path touches (the feature
  // spread cache and per-SVS access stats) across concurrently admitted
  // queries. Ingestion stays single-caller (documented contract); queries
  // may overlap once `admission.max_in_flight > 1`.
  mutable std::mutex query_mu_;
  SvsStore store_;
  OmdCalculator omd_;
  OmdDistanceCache omd_cache_;
  SvsMetric metric_;
  InterCameraIndex inter_;
  std::unordered_map<CameraId, std::unique_ptr<CameraPipeline>> pipelines_;
  ObjectVerifier* verifier_ = nullptr;
  IndexMode index_mode_ = IndexMode::kHierarchical;
  IngestStats ingest_stats_;
  int64_t now_ms_ = 0;
  double spread_cache_ = 0.0;
  size_t spread_cache_svs_count_ = 0;
  std::atomic<uint64_t> index_version_{0};
  SegmentObserver segment_observer_;
  /// Last forced counts applied through the Set*Count knobs (nullopt =
  /// auto), echoed by the AdminTune RPC.
  std::optional<size_t> forced_inter_groups_;
  std::optional<size_t> forced_intra_clusters_;
};

}  // namespace vz::core

#endif  // VZ_CORE_VIDEOZILLA_H_
