// Determinism contract of the parallel query path: for identical options and
// ingestion, a system running with a thread pool must return bit-identical
// query results to the serial (`num_threads = 1`) system — same SVS ids in
// the same order, same GPU accounting, same camera counts. Also the
// deadline/admission drills: timed-out queries return ranked partial results
// (bit-identical across thread counts under the simulated clock), and a
// saturated admission gate sheds with kResourceExhausted.
#include <gtest/gtest.h>

#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/sim_clock.h"
#include "core/videozilla.h"
#include "sim/dataset.h"
#include "sim/object_class.h"
#include "sim/verifier.h"

namespace vz::core {
namespace {

sim::DeploymentOptions SmallDeployment() {
  sim::DeploymentOptions options;
  options.cities = 1;
  options.downtown_per_city = 2;
  options.highway_cameras = 2;
  options.train_stations = 1;
  options.harbors = 1;
  options.feed_duration_ms = 90'000;
  options.fps = 1.0;
  options.feature_dim = 32;
  options.seed = 5;
  return options;
}

VideoZillaOptions FastVzOptions(size_t num_threads) {
  VideoZillaOptions options;
  options.segmenter.t_max_ms = 30'000;
  options.segmenter.t_split_ms = 10'000;
  options.omd.max_vectors = 64;
  options.intra.recluster_interval = 2;
  options.boundary_scale = 1.3;
  options.enable_keyframe_selection = false;
  options.num_threads = num_threads;
  return options;
}

// One fully built system plus its verifier, at the given thread count.
struct Rig {
  explicit Rig(size_t num_threads)
      : deployment(SmallDeployment()),
        system(FastVzOptions(num_threads)),
        heavy(/*tpr=*/1.0, /*fpr=*/0.0, /*seed=*/3),
        verifier(&deployment.space(), &deployment.log(), &heavy) {
    EXPECT_TRUE(deployment.IngestAll(&system).ok());
    system.SetVerifier(&verifier);
  }

  sim::Deployment deployment;
  VideoZilla system;
  sim::HeavyModel heavy;
  sim::SimObjectVerifier verifier;
};

void ExpectIdenticalDirectResults(const DirectQueryResult& serial,
                                  const DirectQueryResult& parallel) {
  EXPECT_EQ(serial.candidate_svss, parallel.candidate_svss);
  EXPECT_EQ(serial.matched_svss, parallel.matched_svss);
  // Bit-identical by design, hence exact equality (not near-equality).
  EXPECT_EQ(serial.total_gpu_ms, parallel.total_gpu_ms);
  EXPECT_EQ(serial.bottleneck_camera_gpu_ms,
            parallel.bottleneck_camera_gpu_ms);
  EXPECT_EQ(serial.frames_processed, parallel.frames_processed);
  EXPECT_EQ(serial.cameras_searched, parallel.cameras_searched);
  EXPECT_EQ(serial.per_camera_gpu_ms, parallel.per_camera_gpu_ms);
}

TEST(ParallelQueryTest, DirectQueryMatchesSerialBitIdentically) {
  Rig serial(1);
  Rig parallel(4);
  ASSERT_NE(parallel.system.thread_pool(), nullptr);
  ASSERT_EQ(serial.system.thread_pool(), nullptr);
  for (int object_class :
       {sim::kCar, sim::kBoat, sim::kTrain, sim::kFireHydrant}) {
    Rng serial_rng(7);
    Rng parallel_rng(7);
    const FeatureVector serial_query =
        serial.deployment.MakeQueryFeature(object_class, &serial_rng);
    const FeatureVector parallel_query =
        parallel.deployment.MakeQueryFeature(object_class, &parallel_rng);
    ASSERT_EQ(serial_query, parallel_query);
    auto serial_result = serial.system.DirectQuery(serial_query);
    auto parallel_result = parallel.system.DirectQuery(parallel_query);
    ASSERT_TRUE(serial_result.ok());
    ASSERT_TRUE(parallel_result.ok());
    ExpectIdenticalDirectResults(*serial_result, *parallel_result);
  }
}

TEST(ParallelQueryTest, DirectQueryMatchesSerialInEveryIndexMode) {
  Rig serial(1);
  Rig parallel(4);
  Rng rng(13);
  const FeatureVector query =
      serial.deployment.MakeQueryFeature(sim::kBoat, &rng);
  for (IndexMode mode : {IndexMode::kHierarchical, IndexMode::kIntraOnly,
                         IndexMode::kFlatSvs, IndexMode::kFlat}) {
    serial.system.SetIndexMode(mode);
    parallel.system.SetIndexMode(mode);
    auto serial_result = serial.system.DirectQuery(query);
    auto parallel_result = parallel.system.DirectQuery(query);
    ASSERT_TRUE(serial_result.ok());
    ASSERT_TRUE(parallel_result.ok());
    ExpectIdenticalDirectResults(*serial_result, *parallel_result);
  }
}

TEST(ParallelQueryTest, ClusteringQueryMatchesSerialBitIdentically) {
  Rig serial(1);
  Rig parallel(4);
  ASSERT_GT(serial.system.svs_store().size(), 0u);
  ASSERT_EQ(serial.system.svs_store().size(),
            parallel.system.svs_store().size());

  // Hierarchical path and — via kIntraOnly — the flat OMD-scan fallback,
  // which is the parallel + cached path.
  for (IndexMode mode : {IndexMode::kHierarchical, IndexMode::kIntraOnly}) {
    serial.system.SetIndexMode(mode);
    parallel.system.SetIndexMode(mode);
    for (SvsId target : {SvsId{0}, SvsId{1}}) {
      auto serial_result = serial.system.ClusteringQuery(target);
      auto parallel_result = parallel.system.ClusteringQuery(target);
      ASSERT_TRUE(serial_result.ok());
      ASSERT_TRUE(parallel_result.ok());
      EXPECT_EQ(serial_result->similar_svss, parallel_result->similar_svss);
      EXPECT_EQ(serial_result->cameras_contributing,
                parallel_result->cameras_contributing);
    }
  }
}

TEST(ParallelQueryTest, ClusteringQueryByMapMatchesSerial) {
  Rig serial(1);
  Rig parallel(4);
  serial.system.SetIndexMode(IndexMode::kIntraOnly);  // force flat fallback
  parallel.system.SetIndexMode(IndexMode::kIntraOnly);
  auto svs = serial.system.svs_store().Get(0);
  ASSERT_TRUE(svs.ok());
  const FeatureMap target = (*svs)->features();  // copy: not a stored id
  auto serial_result = serial.system.ClusteringQuery(target);
  auto parallel_result = parallel.system.ClusteringQuery(target);
  ASSERT_TRUE(serial_result.ok());
  ASSERT_TRUE(parallel_result.ok());
  EXPECT_EQ(serial_result->similar_svss, parallel_result->similar_svss);
}

// Queries from different callers run concurrently (the serving layer holds
// only a shared lock around them), and the hierarchical clustering path
// searches one inter-camera tree for all of them. Concurrent callers must
// neither corrupt each other nor the heap, and every answer must equal the
// one the same system gives a lone caller afterwards.
TEST(ParallelQueryTest, ConcurrentClusteringQueriesMatchALoneCaller) {
  // The library defaults ingest this deployment in well under a second.
  sim::Deployment deployment(SmallDeployment());
  VideoZillaOptions options;
  options.num_threads = 4;
  VideoZilla system(options);
  ASSERT_TRUE(deployment.IngestAll(&system).ok());
  ASSERT_EQ(system.index_mode(), IndexMode::kHierarchical);
  const std::vector<SvsId> targets = {0, 1, 2, 3};
  ASSERT_GT(system.svs_store().size(), targets.size());
  constexpr size_t kCallers = 4;
  constexpr size_t kCallsPerCaller = 10;
  // results[c][i] answers caller c's i-th call, on target (c + i) % 4.
  std::vector<std::vector<StatusOr<ClusteringQueryResult>>> results(kCallers);
  std::vector<std::thread> callers;
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (size_t i = 0; i < kCallsPerCaller; ++i) {
        results[c].push_back(
            system.ClusteringQuery(targets[(c + i) % targets.size()]));
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (size_t t = 0; t < targets.size(); ++t) {
    auto alone = system.ClusteringQuery(targets[t]);
    ASSERT_TRUE(alone.ok()) << alone.status().ToString();
    for (size_t c = 0; c < kCallers; ++c) {
      for (size_t i = 0; i < kCallsPerCaller; ++i) {
        if ((c + i) % targets.size() != t) continue;
        const auto& result = results[c][i];
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_EQ(result->similar_svss, alone->similar_svss);
        EXPECT_EQ(result->cameras_contributing, alone->cameras_contributing);
      }
    }
  }
}

// The deadline/admission drills only need a corpus big enough to have
// multi-camera candidates — a quarter of SmallDeployment keeps the many
// rigs these tests build affordable under ThreadSanitizer on small CI
// machines.
sim::DeploymentOptions TinyDeployment() {
  sim::DeploymentOptions options = SmallDeployment();
  options.downtown_per_city = 1;
  options.highway_cameras = 1;
  options.feed_duration_ms = 45'000;
  return options;
}

// Rig whose deadlines run on a simulated clock: expiry is fully
// deterministic (a deadline is either expired before the query starts or
// never fires during it).
struct DeadlineRig {
  explicit DeadlineRig(size_t num_threads,
                       AdmissionOptions admission = AdmissionOptions())
      : source(&clock),
        deployment(TinyDeployment()),
        system(WithClock(FastVzOptions(num_threads), &source, admission)),
        heavy(/*tpr=*/1.0, /*fpr=*/0.0, /*seed=*/3),
        verifier(&deployment.space(), &deployment.log(), &heavy) {
    EXPECT_TRUE(deployment.IngestAll(&system).ok());
    system.SetVerifier(&verifier);
  }

  static VideoZillaOptions WithClock(VideoZillaOptions options,
                                     const TimeSource* source,
                                     const AdmissionOptions& admission) {
    options.time_source = source;
    options.admission = admission;
    return options;
  }

  SimClock clock;
  SimClockTimeSource source;
  sim::Deployment deployment;
  VideoZilla system;
  sim::HeavyModel heavy;
  sim::SimObjectVerifier verifier;
};

TEST(DeadlineQueryTest, ExpiredDeadlineReturnsEmptyValidResultImmediately) {
  for (size_t threads : {size_t{1}, size_t{4}}) {
    DeadlineRig rig(threads);
    const uint64_t solves_before = rig.system.omd().num_computations();
    QueryConstraints constraints;
    constraints.deadline_ms = 0;  // already expired on entry
    auto result = rig.system.ClusteringQuery(SvsId{0}, constraints);
    ASSERT_TRUE(result.ok()) << "threads=" << threads;
    EXPECT_TRUE(result->timed_out);
    EXPECT_DOUBLE_EQ(result->completed_fraction, 0.0);
    EXPECT_TRUE(result->similar_svss.empty());
    // Early return at the entry checkpoint: no OMD work was even attempted.
    EXPECT_EQ(rig.system.omd().num_computations(), solves_before);
    EXPECT_EQ(rig.system.query_load_stats().timed_out, 1u);
    // Under a SimClock the checkpoint can never overshoot the deadline.
    EXPECT_EQ(rig.system.query_load_stats().timeout_overshoot_ms_total, 0);
  }
}

TEST(DeadlineQueryTest, ExpiredDeadlineDirectQueryIsEmptyAndValid) {
  DeadlineRig rig(4);
  Rng rng(7);
  const FeatureVector query =
      rig.deployment.MakeQueryFeature(sim::kCar, &rng);
  QueryConstraints constraints;
  constraints.deadline_ms = -5;
  auto result = rig.system.DirectQuery(query, constraints);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->timed_out);
  EXPECT_DOUBLE_EQ(result->completed_fraction, 0.0);
  EXPECT_TRUE(result->candidate_svss.empty());
  EXPECT_TRUE(result->matched_svss.empty());
  EXPECT_DOUBLE_EQ(result->total_gpu_ms, 0.0);
}

TEST(DeadlineQueryTest, TimedOutResultsAreIdenticalAcrossThreadCounts) {
  // The acceptance drill: a timed-out ClusteringQuery returns its ranked
  // partial results bit-identically for num_threads 1 vs N. Under the
  // simulated clock the expired-deadline partial is the deterministic empty
  // prefix for every thread count.
  DeadlineRig serial(1);
  DeadlineRig parallel(4);
  QueryConstraints constraints;
  constraints.deadline_ms = 0;
  auto serial_result = serial.system.ClusteringQuery(SvsId{0}, constraints);
  auto parallel_result = parallel.system.ClusteringQuery(SvsId{0}, constraints);
  ASSERT_TRUE(serial_result.ok());
  ASSERT_TRUE(parallel_result.ok());
  EXPECT_EQ(serial_result->similar_svss, parallel_result->similar_svss);
  EXPECT_EQ(serial_result->timed_out, parallel_result->timed_out);
  EXPECT_EQ(serial_result->completed_fraction,
            parallel_result->completed_fraction);
  EXPECT_EQ(serial_result->cameras_contributing,
            parallel_result->cameras_contributing);
}

TEST(DeadlineQueryTest, GenerousDeadlineReproducesLegacyResultsBitIdentically) {
  for (size_t threads : {size_t{1}, size_t{4}}) {
    DeadlineRig rig(threads);
    rig.system.SetIndexMode(IndexMode::kIntraOnly);  // flat OMD fallback
    QueryConstraints generous;
    generous.deadline_ms = 1'000'000;  // never fires under a frozen SimClock
    auto with_deadline = rig.system.ClusteringQuery(SvsId{0}, generous);
    auto without = rig.system.ClusteringQuery(SvsId{0});
    ASSERT_TRUE(with_deadline.ok()) << "threads=" << threads;
    ASSERT_TRUE(without.ok());
    EXPECT_FALSE(with_deadline->timed_out);
    EXPECT_DOUBLE_EQ(with_deadline->completed_fraction, 1.0);
    EXPECT_EQ(with_deadline->similar_svss, without->similar_svss);

    Rng rng(7);
    const FeatureVector query =
        rig.deployment.MakeQueryFeature(sim::kBoat, &rng);
    auto direct_with = rig.system.DirectQuery(query, generous);
    auto direct_without = rig.system.DirectQuery(query);
    ASSERT_TRUE(direct_with.ok());
    ASSERT_TRUE(direct_without.ok());
    EXPECT_FALSE(direct_with->timed_out);
    EXPECT_DOUBLE_EQ(direct_with->completed_fraction, 1.0);
    ExpectIdenticalDirectResults(*direct_with, *direct_without);
  }
}

TEST(DeadlineQueryTest, ExternalCancelTokenStopsTheQuery) {
  DeadlineRig rig(1);
  CancelToken token;
  token.Cancel();  // fired before the query starts
  QueryConstraints constraints;
  constraints.cancel = &token;
  auto result = rig.system.ClusteringQuery(SvsId{0}, constraints);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->timed_out);
  EXPECT_TRUE(result->similar_svss.empty());
}

// Verifier that parks the first Verify call until released — holds a query
// in flight so the admission gate can be observed saturated.
class BlockingVerifier : public ObjectVerifier {
 public:
  Verification Verify(const Svs&, const FeatureVector&) override {
    std::unique_lock<std::mutex> lock(mu_);
    entered_ = true;
    entered_cv_.notify_all();
    release_cv_.wait(lock, [this] { return released_; });
    return Verification{};
  }

  void WaitUntilEntered() {
    std::unique_lock<std::mutex> lock(mu_);
    entered_cv_.wait(lock, [this] { return entered_; });
  }

  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    release_cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable entered_cv_;
  std::condition_variable release_cv_;
  bool entered_ = false;
  bool released_ = false;
};

TEST(AdmissionQueryTest, SaturatedGateShedsWithResourceExhausted) {
  AdmissionOptions admission;
  admission.max_in_flight = 1;
  admission.max_queue = 0;
  admission.retry_after_hint_ms = 25;
  DeadlineRig rig(1, admission);
  // Every SVS is a candidate under the frame-level scan, so the blocking
  // verifier is guaranteed to be entered.
  rig.system.SetIndexMode(IndexMode::kFlat);
  BlockingVerifier blocker;
  rig.system.SetVerifier(&blocker);
  Rng rng(7);
  const FeatureVector query = rig.deployment.MakeQueryFeature(sim::kCar, &rng);

  std::thread holder([&] {
    auto held = rig.system.DirectQuery(query);
    EXPECT_TRUE(held.ok());
  });
  blocker.WaitUntilEntered();  // the only slot is now held mid-verification

  auto shed = rig.system.ClusteringQuery(SvsId{0});
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(shed.status().message().find("retry after 25ms"),
            std::string::npos);

  blocker.Release();
  holder.join();
  const QueryLoadStats stats = rig.system.query_load_stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_EQ(stats.max_in_flight, 1u);
}

TEST(AdmissionQueryTest, OversizedQueriesAreRoutedToFastOmd) {
  // An exact-mode system with a tiny cost threshold: every flat clustering
  // scan is rerouted to thresholded OMD, matching a natively thresholded
  // system's answers exactly.
  AdmissionOptions routing;
  routing.fast_omd_cost_threshold = 1;
  routing.fast_omd_alpha = 0.6;
  DeadlineRig routed(1, routing);
  routed.system.omd().set_mode(OmdMode::kExact);
  routed.system.SetIndexMode(IndexMode::kIntraOnly);
  DeadlineRig thresholded(1);  // FastVzOptions default mode is kThresholded
  thresholded.system.SetIndexMode(IndexMode::kIntraOnly);

  auto routed_result = routed.system.ClusteringQuery(SvsId{0});
  auto native_result = thresholded.system.ClusteringQuery(SvsId{0});
  ASSERT_TRUE(routed_result.ok());
  ASSERT_TRUE(native_result.ok());
  EXPECT_TRUE(routed_result->fast_omd_routed);
  EXPECT_FALSE(native_result->fast_omd_routed);
  EXPECT_EQ(routed_result->similar_svss, native_result->similar_svss);
  EXPECT_EQ(routed.system.query_load_stats().fast_omd_routed, 1u);
  // The global configuration was not perturbed by the per-query reroute.
  EXPECT_EQ(routed.system.omd().options().mode, OmdMode::kExact);
}

TEST(ParallelQueryTest, IngestionIsIdenticalAcrossThreadCounts) {
  // Ingestion itself stays serial, but the OMD pool is attached during it;
  // the derived state must not depend on the thread count.
  Rig serial(1);
  Rig parallel(4);
  EXPECT_EQ(serial.system.svs_store().size(),
            parallel.system.svs_store().size());
  EXPECT_EQ(serial.system.ingest_stats().svs_created,
            parallel.system.ingest_stats().svs_created);
  EXPECT_EQ(serial.system.cameras(), parallel.system.cameras());
  for (SvsId id : serial.system.svs_store().AllIds()) {
    auto a = serial.system.svs_store().Get(id);
    auto b = parallel.system.svs_store().Get(id);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ((*a)->camera(), (*b)->camera());
    EXPECT_EQ((*a)->start_ms(), (*b)->start_ms());
    EXPECT_EQ((*a)->end_ms(), (*b)->end_ms());
    EXPECT_EQ((*a)->features().size(), (*b)->features().size());
  }
}

}  // namespace
}  // namespace vz::core
