#include "core/omd.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "solver/emd.h"
#include "vector/point_tile.h"
#include "vector/simd_kernels.h"

namespace vz::core {

namespace {

// Deterministic, evenly spaced subsample of a map's vectors, as raw SoA row
// pointers into the map's contiguous buffer.
void Subsample(const FeatureMap& in, size_t cap,
               std::vector<const float*>* rows, std::vector<double>* weights) {
  const size_t n = in.size();
  if (n <= cap) {
    for (size_t i = 0; i < n; ++i) {
      rows->push_back(in.row(i));
      weights->push_back(in.weight(i));
    }
    return;
  }
  for (size_t k = 0; k < cap; ++k) {
    const size_t i = k * n / cap;
    rows->push_back(in.row(i));
    weights->push_back(in.weight(i));
  }
}

// Fills the dense row-major ground-distance matrix, one batched kernel call
// per row, rows distributed over the pool. Each task writes only its own row
// and max slot, so the result is bit-identical for any thread count (max is
// order-independent). A fired cancel token stops row claims at the iteration
// cursor; callers must re-check the token before trusting the matrix — rows
// skipped after cancellation are left zeroed.
//
// The B side is transposed once into a column-major `PointTile` so the
// kernel vectorizes across output columns; every per-pair sum keeps the
// scalar accumulation order, so the filled matrix is bit-identical to the
// seed's per-pair fill.
double FillGroundMatrix(ThreadPool* pool, const std::vector<const float*>& av,
                        const std::vector<const float*>& bv, size_t dim,
                        std::vector<double>* cost, const CancelToken* cancel) {
  const size_t n = av.size();
  const size_t m = bv.size();
  cost->assign(n * m, 0.0);
  std::vector<double> row_max(n, 0.0);
  const PointTile tile(bv.data(), m, dim);
  ParallelFor(pool, n, [&](size_t i) {
    double* row = cost->data() + i * m;
    tile.EuclideanDistancesTo(av[i], row);
    double mx = 0.0;
    for (size_t j = 0; j < m; ++j) mx = std::max(mx, row[j]);
    row_max[i] = mx;
  }, cancel);
  double max_cost = 0.0;
  for (double mx : row_max) max_cost = std::max(max_cost, mx);
  return max_cost;
}

}  // namespace

OmdCalculator::OmdCalculator(const OmdOptions& options) : options_(options) {
  set_threshold_alpha(options_.threshold_alpha);
  if (options_.max_vectors < 1) options_.max_vectors = 1;
}

void OmdCalculator::set_threshold_alpha(double alpha) {
  options_.threshold_alpha = std::min(1.0, std::max(1e-3, alpha));
}

StatusOr<double> OmdCalculator::Distance(const FeatureMap& a,
                                         const FeatureMap& b) {
  return DistanceWithOptions(a, b, options_, nullptr);
}

StatusOr<double> OmdCalculator::Distance(const FeatureMap& a,
                                         const FeatureMap& b,
                                         const CancelToken* cancel) {
  return DistanceWithOptions(a, b, options_, cancel);
}

StatusOr<double> OmdCalculator::DistanceWithOptions(const FeatureMap& a,
                                                    const FeatureMap& b,
                                                    const OmdOptions& options,
                                                    const CancelToken* cancel) {
  if (Cancelled(cancel)) {
    return Status::Cancelled("OMD cancelled before ground-matrix fill");
  }
  num_computations_.fetch_add(1, std::memory_order_relaxed);
  if (a.empty() && b.empty()) return 0.0;
  // An empty side behaves as one zero vector of the other side's dimension.
  // The stand-in map is only materialized when a side actually is empty.
  const FeatureMap* left = &a;
  const FeatureMap* right = &b;
  FeatureMap zero_map;
  if (a.empty() || b.empty()) {
    const FeatureVector zero(a.empty() ? b.dim() : a.dim());
    (void)zero_map.Add(zero, 1.0);
    if (a.empty()) left = &zero_map;
    if (b.empty()) right = &zero_map;
  }
  if (left->dim() != right->dim()) {
    return Status::InvalidArgument("feature map dimension mismatch");
  }

  std::vector<const float*> av;
  std::vector<double> aw;
  std::vector<const float*> bv;
  std::vector<double> bw;
  const size_t cap = std::max<size_t>(1, options.max_vectors);
  Subsample(*left, cap, &av, &aw);
  Subsample(*right, cap, &bv, &bw);

  // Dense ground-distance matrix, shared by both solver modes and read by
  // the solver in place.
  std::vector<double> cost;
  const double max_cost =
      FillGroundMatrix(pool_, av, bv, left->dim(), &cost, cancel);
  // A token that fired during the fill leaves unclaimed rows zeroed (and
  // `max_cost` understated); solving that matrix would produce a plausible
  // but wrong distance, so bail out before the solver ever sees it.
  if (Cancelled(cancel)) {
    return Status::Cancelled("OMD cancelled during ground-matrix fill");
  }
  if (options.mode == OmdMode::kExact || max_cost == 0.0) {
    VZ_ASSIGN_OR_RETURN(solver::EmdResult result,
                        solver::ExactEmd(aw, bw, cost, cancel));
    return result.distance;
  }
  const double threshold =
      std::min(1.0, std::max(1e-3, options.threshold_alpha)) * max_cost;
  VZ_ASSIGN_OR_RETURN(
      solver::EmdResult result,
      solver::ThresholdedEmd(aw, bw, cost, threshold, cancel));
  return result.distance;
}

StatusOr<OmdCalculator::GroundMatrix> OmdCalculator::ComputeGroundMatrix(
    const FeatureMap& a, const FeatureMap& b) const {
  if (a.empty() || b.empty()) {
    return Status::InvalidArgument("ground matrix requires non-empty maps");
  }
  if (a.dim() != b.dim()) {
    return Status::InvalidArgument("feature map dimension mismatch");
  }
  std::vector<const float*> av;
  std::vector<double> aw;
  std::vector<const float*> bv;
  std::vector<double> bw;
  Subsample(a, options_.max_vectors, &av, &aw);
  Subsample(b, options_.max_vectors, &bv, &bw);
  GroundMatrix matrix;
  matrix.rows = av.size();
  matrix.cols = bv.size();
  matrix.max_cost =
      FillGroundMatrix(pool_, av, bv, a.dim(), &matrix.cost, nullptr);
  return matrix;
}

double QuantizedOmdLowerBound(const FeatureMap& a, const FeatureMap& b,
                              const OmdOptions& options) {
  if (a.empty() || b.empty() || a.dim() == 0 || a.dim() != b.dim()) {
    return 0.0;
  }
  // The solver subsamples oversized maps; a bound over the full vector set
  // would take the min over *more* candidates than the solver sees, which is
  // not a lower bound on the subsampled distance. Only certify when the
  // quantized set equals the solver's set.
  if (a.size() > options.max_vectors || b.size() > options.max_vectors) {
    return 0.0;
  }
  const auto qa = a.quantized();
  const auto qb = b.quantized();
  if (!qa.has_value() || !qb.has_value()) return 0.0;
  const double total_a = a.TotalWeight();
  const double total_b = b.TotalWeight();
  if (total_a <= 0.0 || total_b <= 0.0) return 0.0;

  const size_t n = a.size();
  const size_t m = b.size();
  const size_t dim = a.dim();
  const double sa = qa->scale;
  const double sb = qb->scale;
  // Componentwise |value - code * scale| <= scale / 2, so the Euclidean
  // distance between a pair differs from its quantized reconstruction by at
  // most (sa + sb) / 2 * sqrt(dim).
  const double margin =
      0.5 * (sa + sb) * std::sqrt(static_cast<double>(dim));
  const double kInf = std::numeric_limits<double>::infinity();
  const simd::KernelTable& kernels = simd::Active();

  std::vector<double> row_min(n, kInf);
  std::vector<double> col_min(m, kInf);
  double qmax = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const int8_t* ca = qa->codes + i * dim;
    const double na = sa * sa * qa->norms[i];
    for (size_t j = 0; j < m; ++j) {
      const int64_t dot = kernels.dot_i8(ca, qb->codes + j * dim, dim);
      const double d2 = na + sb * sb * qb->norms[j] -
                        2.0 * sa * sb * static_cast<double>(dot);
      const double d = std::sqrt(std::max(0.0, d2));
      row_min[i] = std::min(row_min[i], d);
      col_min[j] = std::min(col_min[j], d);
      qmax = std::max(qmax, d);
    }
  }

  // Thresholded mode clips the ground metric at t = alpha * max_cost, and
  // max_cost is only known to be >= qmax - margin; exact mode has no clip.
  double cap = kInf;
  if (options.mode == OmdMode::kThresholded) {
    const double alpha =
        std::min(1.0, std::max(1e-3, options.threshold_alpha));
    cap = alpha * std::max(0.0, qmax - margin);
  }
  double bound_a = 0.0;
  for (size_t i = 0; i < n; ++i) {
    bound_a += a.weight(i) / total_a *
               std::min(std::max(0.0, row_min[i] - margin), cap);
  }
  double bound_b = 0.0;
  for (size_t j = 0; j < m; ++j) {
    bound_b += b.weight(j) / total_b *
               std::min(std::max(0.0, col_min[j] - margin), cap);
  }
  return std::max(bound_a, bound_b);
}

std::vector<OmdItem> ListItems(const std::vector<FeatureMap>& maps) {
  std::vector<OmdItem> items;
  items.reserve(maps.size());
  for (size_t i = 0; i < maps.size(); ++i) {
    items.push_back({&maps[i], maps[i].Centroid(), i});
  }
  return items;
}

SvsMetric::SvsMetric(const SvsStore* store, OmdCalculator* calculator,
                     const SvsMetricOptions& options)
    : store_(store), calculator_(calculator), options_(options) {}

SvsMetric::SvsMetric(std::vector<OmdItem> items, OmdCalculator* calculator,
                     const SvsMetricOptions& options)
    : items_(std::move(items)), calculator_(calculator), options_(options) {}

SvsMetric::Ref SvsMetric::Resolve(int id) const {
  if (store_ == nullptr) {
    if (id < 0 || static_cast<size_t>(id) >= items_.size()) return Ref();
    const OmdItem& item = items_[static_cast<size_t>(id)];
    return {item.map, &item.centroid, item.identity};
  }
  auto svs = store_->Get(id);
  if (!svs.ok()) return Ref();
  return {&(*svs)->features(), &(*svs)->centroid(), static_cast<uint64_t>(id)};
}

double SvsMetric::Between(Ref a, Ref b, bool* solved) const {
  // Failures poison the pair with +inf: a broken distance must read as
  // "maximally far", never as 0.0 ("identical"), or clustering and NN
  // search silently fold unrelated items together.
  if (a.map == nullptr || b.map == nullptr) {
    VZ_LOG(Error) << "SvsMetric: unknown item id";
    failed_distances_.fetch_add(1, std::memory_order_relaxed);
    return std::numeric_limits<double>::infinity();
  }
  if (a.identity.has_value() && a.identity == b.identity) return 0.0;
  const bool memoize =
      options_.memoize && a.identity.has_value() && b.identity.has_value();
  // The solver is not bit-symmetric, and the memo holds one value per
  // unordered pair: solve lower identity first, so the memoized bits never
  // depend on which orientation was asked first.
  if (memoize && *a.identity > *b.identity) std::swap(a, b);
  const OmdOptions& omd_options = calculator_->options();
  if (memoize) {
    auto hit = cache().Lookup(*a.identity, *b.identity, omd_options.mode,
                              omd_options.threshold_alpha);
    if (hit.has_value()) return *hit;
  }
  *solved = true;
  auto result = calculator_->Distance(*a.map, *b.map);
  if (!result.ok()) {
    VZ_LOG(Error) << "OMD failed: " << result.status().ToString();
    failed_distances_.fetch_add(1, std::memory_order_relaxed);
    return std::numeric_limits<double>::infinity();
  }
  if (memoize) {
    cache().Insert(*a.identity, *b.identity, omd_options.mode,
                   omd_options.threshold_alpha, *result);
  }
  return *result;
}

double SvsMetric::Bound(const Ref& a, const Ref& b) const {
  if (a.map == nullptr || b.map == nullptr) return 0.0;
  // OCD: distance between weighted centroids lower-bounds OMD (Sec. 4.3).
  double bound = 0.0;
  if (a.centroid->dim() == b.centroid->dim() && !a.centroid->empty()) {
    bound = EuclideanDistance(*a.centroid, *b.centroid);
  }
  if (options_.quantized_prune) {
    bound = std::max(bound, QuantizedOmdLowerBound(*a.map, *b.map,
                                                   calculator_->options()));
  }
  return bound;
}

double SvsMetric::Distance(int a, int b) {
  if (a == b) return 0.0;
  bool solved = false;
  const double distance = Between(Resolve(a), Resolve(b), &solved);
  num_evals_ += solved ? 1 : 0;
  return distance;
}

double SvsMetric::LowerBound(int a, int b) {
  if (a == b) return 0.0;
  return Bound(Resolve(a), Resolve(b));
}

SvsMetric::Query::Query(const SvsMetric* metric, const FeatureMap* map,
                        std::optional<uint64_t> identity)
    : metric_(metric),
      map_(map),
      centroid_(map->Centroid()),
      identity_(identity) {}

double SvsMetric::Query::Distance(int item) const {
  bool solved = false;
  return metric_->Between({map_, &centroid_, identity_},
                          metric_->Resolve(item), &solved);
}

double SvsMetric::Query::LowerBound(int item) const {
  return metric_->Bound({map_, &centroid_, identity_}, metric_->Resolve(item));
}

}  // namespace vz::core
