#include "core/item_index.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>

#include "common/macros.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/topk.h"
#include "tensor/ops.h"

namespace groupsa::core {
namespace {

// Rows per assignment tile: bounds the (rows x nlist) dot-product scratch to
// ~32 MB at the nlist cap while keeping the GEMM tall enough to hit the
// tiled kernel.
constexpr int kAssignChunkRows = 4096;
// Grain of the per-row argmax fan-out.
constexpr int64_t kArgmaxGrain = 64;

int ResolveNlist(int requested, int num_items) {
  int nlist = requested;
  if (nlist <= 0) {
    nlist = static_cast<int>(4.0 * std::sqrt(static_cast<double>(num_items)));
    nlist = std::clamp(nlist, 1, 2048);
  }
  return std::clamp(nlist, 1, std::max(num_items, 1));
}

int ResolveNprobe(int requested, int nlist) {
  int nprobe = requested;
  if (nprobe <= 0) nprobe = std::max(std::min(4, nlist), nlist / 16);
  return std::clamp(nprobe, 1, std::max(nlist, 1));
}

int ResolveTrainSample(int requested, int nlist, int num_items) {
  int sample = requested;
  if (sample <= 0) sample = std::max(24 * nlist, 16384);
  return std::clamp(sample, nlist, num_items);
}

// ||row||^2 of each row, accumulated in double left-to-right.
std::vector<double> RowSquaredNorms(const tensor::Matrix& m) {
  std::vector<double> norms(static_cast<size_t>(m.rows()));
  for (int r = 0; r < m.rows(); ++r) {
    const float* row = m.RowPtr(r);
    double acc = 0.0;
    for (int c = 0; c < m.cols(); ++c) {
      acc += static_cast<double>(row[c]) * static_cast<double>(row[c]);
    }
    norms[static_cast<size_t>(r)] = acc;
  }
  return norms;
}

// Assigns every row of `vectors` to its nearest centroid (squared Euclidean,
// ties to the lowest centroid id) via argmax_j(x·c_j - ||c_j||²/2). The
// centroids are transposed once into a contiguous (dim x nlist) panel so the
// dots run on the tiled no-transpose-b GEMM path; every dot is still the
// k-ascending chain of x[k]·c_j[k] that a transpose-b product of the same
// operands computes, so the assignments do not depend on the call shape (see
// DESIGN.md §12 "Build kernel"). The per-row argmax writes disjoint slots, so
// the result is bit-identical at any thread count. `panel`/`scratch`/`dots`
// are caller-provided so Lloyd iterations reuse the same storage.
void AssignNearest(const tensor::Matrix& vectors,
                   const tensor::Matrix& centroids,
                   const std::vector<double>& half_centroid_sqnorms,
                   tensor::Matrix* panel, tensor::Matrix* scratch,
                   tensor::Matrix* dots, std::vector<int>* assignments) {
  const int n = vectors.rows();
  const int nlist = centroids.rows();
  assignments->resize(static_cast<size_t>(n));
  tensor::TransposeInto(centroids, panel);
  std::vector<int> chunk_ids;
  for (int begin = 0; begin < n; begin += kAssignChunkRows) {
    const int end = std::min(n, begin + kAssignChunkRows);
    const int rows = end - begin;
    chunk_ids.resize(static_cast<size_t>(rows));
    for (int r = 0; r < rows; ++r) chunk_ids[static_cast<size_t>(r)] = begin + r;
    tensor::GatherRowsInto(vectors, chunk_ids, scratch);
    tensor::Gemm(*scratch, false, *panel, /*transpose_b=*/false, 1.0f, dots);
    int* out = assignments->data() + begin;
    const tensor::Matrix& d = *dots;
    parallel::ParallelFor(0, rows, kArgmaxGrain, [&](int64_t r0, int64_t r1) {
      for (int64_t r = r0; r < r1; ++r) {
        const float* drow = d.RowPtr(static_cast<int>(r));
        int best = 0;
        double best_score = static_cast<double>(drow[0]) -
                            half_centroid_sqnorms[0];
        for (int j = 1; j < nlist; ++j) {
          const double s = static_cast<double>(drow[j]) -
                           half_centroid_sqnorms[static_cast<size_t>(j)];
          if (s > best_score) {
            best_score = s;
            best = j;
          }
        }
        out[r] = best;
      }
    });
  }
}

// k-means++ D² seeding over the rows of `sample`: the first centroid is a
// uniform draw, each subsequent one is drawn with probability proportional
// to its squared distance from the nearest chosen centroid. Distances are
// maintained incrementally with one (1 x rows) product chosen · sampleᵀ per
// chosen centroid, against a sample transposed once so the product runs on
// the tiled kernel (same dot chains as sample · chosenᵀ). All draws come
// from the single `rng` stream in a fixed order, so seeding is a pure
// function of (sample, nlist, rng state).
tensor::Matrix SeedCentroids(const tensor::Matrix& sample, int nlist,
                             Rng* rng) {
  const int m = sample.rows();
  const int dim = sample.cols();
  const std::vector<double> sqnorms = RowSquaredNorms(sample);
  const tensor::Matrix sample_t = tensor::Transpose(sample);
  tensor::Matrix centroids(nlist, dim);
  tensor::Matrix chosen(1, dim);
  tensor::Matrix dots;
  std::vector<double> d2(static_cast<size_t>(m), 0.0);

  int pick = rng->NextInt(m);
  centroids.SetRow(0, sample.RowPtr(pick));
  for (int j = 1; j < nlist; ++j) {
    chosen.SetRow(0, centroids.RowPtr(j - 1));
    const double cnorm = RowSquaredNorms(chosen)[0];
    tensor::Gemm(chosen, false, sample_t, /*transpose_b=*/false, 1.0f, &dots);
    const float* dot = dots.RowPtr(0);
    double total = 0.0;
    for (int i = 0; i < m; ++i) {
      const size_t si = static_cast<size_t>(i);
      double dist = sqnorms[si] - 2.0 * static_cast<double>(dot[i]) + cnorm;
      if (dist < 0.0) dist = 0.0;
      d2[si] = (j == 1) ? dist : std::min(d2[si], dist);
      total += d2[si];
    }
    // All remaining mass at distance zero (duplicate-heavy samples): any
    // pick is equivalent, fall back to a uniform draw to keep going.
    pick = (total > 0.0) ? rng->NextWeighted(d2) : rng->NextInt(m);
    centroids.SetRow(j, sample.RowPtr(pick));
  }
  return centroids;
}

// One Lloyd centroid update: per-cluster mean of its assigned sample rows,
// accumulated in double over ascending row ids (serial, order-fixed). A
// cluster that lost all members keeps its previous centroid.
void UpdateCentroids(const tensor::Matrix& sample,
                     const std::vector<int>& assignments,
                     tensor::Matrix* centroids) {
  const int nlist = centroids->rows();
  const int dim = centroids->cols();
  std::vector<double> sums(static_cast<size_t>(nlist) * dim, 0.0);
  std::vector<int> counts(static_cast<size_t>(nlist), 0);
  for (int i = 0; i < sample.rows(); ++i) {
    const int a = assignments[static_cast<size_t>(i)];
    const float* row = sample.RowPtr(i);
    double* sum = sums.data() + static_cast<size_t>(a) * dim;
    for (int c = 0; c < dim; ++c) sum[c] += static_cast<double>(row[c]);
    ++counts[static_cast<size_t>(a)];
  }
  for (int j = 0; j < nlist; ++j) {
    const int count = counts[static_cast<size_t>(j)];
    if (count == 0) continue;
    float* row = centroids->RowPtr(j);
    const double* sum = sums.data() + static_cast<size_t>(j) * dim;
    for (int c = 0; c < dim; ++c) {
      row[c] = static_cast<float>(sum[c] / count);
    }
  }
}

std::vector<double> HalfSquaredNorms(const tensor::Matrix& centroids) {
  std::vector<double> half = RowSquaredNorms(centroids);
  for (double& v : half) v *= 0.5;
  return half;
}

}  // namespace

ItemIndex ItemIndex::Build(const tensor::Matrix& vectors,
                           const ItemIndexConfig& config) {
  ItemIndex index;
  index.num_items_ = vectors.rows();
  index.dim_ = vectors.cols();
  if (vectors.rows() == 0 || vectors.cols() == 0) {
    index.list_begin_.assign(1, 0);
    return index;
  }

  const int n = vectors.rows();
  const int nlist = ResolveNlist(config.nlist, n);
  index.default_nprobe_ = ResolveNprobe(config.nprobe, nlist);
  const int sample_size = ResolveTrainSample(config.train_sample, nlist, n);

  Rng rng(Rng::StreamSeed(config.seed, 0));

  // Training sample: a deterministic without-replacement draw, gathered in
  // ascending row order (the draw order must not leak into the result).
  tensor::Matrix sample;
  const tensor::Matrix* train = &vectors;
  if (sample_size < n) {
    std::vector<int> ids = rng.SampleWithoutReplacement(n, sample_size);
    std::sort(ids.begin(), ids.end());
    tensor::GatherRowsInto(vectors, ids, &sample);
    train = &sample;
  }

  index.centroids_ = SeedCentroids(*train, nlist, &rng);

  tensor::Matrix panel;
  tensor::Matrix scratch;
  tensor::Matrix dots;
  std::vector<int> assign;
  std::vector<int> prev_assign;
  for (int iter = 0; iter < config.train_iters; ++iter) {
    AssignNearest(*train, index.centroids_,
                  HalfSquaredNorms(index.centroids_), &panel, &scratch,
                  &dots, &assign);
    if (iter > 0 && assign == prev_assign) break;
    UpdateCentroids(*train, assign, &index.centroids_);
    prev_assign = assign;
  }

  // Final pass: assign the full catalog with the trained quantizer.
  AssignNearest(vectors, index.centroids_, HalfSquaredNorms(index.centroids_),
                &panel, &scratch, &dots, &index.assignments_);

  // CSR inverted lists; filling in ascending item order keeps each list's
  // items ascending.
  index.list_begin_.assign(static_cast<size_t>(nlist) + 1, 0);
  for (int i = 0; i < n; ++i) {
    ++index.list_begin_[static_cast<size_t>(index.assignments_[
        static_cast<size_t>(i)]) + 1];
  }
  for (int j = 0; j < nlist; ++j) {
    index.list_begin_[static_cast<size_t>(j) + 1] +=
        index.list_begin_[static_cast<size_t>(j)];
  }
  index.list_items_.resize(static_cast<size_t>(n));
  std::vector<int> cursor(index.list_begin_.begin(),
                          index.list_begin_.end() - 1);
  for (int i = 0; i < n; ++i) {
    const int a = index.assignments_[static_cast<size_t>(i)];
    index.list_items_[static_cast<size_t>(
        cursor[static_cast<size_t>(a)]++)] = static_cast<data::ItemId>(i);
  }
  return index;
}

const data::ItemId* ItemIndex::ListBegin(int c) const {
  GROUPSA_DCHECK(c >= 0 && c < nlist(), "ItemIndex list out of range");
  return list_items_.data() + list_begin_[static_cast<size_t>(c)];
}

int ItemIndex::ListSize(int c) const {
  GROUPSA_DCHECK(c >= 0 && c < nlist(), "ItemIndex list out of range");
  return list_begin_[static_cast<size_t>(c) + 1] -
         list_begin_[static_cast<size_t>(c)];
}

tensor::Matrix ItemIndex::ListMeans(const tensor::Matrix& table) const {
  GROUPSA_CHECK(table.rows() == num_items_,
                "ItemIndex::ListMeans: table row count != indexed items");
  const int lists = nlist();
  const int dim = table.cols();
  tensor::Matrix means(lists, dim);
  if (lists == 0 || dim == 0) return means;
  std::vector<double> sums(static_cast<size_t>(lists) * dim, 0.0);
  for (int i = 0; i < num_items_; ++i) {
    const int a = assignments_[static_cast<size_t>(i)];
    const float* row = table.RowPtr(i);
    double* sum = sums.data() + static_cast<size_t>(a) * dim;
    for (int c = 0; c < dim; ++c) sum[c] += static_cast<double>(row[c]);
  }
  for (int j = 0; j < lists; ++j) {
    const int count = ListSize(j);
    if (count == 0) continue;
    float* row = means.RowPtr(j);
    const double* sum = sums.data() + static_cast<size_t>(j) * dim;
    for (int c = 0; c < dim; ++c) {
      row[c] = static_cast<float>(sum[c] / count);
    }
  }
  return means;
}

std::vector<int> ItemIndex::SelectProbes(
    const std::vector<double>& centroid_scores, int nprobe) const {
  GROUPSA_CHECK(static_cast<int>(centroid_scores.size()) == nlist(),
                "ItemIndex::SelectProbes: one score per centroid required");
  if (nprobe <= 0) nprobe = default_nprobe_;
  std::vector<data::ItemId> nonempty;
  std::vector<double> scores;
  nonempty.reserve(static_cast<size_t>(nlist()));
  scores.reserve(static_cast<size_t>(nlist()));
  for (int j = 0; j < nlist(); ++j) {
    if (ListSize(j) == 0) continue;
    nonempty.push_back(static_cast<data::ItemId>(j));
    scores.push_back(centroid_scores[static_cast<size_t>(j)]);
  }
  const auto ranked = TopKItems(nonempty, scores, nprobe);
  std::vector<int> probes;
  probes.reserve(ranked.size());
  for (const auto& [list_id, score] : ranked) {
    (void)score;
    probes.push_back(list_id);
  }
  return probes;
}

std::vector<data::ItemId> ItemIndex::Candidates(
    const std::vector<int>& probes) const {
  size_t total = 0;
  for (int c : probes) total += static_cast<size_t>(ListSize(c));
  std::vector<data::ItemId> candidates;
  candidates.reserve(total);
  for (int c : probes) {
    const data::ItemId* begin = ListBegin(c);
    candidates.insert(candidates.end(), begin, begin + ListSize(c));
  }
  return candidates;
}

}  // namespace groupsa::core
