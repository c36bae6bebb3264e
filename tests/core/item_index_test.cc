// ItemIndex / TopKMode::kIvf suite: quantizer structure, build determinism
// across thread counts and bit-identity with a transpose-b reference
// k-means (race-labelled for the TSan lane), value-version
// invalidation after real optimizer steps, the structural exact-parity
// contract (nprobe = nlist bit-identical to kExact), empty/tiny catalogs,
// and recall@10 against exact top-K on a seeded synthetic world.

#include "core/item_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/inference_engine.h"
#include "core/fast_recommender.h"
#include "core/test_fixtures.h"
#include "core/topk.h"
#include "core/trainer.h"
#include "tensor/ops.h"

namespace groupsa::core {
namespace {

using core::testing::TinyFixture;

GroupSaConfig SmallConfig() {
  GroupSaConfig c = GroupSaConfig::Default();
  c.embedding_dim = 8;
  c.attention_hidden = 8;
  c.ffn_hidden = 8;
  c.predictor_hidden = {8};
  c.fusion_hidden = {8};
  return c;
}

// Runs `body` at pool widths 1 and 4, restoring the serial default after.
void AtThreads(const std::function<void()>& body) {
  for (int threads : {1, 4}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    parallel::SetGlobalThreads(threads);
    body();
  }
  parallel::SetGlobalThreads(1);
}

tensor::Matrix RandomTable(int rows, int cols, uint64_t seed) {
  tensor::Matrix m(rows, cols);
  Rng rng(seed);
  m.FillGaussian(&rng, 0.0f, 1.0f);
  return m;
}

bool SameBits(const tensor::Matrix& a, const tensor::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.size())) == 0;
}

bool SameBits(const std::vector<std::pair<data::ItemId, double>>& a,
              const std::vector<std::pair<data::ItemId, double>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].first != b[i].first) return false;
    if (std::memcmp(&a[i].second, &b[i].second, sizeof(double)) != 0)
      return false;
  }
  return true;
}

TEST(ItemIndexTest, ListsPartitionTheCatalogInAscendingOrder) {
  const tensor::Matrix table = RandomTable(200, 6, /*seed=*/9);
  ItemIndexConfig config;
  config.nlist = 12;
  const ItemIndex index = ItemIndex::Build(table, config);

  ASSERT_EQ(index.num_items(), 200);
  ASSERT_EQ(index.nlist(), 12);
  ASSERT_EQ(index.assignments().size(), 200u);

  std::set<data::ItemId> seen;
  int total = 0;
  for (int c = 0; c < index.nlist(); ++c) {
    const data::ItemId* items = index.ListBegin(c);
    const int size = index.ListSize(c);
    total += size;
    for (int i = 0; i < size; ++i) {
      if (i > 0) {
        EXPECT_LT(items[i - 1], items[i]) << "list " << c;
      }
      EXPECT_TRUE(seen.insert(items[i]).second) << "duplicate " << items[i];
      EXPECT_EQ(index.assignments()[static_cast<size_t>(items[i])], c);
    }
  }
  EXPECT_EQ(total, 200);
  EXPECT_EQ(seen.size(), 200u);
}

TEST(ItemIndexRaceTest, BuildIsBitIdenticalAcrossThreadCounts) {
  const tensor::Matrix table = RandomTable(300, 8, /*seed=*/17);
  ItemIndexConfig config;
  config.nlist = 16;

  parallel::SetGlobalThreads(1);
  const ItemIndex serial = ItemIndex::Build(table, config);
  AtThreads([&] {
    const ItemIndex index = ItemIndex::Build(table, config);
    EXPECT_TRUE(SameBits(index.centroids(), serial.centroids()));
    EXPECT_EQ(index.assignments(), serial.assignments());
    for (int c = 0; c < index.nlist(); ++c)
      ASSERT_EQ(index.ListSize(c), serial.ListSize(c));
  });
}

// Reference k-means for the bit-identity test below: the same draws, sums
// and argmax as ItemIndex::Build, but every dot product taken as a
// transpose-b GEMM (the kernel's scalar zero-skipping path) against the
// untransposed operands, with the whole table assigned in one product.
struct ReferenceKMeans {
  tensor::Matrix centroids;
  std::vector<int> assignments;
};

std::vector<double> RefRowSquaredNorms(const tensor::Matrix& m) {
  std::vector<double> norms(static_cast<size_t>(m.rows()), 0.0);
  for (int r = 0; r < m.rows(); ++r) {
    for (int c = 0; c < m.cols(); ++c) {
      const double v = static_cast<double>(m.At(r, c));
      norms[static_cast<size_t>(r)] += v * v;
    }
  }
  return norms;
}

std::vector<int> RefAssign(const tensor::Matrix& vectors,
                           const tensor::Matrix& centroids) {
  std::vector<double> half = RefRowSquaredNorms(centroids);
  for (double& v : half) v *= 0.5;
  tensor::Matrix dots;
  tensor::Gemm(vectors, false, centroids, /*transpose_b=*/true, 1.0f, &dots);
  std::vector<int> out(static_cast<size_t>(vectors.rows()));
  for (int r = 0; r < vectors.rows(); ++r) {
    int best = 0;
    double best_score = static_cast<double>(dots.At(r, 0)) - half[0];
    for (int j = 1; j < centroids.rows(); ++j) {
      const double s = static_cast<double>(dots.At(r, j)) -
                       half[static_cast<size_t>(j)];
      if (s > best_score) {
        best_score = s;
        best = j;
      }
    }
    out[static_cast<size_t>(r)] = best;
  }
  return out;
}

// `config` must name nlist and train_sample explicitly (no auto sizing).
ReferenceKMeans RefBuild(const tensor::Matrix& vectors,
                         const ItemIndexConfig& config) {
  const int n = vectors.rows();
  const int dim = vectors.cols();
  Rng rng(Rng::StreamSeed(config.seed, 0));
  tensor::Matrix sample = vectors;
  if (config.train_sample < n) {
    std::vector<int> ids = rng.SampleWithoutReplacement(n, config.train_sample);
    std::sort(ids.begin(), ids.end());
    tensor::GatherRowsInto(vectors, ids, &sample);
  }
  const int m = sample.rows();

  // k-means++ seeding.
  const std::vector<double> sqnorms = RefRowSquaredNorms(sample);
  ReferenceKMeans ref;
  ref.centroids = tensor::Matrix(config.nlist, dim);
  tensor::Matrix chosen(1, dim);
  tensor::Matrix dots;
  std::vector<double> d2(static_cast<size_t>(m), 0.0);
  int pick = rng.NextInt(m);
  ref.centroids.SetRow(0, sample.RowPtr(pick));
  for (int j = 1; j < config.nlist; ++j) {
    chosen.SetRow(0, ref.centroids.RowPtr(j - 1));
    const double cnorm = RefRowSquaredNorms(chosen)[0];
    tensor::Gemm(sample, false, chosen, /*transpose_b=*/true, 1.0f, &dots);
    double total = 0.0;
    for (int i = 0; i < m; ++i) {
      const size_t si = static_cast<size_t>(i);
      double dist = sqnorms[si] - 2.0 * static_cast<double>(dots.At(i, 0)) +
                    cnorm;
      if (dist < 0.0) dist = 0.0;
      d2[si] = (j == 1) ? dist : std::min(d2[si], dist);
      total += d2[si];
    }
    pick = (total > 0.0) ? rng.NextWeighted(d2) : rng.NextInt(m);
    ref.centroids.SetRow(j, sample.RowPtr(pick));
  }

  // Lloyd iterations with double-accumulated means.
  std::vector<int> prev;
  for (int iter = 0; iter < config.train_iters; ++iter) {
    const std::vector<int> assign = RefAssign(sample, ref.centroids);
    if (iter > 0 && assign == prev) break;
    std::vector<double> sums(static_cast<size_t>(config.nlist) * dim, 0.0);
    std::vector<int> counts(static_cast<size_t>(config.nlist), 0);
    for (int i = 0; i < m; ++i) {
      const int a = assign[static_cast<size_t>(i)];
      for (int c = 0; c < dim; ++c)
        sums[static_cast<size_t>(a) * dim + c] +=
            static_cast<double>(sample.At(i, c));
      ++counts[static_cast<size_t>(a)];
    }
    for (int j = 0; j < config.nlist; ++j) {
      const int count = counts[static_cast<size_t>(j)];
      if (count == 0) continue;
      for (int c = 0; c < dim; ++c)
        ref.centroids.At(j, c) = static_cast<float>(
            sums[static_cast<size_t>(j) * dim + c] / count);
    }
    prev = assign;
  }
  ref.assignments = RefAssign(vectors, ref.centroids);
  return ref;
}

// A Gaussian table with about a tenth of its entries exact +0.0f and a
// tenth exact -0.0f, so the zero-skip of the transpose-b reference is taken
// often and with both signs.
tensor::Matrix SignedZeroTable(int rows, int cols, uint64_t seed) {
  tensor::Matrix m = RandomTable(rows, cols, seed);
  Rng rng(seed ^ 0x5A5AULL);
  for (int i = 0; i < m.size(); ++i) {
    const int draw = rng.NextInt(10);
    if (draw == 0) m.data()[i] = 0.0f;
    if (draw == 1) m.data()[i] = -0.0f;
  }
  return m;
}

TEST(ItemIndexRaceTest, BuildMatchesTransposeBReferenceBitForBit) {
  // Rows above the 4,096-row assignment chunk; dims 13 and 32; nlist and
  // sample widths that end the tiled kernel's column sweep on each of its
  // tails: 40 = 32+8, 48 = 32+16, 50 = 32+18 (runtime width), 692 = 21*32+20
  // (runtime width) for the assignment panel; samples 4104 = 128*32+8,
  // 4112 = 128*32+16, 3000 and 4500 (runtime widths) for the seeding row.
  struct Case {
    int rows, dim, nlist, sample, iters;
  };
  const Case cases[] = {
      {4500, 13, 40, 4104, 8},
      {4112, 32, 48, 4112, 8},
      {5000, 13, 50, 3000, 8},
      {4500, 32, 692, 4500, 3},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(::testing::Message() << "rows=" << c.rows << " dim=" << c.dim
                                      << " nlist=" << c.nlist);
    const tensor::Matrix table =
        SignedZeroTable(c.rows, c.dim, /*seed=*/c.rows + c.nlist);
    ItemIndexConfig config;
    config.nlist = c.nlist;
    config.train_sample = c.sample;
    config.train_iters = c.iters;
    parallel::SetGlobalThreads(1);
    const ReferenceKMeans ref = RefBuild(table, config);
    AtThreads([&] {
      const ItemIndex index = ItemIndex::Build(table, config);
      EXPECT_TRUE(SameBits(index.centroids(), ref.centroids));
      EXPECT_EQ(index.assignments(), ref.assignments);
    });
  }
}

TEST(ItemIndexTest, EmptyCatalogYieldsEmptyIndex) {
  const ItemIndex index = ItemIndex::Build(tensor::Matrix(), ItemIndexConfig{});
  EXPECT_EQ(index.num_items(), 0);
  EXPECT_EQ(index.nlist(), 0);
  EXPECT_TRUE(index.SelectProbes({}, 4).empty());
  EXPECT_TRUE(index.Candidates({}).empty());
}

TEST(ItemIndexTest, TinyCatalogClampsNlistBelowItems) {
  // Fewer items than the requested nlist: the build must degrade, not fail,
  // and probing everything must still return the whole catalog.
  const tensor::Matrix table = RandomTable(3, 4, /*seed=*/5);
  ItemIndexConfig config;
  config.nlist = 8;
  const ItemIndex index = ItemIndex::Build(table, config);
  ASSERT_LE(index.nlist(), 3);
  ASSERT_GE(index.nlist(), 1);

  std::vector<double> scores(static_cast<size_t>(index.nlist()), 0.0);
  const std::vector<data::ItemId> all =
      index.Candidates(index.SelectProbes(scores, index.nlist()));
  std::vector<data::ItemId> sorted = all;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<data::ItemId>{0, 1, 2}));
}

TEST(ItemIndexTest, SingleItemCatalog) {
  const ItemIndex index =
      ItemIndex::Build(RandomTable(1, 4, /*seed=*/2), ItemIndexConfig{});
  EXPECT_EQ(index.nlist(), 1);
  EXPECT_EQ(index.Candidates(index.SelectProbes({0.0}, 1)),
            (std::vector<data::ItemId>{0}));
}

TEST(ItemIndexTest, SelectProbesRanksByScoreThenListId) {
  // Four tight, well-separated blobs guarantee four non-empty lists, so the
  // expectations below depend only on the scores handed to SelectProbes.
  tensor::Matrix table(64, 4);
  Rng rng(3);
  table.FillGaussian(&rng, 0.0f, 0.05f);
  for (int r = 0; r < table.rows(); ++r) {
    table.At(r, 0) += static_cast<float>(100 * (r % 4));
  }
  ItemIndexConfig config;
  config.nlist = 4;
  const ItemIndex index = ItemIndex::Build(table, config);
  ASSERT_EQ(index.nlist(), 4);
  for (int c = 0; c < 4; ++c) ASSERT_GT(index.ListSize(c), 0);

  // Tie between lists 1 and 3: ascending list id must win.
  const std::vector<double> scores = {0.5, 2.0, -1.0, 2.0};
  EXPECT_EQ(index.SelectProbes(scores, 3), (std::vector<int>{1, 3, 0}));
  // nprobe past the list count clamps to everything.
  EXPECT_EQ(index.SelectProbes(scores, 100),
            (std::vector<int>{1, 3, 0, 2}));
}

TEST(ItemIndexTest, ListMeansMatchesNaiveDoubleMean) {
  const tensor::Matrix vectors = RandomTable(50, 5, /*seed=*/23);
  ItemIndexConfig config;
  config.nlist = 6;
  const ItemIndex index = ItemIndex::Build(vectors, config);
  const tensor::Matrix payload = RandomTable(50, 3, /*seed=*/29);
  const tensor::Matrix means = index.ListMeans(payload);
  ASSERT_EQ(means.rows(), index.nlist());
  ASSERT_EQ(means.cols(), 3);

  for (int c = 0; c < index.nlist(); ++c) {
    for (int col = 0; col < 3; ++col) {
      double sum = 0.0;
      for (int i = 0; i < index.ListSize(c); ++i)
        sum += static_cast<double>(payload.At(index.ListBegin(c)[i], col));
      const float want =
          index.ListSize(c) == 0
              ? 0.0f
              : static_cast<float>(sum / index.ListSize(c));
      EXPECT_EQ(means.At(c, col), want) << "list " << c << " col " << col;
    }
  }
}

// ---------------------------------------------------------------------------
// Engine integration
// ---------------------------------------------------------------------------

// Full-probe config: nprobe = nlist makes the candidate set the whole
// catalog, so kIvf must be structurally bit-identical to kExact.
ItemIndexConfig FullProbeConfig(int nlist) {
  ItemIndexConfig config;
  config.nlist = nlist;
  config.nprobe = nlist;
  return config;
}

TEST(ItemIndexRaceTest, IvfFullProbeBitIdenticalToExactTopK) {
  for (bool wide_attention : {false, true}) {
    SCOPED_TRACE(::testing::Message() << "wide=" << wide_attention);
    GroupSaConfig config = SmallConfig();
    // Cover both the fused and the buffered attention paths.
    if (wide_attention) config.attention_hidden = 144;
    const TinyFixture f = TinyFixture::Make(config);
    auto model = f.MakeModel(config);
    InferenceEngine& engine = model->inference();
    engine.set_index_config(FullProbeConfig(10));

    AtThreads([&] {
      engine.set_topk_mode(TopKMode::kExact);
      const auto exact_user = engine.RecommendForUser(3, 10, &f.ui_train);
      const auto exact_group = engine.RecommendForGroup(5, 10, &f.gi_train);
      const auto exact_members =
          engine.RecommendForMembers({1, 4, 9}, 10, &f.ui_train);

      engine.set_topk_mode(TopKMode::kIvf);
      EXPECT_TRUE(
          SameBits(engine.RecommendForUser(3, 10, &f.ui_train), exact_user));
      EXPECT_TRUE(SameBits(engine.RecommendForGroup(5, 10, &f.gi_train),
                           exact_group));
      EXPECT_TRUE(SameBits(
          engine.RecommendForMembers({1, 4, 9}, 10, &f.ui_train),
          exact_members));
    });
  }
}

TEST(ItemIndexTest, FastRecommenderFullProbeBitIdenticalToExact) {
  const GroupSaConfig config = SmallConfig();
  const TinyFixture f = TinyFixture::Make(config);
  auto model = f.MakeModel(config);
  model->inference().set_index_config(FullProbeConfig(8));
  FastGroupRecommender fast(model.get());

  const std::vector<data::UserId> members = {2, 6, 10};
  const auto exact = fast.RecommendForMembers(members, 10, &f.ui_train);
  model->inference().set_topk_mode(TopKMode::kIvf);
  EXPECT_TRUE(SameBits(fast.RecommendForMembers(members, 10, &f.ui_train),
                       exact));
}

TEST(ItemIndexTest, IndexInvalidatedByOptimizerStep) {
  const GroupSaConfig config = SmallConfig();
  TinyFixture f = TinyFixture::Make(config);
  auto model = f.MakeModel(config);
  InferenceEngine& engine = model->inference();
  engine.set_index_config(FullProbeConfig(10));
  engine.set_topk_mode(TopKMode::kIvf);

  const auto index_before = engine.GetOrBuildIndex();
  const auto rec_before = engine.RecommendForGroup(0, 10, nullptr);
  // The cached state is reused while parameters stand still.
  EXPECT_EQ(engine.GetOrBuildIndex().get(), index_before.get());

  // Real gradients, real Adam steps.
  Rng rng(7);
  Trainer trainer(model.get(), f.ui.train, f.gi.train, &f.ui_train,
                  &f.gi_train, &rng);
  trainer.RunGroupEpoch();

  // The stale index must not survive the version bump, and the rebuilt one
  // must rank with the NEW parameters: full-probe IVF still bit-matches the
  // exact path post-step.
  const auto index_after = engine.GetOrBuildIndex();
  EXPECT_NE(index_after.get(), index_before.get());
  const auto ivf_after = engine.RecommendForGroup(0, 10, nullptr);
  engine.set_topk_mode(TopKMode::kExact);
  EXPECT_TRUE(SameBits(ivf_after, engine.RecommendForGroup(0, 10, nullptr)));
  EXPECT_FALSE(SameBits(ivf_after, rec_before));
}

TEST(ItemIndexTest, SetIndexConfigDropsTheBuiltIndex) {
  const GroupSaConfig config = SmallConfig();
  const TinyFixture f = TinyFixture::Make(config);
  auto model = f.MakeModel(config);
  InferenceEngine& engine = model->inference();
  engine.set_index_config(FullProbeConfig(10));
  const auto first = engine.GetOrBuildIndex();
  EXPECT_EQ(first->nlist(), 10);
  engine.set_index_config(FullProbeConfig(5));
  const auto second = engine.GetOrBuildIndex();
  EXPECT_NE(second.get(), first.get());
  EXPECT_EQ(second->nlist(), 5);
}

// ---------------------------------------------------------------------------
// Recall on a seeded world
// ---------------------------------------------------------------------------

// A larger-catalog world so approximate probing has room to miss: 600 items,
// deterministic seed, model at init (scores are a fixed function of the
// seeds).
struct RecallFixture {
  data::SyntheticWorld world;
  data::Split ui;
  data::Split gi;
  data::InteractionMatrix ui_train;
  data::InteractionMatrix gi_train;
  ModelData model_data;
  std::unique_ptr<GroupSaModel> model;

  explicit RecallFixture(const GroupSaConfig& config) {
    data::SyntheticWorldConfig wc = data::SyntheticWorldConfig::Tiny();
    wc.name = "recall";
    wc.num_users = 150;
    wc.num_items = 600;
    wc.num_groups = 60;
    world = data::GenerateWorld(wc);
    Rng rng(5);
    ui = data::SplitEdges(world.dataset.user_item, 0.2, 0.0, &rng);
    gi = data::GlobalSplitEdges(world.dataset.group_item, 0.2, 0.0, &rng);
    ui_train = data::InteractionMatrix(world.dataset.num_users,
                                       world.dataset.num_items, ui.train);
    gi_train = data::InteractionMatrix(world.dataset.groups.num_groups(),
                                       world.dataset.num_items, gi.train);
    model_data.groups = &world.dataset.groups;
    model_data.social = &world.dataset.social;
    model_data.top_items = data::TopItemsPerUser(ui_train, config.top_h);
    model_data.top_friends =
        data::TopFriendsPerUser(world.dataset.social, config.top_h);
    Rng model_rng(11);
    model = std::make_unique<GroupSaModel>(config, world.dataset.num_users,
                                           world.dataset.num_items,
                                           model_data, &model_rng);
  }
};

double RecallAtK(const std::vector<std::pair<data::ItemId, double>>& exact,
                 const std::vector<std::pair<data::ItemId, double>>& approx) {
  if (exact.empty()) return 1.0;
  std::set<data::ItemId> want;
  for (const auto& [item, score] : exact) want.insert(item);
  int hit = 0;
  for (const auto& [item, score] : approx)
    hit += want.count(item) ? 1 : 0;
  return static_cast<double>(hit) / static_cast<double>(want.size());
}

TEST(ItemIndexTest, RecallAtTenOnSeededWorld) {
  const GroupSaConfig config = SmallConfig();
  RecallFixture f(config);
  InferenceEngine& engine = f.model->inference();
  // A genuinely approximate setting: probe 12 of 48 lists (a quarter of the
  // catalog per query).
  ItemIndexConfig index_config;
  index_config.nlist = 48;
  index_config.nprobe = 12;
  engine.set_index_config(index_config);

  double user_recall = 0.0;
  double group_recall = 0.0;
  const int num_users = 20;
  const int num_groups = 20;
  for (int u = 0; u < num_users; ++u) {
    engine.set_topk_mode(TopKMode::kExact);
    const auto exact = engine.RecommendForUser(u, 10, nullptr);
    engine.set_topk_mode(TopKMode::kIvf);
    user_recall += RecallAtK(exact, engine.RecommendForUser(u, 10, nullptr));
  }
  for (int g = 0; g < num_groups; ++g) {
    engine.set_topk_mode(TopKMode::kExact);
    const auto exact = engine.RecommendForGroup(g, 10, nullptr);
    engine.set_topk_mode(TopKMode::kIvf);
    group_recall +=
        RecallAtK(exact, engine.RecommendForGroup(g, 10, nullptr));
  }
  user_recall /= num_users;
  group_recall /= num_groups;
  // Deterministic world + seeds: these are fixed quantities, gated with
  // headroom below the measured values.
  EXPECT_GE(user_recall, 0.9) << "user recall@10 degraded";
  EXPECT_GE(group_recall, 0.9) << "group recall@10 degraded";

  // And the IVF scores it does return are exact-path bits (re-rank is
  // exact): every returned (item, score) appears identically in the exact
  // full ranking.
  engine.set_topk_mode(TopKMode::kExact);
  const auto exact_full =
      engine.RecommendForUser(0, f.model->num_items(), nullptr);
  engine.set_topk_mode(TopKMode::kIvf);
  for (const auto& [item, score] : engine.RecommendForUser(0, 10, nullptr)) {
    bool found = false;
    for (const auto& [eitem, escore] : exact_full) {
      if (eitem != item) continue;
      found = std::memcmp(&score, &escore, sizeof(double)) == 0;
      break;
    }
    EXPECT_TRUE(found) << "item " << item
                       << " score is not the exact-path bits";
  }
}

}  // namespace
}  // namespace groupsa::core
