// Batched inference engine benchmark: full-catalog ranking through the
// per-item reference path (one tape-free autograd forward per candidate,
// GroupSaModel::Score*PerItem) vs the batched InferenceEngine path that every
// production entry point now uses. The two paths are bit-identical by
// contract (see src/core/inference_engine.h); this driver re-verifies the
// 0-ULP claim on every run and exits non-zero on any mismatch, so the timing
// numbers can never silently drift away from the semantics they claim to
// measure.
//
// Flags: --items=N --groups=N --users=N --threads=N --k=N --quick
//        --sweep       (catalog-size sweep: exact vs IVF retrieval, below)
//        --json=path   (machine-readable result record, see tools/bench.sh)
//        --git-sha=SHA (recorded in the JSON host fields with nproc)
//
// --sweep additionally runs the sublinear-retrieval sweep: for each catalog
// size in {2k, 100k, 1M} it builds a fresh world + model, times the
// auto-configured IVF index build (cold), then times warm top-10 requests
// through TopKMode::kExact vs TopKMode::kIvf — and, since schema 3, through
// ScoreMode::kInt8 (quantized scan + exact re-rank) both as a full-catalog
// scan and composed with IVF — and measures recall@10 of every approximate
// answer against the exact ones, all single-thread. Results land in the
// "sweep" array of the JSON record.
//
// Schema 3 also records the host (nproc, git sha, selected kernel backend)
// and the int8 memory story: bytes per cached user rep in the quantized
// cache vs the FP32 cost of the same reps (the >= 3.5x gate from
// tests/core/int8_mode_test.cc).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/groupsa_model.h"
#include "core/inference_engine.h"
#include "core/topk.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "data/tfidf.h"
#include "tensor/backend.h"

using namespace groupsa;

namespace {

struct Flags {
  int items = 2000;
  int groups = 20;
  int users = 40;
  int threads = 1;
  int k = 10;
  bool quick = false;
  bool sweep = false;
  std::string json;
  std::string git_sha = "unknown";
};

bool ParseIntFlag(const char* arg, const char* name, int* out) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *out = std::atoi(arg + n + 1);
  return true;
}

Flags ParseFlags(int argc, char** argv) {
  Flags f;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--quick") == 0) {
      f.quick = true;
    } else if (std::strcmp(arg, "--sweep") == 0) {
      f.sweep = true;
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      f.json = arg + 7;
    } else if (std::strncmp(arg, "--git-sha=", 10) == 0) {
      f.git_sha = arg + 10;
    } else if (!ParseIntFlag(arg, "--items", &f.items) &&
               !ParseIntFlag(arg, "--groups", &f.groups) &&
               !ParseIntFlag(arg, "--users", &f.users) &&
               !ParseIntFlag(arg, "--threads", &f.threads) &&
               !ParseIntFlag(arg, "--k", &f.k)) {
      std::fprintf(stderr, "unknown flag: %s\n", arg);
      std::exit(2);
    }
  }
  if (f.quick) {
    f.items = std::min(f.items, 300);
    f.groups = std::min(f.groups, 3);
    f.users = std::min(f.users, 5);
  }
  return f;
}

bool BitIdentical(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// ---------------------------------------------------------------------------
// Sublinear-retrieval sweep (--sweep)
// ---------------------------------------------------------------------------

struct SweepPoint {
  int items = 0;
  int nlist = 0;
  int nprobe = 0;
  double build_seconds = 0.0;     // cold IVF index build (auto config)
  double exact_ms_per_query = 0.0;  // warm top-10, TopKMode::kExact
  double ivf_ms_per_query = 0.0;    // warm top-10, TopKMode::kIvf
  double speedup = 0.0;
  double recall_at_10 = 0.0;      // IVF top-10 vs exact top-10
  // int8 scan (ScoreMode::kInt8): full-catalog quantized scan + exact
  // re-rank, and the same composed with IVF candidate retrieval.
  double int8_ms_per_query = 0.0;
  double int8_speedup = 0.0;  // vs exact_ms_per_query
  double int8_recall_at_10 = 0.0;
  double ivf_int8_ms_per_query = 0.0;
  double ivf_int8_speedup = 0.0;  // vs exact_ms_per_query
  double ivf_int8_recall_at_10 = 0.0;
};

double Overlap(const std::vector<std::pair<data::ItemId, double>>& exact,
               const std::vector<std::pair<data::ItemId, double>>& approx) {
  if (exact.empty()) return 1.0;
  int hit = 0;
  for (const auto& [item, score] : approx) {
    for (const auto& [want, wscore] : exact) {
      if (want == item) {
        ++hit;
        break;
      }
    }
  }
  return static_cast<double>(hit) / static_cast<double>(exact.size());
}

SweepPoint RunSweepPoint(int items, int k) {
  data::SyntheticWorldConfig wc;
  wc.name = "bench_sweep";
  wc.num_items = items;
  wc.num_users = 200;
  wc.num_groups = 100;
  const data::SyntheticWorld world = data::GenerateWorld(wc);
  const data::InteractionMatrix ui_all = world.dataset.UserItemMatrix();

  const core::GroupSaConfig config = core::GroupSaConfig::Default();
  core::ModelData model_data;
  model_data.groups = &world.dataset.groups;
  model_data.social = &world.dataset.social;
  model_data.top_items = data::TopItemsPerUser(ui_all, config.top_h);
  model_data.top_friends =
      data::TopFriendsPerUser(world.dataset.social, config.top_h);
  Rng rng(13);
  core::GroupSaModel model(config, world.dataset.num_users,
                           world.dataset.num_items, model_data, &rng);
  core::InferenceEngine& engine = model.inference();

  // Recall is a property of the scoring surface, so measure it in the state
  // the index actually serves: a trained model, whose top items concentrate
  // in few clusters. A random-init surface is uncorrelated with any
  // clustering and would report near-worst-case recall for every index.
  // A few epochs over the (small, fixed-size) edge sets are enough to
  // structure the surface; the timing numbers are arithmetic-identical
  // either way.
  {
    const data::InteractionMatrix gi_all = world.dataset.GroupItemMatrix();
    Rng train_rng(17);
    core::Trainer trainer(&model, world.dataset.user_item,
                          world.dataset.group_item, &ui_all, &gi_all,
                          &train_rng);
    for (int epoch = 0; epoch < 2; ++epoch) {
      trainer.RunUserEpoch();
      trainer.RunGroupEpoch();
    }
  }

  // A fixed mixed workload: 8 group queries + 8 user queries.
  const int kEach = 8;
  std::vector<data::GroupId> groups;
  std::vector<data::UserId> users;
  for (int i = 0; i < kEach; ++i) {
    groups.push_back(i % world.dataset.groups.num_groups());
    users.push_back((i * 7) % world.dataset.num_users);
  }
  const auto run_all = [&] {
    std::vector<std::vector<std::pair<data::ItemId, double>>> out;
    for (data::GroupId g : groups) {
      out.push_back(engine.RecommendForGroup(g, k, nullptr));
      if (out.back().empty()) std::abort();
    }
    for (data::UserId u : users) {
      out.push_back(engine.RecommendForUser(u, k, nullptr));
      if (out.back().empty()) std::abort();
    }
    return out;
  };
  const int num_queries = 2 * kEach;

  SweepPoint point;
  point.items = items;

  // Exact: one warming pass (rep caches, split weights), then the timed one.
  engine.set_topk_mode(core::TopKMode::kExact);
  const auto exact_top = run_all();
  Stopwatch sw;
  run_all();
  point.exact_ms_per_query = sw.ElapsedSeconds() * 1000.0 / num_queries;

  // IVF with the auto-derived (nlist, nprobe): cold build, then warm
  // queries.
  engine.set_index_config(core::ItemIndexConfig{});
  engine.set_topk_mode(core::TopKMode::kIvf);
  sw.Reset();
  const auto index = engine.GetOrBuildIndex();
  point.build_seconds = sw.ElapsedSeconds();
  point.nlist = index->nlist();
  point.nprobe = index->default_nprobe();

  const auto ivf_top = run_all();  // warm the candidate path
  sw.Reset();
  run_all();
  point.ivf_ms_per_query = sw.ElapsedSeconds() * 1000.0 / num_queries;
  point.speedup = point.ivf_ms_per_query > 0.0
                      ? point.exact_ms_per_query / point.ivf_ms_per_query
                      : 0.0;

  double recall = 0.0;
  for (size_t i = 0; i < exact_top.size(); ++i)
    recall += Overlap(exact_top[i], ivf_top[i]);
  point.recall_at_10 = recall / static_cast<double>(exact_top.size());

  const auto mean_overlap =
      [&](const std::vector<std::vector<std::pair<data::ItemId, double>>>&
              approx) {
        double sum = 0.0;
        for (size_t i = 0; i < exact_top.size(); ++i)
          sum += Overlap(exact_top[i], approx[i]);
        return sum / static_cast<double>(exact_top.size());
      };

  // int8 full-catalog scan: quantized reps + integer dots over the whole
  // catalog, exact FP32 re-rank of the surviving rerank_k.
  engine.set_topk_mode(core::TopKMode::kExact);
  engine.set_score_mode(core::ScoreMode::kInt8);
  const auto int8_top = run_all();  // warm the quantized caches
  sw.Reset();
  run_all();
  point.int8_ms_per_query = sw.ElapsedSeconds() * 1000.0 / num_queries;
  point.int8_speedup = point.int8_ms_per_query > 0.0
                           ? point.exact_ms_per_query / point.int8_ms_per_query
                           : 0.0;
  point.int8_recall_at_10 = mean_overlap(int8_top);

  // int8 composed with IVF: candidate retrieval prunes the catalog, the
  // quantized scan ranks the candidates, exact re-rank on top.
  engine.set_topk_mode(core::TopKMode::kIvf);
  const auto ivf_int8_top = run_all();  // warm the candidate path
  sw.Reset();
  run_all();
  point.ivf_int8_ms_per_query = sw.ElapsedSeconds() * 1000.0 / num_queries;
  point.ivf_int8_speedup =
      point.ivf_int8_ms_per_query > 0.0
          ? point.exact_ms_per_query / point.ivf_int8_ms_per_query
          : 0.0;
  point.ivf_int8_recall_at_10 = mean_overlap(ivf_int8_top);
  return point;
}

std::vector<SweepPoint> RunSweep(int k) {
  std::vector<SweepPoint> points;
  for (int items : {2000, 100000, 1000000}) {
    std::printf("  sweep: %d items...\n", items);
    std::fflush(stdout);
    points.push_back(RunSweepPoint(items, k));
    const SweepPoint& p = points.back();
    std::printf(
        "    nlist %4d nprobe %3d  build %6.2fs  warm top-%d: exact "
        "%8.3f ms/q  ivf %8.3f ms/q  speedup %5.2fx  recall@%d %.3f\n",
        p.nlist, p.nprobe, p.build_seconds, k, p.exact_ms_per_query,
        p.ivf_ms_per_query, p.speedup, k, p.recall_at_10);
    std::printf(
        "    int8 scan %8.3f ms/q (%5.2fx, recall@%d %.3f)  ivf+int8 "
        "%8.3f ms/q (%5.2fx, recall@%d %.3f)\n",
        p.int8_ms_per_query, p.int8_speedup, k, p.int8_recall_at_10,
        p.ivf_int8_ms_per_query, p.ivf_int8_speedup, k,
        p.ivf_int8_recall_at_10);
    std::fflush(stdout);
  }
  return points;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = ParseFlags(argc, argv);
  parallel::SetGlobalThreads(std::max(1, flags.threads));

  // An untrained model scores the same arithmetic as a trained one; the
  // catalog size is what matters here.
  data::SyntheticWorldConfig wc;
  wc.name = "bench_inference";
  wc.num_items = flags.items;
  wc.num_users = 400;
  wc.num_groups = std::max(flags.groups, 100);
  const data::SyntheticWorld world = data::GenerateWorld(wc);
  const data::InteractionMatrix ui_all = world.dataset.UserItemMatrix();

  const core::GroupSaConfig config = core::GroupSaConfig::Default();
  core::ModelData model_data;
  model_data.groups = &world.dataset.groups;
  model_data.social = &world.dataset.social;
  model_data.top_items = data::TopItemsPerUser(ui_all, config.top_h);
  model_data.top_friends =
      data::TopFriendsPerUser(world.dataset.social, config.top_h);
  Rng rng(13);
  core::GroupSaModel model(config, world.dataset.num_users,
                           world.dataset.num_items, model_data, &rng);
  const std::vector<data::ItemId> catalog = core::AllItems(model.num_items());

  std::vector<data::GroupId> groups(flags.groups);
  for (int i = 0; i < flags.groups; ++i)
    groups[i] = i % world.dataset.groups.num_groups();
  std::vector<data::UserId> users(flags.users);
  for (int i = 0; i < flags.users; ++i)
    users[i] = (i * 7) % world.dataset.num_users;

  std::printf(
      "bench_inference: %d items, %d groups, %d users, %d thread(s), "
      "kernel backend %s\n",
      flags.items, flags.groups, flags.users, parallel::GlobalThreads(),
      tensor::ActiveBackendName());

  // ---- group tower ----
  Stopwatch sw;
  std::vector<std::vector<double>> group_ref(groups.size());
  for (size_t i = 0; i < groups.size(); ++i)
    group_ref[i] = model.ScoreItemsForGroupPerItem(groups[i], catalog);
  const double group_per_item_s = sw.ElapsedSeconds();

  model.inference().InvalidateAll();  // time cold rep builds too
  sw.Reset();
  std::vector<std::vector<double>> group_batched(groups.size());
  for (size_t i = 0; i < groups.size(); ++i)
    group_batched[i] = model.ScoreItemsForGroup(groups[i], catalog);
  const double group_batched_s = sw.ElapsedSeconds();

  bool identical = true;
  for (size_t i = 0; i < groups.size(); ++i)
    identical = identical && BitIdentical(group_ref[i], group_batched[i]);

  // ---- user tower ----
  sw.Reset();
  std::vector<std::vector<double>> user_ref(users.size());
  for (size_t i = 0; i < users.size(); ++i)
    user_ref[i] = model.ScoreItemsForUserPerItem(users[i], catalog);
  const double user_per_item_s = sw.ElapsedSeconds();

  model.inference().InvalidateAll();
  sw.Reset();
  std::vector<std::vector<double>> user_batched(users.size());
  for (size_t i = 0; i < users.size(); ++i)
    user_batched[i] = model.ScoreItemsForUser(users[i], catalog);
  const double user_batched_s = sw.ElapsedSeconds();

  for (size_t i = 0; i < users.size(); ++i)
    identical = identical && BitIdentical(user_ref[i], user_batched[i]);

  // ---- warm-cache top-K (the serving steady state) ----
  sw.Reset();
  for (data::GroupId g : groups) {
    const auto top = model.RecommendForGroup(g, flags.k, nullptr);
    if (top.empty()) std::abort();
  }
  const double topk_warm_s = sw.ElapsedSeconds();

  // ---- int8 rep-cache memory (quantized vs FP32-equivalent bytes) ----
  // Serve the same user workload in int8 mode: the engine then caches
  // quantized reps only, and Fp32UserCacheBytes reports what the same reps
  // would cost in FP32 — the ratio is the bytes-per-user gate.
  core::InferenceEngine& engine = model.inference();
  engine.InvalidateAll();
  engine.set_score_mode(core::ScoreMode::kInt8);
  for (data::UserId u : users) {
    const auto top = engine.RecommendForUser(u, flags.k, nullptr);
    if (top.empty()) std::abort();
  }
  const size_t int8_cached_users = engine.cached_quant_users();
  const size_t quant_bytes = engine.QuantUserCacheBytes();
  const size_t fp32_bytes = engine.Fp32UserCacheBytes();
  const double int8_memory_ratio =
      quant_bytes > 0 ? static_cast<double>(fp32_bytes) /
                            static_cast<double>(quant_bytes)
                      : 0.0;
  const double int8_bytes_per_user =
      int8_cached_users > 0 ? static_cast<double>(quant_bytes) /
                                  static_cast<double>(int8_cached_users)
                            : 0.0;
  const double fp32_bytes_per_user =
      int8_cached_users > 0 ? static_cast<double>(fp32_bytes) /
                                  static_cast<double>(int8_cached_users)
                            : 0.0;
  engine.set_score_mode(core::ScoreMode::kExact);
  engine.InvalidateAll();

  const double group_speedup = group_per_item_s / group_batched_s;
  const double user_speedup = user_per_item_s / user_batched_s;
  std::printf("  group full-catalog: per-item %8.3fs  batched %8.3fs  "
              "speedup %6.2fx\n",
              group_per_item_s, group_batched_s, group_speedup);
  std::printf("  user  full-catalog: per-item %8.3fs  batched %8.3fs  "
              "speedup %6.2fx\n",
              user_per_item_s, user_batched_s, user_speedup);
  std::printf("  warm top-%d over %zu groups: %.3fs (%.2f ms/group)\n",
              flags.k, groups.size(), topk_warm_s,
              topk_warm_s * 1000.0 / groups.size());
  std::printf("  bit-identical: %s\n", identical ? "yes" : "NO");
  std::printf(
      "  int8 rep cache: %zu users, %.1f bytes/user vs %.1f FP32 "
      "(%.2fx smaller)\n",
      int8_cached_users, int8_bytes_per_user, fp32_bytes_per_user,
      int8_memory_ratio);

  std::vector<SweepPoint> sweep;
  if (flags.sweep) {
    std::printf("catalog sweep (single-thread, auto IVF config):\n");
    sweep = RunSweep(flags.k);
  }

  if (!flags.json.empty()) {
    FILE* out = std::fopen(flags.json.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", flags.json.c_str());
      return 2;
    }
    std::fprintf(
        out,
        "{\n"
        "  \"bench\": \"inference\",\n"
        "  \"schema\": 3,\n"
        "  \"git_sha\": \"%s\",\n"
        "  \"nproc\": %u,\n"
        "  \"backend\": \"%s\",\n"
        "  \"items\": %d,\n"
        "  \"groups\": %d,\n"
        "  \"users\": %d,\n"
        "  \"threads\": %d,\n"
        "  \"group_per_item_seconds\": %.6f,\n"
        "  \"group_batched_seconds\": %.6f,\n"
        "  \"group_speedup\": %.3f,\n"
        "  \"user_per_item_seconds\": %.6f,\n"
        "  \"user_batched_seconds\": %.6f,\n"
        "  \"user_speedup\": %.3f,\n"
        "  \"warm_topk_ms_per_group\": %.4f,\n"
        "  \"int8_cached_users\": %zu,\n"
        "  \"int8_bytes_per_user\": %.2f,\n"
        "  \"fp32_bytes_per_user\": %.2f,\n"
        "  \"int8_memory_ratio\": %.3f,\n"
        "  \"bit_identical\": %s",
        flags.git_sha.c_str(), std::thread::hardware_concurrency(),
        tensor::ActiveBackendName(), flags.items, flags.groups, flags.users,
        parallel::GlobalThreads(), group_per_item_s, group_batched_s,
        group_speedup, user_per_item_s, user_batched_s, user_speedup,
        topk_warm_s * 1000.0 / groups.size(), int8_cached_users,
        int8_bytes_per_user, fp32_bytes_per_user, int8_memory_ratio,
        identical ? "true" : "false");
    if (!sweep.empty()) {
      std::fprintf(out, ",\n  \"sweep\": [\n");
      for (size_t i = 0; i < sweep.size(); ++i) {
        const SweepPoint& p = sweep[i];
        std::fprintf(
            out,
            "    {\"items\": %d, \"nlist\": %d, \"nprobe\": %d, "
            "\"build_seconds\": %.4f, \"exact_ms_per_query\": %.4f, "
            "\"ivf_ms_per_query\": %.4f, \"speedup\": %.3f, "
            "\"recall_at_10\": %.4f,\n"
            "     \"int8_ms_per_query\": %.4f, \"int8_speedup\": %.3f, "
            "\"int8_recall_at_10\": %.4f,\n"
            "     \"ivf_int8_ms_per_query\": %.4f, "
            "\"ivf_int8_speedup\": %.3f, "
            "\"ivf_int8_recall_at_10\": %.4f}%s\n",
            p.items, p.nlist, p.nprobe, p.build_seconds, p.exact_ms_per_query,
            p.ivf_ms_per_query, p.speedup, p.recall_at_10,
            p.int8_ms_per_query, p.int8_speedup, p.int8_recall_at_10,
            p.ivf_int8_ms_per_query, p.ivf_int8_speedup,
            p.ivf_int8_recall_at_10, i + 1 < sweep.size() ? "," : "");
      }
      std::fprintf(out, "  ]\n}\n");
    } else {
      std::fprintf(out, "\n}\n");
    }
    std::fclose(out);
  }

  if (!identical) {
    std::fprintf(stderr,
                 "FATAL: batched scores diverged from the per-item path\n");
    return 1;
  }
  return 0;
}
