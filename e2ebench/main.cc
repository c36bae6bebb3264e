// End-to-end benchmark of GroupSA: data preparation, two-stage training,
// checkpoint publishing, the serving daemon under closed-loop traffic with
// hot reloads, and the ranking-quality protocol, driven through the
// library's public API only. See README.md for the workloads, the metrics
// and how the figures were measured.
//
// Usage: e2ebench --workload NAME --seed N --seconds S --trace 0|1
//                 --work DIR [--spans PATH] [--git-sha SHA]
//
// Every input (the synthetic world, the split, the 100-negative ranking
// cases and the request schedule) is generated from --seed. The last line
// of standard output is one JSON object with the keys correct, attempted,
// failed and metrics: the end-to-end metrics with --trace 0, the per-layer
// metrics with --trace 1. Exits 1 when a check fails, 2 on bad usage.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "autograd/pool.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/config.h"
#include "core/groupsa_model.h"
#include "core/inference_engine.h"
#include "core/item_index.h"
#include "core/quantized.h"
#include "core/topk.h"
#include "core/trainer.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "data/tfidf.h"
#include "eval/evaluator.h"
#include "eval/metrics.h"
#include "nn/checkpoint.h"
#include "serve/server.h"
#include "tensor/backend.h"
#include "trace.h"

using namespace groupsa;

namespace e2ebench {
namespace {

using Clock = std::chrono::steady_clock;
using Ranked = std::vector<std::pair<data::ItemId, double>>;

constexpr int kTopK = 10;
constexpr int kNegatives = 100;
// Independent 100-negative draws per held-out group edge: more ranking
// cases from the same held-out positives, so HR/NDCG move less with the
// negative sample.
constexpr int kCaseDraws = 4;
// Global pool width for training, index builds and the checks. The serving
// daemon's workers score on their own threads, serially per request.
constexpr int kPoolWidth = 2;
// Daemon workers on every workload.
constexpr int kWorkers = 2;
// Share of requests that exclude the entity's seen items.
constexpr double kExcludeFraction = 0.5;
// Answers per serving window (serve_qps is the median over windows), and
// the fewest a run serves.
constexpr int kMinRequests = 1000;
// Client pause between scans of the window in the untimed warm-up pass, so
// that the client's polling adds next to nothing to set-up CPU time.
constexpr int kWarmupPauseUs = 1000;
// Allowed |sum of stage medians / whole-call median - 1| for the traced
// engine decomposition on the serving workloads.
constexpr double kStageSumTolerance = 0.15;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// CPU time of every thread of the process. Unlike wall time it does not
// count the time a thread waits for a CPU or to be woken, which on a shared
// host moves with the other tenants' load, not with the program.
double ProcessCpuSeconds() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + 1e-9 * static_cast<double>(t.tv_nsec);
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// ---------------------------------------------------------------------------
// Workloads.

struct Spec {
  std::string name;
  // World from SyntheticWorldConfig::YelpLike(), seed included.
  bool yelp_preset = false;
  int items = 0, users = 0, groups = 0;
  int epochs = 1;            // per training stage
  bool ivf_int8 = false;     // TopKMode::kIvf + ScoreMode::kInt8 serving
  // Requests kept outstanding by the client. The default keeps one request
  // queued behind the busy workers, so no worker ever sleeps between two
  // requests: with one request outstanding, every request waited for a
  // sleeping worker's wake-up, and on a shared host those wake-ups decided
  // qps and p99 (spreads of 0.3-1.0 over ten runs).
  int window = kWorkers + 1;
  // Client pause between scans of the window; 0 spins.
  int poll_pause_us = 0;
  double group_fraction = 0.4;
  double members_fraction = 0.2;
  int pool = 256;            // distinct requests the traffic draws from
  int reloads = 2;           // serving workloads: reloads between segments
  int round_requests = 0;    // train-publish: requests per publish round
  int setup_reps = 1;        // daemon start + warm-up repetitions
};

std::vector<Spec> Workloads() {
  Spec exact;
  exact.name = "exact-queued";
  exact.items = 20000;
  exact.users = 2000;
  exact.groups = 2400;
  exact.window = 8;
  // Requests take ~40 ms: a 200 us pause times them to within 1 %.
  exact.poll_pause_us = 200;
  exact.reloads = 10;

  Spec ivf;
  ivf.name = "ivf-int8-occasional";
  ivf.items = 30000;
  ivf.users = 3000;
  ivf.groups = 3000;
  ivf.ivf_int8 = true;
  ivf.group_fraction = 0.3;
  ivf.members_fraction = 0.6;
  ivf.setup_reps = 3;

  Spec publish;
  publish.name = "train-publish";
  publish.yelp_preset = true;
  // Four times the preset's 850 groups: about 880 held-out group edges
  // instead of 220, so HR/NDCG move less from seed to seed.
  publish.groups = 3400;
  publish.epochs = 3;
  publish.pool = 128;
  publish.reloads = 0;
  publish.round_requests = 16;
  publish.setup_reps = 5;
  return {exact, ivf, publish};
}

// ---------------------------------------------------------------------------
// Report: metrics by name with units, per-phase accounting, check results.

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  struct Phase {
    std::string name;
    int64_t attempted = 0;
    int64_t failed = 0;
    std::string note;
  };
  std::deque<Phase> phases;  // deque: references stay valid on growth
  std::vector<std::string> check_failures;
  int checks_run = 0;

  Phase* AddPhase(const std::string& name, const std::string& note) {
    phases.push_back({name, 0, 0, note});
    return &phases.back();
  }
  Phase& phase(const std::string& name) {
    for (Phase& p : phases)
      if (p.name == name) return p;
    phases.push_back({name, 0, 0, ""});
    return phases.back();
  }
  void Check(bool ok, const std::string& what) {
    ++checks_run;
    if (!ok) {
      check_failures.push_back(what);
      std::printf("CHECK FAILED: %s\n", what.c_str());
    }
  }
};

// ---------------------------------------------------------------------------
// Inputs generated from the seed.

struct Inputs {
  data::SyntheticWorld world;
  data::Split ui;
  data::Split gi;
  std::vector<eval::RankingCase> group_cases;
  std::vector<serve::Request> pool;
  // Items a request may not return: seen-item count per pool entry when
  // exclusion is on (union over members for ad-hoc lists), else 0.
  std::vector<int> excluded_count;
  uint64_t model_seed = 0;
  uint64_t train_seed = 0;
  uint64_t order_seed = 0;
  uint64_t sample_seed = 0;
  int num_users() const { return world.dataset.num_users; }
  int num_items() const { return world.dataset.num_items; }
  int num_groups() const { return world.dataset.groups.num_groups(); }
};

// The model data derived from the training interactions, which the
// trainer, every model and the daemon's seen-item filter read.
struct Prepared {
  data::InteractionMatrix ui_train, gi_train;
  core::ModelData model_data;
};

Prepared Prepare(const Inputs& in, int top_h) {
  const data::Dataset& ds = in.world.dataset;
  Prepared p;
  p.ui_train = data::InteractionMatrix(ds.num_users, ds.num_items, in.ui.train);
  p.gi_train =
      data::InteractionMatrix(ds.groups.num_groups(), ds.num_items, in.gi.train);
  p.model_data.groups = &ds.groups;
  p.model_data.social = &ds.social;
  p.model_data.top_items = data::TopItemsPerUser(p.ui_train, top_h);
  p.model_data.top_friends = data::TopFriendsPerUser(ds.social, top_h);
  return p;
}

Inputs MakeInputs(const Spec& spec, uint64_t seed) {
  Rng master(seed * 0x9E3779B97F4A7C15ULL + 0x5EED);
  data::SyntheticWorldConfig wc = spec.yelp_preset
                                      ? data::SyntheticWorldConfig::YelpLike()
                                      : data::SyntheticWorldConfig();
  if (!spec.yelp_preset) {
    wc.num_items = spec.items;
    wc.num_users = spec.users;
  }
  wc.num_groups = spec.groups;
  wc.name = spec.name;
  // The preset stands for a fixed dataset, as the paper repeats runs over
  // one crawl: its world keeps the preset's own seed, and --seed varies
  // the split, the cases, initialization, training and the requests.
  const uint64_t world_seed = master.NextU64();
  if (!spec.yelp_preset) wc.seed = world_seed;
  Inputs in{data::GenerateWorld(wc), {}, {}, {}, {}, {}, 0, 0, 0, 0};
  Rng split_rng(master.NextU64());
  in.ui = data::SplitEdges(in.world.dataset.user_item, 0.2, 0.1, &split_rng);
  in.gi = data::GlobalSplitEdges(in.world.dataset.group_item, 0.2, 0.1,
                                 &split_rng);
  Rng case_rng(master.NextU64());
  const data::InteractionMatrix gi_all = in.world.dataset.GroupItemMatrix();
  for (int draw = 0; draw < kCaseDraws; ++draw) {
    for (eval::RankingCase& c :
         eval::BuildRankingCases(in.gi.test, gi_all, kNegatives, &case_rng))
      in.group_cases.push_back(std::move(c));
  }

  Rng req_rng(master.NextU64());
  const data::InteractionMatrix ui_train(in.num_users(), in.num_items(),
                                         in.ui.train);
  const data::InteractionMatrix gi_train(in.num_groups(), in.num_items(),
                                         in.gi.train);
  for (int i = 0; i < spec.pool; ++i) {
    serve::Request r;
    r.k = kTopK;
    const double u = req_rng.NextDouble();
    if (u < spec.members_fraction) {
      r.kind = serve::Request::Kind::kMembers;
      const int size = 2 + req_rng.NextInt(5);
      for (int m : req_rng.SampleWithoutReplacement(in.num_users(), size))
        r.members.push_back(m);
    } else if (u < spec.members_fraction + spec.group_fraction) {
      r.kind = serve::Request::Kind::kGroup;
      r.group = req_rng.NextInt(in.num_groups());
    } else {
      r.kind = serve::Request::Kind::kUser;
      r.user = req_rng.NextInt(in.num_users());
    }
    r.exclude_seen = req_rng.NextBernoulli(kExcludeFraction);
    int excluded = 0;
    if (r.exclude_seen) {
      if (r.kind == serve::Request::Kind::kGroup) {
        excluded = gi_train.RowDegree(r.group);
      } else {
        std::set<data::ItemId> seen;
        const std::vector<data::UserId> rows =
            r.kind == serve::Request::Kind::kUser
                ? std::vector<data::UserId>{r.user}
                : r.members;
        for (data::UserId m : rows)
          for (data::ItemId v : ui_train.Row(m)) seen.insert(v);
        excluded = static_cast<int>(seen.size());
      }
    }
    in.excluded_count.push_back(excluded);
    in.pool.push_back(std::move(r));
  }
  in.model_seed = master.NextU64();
  in.train_seed = master.NextU64();
  in.order_seed = master.NextU64();
  in.sample_seed = master.NextU64();
  return in;
}

const char* KindName(serve::Request::Kind kind) {
  switch (kind) {
    case serve::Request::Kind::kUser:
      return "user";
    case serve::Request::Kind::kGroup:
      return "group";
    case serve::Request::Kind::kMembers:
      return "members";
  }
  return "?";
}

// The library call a request maps to, on an engine in any mode.
Ranked Recommend(core::InferenceEngine& engine, const serve::Request& r,
                 const Prepared& p) {
  switch (r.kind) {
    case serve::Request::Kind::kUser:
      return engine.RecommendForUser(r.user, r.k,
                                     r.exclude_seen ? &p.ui_train : nullptr);
    case serve::Request::Kind::kGroup:
      return engine.RecommendForGroup(r.group, r.k,
                                      r.exclude_seen ? &p.gi_train : nullptr);
    case serve::Request::Kind::kMembers:
      return engine.RecommendForMembers(
          r.members, r.k, r.exclude_seen ? &p.ui_train : nullptr);
  }
  return {};
}

bool SameRanking(const Ranked& a, const Ranked& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].first != b[i].first ||
        std::memcmp(&a[i].second, &b[i].second, sizeof(double)) != 0)
      return false;
  }
  return true;
}

bool IsSeen(const serve::Request& r, const Prepared& p, data::ItemId item) {
  switch (r.kind) {
    case serve::Request::Kind::kUser:
      return p.ui_train.Has(r.user, item);
    case serve::Request::Kind::kGroup:
      return p.gi_train.Has(r.group, item);
    case serve::Request::Kind::kMembers:
      for (data::UserId m : r.members)
        if (p.ui_train.Has(m, item)) return true;
      return false;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Completion timing for the closed-loop client.

// The client thread polls its window's futures itself and timestamps each
// the moment it sees it ready; out-of-order completions are timed as they
// happen, and no thread is started. With a zero pause it never sleeps, so
// no wake-up of a client thread is timed: on a shared virtual machine such
// wake-ups put millisecond tails on sub-millisecond requests. Workloads of
// long requests, and the untimed warm-up pass, pause between scans instead
// of burning a vCPU next to the workers.
class CompletionWatch {
 public:
  struct Done {
    int slot = 0;
    Clock::time_point at;
    serve::Response response;
  };

  explicit CompletionWatch(int slots)
      : futures_(static_cast<size_t>(slots)) {}

  // Hands `future` to `slot`, which must be idle.
  void Arm(int slot, std::future<serve::Response> future) {
    futures_[static_cast<size_t>(slot)] = std::move(future);
  }

  // Polls until an armed slot completes, scanning from the slot after the
  // last one that completed and pausing `pause_us` between scans (0: yield).
  Done Next(int pause_us) {
    while (true) {
      for (size_t n = 0; n < futures_.size(); ++n) {
        next_ = (next_ + 1) % futures_.size();
        std::future<serve::Response>& f = futures_[next_];
        if (f.valid() && f.wait_for(std::chrono::seconds(0)) ==
                             std::future_status::ready) {
          Done d;
          d.at = Clock::now();
          d.slot = static_cast<int>(next_);
          d.response = f.get();
          return d;
        }
      }
      if (pause_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(pause_us));
      } else {
        std::this_thread::yield();
      }
    }
  }

 private:
  std::vector<std::future<serve::Response>> futures_;
  size_t next_ = 0;
};

// ---------------------------------------------------------------------------
// The benchmark run.

class Bench {
 public:
  Bench(const Spec& spec, uint64_t seed, double seconds, bool traced,
        std::string work_dir)
      : spec_(spec),
        seconds_(seconds),
        tracer_(traced),
        work_dir_(std::move(work_dir)),
        in_(MakeInputs(spec, seed)) {
    config_ = core::GroupSaConfig::Default();
    config_.user_epochs = spec.epochs;
    config_.group_epochs = spec.epochs;
  }

  int Run(const std::string& spans_path, const std::string& git_sha);

 private:
  struct Served {
    int pool_index = 0;
    int ckpt = 0;             // index into ckpts_ of the serving generation
    uint64_t generation = 0;  // generation published last before it
    bool warmup = false;
    double latency_ms = 0.0;
    // The daemon's answer, kept compact: the items are copied into a
    // k-sized vector (a Response's own vector may keep catalog-sized
    // capacity), and the outcome flags are folded into `clean`.
    Ranked items;
    uint64_t served_generation = 0;  // generation stamped on the answer
    bool clean = false;  // not degraded, shed, rejected or expired; no error
  };

  // Phase pieces.
  void PrepareData();
  void TrainStage1();
  void TrainStage2();
  core::Trainer::EpochStats TimedEpoch(const char* span, int kind);
  std::string Publish(const std::string& name, core::GroupSaModel* model);
  void WriteNanCheckpoint(const std::string& good);
  Status Factory(const std::string& path,
                 std::unique_ptr<core::GroupSaModel>* out);
  std::unique_ptr<core::GroupSaModel> LoadModel(const std::string& path,
                                                bool served_mode);
  serve::ServeConfig ServeConfigFor() const;
  std::unique_ptr<serve::Server> MakeServer(const std::string& path);
  void StartDaemon();
  void ReloadTo(int ckpt);
  void PublishRound(int ckpt);
  void Segment(bool warmup, const std::function<bool()>& more);
  void ServingTraffic();
  void PublishTraffic();

  // Checks and metrics.
  void CheckAnswers();
  void CheckPerItemReference();
  void Quality();
  void LayerPass();
  void EndToEndMetrics();
  void PerLayerMetrics();
  double EvalGroupHr(core::GroupSaModel* model, double* ndcg, bool recheck);

  const Spec spec_;
  const double seconds_;
  Tracer tracer_;
  const std::string work_dir_;
  Inputs in_;
  core::GroupSaConfig config_;
  Prepared prep_;
  Report report_;

  std::unique_ptr<core::GroupSaModel> model_;  // the trained model
  std::unique_ptr<Rng> train_rng_;
  std::unique_ptr<core::Trainer> trainer_;
  std::vector<std::string> ckpts_;
  std::string nan_ckpt_;
  std::vector<double> stage1_loss_, stage2_loss_;
  std::vector<double> group_loss_;  // group passes alone, for the report
  int64_t train_samples_ = 0, train_batches_ = 0, skipped_batches_ = 0;
  double train_seconds_ = 0.0, train_cpu_seconds_ = 0.0;
  std::vector<double> prepare_s_, prepare_cpu_s_;

  std::unique_ptr<serve::Server> server_;
  std::unique_ptr<CompletionWatch> watch_;
  int current_ckpt_ = 0;
  uint64_t current_generation_ = 0;
  double setup_s_ = 0.0;
  std::vector<double> reload_s_, reload_cpu_s_;
  double setup_wall_s_ = 0.0;
  int64_t good_reload_failures_ = 0;
  std::vector<Served> served_;
  std::vector<double> latencies_ms_;
  std::vector<double> completed_at_s_;  // on the traffic clock
  double traffic_s_ = 0.0;
  int64_t traffic_requests_ = 0;
  Rng order_rng_{1};
  int64_t ticket_ = 0;
  serve::ServerStats final_stats_;
  double peak_rss_mb_ = 0.0;

  double untrained_hr_ = 0.0;
  double group_hr_ = 0.0, group_ndcg_ = 0.0, recall_ = 0.0;
  int layer_ckpt_ = 0;
  std::map<int, double> oracle_ms_;  // pool index -> served-mode call time
};

// ---- Phase 1: model-data preparation -------------------------------------

void Bench::PrepareData() {
  Report::Phase* phase = report_.AddPhase("prepare", "model-data builds");
  for (int rep = 0; rep < 3; ++rep) {
    ScopedSpan span(&tracer_, "data.prepare");
    const Clock::time_point t0 = Clock::now();
    const double cpu0 = ProcessCpuSeconds();
    prep_ = Prepare(in_, config_.top_h);
    prepare_cpu_s_.push_back(ProcessCpuSeconds() - cpu0);
    prepare_s_.push_back(Seconds(t0, Clock::now()));
    ++phase->attempted;
  }
}

// ---- Phase 2: training and checkpoint publishing -------------------------

core::Trainer::EpochStats Bench::TimedEpoch(const char* span_name,
                                            int kind) {
  ScopedSpan span(&tracer_, span_name);
  const Clock::time_point t0 = Clock::now();
  const double cpu0 = ProcessCpuSeconds();
  core::Trainer::EpochStats stats;
  int64_t samples = 0;
  if (kind == 0) {
    stats = trainer_->RunSocialEpoch();
    for (data::UserId u = 0; u < in_.num_users(); ++u)
      for (data::UserId v : in_.world.dataset.social.Neighbors(u))
        if (u < v) ++samples;
  } else if (kind == 1) {
    stats = trainer_->RunUserEpoch();
    samples = static_cast<int64_t>(in_.ui.train.size());
  } else {
    stats = trainer_->RunGroupEpoch();
    samples = static_cast<int64_t>(in_.gi.train.size());
  }
  train_cpu_seconds_ += ProcessCpuSeconds() - cpu0;
  train_seconds_ += Seconds(t0, Clock::now());
  train_samples_ += samples;
  train_batches_ += (samples + config_.batch_size - 1) / config_.batch_size;
  skipped_batches_ += stats.skipped_batches;
  return stats;
}

// A stage's loss for one epoch: the mean loss over every loss term of that
// epoch's passes (stage 1: social + user; stage 2: interleaved user +
// group), i.e. the objective the stage optimizes.
double StageLoss(const std::vector<core::Trainer::EpochStats>& passes) {
  double sum = 0.0;
  double terms = 0.0;
  for (const core::Trainer::EpochStats& p : passes) {
    sum += p.avg_loss * p.num_samples;
    terms += p.num_samples;
  }
  return terms > 0 ? sum / terms : 0.0;
}

std::string Bench::Publish(const std::string& name,
                           core::GroupSaModel* model) {
  const std::string path = work_dir_ + "/" + name + ".ckpt";
  const Status s = nn::SaveParameters(model->Parameters(), path);
  report_.Check(s.ok(), "save checkpoint " + path + ": " + s.message());
  return path;
}

void Bench::TrainStage1() {
  Rng init(in_.model_seed);
  model_ = std::make_unique<core::GroupSaModel>(
      config_, in_.num_users(), in_.num_items(), prep_.model_data, &init);
  if (spec_.round_requests > 0) {
    double ndcg = 0.0;
    untrained_hr_ = EvalGroupHr(model_.get(), &ndcg, false);
  }
  train_rng_ = std::make_unique<Rng>(in_.train_seed);
  trainer_ = std::make_unique<core::Trainer>(
      model_.get(), in_.ui.train, in_.gi.train, &prep_.ui_train,
      &prep_.gi_train, train_rng_.get());
  for (int e = 0; e < spec_.epochs; ++e) {
    std::vector<core::Trainer::EpochStats> passes;
    if (config_.use_social_objective)
      passes.push_back(TimedEpoch("trainer.social_epoch", 0));
    passes.push_back(TimedEpoch("trainer.user_epoch", 1));
    stage1_loss_.push_back(StageLoss(passes));
  }
  ckpts_.push_back(Publish("stage1", model_.get()));
}

void Bench::TrainStage2() {
  for (int e = 0; e < spec_.epochs; ++e) {
    const core::Trainer::EpochStats user = TimedEpoch("trainer.user_epoch", 1);
    const core::Trainer::EpochStats group =
        TimedEpoch("trainer.group_epoch", 2);
    group_loss_.push_back(group.avg_loss);
    stage2_loss_.push_back(StageLoss({user, group}));
    if (spec_.round_requests > 0) {
      ckpts_.push_back(
          Publish("stage2-epoch" + std::to_string(e + 1), model_.get()));
      PublishRound(static_cast<int>(ckpts_.size()) - 1);
    }
  }
  if (spec_.round_requests == 0) ckpts_.push_back(Publish("stage2", model_.get()));
}

// A CRC-valid copy of a published checkpoint with one NaN element, at a
// fixed position (the first element of the first parameter).
void Bench::WriteNanCheckpoint(const std::string& good) {
  std::unique_ptr<core::GroupSaModel> m = LoadModel(good, false);
  std::vector<nn::ParamEntry> params = m->Parameters();
  params.front().tensor->mutable_value().data()[0] =
      std::numeric_limits<float>::quiet_NaN();
  nan_ckpt_ = work_dir_ + "/nan.ckpt";
  const Status s = nn::SaveParameters(params, nan_ckpt_);
  report_.Check(s.ok(), "save NaN checkpoint: " + s.message());
}

// ---- Models loaded from checkpoints ---------------------------------------

Status Bench::Factory(const std::string& path,
                      std::unique_ptr<core::GroupSaModel>* out) {
  Rng init(1);
  auto model = std::make_unique<core::GroupSaModel>(
      config_, in_.num_users(), in_.num_items(), prep_.model_data, &init);
  Status s;
  {
    ScopedSpan span(&tracer_, "checkpoint.load");
    s = nn::LoadParameters(model->Parameters(), path);
  }
  if (!s.ok()) return s;
  *out = std::move(model);
  return Status::Ok();
}

std::unique_ptr<core::GroupSaModel> Bench::LoadModel(const std::string& path,
                                                     bool served_mode) {
  std::unique_ptr<core::GroupSaModel> model;
  const Status s = Factory(path, &model);
  if (!s.ok()) {
    std::fprintf(stderr, "cannot load %s: %s\n", path.c_str(),
                 s.message().c_str());
    std::exit(1);
  }
  if (served_mode && spec_.ivf_int8) {
    const serve::ServeConfig sc = ServeConfigFor();
    core::InferenceEngine& e = model->inference();
    e.set_index_config(sc.index);
    e.set_topk_mode(sc.topk);
    e.set_int8_config(sc.int8);
    e.set_score_mode(sc.score);
  }
  return model;
}

// ---- Phase 3: the daemon ---------------------------------------------------

serve::ServeConfig Bench::ServeConfigFor() const {
  serve::ServeConfig sc;
  sc.workers = kWorkers;
  sc.queue_depth = 64;
  if (spec_.ivf_int8) {
    sc.topk = core::TopKMode::kIvf;
    sc.score = core::ScoreMode::kInt8;
  }
  return sc;
}

std::unique_ptr<serve::Server> Bench::MakeServer(const std::string& path) {
  return std::make_unique<serve::Server>(
      ServeConfigFor(),
      [this](const std::string& p, std::unique_ptr<core::GroupSaModel>* out) {
        return Factory(p, out);
      },
      path, in_.ui.train, in_.num_users(), in_.num_groups(), in_.num_items(),
      &prep_.ui_train, &prep_.gi_train);
}

// Runs one closed-loop segment: the client keeps spec_.window requests
// outstanding, drawing the next pool index while more() holds, then drains.
void Bench::Segment(bool warmup, const std::function<bool()>& more) {
  struct InFlight {
    bool busy = false;
    Clock::time_point submitted;
    int pool_index = 0;
    int64_t ticket = 0;
  };
  std::vector<InFlight> slots(static_cast<size_t>(spec_.window));
  int busy = 0;
  int warm_next = 0;
  auto next_index = [&]() -> int {
    if (warmup)
      return warm_next < static_cast<int>(in_.pool.size()) ? warm_next++ : -1;
    return more() ? order_rng_.NextInt(static_cast<int>(in_.pool.size()))
                  : -1;
  };
  bool open = true;
  const Clock::time_point t0 = Clock::now();
  int64_t answered = 0;
  while (true) {
    for (size_t i = 0; open && i < slots.size(); ++i) {
      if (slots[i].busy) continue;
      const int idx = next_index();
      if (idx < 0) {
        open = false;
        break;
      }
      InFlight& f = slots[i];
      f.busy = true;
      f.pool_index = idx;
      f.ticket = ticket_++;
      f.submitted = Clock::now();
      watch_->Arm(static_cast<int>(i),
                  server_->Submit(in_.pool[static_cast<size_t>(idx)]));
      ++busy;
    }
    if (busy == 0) break;
    CompletionWatch::Done done =
        watch_->Next(warmup ? kWarmupPauseUs : spec_.poll_pause_us);
    InFlight& f = slots[static_cast<size_t>(done.slot)];
    f.busy = false;
    --busy;
    Served s;
    s.pool_index = f.pool_index;
    s.ckpt = current_ckpt_;
    s.generation = current_generation_;
    s.warmup = warmup;
    s.latency_ms =
        std::chrono::duration<double, std::milli>(done.at - f.submitted)
            .count();
    const serve::Response& resp = done.response;
    s.items.assign(resp.items.begin(), resp.items.end());
    s.served_generation = resp.generation;
    s.clean = !resp.degraded && !resp.shed && !resp.rejected &&
              !resp.expired && resp.error.empty();
    tracer_.Record("serve.request", f.ticket, f.submitted, done.at);
    if (!warmup) {
      latencies_ms_.push_back(s.latency_ms);
      completed_at_s_.push_back(traffic_s_ + Seconds(t0, done.at));
    }
    served_.push_back(std::move(s));
    ++answered;
  }
  if (!warmup) {
    traffic_s_ += Seconds(t0, Clock::now());
    traffic_requests_ += answered;
    report_.phase("requests").attempted += answered;
  }
}

// Set-up and reload figures are process CPU time: both are dominated by
// pool-parallel builds (k-means, int8 tables) whose wall time, waiting on a
// barrier per step, rose 40-75 % under host contention that raised their CPU
// time by a few percent. The wall times are printed too.
void Bench::StartDaemon() {
  std::vector<double> setups, setups_wall;
  for (int rep = 0; rep < spec_.setup_reps; ++rep) {
    if (server_ != nullptr) server_->Stop();
    served_.clear();
    server_ = MakeServer(ckpts_[0]);
    current_ckpt_ = 0;
    const Clock::time_point t0 = Clock::now();
    const double cpu0 = ProcessCpuSeconds();
    Status s;
    {
      ScopedSpan span(&tracer_, "serve.start");
      s = server_->Start();
    }
    if (!s.ok()) {
      report_.Check(false, "Server::Start: " + s.message());
      std::exit(1);
    }
    current_generation_ = server_->generation();
    {
      ScopedSpan span(&tracer_, "serve.warmup");
      Segment(/*warmup=*/true, nullptr);
    }
    setups.push_back(ProcessCpuSeconds() - cpu0);
    setups_wall.push_back(Seconds(t0, Clock::now()));
  }
  setup_s_ = Median(prepare_cpu_s_) + Median(setups);
  setup_wall_s_ = Median(prepare_s_) + Median(setups_wall);
}

// Hot-reloads ckpts_[ckpt], or the NaN checkpoint when ckpt < 0.
void Bench::ReloadTo(int ckpt) {
  const std::string& path = ckpt < 0 ? nan_ckpt_ : ckpts_[ckpt];
  const Clock::time_point t0 = Clock::now();
  const double cpu0 = ProcessCpuSeconds();
  Status s;
  {
    ScopedSpan span(&tracer_, ckpt < 0 ? "serve.reload_nan" : "serve.reload");
    s = server_->Reload(path);
  }
  const double dt = Seconds(t0, Clock::now());
  const double cpu = ProcessCpuSeconds() - cpu0;
  current_generation_ = server_->generation();
  bool failed;
  if (ckpt < 0) {
    // Accepting a non-finite checkpoint is the failure; rejecting it is
    // the correct outcome.
    failed = s.ok();
  } else {
    failed = !s.ok();
    if (failed) ++good_reload_failures_;
    if (s.ok()) {
      current_ckpt_ = ckpt;
      reload_s_.push_back(dt);
      reload_cpu_s_.push_back(cpu);
    }
  }
  Report::Phase& phase = report_.phase("reloads");
  ++phase.attempted;
  if (failed) ++phase.failed;
}

// train-publish: publish the NaN checkpoint, re-publish the good one, then
// serve a short segment on the fresh (cold) generation.
void Bench::PublishRound(int ckpt) {
  if (server_ == nullptr) return;
  if (nan_ckpt_.empty()) WriteNanCheckpoint(ckpts_[static_cast<size_t>(ckpt)]);
  ReloadTo(-1);
  ReloadTo(ckpt);
  int left = spec_.round_requests;
  Segment(false, [&left] { return left-- > 0; });
}

// Phase 4 of the serving workloads: reloads+1 time segments, the reloads
// alternating between the stage-2 and the stage-1 checkpoints.
void Bench::ServingTraffic() {
  const int segments = spec_.reloads + 1;
  const double seg_s = seconds_ / segments;
  const int64_t seg_min = (kMinRequests + segments - 1) / segments;
  for (int seg = 0; seg < segments; ++seg) {
    if (seg > 0) ReloadTo(seg % 2 == 1 ? 1 : 0);
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seg_s));
    int64_t sent = 0;
    Segment(false, [&] {
      return sent++ < seg_min || Clock::now() < deadline;
    });
  }
}

// Phase 4 of train-publish: whole publish rounds of the final checkpoint
// until the run length is spent and enough latency samples exist.
void Bench::PublishTraffic() {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds_));
  const int final_ckpt = static_cast<int>(ckpts_.size()) - 1;
  while (Clock::now() < deadline ||
         traffic_requests_ < kMinRequests) {
    PublishRound(final_ckpt);
  }
}

// ---- Phase 5: checks -------------------------------------------------------

void Bench::CheckAnswers() {
  const int P = static_cast<int>(in_.pool.size());
  const int C = static_cast<int>(ckpts_.size());
  std::vector<std::vector<char>> needed(
      static_cast<size_t>(C), std::vector<char>(static_cast<size_t>(P), 0));
  for (const Served& s : served_) needed[s.ckpt][s.pool_index] = 1;

  // Served-mode oracle answers and exact answers (the recall reference),
  // per checkpoint and distinct request.
  std::vector<std::vector<Ranked>> want(
      static_cast<size_t>(C), std::vector<Ranked>(static_cast<size_t>(P)));
  std::vector<std::vector<Ranked>> exact = want;
  for (int c = 0; c < C; ++c) {
    bool any = false;
    for (char n : needed[c]) any = any || n;
    if (!any) continue;
    std::unique_ptr<core::GroupSaModel> oracle = LoadModel(ckpts_[c], true);
    std::unique_ptr<core::GroupSaModel> exact_model =
        spec_.ivf_int8 ? LoadModel(ckpts_[c], false) : nullptr;
    if (spec_.ivf_int8) {
      oracle->inference().GetOrBuildIndex();
      oracle->inference().GetQuantState();
    }
    parallel::ParallelFor(0, P, 1, [&](int64_t b, int64_t e) {
      for (int64_t i = b; i < e; ++i) {
        if (!needed[c][i]) continue;
        const serve::Request& r = in_.pool[static_cast<size_t>(i)];
        want[c][i] = Recommend(oracle->inference(), r, prep_);
        exact[c][i] = exact_model != nullptr
                          ? Recommend(exact_model->inference(), r, prep_)
                          : want[c][i];
      }
    });
  }

  Report::Phase& requests = report_.phase("requests");
  std::vector<double> recalls;
  int64_t warm_failed = 0;
  for (const Served& s : served_) {
    const serve::Request& r = in_.pool[static_cast<size_t>(s.pool_index)];
    const Ranked& items = s.items;
    bool ok = s.clean && s.served_generation == s.generation;
    const int eligible =
        in_.num_items() - in_.excluded_count[static_cast<size_t>(s.pool_index)];
    ok = ok && static_cast<int>(items.size()) == std::min(r.k, eligible);
    std::set<data::ItemId> ids;
    for (size_t i = 0; ok && i < items.size(); ++i) {
      ok = items[i].first >= 0 && items[i].first < in_.num_items() &&
           ids.insert(items[i].first).second &&
           (i == 0 || !(items[i].second > items[i - 1].second)) &&
           !(r.exclude_seen && IsSeen(r, prep_, items[i].first));
    }
    ok = ok && SameRanking(items, want[s.ckpt][s.pool_index]);
    if (!ok) {
      if (s.warmup) {
        ++warm_failed;
      } else {
        ++requests.failed;
      }
      continue;
    }
    if (s.warmup) continue;
    const Ranked& ref = exact[s.ckpt][s.pool_index];
    int overlap = 0;
    for (const auto& entry : ref)
      if (ids.count(entry.first) > 0) ++overlap;
    recalls.push_back(ref.empty() ? 1.0
                                  : static_cast<double>(overlap) /
                                        static_cast<double>(ref.size()));
  }
  report_.phase("warmup").attempted = static_cast<int64_t>(in_.pool.size());
  report_.phase("warmup").failed = warm_failed;
  report_.Check(warm_failed == 0,
                "every warm-up answer matches the oracle and its properties");
  report_.Check(requests.failed == 0,
                "every traffic answer matches the oracle and its properties");
  report_.Check(good_reload_failures_ == 0,
                "every reload of a good checkpoint succeeds");
  recall_ = Mean(recalls);

  const serve::ServerStats& st = final_stats_;
  report_.Check(st.submitted == st.admitted + st.shed + st.rejected +
                                    st.expired,
                "submitted == admitted + shed + rejected + expired");
  report_.Check(st.admitted == st.completed, "admitted == completed");
}

// Exact mode: a seeded sample of served top-10 lists equals the ranking the
// benchmark builds from the per-item reference scorers.
void Bench::CheckPerItemReference() {
  if (spec_.ivf_int8) return;
  Rng rng(in_.sample_seed);
  // One served answer per request kind, from the first generation.
  std::map<serve::Request::Kind, std::vector<const Served*>> by_kind;
  for (const Served& s : served_)
    by_kind[in_.pool[static_cast<size_t>(s.pool_index)].kind].push_back(&s);
  std::map<int, std::unique_ptr<core::GroupSaModel>> models;
  const std::vector<data::ItemId> all = core::AllItems(in_.num_items());
  for (auto& [kind, list] : by_kind) {
    const Served& s = *list[static_cast<size_t>(
        rng.NextInt(static_cast<int>(list.size())))];
    auto& model = models[s.ckpt];
    if (model == nullptr) model = LoadModel(ckpts_[s.ckpt], false);
    const serve::Request& r = in_.pool[static_cast<size_t>(s.pool_index)];
    std::vector<double> scores;
    if (kind == serve::Request::Kind::kUser) {
      scores = model->ScoreItemsForUserPerItem(r.user, all);
    } else if (kind == serve::Request::Kind::kGroup) {
      scores = model->ScoreItemsForGroupPerItem(r.group, all);
    } else {
      scores = model->ScoreItemsForMembersPerItem(r.members, all);
    }
    Ranked ranking;
    for (data::ItemId v : all) {
      if (r.exclude_seen && IsSeen(r, prep_, v)) continue;
      ranking.emplace_back(v, scores[static_cast<size_t>(v)]);
    }
    std::sort(ranking.begin(), ranking.end(),
              [](const auto& a, const auto& b) {
                return a.second != b.second ? a.second > b.second
                                            : a.first < b.first;
              });
    if (static_cast<int>(ranking.size()) > r.k) ranking.resize(r.k);
    report_.Check(SameRanking(ranking, s.items),
                  std::string("served ") + KindName(kind) +
                      " top-10 equals the per-item reference ranking");
  }
}

// HR@10 / NDCG@10 of `model` on the held-out group cases through eval, and
// (recheck) recomputed from the benchmark's own ranking of each case.
double Bench::EvalGroupHr(core::GroupSaModel* model, double* ndcg,
                          bool recheck) {
  core::InferenceEngine& engine = model->inference();
  const eval::Scorer scorer = [&engine](int32_t g,
                                        const std::vector<data::ItemId>& v) {
    return engine.ScoreItemsForGroup(g, v);
  };
  const eval::EvalResult res =
      eval::EvaluateRanking(in_.group_cases, scorer, {kTopK});
  *ndcg = res.Ndcg(kTopK);
  if (!recheck) return res.HitRatio(kTopK);
  double hr_own = 0.0, ndcg_own = 0.0;
  for (const eval::RankingCase& c : in_.group_cases) {
    std::vector<data::ItemId> items{c.positive};
    items.insert(items.end(), c.candidates.begin(), c.candidates.end());
    const std::vector<double> s = engine.ScoreItemsForGroup(c.entity, items);
    // Sort the case; a candidate tied with the positive ranks above it.
    std::vector<size_t> order(items.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      if (s[a] != s[b]) return s[a] > s[b];
      if ((a == 0) != (b == 0)) return b == 0;
      return a < b;
    });
    const size_t rank = static_cast<size_t>(
        std::find(order.begin(), order.end(), size_t{0}) - order.begin());
    if (rank < kTopK) {
      hr_own += 1.0;
      ndcg_own += 1.0 / std::log2(static_cast<double>(rank) + 2.0);
    }
  }
  const double n = static_cast<double>(std::max<size_t>(1, in_.group_cases.size()));
  hr_own /= n;
  ndcg_own /= n;
  const double hr = res.HitRatio(kTopK);
  report_.Check(!in_.group_cases.empty(), "held-out group cases exist");
  report_.Check(std::fabs(hr - hr_own) < 1e-9 &&
                    std::fabs(*ndcg - ndcg_own) < 1e-9,
                "HR@10/NDCG@10 recomputed from the benchmark's own ranking "
                "agree with eval");
  report_.Check(0.0 <= *ndcg && *ndcg <= hr && hr <= 1.0,
                "0 <= NDCG@10 <= HR@10 <= 1");
  return hr;
}

void Bench::Quality() {
  std::unique_ptr<core::GroupSaModel> final_model =
      LoadModel(ckpts_.back(), false);
  group_hr_ = EvalGroupHr(final_model.get(), &group_ndcg_, true);
  if (spec_.round_requests > 0) {
    report_.Check(group_hr_ > untrained_hr_,
                  "trained group HR@10 beats the untrained model's");
    report_.Check(group_hr_ > 10.0 / 101.0,
                  "trained group HR@10 beats random ranking (10/101)");
    report_.Check(stage1_loss_.front() > stage1_loss_.back(),
                  "stage-1 loss falls from its first epoch to its last");
    report_.Check(stage2_loss_.front() > stage2_loss_.back(),
                  "stage-2 loss falls from its first epoch to its last");
  }
}

// ---- Traced run: the per-layer pass ---------------------------------------

// Times the engine stages one request at a time on fresh engines loaded
// from the checkpoint that served most traffic, at pool width 1 so that a
// stage runs serially, as it does inside a daemon worker.
void Bench::LayerPass() {
  std::map<int, int64_t> per_ckpt;
  for (const Served& s : served_)
    if (!s.warmup) ++per_ckpt[s.ckpt];
  for (const auto& [c, n] : per_ckpt)
    if (n > per_ckpt[layer_ckpt_]) layer_ckpt_ = c;
  const std::string& path = ckpts_[static_cast<size_t>(layer_ckpt_)];
  const int P = std::min<int>(96, static_cast<int>(in_.pool.size()));
  const std::vector<data::ItemId> all = core::AllItems(in_.num_items());
  const std::vector<data::ItemId> one{0};

  // Cold engine: the first request (exact mode) of each request kind.
  for (serve::Request::Kind kind :
       {serve::Request::Kind::kUser, serve::Request::Kind::kGroup,
        serve::Request::Kind::kMembers}) {
    auto it = std::find_if(in_.pool.begin(), in_.pool.end(),
                           [kind](const serve::Request& r) {
                             return r.kind == kind;
                           });
    if (it == in_.pool.end()) continue;
    std::unique_ptr<core::GroupSaModel> fresh = LoadModel(path, false);
    parallel::SetGlobalThreads(1);
    {
      ScopedSpan span(&tracer_, "engine.first_request");
      Recommend(fresh->inference(), *it, prep_);
    }
    parallel::SetGlobalThreads(kPoolWidth);
  }

  // Exact engine: rep builds, full-catalog scan, select, whole call.
  std::unique_ptr<core::GroupSaModel> exact = LoadModel(path, false);
  core::InferenceEngine& ex = exact->inference();
  parallel::SetGlobalThreads(1);
  ex.ScoreItemsForMembers({0}, one);  // split weights warm
  std::set<int> seen_users, seen_groups;
  for (int i = 0; i < P; ++i) {
    const serve::Request& r = in_.pool[static_cast<size_t>(i)];
    if ((r.kind == serve::Request::Kind::kUser &&
         !seen_users.insert(r.user).second) ||
        (r.kind == serve::Request::Kind::kGroup &&
         !seen_groups.insert(r.group).second))
      continue;  // cached already: not a build
    ScopedSpan span(&tracer_, "engine.rep_build");
    if (r.kind == serve::Request::Kind::kUser) {
      ex.ScoreItemsForUser(r.user, one);
    } else if (r.kind == serve::Request::Kind::kGroup) {
      ex.ScoreItemsForGroup(r.group, one);
    } else {
      ex.ScoreItemsForMembers(r.members, one);
    }
  }
  for (int i = 0; i < P; ++i) {
    const serve::Request& r = in_.pool[static_cast<size_t>(i)];
    const std::string kind = KindName(r.kind);
    std::vector<double> scores;
    {
      ScopedSpan span(&tracer_, "engine.exact_scan." + kind);
      if (r.kind == serve::Request::Kind::kUser) {
        scores = ex.ScoreItemsForUser(r.user, all);
      } else if (r.kind == serve::Request::Kind::kGroup) {
        scores = ex.ScoreItemsForGroup(r.group, all);
      } else {
        scores = ex.ScoreItemsForMembers(r.members, all);
      }
    }
    Ranked selected;
    {
      ScopedSpan span(&tracer_, "topk.select." + kind);
      selected = core::TopKItems(scores, r.k, [&](data::ItemId v) {
        return r.exclude_seen && IsSeen(r, prep_, v);
      });
    }
    const Clock::time_point t0 = Clock::now();
    Ranked whole;
    {
      ScopedSpan span(&tracer_, "engine.recommend_exact." + kind);
      whole = Recommend(ex, r, prep_);
    }
    if (!spec_.ivf_int8)
      oracle_ms_[i] =
          std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    report_.Check(SameRanking(selected, whole),
                  "exact scan + select reproduces RecommendFor*");
  }
  parallel::SetGlobalThreads(kPoolWidth);

  // IVF + int8 engine: cold builds, then the user-request decomposition
  // (the only request kind whose int8 scan is public).
  std::unique_ptr<core::GroupSaModel> approx = LoadModel(path, false);
  core::InferenceEngine& ap = approx->inference();
  const serve::ServeConfig sc = ServeConfigFor();
  ap.set_index_config(sc.index);
  ap.set_topk_mode(core::TopKMode::kIvf);
  ap.set_int8_config(sc.int8);
  ap.set_score_mode(core::ScoreMode::kInt8);
  std::shared_ptr<const core::ItemIndex> index;
  {
    ScopedSpan span(&tracer_, "item_index.build");
    index = ap.GetOrBuildIndex();
  }
  {
    ScopedSpan span(&tracer_, "quantized.build");
    ap.GetQuantState();
  }
  parallel::SetGlobalThreads(1);
  std::vector<double> candidates, rows;
  for (int i = 0; i < P; ++i) {
    const serve::Request& r = in_.pool[static_cast<size_t>(i)];
    const std::string kind = KindName(r.kind);
    Recommend(ap, r, prep_);  // fills the quantized rep caches
    const Clock::time_point t0 = Clock::now();
    Ranked whole;
    {
      ScopedSpan span(&tracer_, "engine.recommend_ivf." + kind);
      whole = Recommend(ap, r, prep_);
    }
    if (spec_.ivf_int8)
      oracle_ms_[i] =
          std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    std::vector<double> coarse;
    {
      ScopedSpan span(&tracer_, "engine.centroid." + kind);
      if (r.kind == serve::Request::Kind::kUser) {
        coarse = ap.QuantScoreCentroidsForUser(r.user);
      } else if (r.kind == serve::Request::Kind::kGroup) {
        coarse = ap.ScoreCentroidsForGroup(r.group);
      } else {
        coarse = ap.ScoreCentroidsForMembers(r.members);
      }
    }
    std::vector<data::ItemId> cands;
    {
      ScopedSpan span(&tracer_, "item_index.probe." + kind);
      cands = index->Candidates(index->SelectProbes(coarse, 0));
    }
    candidates.push_back(static_cast<double>(cands.size()));
    if (r.kind != serve::Request::Kind::kUser) continue;
    std::vector<double> approx_scores;
    {
      ScopedSpan span(&tracer_, "engine.int8_scan");
      approx_scores = ap.ApproxScoreItemsForUser(r.user, cands);
    }
    Ranked shortlist;
    {
      ScopedSpan span(&tracer_, "topk.select_shortlist");
      shortlist = core::TopKItems(
          cands, approx_scores, std::max(r.k, sc.int8.rerank_k),
          [&](data::ItemId v) { return r.exclude_seen && IsSeen(r, prep_, v); });
    }
    std::vector<data::ItemId> ids;
    for (const auto& entry : shortlist) ids.push_back(entry.first);
    std::vector<double> exact_scores;
    {
      ScopedSpan span(&tracer_, "engine.rerank");
      exact_scores = ap.QuantScoreItemsForUser(r.user, ids);
    }
    Ranked final_list;
    {
      ScopedSpan span(&tracer_, "topk.select_final");
      final_list = core::TopKItems(ids, exact_scores, r.k, nullptr);
    }
    rows.push_back(static_cast<double>(coarse.size() + ids.size()));
    report_.Check(SameRanking(final_list, whole),
                  "IVF probe + int8 scan + re-rank reproduces RecommendForUser");
  }
  parallel::SetGlobalThreads(kPoolWidth);
  report_.per_layer.push_back(
      {"item_index.candidates_per_query", "count", Mean(candidates)});
  report_.per_layer.push_back(
      {"engine.rows_scored_per_query", "count",
       spec_.ivf_int8 ? Mean(rows) : static_cast<double>(in_.num_items())});
}

// ---- Metrics ---------------------------------------------------------------

// serve_qps is the median over equal windows of the traffic clock (reload
// pauses excluded) of about kMinRequests answers each, so a burst of
// contention from outside the process moves one window, not the figure.
// Latency is read per distinct request: each pool entry, sent many times in
// a run, gets the median of its answers' latencies, and p50/p99 are taken
// over those per-request medians. A request slowed now and then by the host
// (a preempted worker, a descheduled vCPU) then moves nothing, while a
// slower path in the program slows every answer of its requests and shows.
// Per-window figures over the raw answers are printed for reference.
void Bench::EndToEndMetrics() {
  const int windows = std::max<int>(
      1, static_cast<int>(latencies_ms_.size()) / kMinRequests);
  const double len = traffic_s_ / windows;
  std::vector<std::vector<double>> by_window(static_cast<size_t>(windows));
  for (size_t i = 0; i < latencies_ms_.size(); ++i) {
    const int w = std::min(windows - 1,
                           static_cast<int>(completed_at_s_[i] / len));
    by_window[static_cast<size_t>(w)].push_back(latencies_ms_[i]);
  }
  std::vector<double> qps;
  for (int w = 0; w < windows; ++w) {
    const std::vector<double>& v = by_window[static_cast<size_t>(w)];
    qps.push_back(static_cast<double>(v.size()) / len);
    std::printf("window %2d: %6zu answers %10.2f qps  p50 %9.4f ms  "
                "p99 %9.4f ms\n",
                w, v.size(), qps.back(), Quantile(v, 0.50), Quantile(v, 0.99));
  }
  std::map<int, std::vector<double>> by_request;
  for (const Served& s : served_)
    if (!s.warmup) by_request[s.pool_index].push_back(s.latency_ms);
  std::vector<double> per_request;
  size_t fewest = latencies_ms_.size(), most = 0;
  for (const auto& [index, v] : by_request) {
    per_request.push_back(Median(v));
    fewest = std::min(fewest, v.size());
    most = std::max(most, v.size());
  }
  std::printf("latency: %zu distinct requests, %zu to %zu answers each; raw "
              "answers p50 %.4f ms p99 %.4f ms\n",
              per_request.size(), fewest, most, Quantile(latencies_ms_, 0.50),
              Quantile(latencies_ms_, 0.99));
  std::printf("training: %lld samples, %.3f s wall, %.3f s cpu\n",
              static_cast<long long>(train_samples_), train_seconds_,
              train_cpu_seconds_);
  std::printf("set-up: %.4f s wall, %.4f s cpu; reload median: %.4f s wall, "
              "%.4f s cpu\n",
              setup_wall_s_, setup_s_, Median(reload_s_),
              Median(reload_cpu_s_));
  report_.end_to_end = {
      {"setup_s", "s", setup_s_},
      {"train_samples_per_cpu_s", "1/s",
       static_cast<double>(train_samples_) /
           std::max(1e-9, train_cpu_seconds_)},
      {"serve_qps", "1/s", Median(qps)},
      {"p50_ms", "ms", Median(per_request)},
      {"p99_ms", "ms", Quantile(per_request, 0.99)},
      {"reload_cpu_s", "s", Median(reload_cpu_s_)},
      {"recall_at_10", "ratio", recall_},
      {"group_hr_at_10", "ratio", group_hr_},
      {"group_ndcg_at_10", "ratio", group_ndcg_},
      {"peak_rss_mb", "MB", peak_rss_mb_},
  };
}

void Bench::PerLayerMetrics() {
  auto median_of = [&](const std::vector<std::string>& names, double scale) {
    std::vector<double> v;
    for (const std::string& n : names)
      for (double d : tracer_.DurationsMs(n)) v.push_back(d * scale);
    return Median(v);
  };
  const std::vector<std::string> kinds{"user", "group", "members"};
  auto each_kind = [&](const std::string& prefix) {
    std::vector<std::string> out;
    for (const std::string& k : kinds) out.push_back(prefix + k);
    return out;
  };
  const std::string served =
      spec_.ivf_int8 ? "engine.recommend_ivf." : "engine.recommend_exact.";
  const ag::TensorPool::Stats pool = trainer_->PoolStats();
  const double reused =
      static_cast<double>(pool.tensors_reused + pool.workspaces_reused);
  const double created =
      static_cast<double>(pool.tensors_created + pool.workspaces_created);

  std::vector<double> waits;
  for (const Served& s : served_) {
    if (s.warmup || s.ckpt != layer_ckpt_) continue;
    auto it = oracle_ms_.find(s.pool_index);
    if (it != oracle_ms_.end()) waits.push_back(s.latency_ms - it->second);
  }

  std::vector<Metric> m = {
      {"data.prepare_s", "s", median_of({"data.prepare"}, 1e-3)},
      {"checkpoint.load_s", "s", median_of({"checkpoint.load"}, 1e-3)},
      {"trainer.user_epoch_s", "s", median_of({"trainer.user_epoch"}, 1e-3)},
      {"trainer.group_epoch_s", "s",
       median_of({"trainer.group_epoch"}, 1e-3)},
      {"trainer.social_epoch_s", "s",
       median_of({"trainer.social_epoch"}, 1e-3)},
      {"trainer.skipped_batches", "count",
       static_cast<double>(skipped_batches_)},
      {"autograd.pool_reuse_ratio", "ratio",
       reused / std::max(1.0, reused + created)},
      {"autograd.pool_bytes", "bytes", static_cast<double>(pool.bytes)},
      {"item_index.build_s", "s", median_of({"item_index.build"}, 1e-3)},
      {"quantized.build_s", "s", median_of({"quantized.build"}, 1e-3)},
      {"engine.first_request_ms", "ms",
       median_of({"engine.first_request"}, 1.0)},
      {"engine.rep_build_ms", "ms", median_of({"engine.rep_build"}, 1.0)},
      {"engine.exact_scan_ms", "ms",
       median_of(each_kind("engine.exact_scan."), 1.0)},
      {"topk.select_ms", "ms", median_of(each_kind("topk.select."), 1.0)},
      {"engine.centroid_ms", "ms",
       median_of(each_kind("engine.centroid."), 1.0)},
      {"item_index.probe_ms", "ms",
       median_of(each_kind("item_index.probe."), 1.0)},
      {"engine.int8_scan_ms", "ms", median_of({"engine.int8_scan"}, 1.0)},
      {"engine.rerank_ms", "ms", median_of({"engine.rerank"}, 1.0)},
      {"engine.recommend_ms", "ms", median_of(each_kind(served), 1.0)},
      {"engine.recommend_user_ms", "ms", median_of({served + "user"}, 1.0)},
      {"engine.recommend_group_ms", "ms", median_of({served + "group"}, 1.0)},
      {"engine.recommend_members_ms", "ms",
       median_of({served + "members"}, 1.0)},
      {"serve.wait_ms", "ms", Median(waits)},
      {"serve.peak_queue_depth", "count",
       static_cast<double>(final_stats_.peak_queue_depth)},
  };
  report_.per_layer.insert(report_.per_layer.end(), m.begin(), m.end());

  // Stage sums against the whole call, per decomposition.
  auto stage_sum = [&](const std::vector<std::string>& stages,
                       const std::string& whole, const std::string& label,
                       bool gate) {
    double sum = 0.0;
    for (const std::string& s : stages) sum += median_of({s}, 1.0);
    const double w = median_of({whole}, 1.0);
    const double ratio = w > 0 ? sum / w : 0.0;
    std::printf("stage-sum %-28s stages %.4f ms  whole %.4f ms  ratio %.3f%s\n",
                label.c_str(), sum, w, ratio,
                gate ? "  (gated)" : "");
    if (gate)
      report_.Check(std::fabs(ratio - 1.0) <= kStageSumTolerance,
                    "stage medians of " + label + " sum to within " +
                        std::to_string(kStageSumTolerance) +
                        " of the whole call");
  };
  for (const std::string& k : kinds) {
    if (tracer_.DurationsMs("engine.recommend_exact." + k).empty()) continue;
    stage_sum({"engine.exact_scan." + k, "topk.select." + k},
              "engine.recommend_exact." + k, "exact " + k,
              spec_.name == "exact-queued");
  }
  if (!tracer_.DurationsMs("engine.int8_scan").empty()) {
    stage_sum({"engine.centroid.user", "item_index.probe.user",
               "engine.int8_scan", "topk.select_shortlist", "engine.rerank",
               "topk.select_final"},
              "engine.recommend_ivf.user", "ivf+int8 user",
              spec_.ivf_int8);
  }
}

// ---- Driver ----------------------------------------------------------------

std::string JsonMetrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                  metrics[i].unit.c_str());
    out += buf;
  }
  return out + "}";
}

int Bench::Run(const std::string& spans_path, const std::string& git_sha) {
  std::printf("host nproc=%u cpu=\"%s\" backend=%s compiler=\"%s\" "
              "flags=\"%s\" git=%s\n",
              std::thread::hardware_concurrency(),
              tensor::DetectedCpuFeatures().c_str(),
              tensor::ActiveBackendName(), E2EBENCH_COMPILER,
              E2EBENCH_CXX_FLAGS, git_sha.c_str());
  std::printf("workload %s: %d users, %d items, %d groups, %zu held-out "
              "group cases, pool %d requests, window %d, workers %d, "
              "pool width %d\n",
              spec_.name.c_str(), in_.num_users(), in_.num_items(),
              in_.num_groups(), in_.group_cases.size(), spec_.pool,
              spec_.window, kWorkers, kPoolWidth);
  order_rng_ = Rng(in_.order_seed);

  watch_ = std::make_unique<CompletionWatch>(spec_.window);
  const Clock::time_point run_start = Clock::now();
  auto stamp = [&](const char* what) {
    std::printf("elapsed %-14s %8.3f s\n", what,
                Seconds(run_start, Clock::now()));
  };
  stamp("inputs");
  PrepareData();                                     // phase 1
  report_.AddPhase("train", "batches; failed = skipped by the guard");
  TrainStage1();                                     // phase 2 (stage 1)
  stamp("stage1");
  if (spec_.round_requests > 0) {
    StartDaemon();                                   // phase 3
    stamp("daemon");
    TrainStage2();                                   // phase 2, publishing
    stamp("stage2");
    PublishTraffic();                                // phase 4
  } else {
    TrainStage2();                                   // phase 2
    stamp("stage2");
    StartDaemon();                                   // phase 3
    stamp("daemon");
    ServingTraffic();                                // phase 4
  }
  stamp("traffic");
  server_->Stop();
  final_stats_ = server_->stats();
  // Before the checks, which load oracle models of their own.
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  peak_rss_mb_ = static_cast<double>(ru.ru_maxrss) / 1024.0;
  report_.phase("train").attempted = train_batches_;
  report_.phase("train").failed = skipped_batches_;

  parallel::SetGlobalThreads(
      std::max(kPoolWidth,
               std::min(4, static_cast<int>(std::thread::hardware_concurrency()))));
  CheckAnswers();                                    // phase 5
  CheckPerItemReference();
  Quality();
  parallel::SetGlobalThreads(kPoolWidth);
  stamp("checks");
  EndToEndMetrics();
  if (tracer_.armed()) {
    LayerPass();
    PerLayerMetrics();
    stamp("layer pass");
  }

  for (const Report::Phase& p : report_.phases) {
    std::printf("phase %-9s attempted %8lld failed %6lld%s%s\n",
                p.name.c_str(), static_cast<long long>(p.attempted),
                static_cast<long long>(p.failed), p.note.empty() ? "" : "  ",
                p.note.c_str());
  }
  auto print_losses = [](const char* stage, const std::vector<double>& v) {
    std::printf("loss %s:", stage);
    for (double x : v) std::printf(" %.6f", x);
    std::printf("\n");
  };
  print_losses("stage 1", stage1_loss_);
  print_losses("stage 2", stage2_loss_);
  print_losses("stage-2 group passes", group_loss_);
  if (spec_.round_requests > 0) {
    std::printf("expected failure: every publish round publishes a CRC-valid "
                "checkpoint holding one NaN parameter; Server::Reload "
                "accepting it counts as one failed reload\n");
  }
  for (const Metric& m : report_.end_to_end)
    std::printf("metric %-28s %14.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  for (const Metric& m : report_.per_layer)
    std::printf("layer  %-28s %14.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  if (tracer_.armed()) {
    std::vector<std::pair<double, std::string>> self;
    for (const auto& [name, v] : tracer_.SelfTimes())
      self.emplace_back(v.first, name + " (" + std::to_string(v.second) + ")");
    std::sort(self.rbegin(), self.rend());
    for (size_t i = 0; i < self.size() && i < 16; ++i)
      std::printf("self   %-40s %12.3f ms\n", self[i].second.c_str(),
                  self[i].first);
    if (!spans_path.empty()) {
      const bool ok = tracer_.WriteJsonLines(spans_path);
      report_.Check(ok, "span dump written to " + spans_path);
      std::printf("spans written to %s\n", spans_path.c_str());
    }
  }
  std::printf("checks run %d, failed %zu\n", report_.checks_run,
              report_.check_failures.size());
  std::printf("E2E %s\n", JsonMetrics(report_.end_to_end).c_str());

  // The contract's counts: operations of the traffic phase (requests and
  // reloads), whose share of failures is the same in every run.
  const Report::Phase& req = report_.phase("requests");
  const Report::Phase& rel = report_.phase("reloads");
  const bool correct = report_.check_failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<long long>(req.attempted + rel.attempted),
              static_cast<long long>(req.failed + rel.failed),
              JsonMetrics(tracer_.armed() ? report_.per_layer
                                          : report_.end_to_end)
                  .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  std::string workload, work_dir, spans_path, git_sha = "unknown";
  long long seed = -1;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      seed = std::atoll(value);
    } else if (key == "--seconds") {
      seconds = std::atof(value);
    } else if (key == "--trace") {
      trace = std::atoi(value);
    } else if (key == "--work") {
      work_dir = value;
    } else if (key == "--spans") {
      spans_path = value;
    } else if (key == "--git-sha") {
      git_sha = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return 2;
    }
  }
  const std::vector<e2ebench::Spec> specs = e2ebench::Workloads();
  const e2ebench::Spec* spec = nullptr;
  for (const e2ebench::Spec& s : specs)
    if (s.name == workload) spec = &s;
  if (spec == nullptr || seed < 0 || seconds <= 0.0 ||
      (trace != 0 && trace != 1) || work_dir.empty()) {
    std::fprintf(stderr,
                 "usage: e2ebench --workload exact-queued|ivf-int8-occasional|"
                 "train-publish --seed N --seconds S --trace 0|1 --work DIR "
                 "[--spans PATH] [--git-sha SHA]\n");
    return 2;
  }
  SetLogLevel(LogLevel::kWarning);
  parallel::SetGlobalThreads(e2ebench::kPoolWidth);
  e2ebench::Bench bench(*spec, static_cast<uint64_t>(seed), seconds,
                        trace == 1, work_dir);
  return bench.Run(spans_path, git_sha);
}
