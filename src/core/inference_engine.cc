#include "core/inference_engine.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <mutex>

#include "common/string_util.h"
#include "core/topk.h"
#include "tensor/backend.h"
#include "tensor/ops.h"

namespace groupsa::core {
namespace {

using tensor::Matrix;

// Every helper below replays, float for float, the op sequence the per-item
// autograd path runs at inference (tape == nullptr). tensor::Gemm computes
// each output row with the same inner-loop order at any batch height and any
// thread count, so feeding it input rows that are byte-identical to the
// per-item rows yields byte-identical output rows — the engine's 0-ULP
// contract reduces to constructing the right input rows (or, for the split
// paths, the right partial sums: seeding an output row with the accumulation
// over the first k weight rows and continuing over the rest reproduces the
// full-width k-ascending chain exactly).

// Same stable formulation as ag::Sigmoid.
float StableSigmoid(float x) {
  if (x >= 0.0f) {
    const float z = std::exp(-x);
    return 1.0f / (1.0f + z);
  }
  const float z = std::exp(x);
  return z / (1.0f + z);
}

// Element-wise identical to nn::Activate on the matching ag op.
void ActivateInPlace(Matrix* x, nn::Activation act) {
  switch (act) {
    case nn::Activation::kNone:
      return;
    case nn::Activation::kRelu:
      for (int i = 0; i < x->size(); ++i)
        x->data()[i] = std::max(0.0f, x->data()[i]);
      return;
    case nn::Activation::kSigmoid:
      for (int i = 0; i < x->size(); ++i)
        x->data()[i] = StableSigmoid(x->data()[i]);
      return;
    case nn::Activation::kTanh:
      for (int i = 0; i < x->size(); ++i)
        x->data()[i] = std::tanh(x->data()[i]);
      return;
  }
  GROUPSA_CHECK(false, "unknown activation");
}

// Derivative of nn::Activation at a pre-activation value — the frozen-mask
// linearization factor used by TowerInputGradient.
float ActDeriv(nn::Activation act, float pre) {
  switch (act) {
    case nn::Activation::kNone:
      return 1.0f;
    case nn::Activation::kRelu:
      return pre > 0.0f ? 1.0f : 0.0f;
    case nn::Activation::kSigmoid: {
      const float s = StableSigmoid(pre);
      return s * (1.0f - s);
    }
    case nn::Activation::kTanh: {
      const float t = std::tanh(pre);
      return 1.0f - t * t;
    }
  }
  GROUPSA_CHECK(false, "unknown activation");
  return 0.0f;
}

// Column means as a 1 x cols row — the reference pseudo-item the int8 scan
// linearizes the towers at.
Matrix ColMeans(const Matrix& m) {
  Matrix out;
  tensor::SumRowsInto(m, &out);
  if (m.rows() > 0) out.ScaleInPlace(1.0f / static_cast<float>(m.rows()));
  return out;
}

// Resizes without the zero-fill Matrix::Resize performs when the shape
// already matches. Callers overwrite every element they read, so stale
// contents are never observed; skipping the clear keeps reused workspace
// buffers a pure capacity cache.
void EnsureShape(Matrix* m, int rows, int cols) {
  if (m->rows() != rows || m->cols() != cols) m->Resize(rows, cols);
}

// Applies layer-0 bias and activation to `*x` (which holds the layer-0
// pre-activation produced by the split-weight path), then runs the remaining
// layers exactly as nn::Mlp::Forward would, ping-ponging between the two
// buffers. Returns the buffer holding the output.
Matrix* MlpTailInPlace(const nn::Mlp& mlp, Matrix* x, Matrix* tmp) {
  if (mlp.layer(0).bias() != nullptr)
    tensor::AddRowBroadcastInPlace(x, mlp.layer(0).bias()->value());
  for (int i = 0; i < mlp.num_layers(); ++i) {
    if (i > 0) {
      tensor::Gemm(*x, /*transpose_a=*/false, mlp.layer(i).weight()->value(),
                   /*transpose_b=*/false, 1.0f, tmp);
      if (mlp.layer(i).bias() != nullptr)
        tensor::AddRowBroadcastInPlace(tmp, mlp.layer(i).bias()->value());
      std::swap(x, tmp);
    }
    ActivateInPlace(x, i + 1 == mlp.num_layers() ? mlp.output_activation()
                                                 : mlp.hidden_activation());
  }
  return x;
}

// Copies rows [0, split) and [split, rows) of `w` into two dense halves.
// The halves are float-for-float the same weight rows, so running the bottom
// half as a Gemm(accumulate=true) continuation after seeding with the top
// half's partial sums reproduces the full-width accumulation chain exactly.
void SplitRows(const Matrix& w, int split, Matrix* top, Matrix* bot) {
  GROUPSA_CHECK(split > 0 && split < w.rows(),
                "SplitRows: split outside weight rows");
  top->Resize(split, w.cols());
  bot->Resize(w.rows() - split, w.cols());
  for (int r = 0; r < split; ++r) top->SetRow(r, w.RowPtr(r));
  for (int r = split; r < w.rows(); ++r)
    bot->SetRow(r - split, w.RowPtr(r));
}

// Copies item-table rows for a chunk into a reused buffer (GatherRows minus
// the allocation).
void GatherRowsInto(const Matrix& table, const int* ids, int count,
                    Matrix* out) {
  EnsureShape(out, count, table.cols());
  for (int i = 0; i < count; ++i) {
    GROUPSA_CHECK(ids[i] >= 0 && ids[i] < table.rows(),
                  "item id out of range");
    out->SetRow(i, table.RowPtr(ids[i]));
  }
}

// The fused attention-logit kernels live in tensor/backends/kernels.inc and
// are compiled once per ISA; tensor::ActiveBackend().attention_logits picks
// the variant for this machine. Hidden widths up to tensor::kMaxFusedHidden
// take that fused path; wider configs take the buffered Gemm path below.

// Per-chunk row caps keeping intermediate buffers modest at catalog scale;
// chunking is row-wise and therefore invisible to the scores.
constexpr int kMaxPredictorRows = 4096;
constexpr int kMaxAttentionRows = 16384;

// Per-call scratch buffers. Reused across requests on the same thread so the
// steady serving state performs no large allocations (a fresh multi-MB
// buffer per request costs more in page faults than the math it holds).
// Thread-local because scoring entry points run concurrently.
struct Workspace {
  Matrix embs, latents;           // gathered item rows
  Matrix addends;                 // fused path: (l*d) x h member addend rows
  std::vector<int> nz, nz_begin;  // fused path: nonzero (member, k) indices
  Matrix hidden, cont, logits;    // buffered attention fallback
  Matrix weights, pooled, group_rep;
  Matrix t1, t2;                  // group tower ping-pong
  Matrix r1a, r1b, r2a, r2b;      // user tower ping-pong pairs
  Matrix x0;                      // int8 path: linearization point
  std::vector<int8_t> q;          // int8 path: quantized scan direction
  std::vector<int32_t> i8dots;    // int8 path: raw scan accumulators
};
Workspace& GetWorkspace() {
  static thread_local Workspace ws;
  return ws;
}

// Gradient of the MLP output (1 x 1) with respect to its input row, taken
// at x0 with every activation derivative evaluated there (the frozen-mask
// linearization). Returns 1 x in_dim.
Matrix TowerInputGradient(const nn::Mlp& mlp, const Matrix& x0) {
  const int num_layers = mlp.num_layers();
  // Forward, recording each layer's pre-activation: the backward pass below
  // evaluates every activation derivative there (the frozen-mask
  // linearization — for ReLU towers this is exactly "gradient with the ReLU
  // masks frozen at x0").
  std::vector<Matrix> pre(static_cast<size_t>(num_layers));
  Matrix x = x0;
  for (int i = 0; i < num_layers; ++i) {
    Matrix y;
    tensor::Gemm(x, /*transpose_a=*/false, mlp.layer(i).weight()->value(),
                 /*transpose_b=*/false, 1.0f, &y);
    if (mlp.layer(i).bias() != nullptr)
      tensor::AddRowBroadcastInPlace(&y, mlp.layer(i).bias()->value());
    pre[static_cast<size_t>(i)] = y;
    ActivateInPlace(&y, i + 1 == num_layers ? mlp.output_activation()
                                            : mlp.hidden_activation());
    x = y;
  }
  // Backward: v <- (v . act'(pre_i)) * W_i^T, starting from d(out)/d(out)=1.
  Matrix v(1, 1);
  v.At(0, 0) = 1.0f;
  for (int i = num_layers - 1; i >= 0; --i) {
    const nn::Activation act = i + 1 == num_layers ? mlp.output_activation()
                                                   : mlp.hidden_activation();
    const Matrix& p = pre[static_cast<size_t>(i)];
    for (int j = 0; j < v.cols(); ++j) v.At(0, j) *= ActDeriv(act, p.At(0, j));
    Matrix prev;
    tensor::Gemm(v, /*transpose_a=*/false, mlp.layer(i).weight()->value(),
                 /*transpose_b=*/true, 1.0f, &prev);
    v = prev;
  }
  return v;  // 1 x in_dim
}

// One linearized tower direction of the int8 scan: the item half of the
// tower's input gradient at [left (+) ref], quantized per request and dotted
// against each candidate's int8 row. Writes (or, with `accumulate`, adds)
// weight * scale_q * scale_t * dot_t into (*out)[t].
void ScanDirection(const nn::Mlp& tower, const Matrix& left, const Matrix& ref,
                   const QuantizedRows& table, double weight,
                   const std::vector<data::ItemId>& items, bool accumulate,
                   std::vector<double>* out) {
  Workspace& ws = GetWorkspace();
  const int d = table.cols;
  tensor::ConcatColsInto({&left, &ref}, &ws.x0);
  const Matrix g = TowerInputGradient(tower, ws.x0);
  ws.q.resize(static_cast<size_t>(d));
  const float s = QuantizeRow(g.RowPtr(0) + d, d, ws.q.data());
  ws.i8dots.resize(items.size());
  tensor::ActiveBackend().dot_i8_rows(ws.q.data(), table.values.data(),
                                      items.data(),
                                      static_cast<int>(items.size()), d,
                                      ws.i8dots.data());
  for (size_t i = 0; i < items.size(); ++i) {
    const double term = weight * static_cast<double>(s) *
                        static_cast<double>(table.scale(items[i])) *
                        static_cast<double>(ws.i8dots[i]);
    (*out)[i] = accumulate ? (*out)[i] + term : term;
  }
}

// Row-quantizes each part of a representation (an empty part stays empty).
template <typename Rep>
std::vector<QuantizedRows> QuantizeRep(Rep rep) {
  std::vector<QuantizedRows> q;
  for (const Matrix* part : rep.Parts()) q.push_back(QuantizeRows(*part));
  return q;
}

template <typename Rep>
Rep DequantizeRep(const std::vector<QuantizedRows>& q) {
  Rep rep;
  const std::vector<Matrix*> parts = rep.Parts();
  for (size_t i = 0; i < parts.size(); ++i)
    if (!q[i].empty()) *parts[i] = q[i].Dequantize();
  return rep;
}

// One user's scores are its rep's. Several users (the fast path's members)
// sum their rows in member order and divide by n: bit for bit the average
// a caller would take over per-member ScoreItemsForUser results.
template <typename Reps, typename RepScores>
std::vector<double> CombineUsers(const Reps& users, size_t n,
                                 const RepScores& rep_scores) {
  if (users.size() == 1) return rep_scores(users.front());
  std::vector<double> sum(n, 0.0);
  for (const auto& rep : users) {
    const std::vector<double> scores = rep_scores(rep);
    for (size_t i = 0; i < n; ++i) sum[i] += scores[i];
  }
  for (double& v : sum) v /= static_cast<double>(users.size());
  return sum;
}

// The one id range check behind every request validation.
Status CheckId(const char* kind, int id, int bound) {
  if (id >= 0 && id < bound) return Status::Ok();
  return Status::Error(
      StrFormat("%s id %d out of range [0, %d)", kind, id, bound));
}

}  // namespace

InferenceEngine::InferenceEngine(GroupSaModel* model) : model_(model) {
  GROUPSA_CHECK(model_ != nullptr, "InferenceEngine requires a model");
  for (const nn::ParamEntry& p : model_->Parameters())
    params_.push_back(p.tensor);
  cache_version_ = params_version();
}

uint64_t InferenceEngine::params_version() const {
  uint64_t version = 0;
  for (const ag::TensorPtr& p : params_) version += p->value_version();
  return version;
}

uint64_t InferenceEngine::Revalidate() {
  const uint64_t version = params_version();
  {
    std::shared_lock<DebugSharedMutex> lock(mu_);
    if (cache_version_ == version) return version;
  }
  std::unique_lock<DebugSharedMutex> lock(mu_);
  if (cache_version_ != version) {
    DropCaches();
    cache_version_ = version;
  }
  return version;
}

void InferenceEngine::InvalidateAll() {
  std::unique_lock<DebugSharedMutex> lock(mu_);
  DropCaches();
}

void InferenceEngine::DropCaches() {
  user_cache_.clear();
  group_cache_.clear();
  user_q_cache_.clear();
  group_q_cache_.clear();
  split_.Reset();
  ivf_.Reset();
  quant_.Reset();
}

void InferenceEngine::set_topk_mode(TopKMode mode) {
  std::unique_lock<DebugSharedMutex> lock(mu_);
  topk_mode_ = mode;
}

TopKMode InferenceEngine::topk_mode() const {
  std::shared_lock<DebugSharedMutex> lock(mu_);
  return topk_mode_;
}

void InferenceEngine::set_index_config(const ItemIndexConfig& config) {
  std::unique_lock<DebugSharedMutex> lock(mu_);
  index_config_ = config;
  ivf_.Reset();
}

ItemIndexConfig InferenceEngine::index_config() const {
  std::shared_lock<DebugSharedMutex> lock(mu_);
  return index_config_;
}

size_t InferenceEngine::cached_users() const {
  std::shared_lock<DebugSharedMutex> lock(mu_);
  return user_cache_.size();
}

size_t InferenceEngine::cached_groups() const {
  std::shared_lock<DebugSharedMutex> lock(mu_);
  return group_cache_.size();
}

size_t InferenceEngine::cached_quant_users() const {
  std::shared_lock<DebugSharedMutex> lock(mu_);
  return user_q_cache_.size();
}

size_t InferenceEngine::cached_quant_groups() const {
  std::shared_lock<DebugSharedMutex> lock(mu_);
  return group_q_cache_.size();
}

size_t InferenceEngine::QuantUserCacheBytes() const {
  std::shared_lock<DebugSharedMutex> lock(mu_);
  size_t total = 0;
  for (const auto& entry : user_q_cache_)
    for (const QuantizedRows& part : entry.second) total += part.MemoryBytes();
  return total;
}

size_t InferenceEngine::Fp32UserCacheBytes() const {
  std::shared_lock<DebugSharedMutex> lock(mu_);
  size_t total = 0;
  for (const auto& entry : user_cache_) {
    total += sizeof(float) *
             (static_cast<size_t>(entry.second.embedding.size()) +
              static_cast<size_t>(entry.second.latent.size()));
  }
  // The quantized cache's reps at 4 bytes per element: what the same users
  // would cost had they been cached in FP32 (int8 mode leaves user_cache_
  // cold, so this term is the denominator-free half of the memory ratio).
  for (const auto& entry : user_q_cache_)
    for (const QuantizedRows& part : entry.second)
      total += sizeof(float) * part.values.size();
  return total;
}

void InferenceEngine::set_score_mode(ScoreMode mode) {
  std::unique_lock<DebugSharedMutex> lock(mu_);
  score_mode_ = mode;
}

ScoreMode InferenceEngine::score_mode() const {
  std::shared_lock<DebugSharedMutex> lock(mu_);
  return score_mode_;
}

void InferenceEngine::set_int8_config(const Int8Config& config) {
  GROUPSA_CHECK(config.rerank_k >= 1, "int8 rerank_k must be positive");
  std::unique_lock<DebugSharedMutex> lock(mu_);
  int8_config_ = config;
}

Int8Config InferenceEngine::int8_config() const {
  std::shared_lock<DebugSharedMutex> lock(mu_);
  return int8_config_;
}

InferenceEngine::UserRep InferenceEngine::BuildUserRep(
    data::UserId user) const {
  GroupSaModel::UserForward fwd = model_->BuildUserForward(
      /*tape=*/nullptr, user, /*training=*/false, /*rng=*/nullptr);
  UserRep rep;
  rep.embedding = fwd.embedding->value();
  if (fwd.latent != nullptr) rep.latent = fwd.latent->value();
  return rep;
}

InferenceEngine::GroupRep InferenceEngine::BuildMembersRep(
    const std::vector<data::UserId>& members) const {
  GroupSaModel::GroupForward fwd = model_->BuildGroupForwardFromMembers(
      /*tape=*/nullptr, members, /*training=*/false, /*rng=*/nullptr);
  GroupRep rep;
  rep.member_reps = fwd.reps.reps->value();
  return rep;
}

InferenceEngine::SplitWeights InferenceEngine::BuildSplitWeights() const {
  SplitWeights sw;
  const Matrix& item_table = model_->item_embedding().table()->value();
  const int d = item_table.cols();
  SplitRows(model_->voting().group_pool().score_hidden().weight()->value(), d,
            &sw.attn_w_top, &sw.attn_w_bot);
  // Item-side attention partial sums for the whole catalog. The kernel runs
  // the same k-ascending, zero-skipping accumulation over row [emb_t^V] that
  // the per-item path runs over the first d terms of [emb_t^V (+) x^U], so
  // each prefix row equals the per-item partial sum bit for bit. Rebuilt at
  // most once per parameter version and shared by every group.
  tensor::Gemm(item_table, /*transpose_a=*/false, sw.attn_w_top,
               /*transpose_b=*/false, 1.0f, &sw.attn_item_prefix);
  SplitRows(model_->user_tower().tower().layer(0).weight()->value(), d,
            &sw.user_w_top, &sw.user_w_bot);
  SplitRows(model_->latent_tower().tower().layer(0).weight()->value(), d,
            &sw.latent_w_top, &sw.latent_w_bot);
  SplitRows(model_->group_tower().tower().layer(0).weight()->value(), d,
            &sw.group_w_top, &sw.group_w_bot);
  return sw;
}

std::shared_ptr<const InferenceEngine::SplitWeights>
InferenceEngine::GetSplitWeights() {
  // Every caller has revalidated the parameter version just before.
  return split_.GetOrBuild([this] { return BuildSplitWeights(); });
}

InferenceEngine::IvfState InferenceEngine::BuildIvfState(
    const ItemIndexConfig& config, const SplitWeights& sw) const {
  IvfState state;
  const Matrix& item_table = model_->item_embedding().table()->value();
  state.index = ItemIndex::Build(item_table, config);
  if (state.index.nlist() == 0) return state;
  // Scoring representatives: the empirical mean of each list's rows in the
  // LIVE tables (not the trained quantizer centroids — those only define the
  // assignment). The coarse stage then scores these pseudo-items through the
  // exact towers, so probe selection follows the model's own scoring
  // surface, attention and all, rather than raw embedding distance.
  state.centroid_table = state.index.ListMeans(item_table);
  tensor::Gemm(state.centroid_table, /*transpose_a=*/false, sw.attn_w_top,
               /*transpose_b=*/false, 1.0f, &state.centroid_prefix);
  const Matrix* latent_table = ModelLatentTable();
  if (latent_table != nullptr)
    state.centroid_latents = state.index.ListMeans(*latent_table);
  return state;
}

std::shared_ptr<const InferenceEngine::IvfState>
InferenceEngine::GetIvfState() {
  Revalidate();
  return ivf_.GetOrBuild(
      [this] { return BuildIvfState(index_config(), *GetSplitWeights()); });
}

std::shared_ptr<const ItemIndex> InferenceEngine::GetOrBuildIndex() {
  std::shared_ptr<const IvfState> state = GetIvfState();
  return std::shared_ptr<const ItemIndex>(state, &state->index);
}

std::vector<double> InferenceEngine::ScoreCentroidsForGroup(
    data::GroupId group) {
  return CentroidScores(GroupQuery(group, /*quantized=*/false),
                        *GetIvfState());
}

std::vector<double> InferenceEngine::ScoreCentroidsForMembers(
    const std::vector<data::UserId>& members) {
  return CentroidScores(MembersQuery(members), *GetIvfState());
}

// ---------------- int8 internals (ScoreMode::kInt8) ----------------------

InferenceEngine::QuantState InferenceEngine::BuildQuantState() const {
  QuantState qs;
  const Matrix& item_table = model_->item_embedding().table()->value();
  qs.items = QuantizeRows(item_table);
  qs.ref_item = ColMeans(item_table);
  const Matrix* latent_table = ModelLatentTable();
  if (latent_table != nullptr) {
    qs.latents = QuantizeRows(*latent_table);
    qs.ref_latent = ColMeans(*latent_table);
  } else {
    // Latent concat rows fall back to the item embedding (the Group-I
    // behaviour in ScoreBatchUser), so the linearization point does too.
    qs.ref_latent = qs.ref_item;
  }
  return qs;
}

std::shared_ptr<const InferenceEngine::QuantState>
InferenceEngine::GetQuantState() {
  Revalidate();
  return quant_.GetOrBuild([this] { return BuildQuantState(); });
}

std::vector<double> InferenceEngine::ApproxScoresUser(
    const UserRep& rep, const QuantState& qs,
    const std::vector<data::ItemId>& items) const {
  std::vector<double> out(items.size(), 0.0);
  if (items.empty() || qs.items.empty()) return out;
  const float blend = model_->config().effective_user_blend();
  const bool blended = !rep.latent.empty() && blend > 0.0f;
  // r^R1 direction: d(tower)/d(emb_t) at [emb_j (+) ref_item].
  ScanDirection(model_->user_tower().tower(), rep.embedding, qs.ref_item,
                qs.items, blended ? 1.0 - static_cast<double>(blend) : 1.0,
                items, /*accumulate=*/false, &out);
  // r^R2 direction over the latent table (items fall back when absent).
  if (blended) {
    ScanDirection(model_->latent_tower().tower(), rep.latent, qs.ref_latent,
                  qs.latents.empty() ? qs.items : qs.latents,
                  static_cast<double>(blend), items, /*accumulate=*/true, &out);
  }
  return out;
}

std::vector<double> InferenceEngine::ApproxScoresGroup(
    const GroupRep& rep, const QuantState& qs,
    const std::vector<data::ItemId>& items) const {
  std::vector<double> out(items.size(), 0.0);
  if (items.empty() || qs.items.empty()) return out;
  const int d = qs.items.cols;
  Workspace& ws = GetWorkspace();
  const Matrix& reps = rep.member_reps;  // l x d
  const int l = reps.rows();
  const nn::AttentionPool& pool = model_->voting().group_pool();
  const nn::Linear& proj = model_->voting().group_proj();

  // Group representation at the reference item, attention softmax frozen
  // there: one [ref_item (+) rep_i] row per member through score_hidden /
  // ReLU / score_out, softmax over members, pool, project.
  EnsureShape(&ws.cont, l, 2 * d);
  for (int i = 0; i < l; ++i) {
    std::memcpy(ws.cont.RowPtr(i), qs.ref_item.RowPtr(0),
                sizeof(float) * static_cast<size_t>(d));
    std::memcpy(ws.cont.RowPtr(i) + d, reps.RowPtr(i),
                sizeof(float) * static_cast<size_t>(d));
  }
  tensor::Gemm(ws.cont, /*transpose_a=*/false,
               pool.score_hidden().weight()->value(), /*transpose_b=*/false,
               1.0f, &ws.hidden);
  if (pool.score_hidden().bias() != nullptr)
    tensor::AddRowBroadcastInPlace(&ws.hidden,
                                   pool.score_hidden().bias()->value());
  ActivateInPlace(&ws.hidden, nn::Activation::kRelu);
  tensor::Gemm(ws.hidden, /*transpose_a=*/false,
               pool.score_out().weight()->value(), /*transpose_b=*/false, 1.0f,
               &ws.logits);  // l x 1
  if (pool.score_out().bias() != nullptr)
    tensor::AddRowBroadcastInPlace(&ws.logits, pool.score_out().bias()->value());
  EnsureShape(&ws.weights, 1, l);  // the l x 1 column, relaid out as a row
  std::memcpy(ws.weights.data(), ws.logits.data(),
              sizeof(float) * static_cast<size_t>(l));
  tensor::SoftmaxRowsInPlace(&ws.weights);
  tensor::Gemm(ws.weights, /*transpose_a=*/false, reps, /*transpose_b=*/false,
               1.0f, &ws.pooled);  // 1 x d
  tensor::Gemm(ws.pooled, /*transpose_a=*/false, proj.weight()->value(),
               /*transpose_b=*/false, 1.0f, &ws.group_rep);
  if (proj.bias() != nullptr)
    tensor::AddRowBroadcastInPlace(&ws.group_rep, proj.bias()->value());
  ActivateInPlace(&ws.group_rep, nn::Activation::kRelu);

  // r^G direction: d(tower)/d(emb_t) at [x^G(ref) (+) ref_item].
  ScanDirection(model_->group_tower().tower(), ws.group_rep, qs.ref_item,
                qs.items, 1.0, items, /*accumulate=*/false, &out);
  return out;
}

std::vector<double> InferenceEngine::ApproxScoreItemsForUser(
    data::UserId user, const std::vector<data::ItemId>& items) {
  return Scan(UsersQuery({user}, /*quantized=*/true), *GetQuantState(),
              items);
}

std::vector<double> InferenceEngine::QuantScoreItemsForUser(
    data::UserId user, const std::vector<data::ItemId>& items) {
  return ScoreCatalog(UsersQuery({user}, /*quantized=*/true), items);
}

std::vector<double> InferenceEngine::QuantScoreCentroidsForUser(
    data::UserId user) {
  return CentroidScores(UsersQuery({user}, /*quantized=*/true),
                        *GetIvfState());
}

// ---------------- The retrieval pipeline -----------------------------------

template <typename Rep, typename Key, typename Build>
Rep InferenceEngine::CachedRep(std::unordered_map<Key, Rep>* fp32,
                               std::unordered_map<Key, QuantRep>* int8,
                               Key key, bool quantized, const Build& build) {
  Revalidate();
  // Concurrent misses build identical entries (the forward is deterministic
  // and pure); the first insert wins. Entries are copied out: map storage
  // may move under concurrent inserts.
  const auto lookup_or_build = [&](auto* cache, const auto& make) {
    {
      std::shared_lock<DebugSharedMutex> lock(mu_);
      auto it = cache->find(key);
      if (it != cache->end()) return it->second;
    }
    auto entry = make();
    std::unique_lock<DebugSharedMutex> lock(mu_);
    cache->emplace(key, entry);
    return entry;
  };
  if (!quantized) return lookup_or_build(fp32, build);
  return DequantizeRep<Rep>(
      lookup_or_build(int8, [&] { return QuantizeRep(build()); }));
}

InferenceEngine::Query InferenceEngine::UsersQuery(
    const std::vector<data::UserId>& users, bool quantized) {
  GROUPSA_CHECK(!users.empty(), "a user query needs at least one user");
  Query q;
  for (data::UserId user : users) {
    q.users.push_back(CachedRep(&user_cache_, &user_q_cache_, user, quantized,
                                [&] { return BuildUserRep(user); }));
  }
  q.sw = GetSplitWeights();
  return q;
}

InferenceEngine::Query InferenceEngine::GroupQuery(data::GroupId group,
                                                   bool quantized) {
  Query q;
  q.group = CachedRep(&group_cache_, &group_q_cache_, group, quantized, [&] {
    return BuildMembersRep(model_->model_data().groups->Members(group));
  });
  q.sw = GetSplitWeights();
  return q;
}

InferenceEngine::Query InferenceEngine::MembersQuery(
    const std::vector<data::UserId>& members) {
  Revalidate();
  Query q;
  q.group = BuildMembersRep(members);
  q.sw = GetSplitWeights();
  return q;
}

std::vector<double> InferenceEngine::ScoreRows(
    const Query& q, const Side& side,
    const std::vector<data::ItemId>& ids) const {
  if (q.users.empty()) return ScoreBatchGroup(q.group, ids, *q.sw, side);
  return CombineUsers(q.users, ids.size(), [&](const UserRep& r) {
    return ScoreBatchUser(r, ids, *q.sw, side);
  });
}

std::vector<double> InferenceEngine::ScoreCatalog(
    const Query& q, const std::vector<data::ItemId>& ids) const {
  const Side catalog = {&model_->item_embedding().table()->value(),
                        ModelLatentTable(), &q.sw->attn_item_prefix};
  return ScoreRows(q, catalog, ids);
}

std::vector<double> InferenceEngine::CentroidScores(
    const Query& q, const IvfState& ivf) const {
  const Side centroids = {
      &ivf.centroid_table,
      ivf.centroid_latents.empty() ? nullptr : &ivf.centroid_latents,
      &ivf.centroid_prefix};
  return ScoreRows(q, centroids, AllItems(ivf.index.nlist()));
}

std::vector<double> InferenceEngine::Scan(
    const Query& q, const QuantState& qs,
    const std::vector<data::ItemId>& ids) const {
  if (q.users.empty()) return ApproxScoresGroup(q.group, qs, ids);
  return CombineUsers(q.users, ids.size(), [&](const UserRep& r) {
    return ApproxScoresUser(r, qs, ids);
  });
}

std::vector<std::pair<data::ItemId, double>> InferenceEngine::Retrieve(
    const Query& q, int k, std::function<bool(data::ItemId)> skip) {
  std::vector<data::ItemId> candidates;
  if (topk_mode() == TopKMode::kIvf) {
    const auto ivf = GetIvfState();
    const ItemIndex& index = ivf->index;
    if (index.nlist() == 0) return {};
    candidates = index.Candidates(
        index.SelectProbes(CentroidScores(q, *ivf), /*nprobe=*/0));
  } else {
    candidates = AllItems(model_->num_items());
  }
  if (score_mode() == ScoreMode::kInt8) {
    const std::vector<double> approx = Scan(q, *GetQuantState(), candidates);
    const int rerank = std::max(k, int8_config().rerank_k);
    const std::vector<std::pair<data::ItemId, double>> shortlist =
        TopKItems(candidates, approx, rerank, skip);
    candidates.clear();
    for (const auto& entry : shortlist) candidates.push_back(entry.first);
    skip = nullptr;  // the shortlist is filtered already
  }
  const std::vector<double> exact = ScoreCatalog(q, candidates);
  return TopKItems(candidates, exact, k, skip);
}

std::function<bool(data::ItemId)> InferenceEngine::AnyMemberSaw(
    const std::vector<data::UserId>& members,
    const data::InteractionMatrix* exclude) {
  if (exclude == nullptr) return nullptr;
  return [&members, exclude](data::ItemId item) {
    for (data::UserId member : members)
      if (exclude->Has(member, item)) return true;
    return false;
  };
}

const tensor::Matrix* InferenceEngine::ModelLatentTable() const {
  const UserModeling* um = model_->user_modeling();
  if (um == nullptr || !um->has_item_space()) return nullptr;
  return &um->item_space()->table()->value();
}

std::vector<double> InferenceEngine::ScoreBatchUser(
    const UserRep& rep, const std::vector<data::ItemId>& items,
    const SplitWeights& sw, const Side& side) const {
  std::vector<double> scores;
  scores.reserve(items.size());
  if (items.empty()) return scores;
  Workspace& ws = GetWorkspace();

  const Matrix& item_table = *side.items;
  const float blend = model_->config().effective_user_blend();
  // Mirrors the r1-only early-out of GroupSaModel::ScoreUserItem.
  const bool blended = !rep.latent.empty() && blend > 0.0f;

  // Layer-0 user-side partial sums: the left half of the concat row
  // [emb_j^U (+) emb_t^V] is the same for every candidate, so its partial
  // sum is computed once and seeds every batch row; the item-side weight
  // half then continues the same k-ascending accumulation the per-item
  // full-width kernel runs. Bias and activation land in MlpTailInPlace after
  // the full continuation, matching the MatMul -> AddBias -> activation
  // order of the per-item path.
  Matrix prefix1;
  tensor::Gemm(rep.embedding, /*transpose_a=*/false, sw.user_w_top,
               /*transpose_b=*/false, 1.0f, &prefix1);
  Matrix prefix2;
  if (blended)
    tensor::Gemm(rep.latent, /*transpose_a=*/false, sw.latent_w_top,
                 /*transpose_b=*/false, 1.0f, &prefix2);

  const int h = prefix1.cols();
  const int n = static_cast<int>(items.size());
  for (int begin = 0; begin < n; begin += kMaxPredictorRows) {
    const int c = std::min(kMaxPredictorRows, n - begin);
    const int* ids = items.data() + begin;
    GatherRowsInto(item_table, ids, c, &ws.embs);  // c x d

    EnsureShape(&ws.r1a, c, h);
    for (int t = 0; t < c; ++t)
      std::memcpy(ws.r1a.RowPtr(t), prefix1.RowPtr(0), sizeof(float) * h);
    tensor::Gemm(ws.embs, /*transpose_a=*/false, sw.user_w_bot,
                 /*transpose_b=*/false, 1.0f, &ws.r1a, /*accumulate=*/true);
    Matrix* r1 = MlpTailInPlace(model_->user_tower().tower(), &ws.r1a,
                                &ws.r1b);

    if (blended) {
      // r^R2 over [h_j (+) x_t^V] (x^V falls back to emb^V for Group-I).
      const Matrix* latents = &ws.embs;
      if (side.latents != nullptr) {
        GatherRowsInto(*side.latents, ids, c, &ws.latents);
        latents = &ws.latents;
      }
      EnsureShape(&ws.r2a, c, h);
      for (int t = 0; t < c; ++t)
        std::memcpy(ws.r2a.RowPtr(t), prefix2.RowPtr(0), sizeof(float) * h);
      tensor::Gemm(*latents, /*transpose_a=*/false, sw.latent_w_bot,
                   /*transpose_b=*/false, 1.0f, &ws.r2a, /*accumulate=*/true);
      Matrix* r2 = MlpTailInPlace(model_->latent_tower().tower(), &ws.r2a,
                                  &ws.r2b);
      // Eq. 23 blend via the same in-place ops as ag::Scale / ag::Add.
      r1->ScaleInPlace(1.0f - blend);
      r2->ScaleInPlace(blend);
      r1->AddInPlace(*r2);
    }
    for (int t = 0; t < c; ++t)
      scores.push_back(static_cast<double>(r1->At(t, 0)));
  }
  return scores;
}

std::vector<double> InferenceEngine::ScoreBatchGroup(
    const GroupRep& rep, const std::vector<data::ItemId>& items,
    const SplitWeights& sw, const Side& side) const {
  std::vector<double> scores;
  scores.reserve(items.size());
  if (items.empty()) return scores;
  Workspace& ws = GetWorkspace();

  const Matrix& item_table = *side.items;
  const Matrix& attn_prefix = *side.attn_prefix;
  const Matrix& reps = rep.member_reps;  // l x d
  const int l = reps.rows();
  const int d = reps.cols();
  const int h = attn_prefix.cols();
  const nn::AttentionPool& pool = model_->voting().group_pool();
  const nn::Linear& proj = model_->voting().group_proj();
  const bool fused = h <= tensor::kMaxFusedHidden;

  if (fused) {
    // Precompute, per member, the addend rows rep_i[k] * W_bot[k][:] for the
    // nonzero rep_i[k] (k ascending — the same terms, in the same order,
    // with the same zero-skip the Gemm kernel applies to the member half of
    // the per-item concat row).
    EnsureShape(&ws.addends, l * d, h);
    ws.nz.clear();
    ws.nz_begin.assign(static_cast<size_t>(l) + 1, 0);
    for (int i = 0; i < l; ++i) {
      for (int k = 0; k < d; ++k) {
        const float r = reps.At(i, k);
        if (r == 0.0f) continue;
        float* dst = ws.addends.RowPtr(i * d + k);
        const float* wrow = sw.attn_w_bot.RowPtr(k);
        for (int j = 0; j < h; ++j) dst[j] = r * wrow[j];
        ws.nz.push_back(i * d + k);
      }
      ws.nz_begin[i + 1] = static_cast<int>(ws.nz.size());
    }
  }

  const bool has_hb = pool.score_hidden().bias() != nullptr;
  const float* hb = has_hb ? pool.score_hidden().bias()->value().data()
                           : nullptr;
  const float* wout = pool.score_out().weight()->value().data();  // h x 1
  const bool has_ob = pool.score_out().bias() != nullptr;
  const float out_b = has_ob ? pool.score_out().bias()->value().At(0, 0)
                             : 0.0f;

  const int n = static_cast<int>(items.size());
  const int max_items = std::max(1, kMaxAttentionRows / l);
  // Tracks the chunk height ws.cont currently holds; the tiled member reps
  // are call-local state, so the buffer is rebuilt at least once per call.
  int cont_rows = -1;
  for (int begin = 0; begin < n; begin += max_items) {
    const int c = std::min(max_items, n - begin);
    const int* ids = items.data() + begin;
    GatherRowsInto(item_table, ids, c, &ws.embs);  // c x d

    // Eq. 8-10: attention logits for every (item, member) pair, one softmax
    // row per item. The per-item path feeds row [emb_t^V (+) x_{t,i}^U]
    // through score_hidden / ReLU / score_out; both paths below run the
    // identical per-element chains — seed with the cached item-side partial
    // sum (equal to the per-item k < d partial, see BuildSplitWeights),
    // continue with the member-side terms k ascending, then bias, ReLU and
    // the zero-skipping j-ascending logit dot, with biases applied only
    // after each full accumulation as in nn::Linear.
    EnsureShape(&ws.weights, c, l);
    if (fused) {
      tensor::ActiveBackend().attention_logits(attn_prefix, ids, c, l, h,
                                               ws.addends, ws.nz, ws.nz_begin,
                                               hb, wout, has_ob, out_b,
                                               &ws.weights);
    } else {
      // Buffered fallback for wide attention layers: seed rows with the item
      // prefix, continue via Gemm(accumulate) over the tiled member reps.
      EnsureShape(&ws.hidden, c * l, h);
      for (int t = 0; t < c; ++t) {
        const float* p = attn_prefix.RowPtr(ids[t]);
        for (int i = 0; i < l; ++i)
          std::memcpy(ws.hidden.RowPtr(t * l + i), p, sizeof(float) * h);
      }
      if (cont_rows != c * l) {
        EnsureShape(&ws.cont, c * l, d);
        for (int t = 0; t < c; ++t)
          for (int i = 0; i < l; ++i)
            ws.cont.SetRow(t * l + i, reps.RowPtr(i));
        cont_rows = c * l;
      }
      tensor::Gemm(ws.cont, /*transpose_a=*/false, sw.attn_w_bot,
                   /*transpose_b=*/false, 1.0f, &ws.hidden,
                   /*accumulate=*/true);
      if (has_hb)
        tensor::AddRowBroadcastInPlace(&ws.hidden,
                                       pool.score_hidden().bias()->value());
      ActivateInPlace(&ws.hidden, nn::Activation::kRelu);
      tensor::Gemm(ws.hidden, /*transpose_a=*/false,
                   pool.score_out().weight()->value(), /*transpose_b=*/false,
                   1.0f, &ws.logits);  // c*l x 1
      if (has_ob)
        tensor::AddRowBroadcastInPlace(&ws.logits,
                                       pool.score_out().bias()->value());
      // The (c*l) x 1 logit column is, row-major, already the c x l logit
      // matrix (the per-item path's Transpose is a pure relayout).
      std::memcpy(ws.weights.data(), ws.logits.data(),
                  sizeof(float) * static_cast<size_t>(c) * l);
    }
    tensor::SoftmaxRowsInPlace(&ws.weights);  // Eq. 10, one row per item

    // Eq. 7-8: pooled_t = gamma_t . X^U, then the outer projection + ReLU.
    tensor::Gemm(ws.weights, /*transpose_a=*/false, reps,
                 /*transpose_b=*/false, 1.0f, &ws.pooled);  // c x d
    tensor::Gemm(ws.pooled, /*transpose_a=*/false, proj.weight()->value(),
                 /*transpose_b=*/false, 1.0f, &ws.group_rep);
    if (proj.bias() != nullptr)
      tensor::AddRowBroadcastInPlace(&ws.group_rep, proj.bias()->value());
    ActivateInPlace(&ws.group_rep, nn::Activation::kRelu);

    // Eq. 20 tower over [x_t^G (+) emb_t^V], via the same split-weight
    // seed/continue rewrite (both halves are full c-row matrices here, so
    // the seed is itself a Gemm and no row tiling is needed).
    tensor::Gemm(ws.group_rep, /*transpose_a=*/false, sw.group_w_top,
                 /*transpose_b=*/false, 1.0f, &ws.t1);
    tensor::Gemm(ws.embs, /*transpose_a=*/false, sw.group_w_bot,
                 /*transpose_b=*/false, 1.0f, &ws.t1, /*accumulate=*/true);
    const Matrix* out =
        MlpTailInPlace(model_->group_tower().tower(), &ws.t1, &ws.t2);
    for (int t = 0; t < c; ++t)
      scores.push_back(static_cast<double>(out->At(t, 0)));
  }
  return scores;
}

std::vector<double> InferenceEngine::ScoreItemsForUser(
    data::UserId user, const std::vector<data::ItemId>& items) {
  return ScoreCatalog(UsersQuery({user}, /*quantized=*/false), items);
}

std::vector<double> InferenceEngine::ScoreItemsForGroup(
    data::GroupId group, const std::vector<data::ItemId>& items) {
  return ScoreCatalog(GroupQuery(group, /*quantized=*/false), items);
}

std::vector<double> InferenceEngine::ScoreItemsForMembers(
    const std::vector<data::UserId>& members,
    const std::vector<data::ItemId>& items) {
  // Ad-hoc (cold) member lists have no stable key; build the reps per
  // request and batch only the per-item work.
  return ScoreCatalog(MembersQuery(members), items);
}

std::vector<std::vector<double>> InferenceEngine::MemberItemScores(
    const std::vector<data::UserId>& members,
    const std::vector<data::ItemId>& items) {
  std::vector<std::vector<double>> scores;
  scores.reserve(members.size());
  for (data::UserId member : members)
    scores.push_back(ScoreItemsForUser(member, items));
  return scores;
}

std::vector<std::pair<data::ItemId, double>> InferenceEngine::RecommendForUser(
    data::UserId user, int k, const data::InteractionMatrix* exclude) {
  const bool int8 = score_mode() == ScoreMode::kInt8;
  return Retrieve(UsersQuery({user}, int8), k, [&](data::ItemId item) {
    return exclude != nullptr && exclude->Has(user, item);
  });
}

std::vector<std::pair<data::ItemId, double>>
InferenceEngine::RecommendForGroup(data::GroupId group, int k,
                                   const data::InteractionMatrix* exclude) {
  const bool int8 = score_mode() == ScoreMode::kInt8;
  return Retrieve(GroupQuery(group, int8), k, [&](data::ItemId item) {
    return exclude != nullptr && exclude->Has(group, item);
  });
}

std::vector<std::pair<data::ItemId, double>>
InferenceEngine::RecommendForMembers(const std::vector<data::UserId>& members,
                                     int k,
                                     const data::InteractionMatrix* exclude) {
  return Retrieve(MembersQuery(members), k, AnyMemberSaw(members, exclude));
}

// ---------------- Validated (Status) serving entry points ----------------

Status InferenceEngine::ValidateUser(data::UserId user) const {
  return CheckId("user", user, model_->num_users());
}

Status InferenceEngine::ValidateGroup(data::GroupId group) const {
  const data::GroupTable* groups = model_->model_data().groups;
  if (groups == nullptr) return Status::Error("model has no group table");
  return CheckId("group", group, groups->num_groups());
}

Status InferenceEngine::ValidateMembers(
    const std::vector<data::UserId>& members) const {
  if (members.empty()) return Status::Error("empty member list");
  for (data::UserId member : members) {
    GROUPSA_RETURN_IF_ERROR_CTX(ValidateUser(member), "member");
  }
  return Status::Ok();
}

Status InferenceEngine::ValidateItems(
    const std::vector<data::ItemId>& items) const {
  for (data::ItemId item : items)
    GROUPSA_RETURN_IF_ERROR(CheckId("item", item, model_->num_items()));
  return Status::Ok();
}

Status InferenceEngine::ValidateK(int k) const {
  if (k < 1) return Status::Error(StrFormat("k must be positive, got %d", k));
  return Status::Ok();
}

Status InferenceEngine::ScoreItemsForUser(data::UserId user,
                                          const std::vector<data::ItemId>& items,
                                          std::vector<double>* scores) {
  GROUPSA_RETURN_IF_ERROR(ValidateUser(user));
  GROUPSA_RETURN_IF_ERROR(ValidateItems(items));
  *scores = ScoreItemsForUser(user, items);
  return Status::Ok();
}

Status InferenceEngine::ScoreItemsForGroup(
    data::GroupId group, const std::vector<data::ItemId>& items,
    std::vector<double>* scores) {
  GROUPSA_RETURN_IF_ERROR(ValidateGroup(group));
  GROUPSA_RETURN_IF_ERROR(ValidateItems(items));
  *scores = ScoreItemsForGroup(group, items);
  return Status::Ok();
}

Status InferenceEngine::ScoreItemsForMembers(
    const std::vector<data::UserId>& members,
    const std::vector<data::ItemId>& items, std::vector<double>* scores) {
  GROUPSA_RETURN_IF_ERROR(ValidateMembers(members));
  GROUPSA_RETURN_IF_ERROR(ValidateItems(items));
  *scores = ScoreItemsForMembers(members, items);
  return Status::Ok();
}

Status InferenceEngine::MemberItemScores(
    const std::vector<data::UserId>& members,
    const std::vector<data::ItemId>& items,
    std::vector<std::vector<double>>* scores) {
  GROUPSA_RETURN_IF_ERROR(ValidateMembers(members));
  GROUPSA_RETURN_IF_ERROR(ValidateItems(items));
  *scores = MemberItemScores(members, items);
  return Status::Ok();
}

Status InferenceEngine::RecommendForUser(
    data::UserId user, int k, const data::InteractionMatrix* exclude,
    std::vector<std::pair<data::ItemId, double>>* out) {
  GROUPSA_RETURN_IF_ERROR(ValidateUser(user));
  GROUPSA_RETURN_IF_ERROR(ValidateK(k));
  *out = RecommendForUser(user, k, exclude);
  return Status::Ok();
}

Status InferenceEngine::RecommendForGroup(
    data::GroupId group, int k, const data::InteractionMatrix* exclude,
    std::vector<std::pair<data::ItemId, double>>* out) {
  GROUPSA_RETURN_IF_ERROR(ValidateGroup(group));
  GROUPSA_RETURN_IF_ERROR(ValidateK(k));
  *out = RecommendForGroup(group, k, exclude);
  return Status::Ok();
}

Status InferenceEngine::RecommendForMembers(
    const std::vector<data::UserId>& members, int k,
    const data::InteractionMatrix* exclude,
    std::vector<std::pair<data::ItemId, double>>* out) {
  GROUPSA_RETURN_IF_ERROR(ValidateMembers(members));
  GROUPSA_RETURN_IF_ERROR(ValidateK(k));
  *out = RecommendForMembers(members, k, exclude);
  return Status::Ok();
}

}  // namespace groupsa::core
