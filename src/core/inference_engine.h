#ifndef GROUPSA_CORE_INFERENCE_ENGINE_H_
#define GROUPSA_CORE_INFERENCE_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/debug_mutex.h"
#include "common/status.h"
#include "core/groupsa_model.h"
#include "core/item_index.h"
#include "core/quantized.h"

namespace groupsa::core {

// Batched, tape-free serving path for GroupSA (the production answer to the
// paper's Sec. II-F speed concern).
//
// The per-item scoring path builds a fresh 1 x d forward — attention pool,
// projection, predictor tower — per candidate item, allocating a dozen tiny
// autograd nodes each time. At catalog scale that is O(items) scalar
// forwards for work that is really a handful of matrix products: the
// enhanced user/group representation is item-independent, and everything
// downstream of it is row-wise in the candidate item. This engine
//
//  1. computes the expensive item-independent representations once per
//     entity — the user-modeling latent h_j (item-space + social-space
//     aggregation, Eq. 11-19) and the voting-stack member representations
//     x_{t,i}^U (Eq. 1-6) — and caches them across requests, and
//  2. scores all candidate items in one batched pass over pure
//     tensor::Matrix buffers: gather the item-embedding rows, run the
//     item-guided attention + predictor MLP towers over the whole
//     (num_items x d) batch via tensor::Gemm, and apply the Eq. 23 blend
//     row-wise.
//
// One retrieval pipeline serves every request kind. An entry point
// validates its ids and prepares a Query — a user (Eq. 22/23), a known or
// ad-hoc group through the voting stack (Eq. 1-10, 20), or the Sec. II-F
// member average — holding the representations it scores with. Retrieve()
// then runs candidates (the catalog, or the IVF lists whose pseudo-items
// score best) -> an optional int8 scan down to a re-rank shortlist -> the
// exact towers over the survivors -> TopKItems. Two primitives do all the
// scoring: ScoreRows (the exact towers over rows of the catalog or of the
// IVF centroid tables) and Scan (the int8 approximation).
//
// Bit-exactness contract: batched scores are BIT-IDENTICAL (0 ULP) to the
// per-item path (GroupSaModel::Score*PerItem) at any thread count. This
// holds because tensor::Gemm produces each output row with the same
// inner-loop order as a 1 x d product, and every batched input row here is
// constructed to equal, float for float, the row the per-item path feeds its
// ops (same concat order, same bias/activation/softmax/blend per-row math).
// The per-item autograd path remains the training path and the parity
// oracle; tests/core/inference_engine_test.cc and
// tests/core/retrieval_matrix_test.cc enforce the contract.
//
// Cache lifetime: every cached representation is stamped with the model's
// parameter version — the sum of ag::Tensor::value_version() over all
// parameters, which advances on any mutable value access (optimizer steps,
// checkpoint restore, SetTable, re-initialization). Each public call
// revalidates the stamp and drops every cached entry on mismatch, so a
// stale representation can never survive a parameter update. No explicit
// hook is needed at optimizer call sites, but InvalidateAll() is available
// for callers that want eager reclamation (e.g. at epoch boundaries).
//
// Thread-safety: all public methods may be called concurrently (the
// evaluator fans ranking cases across the thread pool). Cache reads take a
// shared lock; representation building and batched scoring run outside any
// lock. Concurrent calls must not race with training steps — score either
// before or after an optimizer Step(), not during.
class InferenceEngine {
 public:
  // `model` must outlive the engine.
  explicit InferenceEngine(GroupSaModel* model);

  // Batched scorers; same semantics (and bits) as the per-item
  // GroupSaModel::Score*PerItem reference implementations.
  std::vector<double> ScoreItemsForUser(data::UserId user,
                                        const std::vector<data::ItemId>& items);
  std::vector<double> ScoreItemsForGroup(
      data::GroupId group, const std::vector<data::ItemId>& items);
  std::vector<double> ScoreItemsForMembers(
      const std::vector<data::UserId>& members,
      const std::vector<data::ItemId>& items);
  std::vector<std::vector<double>> MemberItemScores(
      const std::vector<data::UserId>& members,
      const std::vector<data::ItemId>& items);

  // Full-catalog Top-K (partial-sort selection; items observed in `exclude`
  // are skipped when it is non-null). For RecommendForMembers the exclude
  // matrix is user-row: an item is skipped when ANY member has observed it.
  std::vector<std::pair<data::ItemId, double>> RecommendForUser(
      data::UserId user, int k, const data::InteractionMatrix* exclude);
  std::vector<std::pair<data::ItemId, double>> RecommendForGroup(
      data::GroupId group, int k, const data::InteractionMatrix* exclude);
  std::vector<std::pair<data::ItemId, double>> RecommendForMembers(
      const std::vector<data::UserId>& members, int k,
      const data::InteractionMatrix* exclude);

  // ---------------- Validated (Status) serving entry points --------------
  // Production-facing variants of the scorers above: out-of-range
  // user/group/member/item ids, empty member lists and non-positive k come
  // back as a descriptive error Status instead of a CHECK-abort, leaving
  // the process and caches intact. The unchecked variants remain the
  // internal hot path (trusted ids from the evaluator/trainer).
  Status ScoreItemsForUser(data::UserId user,
                           const std::vector<data::ItemId>& items,
                           std::vector<double>* scores);
  Status ScoreItemsForGroup(data::GroupId group,
                            const std::vector<data::ItemId>& items,
                            std::vector<double>* scores);
  Status ScoreItemsForMembers(const std::vector<data::UserId>& members,
                              const std::vector<data::ItemId>& items,
                              std::vector<double>* scores);
  Status MemberItemScores(const std::vector<data::UserId>& members,
                          const std::vector<data::ItemId>& items,
                          std::vector<std::vector<double>>* scores);
  Status RecommendForUser(data::UserId user, int k,
                          const data::InteractionMatrix* exclude,
                          std::vector<std::pair<data::ItemId, double>>* out);
  Status RecommendForGroup(data::GroupId group, int k,
                           const data::InteractionMatrix* exclude,
                           std::vector<std::pair<data::ItemId, double>>* out);
  Status RecommendForMembers(
      const std::vector<data::UserId>& members, int k,
      const data::InteractionMatrix* exclude,
      std::vector<std::pair<data::ItemId, double>>* out);

  // ---------------- Retrieval modes ----------------------------------------
  // The modes of Retrieve (see the class comment); the ScoreItemsFor*
  // scorers ignore them. Setters are setup-time calls: they must not race
  // with in-flight scoring.
  //
  // TopKMode::kIvf probes the item index's best-scoring lists. Probe
  // selection is model-agnostic: each list's pseudo-item — the per-list mean
  // rows of the live item tables — is scored through the very towers that
  // score real items. With nprobe >= nlist every list is probed and (per-row
  // score bits being independent of batch composition, TopKItems a strict
  // total order) the result is bit-identical to kExact.
  void set_topk_mode(TopKMode mode);
  TopKMode topk_mode() const;
  // Replaces the index build/query knobs and drops any built index.
  void set_index_config(const ItemIndexConfig& config);
  ItemIndexConfig index_config() const;
  // The current-parameter-version index, built on first use and dropped on
  // any parameter update. Call it eagerly (the serve daemon does, while
  // constructing a generation) to keep the build off requests. The pointer
  // stays valid across invalidation (shared ownership); it just stops being
  // the engine's current index.
  std::shared_ptr<const ItemIndex> GetOrBuildIndex();

  // Exact tower scores of the index's per-list pseudo-items (one score per
  // centroid, nlist() entries) — the coarse stage of the IVF search, public
  // so a caller can decompose a retrieval into its stages through
  // ItemIndex::SelectProbes/Candidates.
  std::vector<double> ScoreCentroidsForGroup(data::GroupId group);
  std::vector<double> ScoreCentroidsForMembers(
      const std::vector<data::UserId>& members);

  // ScoreMode::kInt8 caches user and group representations ROW-QUANTIZED
  // (d + 4 bytes per d-column row instead of 4d — the serving-memory win),
  // scans the candidates with an int8 x int8 -> int32 dot against the
  // quantized item tables, and re-ranks the best Int8Config::rerank_k
  // through the exact FP32 towers: returned scores carry exact-path bits for
  // the dequantized cached representation; only WHICH items reach the
  // re-rank is approximate. The scan direction is a first-order
  // linearization of the predictor tower — its item-side input gradient at
  // the catalog-mean reference item, activation masks frozen there — a
  // per-request 1 x d vector, quantized in O(d).
  void set_score_mode(ScoreMode mode);
  ScoreMode score_mode() const;
  void set_int8_config(const Int8Config& config);
  Int8Config int8_config() const;

  // Quantized item-side tables plus the reference rows the linearization is
  // taken at; cached per parameter version like the index, and built eagerly
  // by the serve daemon for the same reason.
  struct QuantState {
    QuantizedRows items;       // item-embedding table, row-quantized
    QuantizedRows latents;     // user-modeling item-space table, or empty
    tensor::Matrix ref_item;   // 1 x d catalog mean of the item table
    tensor::Matrix ref_latent;  // 1 x d mean of the latent table (or ref_item)
    size_t MemoryBytes() const {
      return items.MemoryBytes() + latents.MemoryBytes();
    }
  };
  std::shared_ptr<const QuantState> GetQuantState();

  // Raw int8-scan scores (approximate, for ranking only: constant offsets
  // are dropped). Public for the quality tests and for callers that
  // decompose a user retrieval into its stages.
  std::vector<double> ApproxScoreItemsForUser(
      data::UserId user, const std::vector<data::ItemId>& items);
  // Exact FP32 tower scores over the DEQUANTIZED quantized-cached user
  // representation — the int8 re-rank path; bit-identical to
  // ScoreItemsForUser whenever quantization round-trips the rep exactly.
  std::vector<double> QuantScoreItemsForUser(
      data::UserId user, const std::vector<data::ItemId>& items);
  // IVF coarse stage over the quantized-cached rep (exact centroid scoring
  // without touching the FP32 rep cache).
  std::vector<double> QuantScoreCentroidsForUser(data::UserId user);

  // Drops every cached representation immediately. Never required for
  // correctness (version stamping already fences parameter updates); useful
  // to reclaim memory at epoch boundaries.
  void InvalidateAll();

  // Current parameter version (sum of per-parameter value versions).
  uint64_t params_version() const;

  // Cache introspection (tests, ops counters).
  size_t cached_users() const;
  size_t cached_groups() const;
  size_t cached_quant_users() const;
  size_t cached_quant_groups() const;
  // Payload bytes behind the int8 memory gate: QuantUserCacheBytes is the
  // quantized user-rep cache as stored; Fp32UserCacheBytes is the FP32 cost
  // of the same cached users — the live FP32 cache plus 4 bytes per element
  // for every quantized-cached rep (which int8 mode keeps out of the FP32
  // cache; that avoidance is the memory win the ratio measures).
  size_t QuantUserCacheBytes() const;
  size_t Fp32UserCacheBytes() const;

 private:
  // FastGroupRecommender is the averaged-members query kind: it prepares its
  // query and validates through the engine's private pipeline.
  friend class FastGroupRecommender;

  // Item-independent per-user state: emb_j^U and (when user modeling is on)
  // the latent h_j. `latent` is empty when the blend is inactive.
  struct UserRep {
    tensor::Matrix embedding;  // 1 x d
    tensor::Matrix latent;     // 1 x d, or empty
    std::vector<tensor::Matrix*> Parts() { return {&embedding, &latent}; }
  };
  // Item-independent per-group state: the voting-stack output x_{t,i}^U.
  struct GroupRep {
    tensor::Matrix member_reps;  // l x d
    std::vector<tensor::Matrix*> Parts() { return {&member_reps}; }
  };
  // A representation row-quantized part by part (Parts() order); what the
  // int8-mode caches hold instead of the FP32 rep.
  using QuantRep = std::vector<QuantizedRows>;

  // Tape-free representation builders (no cache).
  UserRep BuildUserRep(data::UserId user) const;
  GroupRep BuildMembersRep(const std::vector<data::UserId>& members) const;

  // Per-parameter-version derived weights. Every concat-input linear in the
  // model sees rows of the form [left (+) right]; splitting its weight matrix
  // at the concat boundary lets the engine seed each output row with the
  // partial sum over one half and let tensor::Gemm(accumulate=true) continue
  // the SAME k-ascending accumulation over the other half — the per-element
  // float chain is unchanged, so this is a 0-ULP-preserving rewrite. For the
  // attention score layer the left half is the item embedding, so its partial
  // sums (`attn_item_prefix`, one row per catalog item) are item-only and are
  // cached across every group and request at a given parameter version.
  struct SplitWeights {
    tensor::Matrix attn_w_top, attn_w_bot;  // group_pool score_hidden halves
    tensor::Matrix attn_item_prefix;        // num_items x attention_hidden
    tensor::Matrix user_w_top, user_w_bot;  // user tower layer-0 halves
    tensor::Matrix latent_w_top, latent_w_bot;  // latent tower layer-0 halves
    tensor::Matrix group_w_top, group_w_bot;  // group tower layer-0 halves
  };
  SplitWeights BuildSplitWeights() const;

  // Index plus the derived centroid scoring tables.
  struct IvfState {
    ItemIndex index;
    tensor::Matrix centroid_table;    // ListMeans over the item embeddings
    tensor::Matrix centroid_prefix;   // Gemm(centroid_table, attn_w_top)
    tensor::Matrix centroid_latents;  // ListMeans over item_space, or empty
  };
  IvfState BuildIvfState(const ItemIndexConfig& config,
                         const SplitWeights& sw) const;
  QuantState BuildQuantState() const;

  // A derived state cached per parameter version: built on first use after a
  // Reset and shared across threads; concurrent misses build identical
  // states and the first to publish wins. Lock order: engine cache -> slot.
  template <typename T>
  class VersionedSlot {
   public:
    template <typename Build>
    std::shared_ptr<const T> GetOrBuild(const Build& build) {
      {
        std::shared_lock<DebugSharedMutex> lock(mu_);
        if (value_ != nullptr) return value_;
      }
      auto built = std::make_shared<const T>(build());
      std::unique_lock<DebugSharedMutex> lock(mu_);
      if (value_ == nullptr) value_ = std::move(built);
      return value_;
    }
    void Reset() {
      std::unique_lock<DebugSharedMutex> lock(mu_);
      value_.reset();
    }

   private:
    mutable DebugSharedMutex mu_{"core.engine_slot"};
    std::shared_ptr<const T> value_ GROUPSA_GUARDED_BY(mu_);
  };
  std::shared_ptr<const SplitWeights> GetSplitWeights();
  std::shared_ptr<const IvfState> GetIvfState();

  // ---------------- The retrieval pipeline --------------------------------
  // A prepared request. A user query holds one UserRep; the fast path's
  // member average one per member (its scores are their rows summed in
  // member order and divided by n); a group query (cached or ad-hoc) none.
  struct Query {
    std::vector<UserRep> users;
    GroupRep group;
    std::shared_ptr<const SplitWeights> sw;
  };
  // `quantized` takes reps from the int8 cache, dequantized, instead of the
  // FP32 cache; ad-hoc member lists have no key and are built per request.
  Query UsersQuery(const std::vector<data::UserId>& users, bool quantized);
  Query GroupQuery(data::GroupId group, bool quantized);
  Query MembersQuery(const std::vector<data::UserId>& members);

  // The item-side tables ScoreRows reads: the live catalog or the IVF
  // pseudo-items. `latents` may be null (latent rows fall back to `items`,
  // the Group-I behaviour); `attn_prefix` holds Gemm(*items, attn_w_top).
  struct Side {
    const tensor::Matrix* items;
    const tensor::Matrix* latents;
    const tensor::Matrix* attn_prefix;
  };
  // The item-space latent table when user modeling carries one, else null.
  const tensor::Matrix* ModelLatentTable() const;

  // Exact tower scores of rows `ids` of `side`: of catalog items, or of
  // every IVF pseudo-item (the coarse stage).
  std::vector<double> ScoreRows(const Query& q, const Side& side,
                                const std::vector<data::ItemId>& ids) const;
  std::vector<double> ScoreCatalog(const Query& q,
                                   const std::vector<data::ItemId>& ids) const;
  std::vector<double> CentroidScores(const Query& q, const IvfState& ivf) const;
  // int8 scan scores of catalog rows `ids`; ranking-only values.
  std::vector<double> Scan(const Query& q, const QuantState& qs,
                           const std::vector<data::ItemId>& ids) const;
  // Candidates -> optional int8 scan + max(k, rerank_k) shortlist -> exact
  // re-rank -> top k, under the current topk/score modes.
  std::vector<std::pair<data::ItemId, double>> Retrieve(
      const Query& q, int k, std::function<bool(data::ItemId)> skip);
  // The skip filter of an ad-hoc member list over a user-row matrix: an
  // item is skipped when ANY member has observed it.
  static std::function<bool(data::ItemId)> AnyMemberSaw(
      const std::vector<data::UserId>& members,
      const data::InteractionMatrix* exclude);

  // The per-kind math behind ScoreRows and Scan.
  std::vector<double> ScoreBatchUser(const UserRep& rep,
                                     const std::vector<data::ItemId>& items,
                                     const SplitWeights& sw,
                                     const Side& side) const;
  std::vector<double> ScoreBatchGroup(const GroupRep& rep,
                                      const std::vector<data::ItemId>& items,
                                      const SplitWeights& sw,
                                      const Side& side) const;
  std::vector<double> ApproxScoresUser(
      const UserRep& rep, const QuantState& qs,
      const std::vector<data::ItemId>& items) const;
  std::vector<double> ApproxScoresGroup(
      const GroupRep& rep, const QuantState& qs,
      const std::vector<data::ItemId>& items) const;

  // The one rep-cache lookup path: the rep of `key` from the FP32 cache or,
  // quantized, from the int8 cache (which int8 mode fills instead of the
  // FP32 one: the memory win), built and inserted on a miss.
  template <typename Rep, typename Key, typename Build>
  Rep CachedRep(std::unordered_map<Key, Rep>* fp32,
                std::unordered_map<Key, QuantRep>* int8, Key key,
                bool quantized, const Build& build);

  // Drops all caches when the parameter version moved; returns the current
  // version.
  uint64_t Revalidate();
  void DropCaches() GROUPSA_REQUIRES(mu_);

  // Request validation behind the Status entry points.
  Status ValidateUser(data::UserId user) const;
  Status ValidateGroup(data::GroupId group) const;
  Status ValidateMembers(const std::vector<data::UserId>& members) const;
  Status ValidateItems(const std::vector<data::ItemId>& items) const;
  Status ValidateK(int k) const;

  GroupSaModel* const model_;
  // Flattened parameter tensors, captured once (parameter identity is fixed
  // after model construction; only values change).
  std::vector<ag::TensorPtr> params_ GROUPSA_NOT_GUARDED(
      "immutable after ctor");

  mutable DebugSharedMutex mu_{"core.engine_cache"};
  uint64_t cache_version_ GROUPSA_GUARDED_BY(mu_) = 0;
  std::unordered_map<data::UserId, UserRep> user_cache_
      GROUPSA_GUARDED_BY(mu_);
  std::unordered_map<data::GroupId, GroupRep> group_cache_
      GROUPSA_GUARDED_BY(mu_);
  std::unordered_map<data::UserId, QuantRep> user_q_cache_
      GROUPSA_GUARDED_BY(mu_);
  std::unordered_map<data::GroupId, QuantRep> group_q_cache_
      GROUPSA_GUARDED_BY(mu_);
  TopKMode topk_mode_ GROUPSA_GUARDED_BY(mu_) = TopKMode::kExact;
  ItemIndexConfig index_config_ GROUPSA_GUARDED_BY(mu_);
  ScoreMode score_mode_ GROUPSA_GUARDED_BY(mu_) = ScoreMode::kExact;
  Int8Config int8_config_ GROUPSA_GUARDED_BY(mu_);
  // Reset on version change (and the IVF state on set_index_config).
  VersionedSlot<SplitWeights> split_ GROUPSA_NOT_GUARDED("self-locking");
  VersionedSlot<IvfState> ivf_ GROUPSA_NOT_GUARDED("self-locking");
  VersionedSlot<QuantState> quant_ GROUPSA_NOT_GUARDED("self-locking");
};

}  // namespace groupsa::core

#endif  // GROUPSA_CORE_INFERENCE_ENGINE_H_
