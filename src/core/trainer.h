#ifndef GROUPSA_CORE_TRAINER_H_
#define GROUPSA_CORE_TRAINER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "autograd/grad_shard.h"
#include "autograd/pool.h"
#include "autograd/tape.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/groupsa_model.h"
#include "data/negative_sampler.h"
#include "nn/optimizer.h"

namespace groupsa::core {

// Two-stage joint training (Sec. II-E): stage 1 optimizes the user-item BPR
// loss L_R (Eq. 24) over the user-item interactions (user modeling pulls in
// the social data); stage 2 fine-tunes the group task by optimizing L_G
// (Eq. 21) over the group-item interactions, starting from the stage-1
// embeddings (shared tables make the hand-off implicit).
//
// Every epoch runs the sharded minibatch path: each batch is cut into
// fixed-size shards, each shard builds its forward graph and runs its
// backward pass on a pool thread with a shard-local gradient sink
// (ag::GradShard) and a shard-local Rng stream keyed off (batch, shard).
// Shard gradients and losses are then reduced in shard order on the calling
// thread before the optimizer step. Because the shard structure, RNG
// streams and reduction order depend only on the data and the seed — never
// on the thread count — training is bit-identical at any pool width,
// including width 1.
//
// The per-shard machinery (tape, gradient sink, tensor pool, loss list) is
// persistent: each shard index owns a ShardContext reused batch after
// batch, so a steady-state batch performs no tensor, gradient-buffer or
// tape allocations (see DESIGN.md "Training memory architecture"). Pooling
// can be disabled per trainer (set_tensor_pooling) for parity testing and
// benchmarking; results are bit-identical either way.
class Trainer {
 public:
  // `user_train` / `group_train` are the training edges; `ui_observed` /
  // `gi_observed` the train-time interaction matrices used for negative
  // sampling. All referenced structures must outlive the trainer.
  Trainer(GroupSaModel* model, const data::EdgeList& user_train,
          const data::EdgeList& group_train,
          const data::InteractionMatrix* ui_observed,
          const data::InteractionMatrix* gi_observed, Rng* rng);

  struct EpochStats {
    double avg_loss = 0.0;
    double seconds = 0.0;
    int num_samples = 0;
    // Batches dropped by the divergence guard (non-finite loss/gradients).
    int skipped_batches = 0;
  };

  // Direct epoch calls (outside Fit) skip a batch whose loss or merged
  // gradients are non-finite — gradients dropped, no optimizer step,
  // counted in skipped_batches — but never abort or roll back; those are
  // Fit's, driven by its FitOptions.
  //
  // One pass over the user-item training edges (L_R).
  EpochStats RunUserEpoch();
  // One pass over the group-item training edges (L_G).
  EpochStats RunGroupEpoch();
  // One pass over the social edges (the user-user term of stage 1; see
  // GroupSaConfig::use_social_objective).
  EpochStats RunSocialEpoch();

  struct FitReport {
    std::vector<EpochStats> user_epochs;
    std::vector<EpochStats> group_epochs;
    double total_seconds = 0.0;
    int64_t skipped_batches = 0;  // total across all epochs
    int rollbacks = 0;            // snapshot rollbacks taken by the guard
    bool resumed = false;         // this Fit continued a ResumeFrom cursor
  };

  // Fault-tolerance knobs of Fit. Defaults run exactly the historical
  // schedule with the divergence guard armed and no snapshotting.
  struct FitOptions {
    bool verbose = false;

    // Crash-safe snapshotting: when non-empty, Fit atomically writes a full
    // TrainingState snapshot (parameters, Adam moments + step counters, RNG
    // stream, schedule cursor, config fingerprint) to this path after every
    // epoch unit, and additionally every `snapshot_every` batches when
    // snapshot_every > 0. A run killed at any point resumes from the last
    // snapshot via ResumeFrom() and finishes bit-identical to an
    // uninterrupted run — at any thread count.
    std::string snapshot_path;
    int snapshot_every = 0;

    // Divergence guard: a batch whose loss or merged gradients are
    // non-finite is skipped (gradients dropped, no optimizer step, counted
    // in skipped_batches). After more than `max_consecutive_bad`
    // consecutive bad batches Fit rolls back to the last snapshot (when
    // snapshot_path is set) at most `max_rollbacks` times, then fails.
    bool divergence_guard = true;
    int max_consecutive_bad = 3;
    int max_rollbacks = 2;
  };

  // Runs the full two-stage schedule from the model's config. Group-G
  // (use_user_task == false) skips stage 1 entirely. Continues from a
  // pending ResumeFrom() cursor when one is loaded.
  Status Fit(const FitOptions& options, FitReport* report);

  // Legacy entry point: no snapshotting, guard armed; CHECK-fails on the
  // (snapshot-less) divergence-abort path.
  FitReport Fit(bool verbose = false);

  // Loads a TrainingState snapshot written by Fit: restores parameters,
  // optimizer state and the RNG stream, verifies the config fingerprint,
  // and primes the next Fit call to continue from the saved cursor.
  //
  // Resume invariant: the snapshot stores the RNG state at the start of the
  // interrupted epoch unit plus the next batch ordinal. Fit re-derives the
  // epoch's shuffle from that state and fast-forwards the per-batch seed
  // draws, so the resumed stream — shuffle order, shard RNG streams,
  // negative samples, dropout — is the exact continuation of the
  // interrupted one, and the final checkpoint is byte-identical to an
  // uninterrupted run's.
  Status ResumeFrom(const std::string& path);

  // Tensor pooling toggle (default on). Off: every op output and workspace
  // is heap-allocated as before; training results are bit-identical either
  // way, which the parity test asserts.
  void set_tensor_pooling(bool on) { pooling_enabled_ = on; }
  bool tensor_pooling() const { return pooling_enabled_; }

  // Aggregate tensor-pool counters across all shard contexts; all monotone.
  // The steady-state allocation test asserts the created/bytes counters
  // stop moving once every shard has warmed its shapes.
  ag::TensorPool::Stats PoolStats() const;
  size_t num_shard_contexts() const { return shard_ctx_.size(); }

  // Fingerprint of everything a snapshot must agree on to be resumable:
  // the model config (minus the thread count — resume at any width is
  // bit-identical), dataset dimensions, training-edge counts and the
  // parameter inventory. Stored in every snapshot and verified by
  // ResumeFrom.
  uint64_t ConfigFingerprint() const;

 private:
  // Appends the loss tensor(s) of one training sample to `losses`, building
  // the forward graph on `tape` and drawing all randomness (negative
  // sampling, dropout) from `rng`.
  using SampleLossFn =
      std::function<void(ag::Tape* tape, int index, Rng* rng,
                         std::vector<ag::TensorPtr>* losses)>;

  // Shared sharded-minibatch engine behind the three epoch kinds.
  // `losses_per_sample` is the fixed number of loss terms `fn` appends per
  // sample (needed upfront to seed each shard's backward with 1/batch_loss
  // so per-sample gradients match the historical batch-mean scaling).
  EpochStats RunShardedEpoch(int num_samples, int losses_per_sample,
                             const SampleLossFn& fn);

  // The two-stage schedule flattened into a linear sequence of epoch units;
  // the snapshot cursor is an index into this sequence. `record` marks the
  // main user/group epochs that land in FitReport (social and interleaved
  // user passes do not, matching the historical report shape).
  struct ScheduleUnit {
    enum Kind { kSocial, kUser, kGroup };
    Kind kind;
    int display;  // 1-based epoch number within its stage, for logging
    bool record;
  };
  std::vector<ScheduleUnit> BuildSchedule() const;

  // Atomically writes a full TrainingState snapshot: sections "params"
  // (model parameters), "adam" (optimizer moments + step counters) and
  // "trainer" (config fingerprint, schedule cursor, in-epoch loss
  // accumulators, unit-start RNG state).
  Status WriteSnapshot(const std::string& path, int unit, int next_batch,
                       double acc_loss, int acc_losses,
                       const Rng::State& unit_start) const;

  // Divergence guard helpers: scan the merged gradients of the current
  // batch / drop them without stepping (dense grads zeroed, touched-row sets
  // cleared).
  bool GradientsFinite() const;
  void DropBatchGradients();

  // Everything one shard index needs across batches. Only the thread
  // running the shard touches it during the parallel region (the same
  // lock-free discipline GradShard always had); the calling thread reduces
  // the sink afterwards. Tape::Reset re-binds tape ownership to whichever
  // pool thread picks the shard up next batch.
  struct ShardContext {
    ag::Tape tape;
    std::unique_ptr<ag::GradShard> sink;
    ag::TensorPool pool;
    std::vector<ag::TensorPtr> losses;
  };

  GroupSaModel* model_;
  const data::EdgeList& user_train_;
  const data::EdgeList& group_train_;
  data::NegativeSampler user_negatives_;
  data::NegativeSampler group_negatives_;
  Rng* rng_;
  std::unique_ptr<nn::Adam> optimizer_;
  // GradShard registration of the model's parameters, built once.
  std::vector<ag::GradShard::ParamSlot> grad_slots_;
  // Persistent shard contexts, grown to the widest batch seen; index ==
  // shard index. shard_loss_ is the per-batch loss staging area, reused.
  std::vector<std::unique_ptr<ShardContext>> shard_ctx_;
  std::vector<float> shard_loss_;
  bool pooling_enabled_ = true;

  // Per-Fit context consumed by RunShardedEpoch (null outside Fit: direct
  // Run*Epoch calls run a skip-only guard with no snapshots, abort or
  // rollback).
  const FitOptions* fit_options_ = nullptr;
  int current_unit_ = 0;
  Rng::State unit_start_rng_{};
  // Resume fast-forward for the first unit after ResumeFrom: completed
  // batches whose RNG draws are burned without running them, plus the saved
  // in-epoch loss accumulators.
  int start_batch_ = 0;
  double start_loss_ = 0.0;
  int start_losses_ = 0;
  // Epoch -> Fit signals from the divergence guard.
  bool rollback_requested_ = false;
  Status epoch_error_;

  // Cursor loaded by ResumeFrom, consumed by the next Fit.
  bool has_resume_ = false;
  int resume_unit_ = 0;
  int resume_batch_ = 0;
  double resume_loss_ = 0.0;
  int resume_losses_ = 0;
  Rng::State resume_rng_{};
};

}  // namespace groupsa::core

#endif  // GROUPSA_CORE_TRAINER_H_
