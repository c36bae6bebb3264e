#ifndef GROUPSA_CORE_FAST_RECOMMENDER_H_
#define GROUPSA_CORE_FAST_RECOMMENDER_H_

#include <utility>
#include <vector>

#include "common/status.h"
#include "core/groupsa_model.h"
#include "data/interaction_matrix.h"

namespace groupsa::core {

// Fast group recommendation (Sec. II-F): instead of running the multi-layer
// voting network per candidate item, score each member individually with the
// blended user score (Eq. 23) and average — a time/accuracy trade-off for
// large groups. The member embeddings already carry group-mate interests
// through joint training, which is why this stays competitive.
//
// The member average is a query kind of the model's InferenceEngine and
// retrieves under the engine's modes: IVF probes and the int8 shortlist rank
// the members' averaged centroid and scan scores.
class FastGroupRecommender {
 public:
  // `model` must outlive the recommender.
  explicit FastGroupRecommender(GroupSaModel* model) : model_(model) {}

  // Average-of-member-scores for an ad-hoc member list.
  std::vector<double> ScoreItemsForMembers(
      const std::vector<data::UserId>& members,
      const std::vector<data::ItemId>& items) const;

  // Top-K over the full catalog. `exclude` is a user-row interaction matrix
  // (the members are ad-hoc, so there is no group row to consult): when
  // non-null, an item is filtered as soon as ANY member has observed it.
  std::vector<std::pair<data::ItemId, double>> RecommendForMembers(
      const std::vector<data::UserId>& members, int k,
      const data::InteractionMatrix* exclude = nullptr) const;

  // Validated variants: empty member lists, out-of-range member/item ids and
  // non-positive k come back as an error Status instead of a CHECK-abort.
  Status ScoreItemsForMembers(const std::vector<data::UserId>& members,
                              const std::vector<data::ItemId>& items,
                              std::vector<double>* scores) const;
  Status RecommendForMembers(
      const std::vector<data::UserId>& members, int k,
      const data::InteractionMatrix* exclude,
      std::vector<std::pair<data::ItemId, double>>* out) const;

 private:
  GroupSaModel* model_;
};

}  // namespace groupsa::core

#endif  // GROUPSA_CORE_FAST_RECOMMENDER_H_
