#include "core/fast_recommender.h"

#include "core/inference_engine.h"

namespace groupsa::core {

std::vector<double> FastGroupRecommender::ScoreItemsForMembers(
    const std::vector<data::UserId>& members,
    const std::vector<data::ItemId>& items) const {
  InferenceEngine& engine = model_->inference();
  return engine.ScoreCatalog(engine.UsersQuery(members, /*quantized=*/false),
                             items);
}

std::vector<std::pair<data::ItemId, double>>
FastGroupRecommender::RecommendForMembers(
    const std::vector<data::UserId>& members, int k,
    const data::InteractionMatrix* exclude) const {
  InferenceEngine& engine = model_->inference();
  const bool int8 = engine.score_mode() == ScoreMode::kInt8;
  return engine.Retrieve(engine.UsersQuery(members, int8), k,
                         InferenceEngine::AnyMemberSaw(members, exclude));
}

Status FastGroupRecommender::ScoreItemsForMembers(
    const std::vector<data::UserId>& members,
    const std::vector<data::ItemId>& items,
    std::vector<double>* scores) const {
  const InferenceEngine& engine = model_->inference();
  GROUPSA_RETURN_IF_ERROR(engine.ValidateMembers(members));
  GROUPSA_RETURN_IF_ERROR(engine.ValidateItems(items));
  *scores = ScoreItemsForMembers(members, items);
  return Status::Ok();
}

Status FastGroupRecommender::RecommendForMembers(
    const std::vector<data::UserId>& members, int k,
    const data::InteractionMatrix* exclude,
    std::vector<std::pair<data::ItemId, double>>* out) const {
  const InferenceEngine& engine = model_->inference();
  GROUPSA_RETURN_IF_ERROR(engine.ValidateMembers(members));
  GROUPSA_RETURN_IF_ERROR(engine.ValidateK(k));
  *out = RecommendForMembers(members, k, exclude);
  return Status::Ok();
}

}  // namespace groupsa::core
