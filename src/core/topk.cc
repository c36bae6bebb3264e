#include "core/topk.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"

namespace groupsa::core {
namespace {

// Cuts `ranked` to its top k under BetterRanked and returns the survivors
// sorted. The nth_element cut and the final sort share the comparator, so
// the two code paths (k < size vs k >= size) produce identical orderings on
// ties. The survivors are copied out, so the answer holds at most k entries
// of capacity rather than the whole scored range.
std::vector<std::pair<data::ItemId, double>> CutAndSort(
    std::vector<std::pair<data::ItemId, double>>* ranked, int k) {
  if (static_cast<int>(ranked->size()) > k) {
    std::nth_element(ranked->begin(), ranked->begin() + k, ranked->end(),
                     BetterRanked);
    ranked->resize(static_cast<size_t>(k));
  }
  std::vector<std::pair<data::ItemId, double>> out(ranked->begin(),
                                                   ranked->end());
  std::sort(out.begin(), out.end(), BetterRanked);
  return out;
}

}  // namespace

bool BetterRanked(const std::pair<data::ItemId, double>& a,
                  const std::pair<data::ItemId, double>& b) {
  if (a.second > b.second) return true;
  if (a.second < b.second) return false;
  // Equal scores, or a NaN on either side. NaN ranks after every number
  // (-inf included) and ties with NaN; without this a NaN would compare
  // "equivalent" to every score, which is not a strict weak order, and
  // nth_element/sort would have undefined behaviour.
  const bool a_nan = std::isnan(a.second);
  const bool b_nan = std::isnan(b.second);
  if (a_nan != b_nan) return b_nan;
  return a.first < b.first;
}

std::vector<std::pair<data::ItemId, double>> TopKItems(
    const std::vector<double>& scores, int k,
    const std::function<bool(data::ItemId)>& skip) {
  std::vector<std::pair<data::ItemId, double>> ranked;
  if (k <= 0) return ranked;
  ranked.reserve(scores.size());
  for (size_t v = 0; v < scores.size(); ++v) {
    const auto item = static_cast<data::ItemId>(v);
    if (skip != nullptr && skip(item)) continue;
    ranked.emplace_back(item, scores[v]);
  }
  return CutAndSort(&ranked, k);
}

std::vector<std::pair<data::ItemId, double>> TopKItems(
    const std::vector<data::ItemId>& items, const std::vector<double>& scores,
    int k, const std::function<bool(data::ItemId)>& skip) {
  GROUPSA_CHECK(items.size() == scores.size(),
                "TopKItems subset: items/scores size mismatch");
  std::vector<std::pair<data::ItemId, double>> ranked;
  if (k <= 0) return ranked;
  ranked.reserve(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    if (skip != nullptr && skip(items[i])) continue;
    ranked.emplace_back(items[i], scores[i]);
  }
  return CutAndSort(&ranked, k);
}

std::vector<data::ItemId> AllItems(int num_items) {
  std::vector<data::ItemId> items(num_items);
  for (int v = 0; v < num_items; ++v) items[v] = v;
  return items;
}

}  // namespace groupsa::core
