// Serving daemon behavior: request pipeline parity against direct
// InferenceEngine calls, admission control (shed and reject policies),
// failpoint-driven degradation, hot reload semantics, and
// drain-on-shutdown. The stress/soak suite lives in stress_test.cc; this
// file pins down each mechanism deterministically.

#include "serve/server.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "nn/checkpoint.h"
#include "serve/harness.h"
#include "serve_test_util.h"

namespace groupsa::serve {
namespace {

using serve::testing::ServeRig;

bool BitIdenticalItems(
    const std::vector<std::pair<data::ItemId, double>>& a,
    const std::vector<std::pair<data::ItemId, double>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].first != b[i].first) return false;
    if (std::memcmp(&a[i].second, &b[i].second, sizeof(double)) != 0)
      return false;
  }
  return true;
}

class ServerTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::DisarmAll(); }
};

TEST_F(ServerTest, PipelineMatchesDirectEngineBitForBit) {
  ServeConfig sc;
  sc.workers = 2;
  ServeRig rig(sc);
  ASSERT_TRUE(rig.server->Start().ok());

  const std::vector<Request> schedule =
      BuildSchedule(rig.Schedule(/*num_requests=*/40, /*seed=*/3));
  for (const Request& request : schedule) {
    const Response response = rig.server->Call(request);
    EXPECT_FALSE(response.degraded);
    EXPECT_FALSE(response.shed);
    EXPECT_FALSE(response.rejected);
    EXPECT_EQ(response.generation, 1u);
    EXPECT_TRUE(BitIdenticalItems(response.items, rig.Direct(request)))
        << FormatRequest(request);
  }
  rig.server->Stop();
  const ServerStats stats = rig.server->stats();
  EXPECT_EQ(stats.submitted, 40);
  EXPECT_EQ(stats.admitted, 40);
  EXPECT_EQ(stats.completed, 40);
  EXPECT_EQ(stats.shed, 0);
  EXPECT_EQ(stats.degraded, 0);
}

TEST_F(ServerTest, PausedServerShedsBeyondQueueDepthAndDrainsOnResume) {
  ServeConfig sc;
  sc.workers = 1;
  sc.queue_depth = 3;
  ServeRig rig(sc);
  ASSERT_TRUE(rig.server->Start().ok());
  rig.server->Pause();

  Request request;
  request.kind = Request::Kind::kUser;
  request.user = 1;
  request.k = 4;
  std::vector<std::future<Response>> queued;
  for (int i = 0; i < 3; ++i) queued.push_back(rig.server->Submit(request));

  // Depth 3 reached: the fourth submit sheds to popularity on this thread.
  const Response shed = rig.server->Call(request);
  EXPECT_TRUE(shed.shed);
  EXPECT_TRUE(shed.degraded);
  EXPECT_EQ(shed.error, "admission queue full");
  ASSERT_EQ(shed.items.size(), 4u);

  // Queued requests are parked, not answered.
  for (auto& f : queued)
    EXPECT_EQ(f.wait_for(std::chrono::milliseconds(0)),
              std::future_status::timeout);

  rig.server->Resume();
  for (auto& f : queued) {
    const Response r = f.get();
    EXPECT_FALSE(r.degraded);
    EXPECT_TRUE(BitIdenticalItems(r.items, rig.Direct(request)));
  }
  rig.server->Stop();
  const ServerStats stats = rig.server->stats();
  EXPECT_EQ(stats.submitted, 4);
  EXPECT_EQ(stats.admitted, 3);
  EXPECT_EQ(stats.shed, 1);
  EXPECT_EQ(stats.completed, 3);
  EXPECT_EQ(stats.peak_queue_depth, 3);
}

TEST_F(ServerTest, RejectPolicyAnswersWithoutRanking) {
  ServeConfig sc;
  sc.workers = 1;
  sc.queue_depth = 1;
  sc.overload = ServeConfig::OverloadPolicy::kReject;
  ServeRig rig(sc);
  ASSERT_TRUE(rig.server->Start().ok());
  rig.server->Pause();

  Request request;
  request.kind = Request::Kind::kGroup;
  request.group = 0;
  request.k = 2;
  std::future<Response> queued = rig.server->Submit(request);
  const Response rejected = rig.server->Call(request);
  EXPECT_TRUE(rejected.rejected);
  EXPECT_FALSE(rejected.shed);
  EXPECT_TRUE(rejected.items.empty());
  EXPECT_EQ(rejected.error, "admission queue full");

  rig.server->Resume();
  EXPECT_FALSE(queued.get().degraded);
  rig.server->Stop();
  EXPECT_EQ(rig.server->stats().rejected, 1);
}

TEST_F(ServerTest, WorkerFailpointDegradesThatResponseOnly) {
  ServeConfig sc;
  sc.workers = 1;
  ServeRig rig(sc);
  ASSERT_TRUE(rig.server->Start().ok());
  ASSERT_TRUE(failpoint::Arm("serve.worker=error@2"));

  Request request;
  request.kind = Request::Kind::kUser;
  request.user = 2;
  request.k = 3;
  const Response first = rig.server->Call(request);
  EXPECT_FALSE(first.degraded);

  const Response second = rig.server->Call(request);
  EXPECT_TRUE(second.degraded);
  EXPECT_FALSE(second.shed);
  EXPECT_EQ(second.error, "injected fault at serve.worker");
  ASSERT_EQ(second.items.size(), 3u);  // popularity still ranks

  const Response third = rig.server->Call(request);
  EXPECT_FALSE(third.degraded);
  EXPECT_TRUE(BitIdenticalItems(third.items, rig.Direct(request)));
  rig.server->Stop();
  EXPECT_EQ(rig.server->stats().degraded, 1);
  EXPECT_EQ(rig.server->stats().completed, 3);
}

TEST_F(ServerTest, SubmitFailpointRejectsBeforeTheQueue) {
  ServeConfig sc;
  ServeRig rig(sc);
  ASSERT_TRUE(rig.server->Start().ok());
  ASSERT_TRUE(failpoint::Arm("serve.submit=error@1"));

  Request request;
  const Response r = rig.server->Call(request);
  EXPECT_TRUE(r.rejected);
  EXPECT_EQ(r.error, "injected fault at serve.submit");
  rig.server->Stop();
  const ServerStats stats = rig.server->stats();
  EXPECT_EQ(stats.rejected, 1);
  EXPECT_EQ(stats.admitted, 0);
}

TEST_F(ServerTest, ReloadSwapsGenerationWithIdenticalScores) {
  ServeConfig sc;
  sc.workers = 2;
  ServeRig rig(sc);
  ASSERT_TRUE(rig.server->Start().ok());
  EXPECT_EQ(rig.server->generation(), 1u);

  Request request;
  request.kind = Request::Kind::kMembers;
  request.members = {1, 3, 5};
  request.k = 5;
  const Response before = rig.server->Call(request);
  ASSERT_TRUE(rig.server->Reload("<in-memory>").ok());
  EXPECT_EQ(rig.server->generation(), 2u);
  const Response after = rig.server->Call(request);

  EXPECT_EQ(before.generation, 1u);
  EXPECT_EQ(after.generation, 2u);
  // The factory rebuilds identical parameters, so the swap must be
  // invisible in the scores: bit-identical across generations.
  EXPECT_TRUE(BitIdenticalItems(before.items, after.items));
  rig.server->Stop();
  EXPECT_EQ(rig.server->stats().reloads, 1);
}

TEST_F(ServerTest, FailedReloadKeepsTheOldGenerationServing) {
  ServeConfig sc;
  ServeRig rig(sc);
  ASSERT_TRUE(rig.server->Start().ok());
  ASSERT_TRUE(failpoint::Arm("serve.reload.build=error"));

  const Status s = rig.server->Reload("<in-memory>");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(rig.server->generation(), 1u);

  Request request;
  request.kind = Request::Kind::kUser;
  request.user = 0;
  request.k = 2;
  const Response r = rig.server->Call(request);
  EXPECT_FALSE(r.degraded);
  EXPECT_EQ(r.generation, 1u);
  rig.server->Stop();
  const ServerStats stats = rig.server->stats();
  EXPECT_EQ(stats.reloads, 0);
  EXPECT_EQ(stats.failed_reloads, 1);
}

TEST_F(ServerTest, ReloadOfANonFiniteCheckpointKeepsTheOldGeneration) {
  // A CRC-valid checkpoint holding a NaN weight (what a diverged run
  // writes): the reload must fail at load, naming the parameter, and the
  // old generation must keep answering exactly as before.
  ServeConfig sc;
  sc.workers = 2;
  ServeRig rig(sc);
  const std::string dir = ::testing::TempDir();
  const std::string good = dir + "/serve_finite.ckpt";
  const std::string poisoned = dir + "/serve_nan.ckpt";
  ASSERT_TRUE(nn::SaveParameters(rig.oracle->Parameters(), good).ok());
  auto diverged = rig.fixture.MakeModel(rig.config, ServeRig::kModelSeed);
  const nn::ParamEntry victim = diverged->Parameters().front();
  victim.tensor->mutable_value().At(0, 0) =
      std::numeric_limits<float>::quiet_NaN();
  ASSERT_TRUE(nn::SaveParameters(diverged->Parameters(), poisoned).ok());

  Server::ModelFactory factory =
      [&rig](const std::string& path,
             std::unique_ptr<core::GroupSaModel>* out) -> Status {
    auto model = rig.fixture.MakeModel(rig.config, /*seed=*/99);
    GROUPSA_RETURN_IF_ERROR(nn::LoadParameters(model->Parameters(), path));
    *out = std::move(model);
    return Status::Ok();
  };
  Server server(sc, std::move(factory), good, rig.fixture.ui.train,
                rig.fixture.world.dataset.num_users,
                rig.fixture.world.dataset.groups.num_groups(),
                rig.fixture.world.dataset.num_items, &rig.fixture.ui_train,
                &rig.fixture.gi_train);
  ASSERT_TRUE(server.Start().ok());
  Request request;
  request.kind = Request::Kind::kUser;
  request.user = 4;
  request.k = 5;
  const Response before = server.Call(request);
  EXPECT_TRUE(BitIdenticalItems(before.items, rig.Direct(request)));

  const Status s = server.Reload(poisoned);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("non-finite"), std::string::npos) << s.message();
  EXPECT_NE(s.message().find(victim.name), std::string::npos) << s.message();
  EXPECT_EQ(server.generation(), 1u);
  for (int i = 0; i < 3; ++i) {
    const Response after = server.Call(request);
    EXPECT_FALSE(after.degraded);
    EXPECT_EQ(after.generation, 1u);
    EXPECT_TRUE(BitIdenticalItems(after.items, before.items));
  }
  server.Stop();
  EXPECT_EQ(server.stats().reloads, 0);
  EXPECT_EQ(server.stats().failed_reloads, 1);
}

TEST_F(ServerTest, NonFiniteItemTableFailsTheGenerationBuild) {
  // A factory that loads a finite checkpoint and then sets a NaN in memory
  // (which checkpoint load cannot see): the generation build must refuse it,
  // naming the table, before the IVF build or the int8 quantizer runs, and
  // the old generation must keep answering exactly as before.
  ServeConfig sc;
  sc.workers = 2;
  sc.topk = core::TopKMode::kIvf;
  sc.score = core::ScoreMode::kInt8;
  ServeRig rig(sc);
  const std::string good = ::testing::TempDir() + "/serve_table.ckpt";
  ASSERT_TRUE(nn::SaveParameters(rig.oracle->Parameters(), good).ok());

  std::string poison;  // name of the parameter to poison; empty = none
  Server::ModelFactory factory =
      [&rig, &poison](const std::string& path,
                      std::unique_ptr<core::GroupSaModel>* out) -> Status {
    auto model = rig.fixture.MakeModel(rig.config, /*seed=*/99);
    GROUPSA_RETURN_IF_ERROR(nn::LoadParameters(model->Parameters(), path));
    for (const nn::ParamEntry& p : model->Parameters()) {
      if (p.name == poison)
        p.tensor->mutable_value().At(1, 2) =
            std::numeric_limits<float>::quiet_NaN();
    }
    *out = std::move(model);
    return Status::Ok();
  };
  Server server(sc, std::move(factory), good, rig.fixture.ui.train,
                rig.fixture.world.dataset.num_users,
                rig.fixture.world.dataset.groups.num_groups(),
                rig.fixture.world.dataset.num_items, &rig.fixture.ui_train,
                &rig.fixture.gi_train);
  ASSERT_TRUE(server.Start().ok());
  Request request;
  request.kind = Request::Kind::kMembers;
  request.members = {1, 4};
  request.k = 5;
  const Response before = server.Call(request);
  EXPECT_FALSE(before.degraded);
  ASSERT_FALSE(before.items.empty());

  // The item embedding, and the item-space latent table when the model
  // has one of its own.
  const core::UserModeling* um = rig.oracle->user_modeling();
  std::vector<std::string> tables;
  for (const nn::ParamEntry& p : rig.oracle->Parameters()) {
    if (p.tensor == rig.oracle->item_embedding().table() ||
        (um != nullptr && um->has_item_space() &&
         p.tensor == um->item_space()->table()))
      tables.push_back(p.name);
  }
  ASSERT_FALSE(tables.empty());
  int64_t failed = 0;
  for (const std::string& table : tables) {
    SCOPED_TRACE(table);
    poison = table;
    const Status s = server.Reload(good);
    ++failed;
    ASSERT_FALSE(s.ok());
    EXPECT_NE(s.message().find("non-finite"), std::string::npos)
        << s.message();
    EXPECT_NE(s.message().find(table), std::string::npos) << s.message();
    EXPECT_EQ(server.generation(), 1u);
    const Response after = server.Call(request);
    EXPECT_FALSE(after.degraded);
    EXPECT_EQ(after.generation, 1u);
    EXPECT_TRUE(BitIdenticalItems(after.items, before.items));
    EXPECT_EQ(server.stats().failed_reloads, failed);
  }

  poison.clear();
  ASSERT_TRUE(server.Reload(good).ok());
  EXPECT_EQ(server.generation(), 2u);
  server.Stop();
  EXPECT_EQ(server.stats().reloads, 1);
}

TEST_F(ServerTest, NullModelGenerationServesPopularityOnly) {
  ServeConfig sc;
  ServeRig rig(sc, /*factory_yields_null_model=*/true);
  ASSERT_TRUE(rig.server->Start().ok());

  Request request;
  request.kind = Request::Kind::kUser;
  request.user = 1;
  request.k = 5;
  const Response r = rig.server->Call(request);
  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(r.error, "model unavailable");
  EXPECT_EQ(r.items.size(), 5u);
  rig.server->Stop();
  EXPECT_EQ(rig.server->stats().degraded, 1);
}

TEST_F(ServerTest, StopDrainsQueuedRequestsAndLaterSubmitsReject) {
  ServeConfig sc;
  sc.workers = 1;
  sc.queue_depth = 8;
  ServeRig rig(sc);
  ASSERT_TRUE(rig.server->Start().ok());
  rig.server->Pause();

  Request request;
  request.kind = Request::Kind::kGroup;
  request.group = 1;
  request.k = 3;
  std::vector<std::future<Response>> queued;
  for (int i = 0; i < 5; ++i) queued.push_back(rig.server->Submit(request));

  // Stop() must answer all five (drain), not drop them.
  rig.server->Stop();
  for (auto& f : queued) {
    const Response r = f.get();
    EXPECT_FALSE(r.rejected);
    EXPECT_TRUE(BitIdenticalItems(r.items, rig.Direct(request)));
  }

  const Response late = rig.server->Call(request);
  EXPECT_TRUE(late.rejected);
  EXPECT_EQ(late.error, "server not running");

  const ServerStats stats = rig.server->stats();
  EXPECT_EQ(stats.admitted, 5);
  EXPECT_EQ(stats.completed, 5);
  EXPECT_EQ(stats.rejected, 1);
}

TEST_F(ServerTest, InvalidRequestIsRejectedAtTheDoorWithAReason) {
  ServeConfig sc;
  ServeRig rig(sc);
  ASSERT_TRUE(rig.server->Start().ok());

  Request request;
  request.kind = Request::Kind::kUser;
  request.user = 999999;  // far out of range
  request.k = 4;
  const Response r = rig.server->Call(request);
  EXPECT_TRUE(r.rejected);
  EXPECT_FALSE(r.degraded);
  EXPECT_TRUE(r.items.empty());
  EXPECT_NE(r.error.find("out of range"), std::string::npos) << r.error;
  const ServerStats stats = rig.server->stats();
  EXPECT_EQ(stats.invalid, 1);
  EXPECT_EQ(stats.rejected, 1);
  rig.server->Stop();
}

TEST_F(ServerTest, ScheduleIsDeterministicPerSeed) {
  ServeConfig sc;
  ServeRig rig(sc);
  const ScheduleConfig a = rig.Schedule(50, 9);
  const std::vector<Request> one = BuildSchedule(a);
  const std::vector<Request> two = BuildSchedule(a);
  ASSERT_EQ(one.size(), two.size());
  for (size_t i = 0; i < one.size(); ++i)
    EXPECT_EQ(FormatRequest(one[i]), FormatRequest(two[i]));

  ScheduleConfig b = a;
  b.seed = 10;
  const std::vector<Request> other = BuildSchedule(b);
  bool any_different = false;
  for (size_t i = 0; i < one.size(); ++i)
    any_different = any_different ||
                    FormatRequest(one[i]) != FormatRequest(other[i]);
  EXPECT_TRUE(any_different);
}

}  // namespace
}  // namespace groupsa::serve
