// Tests for the core module: cluster configuration (region latency
// presets, cluster codes), cluster wiring, version garbage collection.
#include <gtest/gtest.h>

#include "core/cluster.h"
#include "core/config.h"
#include "sim/coro.h"
#include "txn/txn.h"

namespace paxoscp::core {
namespace {

TEST(ConfigTest, RegionCodesRoundTrip) {
  for (Region region :
       {Region::kVirginia, Region::kOregon, Region::kCalifornia}) {
    Result<Region> parsed = RegionFromCode(RegionCode(region));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, region);
  }
  EXPECT_FALSE(RegionFromCode('X').ok());
}

TEST(ConfigTest, PaperRtts) {
  EXPECT_EQ(RegionRtt(Region::kVirginia, Region::kVirginia), 1500);
  EXPECT_EQ(RegionRtt(Region::kVirginia, Region::kOregon),
            90 * kMillisecond);
  EXPECT_EQ(RegionRtt(Region::kVirginia, Region::kCalifornia),
            90 * kMillisecond);
  EXPECT_EQ(RegionRtt(Region::kOregon, Region::kCalifornia),
            20 * kMillisecond);
  EXPECT_EQ(RegionRtt(Region::kCalifornia, Region::kOregon),
            20 * kMillisecond);
}

TEST(ConfigTest, FromCodeBuildsDatacenters) {
  Result<ClusterConfig> config = ClusterConfig::FromCode("VOC");
  ASSERT_TRUE(config.ok());
  ASSERT_EQ(config->num_datacenters(), 3);
  EXPECT_EQ(config->datacenters[0].region, Region::kVirginia);
  EXPECT_EQ(config->datacenters[1].region, Region::kOregon);
  EXPECT_EQ(config->datacenters[2].region, Region::kCalifornia);
  EXPECT_TRUE(ClusterConfig::FromCode("voc").ok());  // case-insensitive
}

TEST(ConfigTest, FromCodeRejectsInvalid) {
  EXPECT_FALSE(ClusterConfig::FromCode("").ok());
  EXPECT_FALSE(ClusterConfig::FromCode("VXW").ok());
}

TEST(ConfigTest, RttMatrixIsSymmetricWithIntraDcDiagonal) {
  ClusterConfig config = *ClusterConfig::FromCode("VOC");
  auto rtt = config.RttMatrix();
  ASSERT_EQ(rtt.size(), 3u);
  for (int a = 0; a < 3; ++a) {
    EXPECT_EQ(rtt[a][a], kIntraDatacenterRtt);
    for (int b = 0; b < 3; ++b) {
      EXPECT_EQ(rtt[a][b], rtt[b][a]);
    }
  }
  EXPECT_EQ(rtt[0][1], 90 * kMillisecond);
  EXPECT_EQ(rtt[1][2], 20 * kMillisecond);
}

TEST(ClusterTest, WiringExposesAllComponents) {
  ClusterConfig config = *ClusterConfig::FromCode("VVV");
  config.seed = 4;
  Cluster cluster(config);
  EXPECT_EQ(cluster.num_datacenters(), 3);
  EXPECT_NE(cluster.simulator(), nullptr);
  EXPECT_NE(cluster.network(), nullptr);
  for (DcId dc = 0; dc < 3; ++dc) {
    EXPECT_NE(cluster.store(dc), nullptr);
    EXPECT_NE(cluster.service(dc), nullptr);
    EXPECT_EQ(cluster.service(dc)->dc(), dc);
  }
}

TEST(ClusterTest, SeedsAreDeterministic) {
  ClusterConfig config = *ClusterConfig::FromCode("VV");
  config.seed = 4;
  Cluster a(config), b(config);
  EXPECT_EQ(a.NextSeed(), b.NextSeed());
  EXPECT_EQ(a.NextSeed(), b.NextSeed());
}

TEST(ClusterTest, LoadInitialRowReachesEveryReplica) {
  ClusterConfig config = *ClusterConfig::FromCode("VVV");
  config.seed = 4;
  Cluster cluster(config);
  ASSERT_TRUE(cluster.LoadInitialRow("g", "r", {{"a", "seed"}}).ok());
  for (DcId dc = 0; dc < 3; ++dc) {
    wal::ItemRead read =
        cluster.service(dc)->GroupLog("g")->ReadItem({"r", "a"}, 0);
    EXPECT_TRUE(read.found) << "dc " << dc;
    EXPECT_EQ(read.value, "seed");
  }
}

sim::Task CommitN(txn::Session* session, int n, int* committed) {
  for (int i = 0; i < n; ++i) {
    txn::Txn txn = co_await session->Begin("g");
    if (!txn.active()) continue;
    (void)txn.Write("r", "a", std::to_string(i));
    txn::CommitResult result = co_await txn.Commit();
    if (result.committed) ++*committed;
  }
}

TEST(ClusterTest, VersionGarbageCollectionPreservesWatermarkSnapshot) {
  // After many commits, truncate old row versions below the applied
  // watermark; reads at or above the watermark still work.
  ClusterConfig config = *ClusterConfig::FromCode("VVV");
  config.seed = 4;
  Cluster cluster(config);
  ASSERT_TRUE(cluster.LoadInitialRow("g", "r", {{"a", "0"}}).ok());
  txn::Session session = cluster.CreateSession(0);
  int committed = 0;
  CommitN(&session, 10, &committed);
  cluster.RunToCompletion();
  ASSERT_EQ(committed, 10);

  wal::WriteAheadLog* log = cluster.service(0)->GroupLog("g");
  // Application to data rows is lazy (a background process or a read
  // triggers it, paper §3.2); force it for the GC test.
  ASSERT_TRUE(log->ApplyThrough(log->MaxDecided()).ok());
  const LogPos applied = log->AppliedThrough();
  ASSERT_GE(applied, 5u);
  const std::string data_key = log->DataKey("r");
  const size_t before = cluster.store(0)->VersionCount(data_key);
  const size_t removed =
      cluster.store(0)->TruncateVersions(data_key, applied - 2);
  EXPECT_GT(removed, 0u);
  EXPECT_LT(cluster.store(0)->VersionCount(data_key), before);

  // Snapshot at the GC watermark still readable; older ones are gone.
  EXPECT_TRUE(log->ReadItem({"r", "a"}, applied - 2).found);
  EXPECT_TRUE(log->ReadItem({"r", "a"}, applied).found);
}

TEST(ClusterTest, ClientsGetUniqueTxnIds) {
  ClusterConfig config = *ClusterConfig::FromCode("VV");
  config.seed = 4;
  Cluster cluster(config);
  ASSERT_TRUE(cluster.LoadInitialRow("g", "r", {{"a", "0"}}).ok());
  txn::Session s1 = cluster.CreateSession(0);
  txn::Session s2 = cluster.CreateSession(0);  // same DC

  struct {
    sim::Task operator()(txn::Session* s, TxnId* id) {
      txn::Txn txn = co_await s->Begin("g");
      *id = txn.id();
      txn.Abort();
    }
  } grab;
  TxnId id1 = 0, id2 = 0;
  grab(&s1, &id1);
  grab(&s2, &id2);
  cluster.RunToCompletion();
  EXPECT_NE(id1, 0u);
  EXPECT_NE(id2, 0u);
  EXPECT_NE(id1, id2);
  EXPECT_EQ(TxnIdDc(id1), 0);
  EXPECT_EQ(TxnIdDc(id2), 0);
}

}  // namespace
}  // namespace paxoscp::core
