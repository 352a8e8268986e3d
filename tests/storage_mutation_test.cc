// Seeded storage mutation loop: single-bit flips in the stored images of
// a ReachGraph index and a delta-coded ReachGrid index, and bit flips and
// truncations of a contact WAL.
//
// The contracts under test:
//  * a query over a damaged image returns Corruption or the oracle's
//    answer — never a crash, never a wrong answer — whether the page's
//    checksum sidecar is left stale (the page layer must catch the flip)
//    or refreshed over the damage (only the blob footer can);
//  * `ContactWal::Replay` of a damaged log returns a prefix of the logged
//    records, never a record that was not logged.
//
// Plain loops over fixed seeds, no threads; the sanitizer builds run them
// like every other suite.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "engine/backends.h"
#include "engine/reachability_index.h"
#include "generators/datasets.h"
#include "generators/workload.h"
#include "join/contact_extractor.h"
#include "network/brute_force.h"
#include "network/contact_network.h"
#include "reachgraph/reach_graph_index.h"
#include "reachgrid/reach_grid_index.h"
#include "storage/page_codec.h"
#include "storage/storage_topology.h"
#include "stream/contact_wal.h"

namespace streach {
namespace {

/// The oracle's answers for one fixed query set over one dataset.
struct Oracle {
  std::vector<ReachQuery> queries;
  std::vector<ReachAnswer> answers;
  std::vector<ObjectId> sources;
  TimeInterval window;
  std::vector<std::vector<Timestamp>> closures;
};

Oracle MakeOracle(const ContactNetwork& network) {
  Oracle oracle;
  WorkloadParams wl;
  wl.num_queries = 24;
  wl.num_objects = network.num_objects();
  wl.span = network.span();
  wl.min_interval_len = 60;
  wl.max_interval_len = 240;
  wl.seed = 1729;
  oracle.queries = GenerateWorkload(wl);
  for (const ReachQuery& q : oracle.queries) {
    oracle.answers.push_back(
        BruteForceReach(network, q.source, q.destination, q.interval));
  }
  oracle.window = TimeInterval(network.span().start + 40,
                               network.span().start + 240);
  for (ObjectId o = 0; o < network.num_objects(); o += 11) {
    oracle.sources.push_back(o);
  }
  for (ObjectId source : oracle.sources) {
    oracle.closures.push_back(
        BruteForceClosure(network, source, oracle.window));
  }
  return oracle;
}

/// A stored image under test: its devices and its query paths, each a
/// factory for a fresh session (so no pool carries state across flips).
struct Image {
  std::string label;
  const StorageTopology* topology;
  std::vector<std::function<std::unique_ptr<ReachabilityIndex>()>> sessions;
  /// ReachGraph's point contract reports reachability, not arrival.
  bool tracks_arrival;
};

/// How the queries over one damaged image ended.
struct Tally {
  int corrupt = 0;
  int answered = 0;
};

/// Runs every point query and one `ReachableSets` batch through a fresh
/// session of each query path; each must fail with Corruption or match
/// the oracle exactly.
void CheckImage(const Image& image, const Oracle& oracle,
                const std::string& where, Tally* tally) {
  for (const auto& make_session : image.sessions) {
    const std::unique_ptr<ReachabilityIndex> session = make_session();
    const std::string path = where + " " + session->DescribeIndex();
    for (size_t i = 0; i < oracle.queries.size(); ++i) {
      const ReachQuery& q = oracle.queries[i];
      auto got = session->Query(q);
      if (!got.ok()) {
        ASSERT_TRUE(got.status().IsCorruption())
            << path << " " << q.ToString() << ": " << got.status().ToString();
        ++tally->corrupt;
        continue;
      }
      ++tally->answered;
      ASSERT_EQ(got->reachable, oracle.answers[i].reachable)
          << path << " " << q.ToString();
      if (image.tracks_arrival) {
        ASSERT_EQ(got->arrival_time, oracle.answers[i].arrival_time)
            << path << " " << q.ToString();
      }
    }
    auto sets = session->ReachableSets(oracle.sources, oracle.window);
    if (!sets.ok()) {
      ASSERT_TRUE(sets.status().IsCorruption())
          << path << " ReachableSets: " << sets.status().ToString();
      ++tally->corrupt;
      continue;
    }
    ++tally->answered;
    ASSERT_EQ(*sets, oracle.closures) << path << " ReachableSets";
  }
}

/// Flips one random bit of a random page, queries the image, restores the
/// bit; `flips` times per sidecar mode.
void MutateImage(const Image& image, const Oracle& oracle, uint64_t seed,
                 int flips) {
  {
    Tally clean;
    CheckImage(image, oracle, image.label + " undamaged", &clean);
    ASSERT_EQ(clean.corrupt, 0) << image.label;
  }
  const BlockDevice& device = image.topology->shard(0);
  ASSERT_EQ(image.topology->num_shards(), 1);
  ASSERT_GT(device.num_pages(), 0u);
  for (const bool refresh : {false, true}) {
    Rng rng(seed + (refresh ? 1 : 0));
    Tally tally;
    for (int flip = 0; flip < flips; ++flip) {
      const PageId page = rng.Uniform(device.num_pages());
      const uint64_t bit = rng.Uniform(device.page_size() * 8);
      const std::string where = image.label +
                                (refresh ? " refreshed" : " stale") +
                                " sidecar, page " + std::to_string(page) +
                                " bit " + std::to_string(bit);
      ASSERT_TRUE(device.CorruptPageForTesting(page, bit, refresh).ok());
      CheckImage(image, oracle, where, &tally);
      // Flipping the bit back restores the bytes (and, refreshed, the sum).
      ASSERT_TRUE(device.CorruptPageForTesting(page, bit, refresh).ok());
      if (::testing::Test::HasFatalFailure()) return;
    }
    // The loop must reach damage it has to detect, or it tests nothing.
    EXPECT_GT(tally.corrupt, 0) << image.label << " refresh=" << refresh;
    EXPECT_GT(tally.answered, 0) << image.label << " refresh=" << refresh;
  }
  Tally restored;
  CheckImage(image, oracle, image.label + " restored", &restored);
  EXPECT_EQ(restored.corrupt, 0) << image.label;
}

class StorageMutationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto dataset = MakeVnDataset(DatasetScale::kSmall, 400);
    ASSERT_TRUE(dataset.ok());
    dataset_ = new Dataset(std::move(*dataset));
    network_ = new ContactNetwork(
        dataset_->num_objects(), dataset_->span(),
        ExtractContacts(dataset_->store, dataset_->contact_range));
    oracle_ = new Oracle(MakeOracle(*network_));
  }

  static void TearDownTestSuite() {
    delete oracle_;
    delete network_;
    delete dataset_;
  }

  static Dataset* dataset_;
  static ContactNetwork* network_;
  static Oracle* oracle_;
};

Dataset* StorageMutationTest::dataset_ = nullptr;
ContactNetwork* StorageMutationTest::network_ = nullptr;
Oracle* StorageMutationTest::oracle_ = nullptr;

TEST_F(StorageMutationTest, ReachGraphImageBitFlipsAreCorruptionOrExact) {
  auto built = ReachGraphIndex::Build(*network_, ReachGraphOptions{});
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const std::shared_ptr<const ReachGraphIndex> graph = std::move(*built);
  Image image{"ReachGraph VN-S", &graph->topology(), {}, false};
  for (const ReachGraphTraversal traversal :
       {ReachGraphTraversal::kBmBfs, ReachGraphTraversal::kEDfs}) {
    image.sessions.push_back(
        [graph, traversal] { return MakeReachGraphBackend(graph, traversal); });
  }
  MutateImage(image, *oracle_, 20261019, 24);
}

TEST_F(StorageMutationTest,
       DeltaCodedReachGridImageBitFlipsAreCorruptionOrExact) {
  ReachGridOptions options;
  options.temporal_resolution = 20;
  options.spatial_cell_size = 1500.0;
  options.contact_range = dataset_->contact_range;
  options.build.page_codec = PageCodecKind::kDeltaVarint;
  auto built = ReachGridIndex::Build(dataset_->store, options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const std::shared_ptr<const ReachGridIndex> grid = std::move(*built);
  Image image{"ReachGrid(delta) VN-S", &grid->topology(), {}, true};
  image.sessions.push_back([grid] { return MakeReachGridBackend(grid); });
  MutateImage(image, *oracle_, 20261020, 24);
}

// ------------------------------------------------------------------ WAL

bool SameRecord(const ContactWal::Record& x, const ContactWal::Record& y) {
  return x.kind == y.kind && x.contact.a == y.contact.a &&
         x.contact.b == y.contact.b &&
         x.contact.validity.start == y.contact.validity.start &&
         x.contact.validity.end == y.contact.validity.end;
}

/// True when `got` is a prefix of `logged`, record for record.
bool IsPrefix(const std::vector<ContactWal::Record>& got,
              const std::vector<ContactWal::Record>& logged) {
  if (got.size() > logged.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (!SameRecord(got[i], logged[i])) return false;
  }
  return true;
}

TEST(WalMutationTest, DamagedLogsReplayAPrefixOfTheLoggedRecords) {
  Rng rng(4242);
  ContactWal wal;
  for (int i = 0; i < 64; ++i) {
    if (i % 16 == 15) {
      wal.LogSeal();
      continue;
    }
    const auto a = static_cast<ObjectId>(rng.Uniform(500));
    const auto b = a + 1 + static_cast<ObjectId>(rng.Uniform(50));
    const auto start = static_cast<Timestamp>(rng.Uniform(1000));
    const auto end = start + 1 + static_cast<Timestamp>(rng.Uniform(9));
    wal.LogContact(Contact(a, b, TimeInterval(start, end)));
  }
  wal.LogSealRemaining();
  const std::string log = wal.bytes();
  const std::vector<ContactWal::Record> logged = ContactWal::Replay(log);
  ASSERT_EQ(logged.size(), 65u);

  for (int trial = 0; trial < 2000; ++trial) {
    std::string damaged = log;
    // One to three bit flips, then (every other trial) a torn tail.
    const int flips = 1 + static_cast<int>(rng.Uniform(3));
    size_t first_damage = damaged.size();
    for (int f = 0; f < flips; ++f) {
      const size_t byte = rng.Uniform(damaged.size());
      damaged[byte] ^= static_cast<char>(1u << rng.Uniform(8));
      first_damage = std::min(first_damage, byte);
    }
    if (trial % 2 == 1) {
      damaged.resize(rng.Uniform(damaged.size() + 1));
    }
    const auto replayed = ContactWal::Replay(damaged);
    ASSERT_TRUE(IsPrefix(replayed, logged))
        << "trial " << trial << ": replayed " << replayed.size()
        << " records";
    // Replay keeps exactly the records before the first damaged or torn
    // one: CRC-32C detects every error of up to three bits in a record
    // this short.
    const size_t intact =
        std::min(first_damage, damaged.size()) / ContactWal::kRecordBytes;
    EXPECT_EQ(replayed.size(), intact) << "trial " << trial;
  }

  // Truncation alone, at every byte length: exactly the whole records.
  for (size_t cut = 0; cut <= log.size(); ++cut) {
    const auto replayed =
        ContactWal::Replay(std::string_view(log).substr(0, cut));
    ASSERT_TRUE(IsPrefix(replayed, logged)) << "cut " << cut;
    EXPECT_EQ(replayed.size(), cut / ContactWal::kRecordBytes) << "cut " << cut;
  }
}

}  // namespace
}  // namespace streach
