// Unit and property tests for src/join: the per-tick proximity join and
// contact extraction with validity-interval coalescing.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "join/contact.h"
#include "join/contact_extractor.h"
#include "join/contact_sink.h"
#include "join/proximity_join.h"
#include "trajectory/trajectory_store.h"

namespace streach {
namespace {

TrajectoryStore StoreFromPaths(
    const std::vector<std::vector<Point>>& paths) {
  TrajectoryStore store;
  for (size_t i = 0; i < paths.size(); ++i) {
    EXPECT_TRUE(
        store.Add(Trajectory(static_cast<ObjectId>(i), 0, paths[i])).ok());
  }
  return store;
}

TrajectoryStore RandomStore(Rng* rng, int objects, int ticks, double extent,
                            double step) {
  std::vector<std::vector<Point>> paths(static_cast<size_t>(objects));
  for (auto& path : paths) {
    Point p(rng->UniformDouble(0, extent), rng->UniformDouble(0, extent));
    for (int t = 0; t < ticks; ++t) {
      path.push_back(p);
      p.x += rng->UniformDouble(-step, step);
      p.y += rng->UniformDouble(-step, step);
    }
  }
  return StoreFromPaths(paths);
}

/// O(N^2) reference join.
std::vector<std::pair<ObjectId, ObjectId>> BruteForcePairs(
    const TrajectoryStore& store, Timestamp t, double dt) {
  std::vector<std::pair<ObjectId, ObjectId>> out;
  const double dt_sq = dt * dt;
  for (ObjectId a = 0; a < store.num_objects(); ++a) {
    for (ObjectId b = a + 1; b < store.num_objects(); ++b) {
      if (Point::DistanceSquared(store.PositionAt(a, t),
                                 store.PositionAt(b, t)) < dt_sq) {
        out.emplace_back(a, b);
      }
    }
  }
  return out;
}

/// The pairs `joiner` finds among the store's positions at tick `t`.
std::vector<std::pair<ObjectId, ObjectId>> JoinAt(
    ProximityJoiner* joiner, const TrajectoryStore& store, Timestamp t) {
  std::vector<Point> positions;
  store.GatherPositionsAt(t, &positions);
  return joiner->PairsAmong(positions);
}

/// O(N^2 T) reference extractor: brute-force pairs per tick, coalesced
/// into maximal runs, sorted like ExtractContacts.
std::vector<Contact> BruteForceContacts(const TrajectoryStore& store,
                                        double dt, TimeInterval window) {
  std::vector<Contact> contacts;
  const TimeInterval w = window.Intersect(store.span());
  if (w.empty() || store.num_objects() < 2) return contacts;
  std::map<std::pair<ObjectId, ObjectId>, Timestamp> open;
  for (Timestamp t = w.start; t <= w.end; ++t) {
    const auto pairs = BruteForcePairs(store, t, dt);
    const std::set<std::pair<ObjectId, ObjectId>> now(pairs.begin(),
                                                      pairs.end());
    for (auto it = open.begin(); it != open.end();) {
      if (now.count(it->first) == 0) {
        contacts.emplace_back(it->first.first, it->first.second,
                              TimeInterval(it->second, t - 1));
        it = open.erase(it);
      } else {
        ++it;
      }
    }
    for (const auto& p : now) {
      if (open.count(p) == 0) open.emplace(p, t);
    }
  }
  for (const auto& [p, start] : open) {
    contacts.emplace_back(p.first, p.second, TimeInterval(start, w.end));
  }
  std::sort(contacts.begin(), contacts.end());
  return contacts;
}

/// The JoinOptions lattice the equivalence suites sweep: the historical
/// sequential path, forced chunking at 1 thread (stitcher alone), and
/// parallel workers with both auto and tiny forced chunks.
std::vector<JoinOptions> EquivalenceConfigs() {
  std::vector<JoinOptions> configs;
  for (int threads : {1, 2, 4}) {
    for (int chunk_ticks : {0, 3, 7}) {
      JoinOptions options;
      options.threads = threads;
      options.chunk_ticks = chunk_ticks;
      configs.push_back(options);
    }
  }
  return configs;
}

// ---------------------------------------------------------------- Contact

TEST(ContactTest, CanonicalOrdering) {
  const Contact c(5, 2, TimeInterval(1, 3));
  EXPECT_EQ(c.a, 2u);
  EXPECT_EQ(c.b, 5u);
  EXPECT_TRUE(c.Involves(2));
  EXPECT_TRUE(c.Involves(5));
  EXPECT_FALSE(c.Involves(3));
  EXPECT_EQ(c.Other(2), 5u);
  EXPECT_EQ(c.Other(5), 2u);
}

TEST(ContactTest, SortsByStartTime) {
  const Contact early(0, 1, TimeInterval(0, 9));
  const Contact late(0, 1, TimeInterval(5, 6));
  EXPECT_LT(early, late);
}

// ---------------------------------------------------------- ProximityJoin

TEST(ProximityJoinTest, SimplePair) {
  auto store = StoreFromPaths({{Point(0, 0)}, {Point(3, 4)}, {Point(50, 50)}});
  ProximityJoiner joiner(6.0, ProximityJoiner::EnvironmentExtent(store));
  const auto pairs = JoinAt(&joiner, store, 0);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0], std::make_pair(ObjectId{0}, ObjectId{1}));
}

TEST(ProximityJoinTest, ThresholdIsStrict) {
  auto store = StoreFromPaths({{Point(0, 0)}, {Point(5, 0)}});
  const Rect extent = ProximityJoiner::EnvironmentExtent(store);
  ProximityJoiner exactly(5.0, extent);
  // dist == dT: no contact.
  EXPECT_TRUE(JoinAt(&exactly, store, 0).empty());
  ProximityJoiner slightly(5.0001, extent);
  EXPECT_EQ(JoinAt(&slightly, store, 0).size(), 1u);
}

TEST(ProximityJoinTest, MatchesBruteForceProperty) {
  Rng rng(41);
  for (int round = 0; round < 20; ++round) {
    auto store = RandomStore(&rng, 60, 5, 200.0, 10.0);
    const double dt = rng.UniformDouble(5, 40);
    // One joiner serves every tick, so each call must clear the cell
    // list of the tick before.
    ProximityJoiner joiner(dt, ProximityJoiner::EnvironmentExtent(store));
    for (Timestamp t = 0; t < 5; ++t) {
      auto expected = BruteForcePairs(store, t, dt);
      auto actual = JoinAt(&joiner, store, t);
      std::sort(expected.begin(), expected.end());
      EXPECT_EQ(actual, expected) << "round " << round << " t " << t;
    }
  }
}

TEST(ProximityJoinTest, PairsAmongMatchesBruteForceInAndOutsideExtent) {
  // Joiners over the middle of the environment and over a box far from
  // it: objects outside the extent join from the border cells and still
  // pair exactly.
  Rng rng(67);
  for (int round = 0; round < 10; ++round) {
    auto store = RandomStore(&rng, 60, 3, 200.0, 10.0);
    const double dt = rng.UniformDouble(5, 40);
    for (const Rect& extent :
         {Rect(50, 50, 150, 150), Rect(-500, -500, -400, -400)}) {
      ProximityJoiner joiner(dt, extent);
      for (Timestamp t = 0; t < 3; ++t) {
        auto expected = BruteForcePairs(store, t, dt);
        std::sort(expected.begin(), expected.end());
        EXPECT_EQ(JoinAt(&joiner, store, t), expected)
            << "round " << round << " t " << t;
      }
    }
  }
}

// ------------------------------------------------------- ContactExtractor

TEST(ContactExtractorTest, PaperFigure1Network) {
  // Reproduces Figure 1 of the paper: contacts c1={o1,o2}@[0,0],
  // c2={o2,o4}@[1,1], c3={o3,o4}@[1,2], c4={o1,o2}@[2,3]. Objects are
  // 0-indexed here (o1 -> 0, ...). Positions are crafted so exactly those
  // pairs are within dT=1 at those ticks.
  const double kFar = 100.0;
  std::vector<std::vector<Point>> paths(4);
  auto place = [&](int obj, int t, double x, double y) {
    if (paths[static_cast<size_t>(obj)].size() <=
        static_cast<size_t>(t)) {
      paths[static_cast<size_t>(obj)].resize(static_cast<size_t>(t) + 1);
    }
    paths[static_cast<size_t>(obj)][static_cast<size_t>(t)] = Point(x, y);
  };
  // t=0: o1-o2 in contact, others far apart.
  place(0, 0, 0, 0);
  place(1, 0, 0.5, 0);
  place(2, 0, kFar, 0);
  place(3, 0, 2 * kFar, 0);
  // t=1: o2-o4 and o3-o4 in contact. o4 sits between o2 and o3 but o2-o3
  // are > dT apart.
  place(0, 1, -kFar, 0);
  place(1, 1, 10.0, 0);
  place(2, 1, 11.4, 0);
  place(3, 1, 10.7, 0);
  // t=2: o3-o4 still in contact, o1-o2 reconnect elsewhere.
  place(0, 2, 30, 5);
  place(1, 2, 30.5, 5);
  place(2, 2, 50, 0);
  place(3, 2, 50.5, 0);
  // t=3: o1-o2 still in contact, o3-o4 split.
  place(0, 3, 31, 5);
  place(1, 3, 31.5, 5);
  place(2, 3, 70, 0);
  place(3, 3, 3 * kFar, 0);

  auto store = StoreFromPaths(paths);
  const auto contacts = ExtractContacts(store, 1.0);
  const std::vector<Contact> expected = {
      Contact(0, 1, TimeInterval(0, 0)),
      Contact(1, 3, TimeInterval(1, 1)),
      Contact(2, 3, TimeInterval(1, 2)),
      Contact(0, 1, TimeInterval(2, 3)),
  };
  EXPECT_EQ(contacts, expected);
}

TEST(ContactExtractorTest, ReenteringPairYieldsTwoContacts) {
  // Pair together at ticks 0-1, apart at 2, together again at 3-4.
  std::vector<std::vector<Point>> paths(2);
  paths[0] = {Point(0, 0), Point(0, 0), Point(0, 0), Point(0, 0), Point(0, 0)};
  paths[1] = {Point(1, 0), Point(1, 0), Point(50, 0), Point(1, 0),
              Point(1, 0)};
  auto store = StoreFromPaths(paths);
  const auto contacts = ExtractContacts(store, 2.0);
  ASSERT_EQ(contacts.size(), 2u);
  EXPECT_EQ(contacts[0].validity, TimeInterval(0, 1));
  EXPECT_EQ(contacts[1].validity, TimeInterval(3, 4));
}

TEST(ContactExtractorTest, ContactSpanningFullWindowClosedAtEnd) {
  std::vector<std::vector<Point>> paths(2);
  paths[0] = {Point(0, 0), Point(0, 0), Point(0, 0)};
  paths[1] = {Point(1, 0), Point(1, 0), Point(1, 0)};
  auto store = StoreFromPaths(paths);
  const auto contacts = ExtractContacts(store, 2.0);
  ASSERT_EQ(contacts.size(), 1u);
  EXPECT_EQ(contacts[0].validity, TimeInterval(0, 2));
}

TEST(ContactExtractorTest, WindowRestrictsExtraction) {
  std::vector<std::vector<Point>> paths(2);
  paths[0] = {Point(0, 0), Point(0, 0), Point(0, 0), Point(0, 0)};
  paths[1] = {Point(1, 0), Point(50, 0), Point(1, 0), Point(1, 0)};
  auto store = StoreFromPaths(paths);
  const auto contacts = ExtractContacts(store, 2.0, TimeInterval(2, 3));
  ASSERT_EQ(contacts.size(), 1u);
  EXPECT_EQ(contacts[0].validity, TimeInterval(2, 3));
}

TEST(ContactExtractorTest, CoalescingMatchesPerTickPairsProperty) {
  // Property: expanding the extracted contacts back to (pair, tick)
  // incidences reproduces exactly the per-tick join results.
  Rng rng(47);
  for (int round = 0; round < 10; ++round) {
    auto store = RandomStore(&rng, 40, 20, 120.0, 8.0);
    const double dt = 15.0;
    const auto contacts = ExtractContacts(store, dt);
    // Validity intervals are maximal: never empty, within span.
    std::vector<std::vector<std::pair<ObjectId, ObjectId>>> by_tick(20);
    for (const Contact& c : contacts) {
      EXPECT_FALSE(c.validity.empty());
      EXPECT_TRUE(store.span().Contains(c.validity));
      for (Timestamp t = c.validity.start; t <= c.validity.end; ++t) {
        by_tick[static_cast<size_t>(t)].emplace_back(c.a, c.b);
      }
    }
    ProximityJoiner joiner(dt, ProximityJoiner::EnvironmentExtent(store));
    for (Timestamp t = 0; t < 20; ++t) {
      auto& got = by_tick[static_cast<size_t>(t)];
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, JoinAt(&joiner, store, t)) << "round " << round;
    }
    // Maximality: no two contacts of the same pair are adjacent in time.
    for (size_t i = 0; i < contacts.size(); ++i) {
      for (size_t j = i + 1; j < contacts.size(); ++j) {
        if (contacts[i].a == contacts[j].a && contacts[i].b == contacts[j].b) {
          const auto& u = contacts[i].validity;
          const auto& v = contacts[j].validity;
          EXPECT_TRUE(u.end + 1 < v.start || v.end + 1 < u.start)
              << "contacts of one pair must be separated by a gap";
        }
      }
    }
  }
}

TEST(ContactExtractorTest, NoObjectsNoContacts) {
  TrajectoryStore store;
  EXPECT_TRUE(ExtractContacts(store, 10.0, TimeInterval(0, 5)).empty());
}

// ------------------------------------------------- Parallel join front end

TEST(ContactExtractorTest, ParallelChunkedByteIdentical) {
  // The tentpole contract: every (threads, chunk_ticks) configuration
  // returns the exact vector the sequential seed path returns — same
  // contacts, same order — and both match the O(n^2) reference.
  Rng rng(67);
  for (int round = 0; round < 4; ++round) {
    auto store = RandomStore(&rng, 40, 30, 120.0, 6.0);
    const double dt = 18.0;
    const std::vector<TimeInterval> windows = {
        store.span(), TimeInterval(3, 27), TimeInterval(5, 9),
        TimeInterval(29, 29)};
    for (const TimeInterval& window : windows) {
      const auto reference = BruteForceContacts(store, dt, window);
      const auto sequential = ExtractContacts(store, dt, window);
      EXPECT_EQ(sequential, reference) << "window " << window;
      for (const JoinOptions& options : EquivalenceConfigs()) {
        EXPECT_EQ(ExtractContacts(store, dt, window, options), sequential)
            << "round " << round << " window " << window << " threads "
            << options.threads << " chunk_ticks " << options.chunk_ticks;
      }
    }
  }
}

TEST(ContactExtractorTest, CrossBoundaryRunsStitchedExactly) {
  // Deterministic boundary torture: with chunk_ticks=3 the boundaries
  // fall at 2|3, 5|6, 8|9. Pair (0,1) spans the whole window, pair
  // (2,3) closes exactly on a boundary tick, pair (4,5) opens exactly
  // on the first tick after one, and pair (6,7) is in contact only
  // during single ticks adjacent to boundaries.
  const double kFar = 500.0;
  std::vector<std::vector<Point>> paths(8);
  auto base = [](int obj) { return Point(60.0 * obj, 0.0); };
  for (int obj = 0; obj < 8; ++obj) {
    paths[static_cast<size_t>(obj)].assign(12, base(obj));
  }
  auto together = [&](int a, int b, int t) {
    paths[static_cast<size_t>(b)][static_cast<size_t>(t)] =
        Point(base(a).x + 1.0, 0.0);
  };
  auto apart = [&](int b, int t) {
    paths[static_cast<size_t>(b)][static_cast<size_t>(t)] =
        Point(base(b).x, kFar);
  };
  for (int t = 0; t < 12; ++t) together(0, 1, t);      // [0,11]
  for (int t = 0; t <= 5; ++t) together(2, 3, t);      // [0,5]
  for (int t = 5; t >= 0; --t) apart(5, t);
  for (int t = 6; t < 12; ++t) together(4, 5, t);      // [6,11]
  for (int t = 0; t < 12; ++t) apart(7, t);
  together(6, 7, 2);  // (6,7) touch only at ticks 2 and 3: one run [2,3]
  together(6, 7, 3);  // crossing the 2|3 chunk boundary exactly.
  auto store = StoreFromPaths(paths);
  const auto reference = BruteForceContacts(store, 2.0, store.span());
  const std::vector<Contact> expected = {
      Contact(0, 1, TimeInterval(0, 11)),
      Contact(2, 3, TimeInterval(0, 5)),
      Contact(6, 7, TimeInterval(2, 3)),
      Contact(4, 5, TimeInterval(6, 11)),
  };
  std::vector<Contact> sorted_expected = expected;
  std::sort(sorted_expected.begin(), sorted_expected.end());
  ASSERT_EQ(reference, sorted_expected);
  for (const JoinOptions& options : EquivalenceConfigs()) {
    EXPECT_EQ(ExtractContacts(store, 2.0, store.span(), options),
              sorted_expected)
        << "threads " << options.threads << " chunk_ticks "
        << options.chunk_ticks;
  }
}

TEST(ContactExtractorTest, CellBorderObjectsMatchBruteForce) {
  // Objects sitting exactly on cell borders (coordinates at multiples of
  // dT = the grid cell side) must land in exactly one cell and join
  // identically on every path.
  const double dt = 10.0;
  std::vector<std::vector<Point>> paths;
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 5; ++j) {
      paths.push_back(std::vector<Point>(8, Point(i * dt, j * dt)));
    }
  }
  // A few off-lattice objects to create actual contacts (lattice
  // neighbors are at distance exactly dT — strictly no contact).
  paths.push_back(std::vector<Point>(8, Point(5.0, 0.0)));
  paths.push_back(std::vector<Point>(8, Point(20.0, 15.5)));
  paths.push_back(std::vector<Point>(8, Point(0.25, 30.0)));
  auto store = StoreFromPaths(paths);
  const auto reference = BruteForceContacts(store, dt, store.span());
  ASSERT_FALSE(reference.empty());
  for (const JoinOptions& options : EquivalenceConfigs()) {
    EXPECT_EQ(ExtractContacts(store, dt, store.span(), options), reference)
        << "threads " << options.threads << " chunk_ticks "
        << options.chunk_ticks;
  }
}

TEST(ContactExtractorTest, DtEpsilonDistanceEdges) {
  // Distances straddling the strict threshold: exactly dT (no contact),
  // a hair below (contact), and the 3-4-5 diagonal at exactly dT.
  const double dt = 5.0;
  std::vector<std::vector<Point>> paths;
  paths.push_back(std::vector<Point>(6, Point(0, 0)));
  paths.push_back(std::vector<Point>(6, Point(5.0, 0)));           // == dT
  paths.push_back(std::vector<Point>(6, Point(0, 5.0 - 1e-9)));    // < dT
  paths.push_back(std::vector<Point>(6, Point(103, 104)));         // 3-4-5
  paths.push_back(std::vector<Point>(6, Point(100, 100)));         // == dT
  paths.push_back(std::vector<Point>(6, Point(100, 104 - 1e-9)));  // < dT
  auto store = StoreFromPaths(paths);
  const auto reference = BruteForceContacts(store, dt, store.span());
  const std::vector<Contact> expected = {
      Contact(0, 2, TimeInterval(0, 5)),
      Contact(3, 5, TimeInterval(0, 5)),
      Contact(4, 5, TimeInterval(0, 5)),
  };
  ASSERT_EQ(reference, expected);
  for (const JoinOptions& options : EquivalenceConfigs()) {
    EXPECT_EQ(ExtractContacts(store, dt, store.span(), options), expected)
        << "threads " << options.threads << " chunk_ticks "
        << options.chunk_ticks;
  }
}

// ------------------------------------------------------------ ContactSink

TEST(ContactSinkTest, StreamingMatchesMaterializing) {
  Rng rng(71);
  for (int round = 0; round < 3; ++round) {
    auto store = RandomStore(&rng, 35, 25, 110.0, 6.0);
    const double dt = 16.0;
    const auto materialized = ExtractContacts(store, dt);
    for (const JoinOptions& options : EquivalenceConfigs()) {
      CollectingContactSink sink;
      ExtractContactsTo(store, dt, store.span(), options, &sink);
      EXPECT_EQ(sink.finish_calls, 1);
      std::vector<Contact> streamed = sink.contacts;
      std::sort(streamed.begin(), streamed.end());
      EXPECT_EQ(streamed, materialized)
          << "round " << round << " threads " << options.threads
          << " chunk_ticks " << options.chunk_ticks;
    }
  }
}

TEST(ContactSinkTest, EmissionOrderDeterministicAcrossChunking) {
  // The sink contract: delivery is sorted by (end, start, a, b) and the
  // exact sequence is independent of threads and chunking.
  Rng rng(73);
  auto store = RandomStore(&rng, 30, 24, 100.0, 6.0);
  const double dt = 15.0;
  auto close_order = [](const Contact& x, const Contact& y) {
    return std::tie(x.validity.end, x.validity.start, x.a, x.b) <
           std::tie(y.validity.end, y.validity.start, y.a, y.b);
  };
  std::vector<Contact> baseline;
  bool have_baseline = false;
  for (const JoinOptions& options : EquivalenceConfigs()) {
    CollectingContactSink sink;
    ExtractContactsTo(store, dt, store.span(), options, &sink);
    EXPECT_TRUE(std::is_sorted(sink.contacts.begin(), sink.contacts.end(),
                               close_order))
        << "threads " << options.threads << " chunk_ticks "
        << options.chunk_ticks;
    if (!have_baseline) {
      baseline = sink.contacts;
      have_baseline = true;
      EXPECT_FALSE(baseline.empty());
    } else {
      EXPECT_EQ(sink.contacts, baseline)
          << "threads " << options.threads << " chunk_ticks "
          << options.chunk_ticks;
    }
  }
}

TEST(ContactSinkTest, EmptyWindowStillFinishes) {
  TrajectoryStore store;
  CollectingContactSink sink;
  ExtractContactsTo(store, 10.0, TimeInterval(0, 5), JoinOptions(), &sink);
  EXPECT_TRUE(sink.contacts.empty());
  EXPECT_EQ(sink.finish_calls, 1);
}

}  // namespace
}  // namespace streach
