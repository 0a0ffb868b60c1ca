// Allocation-service contract: request parsing, batched evaluation through
// the exp engine, the fingerprint-keyed LRU cache (hit == cold bytes,
// hit/miss visible only via stats), and the Unix-socket transport.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "swarm/proto.h"
#include "swarm/service.h"
#include "swarm/socket.h"

namespace swarm = hydra::swarm;

namespace {

const std::string kCorpusDir = std::string(HYDRA_SOURCE_DIR) + "/tests/corpus";

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string json_string(const std::string& raw) {
  std::string out = "\"";
  for (const char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out.push_back(c);
    }
  }
  out += "\"";
  return out;
}

std::string allocate_line(const std::string& corpus_file,
                          const std::string& schemes_json = "") {
  std::string line = "{\"op\":\"allocate\",\"taskset_text\":" +
                     json_string(slurp(kCorpusDir + "/" + corpus_file));
  if (!schemes_json.empty()) line += ",\"schemes\":" + schemes_json;
  line += "}";
  return line;
}

swarm::ServiceOptions small_options() {
  swarm::ServiceOptions options;
  options.default_schemes = {"hydra", "single-core"};
  return options;
}

}  // namespace

TEST(SwarmProto, ParsesFlatObjects) {
  const auto fields = swarm::parse_flat_json(
      "{\"op\":\"allocate\",\"n\":4.5,\"flag\":true,\"none\":null,"
      "\"schemes\":[\"a\",\"b\"],\"esc\":\"x\\n\\\"y\\u0041\"}");
  ASSERT_TRUE(fields.has_value());
  EXPECT_EQ(*fields->at("op").string_value, "allocate");
  EXPECT_DOUBLE_EQ(*fields->at("n").number_value, 4.5);
  EXPECT_TRUE(*fields->at("flag").bool_value);
  EXPECT_FALSE(fields->at("none").string_value.has_value());
  EXPECT_EQ(fields->at("schemes").string_array->size(), 2u);
  EXPECT_EQ(*fields->at("esc").string_value, "x\n\"yA");
}

TEST(SwarmProto, RejectsMalformedLines) {
  EXPECT_FALSE(swarm::parse_flat_json("").has_value());
  EXPECT_FALSE(swarm::parse_flat_json("not json").has_value());
  EXPECT_FALSE(swarm::parse_flat_json("{\"a\":1").has_value());
  EXPECT_FALSE(swarm::parse_flat_json("{\"a\":{\"nested\":1}}").has_value());
  EXPECT_FALSE(swarm::parse_flat_json("{\"a\":1} trailing").has_value());
  EXPECT_FALSE(swarm::parse_flat_json("{\"a\":\"unterminated").has_value());
  EXPECT_TRUE(swarm::parse_flat_json("{}").has_value());
}

TEST(SwarmService, SecondIdenticalRequestIsAByteIdenticalCacheHit) {
  swarm::AllocationService service(small_options());
  const std::string line = allocate_line("mid_2core_b.txt");

  const std::string cold = service.handle_line(line);
  ASSERT_EQ(cold.rfind("{\"ok\":true,\"op\":\"allocate\"", 0), 0u) << cold;
  EXPECT_EQ(service.stats().misses, 1u);
  EXPECT_EQ(service.stats().hits, 0u);
  EXPECT_EQ(service.stats().engine_batches, 1u);

  const std::string hot = service.handle_line(line);
  // The acceptance criterion: byte-identical response, no engine invocation,
  // the hit observable only through the counters.
  EXPECT_EQ(hot, cold);
  EXPECT_EQ(service.stats().hits, 1u);
  EXPECT_EQ(service.stats().misses, 1u);
  EXPECT_EQ(service.stats().engine_batches, 1u);
  EXPECT_EQ(hot.find("cache"), std::string::npos);
}

TEST(SwarmService, ResponseCarriesPlacementsAndModeTable) {
  swarm::AllocationService service(small_options());
  const std::string response = service.handle_line(allocate_line("mid_2core_b.txt"));
  EXPECT_NE(response.find("\"scheme\":\"hydra\""), std::string::npos);
  EXPECT_NE(response.find("\"placements\":["), std::string::npos);
  EXPECT_NE(response.find("\"modes\":["), std::string::npos);
  EXPECT_NE(response.find("\"min_period_ms\":"), std::string::npos);
  EXPECT_NE(response.find("\"adapted_period_ms\":"), std::string::npos);
  EXPECT_NE(response.find("\"fingerprint\":\""), std::string::npos);
}

TEST(SwarmService, DistinctTasksetsAndSchemesMissSeparately) {
  swarm::AllocationService service(small_options());
  const std::string a = service.handle_line(allocate_line("mid_2core_b.txt"));
  const std::string b = service.handle_line(allocate_line("easy_2core_a.txt"));
  EXPECT_NE(a, b);
  EXPECT_EQ(service.stats().misses, 2u);

  // Same taskset, different scheme list → different fingerprint → miss.
  service.handle_line(allocate_line("mid_2core_b.txt", "[\"hydra\"]"));
  EXPECT_EQ(service.stats().misses, 3u);
  EXPECT_EQ(service.stats().hits, 0u);
}

TEST(SwarmService, InfeasibleTasksetsAreServedAndCached) {
  swarm::AllocationService service(small_options());
  const std::string line = allocate_line("overload_2core_f.txt");
  const std::string cold = service.handle_line(line);
  EXPECT_EQ(cold.rfind("{\"ok\":true", 0), 0u) << cold;
  EXPECT_NE(cold.find("\"feasible\":false"), std::string::npos);
  // Negative results are results: the second ask is a hit too.
  EXPECT_EQ(service.handle_line(line), cold);
  EXPECT_EQ(service.stats().hits, 1u);
}

TEST(SwarmService, MalformedAndUnknownRequestsError) {
  swarm::AllocationService service(small_options());
  EXPECT_EQ(service.handle_line("garbage").rfind("{\"ok\":false", 0), 0u);
  EXPECT_EQ(service.handle_line("{\"no_op\":1}").rfind("{\"ok\":false", 0), 0u);
  EXPECT_EQ(service.handle_line("{\"op\":\"dance\"}").rfind("{\"ok\":false", 0), 0u);
  EXPECT_EQ(service.handle_line("{\"op\":\"allocate\"}").rfind("{\"ok\":false", 0),
            0u);  // no taskset
  const std::string bad_scheme = service.handle_line(
      allocate_line("mid_2core_b.txt", "[\"no-such-scheme\"]"));
  EXPECT_EQ(bad_scheme.rfind("{\"ok\":false", 0), 0u);
  // The registry's diagnostic reaches the client verbatim.
  EXPECT_NE(bad_scheme.find("unknown allocation scheme 'no-such-scheme' (registered: hydra, "),
            std::string::npos)
      << bad_scheme;
  EXPECT_EQ(service.stats().errors, 5u);
  EXPECT_EQ(service.stats().engine_batches, 0u);
}

TEST(SwarmService, BatchCoalescesDuplicatesAndGroupsSchemes) {
  swarm::AllocationService service(small_options());
  const std::string mid = allocate_line("mid_2core_b.txt");
  const std::string easy = allocate_line("easy_2core_a.txt");

  const auto responses =
      service.handle_batch({mid, easy, mid, "{\"op\":\"ping\"}"});
  ASSERT_EQ(responses.size(), 4u);
  EXPECT_EQ(responses[0], responses[2]);  // in-batch duplicate, same bytes
  EXPECT_NE(responses[0], responses[1]);
  EXPECT_EQ(responses[3], "{\"ok\":true,\"op\":\"ping\"}");
  EXPECT_EQ(service.stats().coalesced, 1u);
  EXPECT_EQ(service.stats().misses, 2u);
  // Same scheme list ⇒ the two unique tasksets share ONE engine pass.
  EXPECT_EQ(service.stats().engine_batches, 1u);

  // Batch composition must not leak into response bytes: the same requests
  // served individually produce the same responses.
  swarm::AllocationService solo(small_options());
  EXPECT_EQ(solo.handle_line(mid), responses[0]);
  EXPECT_EQ(solo.handle_line(easy), responses[1]);
}

TEST(SwarmService, StatsRideAlongAfterTheBatchComputes) {
  swarm::AllocationService service(small_options());
  const auto responses =
      service.handle_batch({"{\"op\":\"stats\"}", allocate_line("mid_2core_b.txt")});
  // The stats line observes the batch it rode in on.
  EXPECT_NE(responses[0].find("\"misses\":1"), std::string::npos) << responses[0];
  EXPECT_NE(responses[0].find("\"engine_batches\":1"), std::string::npos);
}

TEST(SwarmService, LruEvictsUnderByteBudget) {
  auto options = small_options();
  options.default_schemes = {"hydra"};
  swarm::AllocationService probe(options);
  const std::string mid = allocate_line("mid_2core_b.txt");
  const std::size_t response_bytes = probe.handle_line(mid).size();

  // Budget fits ~1.5 responses: the second distinct request evicts the first.
  options.cache_budget_bytes = response_bytes * 3 / 2 + 64;
  swarm::AllocationService service(options);
  const std::string easy = allocate_line("easy_2core_a.txt");
  service.handle_line(mid);
  service.handle_line(easy);
  EXPECT_EQ(service.stats().evictions, 1u);
  EXPECT_EQ(service.stats().cache_entries, 1u);

  service.handle_line(mid);  // evicted → recomputed
  EXPECT_EQ(service.stats().misses, 3u);
  EXPECT_EQ(service.stats().hits, 0u);
  service.handle_line(mid);  // still resident → hit
  EXPECT_EQ(service.stats().hits, 1u);
}

TEST(SwarmService, OversizedResponsesAreServedButNotCached) {
  auto options = small_options();
  options.cache_budget_bytes = 16;  // smaller than any real response
  swarm::AllocationService service(options);
  const std::string line = allocate_line("mid_2core_b.txt");
  EXPECT_EQ(service.handle_line(line).rfind("{\"ok\":true", 0), 0u);
  EXPECT_EQ(service.stats().uncacheable, 1u);
  EXPECT_EQ(service.stats().cache_entries, 0u);
  service.handle_line(line);
  EXPECT_EQ(service.stats().misses, 2u);  // nothing was retained
}

TEST(SwarmService, ReinsertingAKeyKeepsByteAccountingExact) {
  // A journal with the same fingerprint twice (an entry re-cached after an
  // eviction in a prior daemon life) replays through the duplicate-insert
  // path: the old entry's bytes and LRU node must be retired, or
  // cache_bytes drifts upward and the stale node later evicts the live one.
  const std::string dir = testing::TempDir() + "swarm_dup_key";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string journal = dir + "/cache.jsonl";
  {
    std::ofstream out(journal, std::ios::binary);
    out << "{\"fingerprint\":\"k1\",\"response\":\"aaaaaaaa\"}\n";
    out << "{\"fingerprint\":\"k2\",\"response\":\"bbbbbbbb\"}\n";
    out << "{\"fingerprint\":\"k1\",\"response\":\"cccc\"}\n";  // supersedes
  }
  auto options = small_options();
  options.cache_journal_path = journal;
  swarm::AllocationService service(options);

  EXPECT_EQ(service.stats().journal_replayed, 3u);
  EXPECT_EQ(service.stats().cache_entries, 2u);
  // Exact bytes: k1→cccc (2+4) + k2→bbbbbbbb (2+8).  The drifting bug
  // counted k1's first response too.
  EXPECT_EQ(service.stats().cache_bytes, 16u);
  // No phantom eviction: both entries are live, nothing was over budget.
  EXPECT_EQ(service.stats().evictions, 0u);
  // The startup compaction rewrote the journal to the two live records.
  std::size_t lines = 0;
  std::ifstream in(journal);
  for (std::string line; std::getline(in, line);) ++lines;
  EXPECT_EQ(lines, 2u);
  std::filesystem::remove_all(dir);
}

TEST(SwarmService, JournalSurvivesARestartWithZeroEngineInvocations) {
  const std::string dir = testing::TempDir() + "swarm_journal";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  auto options = small_options();
  options.cache_journal_path = dir + "/cache.jsonl";
  const std::string line = allocate_line("mid_2core_b.txt");

  std::string cold;
  {
    swarm::AllocationService first(options);
    cold = first.handle_line(line);
    ASSERT_EQ(cold.rfind("{\"ok\":true,\"op\":\"allocate\"", 0), 0u) << cold;
    EXPECT_EQ(first.stats().engine_batches, 1u);
  }  // daemon dies

  swarm::AllocationService restarted(options);
  EXPECT_GE(restarted.stats().journal_replayed, 1u);
  const std::string hot = restarted.handle_line(line);
  // THE acceptance criterion: byte-identical to the pre-restart response,
  // with zero engine work — the journal alone served it.
  EXPECT_EQ(hot, cold);
  EXPECT_EQ(restarted.stats().hits, 1u);
  EXPECT_EQ(restarted.stats().misses, 0u);
  EXPECT_EQ(restarted.stats().engine_batches, 0u);
  std::filesystem::remove_all(dir);
}

TEST(SwarmService, JournalTornTailIsDiscardedNotFatal) {
  const std::string dir = testing::TempDir() + "swarm_journal_torn";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  auto options = small_options();
  options.cache_journal_path = dir + "/cache.jsonl";
  const std::string line = allocate_line("mid_2core_b.txt");
  std::string cold;
  {
    swarm::AllocationService first(options);
    cold = first.handle_line(line);
  }
  {
    // A crash mid-append leaves a torn, newline-less fragment.
    std::ofstream out(options.cache_journal_path,
                      std::ios::binary | std::ios::app);
    out << "{\"fingerprint\":\"torn\",\"response\":\"never fini";
  }
  swarm::AllocationService restarted(options);
  EXPECT_EQ(restarted.stats().journal_replayed, 1u);  // the fragment is not
  EXPECT_EQ(restarted.handle_line(line), cold);
  EXPECT_EQ(restarted.stats().engine_batches, 0u);
  // The startup compaction scrubbed the fragment: a THIRD daemon replays a
  // clean journal.
  swarm::AllocationService third(options);
  EXPECT_EQ(third.stats().journal_replayed, 1u);
  std::filesystem::remove_all(dir);
}

TEST(SwarmService, JournalCompactsOnceDeadRecordsDominate) {
  const std::string dir = testing::TempDir() + "swarm_journal_compact";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  auto options = small_options();
  options.default_schemes = {"hydra"};
  swarm::AllocationService probe(options);
  const std::string mid = allocate_line("mid_2core_b.txt");
  const std::string easy = allocate_line("easy_2core_a.txt");
  const std::size_t response_bytes = probe.handle_line(mid).size();

  // Budget fits ~1.5 responses, so alternating requests evict each other:
  // every round appends a fresh record while the live set stays at one
  // entry — the journal fills with dead records until the compaction rule
  // (bytes > factor x live) fires.
  options.cache_budget_bytes = response_bytes * 3 / 2 + 64;
  options.cache_journal_path = dir + "/cache.jsonl";
  swarm::AllocationService service(options);
  for (int round = 0; round < 6; ++round) {
    service.handle_line(round % 2 == 0 ? mid : easy);
  }
  EXPECT_GE(service.stats().evictions, 5u);
  EXPECT_GE(service.stats().journal_compactions, 2u);  // startup + at least one

  // Whatever survived is exactly what a restart restores: the last request
  // (easy, round 5) must hit without engine work.
  swarm::AllocationService restarted(options);
  EXPECT_EQ(restarted.stats().cache_entries, 1u);
  restarted.handle_line(easy);
  EXPECT_EQ(restarted.stats().hits, 1u);
  EXPECT_EQ(restarted.stats().engine_batches, 0u);
  std::filesystem::remove_all(dir);
}

TEST(SwarmSocket, RejectsBusySpinAndForeverBlockingPollIntervals) {
  swarm::AllocationService service(small_options());
  swarm::EventLog log;
  swarm::ServerOptions options;
  options.socket_path = testing::TempDir() + "hydra_poll_validate.sock";
  options.poll_interval_s = 0.0;  // would busy-spin
  EXPECT_THROW(swarm::ServiceServer(service, options, log),
               std::invalid_argument);
  options.poll_interval_s = -1.0;  // poll(-1) blocks forever, masks shutdown
  EXPECT_THROW(swarm::ServiceServer(service, options, log),
               std::invalid_argument);
}

TEST(SwarmService, ShutdownOpFlagsTheTransportLoop)
{
  swarm::AllocationService service(small_options());
  EXPECT_FALSE(service.shutdown_requested());
  EXPECT_EQ(service.handle_line("{\"op\":\"shutdown\"}"),
            "{\"ok\":true,\"op\":\"shutdown\"}");
  EXPECT_TRUE(service.shutdown_requested());
}

TEST(SwarmSocket, RoundTripOverUnixSocket) {
  const std::string socket_path =
      testing::TempDir() + "hydra_swarm_service_test.sock";
  std::remove(socket_path.c_str());

  swarm::AllocationService service(small_options());
  swarm::EventLog log;
  swarm::ServerOptions server_options;
  server_options.socket_path = socket_path;
  server_options.poll_interval_s = 0.02;
  swarm::ServiceServer server(service, server_options, log);
  std::thread server_thread([&server] { server.run(); });

  {
    swarm::ServiceClient client(socket_path);
    EXPECT_EQ(client.request("{\"op\":\"ping\"}"), "{\"ok\":true,\"op\":\"ping\"}");
    const std::string cold = client.request(allocate_line("mid_2core_b.txt"));
    const std::string hot = client.request(allocate_line("mid_2core_b.txt"));
    EXPECT_EQ(cold, hot);
    const std::string stats = client.request("{\"op\":\"stats\"}");
    EXPECT_NE(stats.find("\"hits\":1"), std::string::npos) << stats;
    EXPECT_EQ(client.request("{\"op\":\"shutdown\"}"),
              "{\"ok\":true,\"op\":\"shutdown\"}");
  }
  server_thread.join();
  EXPECT_GE(log.count("service-batch"), 4u);
  EXPECT_EQ(log.count("service-stopped"), 1u);
}
