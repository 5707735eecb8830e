// Shared data-service tests (distributed/data_service.h): several
// consumers over the real socket transport read and preprocess each record
// exactly once per epoch; killing the pipeline task mid-epoch and
// restarting it on the same port loses and duplicates nothing, because
// assignment is deterministic and clients retry unanswered cursors.
// TFREPRO_CHAOS_SEED varies the kill points (check.sh runs two seeds).

#include "distributed/data_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "data/record_file.h"

namespace tfrepro {
namespace distributed {
namespace {

using data::Element;

uint64_t ChaosSeed() {
  const char* env = std::getenv("TFREPRO_CHAOS_SEED");
  return env != nullptr ? static_cast<uint64_t>(std::atoll(env)) : 1;
}

std::string WriteRecords(const std::string& name, int count) {
  const std::string path = ::testing::TempDir() + "/" + name;
  TF_CHECK_OK(data::WriteClusteredRecordFile(path, count, /*num_classes=*/3,
                                             /*dim=*/4, /*seed=*/17));
  return path;
}

// The label of a parse_example element — a compact identity for
// exactly-once accounting (WriteClusteredRecordFile labels are not unique,
// so tests that need identity use the features too).
std::string ElementKey(const Element& e) {
  std::string key;
  for (const Tensor& t : e) t.AppendToBytes(&key);
  return key;
}

// Counts map-fn invocations process-wide: the exactly-once-preprocessing
// probe. Registered once; tests reset the counter.
std::atomic<int64_t> g_map_calls{0};
const bool g_registered = []() {
  TF_CHECK_OK(data::MapFnRegistry::Global()->Register(
      "test_counting_parse",
      [](const Element& in, Element* out) -> Status {
        g_map_calls.fetch_add(1);
        auto parse = data::MapFnRegistry::Global()->Lookup("parse_example");
        TF_RETURN_IF_ERROR(parse.status());
        return parse.value()(in, out);
      }));
  return true;
}();

DataServiceHandler::IteratorFactory Factory(const std::string& path,
                                            const std::string& map_fn) {
  auto factory = RecordPipelineFactory(
      {path}, map_fn, /*parallelism=*/2,
      {DataType::kFloat, DataType::kInt64}, /*repeat=*/1,
      /*shuffle_buffer=*/0, /*seed=*/0);
  TF_CHECK_OK(factory.status());
  return factory.value();
}

// Drains one consumer's share of the epoch; returns its elements in order.
std::vector<Element> DrainConsumer(int port, int consumer, int num_consumers) {
  DataServiceClient::Options options;
  options.consumer = consumer;
  options.num_consumers = num_consumers;
  options.call_deadline_seconds = 2.0;
  options.total_deadline_seconds = 60.0;
  DataServiceClient client(port, options);
  std::vector<Element> got;
  for (;;) {
    Element e;
    bool end_of_epoch = false;
    TF_CHECK_OK(client.GetNext(&e, &end_of_epoch));
    if (end_of_epoch) return got;
    got.push_back(std::move(e));
  }
}

TEST(DataServiceTest, ThreeConsumersReadEachRecordExactlyOnce) {
  ASSERT_TRUE(g_registered);
  const int kRecords = 47;
  const int kConsumers = 3;
  const std::string path = WriteRecords("dsvc_exactly_once", kRecords);
  g_map_calls.store(0);

  DataServiceHandler::Options options;
  options.num_consumers = kConsumers;
  DataServiceServer server(Factory(path, "test_counting_parse"), options);
  TF_CHECK_OK(server.Start(0));

  std::vector<std::vector<Element>> per_consumer(kConsumers);
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&, c]() {
      per_consumer[c] = DrainConsumer(server.port(), c, kConsumers);
    });
  }
  for (std::thread& t : consumers) t.join();

  // Every record delivered to exactly one consumer...
  std::multiset<std::string> all;
  size_t total = 0;
  for (const auto& got : per_consumer) {
    total += got.size();
    for (const Element& e : got) all.insert(ElementKey(e));
  }
  EXPECT_EQ(total, static_cast<size_t>(kRecords));
  EXPECT_EQ(all.size(), static_cast<size_t>(kRecords));
  for (const std::string& key : std::set<std::string>(all.begin(), all.end())) {
    EXPECT_EQ(all.count(key), 1u);
  }
  // ...round-robin: consumer c gets elements c, c+3, c+6, ... of the
  // pipeline, so shares differ by at most one.
  for (const auto& got : per_consumer) {
    EXPECT_GE(got.size(), static_cast<size_t>(kRecords / kConsumers));
    EXPECT_LE(got.size(), static_cast<size_t>(kRecords / kConsumers + 1));
  }
  // ...and preprocessed exactly once: no map call ran twice, no matter how
  // many consumers pulled.
  EXPECT_EQ(g_map_calls.load(), kRecords);
}

TEST(DataServiceTest, RetriedCursorIsRetransmittedNotRegenerated) {
  const int kRecords = 10;
  const std::string path = WriteRecords("dsvc_retransmit", kRecords);
  DataServiceHandler handler(Factory(path, "parse_example"), {});

  auto call = [&](int64_t consumer, int64_t cursor) {
    std::string body;
    AppendInt64(&body, consumer);
    AppendInt64(&body, cursor);
    Status status;
    std::string resp;
    handler.HandleGetElement(body,
                             [&](const Status& s, const std::string& r) {
                               status = s;
                               resp = r;
                             });
    return std::make_pair(status, resp);
  };

  auto first = call(0, 0);
  TF_CHECK_OK(first.first);
  auto replay = call(0, 0);  // client never saw the answer and retries
  TF_CHECK_OK(replay.first);
  EXPECT_EQ(first.second, replay.second);  // byte-identical retransmission

  // A cursor behind the acknowledged frontier is a protocol violation.
  TF_CHECK_OK(call(0, 1).first);
  EXPECT_EQ(call(0, 0).first.code(), Code::kInvalidArgument);
  // Unknown consumers and malformed bodies are rejected.
  EXPECT_EQ(call(7, 0).first.code(), Code::kInvalidArgument);
  Status malformed;
  handler.HandleGetElement("xy", [&](const Status& s, const std::string&) {
    malformed = s;
  });
  EXPECT_EQ(malformed.code(), Code::kInvalidArgument);
}

TEST(DataServiceTest, KillingPipelineTaskMidEpochLosesNothing) {
  // Chaos: consumers drain a 60-record epoch while the pipeline task is
  // killed (server destroyed: connections severed, buffered elements and
  // cursors gone) and restarted cold on the same port — twice. Recovery
  // relies only on deterministic re-derivation plus client cursor retries.
  const uint64_t seed = ChaosSeed();
  const int kRecords = 60;
  const int kConsumers = 3;
  const std::string path = WriteRecords(
      "dsvc_chaos_" + std::to_string(seed), kRecords);

  // One epoch served uninterrupted = ground truth.
  std::vector<std::vector<Element>> expected(kConsumers);
  {
    DataServiceHandler::Options options;
    options.num_consumers = kConsumers;
    DataServiceServer server(Factory(path, "parse_example"), options);
    TF_CHECK_OK(server.Start(0));
    for (int c = 0; c < kConsumers; ++c) {
      expected[c] = DrainConsumer(server.port(), c, kConsumers);
    }
  }

  DataServiceHandler::Options options;
  options.num_consumers = kConsumers;
  auto make_server = [&]() {
    return std::make_unique<DataServiceServer>(
        Factory(path, "parse_example"), options);
  };
  auto server = make_server();
  TF_CHECK_OK(server->Start(0));
  const int port = server->port();

  std::vector<std::vector<Element>> got(kConsumers);
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back(
        [&, c]() { got[c] = DrainConsumer(port, c, kConsumers); });
  }

  // Kill points vary by seed so different schedules get exercised.
  for (int kill = 0; kill < 2; ++kill) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(5 + ((seed * 13 + kill * 29) % 40)));
    server.reset();  // SIGKILL-equivalent for an in-process task
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    server = make_server();
    TF_CHECK_OK(server->Start(port));  // same port: clients just redial
  }
  for (std::thread& t : consumers) t.join();

  // No element dropped, duplicated, or reordered — byte-for-byte the
  // uninterrupted epoch.
  for (int c = 0; c < kConsumers; ++c) {
    ASSERT_EQ(got[c].size(), expected[c].size()) << "consumer " << c;
    for (size_t i = 0; i < got[c].size(); ++i) {
      EXPECT_EQ(ElementKey(got[c][i]), ElementKey(expected[c][i]))
          << "consumer " << c << " element " << i;
    }
  }
}

TEST(DataServiceTest, ClientCancelUnblocksPendingGetNext) {
  // No server listening: GetNext sits in its retry loop until Cancel.
  DataServiceClient::Options options;
  options.total_deadline_seconds = 600.0;
  options.call_deadline_seconds = 0.2;
  DataServiceClient client(1, options);  // port 1: nothing listens there
  Status got;
  std::thread puller([&]() {
    Element e;
    bool eoe = false;
    got = client.GetNext(&e, &eoe);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  client.Cancel();
  puller.join();
  EXPECT_EQ(got.code(), Code::kCancelled);
}

TEST(DataServiceTest, ServerShutdownFailsConsumersCleanly) {
  const std::string path = WriteRecords("dsvc_shutdown", 6);
  DataServiceHandler::Options options;
  options.num_consumers = 1;
  DataServiceServer server(Factory(path, "parse_example"), options);
  TF_CHECK_OK(server.Start(0));

  DataServiceClient::Options copts;
  copts.total_deadline_seconds = 1.0;  // don't retry forever
  copts.call_deadline_seconds = 0.3;
  DataServiceClient client(server.port(), copts);
  Element e;
  bool eoe = false;
  TF_CHECK_OK(client.GetNext(&e, &eoe));
  server.Shutdown();
  // After shutdown the next pull fails with a retryable transport error
  // (the client gave up) or Cancelled from the handler — never a hang.
  Status s = client.GetNext(&e, &eoe);
  EXPECT_FALSE(s.ok());
}

}  // namespace
}  // namespace distributed
}  // namespace tfrepro
