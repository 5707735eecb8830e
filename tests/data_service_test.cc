// Shared data-service tests (distributed/data_service.h): several
// consumers over the real socket transport read and preprocess each record
// exactly once per epoch, in runs of elements per GetElement call; killing
// the pipeline task mid-epoch and restarting it on the same port loses and
// duplicates nothing, because assignment is deterministic and clients
// retry unanswered cursors. TFREPRO_CHAOS_SEED varies the kill points
// (check.sh runs two seeds).

#include "distributed/data_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <deque>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "core/metrics.h"
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

// Every element of one epoch of the pipeline, iterated directly.
std::vector<Element> DirectEpoch(const std::string& path) {
  auto it = Factory(path, "parse_example")();
  TF_CHECK_OK(it.status());
  std::vector<Element> all;
  for (;;) {
    Element e;
    bool eos = false;
    data::IteratorContext ctx;
    TF_CHECK_OK(it.value()->GetNext(&ctx, &e, &eos));
    if (eos) return all;
    all.push_back(std::move(e));
  }
}

// One GetElement request straight into a handler, no transport.
struct Reply {
  Status status;
  std::string body;
  std::deque<Element> run;
  bool end_of_epoch = false;
};

Reply Call(DataServiceHandler* handler, int64_t consumer, int64_t cursor,
           int64_t max_elements) {
  std::string body;
  AppendInt64(&body, consumer);
  AppendInt64(&body, cursor);
  AppendInt64(&body, max_elements);
  Reply reply;
  handler->HandleGetElement(body, [&](const Status& s, const std::string& r) {
    reply.status = s;
    reply.body = r;
  });
  if (reply.status.ok()) {
    size_t off = 0;
    TF_CHECK_OK(ParseGetElementResponse(reply.body, &off, &reply.run,
                                        &reply.end_of_epoch));
  }
  return reply;
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

  Reply first = Call(&handler, 0, 0, 4);
  TF_CHECK_OK(first.status);
  ASSERT_EQ(first.run.size(), 4u);  // a batch, not one element
  Reply replay = Call(&handler, 0, 0, 4);  // the client never saw it
  TF_CHECK_OK(replay.status);
  EXPECT_EQ(first.body, replay.body);  // the whole batch, byte-identical

  // A cursor behind the acknowledged frontier is a protocol violation.
  TF_CHECK_OK(Call(&handler, 0, 4, 4).status);
  EXPECT_EQ(Call(&handler, 0, 0, 4).status.code(), Code::kInvalidArgument);
  // Unknown consumers, empty runs and malformed bodies are rejected.
  EXPECT_EQ(Call(&handler, 7, 0, 4).status.code(), Code::kInvalidArgument);
  EXPECT_EQ(Call(&handler, 0, 8, 0).status.code(), Code::kInvalidArgument);
  std::string two_fields;  // the retired one-element request
  AppendInt64(&two_fields, 0);
  AppendInt64(&two_fields, 8);
  for (const std::string& body : {std::string("xy"), two_fields}) {
    Status malformed;
    handler.HandleGetElement(body, [&](const Status& s, const std::string&) {
      malformed = s;
    });
    EXPECT_EQ(malformed.code(), Code::kInvalidArgument);
  }
}

TEST(DataServiceTest, ConsumerElementsFollowRoundRobinAcrossCalls) {
  // 200 records over 3 consumers: 66-67 elements each, three calls apiece.
  const int kRecords = 200;
  const int kConsumers = 3;
  const std::string path = WriteRecords("dsvc_round_robin", kRecords);
  const std::vector<Element> direct = DirectEpoch(path);
  ASSERT_EQ(direct.size(), static_cast<size_t>(kRecords));

  DataServiceHandler::Options options;
  options.num_consumers = kConsumers;
  DataServiceServer server(Factory(path, "parse_example"), options);
  TF_CHECK_OK(server.Start(0));
  for (int c = 0; c < kConsumers; ++c) {
    DataServiceClient::Options copts;
    copts.consumer = c;
    copts.num_consumers = kConsumers;
    DataServiceClient client(server.port(), copts);
    for (int64_t k = 0;; ++k) {
      EXPECT_EQ(client.cursor(), k);  // elements handed out, not received
      Element e;
      bool eoe = false;
      TF_CHECK_OK(client.GetNext(&e, &eoe));
      if (eoe) {
        EXPECT_EQ(k, (kRecords - c + kConsumers - 1) / kConsumers);
        break;
      }
      ASSERT_LT(k * kConsumers + c, kRecords);
      EXPECT_EQ(ElementKey(e), ElementKey(direct[k * kConsumers + c]))
          << "consumer " << c << " element " << k;
    }
    EXPECT_EQ(client.cursor(), (kRecords - c + kConsumers - 1) / kConsumers);
  }
}

TEST(DataServiceTest, EndOfEpochPartwayThroughARun) {
  const int kRecords = 10;
  const std::string path = WriteRecords("dsvc_partial_epoch", kRecords);
  const std::vector<Element> direct = DirectEpoch(path);
  DataServiceHandler handler(Factory(path, "parse_example"), {});

  Reply a = Call(&handler, 0, 0, 4);
  TF_CHECK_OK(a.status);
  EXPECT_EQ(a.run.size(), 4u);
  EXPECT_FALSE(a.end_of_epoch);
  Reply b = Call(&handler, 0, 4, 4);
  TF_CHECK_OK(b.status);
  EXPECT_EQ(b.run.size(), 4u);
  Reply c = Call(&handler, 0, 8, 4);  // two elements left, then the end
  TF_CHECK_OK(c.status);
  ASSERT_EQ(c.run.size(), 2u);
  EXPECT_TRUE(c.end_of_epoch);
  EXPECT_EQ(ElementKey(c.run[0]), ElementKey(direct[8]));
  EXPECT_EQ(ElementKey(c.run[1]), ElementKey(direct[9]));
  Reply d = Call(&handler, 0, 10, 4);
  TF_CHECK_OK(d.status);
  EXPECT_TRUE(d.run.empty());
  EXPECT_TRUE(d.end_of_epoch);

  // Through the client: end of epoch comes after the buffered elements,
  // and asking again still answers end of epoch.
  DataServiceServer server(Factory(path, "parse_example"), {});
  TF_CHECK_OK(server.Start(0));
  DataServiceClient client(server.port(), {});
  for (int i = 0; i < kRecords; ++i) {
    Element e;
    bool eoe = true;
    TF_CHECK_OK(client.GetNext(&e, &eoe));
    ASSERT_FALSE(eoe) << "element " << i;
    EXPECT_EQ(ElementKey(e), ElementKey(direct[i]));
  }
  for (int again = 0; again < 2; ++again) {
    Element e;
    bool eoe = false;
    TF_CHECK_OK(client.GetNext(&e, &eoe));
    EXPECT_TRUE(eoe);
    EXPECT_TRUE(e.empty());
  }
  EXPECT_EQ(client.cursor(), kRecords);
}

TEST(DataServiceTest, FullBufferGivesPartialRunThenUnavailable) {
  // Two consumers, room for three elements the slower one has not taken:
  // consumer 0 racing ahead gets a partial run, then nothing.
  const std::string path = WriteRecords("dsvc_max_ahead", 20);
  const std::vector<Element> direct = DirectEpoch(path);
  DataServiceHandler::Options options;
  options.num_consumers = 2;
  options.max_ahead = 3;
  DataServiceHandler handler(Factory(path, "parse_example"), options);

  Reply partial = Call(&handler, 0, 0, 8);
  TF_CHECK_OK(partial.status);
  ASSERT_EQ(partial.run.size(), 3u);  // elements 0, 2, 4
  EXPECT_FALSE(partial.end_of_epoch);
  for (size_t k = 0; k < partial.run.size(); ++k) {
    EXPECT_EQ(ElementKey(partial.run[k]), ElementKey(direct[2 * k]));
  }
  Reply blocked = Call(&handler, 0, 3, 8);
  EXPECT_EQ(blocked.status.code(), Code::kUnavailable);
  EXPECT_TRUE(blocked.status.IsRetryable());

  // The slow consumer drains the buffer, and consumer 0 moves again.
  Reply slow = Call(&handler, 1, 0, 8);
  TF_CHECK_OK(slow.status);
  ASSERT_GE(slow.run.size(), 3u);
  EXPECT_EQ(ElementKey(slow.run[0]), ElementKey(direct[1]));
  Reply resumed = Call(&handler, 0, 3, 8);
  TF_CHECK_OK(resumed.status);
  ASSERT_GE(resumed.run.size(), 1u);
  EXPECT_EQ(ElementKey(resumed.run[0]), ElementKey(direct[6]));
}

TEST(DataServiceTest, KillingPipelineTaskMidEpochLosesNothing) {
  // Chaos: three consumers drain a 6000-record epoch — 2000 elements,
  // dozens of GetElement runs each — while the pipeline task is killed
  // (server destroyed: connections severed, buffered elements and cursors
  // gone) and restarted cold on the same port, four times. Each kill fires
  // once the service has served a seed-dependent number of elements, so it
  // lands mid-epoch while runs are in flight. Recovery relies only on
  // deterministic re-derivation plus client cursor retries.
  const uint64_t seed = ChaosSeed();
  const int kRecords = 6000;
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

  metrics::Registry* registry = metrics::Registry::Global();
  metrics::Counter* served = registry->GetCounter("data.service_elements");
  metrics::Counter* retries =
      registry->GetCounter("data.service_client_retries");
  const int64_t served_before = served->value();
  const int64_t retries_before = retries->value();

  std::vector<std::vector<Element>> got(kConsumers);
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back(
        [&, c]() { got[c] = DrainConsumer(port, c, kConsumers); });
  }

  // Kill k fires after (k+1)/5 of the epoch, give or take a twentieth,
  // shifted by the seed so different schedules get exercised.
  const int kKills = 4;
  for (int kill = 0; kill < kKills; ++kill) {
    const int64_t jitter =
        static_cast<int64_t>((seed * 131 + kill * 977) % (kRecords / 10)) -
        kRecords / 20;
    const int64_t at =
        served_before + kRecords * (kill + 1) / (kKills + 1) + jitter;
    while (served->value() < at) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    server.reset();  // SIGKILL-equivalent for an in-process task
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    server = make_server();
    TF_CHECK_OK(server->Start(port));  // same port: clients just redial
  }
  for (std::thread& t : consumers) t.join();

  // The kills interrupted the consumers: they had to retry.
  EXPECT_GT(retries->value(), retries_before);
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

TEST(DataServiceTest, CancelWinsOverBufferedElements) {
  const std::string path = WriteRecords("dsvc_cancel_buffered", 100);
  DataServiceServer server(Factory(path, "parse_example"), {});
  TF_CHECK_OK(server.Start(0));
  DataServiceClient client(server.port(), {});
  Element e;
  bool eoe = false;
  TF_CHECK_OK(client.GetNext(&e, &eoe));  // the rest of its run is buffered
  ASSERT_FALSE(eoe);
  client.Cancel();
  EXPECT_EQ(client.GetNext(&e, &eoe).code(), Code::kCancelled);
  EXPECT_EQ(client.GetNext(&e, &eoe).code(), Code::kCancelled);
  EXPECT_EQ(client.cursor(), 1);
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
  // More records than one run (32 elements per call, data_service.cc), so
  // the client still holds buffered elements when the server goes away.
  const int kRecords = 100;
  const int kRun = 32;
  const std::string path = WriteRecords("dsvc_shutdown", kRecords);
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
  // The buffer drains; the first pull that needs the server fails with a
  // retryable transport error once the client gives up — never a hang, and
  // within one run's worth of pulls.
  Status s;
  int pulls = 0;
  while (pulls < kRecords) {
    s = client.GetNext(&e, &eoe);
    ++pulls;
    if (!s.ok()) break;
    ASSERT_FALSE(eoe);
  }
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsRetryable()) << s;
  EXPECT_LE(pulls, kRun);
}

}  // namespace
}  // namespace distributed
}  // namespace tfrepro
