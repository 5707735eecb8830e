// Tests for the core/bytes.h codec and a mutation fuzz over every decoder
// built on it (DESIGN.md §11): Tensor::ParseFromBytes, attr values,
// graphs, StepStats, rpc::ReadStatus, DecodeExample, the data service's
// GetElement request and response, and the checkpoint reader. Each decoder gets one or more valid encodings; every strict
// prefix must be rejected, and every seeded mutation (int64 overwrites with
// hostile counts at every offset, random byte flips) must either be
// rejected or decode to a value that re-encodes to exactly the bytes it
// consumed. Nothing may crash or throw. Golden bytes pin the layout.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/bytes.h"
#include "core/tensor.h"
#include "data/dataset.h"
#include "data/record_file.h"
#include "distributed/data_service.h"
#include "distributed/rpc/wire.h"
#include "graph/graph.h"
#include "graph/graph_io.h"
#include "kernels/checkpoint_format.h"
#include "runtime/tracing.h"

namespace tfrepro {
namespace {

std::string Hex(const std::string& bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 15]);
  }
  return out;
}

// Parses `in`; on success writes what it parsed, re-encoded, to *out and
// the number of input bytes the parse consumed to *consumed.
using Decoder = std::function<bool(const std::string& in, size_t* consumed,
                                   std::string* out)>;

// Runs one decode and checks the contract. Returns whether it decoded.
bool ExpectSafe(const Decoder& decode, const std::string& in,
                const std::string& what) {
  size_t consumed = 0;
  std::string out;
  bool ok = false;
  try {
    ok = decode(in, &consumed, &out);
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": threw " << e.what();
    return false;
  }
  if (ok) {
    EXPECT_LE(consumed, in.size()) << what;
    EXPECT_EQ(Hex(out), Hex(in.substr(0, consumed)))
        << what << ": decoded a value that re-encodes differently";
  }
  return ok;
}

void FuzzDecoder(const std::string& name, const std::string& valid,
                 const Decoder& decode, uint64_t seed) {
  SCOPED_TRACE(name);
  size_t consumed = 0;
  std::string out;
  ASSERT_TRUE(decode(valid, &consumed, &out)) << "valid encoding rejected";
  ASSERT_EQ(consumed, valid.size());
  ASSERT_EQ(Hex(out), Hex(valid));

  for (size_t cut = 0; cut < valid.size(); ++cut) {
    EXPECT_FALSE(ExpectSafe(decode, valid.substr(0, cut),
                            "cut at " + std::to_string(cut)))
        << "a strict prefix decoded (cut at " << cut << ")";
  }
  const int64_t kHostile[] = {-1, int64_t{1} << 31, int64_t{1} << 62,
                              INT64_MAX};
  for (size_t at = 0; at + sizeof(int64_t) <= valid.size(); ++at) {
    for (int64_t v : kHostile) {
      std::string m = valid;
      std::memcpy(&m[at], &v, sizeof(v));
      ExpectSafe(decode, m,
                 "int64 " + std::to_string(v) + " at " + std::to_string(at));
    }
  }
  std::mt19937_64 rng(seed);
  for (int round = 0; round < 2000; ++round) {
    std::string m = valid;
    const int flips = 1 + static_cast<int>(rng() % 4);
    for (int f = 0; f < flips; ++f) {
      m[rng() % m.size()] ^= static_cast<char>(1 + rng() % 255);
    }
    ExpectSafe(decode, m, "flip round " + std::to_string(round));
  }
}

// --- the codec itself ---

TEST(BytesTest, Int64RoundTrip) {
  std::string body;
  AppendInt64(&body, 0);
  AppendInt64(&body, -1);
  AppendInt64(&body, INT64_MAX);
  AppendInt64(&body, INT64_MIN);
  size_t offset = 0;
  int64_t v = 0;
  ASSERT_TRUE(ReadInt64(body, &offset, &v));
  EXPECT_EQ(v, 0);
  ASSERT_TRUE(ReadInt64(body, &offset, &v));
  EXPECT_EQ(v, -1);
  ASSERT_TRUE(ReadInt64(body, &offset, &v));
  EXPECT_EQ(v, INT64_MAX);
  ASSERT_TRUE(ReadInt64(body, &offset, &v));
  EXPECT_EQ(v, INT64_MIN);
  EXPECT_EQ(offset, body.size());
  EXPECT_FALSE(ReadInt64(body, &offset, &v));  // exhausted
}

TEST(BytesTest, StringRoundTripIncludingEmbeddedNul) {
  std::string body;
  AppendString(&body, "");
  AppendString(&body, std::string("a\0b", 3));
  size_t offset = 0;
  std::string s;
  ASSERT_TRUE(ReadString(body, &offset, &s));
  EXPECT_EQ(s, "");
  ASSERT_TRUE(ReadString(body, &offset, &s));
  EXPECT_EQ(s, std::string("a\0b", 3));
  EXPECT_EQ(offset, body.size());
}

TEST(BytesTest, TruncatedReadsFailCleanly) {
  std::string body;
  AppendString(&body, "hello");
  for (size_t cut = 0; cut < body.size(); ++cut) {
    std::string truncated = body.substr(0, cut);
    size_t offset = 0;
    std::string s;
    EXPECT_FALSE(ReadString(truncated, &offset, &s)) << "cut at " << cut;
  }
}

TEST(BytesTest, IntegersAreLittleEndian) {
  std::string body;
  AppendInt64(&body, 0x0102030405060708);
  AppendFloat(&body, 1.0f);
  EXPECT_EQ(Hex(body), "0807060504030201" "0000803f");
}

TEST(BytesTest, ReadCountRejectsCountsTheInputCannotHold) {
  auto read = [](int64_t n, size_t payload, size_t item) {
    std::string in;
    AppendInt64(&in, n);
    in.append(payload, 'x');
    size_t offset = 0;
    int64_t got = -7;
    const bool ok = ReadCount(in, &offset, item, &got);
    if (ok) {
      EXPECT_EQ(got, n);
    }
    return ok;
  };
  EXPECT_TRUE(read(0, 0, 8));
  EXPECT_TRUE(read(3, 24, 8));   // exactly fits
  EXPECT_FALSE(read(4, 24, 8));  // one more than fits
  EXPECT_TRUE(read(6, 24, 4));
  EXPECT_FALSE(read(-1, 24, 8));
  EXPECT_FALSE(read(int64_t{1} << 60, 24, 8));
  EXPECT_FALSE(read(INT64_MAX, 24, 1));
  std::string short_in = "1234";
  size_t offset = 0;
  int64_t n = 0;
  EXPECT_FALSE(ReadCount(short_in, &offset, 8, &n));
}

TEST(BytesTest, ShapeRoundTripAndRankLimit) {
  std::string body;
  AppendShape(&body, TensorShape({2, 0, 5}));
  size_t offset = 0;
  TensorShape shape;
  TF_CHECK_OK(ReadShape(body, &offset, &shape));
  EXPECT_EQ(shape, TensorShape({2, 0, 5}));
  EXPECT_EQ(offset, body.size());

  std::string deep;
  AppendInt64(&deep, 17);
  for (int i = 0; i < 17; ++i) AppendInt64(&deep, 1);
  offset = 0;
  EXPECT_EQ(ReadShape(deep, &offset, &shape).code(), Code::kDataLoss);

  std::string negative;
  AppendShape(&negative, TensorShape());
  negative[0] = 1;  // rank 1 ...
  AppendInt64(&negative, -3);  // ... with a negative dim
  offset = 0;
  EXPECT_FALSE(ReadShape(negative, &offset, &shape).ok());
}

// --- golden bytes: a layout change cannot land silently ---

TEST(CodecGoldenTest, FloatTensor) {
  std::string bytes;
  Tensor::Vec<float>({1.0f, -2.0f}).AppendToBytes(&bytes);
  EXPECT_EQ(Hex(bytes),
            "0100000000000000"   // dtype kFloat
            "0100000000000000"   // rank 1
            "0200000000000000"   // dim 2
            "0000803f000000c0"); // 1.0f, -2.0f
}

TEST(CodecGoldenTest, StringTensor) {
  Tensor t(DataType::kString, TensorShape({2}));
  t.str(0) = "ab";
  std::string bytes;
  t.AppendToBytes(&bytes);
  EXPECT_EQ(Hex(bytes),
            "0600000000000000"    // dtype kString
            "0100000000000000"    // rank 1
            "0200000000000000"    // dim 2
            "02000000000000006162"  // "ab"
            "0000000000000000");  // ""
}

StepStats SmallStepStats() {
  StepStats stats;
  stats.step_id = 7;
  NodeExecStats n;
  n.node_name = "n";
  n.op = "Op";
  n.device = "d";
  n.scheduled_micros = 1;
  n.start_micros = 2;
  n.end_micros = 3;
  stats.nodes.push_back(n);
  SpanEvent s;
  s.name = "s";
  s.scope = "t";
  s.start_micros = 4;
  s.end_micros = 5;
  s.args["k"] = "v";
  stats.spans.push_back(s);
  return stats;
}

TEST(CodecGoldenTest, SmallStepStats) {
  std::string bytes;
  SmallStepStats().AppendToBytes(&bytes);
  EXPECT_EQ(Hex(bytes),
            "0700000000000000"  // step_id
            "0100000000000000"  // one node
            "01000000000000006e" "02000000000000004f70"
            "010000000000000064"
            "0100000000000000" "0200000000000000" "0300000000000000"
            "0000000000000000"  // no transfers
            "0000000000000000"  // no instants
            "0100000000000000"  // one span
            "010000000000000073" "010000000000000074"
            "0400000000000000" "0500000000000000"
            "0100000000000000"  // one arg
            "01000000000000006b" "010000000000000076");
}

// --- named regressions ---

TEST(CodecRegressionTest, TensorWhoseByteCountWrapsIsRejected) {
  // float, rank 2, dims [2^31, 2^31]: 2^62 elements, whose 4-byte payload
  // size wraps to 0 in size_t. Must not decode into a tensor that claims
  // 2^62 elements over an empty buffer.
  std::string bytes;
  AppendInt64(&bytes, static_cast<int64_t>(DataType::kFloat));
  AppendInt64(&bytes, 2);
  AppendInt64(&bytes, int64_t{1} << 31);
  AppendInt64(&bytes, int64_t{1} << 31);
  ASSERT_EQ(bytes.size(), 32u);
  size_t offset = 0;
  Result<Tensor> t = Tensor::ParseFromBytes(bytes, &offset);
  ASSERT_FALSE(t.ok()) << "decoded " << t.value().num_elements()
                       << " elements over " << t.value().TotalBytes()
                       << " bytes";
  EXPECT_EQ(t.status().code(), Code::kDataLoss);
}

TEST(CodecRegressionTest, IntListAttrWithHugeCountIsRejected) {
  std::string bytes;
  AppendInt64(&bytes, static_cast<int64_t>(AttrValue::Kind::kIntList));
  AppendInt64(&bytes, int64_t{1} << 60);
  AppendInt64(&bytes, 42);
  size_t offset = 0;
  Result<AttrValue> attr = ParseAttrValueFromBytes(bytes, &offset);
  ASSERT_FALSE(attr.ok());
  EXPECT_EQ(attr.status().code(), Code::kDataLoss);
}

TEST(CodecRegressionTest, RefDtypeTensorIsRejected) {
  std::string bytes;
  AppendInt64(&bytes, static_cast<int64_t>(MakeRefType(DataType::kFloat)));
  AppendShape(&bytes, TensorShape());
  AppendFloat(&bytes, 1.0f);
  size_t offset = 0;
  EXPECT_EQ(Tensor::ParseFromBytes(bytes, &offset).status().code(),
            Code::kDataLoss);
}

// --- fuzz: one test per decoder ---

Decoder TensorDecoder() {
  return [](const std::string& in, size_t* consumed, std::string* out) {
    Result<Tensor> t = Tensor::ParseFromBytes(in, consumed);
    if (!t.ok()) return false;
    t.value().AppendToBytes(out);
    return true;
  };
}

TEST(CodecFuzzTest, Tensor) {
  std::vector<std::pair<std::string, Tensor>> cases;
  Tensor f(DataType::kFloat, TensorShape({2, 3}));
  for (int i = 0; i < 6; ++i) f.data<float>()[i] = 0.5f * i - 1.0f;
  cases.emplace_back("float", f);
  cases.emplace_back("double", Tensor::Vec<double>({3.25, -1e300}));
  cases.emplace_back("int32", Tensor::Vec<int32_t>({INT32_MIN, 0, 7}));
  cases.emplace_back("int64", Tensor::Vec<int64_t>({INT64_MIN, 5}));
  cases.emplace_back("bool", Tensor::Vec<bool>({true, false, true}));
  Tensor u8(DataType::kUint8, TensorShape({2, 2}));
  for (int i = 0; i < 4; ++i) u8.data<uint8_t>()[i] = uint8_t(250 + i);
  cases.emplace_back("uint8", u8);
  Tensor s(DataType::kString, TensorShape({3}));
  s.str(0) = "";
  s.str(1) = std::string("nul\0in", 6);
  s.str(2) = "tail";
  cases.emplace_back("string", s);
  cases.emplace_back("string scalar", Tensor::Scalar(std::string("x")));
  cases.emplace_back("empty", Tensor(DataType::kFloat, TensorShape({0, 4})));
  cases.emplace_back("uninitialized", Tensor());
  uint64_t seed = 1;
  for (const auto& [name, t] : cases) {
    std::string bytes;
    t.AppendToBytes(&bytes);
    FuzzDecoder(name, bytes, TensorDecoder(), seed++);
  }
}

TEST(CodecFuzzTest, AttrValue) {
  Decoder decode = [](const std::string& in, size_t* consumed,
                      std::string* out) {
    Result<AttrValue> a = ParseAttrValueFromBytes(in, consumed);
    if (!a.ok()) return false;
    AppendAttrValueToBytes(a.value(), out);
    return true;
  };
  std::vector<std::pair<std::string, AttrValue>> cases = {
      {"none", AttrValue()},
      {"int", AttrValue(int64_t{-12})},
      {"float", AttrValue(2.5f)},
      {"bool", AttrValue(true)},
      {"string", AttrValue(std::string("relu"))},
      {"type", AttrValue(DataType::kInt64)},
      {"ref type", AttrValue(MakeRefType(DataType::kFloat))},
      {"shape", AttrValue(TensorShape({3, 1}))},
      {"tensor", AttrValue(Tensor::Vec<int32_t>({1, 2}))},
      {"int list", AttrValue(std::vector<int64_t>{1, -2, 3})},
      {"float list", AttrValue(std::vector<float>{0.25f, -8.0f})},
      {"string list", AttrValue(std::vector<std::string>{"a", "", "bc"})},
      {"type list",
       AttrValue(DataTypeVector{DataType::kFloat, DataType::kString})},
      {"shape list",
       AttrValue(std::vector<TensorShape>{TensorShape({2}), TensorShape()})},
  };
  uint64_t seed = 100;
  for (const auto& [name, attr] : cases) {
    std::string bytes;
    AppendAttrValueToBytes(attr, &bytes);
    FuzzDecoder(name, bytes, decode, seed++);
  }
}

NodeDef MakeDef(const std::string& name, const std::string& op,
                AttrMap attrs) {
  NodeDef def;
  def.name = name;
  def.op = op;
  def.attrs = std::move(attrs);
  return def;
}

// Four nodes, two data and two control edges; the encoding ends with the
// edge count and four 32-byte edge records: a->add, a->sink (control),
// p->add, add->sink (control).
std::string SmallGraphBytes() {
  Graph g;
  Node* a = g.AddNode(MakeDef("a", "Const",
                              {{"dtype", AttrValue(DataType::kFloat)},
                               {"value", AttrValue(Tensor::Scalar(1.5f))}}))
                .value();
  Node* p = g.AddNode(MakeDef("p", "Placeholder",
                              {{"dtype", AttrValue(DataType::kFloat)},
                               {"shape", AttrValue(TensorShape())}}))
                .value();
  Node* add =
      g.AddNode(MakeDef("add", "Add", {{"T", AttrValue(DataType::kFloat)}}))
          .value();
  Node* sink = g.AddNode(MakeDef("sink", "NoOp", {})).value();
  add->set_requested_device("/device:CPU:0");
  add->set_assigned_device("/job:worker/task:0/device:CPU:0");
  EXPECT_TRUE(g.AddEdge(a, 0, add, 0).ok());
  EXPECT_TRUE(g.AddEdge(p, 0, add, 1).ok());
  g.AddControlEdge(a, sink);
  g.AddControlEdge(add, sink);
  std::string bytes;
  AppendGraphToBytes(g, &bytes);
  return bytes;
}

bool GraphRoundTrips(const std::string& in, size_t* consumed,
                     std::string* out) {
  Result<std::unique_ptr<Graph>> parsed = ParseGraphFromBytes(in, consumed);
  if (!parsed.ok()) return false;
  AppendGraphToBytes(*parsed.value(), out);
  return true;
}

TEST(CodecFuzzTest, Graph) {
  FuzzDecoder("graph", SmallGraphBytes(), GraphRoundTrips, 200);
}

// Encodings the graph would store differently from how they read: the
// decoder rejects them rather than return a graph that re-encodes to other
// bytes.
TEST(CodecCanonicalTest, GraphEdgesOutOfSourceOrderAreRejected) {
  std::string bytes = SmallGraphBytes();
  const size_t last = bytes.size() - 32;
  // p->add and add->sink swap places: sources 0, 0, 2, 1.
  bytes = bytes.substr(0, last - 32) + bytes.substr(last) +
          bytes.substr(last - 32, 32);
  size_t offset = 0;
  EXPECT_EQ(ParseGraphFromBytes(bytes, &offset).status().code(),
            Code::kDataLoss);
}

TEST(CodecCanonicalTest, GraphRepeatedControlEdgeIsRejected) {
  std::string bytes = SmallGraphBytes();
  const size_t count_at = bytes.size() - 4 * 32 - 8;
  int64_t count = 0;
  std::memcpy(&count, &bytes[count_at], sizeof(count));
  ASSERT_EQ(count, 4);
  ++count;
  std::memcpy(&bytes[count_at], &count, sizeof(count));
  bytes += bytes.substr(bytes.size() - 32);  // add->sink again
  size_t offset = 0;
  EXPECT_EQ(ParseGraphFromBytes(bytes, &offset).status().code(),
            Code::kDataLoss);
}

TEST(CodecFuzzTest, StepStats) {
  StepStats stats = SmallStepStats();
  TransferStats t;
  t.kind = TransferStats::Kind::kRecv;
  t.tensor_name = "mm:0";
  t.send_device = "ps";
  t.recv_device = "w";
  t.bytes = 128;
  t.recv_start_micros = 21;
  t.recv_end_micros = 30;
  stats.transfers.push_back(t);
  InstantEvent ev;
  ev.name = "fault";
  ev.micros = 25;
  ev.args["a"] = "1";
  ev.args["b"] = "2";
  stats.instants.push_back(ev);
  std::string bytes;
  stats.AppendToBytes(&bytes);
  FuzzDecoder("step stats", bytes,
              [](const std::string& in, size_t* consumed, std::string* out) {
                StepStats parsed;
                if (!StepStats::ParseFromBytes(in, consumed, &parsed)) {
                  return false;
                }
                parsed.AppendToBytes(out);
                return true;
              },
              300);
}

TEST(CodecFuzzTest, RpcStatus) {
  Decoder decode = [](const std::string& in, size_t* consumed,
                      std::string* out) {
    Status s;
    if (!distributed::rpc::ReadStatus(in, consumed, &s)) return false;
    distributed::rpc::AppendStatus(out, s);
    return true;
  };
  uint64_t seed = 400;
  for (const Status& s : {Status::OK(), Unavailable("task died"),
                          DataLoss("")}) {
    std::string bytes;
    distributed::rpc::AppendStatus(&bytes, s);
    FuzzDecoder(s.ToString(), bytes, decode, seed++);
  }
}

TEST(CodecFuzzTest, Example) {
  const float features[3] = {0.5f, -1.0f, 2.0f};
  FuzzDecoder("example", data::EncodeExample(features, 3, 9),
              [](const std::string& in, size_t* consumed, std::string* out) {
                Tensor f, label;
                if (!data::DecodeExample(in, &f, &label).ok()) return false;
                *out = data::EncodeExample(f.data<float>(),
                                     static_cast<int>(f.num_elements()),
                                     label.flat<int64_t>(0));
                *consumed = in.size();
                return true;
              },
              500);
}

void AppendElementRun(const std::vector<data::Element>& run,
                      bool end_of_epoch, std::string* out) {
  AppendInt64(out, static_cast<int64_t>(run.size()));
  AppendInt64(out, end_of_epoch ? 1 : 0);
  for (const data::Element& element : run) {
    AppendInt64(out, static_cast<int64_t>(element.size()));
    for (const Tensor& t : element) t.AppendToBytes(out);
  }
}

TEST(CodecFuzzTest, GetElementResponse) {
  Decoder decode = [](const std::string& in, size_t* consumed,
                      std::string* out) {
    std::deque<data::Element> run;
    bool end_of_epoch = false;
    if (!distributed::ParseGetElementResponse(in, consumed, &run,
                                              &end_of_epoch)
             .ok()) {
      return false;
    }
    AppendElementRun({run.begin(), run.end()}, end_of_epoch, out);
    return true;
  };
  const data::Element example = {Tensor::Vec<float>({0.5f, -2.0f}),
                                 Tensor::Scalar(int64_t{7})};
  const std::vector<std::pair<std::vector<data::Element>, bool>> cases = {
      {{example, {Tensor::Vec<int32_t>({1, 2, 3})}}, false},
      {{example}, true},           // the epoch ends partway through a run
      {{}, true},                  // nothing left
      {{data::Element{}}, false},  // an element with no components
  };
  uint64_t seed = 600;
  for (const auto& [run, end_of_epoch] : cases) {
    std::string bytes;
    AppendElementRun(run, end_of_epoch, &bytes);
    FuzzDecoder("run of " + std::to_string(run.size()), bytes, decode,
                seed++);
  }
}

TEST(CodecFuzzTest, GetElementRequest) {
  // Mutated request bodies into a live handler: every one is answered
  // exactly once, without a crash or throw; a strict prefix is malformed;
  // whatever is answered OK parses as a response.
  const std::string path = ::testing::TempDir() + "/codec_fuzz_records";
  TF_CHECK_OK(data::WriteClusteredRecordFile(path, 10, /*num_classes=*/3,
                                             /*dim=*/4, /*seed=*/17));
  auto factory = distributed::RecordPipelineFactory(
      {path}, "parse_example", /*parallelism=*/1,
      {DataType::kFloat, DataType::kInt64}, /*repeat=*/1,
      /*shuffle_buffer=*/0, /*seed=*/0);
  TF_CHECK_OK(factory.status());
  distributed::DataServiceHandler::Options options;
  options.num_consumers = 2;
  options.max_ahead = 4;
  distributed::DataServiceHandler handler(factory.value(), options);

  auto serve = [&](const std::string& body) {
    int answers = 0;
    Status status;
    std::string resp;
    try {
      handler.HandleGetElement(body,
                               [&](const Status& s, const std::string& r) {
                                 ++answers;
                                 status = s;
                                 resp = r;
                               });
    } catch (const std::exception& e) {
      ADD_FAILURE() << "threw " << e.what();
    }
    EXPECT_EQ(answers, 1);
    if (status.ok()) {
      std::deque<data::Element> run;
      bool end_of_epoch = false;
      size_t offset = 0;
      EXPECT_TRUE(distributed::ParseGetElementResponse(resp, &offset, &run,
                                                       &end_of_epoch)
                      .ok());
    }
    return status;
  };

  std::string valid;
  AppendInt64(&valid, 1);  // consumer
  AppendInt64(&valid, 0);  // cursor
  AppendInt64(&valid, 3);  // max_elements
  TF_CHECK_OK(serve(valid));
  for (size_t cut = 0; cut < valid.size(); ++cut) {
    EXPECT_EQ(serve(valid.substr(0, cut)).code(), Code::kInvalidArgument)
        << "cut at " << cut;
  }
  EXPECT_EQ(serve(valid + "x").code(), Code::kInvalidArgument);
  const int64_t kHostile[] = {-1, 0, int64_t{1} << 31, int64_t{1} << 62,
                              INT64_MAX};
  for (size_t at = 0; at + sizeof(int64_t) <= valid.size(); ++at) {
    for (int64_t v : kHostile) {
      std::string m = valid;
      std::memcpy(&m[at], &v, sizeof(v));
      serve(m);
    }
  }
  std::mt19937_64 rng(700);
  for (int round = 0; round < 2000; ++round) {
    std::string m = valid;
    const int flips = 1 + static_cast<int>(rng() % 4);
    for (int f = 0; f < flips; ++f) {
      m[rng() % m.size()] ^= static_cast<char>(1 + rng() % 255);
    }
    serve(m);
  }
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(CodecFuzzTest, Checkpoint) {
  const std::string dir = ::testing::TempDir();
  const std::string valid_path = dir + "/codec_fuzz_valid_ckpt";
  const std::string in_path = dir + "/codec_fuzz_in_ckpt";
  const std::string out_path = dir + "/codec_fuzz_out_ckpt";
  Tensor s(DataType::kString, TensorShape({1}));
  s.str(0) = "vocab";
  TF_CHECK_OK(WriteCheckpoint(
      valid_path, {{"w", Tensor::Vec<float>({1.0f, 2.0f})}, {"names", s}}));
  FuzzDecoder(
      "checkpoint", ReadFile(valid_path),
      [&](const std::string& in, size_t* consumed, std::string* out) {
        WriteFile(in_path, in);
        Result<std::vector<std::string>> names = ListCheckpointTensors(in_path);
        if (!names.ok()) return false;
        std::vector<std::pair<std::string, Tensor>> entries;
        for (const std::string& name : names.value()) {
          Result<Tensor> t = ReadCheckpointTensor(in_path, name);
          EXPECT_TRUE(t.ok()) << "listed '" << name << "' but cannot read it";
          if (!t.ok()) return false;
          entries.emplace_back(name, std::move(t).value());
        }
        TF_CHECK_OK(WriteCheckpoint(out_path, entries));
        *out = ReadFile(out_path);
        *consumed = in.size();
        return true;
      },
      600);
  std::remove(valid_path.c_str());
  std::remove(in_path.c_str());
  std::remove(out_path.c_str());
}

TEST(CodecCanonicalTest, CheckpointRepeatedNameIsRejected) {
  // Which of two same-named entries a restore would read is undefined.
  const std::string path = ::testing::TempDir() + "/codec_repeated_ckpt";
  TF_CHECK_OK(WriteCheckpoint(path, {{"v", Tensor::Scalar(1.0f)},
                                     {"v", Tensor::Scalar(2.0f)}}));
  EXPECT_EQ(ListCheckpointTensors(path).status().code(), Code::kDataLoss);
  EXPECT_EQ(ReadCheckpointTensor(path, "v").status().code(),
            Code::kDataLoss);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tfrepro
