#include "graph/shape_inference.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace tfrepro {

bool PartialShape::FullyKnown() const {
  if (!has_rank_) return false;
  for (int64_t d : dims_) {
    if (d < 0) return false;
  }
  return true;
}

Result<PartialShape> PartialShape::Merge(const PartialShape& a,
                                         const PartialShape& b) {
  if (!a.has_rank()) return b;
  if (!b.has_rank()) return a;
  if (a.rank() != b.rank()) {
    return InvalidArgument("rank mismatch: " + a.DebugString() + " vs " +
                           b.DebugString());
  }
  std::vector<int64_t> dims(a.rank());
  for (int i = 0; i < a.rank(); ++i) {
    int64_t da = a.dim(i);
    int64_t db = b.dim(i);
    if (da >= 0 && db >= 0 && da != db) {
      return InvalidArgument("dimension " + std::to_string(i) +
                             " mismatch: " + a.DebugString() + " vs " +
                             b.DebugString());
    }
    dims[i] = da >= 0 ? da : db;
  }
  return PartialShape(dims);
}

bool PartialShape::IsCompatibleWith(const TensorShape& s) const {
  if (!has_rank_) return true;
  if (rank() != s.rank()) return false;
  for (int i = 0; i < rank(); ++i) {
    if (dims_[i] >= 0 && dims_[i] != s.dim(i)) return false;
  }
  return true;
}

std::string PartialShape::DebugString() const {
  if (!has_rank_) return "<unknown>";
  std::ostringstream os;
  os << "[";
  for (int i = 0; i < rank(); ++i) {
    if (i) os << ",";
    if (dims_[i] < 0) {
      os << "?";
    } else {
      os << dims_[i];
    }
  }
  os << "]";
  return os.str();
}

std::optional<std::vector<int64_t>> ShapeInferenceContext::ConstIntVector(
    int i) const {
  Result<const Edge*> edge = node_->input_edge(i);
  if (!edge.ok() || !edge.value()->src->IsConstant()) return std::nullopt;
  const Tensor& value = edge.value()->src->GetAttr("value").tensor();
  if (BaseType(value.dtype()) != DataType::kInt32 ||
      value.shape().rank() > 1) {
    return std::nullopt;
  }
  std::vector<int64_t> values;
  const int64_t n = value.num_elements();
  for (int64_t j = 0; j < n; ++j) {
    values.push_back(value.flat<int32_t>(j));
  }
  return values;
}

Status ShapeInferenceContext::WithRank(const PartialShape& shape, int rank,
                                       PartialShape* out) const {
  if (!shape.has_rank()) {
    *out = PartialShape::UnknownOfRank(rank);
    return Status::OK();
  }
  if (shape.rank() != rank) {
    return InvalidArgument("node '" + node_->name() + "' (" + node_->op() +
                           "): expected rank " + std::to_string(rank) +
                           ", got shape " + shape.DebugString());
  }
  *out = shape;
  return Status::OK();
}

Status ShapeInferenceContext::WithRankAtLeast(const PartialShape& shape,
                                              int rank,
                                              PartialShape* out) const {
  if (!shape.has_rank()) {
    *out = shape;
    return Status::OK();
  }
  if (shape.rank() < rank) {
    return InvalidArgument("node '" + node_->name() + "' (" + node_->op() +
                           "): expected rank >= " + std::to_string(rank) +
                           ", got shape " + shape.DebugString());
  }
  *out = shape;
  return Status::OK();
}

Status ShapeInferenceContext::MergeDim(int64_t a, int64_t b,
                                       int64_t* out) const {
  if (a >= 0 && b >= 0 && a != b) {
    return InvalidArgument("node '" + node_->name() + "' (" + node_->op() +
                           "): dimensions " + std::to_string(a) + " and " +
                           std::to_string(b) + " are incompatible");
  }
  *out = a >= 0 ? a : b;
  return Status::OK();
}

ShapeRegistry* ShapeRegistry::Global() {
  static ShapeRegistry* registry = new ShapeRegistry();
  return registry;
}

Status ShapeRegistry::Register(const std::string& op_name, ShapeFn fn) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = fns_.emplace(op_name, std::move(fn));
  (void)it;
  if (!inserted) {
    return AlreadyExists("shape fn for '" + op_name + "' registered twice");
  }
  return Status::OK();
}

const ShapeFn* ShapeRegistry::Lookup(const std::string& op_name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = fns_.find(op_name);
  return it == fns_.end() ? nullptr : &it->second;
}

namespace shape_registration {
ShapeRegistrar::ShapeRegistrar(const char* op_name, ShapeFn fn) {
  Status s = ShapeRegistry::Global()->Register(op_name, std::move(fn));
  if (!s.ok()) {
    std::fprintf(stderr, "Shape registration failed: %s\n",
                 s.ToString().c_str());
    std::abort();
  }
}
}  // namespace shape_registration

Status InferShapes(const Graph& graph,
                   std::map<std::pair<int, int>, PartialShape>* shapes) {
  Result<std::vector<Node*>> order = graph.TopologicalOrder();
  TF_RETURN_IF_ERROR(order.status());

  std::map<std::pair<int, int>, PartialShape> inferred;
  for (Node* node : order.value()) {
    std::vector<PartialShape> inputs(node->num_inputs());
    for (const Edge* e : node->ordered_data_inputs()) {
      auto it = inferred.find({e->src->id(), e->src_output});
      if (it != inferred.end()) {
        inputs[e->dst_input] = it->second;
      }
    }
    ShapeInferenceContext ctx(node, std::move(inputs));
    const ShapeFn* fn = ShapeRegistry::Global()->Lookup(node->op());
    if (fn != nullptr) {
      Status s = (*fn)(&ctx);
      if (!s.ok()) {
        return s.Prepend("shape inference for node '" + node->name() + "'");
      }
    }
    // Merge NextIteration-fed back edges conservatively: already handled by
    // topological order excluding them; back-edge consumers just see the
    // forward shape.
    for (int i = 0; i < node->num_outputs(); ++i) {
      inferred[{node->id(), i}] = ctx.output_shapes()[i];
    }
  }
  if (shapes != nullptr) {
    *shapes = std::move(inferred);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Shape functions for the standard operations.
// ---------------------------------------------------------------------------

namespace {

Status UnchangedShape(ShapeInferenceContext* c) {
  c->set_output(0, c->input(0));
  return Status::OK();
}

Status ScalarShape(ShapeInferenceContext* c) {
  c->set_output(0, PartialShape(std::vector<int64_t>{}));
  return Status::OK();
}

// Broadcasting binary op.
Status BinaryBroadcastShape(ShapeInferenceContext* c) {
  const PartialShape& a = c->input(0);
  const PartialShape& b = c->input(1);
  if (!a.has_rank() || !b.has_rank()) {
    c->set_output(0, PartialShape());
    return Status::OK();
  }
  int rank = std::max(a.rank(), b.rank());
  std::vector<int64_t> dims(rank, -1);
  for (int i = 0; i < rank; ++i) {
    int ai = a.rank() - rank + i;
    int bi = b.rank() - rank + i;
    int64_t da = ai >= 0 ? a.dim(ai) : 1;
    int64_t db = bi >= 0 ? b.dim(bi) : 1;
    if (da == 1) {
      dims[i] = db;
    } else if (db == 1) {
      dims[i] = da;
    } else if (da >= 0 && db >= 0) {
      if (da != db) {
        return InvalidArgument(
            "node '" + c->node().name() + "': shapes " + a.DebugString() +
            " and " + b.DebugString() + " are not broadcastable");
      }
      dims[i] = da;
    } else {
      dims[i] = da >= 0 ? da : db;
    }
  }
  c->set_output(0, PartialShape(dims));
  return Status::OK();
}

Status ConstShape(ShapeInferenceContext* c) {
  const Tensor& value = c->node().GetAttr("value").tensor();
  c->set_output(0, PartialShape::FromShape(value.shape()));
  return Status::OK();
}

Status AttrShape(ShapeInferenceContext* c) {
  c->set_output(0,
                PartialShape::FromShape(c->node().GetAttr("shape").shape()));
  return Status::OK();
}

Status MatMulShape(ShapeInferenceContext* c) {
  PartialShape a, b;
  TF_RETURN_IF_ERROR(c->WithRank(c->input(0), 2, &a));
  TF_RETURN_IF_ERROR(c->WithRank(c->input(1), 2, &b));
  bool ta = c->node().GetAttr("transpose_a").b();
  bool tb = c->node().GetAttr("transpose_b").b();
  int64_t m = a.dim(ta ? 1 : 0);
  int64_t ka = a.dim(ta ? 0 : 1);
  int64_t kb = b.dim(tb ? 1 : 0);
  int64_t n = b.dim(tb ? 0 : 1);
  int64_t merged;
  TF_RETURN_IF_ERROR(c->MergeDim(ka, kb, &merged));
  c->set_output(0, PartialShape({m, n}));
  return Status::OK();
}

Status ReshapeShape(ShapeInferenceContext* c) {
  auto target = c->ConstIntVector(1);
  if (!target.has_value()) {
    c->set_output(0, PartialShape());
    return Status::OK();
  }
  std::vector<int64_t> dims = *target;
  // Resolve a single -1 from the input element count if known.
  int64_t known = 1;
  int infer = -1;
  for (size_t i = 0; i < dims.size(); ++i) {
    if (dims[i] == -1) {
      infer = static_cast<int>(i);
    } else {
      known *= dims[i];
    }
  }
  if (infer >= 0 && c->input(0).FullyKnown() && known > 0) {
    int64_t total = 1;
    for (int64_t d : c->input(0).dims()) total *= d;
    if (total % known == 0) dims[infer] = total / known;
  }
  c->set_output(0, PartialShape(dims));
  return Status::OK();
}

Status ConcatShape(ShapeInferenceContext* c) {
  auto axis_vec = c->ConstIntVector(0);
  int n = c->num_inputs() - 1;
  if (n < 1) return InvalidArgument("Concat needs inputs");
  if (!axis_vec.has_value() || axis_vec->size() != 1) {
    c->set_output(0, PartialShape());
    return Status::OK();
  }
  // Merge the non-axis dims; sum the axis dim.
  PartialShape result = c->input(1);
  if (!result.has_rank()) {
    c->set_output(0, PartialShape());
    return Status::OK();
  }
  int axis = static_cast<int>((*axis_vec)[0]);
  if (axis < 0) axis += result.rank();
  std::vector<int64_t> dims = result.dims();
  for (int i = 2; i <= n; ++i) {
    const PartialShape& s = c->input(i);
    if (!s.has_rank() || s.rank() != result.rank()) {
      c->set_output(0, PartialShape());
      return Status::OK();
    }
    for (int d = 0; d < result.rank(); ++d) {
      if (d == axis) {
        if (dims[d] >= 0 && s.dim(d) >= 0) {
          dims[d] += s.dim(d);
        } else {
          dims[d] = -1;
        }
      } else {
        TF_RETURN_IF_ERROR(c->MergeDim(dims[d], s.dim(d), &dims[d]));
      }
    }
  }
  c->set_output(0, PartialShape(dims));
  return Status::OK();
}

Status GatherShape(ShapeInferenceContext* c) {
  PartialShape params;
  TF_RETURN_IF_ERROR(c->WithRankAtLeast(c->input(0), 1, &params));
  const PartialShape& indices = c->input(1);
  if (!params.has_rank() || !indices.has_rank()) {
    c->set_output(0, PartialShape());
    return Status::OK();
  }
  std::vector<int64_t> dims = indices.dims();
  for (int i = 1; i < params.rank(); ++i) {
    dims.push_back(params.dim(i));
  }
  c->set_output(0, PartialShape(dims));
  return Status::OK();
}

Status Conv2DShape(ShapeInferenceContext* c) {
  PartialShape input, filter;
  TF_RETURN_IF_ERROR(c->WithRank(c->input(0), 4, &input));
  TF_RETURN_IF_ERROR(c->WithRank(c->input(1), 4, &filter));
  int64_t merged_c;
  TF_RETURN_IF_ERROR(c->MergeDim(input.dim(3), filter.dim(2), &merged_c));
  const auto& strides = c->node().GetAttr("strides").int_list();
  const std::string& padding = c->node().GetAttr("padding").s();
  auto out_dim = [&](int64_t in, int64_t k, int64_t stride) -> int64_t {
    if (in < 0 || k < 0) return -1;
    return padding == "SAME" ? (in + stride - 1) / stride
                             : (in - k) / stride + 1;
  };
  c->set_output(0, PartialShape({input.dim(0),
                                 out_dim(input.dim(1), filter.dim(0),
                                         strides[1]),
                                 out_dim(input.dim(2), filter.dim(1),
                                         strides[2]),
                                 filter.dim(3)}));
  return Status::OK();
}

Status PoolShape(ShapeInferenceContext* c) {
  PartialShape input;
  TF_RETURN_IF_ERROR(c->WithRank(c->input(0), 4, &input));
  const auto& ksize = c->node().GetAttr("ksize").int_list();
  const auto& strides = c->node().GetAttr("strides").int_list();
  const std::string& padding = c->node().GetAttr("padding").s();
  auto out_dim = [&](int64_t in, int64_t k, int64_t stride) -> int64_t {
    if (in < 0) return -1;
    return padding == "SAME" ? (in + stride - 1) / stride
                             : (in - k) / stride + 1;
  };
  c->set_output(0, PartialShape({input.dim(0),
                                 out_dim(input.dim(1), ksize[1], strides[1]),
                                 out_dim(input.dim(2), ksize[2], strides[2]),
                                 input.dim(3)}));
  return Status::OK();
}

Status SoftmaxXentShape(ShapeInferenceContext* c) {
  PartialShape logits;
  TF_RETURN_IF_ERROR(c->WithRank(c->input(0), 2, &logits));
  c->set_output(0, PartialShape({logits.dim(0)}));
  c->set_output(1, logits);
  return Status::OK();
}

Status SwitchShape(ShapeInferenceContext* c) {
  c->set_output(0, c->input(0));
  c->set_output(1, c->input(0));
  return Status::OK();
}

Status MergeShape(ShapeInferenceContext* c) {
  // The merged value may come from any input; report the merge of all
  // constraints when possible, unknown otherwise.
  PartialShape merged = c->input(0);
  for (int i = 1; i < c->num_inputs(); ++i) {
    Result<PartialShape> m = PartialShape::Merge(merged, c->input(i));
    if (!m.ok()) {
      merged = PartialShape();  // inputs genuinely differ -> unknown
      break;
    }
    merged = m.value();
  }
  c->set_output(0, merged);
  c->set_output(1, PartialShape(std::vector<int64_t>{}));
  return Status::OK();
}

Status VectorOfUnknownLength(ShapeInferenceContext* c) {
  c->set_output(0, PartialShape({-1}));
  return Status::OK();
}

Status ShapeFromConstInput0(ShapeInferenceContext* c) {
  auto dims = c->ConstIntVector(0);
  if (dims.has_value()) {
    c->set_output(0, PartialShape(*dims));
  } else {
    c->set_output(0, PartialShape());
  }
  return Status::OK();
}

Status BiasAddShape(ShapeInferenceContext* c) {
  c->set_output(0, c->input(0));
  // Check bias length against the channel dim when both known.
  const PartialShape& value = c->input(0);
  const PartialShape& bias = c->input(1);
  if (value.has_rank() && value.rank() >= 1 && bias.has_rank() &&
      bias.rank() == 1) {
    int64_t merged;
    TF_RETURN_IF_ERROR(
        c->MergeDim(value.dim(value.rank() - 1), bias.dim(0), &merged));
  }
  return Status::OK();
}


Status ReductionShape(ShapeInferenceContext* c) {
  const PartialShape& input = c->input(0);
  auto axes = c->ConstIntVector(1);
  bool keep_dims = c->node().GetAttr("keep_dims").b();
  if (!input.has_rank() || !axes.has_value()) {
    c->set_output(0, PartialShape());
    return Status::OK();
  }
  std::vector<bool> reduced(input.rank(), false);
  for (int64_t a : *axes) {
    int axis = static_cast<int>(a < 0 ? a + input.rank() : a);
    if (axis < 0 || axis >= input.rank()) {
      return InvalidArgument("node '" + c->node().name() +
                             "': reduction axis out of range");
    }
    reduced[axis] = true;
  }
  std::vector<int64_t> dims;
  for (int i = 0; i < input.rank(); ++i) {
    if (reduced[i]) {
      if (keep_dims) dims.push_back(1);
    } else {
      dims.push_back(input.dim(i));
    }
  }
  c->set_output(0, PartialShape(dims));
  return Status::OK();
}

Status ExpandDimsShape(ShapeInferenceContext* c) {
  const PartialShape& input = c->input(0);
  auto dim = c->ConstIntVector(1);
  if (!input.has_rank() || !dim.has_value() || dim->size() != 1) {
    c->set_output(0, PartialShape());
    return Status::OK();
  }
  int axis = static_cast<int>((*dim)[0]);
  if (axis < 0) axis += input.rank() + 1;
  if (axis < 0 || axis > input.rank()) {
    return InvalidArgument("node '" + c->node().name() +
                           "': ExpandDims axis out of range");
  }
  std::vector<int64_t> dims = input.dims();
  dims.insert(dims.begin() + axis, 1);
  c->set_output(0, PartialShape(dims));
  return Status::OK();
}

Status PackShape(ShapeInferenceContext* c) {
  int n = c->num_inputs();
  PartialShape merged = c->input(0);
  for (int i = 1; i < n; ++i) {
    Result<PartialShape> m = PartialShape::Merge(merged, c->input(i));
    TF_RETURN_IF_ERROR(m.status());
    merged = m.value();
  }
  if (!merged.has_rank()) {
    c->set_output(0, PartialShape());
    return Status::OK();
  }
  int64_t axis = c->node().GetAttr("axis").i();
  if (axis < 0) axis += merged.rank() + 1;
  std::vector<int64_t> dims = merged.dims();
  dims.insert(dims.begin() + axis, n);
  c->set_output(0, PartialShape(dims));
  return Status::OK();
}

Status UnpackShape(ShapeInferenceContext* c) {
  const PartialShape& input = c->input(0);
  int num = static_cast<int>(c->node().GetAttr("num").i());
  if (!input.has_rank()) {
    for (int i = 0; i < num; ++i) c->set_output(i, PartialShape());
    return Status::OK();
  }
  int64_t axis = c->node().GetAttr("axis").i();
  if (axis < 0) axis += input.rank();
  if (input.dim_known(static_cast<int>(axis)) &&
      input.dim(static_cast<int>(axis)) != num) {
    return InvalidArgument("node '" + c->node().name() +
                           "': Unpack num does not match the axis dimension");
  }
  std::vector<int64_t> dims = input.dims();
  dims.erase(dims.begin() + axis);
  for (int i = 0; i < num; ++i) c->set_output(i, PartialShape(dims));
  return Status::OK();
}

Status SplitShape(ShapeInferenceContext* c) {
  auto axis_vec = c->ConstIntVector(0);
  const PartialShape& value = c->input(1);
  int num = static_cast<int>(c->node().GetAttr("num_split").i());
  if (!axis_vec.has_value() || axis_vec->size() != 1 || !value.has_rank()) {
    for (int i = 0; i < num; ++i) c->set_output(i, PartialShape());
    return Status::OK();
  }
  int axis = static_cast<int>((*axis_vec)[0]);
  if (axis < 0) axis += value.rank();
  std::vector<int64_t> dims = value.dims();
  if (axis < 0 || axis >= value.rank()) {
    return InvalidArgument("node '" + c->node().name() +
                           "': Split axis out of range");
  }
  if (dims[axis] >= 0) {
    if (dims[axis] % num != 0) {
      return InvalidArgument("node '" + c->node().name() +
                             "': Split axis not divisible by num_split");
    }
    dims[axis] /= num;
  }
  for (int i = 0; i < num; ++i) c->set_output(i, PartialShape(dims));
  return Status::OK();
}

Status TransposeShape(ShapeInferenceContext* c) {
  const PartialShape& input = c->input(0);
  auto perm = c->ConstIntVector(1);
  if (!input.has_rank() || !perm.has_value() ||
      static_cast<int>(perm->size()) != input.rank()) {
    c->set_output(0, PartialShape());
    return Status::OK();
  }
  std::vector<int64_t> dims(input.rank());
  for (int i = 0; i < input.rank(); ++i) {
    int64_t p = (*perm)[i];
    if (p < 0 || p >= input.rank()) {
      return InvalidArgument("node '" + c->node().name() +
                             "': Transpose perm out of range");
    }
    dims[i] = input.dim(static_cast<int>(p));
  }
  c->set_output(0, PartialShape(dims));
  return Status::OK();
}

Status ArgMaxShape(ShapeInferenceContext* c) {
  const PartialShape& input = c->input(0);
  auto axis_vec = c->ConstIntVector(1);
  if (!input.has_rank() || !axis_vec.has_value() || axis_vec->size() != 1) {
    c->set_output(0, PartialShape());
    return Status::OK();
  }
  int axis = static_cast<int>((*axis_vec)[0]);
  if (axis < 0) axis += input.rank();
  std::vector<int64_t> dims = input.dims();
  if (axis < 0 || axis >= input.rank()) {
    return InvalidArgument("node '" + c->node().name() +
                           "': ArgMax axis out of range");
  }
  dims.erase(dims.begin() + axis);
  c->set_output(0, PartialShape(dims));
  return Status::OK();
}

Status OneHotShape(ShapeInferenceContext* c) {
  const PartialShape& indices = c->input(0);
  auto depth = c->ConstIntVector(1);
  if (!indices.has_rank()) {
    c->set_output(0, PartialShape());
    return Status::OK();
  }
  std::vector<int64_t> dims = indices.dims();
  dims.push_back(depth.has_value() && depth->size() == 1 ? (*depth)[0] : -1);
  c->set_output(0, PartialShape(dims));
  return Status::OK();
}

Status SelectShape(ShapeInferenceContext* c) {
  Result<PartialShape> merged = PartialShape::Merge(c->input(1), c->input(2));
  TF_RETURN_IF_ERROR(merged.status());
  c->set_output(0, merged.value());
  return Status::OK();
}

Status AddNShape(ShapeInferenceContext* c) {
  PartialShape merged = c->input(0);
  for (int i = 1; i < c->num_inputs(); ++i) {
    Result<PartialShape> m = PartialShape::Merge(merged, c->input(i));
    TF_RETURN_IF_ERROR(m.status());
    merged = m.value();
  }
  c->set_output(0, merged);
  return Status::OK();
}

#define SHAPE_FN(op, fn) REGISTER_SHAPE_FN(op, fn)

SHAPE_FN("Const", ConstShape);
SHAPE_FN("Placeholder", AttrShape);
SHAPE_FN("Variable", AttrShape);
SHAPE_FN("Identity", UnchangedShape);
SHAPE_FN("StopGradient", UnchangedShape);
SHAPE_FN("Enter", UnchangedShape);
SHAPE_FN("Exit", UnchangedShape);
SHAPE_FN("NextIteration", UnchangedShape);
SHAPE_FN("LoopCond", ScalarShape);
SHAPE_FN("Switch", SwitchShape);
SHAPE_FN("Merge", MergeShape);

SHAPE_FN("Add", BinaryBroadcastShape);
SHAPE_FN("Sub", BinaryBroadcastShape);
SHAPE_FN("Mul", BinaryBroadcastShape);
SHAPE_FN("Div", BinaryBroadcastShape);
SHAPE_FN("FloorDiv", BinaryBroadcastShape);
SHAPE_FN("Mod", BinaryBroadcastShape);
SHAPE_FN("Pow", BinaryBroadcastShape);
SHAPE_FN("Maximum", BinaryBroadcastShape);
SHAPE_FN("Minimum", BinaryBroadcastShape);
SHAPE_FN("SquaredDifference", BinaryBroadcastShape);
SHAPE_FN("Less", BinaryBroadcastShape);
SHAPE_FN("LessEqual", BinaryBroadcastShape);
SHAPE_FN("Greater", BinaryBroadcastShape);
SHAPE_FN("GreaterEqual", BinaryBroadcastShape);
SHAPE_FN("Equal", BinaryBroadcastShape);
SHAPE_FN("NotEqual", BinaryBroadcastShape);
SHAPE_FN("LogicalAnd", BinaryBroadcastShape);
SHAPE_FN("LogicalOr", BinaryBroadcastShape);

SHAPE_FN("Neg", UnchangedShape);
SHAPE_FN("Exp", UnchangedShape);
SHAPE_FN("Log", UnchangedShape);
SHAPE_FN("Sqrt", UnchangedShape);
SHAPE_FN("Rsqrt", UnchangedShape);
SHAPE_FN("Square", UnchangedShape);
SHAPE_FN("Abs", UnchangedShape);
SHAPE_FN("Sign", UnchangedShape);
SHAPE_FN("Tanh", UnchangedShape);
SHAPE_FN("Sigmoid", UnchangedShape);
SHAPE_FN("Relu", UnchangedShape);
SHAPE_FN("Floor", UnchangedShape);
SHAPE_FN("Ceil", UnchangedShape);
SHAPE_FN("Reciprocal", UnchangedShape);
SHAPE_FN("LogicalNot", UnchangedShape);
SHAPE_FN("ZerosLike", UnchangedShape);
SHAPE_FN("OnesLike", UnchangedShape);
SHAPE_FN("Cast", UnchangedShape);
SHAPE_FN("Assign", UnchangedShape);
SHAPE_FN("AssignAdd", UnchangedShape);
SHAPE_FN("AssignSub", UnchangedShape);
SHAPE_FN("Softmax", UnchangedShape);
SHAPE_FN("LogSoftmax", UnchangedShape);

SHAPE_FN("MatMul", MatMulShape);
SHAPE_FN("BiasAdd", BiasAddShape);
SHAPE_FN("Reshape", ReshapeShape);
SHAPE_FN("Concat", ConcatShape);
SHAPE_FN("Gather", GatherShape);
SHAPE_FN("Conv2D", Conv2DShape);
SHAPE_FN("MaxPool", PoolShape);
SHAPE_FN("AvgPool", PoolShape);
SHAPE_FN("SoftmaxCrossEntropyWithLogits", SoftmaxXentShape);
SHAPE_FN("SparseSoftmaxCrossEntropyWithLogits", SoftmaxXentShape);
SHAPE_FN("Shape", VectorOfUnknownLength);
SHAPE_FN("Range", VectorOfUnknownLength);
SHAPE_FN("Rank", ScalarShape);
SHAPE_FN("Size", ScalarShape);
SHAPE_FN("L2Loss", ScalarShape);
SHAPE_FN("Fill", ShapeFromConstInput0);
SHAPE_FN("RandomUniform", ShapeFromConstInput0);
SHAPE_FN("RandomStandardNormal", ShapeFromConstInput0);
SHAPE_FN("TruncatedNormal", ShapeFromConstInput0);


SHAPE_FN("Sum", ReductionShape);
SHAPE_FN("Mean", ReductionShape);
SHAPE_FN("Max", ReductionShape);
SHAPE_FN("Min", ReductionShape);
SHAPE_FN("Prod", ReductionShape);
SHAPE_FN("ExpandDims", ExpandDimsShape);
SHAPE_FN("Pack", PackShape);
SHAPE_FN("Unpack", UnpackShape);
SHAPE_FN("Split", SplitShape);
SHAPE_FN("Transpose", TransposeShape);
SHAPE_FN("ArgMax", ArgMaxShape);
SHAPE_FN("OneHot", OneHotShape);
SHAPE_FN("Select", SelectShape);
SHAPE_FN("AddN", AddNShape);

#undef SHAPE_FN

}  // namespace

}  // namespace tfrepro
