// The compact forward against the padded oracle.
//
// CascnModel runs its recurrence over the a active nodes of a cascade only;
// the other rows come from a parameter-keyed table (no-grad) or from a
// recurrence of their own (grad mode). This file keeps the padded pipeline
// the model used before: n x n snapshot signals, an n x n Chebyshev basis
// whose T_0 is the identity restricted to the active block, one ChebConv
// (sum_k (T_k X) W_k over n rows) per gate and side, and the unfused gate
// ops over all n rows. Run on a copy of the model's parameters, it must give
// the same predictions in both modes (1e-12 relative; bit-equality is
// reported) and the same parameter gradients (1e-9 relative) for every
// variant, pooling mode, Chebyshev order and active size, including a
// cascade that fills the padding. It must still do so after every kind of
// in-place parameter write, and when threads race to build the table.

#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "core/cascn_model.h"
#include "core/encoder.h"
#include "graph/laplacian.h"
#include "graph/snapshot.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"
#include "nn/rnn_cells.h"
#include "obs/profiler.h"
#include "serve/checkpoint.h"
#include "tensor/variable.h"

namespace cascn {
namespace {

using ag::Variable;

/// A cascade of exactly `size` nodes over a 60-unit window; some nodes
/// carry a second parent, as in citation cascades.
CascadeSample SampleOfSize(int size, uint64_t seed) {
  Rng rng(seed);
  std::vector<AdoptionEvent> events = {{0, 0, {}, 0.0}};
  for (int i = 1; i < size; ++i) {
    AdoptionEvent e;
    e.node = i;
    e.user = i;
    e.parents.push_back(static_cast<int>(rng.UniformInt(i)));
    if (i > 2 && rng.Bernoulli(0.3)) {
      const int extra = static_cast<int>(rng.UniformInt(i));
      if (extra != e.parents[0]) e.parents.push_back(extra);
    }
    e.time = 55.0 * i / size;
    events.push_back(std::move(e));
  }
  CascadeSample sample;
  sample.observed =
      std::move(Cascade::Create("oracle", std::move(events))).value();
  sample.observation_window = 60.0;
  sample.log_label = 1.5;
  return sample;
}

/// The padded encoding: every signal and basis matrix is n x n.
struct PaddedEncoding {
  std::vector<Tensor> signals;
  std::vector<int> intervals;
  std::vector<CsrMatrix> basis;
};

PaddedEncoding EncodePadded(const CascadeSample& sample,
                            const CascnConfig& config) {
  const int n = config.padded_size;
  const int a = std::min(sample.observed.size(), n);
  PaddedEncoding enc;
  for (const CascadeSnapshot& snap : BuildSnapshotSequence(
           sample.observed, config.MakeSnapshotOptions())) {
    enc.signals.push_back(snap.adjacency.ToDense());
    enc.intervals.push_back(DecayInterval(
        snap.time, sample.observation_window, config.num_time_intervals));
  }
  CsrMatrix laplacian =
      config.variant == CascnVariant::kUndirected
          ? UndirectedNormalizedLaplacian(sample.observed, n)
          : CascadeLaplacian(sample.observed, n,
                             config.MakeLaplacianOptions())
                .value();
  const double lambda = config.lambda_mode == LambdaMaxMode::kExact
                            ? EstimateLambdaMax(laplacian, a)
                            : 2.0;
  const CsrMatrix scaled = ScaleLaplacian(laplacian, lambda, a);
  std::vector<Triplet> eye;
  for (int i = 0; i < a; ++i) eye.push_back({i, i, 1.0});
  enc.basis.push_back(CsrMatrix::FromTriplets(n, n, eye));
  if (config.cheb_order >= 2) enc.basis.push_back(scaled);
  for (int k = 2; k < config.cheb_order; ++k)
    enc.basis.push_back(scaled.MatMulSparse(enc.basis[k - 1])
                            .Scaled(2.0)
                            .Add(enc.basis[k - 2], 1.0, -1.0));
  return enc;
}

/// The padded CasCN forward over its own copy of a model's parameters.
class PaddedReference {
 public:
  explicit PaddedReference(CascnModel& model) : config_(model.config()) {
    Rng rng(0);  // shapes only: every value is copied from the model
    const int d = config_.hidden_dim;
    gl_lstm_ = std::make_unique<nn::LstmCell>(d, d, rng);
    mlp_ = std::make_unique<nn::Mlp>(
        std::vector<int>{d, config_.mlp_hidden1, config_.mlp_hidden2, 1},
        nn::Activation::kRelu, rng);
    std::map<std::string, Variable> owned;
    for (auto& [name, p] : gl_lstm_->NamedParameters())
      owned["gl_lstm." + name] = p;
    for (auto& [name, p] : mlp_->NamedParameters()) owned["mlp." + name] = p;
    for (auto& [name, p] : model.NamedParameters()) {
      auto it = owned.find(name);
      Variable leaf = it != owned.end() ? it->second
                                        : Variable::Leaf(p.value(), true);
      leaf.mutable_value() = p.value();
      params_[name] = leaf;
    }
  }

  Variable P(const std::string& name) const { return params_.at(name); }

  Variable PredictLog(const CascadeSample& sample) const {
    const PaddedEncoding enc = EncodePadded(sample, config_);
    const bool decay = config_.variant != CascnVariant::kNoTimeDecay;
    auto decayed = [&](Variable h, size_t t) {
      if (!decay) return h;
      return ag::ScaleByScalar(
          h, ag::Softplus(ag::SliceRows(P("decay_raw"),
                                        enc.intervals[t], 1)));
    };
    if (config_.variant == CascnVariant::kGcnLstm) {
      nn::RnnState state = gl_lstm_->InitialState(1);
      Variable pooled;
      for (size_t t = 0; t < enc.signals.size(); ++t) {
        const Variable x = Variable::Leaf(enc.signals[t]);
        const Variable conv = ag::Relu(Cheb(enc.basis, x, "gl_conv"));
        state = gl_lstm_->Step(ag::MeanRows(conv), state);
        const Variable h = decayed(state.h, t);
        pooled = pooled.defined() ? ag::Add(pooled, h) : h;
      }
      return mlp_->Forward(pooled);
    }
    const bool gru = config_.variant == CascnVariant::kGru;
    const int n = config_.padded_size, d = config_.hidden_dim;
    nn::RnnState state;
    state.h = Variable::Leaf(Tensor(n, d));
    state.c = Variable::Leaf(Tensor(n, d));
    Variable sum;
    std::vector<Variable> per_step;
    for (size_t t = 0; t < enc.signals.size(); ++t) {
      const Variable x = Variable::Leaf(enc.signals[t]);
      state = gru ? GruStep(enc.basis, x, state) : LstmStep(enc.basis, x, state);
      const Variable h = decayed(state.h, t);
      if (config_.attention_pooling) {
        per_step.push_back(ag::SumRows(h));
      } else {
        sum = sum.defined() ? ag::Add(sum, h) : h;
      }
    }
    Variable pooled;
    if (config_.attention_pooling) {
      const Variable stacked = ag::ConcatRows(per_step);
      const Variable scores = ag::MatMul(
          ag::Tanh(ag::MatMul(stacked, P("attn_w"))), P("attn_v"));
      pooled = ag::MatMul(ag::SoftmaxRows(ag::Transpose(scores)), stacked);
    } else {
      pooled = ag::ScalarMul(ag::SumRows(sum),
                             1.0 / config_.max_sequence_length);
    }
    return mlp_->Forward(pooled);
  }

 private:
  /// The padded ChebConv: sum_k (T_k x) W_k over all n rows, plus bias.
  Variable Cheb(const std::vector<CsrMatrix>& basis, const Variable& x,
                const std::string& prefix) const {
    Variable out;
    for (size_t k = 0; k < basis.size(); ++k) {
      const Variable term =
          ag::MatMul(ag::SparseMatMul(basis[k], x),
                     P(prefix + ".w" + std::to_string(k)));
      out = out.defined() ? ag::Add(out, term) : term;
    }
    if (params_.count(prefix + ".bias"))
      out = ag::AddRowBroadcast(out, P(prefix + ".bias"));
    return out;
  }

  Variable Gate(const std::vector<CsrMatrix>& basis, const Variable& x,
                const Variable& h, const std::string& cell,
                const std::string& gate) const {
    return ag::AddRowBroadcast(
        ag::Add(Cheb(basis, x, cell + ".conv_x_" + gate),
                Cheb(basis, h, cell + ".conv_h_" + gate)),
        P(cell + ".b_" + gate));
  }

  nn::RnnState LstmStep(const std::vector<CsrMatrix>& basis,
                        const Variable& x, const nn::RnnState& prev) const {
    const std::string c = "conv_lstm";
    const Variable i = ag::Sigmoid(ag::Add(Gate(basis, x, prev.h, c, "i"),
                                           ag::Mul(P(c + ".v_i"), prev.c)));
    const Variable f = ag::Sigmoid(ag::Add(Gate(basis, x, prev.h, c, "f"),
                                           ag::Mul(P(c + ".v_f"), prev.c)));
    const Variable g = ag::Tanh(Gate(basis, x, prev.h, c, "c"));
    nn::RnnState next;
    next.c = ag::Add(ag::Mul(f, prev.c), ag::Mul(i, g));
    const Variable o = ag::Sigmoid(ag::Add(Gate(basis, x, prev.h, c, "o"),
                                           ag::Mul(P(c + ".v_o"), next.c)));
    next.h = ag::Mul(o, ag::Tanh(next.c));
    return next;
  }

  nn::RnnState GruStep(const std::vector<CsrMatrix>& basis, const Variable& x,
                       const nn::RnnState& prev) const {
    const std::string c = "conv_gru";
    const Variable r = ag::Sigmoid(Gate(basis, x, prev.h, c, "r"));
    const Variable z = ag::Sigmoid(Gate(basis, x, prev.h, c, "z"));
    const Variable n = ag::Tanh(ag::AddRowBroadcast(
        ag::Add(Cheb(basis, x, c + ".conv_x_n"),
                Cheb(basis, ag::Mul(r, prev.h), c + ".conv_h_n")),
        P(c + ".b_n")));
    nn::RnnState next;
    next.h = ag::Add(n, ag::Mul(z, ag::Sub(prev.h, n)));
    return next;
  }

  CascnConfig config_;
  std::unique_ptr<nn::LstmCell> gl_lstm_;
  std::unique_ptr<nn::Mlp> mlp_;
  std::map<std::string, Variable> params_;
};

double RelDiff(double got, double want) {
  return std::fabs(got - want) / std::max(std::fabs(want), 1e-300);
}

struct OracleCase {
  CascnVariant variant;
  bool attention;
  int order;
};

class CompactVsPadded : public ::testing::TestWithParam<OracleCase> {};

double NoGradPredict(CascnModel& model, const CascadeSample& sample) {
  ag::NoGradGuard no_grad;
  return model.PredictLog(sample).value().At(0, 0);
}

double PaddedPredict(CascnModel& model, const CascadeSample& sample) {
  return PaddedReference(model).PredictLog(sample).value().At(0, 0);
}

TEST_P(CompactVsPadded, PredictionsAndGradientsMatch) {
  const OracleCase c = GetParam();
  int bit_equal = 0, no_grad_bit_equal = 0, total = 0;
  for (int a : {1, 2, 9, 31, 32}) {
    CascnConfig config;  // padded_size 32
    config.variant = c.variant;
    config.attention_pooling = c.attention;
    config.cheb_order = c.order;
    config.seed = 100 + a;
    CascnModel model(config);
    // Train-like parameter values: nonzero peepholes, decay and biases.
    Rng perturb(a);
    for (auto& p : model.Parameters())
      p.mutable_value().AddInPlace(Tensor::RandomNormal(
          p.rows(), p.cols(), 0.1, perturb));
    PaddedReference reference(model);
    const CascadeSample sample = SampleOfSize(a, 7 * a + c.order);
    SCOPED_TRACE("a=" + std::to_string(a));

    const Variable got = model.PredictLog(sample);
    const Variable want = reference.PredictLog(sample);
    const double g = got.value().At(0, 0), w = want.value().At(0, 0);
    EXPECT_LE(RelDiff(g, w), 1e-12) << g << " vs " << w;
    const double ng = NoGradPredict(model, sample);
    EXPECT_LE(RelDiff(ng, w), 1e-12) << "no-grad " << ng << " vs " << w;
    bit_equal += g == w;
    no_grad_bit_equal += ng == w;
    ++total;

    ag::Square(got).Backward();
    ag::Square(want).Backward();
    for (const auto& [name, p] : model.NamedParameters()) {
      const Tensor& gm = p.grad();
      const Tensor& gr = reference.P(name).grad();
      ASSERT_EQ(gm.empty(), gr.empty()) << name;
      if (gr.empty()) continue;
      const double scale = std::max(gr.AbsMax(), 1e-300);
      double worst = 0;
      for (int i = 0; i < gr.rows(); ++i)
        for (int j = 0; j < gr.cols(); ++j)
          worst = std::max(worst, std::fabs(gm.At(i, j) - gr.At(i, j)));
      EXPECT_LE(worst / scale, 1e-9) << name;
    }
  }
  std::printf("[oracle] %s attention=%d K=%d: %d (no-grad %d) of %d "
              "predictions bit-equal to the padded forward\n",
              VariantName(c.variant).c_str(), c.attention, c.order,
              bit_equal, no_grad_bit_equal, total);
  RecordProperty("bit_equal_predictions", bit_equal);
  RecordProperty("no_grad_bit_equal_predictions", no_grad_bit_equal);
}

std::vector<OracleCase> AllCases() {
  std::vector<OracleCase> out;
  for (CascnVariant v :
       {CascnVariant::kDefault, CascnVariant::kGru, CascnVariant::kGcnLstm,
        CascnVariant::kUndirected, CascnVariant::kNoTimeDecay})
    for (bool attention : {false, true})
      for (int k : {1, 2, 3}) out.push_back({v, attention, k});
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, CompactVsPadded, ::testing::ValuesIn(AllCases()),
    [](const ::testing::TestParamInfo<OracleCase>& info) {
      std::string name = VariantName(info.param.variant);
      for (char& ch : name)
        if (ch == '-') ch = '_';
      return name + (info.param.attention ? "_Attention" : "_Sum") + "_K" +
             std::to_string(info.param.order);
    });

TEST(CompactModelTest, CheckpointLayoutAndRoundTripAreUnchanged) {
  CascnConfig config;
  config.seed = 5;
  CascnModel model(config);
  // Parameter names and shapes are the on-disk layout of v2 checkpoints.
  std::map<std::string, std::pair<int, int>> shapes;
  for (const auto& [name, p] : model.NamedParameters())
    shapes[name] = {p.rows(), p.cols()};
  // 8 filter banks x K=2, 3 peepholes, 4 biases, decay, 3 MLP layers.
  EXPECT_EQ(shapes.size(), 8u * 2 + 3 + 4 + 1 + 3 * 2);
  EXPECT_EQ(shapes.at("conv_lstm.conv_x_i.w0"), std::make_pair(32, 12));
  EXPECT_EQ(shapes.at("conv_lstm.conv_x_o.w1"), std::make_pair(32, 12));
  EXPECT_EQ(shapes.at("conv_lstm.conv_h_c.w1"), std::make_pair(12, 12));
  EXPECT_EQ(shapes.at("conv_lstm.v_f"), std::make_pair(32, 12));
  EXPECT_EQ(shapes.at("conv_lstm.b_c"), std::make_pair(1, 12));
  EXPECT_EQ(serve::kCheckpointVersion, 2u);

  const std::string path = ::testing::TempDir() + "cascn_oracle.ckpt";
  ASSERT_TRUE(serve::SaveCascnCheckpoint(path, model).ok());
  auto loaded = serve::LoadCascnCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  CascnModel same_seed(config);
  for (int a : {1, 9, 32}) {
    const CascadeSample sample = SampleOfSize(a, a);
    const double want = model.PredictLog(sample).value().At(0, 0);
    EXPECT_EQ((*loaded)->PredictLog(sample).value().At(0, 0), want);
    EXPECT_EQ(same_seed.PredictLog(sample).value().At(0, 0), want);
  }
  std::remove(path.c_str());
}

TEST(CompactModelTest, NoGradPredictIsIdenticalAndAllocatesLess) {
  CascnModel model(CascnConfig{});
  const CascadeSample sample = SampleOfSize(12, 3);
  model.PredictLog(sample);  // encode once; both passes below hit the cache
  obs::Profiler& profiler = obs::Profiler::Get();
  profiler.Enable();
  profiler.Reset();
  const double with_graph = model.PredictLog(sample).value().At(0, 0);
  const uint64_t graph_allocs = profiler.alloc_count();
  profiler.Reset();
  double without = 0;
  {
    ag::NoGradGuard no_grad;
    without = model.PredictLog(sample).value().At(0, 0);
  }
  const uint64_t no_grad_allocs = profiler.alloc_count();
  profiler.Disable();
  EXPECT_EQ(with_graph, without);
  EXPECT_LT(no_grad_allocs, graph_allocs);
  std::printf("[oracle] tensor allocations per predict: %llu with a graph, "
              "%llu under NoGradGuard\n",
              static_cast<unsigned long long>(graph_allocs),
              static_cast<unsigned long long>(no_grad_allocs));
}

/// Gives a model train-like parameter values.
void Perturb(CascnModel& model) {
  Rng perturb(model.config().seed);
  for (auto& p : model.Parameters())
    p.mutable_value().AddInPlace(
        Tensor::RandomNormal(p.rows(), p.cols(), 0.1, perturb));
}

Variable Named(CascnModel& model, const std::string& name) {
  for (const auto& [n, p] : model.NamedParameters())
    if (n == name) return p;
  ADD_FAILURE() << "no parameter " << name;
  return {};
}

/// Each in-place write between two no-grad predicts must show in the next
/// one: the padded-row table is keyed by the parameter bytes themselves.
class PaddedRowTableTest : public ::testing::TestWithParam<CascnVariant> {
 protected:
  CascnConfig Config(uint64_t seed) const {
    CascnConfig config;
    config.variant = GetParam();
    config.seed = seed;
    return config;
  }
  /// Predicts (building or reusing the table) and checks the oracle.
  double ExpectMatchesOracle(CascnModel& model) {
    const double got = NoGradPredict(model, sample_);
    EXPECT_EQ(got, PaddedPredict(model, sample_));
    return got;
  }
  const CascadeSample sample_ = SampleOfSize(9, 41);
};

TEST_P(PaddedRowTableTest, MutableValueWrite) {
  CascnModel model(Config(3));
  Perturb(model);
  const double before = ExpectMatchesOracle(model);
  const bool gru = GetParam() == CascnVariant::kGru;
  // LSTM: a peephole row that only a padded row reads; GRU: a bias.
  Variable p = Named(model, gru ? "conv_gru.b_n" : "conv_lstm.v_f");
  p.mutable_value().At(gru ? 0 : 20, 3) += 0.5;
  EXPECT_NE(ExpectMatchesOracle(model), before);
}

TEST_P(PaddedRowTableTest, AdamStepAndRestoreState) {
  CascnModel model(Config(4));
  Perturb(model);
  nn::Adam adam(model.Parameters(), {.learning_rate = 0.05});
  const nn::Adam::State start = adam.SaveState();
  auto train_step = [&] {
    ag::Square(model.PredictLog(sample_)).Backward();
    adam.Step();
    model.ZeroGrad();
  };
  double last = ExpectMatchesOracle(model);
  train_step();
  double now = ExpectMatchesOracle(model);
  EXPECT_NE(now, last);
  last = now;
  ASSERT_TRUE(adam.RestoreState(start).ok());
  EXPECT_EQ(ExpectMatchesOracle(model), last) << "no parameter was written";
  train_step();  // from the restored moments
  EXPECT_NE(ExpectMatchesOracle(model), last);
}

TEST_P(PaddedRowTableTest, CheckpointLoadIntoLiveModel) {
  CascnModel live(Config(5));
  Perturb(live);
  CascnModel other(Config(6));
  Perturb(other);
  ExpectMatchesOracle(live);
  const std::string path =
      ::testing::TempDir() + "cascn_padded_table.ckpt";
  ASSERT_TRUE(serve::SaveCascnCheckpoint(path, other).ok());
  ASSERT_TRUE(
      serve::LoadCheckpointIntoFile(path, serve::kCascnModelType, live).ok());
  std::remove(path.c_str());
  const double loaded = ExpectMatchesOracle(live);
  CascnModel fresh(Config(6));
  Perturb(fresh);
  EXPECT_EQ(loaded, NoGradPredict(fresh, sample_));
}

TEST_P(PaddedRowTableTest, ConcurrentFirstUse) {
  CascnModel model(Config(7));
  Perturb(model);
  const std::vector<int> sizes = {3, 9, 17, 25};
  std::vector<CascadeSample> samples;
  for (int a : sizes) samples.push_back(SampleOfSize(a, 50 + a));
  std::vector<double> got(sizes.size());
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (size_t i = 0; i < sizes.size(); ++i)
    threads.emplace_back([&, i] {
      ready.fetch_add(1);
      while (ready.load() < static_cast<int>(sizes.size())) {
      }
      got[i] = NoGradPredict(model, samples[i]);
    });
  for (auto& t : threads) t.join();
  for (size_t i = 0; i < sizes.size(); ++i)
    EXPECT_EQ(got[i], PaddedPredict(model, samples[i])) << "a=" << sizes[i];
}

INSTANTIATE_TEST_SUITE_P(
    RecurrentVariants, PaddedRowTableTest,
    ::testing::Values(CascnVariant::kDefault, CascnVariant::kGru),
    [](const ::testing::TestParamInfo<CascnVariant>& info) {
      return info.param == CascnVariant::kGru ? std::string("Gru")
                                              : std::string("Lstm");
    });

}  // namespace
}  // namespace cascn
