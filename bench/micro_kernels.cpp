// Micro-benchmarks of the substrate kernels that dominate CasCN training:
// dense matmul, sparse-dense matmul, the CasLaplacian construction
// (Algorithm 1), lambda_max, the Chebyshev basis recursion, the fused
// graph-LSTM cell, one graph-conv LSTM step (forward and forward+backward),
// snapshot encoding, and a whole no-grad predict of an encoded cascade with
// a = 9 of n = 32 nodes active. BM_Calibration runs no CasCN code at all: it
// measures the host, and the bench guard divides every other row by it.
//
// Besides the usual console output, every run writes a machine-readable
// BENCH_micro_kernels.json (see obs/bench_report.h) that the CI bench-guard
// job diffs against bench/baselines/. Flags on top of google-benchmark's:
//   --bench_out=PATH     report path (default BENCH_micro_kernels.json)
//   --trace_out=PATH     Chrome trace of the run
//   --metrics_out=PATH   global metrics-registry snapshot
// With --benchmark_repetitions=N the report keeps each row's median over the
// N repetitions, which is what the bench guard compares; CI adds
// --benchmark_enable_random_interleaving=true, which also reorders the rows
// of the report. Run with CASCN_PROFILE=1 for the per-op autograd profile
// (embedded in the report and printed as a table on exit).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "core/cascn_model.h"
#include "core/encoder.h"
#include "data/cascade_generator.h"
#include "graph/chebyshev.h"
#include "graph/laplacian.h"
#include "nn/graph_rnn_cells.h"
#include "obs/bench_report.h"
#include "obs/shutdown.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "tensor/tensor.h"
#include "tensor/variable.h"

namespace cascn {
namespace {

Cascade BenchCascade(int n) {
  Rng rng(n);
  std::vector<AdoptionEvent> events = {{0, 0, {}, 0.0}};
  for (int i = 1; i < n; ++i) {
    AdoptionEvent e;
    e.node = i;
    e.user = static_cast<int>(rng.UniformInt(1000));
    e.parents.push_back(static_cast<int>(rng.UniformInt(i)));
    e.time = static_cast<double>(i);
    events.push_back(e);
  }
  return std::move(Cascade::Create("bench", std::move(events))).value();
}

/// The bench guard's yardstick of host speed, independent of the code under
/// test: a dependent chain of multiplies and adds (latency-bound, one
/// operation at a time) plus memcpy sweeps over a 256 KiB buffer.
void BM_Calibration(benchmark::State& state) {
  constexpr int kChain = 1 << 14;
  constexpr size_t kBytes = size_t{256} << 10;
  std::vector<char> from(kBytes, 1), to(kBytes);
  double scale = 0.999999, offset = 1e-6;
  benchmark::DoNotOptimize(scale);
  benchmark::DoNotOptimize(offset);
  for (auto _ : state) {
    double x = 1.0;
    for (int i = 0; i < kChain; ++i) x = x * scale + offset;
    benchmark::DoNotOptimize(x);
    for (int sweep = 0; sweep < 4; ++sweep) {
      std::memcpy(to.data(), from.data(), kBytes);
      benchmark::ClobberMemory();
    }
  }
}
BENCHMARK(BM_Calibration);

void BM_DenseMatMul(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  const Tensor a = Tensor::RandomNormal(n, n, 1.0, rng);
  const Tensor b = Tensor::RandomNormal(n, n, 1.0, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * int64_t{2} * n * n * n);
}
BENCHMARK(BM_DenseMatMul)->Arg(16)->Arg(32)->Arg(64);

void BM_SparseMatMulDense(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Cascade cascade = BenchCascade(n);
  const CsrMatrix adj = cascade.AdjacencyMatrix(n, n, true);
  Rng rng(2);
  const Tensor x = Tensor::RandomNormal(n, 16, 1.0, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(adj.MatMulDense(x));
  }
}
BENCHMARK(BM_SparseMatMulDense)->Arg(32)->Arg(128);

void BM_CasLaplacian(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Cascade cascade = BenchCascade(n);
  for (auto _ : state) {
    auto lap = CascadeLaplacian(cascade, n);
    benchmark::DoNotOptimize(lap);
  }
}
BENCHMARK(BM_CasLaplacian)->Arg(16)->Arg(32)->Arg(64);

/// lambda_max of an a-node cascade padded to n = 32: the power iteration
/// runs on the a x a active block.
void BM_EstimateLambdaMax(benchmark::State& state) {
  const int a = static_cast<int>(state.range(0));
  const CsrMatrix lap = CascadeLaplacian(BenchCascade(a), 32).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(EstimateLambdaMax(lap, a));
  }
}
BENCHMARK(BM_EstimateLambdaMax)->Arg(9);

void BM_ChebyshevBasis(benchmark::State& state) {
  const int n = 32;
  const Cascade cascade = BenchCascade(n);
  auto lap = CascadeLaplacian(cascade, n);
  const CsrMatrix scaled = ScaleLaplacian(*lap, 2.0, n);
  const int order = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ChebyshevBasis(scaled, order, n));
  }
}
BENCHMARK(BM_ChebyshevBasis)->Arg(2)->Arg(3)->Arg(5);

/// The element-wise graph-LSTM cell (three sigmoids, two tanhs) over a = 9
/// active rows of width 12, without a backward graph.
void BM_FusedLstmCell(benchmark::State& state) {
  const int a = static_cast<int>(state.range(0)), d = 12, n = 32;
  Rng rng(6);
  auto leaf = [&rng](int rows, int cols) {
    return ag::Variable::Leaf(Tensor::RandomNormal(rows, cols, 1.0, rng));
  };
  const ag::Variable zx = leaf(a, 4 * d), zh = leaf(a, 4 * d);
  const std::vector<ag::Variable> biases = {leaf(1, d), leaf(1, d), leaf(1, d),
                                            leaf(1, d)};
  const std::vector<ag::Variable> peepholes = {leaf(n, d), leaf(n, d),
                                               leaf(n, d)};
  const ag::Variable c_prev = leaf(a, d);
  ag::NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ag::FusedLstmCell(zx, zh, biases, peepholes, c_prev).h);
  }
}
BENCHMARK(BM_FusedLstmCell)->Arg(9);

void BM_GraphConvLstmStepForward(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(3);
  nn::GraphConvLstmCell cell(n, 12, 2, rng);
  const Cascade cascade = BenchCascade(n);
  auto lap = CascadeLaplacian(cascade, n);
  const auto basis = ChebyshevBasis(ScaleLaplacian(*lap, 2.0, n), 2, n);
  const Tensor x_val = cascade.AdjacencyMatrix(n, n, true).ToDense();
  for (auto _ : state) {
    const ag::Variable x = ag::Variable::Leaf(x_val);
    benchmark::DoNotOptimize(cell.Step(basis, x, cell.InitialState()));
  }
}
BENCHMARK(BM_GraphConvLstmStepForward)->Arg(16)->Arg(32);

void BM_GraphConvLstmStepTrain(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(4);
  nn::GraphConvLstmCell cell(n, 12, 2, rng);
  const Cascade cascade = BenchCascade(n);
  auto lap = CascadeLaplacian(cascade, n);
  const auto basis = ChebyshevBasis(ScaleLaplacian(*lap, 2.0, n), 2, n);
  const Tensor x_val = cascade.AdjacencyMatrix(n, n, true).ToDense();
  for (auto _ : state) {
    const ag::Variable x = ag::Variable::Leaf(x_val);
    const nn::RnnState next = cell.Step(basis, x, cell.InitialState());
    ag::Sum(ag::Square(next.h)).Backward();
    cell.ZeroGrad();
  }
}
BENCHMARK(BM_GraphConvLstmStepTrain)->Arg(16)->Arg(32);

/// A served predict of an already-encoded cascade with a active nodes of
/// n = 32 (stream's mean active size is about 9): the recurrence over the
/// active rows, the padded-row table lookup, pooling and the MLP head. The
/// step rows above feed a = n and so cannot see padded-row work.
void BM_CascnPredictNoGrad(benchmark::State& state) {
  const int a = static_cast<int>(state.range(0));
  CascnModel model(CascnConfig{});
  CascadeSample sample;
  sample.observed = BenchCascade(a);
  sample.observation_window = a;
  ag::NoGradGuard no_grad;
  model.PredictLog(sample);  // encodes and builds the padded-row table
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.PredictLog(sample).value().At(0, 0));
  }
}
BENCHMARK(BM_CascnPredictNoGrad)->Arg(9);

void BM_EncodeCascade(benchmark::State& state) {
  GeneratorConfig gen = WeiboLikeConfig();
  gen.num_cascades = 1;
  Rng rng(5);
  CascadeSample sample;
  sample.observed = GenerateCascades(gen, rng)[0].Prefix(60.0);
  sample.observation_window = 60.0;
  CascnConfig config;
  config.padded_size = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto enc = EncodeCascade(sample, config);
    benchmark::DoNotOptimize(enc);
  }
}
BENCHMARK(BM_EncodeCascade)->Arg(16)->Arg(32)->Arg(64);

/// One captured measurement, as fed into the BENCH_*.json results array.
struct CapturedRun {
  std::string name;
  double real_ns_per_iter = 0.0;
  double cpu_ns_per_iter = 0.0;
  int64_t iterations = 0;
  double items_per_second = 0.0;  // 0 when the benchmark sets no item count
};

/// Forwards to the normal console output while keeping one measurement per
/// benchmark for the machine-readable report: the median of the repetitions
/// when run with --benchmark_repetitions, else the single run. Iterations
/// are summed over the repetitions.
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      const bool median = run.run_type == Run::RT_Aggregate &&
                          run.aggregate_name == "median";
      if (run.error_occurred || (run.run_type != Run::RT_Iteration && !median))
        continue;
      const std::string name = run.run_name.str();
      const auto [it, inserted] = index_.try_emplace(name, captured_.size());
      if (inserted) captured_.push_back(CapturedRun{name});
      // The median aggregate follows its repetitions and overwrites them.
      CapturedRun& captured = captured_[it->second];
      captured.real_ns_per_iter = run.GetAdjustedRealTime();
      captured.cpu_ns_per_iter = run.GetAdjustedCPUTime();
      if (!median) captured.iterations += run.iterations;
      const auto counter = run.counters.find("items_per_second");
      if (counter != run.counters.end())
        captured.items_per_second = counter->second;
    }
    ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<CapturedRun>& captured() const { return captured_; }

 private:
  std::vector<CapturedRun> captured_;
  std::unordered_map<std::string, size_t> index_;
};

/// Consumes --name=value from argv (so google-benchmark's own flag parsing
/// never sees it); returns "" when absent.
std::string TakeFlag(int& argc, char** argv, const char* name) {
  const std::string prefix = std::string("--") + name + "=";
  std::string value;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      value = argv[i] + prefix.size();
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  return value;
}

int MicroKernelsMain(int argc, char** argv) {
  std::string bench_out = TakeFlag(argc, argv, "bench_out");
  const std::string trace_out = TakeFlag(argc, argv, "trace_out");
  const std::string metrics_out = TakeFlag(argc, argv, "metrics_out");
  if (!trace_out.empty()) obs::Tracer::Get().Enable();
  if (bench_out.empty())
    bench_out = obs::BenchReport::DefaultPath("micro_kernels");

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;

  const auto start = std::chrono::steady_clock::now();
  CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  obs::BenchReport report("micro_kernels");
  report.AddConfig("profile_enabled",
                   static_cast<int>(obs::Profiler::Get().enabled()))
      .AddConfig("num_benchmarks",
                 static_cast<int64_t>(reporter.captured().size()))
      .SetWallClockSeconds(wall_seconds);
  for (const CapturedRun& run : reporter.captured()) {
    obs::JsonObjectBuilder row;
    row.Add("benchmark", run.name)
        .Add("real_ns_per_iter", run.real_ns_per_iter)
        .Add("cpu_ns_per_iter", run.cpu_ns_per_iter)
        .Add("iterations", run.iterations);
    if (run.items_per_second > 0)
      row.Add("items_per_second", run.items_per_second);
    report.AddResult(row.Build());
  }
  report.CaptureProfile().CaptureMetrics(obs::MetricsRegistry::Get());
  const Status write_status = report.WriteFile(bench_out);
  CASCN_CHECK(write_status.ok()) << write_status;
  std::fprintf(stderr, "[micro_kernels] benchmark report written to %s\n",
               bench_out.c_str());

  obs::ShutdownDumpOptions dump;
  dump.trace_path = trace_out;
  dump.metrics_path = metrics_out;
  CASCN_CHECK(obs::ShutdownDump(dump).ok());
  benchmark::Shutdown();
  return 0;
}

}  // namespace
}  // namespace cascn

int main(int argc, char** argv) { return cascn::MicroKernelsMain(argc, argv); }
