// google-benchmark microbenchmarks for the library's hot kernels: blocking
// (key blocking per scheme), index construction, candidate generation,
// feature extraction (with and without LCP), classifier training/inference
// and every pruning algorithm.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <string>

#include "blocking/block_filtering.h"
#include "blocking/block_purging.h"
#include "blocking/qgram_blocking.h"
#include "blocking/suffix_blocking.h"
#include "blocking/token_blocking.h"
#include "core/pipeline.h"
#include "datasets/clean_clean_generator.h"
#include "datasets/dirty_generator.h"
#include "datasets/specs.h"
#include "ml/linear_svc.h"
#include "ml/logistic_regression.h"
#include "stream/streaming_dataset.h"
#include "util/mem_stats.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace {

using namespace gsmb;

const GeneratedCleanClean& Data() {
  static const GeneratedCleanClean* data = [] {
    CleanCleanSpec spec = CleanCleanSpecByName("DblpAcm", 0.25);
    return new GeneratedCleanClean(CleanCleanGenerator().Generate(spec));
  }();
  return *data;
}

const PreparedDataset& Prepared() {
  static const PreparedDataset* prep = [] {
    const GeneratedCleanClean& d = Data();
    GroundTruth gt = d.ground_truth;
    return new PreparedDataset(
        PrepareCleanClean("bench", d.e1, d.e2, std::move(gt)));
  }();
  return *prep;
}

/// Dirty ER D10K x1.2 (~2.1M candidates), the stream-dirty workload's
/// shape, as the streaming preparation counts it.
const StreamingDataset& DirtyStream() {
  static const StreamingDataset* prep = [] {
    GeneratedDirty d = DirtyGenerator().Generate(PaperDirtySpecs(1.2).front());
    return new StreamingDataset(PrepareStreamingDirty(
        "D10Kx1.2", d.entities, std::move(d.ground_truth),
        BlockingOptions{.execution = {.num_threads = 4}}));
  }();
  return *prep;
}

/// The logistic regression stream-dirty fits: BlastOptimal, 250 pairs per
/// class.
const ProbabilisticClassifier& DirtyModel() {
  static const ProbabilisticClassifier* model = [] {
    MetaBlockingConfig config;
    config.features = FeatureSet::BlastOptimal();
    config.execution.num_threads = 4;
    return TrainClassifier(DirtyStream(), config, nullptr, nullptr)
        .model.release();
  }();
  return *model;
}

/// A sparse id space: 300K entities, 20K left pivots each in two blocks of
/// 2 left and 25 random right members, so a pivot has ~50 neighbours
/// scattered over 280K right ids.
const EntityIndex& SparseIndex() {
  static const EntityIndex* index = [] {
    constexpr size_t kLeft = 20000;
    constexpr size_t kRight = 280000;
    BlockCollection blocks(/*clean_clean=*/true, kLeft, kRight);
    Rng rng(11);
    for (size_t round = 0; round < 2; ++round) {
      for (size_t b = 0; b < kLeft / 2; ++b) {
        Block block;
        block.key = std::to_string(round) + "/" + std::to_string(b);
        block.left = {static_cast<EntityId>(2 * b + round),
                      static_cast<EntityId>((2 * b + 1 + round) % kLeft)};
        std::sort(block.left.begin(), block.left.end());
        for (size_t m = 0; m < 25; ++m) {
          block.right.push_back(static_cast<EntityId>(rng.NextUint64(kRight)));
        }
        std::sort(block.right.begin(), block.right.end());
        block.right.erase(std::unique(block.right.begin(), block.right.end()),
                          block.right.end());
        blocks.Add(std::move(block));
      }
    }
    return new EntityIndex(blocks);
  }();
  return *index;
}

void BM_TokenBlocking(benchmark::State& state) {
  const GeneratedCleanClean& d = Data();
  for (auto _ : state) {
    BlockCollection bc = TokenBlocking().Build(d.e1, d.e2);
    benchmark::DoNotOptimize(bc.size());
  }
}
BENCHMARK(BM_TokenBlocking);

// The sort-merge key builder per scheme and dataset: key extraction into
// per-chunk arenas, per-chunk sorted runs, the parallel merge over key
// ranges. Args: {case, threads}; the label names the case.
struct KeyBlockingCase {
  const char* label;
  const char* dataset;
  double scale;
  BlockCollection (*build)(const GeneratedCleanClean&, size_t threads);
};

const KeyBlockingCase kKeyBlockingCases[] = {
    {"token/AbtBuy x1", "AbtBuy", 1.0,
     [](const GeneratedCleanClean& d, size_t threads) {
       return TokenBlocking().Build(d.e1, d.e2, threads);
     }},
    {"qgram/AbtBuy x1", "AbtBuy", 1.0,
     [](const GeneratedCleanClean& d, size_t threads) {
       return QGramBlocking().Build(d.e1, d.e2, threads);
     }},
    {"suffix/AbtBuy x1", "AbtBuy", 1.0,
     [](const GeneratedCleanClean& d, size_t threads) {
       return SuffixBlocking().Build(d.e1, d.e2, threads);
     }},
    {"token/DblpAcm x2", "DblpAcm", 2.0,
     [](const GeneratedCleanClean& d, size_t threads) {
       return TokenBlocking().Build(d.e1, d.e2, threads);
     }},
};

const GeneratedCleanClean& KeyBlockingData(const KeyBlockingCase& c) {
  static std::map<std::string, const GeneratedCleanClean*> cache;
  const GeneratedCleanClean*& data = cache[c.dataset];
  if (data == nullptr) {
    data = new GeneratedCleanClean(CleanCleanGenerator().Generate(
        CleanCleanSpecByName(c.dataset, c.scale)));
  }
  return *data;
}

void BM_KeyBlocking(benchmark::State& state) {
  const KeyBlockingCase& c = kKeyBlockingCases[state.range(0)];
  const auto threads = static_cast<size_t>(state.range(1));
  const GeneratedCleanClean& d = KeyBlockingData(c);
  for (auto _ : state) {
    BlockCollection bc = c.build(d, threads);
    benchmark::DoNotOptimize(bc.size());
  }
  state.SetLabel(std::string(c.label) + "/t" + std::to_string(threads));
}
BENCHMARK(BM_KeyBlocking)
    ->Args({0, 1})
    ->Args({0, 4})
    ->Args({1, 1})
    ->Args({1, 4})
    ->Args({2, 1})
    ->Args({2, 4})
    ->Args({3, 1})
    ->Args({3, 4})
    ->Unit(benchmark::kMillisecond);

void BM_PurgeAndFilter(benchmark::State& state) {
  const GeneratedCleanClean& d = Data();
  BlockCollection raw = TokenBlocking().Build(d.e1, d.e2);
  for (auto _ : state) {
    BlockCollection out = BlockFiltering().Apply(BlockPurging().Apply(raw));
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_PurgeAndFilter);

void BM_EntityIndexBuild(benchmark::State& state) {
  const PreparedDataset& prep = Prepared();
  for (auto _ : state) {
    EntityIndex index(prep.blocks);
    benchmark::DoNotOptimize(index.num_blocks());
  }
}
BENCHMARK(BM_EntityIndexBuild);

void BM_CandidateGeneration(benchmark::State& state) {
  const PreparedDataset& prep = Prepared();
  for (auto _ : state) {
    auto pairs = GenerateCandidatePairs(*prep.index);
    benchmark::DoNotOptimize(pairs.size());
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * prep.pairs.size()));
}
BENCHMARK(BM_CandidateGeneration);

void BM_FeaturesWithoutLcp(benchmark::State& state) {
  const PreparedDataset& prep = Prepared();
  FeatureExtractor extractor(*prep.index, prep.pairs);
  for (auto _ : state) {
    Matrix m = extractor.Compute(FeatureSet::BlastOptimal());
    benchmark::DoNotOptimize(m.rows());
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * prep.pairs.size()));
}
BENCHMARK(BM_FeaturesWithoutLcp);

void BM_FeaturesWithLcp(benchmark::State& state) {
  const PreparedDataset& prep = Prepared();
  FeatureExtractor extractor(*prep.index, prep.pairs);
  for (auto _ : state) {
    Matrix m = extractor.Compute(FeatureSet::Paper2014());
    benchmark::DoNotOptimize(m.rows());
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * prep.pairs.size()));
}
BENCHMARK(BM_FeaturesWithLcp);

void BM_LogisticRegressionFit(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  Matrix x(n, 4);
  std::vector<int> y(n);
  Rng rng(1);
  for (size_t i = 0; i < n; ++i) {
    y[i] = static_cast<int>(i % 2);
    for (size_t c = 0; c < 4; ++c) {
      x.At(i, c) = rng.NextGaussian() + (y[i] != 0 ? 1.0 : -1.0);
    }
  }
  for (auto _ : state) {
    LogisticRegression model;
    model.Fit(x, y);
    benchmark::DoNotOptimize(model.last_iterations());
  }
}
BENCHMARK(BM_LogisticRegressionFit)->Arg(50)->Arg(500);

void BM_ClassifierInference(benchmark::State& state) {
  const PreparedDataset& prep = Prepared();
  FeatureExtractor extractor(*prep.index, prep.pairs);
  Matrix features = extractor.Compute(FeatureSet::BlastOptimal());
  Rng rng(2);
  std::vector<size_t> rows;
  std::vector<int> labels;
  for (size_t i = 0; i < prep.pairs.size() && labels.size() < 50; ++i) {
    if (prep.is_positive[i] || rng.NextBool(0.001)) {
      rows.push_back(i);
      labels.push_back(prep.is_positive[i]);
    }
  }
  LogisticRegression model;
  model.Fit(features.SelectRows(rows), labels);
  for (auto _ : state) {
    std::vector<double> probs = model.PredictBatch(features);
    benchmark::DoNotOptimize(probs.data());
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * prep.pairs.size()));
}
BENCHMARK(BM_ClassifierInference);

// Threaded variants of the hot paths: compare Arg(1) against Arg(4)/Arg(8)
// rows to see the parallel speedup. Results are bit-identical to serial by
// construction, so only the wall clock moves.

// Args: {case, threads}. Case 0 is DblpAcm x0.25 (Clean-Clean), case 1
// Dirty ER D10K x1.2 (pivots near the start hold most pairs), case 2 the
// sparse id space (300K ids, ~50 neighbours per pivot).
void BM_CandidateGenerationParallel(benchmark::State& state) {
  const auto threads = static_cast<size_t>(state.range(1));
  const EntityIndex& index = state.range(0) == 0   ? *Prepared().index
                             : state.range(0) == 1 ? *DirtyStream().index
                                                   : SparseIndex();
  size_t pairs_per_run = 0;
  for (auto _ : state) {
    auto pairs = GenerateCandidatePairs(index, threads);
    pairs_per_run = pairs.size();
    benchmark::DoNotOptimize(pairs.size());
  }
  const char* labels[] = {"DblpAcm x0.25", "D10K x1.2", "sparse 300K ids"};
  state.SetLabel(std::string(labels[state.range(0)]) + "/t" +
                 std::to_string(threads));
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * pairs_per_run));
}
BENCHMARK(BM_CandidateGenerationParallel)
    ->Args({0, 1})
    ->Args({0, 2})
    ->Args({0, 4})
    ->Args({0, 8})
    ->Args({1, 1})
    ->Args({1, 4})
    ->Args({2, 1})
    ->Args({2, 4});

void BM_FeaturesParallel(benchmark::State& state) {
  const auto threads = static_cast<size_t>(state.range(0));
  const PreparedDataset& prep = Prepared();
  FeatureExtractor extractor(*prep.index, prep.pairs);
  for (auto _ : state) {
    Matrix m = extractor.Compute(FeatureSet::BlastOptimal(), threads);
    benchmark::DoNotOptimize(m.rows());
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * prep.pairs.size()));
}
BENCHMARK(BM_FeaturesParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

/// A logistic regression fitted on ~50 BlastOptimal rows of Prepared().
const LogisticRegression& BlastModel() {
  static const LogisticRegression* model = [] {
    const PreparedDataset& prep = Prepared();
    Matrix features = FeatureExtractor(*prep.index, prep.pairs)
                          .Compute(FeatureSet::BlastOptimal());
    Rng rng(2);
    std::vector<size_t> rows;
    std::vector<int> labels;
    for (size_t i = 0; i < prep.pairs.size() && labels.size() < 50; ++i) {
      if (prep.is_positive[i] || rng.NextBool(0.001)) {
        rows.push_back(i);
        labels.push_back(prep.is_positive[i]);
      }
    }
    auto* fitted = new LogisticRegression();
    fitted->Fit(features.SelectRows(rows), labels);
    return fitted;
  }();
  return *model;
}

void BM_ClassifierInferenceParallel(benchmark::State& state) {
  const auto threads = static_cast<size_t>(state.range(0));
  const PreparedDataset& prep = Prepared();
  FeatureExtractor extractor(*prep.index, prep.pairs);
  Matrix features = extractor.Compute(FeatureSet::BlastOptimal());
  const LogisticRegression& model = BlastModel();
  for (auto _ : state) {
    std::vector<double> probs = model.PredictBatch(features, threads);
    benchmark::DoNotOptimize(probs.data());
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * prep.pairs.size()));
}
BENCHMARK(BM_ClassifierInferenceParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// The batch executor's fused sweep: features and classification of every
// candidate in one pass, no feature matrix. Compare against
// BM_FeaturesParallel + BM_ClassifierInferenceParallel at the same Arg.
void BM_ScoreParallel(benchmark::State& state) {
  const auto threads = static_cast<size_t>(state.range(0));
  const PreparedDataset& prep = Prepared();
  FeatureExtractor extractor(*prep.index, prep.pairs);
  const LogisticRegression& model = BlastModel();
  for (auto _ : state) {
    std::vector<double> probs =
        extractor.Score(FeatureSet::BlastOptimal(), model, threads);
    benchmark::DoNotOptimize(probs.data());
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * prep.pairs.size()));
}
BENCHMARK(BM_ScoreParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// The streaming executor's shard fill over the whole candidate order: pairs
// (regenerated from the blocks), features and classification in one pass,
// split across threads by candidate count. Compare case 0 against
// BM_CandidateGeneration + BM_ScoreParallel at the same thread count.
// Args: {case, threads}. Case 0 is DblpAcm x0.25 at floor 0 (every row
// kept); cases 1 and 2 are Dirty ER D10K x1.2 at floor 0 and at the paper's
// validity floor 0.5, where only the ~1% of rows that clear it are kept.
void BM_ScoreCandidateRange(benchmark::State& state) {
  const auto threads = static_cast<size_t>(state.range(1));
  const bool dirty = state.range(0) > 0;
  const double floor = state.range(0) == 2 ? 0.5 : 0.0;
  std::vector<uint64_t> clean_offsets;
  if (!dirty) {
    const PreparedDataset& prep = Prepared();
    clean_offsets.assign(NumCandidatePivots(*prep.index) + 1, 0);
    for (const CandidatePair& pair : prep.pairs) ++clean_offsets[pair.left + 1];
    for (size_t p = 1; p < clean_offsets.size(); ++p) {
      clean_offsets[p] += clean_offsets[p - 1];
    }
  }
  const EntityIndex& index = dirty ? *DirtyStream().index : *Prepared().index;
  const std::vector<uint64_t>& offsets =
      dirty ? DirtyStream().pivot_offsets : clean_offsets;
  const ProbabilisticClassifier& model =
      dirty ? DirtyModel()
            : static_cast<const ProbabilisticClassifier&>(BlastModel());
  ScoredCandidates kept;
  for (auto _ : state) {
    ScoreCandidateRange(index, offsets, 0, offsets.back(),
                        FeatureSet::BlastOptimal(), model, floor, threads,
                        nullptr, &kept, nullptr);
    benchmark::DoNotOptimize(kept.pairs.data());
    benchmark::DoNotOptimize(kept.probabilities.data());
    benchmark::ClobberMemory();
  }
  const char* labels[] = {"DblpAcm x0.25 floor 0", "D10K x1.2 floor 0",
                          "D10K x1.2 floor 0.5"};
  state.SetLabel(std::string(labels[state.range(0)]) + "/t" +
                 std::to_string(threads));
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * offsets.back()));
}
BENCHMARK(BM_ScoreCandidateRange)
    ->Args({0, 1})
    ->Args({0, 2})
    ->Args({0, 4})
    ->Args({0, 8})
    ->Args({1, 1})
    ->Args({1, 4})
    ->Args({2, 1})
    ->Args({2, 4})
    ->Unit(benchmark::kMillisecond);

// The classifiers' tile scorer over every BlastOptimal row of DblpAcm
// x0.25, 128 rows per PredictTile call, tiles split across threads. Args:
// {case, threads}: case 0 loops PredictProbability (the default tile),
// cases 1 and 2 are the logistic regression's override at floors 0 and
// 0.5, cases 3 and 4 the Platt-scaled SVC's at floors 0 and 0.5.
void BM_PredictTile(benchmark::State& state) {
  const auto threads = static_cast<size_t>(state.range(1));
  static const Matrix* features = [] {
    const PreparedDataset& prep = Prepared();
    return new Matrix(FeatureExtractor(*prep.index, prep.pairs)
                          .Compute(FeatureSet::BlastOptimal()));
  }();
  static const LinearSvc* svc = [] {
    const PreparedDataset& prep = Prepared();
    Rng rng(2);
    std::vector<size_t> rows;
    std::vector<int> labels;
    for (size_t i = 0; i < prep.pairs.size() && labels.size() < 50; ++i) {
      if (prep.is_positive[i] || rng.NextBool(0.001)) {
        rows.push_back(i);
        labels.push_back(prep.is_positive[i]);
      }
    }
    auto* fitted = new LinearSvc();
    fitted->Fit(features->SelectRows(rows), labels);
    return fitted;
  }();
  const int c = static_cast<int>(state.range(0));
  const ProbabilisticClassifier& model =
      c <= 2 ? static_cast<const ProbabilisticClassifier&>(BlastModel())
             : static_cast<const ProbabilisticClassifier&>(*svc);
  const double floor = c == 2 || c == 4 ? 0.5 : 0.0;
  constexpr size_t kTile = 128;
  const size_t dims = features->cols();
  const size_t tiles = (features->rows() + kTile - 1) / kTile;
  std::vector<double> out(features->rows());
  for (auto _ : state) {
    ParallelFor(tiles, threads, [&](size_t begin, size_t end) {
      for (size_t t = begin; t < end; ++t) {
        const size_t first = t * kTile;
        const size_t count = std::min(kTile, features->rows() - first);
        if (c == 0) {
          model.ProbabilisticClassifier::PredictTile(
              features->Row(first), count, dims, floor, out.data() + first);
        } else {
          model.PredictTile(features->Row(first), count, dims, floor,
                            out.data() + first);
        }
      }
    });
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  const char* labels[] = {"LR PredictProbability loop", "LR floor 0",
                          "LR floor 0.5", "SVC floor 0", "SVC floor 0.5"};
  state.SetLabel(std::string(labels[c]) + "/t" + std::to_string(threads));
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * features->rows()));
}
BENCHMARK(BM_PredictTile)
    ->Args({0, 1})
    ->Args({0, 4})
    ->Args({1, 1})
    ->Args({1, 4})
    ->Args({2, 1})
    ->Args({2, 4})
    ->Args({3, 1})
    ->Args({3, 4})
    ->Args({4, 1})
    ->Args({4, 4});

void BM_PruningParallel(benchmark::State& state) {
  const PruningKind kind = static_cast<PruningKind>(state.range(0));
  const auto threads = static_cast<size_t>(state.range(1));
  const PreparedDataset& prep = Prepared();
  std::vector<double> probs(prep.pairs.size());
  Rng rng(3);
  for (double& p : probs) p = rng.NextDouble();
  PruningContext ctx = PruningContext::FromIndex(*prep.index, prep.stats);
  ctx.execution.num_threads = threads;
  auto algorithm = MakePruningAlgorithm(kind);
  for (auto _ : state) {
    auto retained = algorithm->Prune(prep.pairs, probs, ctx);
    benchmark::DoNotOptimize(retained.size());
  }
  state.SetLabel(std::string(PruningKindName(kind)) + "/t" +
                 std::to_string(threads));
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * prep.pairs.size()));
}
BENCHMARK(BM_PruningParallel)
    ->Args({static_cast<int>(PruningKind::kWnp), 1})
    ->Args({static_cast<int>(PruningKind::kWnp), 4})
    ->Args({static_cast<int>(PruningKind::kBlast), 1})
    ->Args({static_cast<int>(PruningKind::kBlast), 4})
    ->Args({static_cast<int>(PruningKind::kRcnp), 1})
    ->Args({static_cast<int>(PruningKind::kRcnp), 4});

void BM_Pruning(benchmark::State& state) {
  const PruningKind kind = static_cast<PruningKind>(state.range(0));
  const PreparedDataset& prep = Prepared();
  // Synthetic probabilities: deterministic pseudo-random in [0,1].
  std::vector<double> probs(prep.pairs.size());
  Rng rng(3);
  for (double& p : probs) p = rng.NextDouble();
  PruningContext ctx = PruningContext::FromIndex(*prep.index, prep.stats);
  auto algorithm = MakePruningAlgorithm(kind);
  for (auto _ : state) {
    auto retained = algorithm->Prune(prep.pairs, probs, ctx);
    benchmark::DoNotOptimize(retained.size());
  }
  state.SetLabel(PruningKindName(kind));
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * prep.pairs.size()));
}
BENCHMARK(BM_Pruning)
    ->Arg(static_cast<int>(PruningKind::kBCl))
    ->Arg(static_cast<int>(PruningKind::kWep))
    ->Arg(static_cast<int>(PruningKind::kWnp))
    ->Arg(static_cast<int>(PruningKind::kRwnp))
    ->Arg(static_cast<int>(PruningKind::kBlast))
    ->Arg(static_cast<int>(PruningKind::kCep))
    ->Arg(static_cast<int>(PruningKind::kCnp))
    ->Arg(static_cast<int>(PruningKind::kRcnp));

// Registered last so it runs after every other benchmark: VmHWM is a
// process-wide monotone high-water mark, so per-benchmark readings would
// be order-dependent and mask later regressions. One reading over the
// whole suite gives bench_diff.py a single stable peak_rss_mb to track
// (run with no --benchmark_filter when comparing it across runs).
void BM_ProcessPeakRss(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(PeakRssKb());
  }
  state.counters["peak_rss_mb"] =
      benchmark::Counter(static_cast<double>(PeakRssKb()) / 1024.0);
}
BENCHMARK(BM_ProcessPeakRss)->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
