// PredictTile is how the fused scorers call a classifier: a whole tile of
// rows at once, with the validity floor of the pruning that follows. At or
// above the floor every row must carry PredictProbability's bits; below it,
// any value strictly below the floor. The rows here put the probability —
// and the linear models' decision value — just below, on and just above
// the floor and the cut, for every classifier and the floors the pruning
// may use.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ml/classifier.h"
#include "util/matrix.h"
#include "util/random.h"

namespace gsmb {
namespace {

constexpr size_t kDims = 3;
constexpr size_t kTile = 128;

uint64_t Bits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

/// Column 0 separates the classes; columns 1 and 2 are noise.
std::unique_ptr<ProbabilisticClassifier> Fitted(ClassifierKind kind) {
  Rng rng(17);
  Matrix x(200, kDims);
  std::vector<int> labels(200);
  for (size_t r = 0; r < 200; ++r) {
    labels[r] = static_cast<int>(r % 2);
    x.At(r, 0) = rng.NextGaussian() + (labels[r] != 0 ? 1.5 : -1.5);
    x.At(r, 1) = rng.NextGaussian();
    x.At(r, 2) = 3.0 * rng.NextGaussian();
  }
  auto model = MakeClassifier(kind, 3);
  model->Fit(x, labels);
  return model;
}

/// The row (x0, rest[0], rest[1]).
std::vector<double> Row(double x0, const double* rest) {
  return {x0, rest[0], rest[1]};
}

/// Tile output of one row.
double TileOf(const ProbabilisticClassifier& model, const std::vector<double>& row,
              double floor) {
  double out = -1.0;
  model.PredictTile(row.data(), 1, kDims, floor, &out);
  return out;
}

/// Bisects column 0 over [lo, hi] for the point where `side` flips, down
/// to adjacent doubles; returns false when it does not flip there.
template <typename Side>
bool Bisect(const Side& side, double lo, double hi, double* at) {
  const bool side_lo = side(lo);
  if (side_lo == side(hi)) return false;
  while (std::nextafter(lo, hi) != hi) {
    const double mid = lo + (hi - lo) / 2;
    if (mid == lo || mid == hi) break;
    (side(mid) == side_lo ? lo : hi) = mid;
  }
  *at = hi;
  return true;
}

/// Column-0 values around `x`: adjacent doubles, then relative steps.
void AddAround(double x, std::vector<double>* xs) {
  double down = x;
  double up = x;
  xs->push_back(x);
  for (int k = 0; k < 64; ++k) {
    down = std::nextafter(down, -std::numeric_limits<double>::infinity());
    up = std::nextafter(up, std::numeric_limits<double>::infinity());
    xs->push_back(down);
    xs->push_back(up);
  }
  const double scale = std::max(1.0, std::fabs(x));
  for (double step : {1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 1e-1}) {
    xs->push_back(x - step * scale);
    xs->push_back(x + step * scale);
  }
}

void ExpectTileContract(ClassifierKind kind) {
  const std::unique_ptr<ProbabilisticClassifier> model = Fitted(kind);
  Rng rng(29);
  for (double floor : {0.0, 1e-9, 0.5, 0.9, 1.0 - 1e-9, 1.0}) {
    SCOPED_TRACE(std::string(ClassifierKindName(kind)) +
                 " floor=" + std::to_string(floor));
    const bool cuts_nothing = floor <= 0.0 || floor >= 1.0;
    size_t cut_rows = 0;
    for (int variant = 0; variant < 4; ++variant) {
      const double rest[2] = {variant == 0 ? 0.0 : rng.NextGaussian(),
                              variant == 0 ? 0.0 : 3.0 * rng.NextGaussian()};
      std::vector<double> xs;
      for (int i = 0; i < 200; ++i) xs.push_back(8.0 * rng.NextGaussian());
      for (double x = 1.0; x <= 1e4; x *= 1.7) {
        xs.push_back(x);
        xs.push_back(-x);
      }
      double at = 0.0;
      // The probability crossing the floor, and the cut (the tile's 0).
      if (Bisect([&](double x) {
            return model->PredictProbability(Row(x, rest).data()) >= floor;
          }, -1e4, 1e4, &at)) {
        AddAround(at, &xs);
      }
      if (Bisect([&](double x) { return TileOf(*model, Row(x, rest), floor) == 0.0; },
                 -1e4, 1e4, &at)) {
        AddAround(at, &xs);
      }

      // Score the rows a tile at a time, as the scorers do.
      for (size_t first = 0; first < xs.size(); first += kTile) {
        const size_t count = std::min(kTile, xs.size() - first);
        std::vector<double> rows;
        for (size_t r = 0; r < count; ++r) {
          const std::vector<double> row = Row(xs[first + r], rest);
          rows.insert(rows.end(), row.begin(), row.end());
        }
        std::vector<double> out(count, -1.0);
        model->PredictTile(rows.data(), count, kDims, floor, out.data());
        for (size_t r = 0; r < count; ++r) {
          const double full = model->PredictProbability(rows.data() + r * kDims);
          if (cuts_nothing || full >= floor) {
            EXPECT_EQ(Bits(out[r]), Bits(full)) << "x=" << xs[first + r];
          } else {
            EXPECT_LT(out[r], floor) << "x=" << xs[first + r];
            if (Bits(out[r]) != Bits(full)) ++cut_rows;
          }
        }
      }
    }
    // The linear models skip the link for rows far below the floor.
    if (kind != ClassifierKind::kGaussianNaiveBayes && !cuts_nothing) {
      EXPECT_GT(cut_rows, 0u);
    }
  }
}

TEST(PredictTile, LogisticRegressionKeepsTheBitsAtOrAboveTheFloor) {
  ExpectTileContract(ClassifierKind::kLogisticRegression);
}

TEST(PredictTile, LinearSvcKeepsTheBitsAtOrAboveTheFloor) {
  ExpectTileContract(ClassifierKind::kLinearSvc);
}

TEST(PredictTile, NaiveBayesKeepsTheBitsAtOrAboveTheFloor) {
  ExpectTileContract(ClassifierKind::kGaussianNaiveBayes);
}

/// The corner of the box [lo, hi] that `mask` selects: column c from hi
/// when bit c is set, from lo otherwise.
std::vector<double> Corner(const double* lo, const double* hi, unsigned mask) {
  std::vector<double> row(kDims);
  for (size_t c = 0; c < kDims; ++c) row[c] = (mask >> c) & 1 ? hi[c] : lo[c];
  return row;
}

// MayReachFloor answers false only when no row inside the box reaches the
// floor. Random boxes, rows at every corner and random rows inside: any
// row whose PredictProbability reaches the floor makes the box's answer
// true. The floors include the boxes' own best corners, so a box whose
// best row sits exactly on the floor is tested, and the one just above it.
void ExpectSoundBound(ClassifierKind kind) {
  const std::unique_ptr<ProbabilisticClassifier> model = Fitted(kind);
  Rng rng(31);
  constexpr size_t kBoxes = 400;
  std::vector<double> lo(kBoxes * kDims);
  std::vector<double> hi(kBoxes * kDims);
  for (size_t b = 0; b < kBoxes; ++b) {
    for (size_t c = 0; c < kDims; ++c) {
      const double center = (c == 2 ? 3.0 : 1.0) * 2.0 * rng.NextGaussian();
      const double half = rng.NextDouble() * (b % 4 == 0 ? 0.0 : 2.0);
      lo[b * kDims + c] = center - half;
      hi[b * kDims + c] = center + half;
    }
  }
  // Each box's rows: its corners, then random points inside.
  std::vector<std::vector<std::vector<double>>> rows(kBoxes);
  std::vector<double> best(kBoxes, 0.0);
  for (size_t b = 0; b < kBoxes; ++b) {
    for (unsigned mask = 0; mask < (1u << kDims); ++mask) {
      rows[b].push_back(Corner(&lo[b * kDims], &hi[b * kDims], mask));
    }
    for (int i = 0; i < 20; ++i) {
      std::vector<double> row(kDims);
      for (size_t c = 0; c < kDims; ++c) {
        row[c] = lo[b * kDims + c] +
                 rng.NextDouble() * (hi[b * kDims + c] - lo[b * kDims + c]);
      }
      rows[b].push_back(row);
    }
    for (const std::vector<double>& row : rows[b]) {
      best[b] = std::max(best[b], model->PredictProbability(row.data()));
    }
  }
  std::vector<double> floors = {0.0, 1e-9, 0.1, 0.5, 0.9, 1.0};
  for (size_t b = 0; b < kBoxes; b += 7) {
    floors.push_back(best[b]);
    floors.push_back(std::nextafter(best[b], 2.0));
  }
  size_t ruled_out = 0;
  for (double floor : floors) {
    SCOPED_TRACE(std::string(ClassifierKindName(kind)) +
                 " floor=" + std::to_string(floor));
    std::unique_ptr<bool[]> reach(new bool[kBoxes]);
    model->MayReachFloor(lo.data(), hi.data(), kBoxes, kDims, floor,
                         reach.get());
    for (size_t b = 0; b < kBoxes; ++b) {
      if (!reach[b]) ++ruled_out;
      for (const std::vector<double>& row : rows[b]) {
        if (model->PredictProbability(row.data()) >= floor) {
          EXPECT_TRUE(reach[b]) << "box " << b;
        }
      }
    }
  }
  // The linear models rule boxes out; Gaussian NB has no bound.
  if (kind == ClassifierKind::kGaussianNaiveBayes) {
    EXPECT_EQ(ruled_out, 0u);
  } else {
    EXPECT_GT(ruled_out, 0u);
  }
}

TEST(FloorBound, LogisticRegressionNeverRulesOutARowThatReachesTheFloor) {
  ExpectSoundBound(ClassifierKind::kLogisticRegression);
}

TEST(FloorBound, LinearSvcNeverRulesOutARowThatReachesTheFloor) {
  ExpectSoundBound(ClassifierKind::kLinearSvc);
}

TEST(FloorBound, NaiveBayesAnswersTrueForEveryBox) {
  ExpectSoundBound(ClassifierKind::kGaussianNaiveBayes);
}

// The cut is conservative: the logistic link just below it is below the
// floor by a wide margin, and nothing is cut outside (0, 1).
TEST(PredictTile, FloorCutIsBelowTheFloorsLogit) {
  for (double floor : {1e-200, 1e-9, 0.1, 0.5, 0.9, 1.0 - 1e-9}) {
    const double cut = LogisticFloorCut(floor);
    EXPECT_LT(cut, std::log(floor / (1.0 - floor))) << floor;
    const double below = 1.0 / (1.0 + std::exp(-std::nextafter(cut, -1e300)));
    EXPECT_LT(below, floor) << floor;
  }
  for (double floor : {-1.0, 0.0, 1e-320, 1.0, 2.0,
                       std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_EQ(LogisticFloorCut(floor), -std::numeric_limits<double>::infinity())
        << floor;
  }
}

}  // namespace
}  // namespace gsmb
