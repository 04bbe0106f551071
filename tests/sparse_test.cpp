// Unit tests for src/sparse: COO builder, CSR matrix, dense matrix,
// vector kernels, Cholesky solver.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "sparse/coo.h"
#include "sparse/csr.h"
#include "sparse/dense.h"
#include "sparse/linalg.h"

namespace ocular {
namespace {

// ----------------------------------------------------------------- COO

TEST(CooBuilderTest, SortsAndDeduplicates) {
  CooBuilder coo;
  coo.Add(1, 2);
  coo.Add(0, 5);
  coo.Add(1, 2);  // duplicate
  coo.Add(0, 1);
  auto entries = coo.Finalize().value();
  ASSERT_EQ(entries.cols.size(), 3u);
  EXPECT_EQ(entries.row_ptr, (std::vector<uint64_t>{0, 2, 3}));
  EXPECT_EQ(entries.cols, (std::vector<uint32_t>{1, 5, 2}));
  EXPECT_EQ(entries.num_rows, 2u);
  EXPECT_EQ(entries.num_cols, 6u);
}

TEST(CooBuilderTest, ExplicitShapeMustCover) {
  CooBuilder coo;
  coo.Add(3, 3);
  EXPECT_FALSE(coo.Finalize(2, 10).ok());
  CooBuilder coo2;
  coo2.Add(3, 3);
  auto entries = coo2.Finalize(10, 10).value();
  EXPECT_EQ(entries.num_rows, 10u);
  EXPECT_EQ(entries.num_cols, 10u);
}

TEST(CooBuilderTest, EmptyBuilder) {
  CooBuilder coo;
  auto entries = coo.Finalize(4, 4).value();
  EXPECT_TRUE(entries.cols.empty());
  EXPECT_EQ(entries.row_ptr, std::vector<uint64_t>(5, 0));
  CsrMatrix m = CsrMatrix::FromCoo(entries);
  EXPECT_EQ(m.num_rows(), 4u);
  EXPECT_EQ(m.nnz(), 0u);
}

using Pairs = std::vector<std::pair<uint32_t, uint32_t>>;

/// The (row, col)-sorted, deduplicated entries of `pairs`, by std::sort +
/// std::unique; row r starts at the first pair not below (r, 0). The
/// oracle for Finalize.
CooBuilder::Entries ReferenceEntries(Pairs pairs, uint32_t rows,
                                     uint32_t cols) {
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  CooBuilder::Entries out;
  out.num_rows = rows;
  out.num_cols = cols;
  out.row_ptr.clear();
  for (uint32_t r = 0; r <= rows; ++r) {
    const auto first = std::lower_bound(pairs.begin(), pairs.end(),
                                        std::pair<uint32_t, uint32_t>{r, 0});
    out.row_ptr.push_back(static_cast<uint64_t>(first - pairs.begin()));
  }
  for (auto [r, c] : pairs) out.cols.push_back(c);
  return out;
}

void ExpectSameEntries(const CooBuilder::Entries& got,
                       const CooBuilder::Entries& want) {
  EXPECT_EQ(got.num_rows, want.num_rows);
  EXPECT_EQ(got.num_cols, want.num_cols);
  EXPECT_EQ(got.row_ptr, want.row_ptr);
  EXPECT_EQ(got.cols, want.cols);
}

TEST(CooBuilderTest, FinalizeMatchesSortUniqueReference) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    const uint32_t rows = 1 + static_cast<uint32_t>(rng.UniformInt(90));
    const uint32_t cols = 1 + static_cast<uint32_t>(rng.UniformInt(70));
    // Past 2^14 entries on later seeds, so several storage blocks fill.
    const size_t n = seed * seed * 300;
    Pairs pairs;
    for (size_t e = 0; e < n; ++e) {
      // Rows drawn from the lower half only on odd seeds: empty rows.
      const uint64_t row_range = seed % 2 == 1 ? (rows + 1) / 2 : rows;
      pairs.emplace_back(static_cast<uint32_t>(rng.UniformInt(row_range)),
                         static_cast<uint32_t>(rng.UniformInt(cols)));
      if (rng.UniformInt(uint64_t{5}) == 0) pairs.push_back(pairs.back());
    }
    // Seed 3 feeds the entries in order (as a file written row by row),
    // seed 4 in reverse order.
    if (seed == 3) std::sort(pairs.begin(), pairs.end());
    if (seed == 4) std::sort(pairs.rbegin(), pairs.rend());

    for (const bool explicit_shape : {false, true}) {
      CooBuilder coo;
      if (seed % 3 == 0) coo.Reserve(pairs.size() / 2);
      for (auto [r, c] : pairs) coo.Add(r, c);
      uint32_t want_rows = 0, want_cols = 0;
      for (auto [r, c] : pairs) {
        want_rows = std::max(want_rows, r + 1);
        want_cols = std::max(want_cols, c + 1);
      }
      if (explicit_shape) {
        want_rows += 7;  // larger than the implied shape
        want_cols += 3;
      }
      auto got = explicit_shape ? coo.Finalize(want_rows, want_cols)
                                : coo.Finalize();
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectSameEntries(*got, ReferenceEntries(pairs, want_rows, want_cols));
      EXPECT_EQ(coo.size(), 0u);  // left empty and reusable
    }

    // The same entries fed to one builder per thread, appended in order and
    // finalized on that many threads.
    for (const size_t threads : {2, 3, 5}) {
      SCOPED_TRACE(std::to_string(threads) + " threads");
      std::vector<CooBuilder> parts(threads);
      for (size_t e = 0; e < pairs.size(); ++e) {
        parts[e * threads / pairs.size()].Add(pairs[e].first, pairs[e].second);
      }
      for (size_t t = 1; t < threads; ++t) parts[0].Append(std::move(parts[t]));
      EXPECT_EQ(parts[0].size(), pairs.size());
      EXPECT_EQ(parts[1].size(), 0u);
      auto got = parts[0].Finalize(0, 0, threads);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      uint32_t want_rows = 0, want_cols = 0;
      for (auto [r, c] : pairs) {
        want_rows = std::max(want_rows, r + 1);
        want_cols = std::max(want_cols, c + 1);
      }
      ExpectSameEntries(*got, ReferenceEntries(pairs, want_rows, want_cols));
    }
  }
}

TEST(CooBuilderTest, IndexUint32MaxIsRejectedInsteadOfWrappingTheShape) {
  // Rows {0: {1, 2}, 1: {3, 4}} plus (UINT32_MAX, 0): the implied shape
  // used to wrap to 0 rows, Finalize(2, 5) passed, and FromCoo shifted
  // every row by one entry (row 0 read {2, 3}).
  CooBuilder coo;
  for (auto [r, c] : Pairs{{0, 1}, {0, 2}, {1, 3}, {1, 4}}) coo.Add(r, c);
  coo.Add(UINT32_MAX, 0);
  EXPECT_EQ(coo.num_rows(), uint64_t{1} << 32);
  EXPECT_TRUE(coo.Finalize(2, 5).status().IsInvalidArgument());

  CooBuilder implied;
  implied.Add(UINT32_MAX, 0);
  EXPECT_TRUE(implied.Finalize().status().IsInvalidArgument());
  CooBuilder column;
  column.Add(0, UINT32_MAX);
  EXPECT_TRUE(column.Finalize(1, 0).status().IsInvalidArgument());
}

TEST(CooBuilderTest, RvalueFromCooMovesColumns) {
  CooBuilder coo;
  coo.Add(2, 1);
  coo.Add(0, 3);
  auto entries = coo.Finalize().value();
  const uint32_t* cols = entries.cols.data();
  const uint64_t* row_ptr = entries.row_ptr.data();
  CsrMatrix m = CsrMatrix::FromCoo(std::move(entries));
  EXPECT_EQ(m.col_idx().data(), cols);
  EXPECT_EQ(m.row_ptr().data(), row_ptr);
  EXPECT_EQ(m, CsrMatrix::FromPairs({{2, 1}, {0, 3}}).value());
}

// ------------------------------------------------------- CSR merge

/// The pre-merge-helper ladder: ToPairs + adds through a CooBuilder.
Result<CsrMatrix> LadderMerge(const CsrMatrix& base, const Pairs& adds,
                              uint32_t rows, uint32_t cols) {
  CooBuilder coo;
  for (auto [r, c] : base.ToPairs()) coo.Add(r, c);
  for (auto [r, c] : adds) coo.Add(r, c);
  OCULAR_ASSIGN_OR_RETURN(auto entries, coo.Finalize(rows, cols));
  return CsrMatrix::FromCoo(std::move(entries));
}

TEST(CsrMergeTest, WithEntriesMatchesTheBuilderLadder) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    const uint32_t rows = 5 + static_cast<uint32_t>(rng.UniformInt(40));
    const uint32_t cols = 5 + static_cast<uint32_t>(rng.UniformInt(30));
    CooBuilder coo;
    for (int e = 0; e < 300; ++e) {
      coo.Add(static_cast<uint32_t>(rng.UniformInt(rows)),
              static_cast<uint32_t>(rng.UniformInt(cols)));
    }
    const CsrMatrix base = CsrMatrix::FromCoo(coo.Finalize(rows, cols).value());
    // Adds that repeat stored entries, repeat each other, and grow the
    // shape past the base.
    Pairs adds;
    const uint32_t grown_rows = rows + static_cast<uint32_t>(seed);
    const uint32_t grown_cols = cols + static_cast<uint32_t>(seed % 3);
    for (int e = 0; e < 40; ++e) {
      adds.emplace_back(static_cast<uint32_t>(rng.UniformInt(grown_rows)),
                        static_cast<uint32_t>(rng.UniformInt(grown_cols)));
      if (e % 7 == 0) adds.push_back(adds.back());
    }
    for (auto [r, c] : base.ToPairs()) {
      if (rng.UniformInt(uint64_t{10}) == 0) adds.emplace_back(r, c);
    }
    auto got = base.WithEntries(adds, grown_rows, grown_cols);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, LadderMerge(base, adds, grown_rows, grown_cols).value());
    // No adds at the same shape is an exact copy.
    EXPECT_EQ(base.WithEntries({}, rows, cols).value(), base);
  }
}

TEST(CsrMergeTest, WithEntriesRejectsEntriesOutsideTheShape) {
  const CsrMatrix base =
      CsrMatrix::FromPairs({{0, 1}, {2, 3}}, 5, 4).value();  // rows 3-4 empty
  auto rejects = [&](const Pairs& adds, uint32_t rows, uint32_t cols) {
    return base.WithEntries(adds, rows, cols).status().IsInvalidArgument();
  };
  EXPECT_TRUE(rejects({{3, 0}}, 3, 4));
  EXPECT_TRUE(rejects({{0, 4}}, 5, 4));
  EXPECT_TRUE(rejects({}, 2, 4));  // stored entry (2, 3) is outside
  EXPECT_TRUE(rejects({}, 5, 3));
  EXPECT_TRUE(rejects({{UINT32_MAX, 0}}, 5, 4));
  // Trailing empty rows may be cut, as a builder finalized at that shape
  // would.
  auto cut = base.WithEntries({}, 3, 4);
  ASSERT_TRUE(cut.ok());
  EXPECT_EQ(*cut, LadderMerge(base, {}, 3, 4).value());
}

// ----------------------------------------------------------------- CSR

CsrMatrix SmallMatrix() {
  // 3x4:
  //   row0: 1 0 1 0
  //   row1: 0 0 0 0
  //   row2: 0 1 1 1
  return CsrMatrix::FromPairs({{0, 0}, {0, 2}, {2, 1}, {2, 2}, {2, 3}}, 3, 4)
      .value();
}

TEST(CsrMatrixTest, BasicAccessors) {
  CsrMatrix m = SmallMatrix();
  EXPECT_EQ(m.num_rows(), 3u);
  EXPECT_EQ(m.num_cols(), 4u);
  EXPECT_EQ(m.nnz(), 5u);
  EXPECT_DOUBLE_EQ(m.Density(), 5.0 / 12.0);
  EXPECT_EQ(m.RowDegree(0), 2u);
  EXPECT_EQ(m.RowDegree(1), 0u);
  EXPECT_EQ(m.RowDegree(2), 3u);
  auto row2 = m.Row(2);
  EXPECT_EQ(std::vector<uint32_t>(row2.begin(), row2.end()),
            (std::vector<uint32_t>{1, 2, 3}));
}

TEST(CsrMatrixTest, HasEntry) {
  CsrMatrix m = SmallMatrix();
  EXPECT_TRUE(m.HasEntry(0, 0));
  EXPECT_TRUE(m.HasEntry(2, 3));
  EXPECT_FALSE(m.HasEntry(0, 1));
  EXPECT_FALSE(m.HasEntry(1, 0));
  EXPECT_FALSE(m.HasEntry(99, 0));  // out-of-range row is just "absent"
}

TEST(CsrMatrixTest, TransposeRoundTrip) {
  CsrMatrix m = SmallMatrix();
  CsrMatrix t = m.Transpose();
  EXPECT_EQ(t.num_rows(), 4u);
  EXPECT_EQ(t.num_cols(), 3u);
  EXPECT_EQ(t.nnz(), m.nnz());
  for (uint32_t r = 0; r < m.num_rows(); ++r) {
    for (uint32_t c = 0; c < m.num_cols(); ++c) {
      EXPECT_EQ(m.HasEntry(r, c), t.HasEntry(c, r));
    }
  }
  EXPECT_EQ(t.Transpose(), m);
}

TEST(CsrMatrixTest, TransposeRowsSorted) {
  Rng rng(5);
  CooBuilder coo;
  for (int e = 0; e < 500; ++e) {
    coo.Add(static_cast<uint32_t>(rng.UniformInt(uint64_t{40})),
            static_cast<uint32_t>(rng.UniformInt(uint64_t{30})));
  }
  CsrMatrix m = CsrMatrix::FromCoo(coo.Finalize(40, 30).value());
  CsrMatrix t = m.Transpose();
  for (uint32_t r = 0; r < t.num_rows(); ++r) {
    auto row = t.Row(r);
    EXPECT_TRUE(std::is_sorted(row.begin(), row.end()));
  }
}

TEST(CsrMatrixTest, SelectRows) {
  CsrMatrix m = SmallMatrix();
  CsrMatrix s = m.SelectRows({2, 0});
  EXPECT_EQ(s.num_rows(), 2u);
  EXPECT_EQ(s.num_cols(), 4u);
  EXPECT_TRUE(s.HasEntry(0, 1));  // old row 2
  EXPECT_TRUE(s.HasEntry(1, 0));  // old row 0
  EXPECT_FALSE(s.HasEntry(1, 1));
}

TEST(CsrMatrixTest, ColumnDegrees) {
  CsrMatrix m = SmallMatrix();
  EXPECT_EQ(m.ColumnDegrees(), (std::vector<uint32_t>{1, 1, 2, 1}));
}

TEST(CsrMatrixTest, ToPairsRoundTrip) {
  CsrMatrix m = SmallMatrix();
  auto pairs = m.ToPairs();
  CsrMatrix m2 = CsrMatrix::FromPairs(pairs, 3, 4).value();
  EXPECT_EQ(m, m2);
}

TEST(CsrMatrixTest, EmptyMatrix) {
  CsrMatrix m;
  EXPECT_EQ(m.num_rows(), 0u);
  EXPECT_EQ(m.num_cols(), 0u);
  EXPECT_EQ(m.nnz(), 0u);
  EXPECT_DOUBLE_EQ(m.Density(), 0.0);
}

// Property check over random matrices: transpose twice is identity and
// degrees are preserved.
class CsrRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(CsrRandomTest, TransposeInvolutionAndDegreeConservation) {
  Rng rng(GetParam());
  CooBuilder coo;
  const uint32_t rows = 20 + GetParam() * 13;
  const uint32_t cols = 15 + GetParam() * 7;
  const int nnz = 50 + GetParam() * 100;
  for (int e = 0; e < nnz; ++e) {
    coo.Add(static_cast<uint32_t>(rng.UniformInt(uint64_t{rows})),
            static_cast<uint32_t>(rng.UniformInt(uint64_t{cols})));
  }
  CsrMatrix m = CsrMatrix::FromCoo(coo.Finalize(rows, cols).value());
  CsrMatrix t = m.Transpose();
  EXPECT_EQ(t.Transpose(), m);
  // Total degree is conserved.
  size_t row_total = 0, col_total = 0;
  for (uint32_t r = 0; r < m.num_rows(); ++r) row_total += m.RowDegree(r);
  for (uint32_t c : m.ColumnDegrees()) col_total += c;
  EXPECT_EQ(row_total, m.nnz());
  EXPECT_EQ(col_total, m.nnz());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsrRandomTest, ::testing::Range(1, 8));

// --------------------------------------------------------------- Dense

TEST(DenseMatrixTest, FillAndAccess) {
  DenseMatrix m(3, 2, 1.5);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m.At(2, 1), 1.5);
  m.At(1, 0) = -2.0;
  EXPECT_DOUBLE_EQ(m.Row(1)[0], -2.0);
  m.Fill(0.0);
  EXPECT_DOUBLE_EQ(m.At(1, 0), 0.0);
}

TEST(DenseMatrixTest, ColumnSums) {
  DenseMatrix m(2, 3);
  m.At(0, 0) = 1;
  m.At(0, 1) = 2;
  m.At(0, 2) = 3;
  m.At(1, 0) = 4;
  m.At(1, 1) = 5;
  m.At(1, 2) = 6;
  EXPECT_EQ(m.ColumnSums(), (std::vector<double>{5, 7, 9}));
}

TEST(DenseMatrixTest, SquaredFrobeniusNorm) {
  DenseMatrix m(2, 2);
  m.At(0, 0) = 3;
  m.At(1, 1) = 4;
  EXPECT_DOUBLE_EQ(m.SquaredFrobeniusNorm(), 25.0);
}

TEST(DenseMatrixTest, FillUniformRespectsBounds) {
  Rng rng(3);
  DenseMatrix m(10, 10);
  m.FillUniform(&rng, 0.5, 1.5);
  for (uint32_t r = 0; r < 10; ++r) {
    for (uint32_t c = 0; c < 10; ++c) {
      EXPECT_GE(m.At(r, c), 0.5);
      EXPECT_LT(m.At(r, c), 1.5);
    }
  }
}

TEST(VecTest, DotAxpyScaleNorm) {
  std::vector<double> a{1, 2, 3}, b{4, 5, 6};
  EXPECT_DOUBLE_EQ(vec::Dot(a, b), 32.0);
  vec::Axpy(2.0, a, b);  // b = {6, 9, 12}
  EXPECT_EQ(b, (std::vector<double>{6, 9, 12}));
  vec::Scale(0.5, b);
  EXPECT_EQ(b, (std::vector<double>{3, 4.5, 6}));
  EXPECT_DOUBLE_EQ(vec::SquaredNorm(a), 14.0);
  EXPECT_DOUBLE_EQ(vec::SquaredDistance(a, a), 0.0);
}

TEST(VecTest, ProjectNonNegative) {
  std::vector<double> v{-1.0, 0.0, 2.5, -0.001};
  vec::ProjectNonNegative(v);
  EXPECT_EQ(v, (std::vector<double>{0.0, 0.0, 2.5, 0.0}));
}

// -------------------------------------------------------------- linalg

TEST(CholeskyTest, SolvesIdentity) {
  const uint32_t k = 4;
  std::vector<double> a(k * k, 0.0);
  for (uint32_t d = 0; d < k; ++d) a[d * k + d] = 1.0;
  std::vector<double> b{1, 2, 3, 4}, x;
  ASSERT_TRUE(CholeskySolveInPlace(&a, k, b, &x).ok());
  for (uint32_t d = 0; d < k; ++d) EXPECT_NEAR(x[d], b[d], 1e-12);
}

TEST(CholeskyTest, SolvesRandomSpdSystem) {
  Rng rng(11);
  const uint32_t k = 12;
  // A = M^T M + I is SPD.
  DenseMatrix m(k, k);
  m.FillUniform(&rng, -1.0, 1.0);
  std::vector<double> a = GramMatrix(m);
  for (uint32_t d = 0; d < k; ++d) a[d * k + d] += 1.0;
  std::vector<double> a_copy = a;

  std::vector<double> x_true(k);
  for (auto& v : x_true) v = rng.Uniform(-2.0, 2.0);
  // b = A x_true.
  std::vector<double> b(k, 0.0);
  for (uint32_t i = 0; i < k; ++i) {
    for (uint32_t j = 0; j < k; ++j) b[i] += a_copy[i * k + j] * x_true[j];
  }
  std::vector<double> x;
  ASSERT_TRUE(CholeskySolveInPlace(&a, k, b, &x).ok());
  for (uint32_t d = 0; d < k; ++d) EXPECT_NEAR(x[d], x_true[d], 1e-8);
}

TEST(CholeskyTest, RejectsIndefinite) {
  std::vector<double> a{1.0, 2.0, 2.0, 1.0};  // eigenvalues 3, -1
  std::vector<double> b{1.0, 1.0}, x;
  Status s = CholeskySolveInPlace(&a, 2, b, &x);
  EXPECT_TRUE(s.IsFailedPrecondition());
}

TEST(CholeskyTest, RejectsShapeMismatch) {
  std::vector<double> a(9, 0.0);
  std::vector<double> b{1.0, 1.0}, x;  // b has wrong length for k=3
  EXPECT_TRUE(CholeskySolveInPlace(&a, 3, b, &x).IsInvalidArgument());
}

TEST(GramMatrixTest, MatchesManual) {
  DenseMatrix f(3, 2);
  f.At(0, 0) = 1;
  f.At(0, 1) = 2;
  f.At(1, 0) = 3;
  f.At(1, 1) = 4;
  f.At(2, 0) = 5;
  f.At(2, 1) = 6;
  auto g = GramMatrix(f);
  // F^T F = [[35, 44], [44, 56]].
  EXPECT_DOUBLE_EQ(g[0], 35.0);
  EXPECT_DOUBLE_EQ(g[1], 44.0);
  EXPECT_DOUBLE_EQ(g[2], 44.0);
  EXPECT_DOUBLE_EQ(g[3], 56.0);
}

TEST(AddOuterProductTest, MatchesManual) {
  std::vector<double> a(4, 0.0);
  std::vector<double> v{2.0, 3.0};
  AddOuterProduct(&a, 2, 0.5, v);
  EXPECT_DOUBLE_EQ(a[0], 2.0);   // 0.5 * 2 * 2
  EXPECT_DOUBLE_EQ(a[1], 3.0);   // 0.5 * 2 * 3
  EXPECT_DOUBLE_EQ(a[2], 3.0);
  EXPECT_DOUBLE_EQ(a[3], 4.5);
}

}  // namespace
}  // namespace ocular
