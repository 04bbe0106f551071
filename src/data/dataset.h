#ifndef OCULAR_DATA_DATASET_H_
#define OCULAR_DATA_DATASET_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "sparse/csr.h"

namespace ocular {

/// An implicit-feedback (one-class) interaction dataset.
///
/// Holds the binary user-item matrix R plus optional display labels used by
/// the explanation generator (Section IV-C of the paper: in B2B settings the
/// rationale names the actual clients and products).
class Dataset {
 public:
  Dataset() = default;
  Dataset(std::string name, CsrMatrix interactions)
      : name_(std::move(name)), interactions_(std::move(interactions)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  const CsrMatrix& interactions() const { return interactions_; }
  /// Moves the matrix out, leaving this dataset with an empty 0x0 one.
  CsrMatrix TakeInteractions() { return std::exchange(interactions_, {}); }
  uint32_t num_users() const { return interactions_.num_rows(); }
  uint32_t num_items() const { return interactions_.num_cols(); }
  size_t num_interactions() const { return interactions_.nnz(); }

  /// Display label for user `u`; defaults to "user <u>".
  std::string UserLabel(uint32_t u) const;
  /// Display label for item `i`; defaults to "item <i>".
  std::string ItemLabel(uint32_t i) const;

  void set_user_labels(std::vector<std::string> labels) {
    user_labels_ = std::move(labels);
  }
  void set_item_labels(std::vector<std::string> labels) {
    item_labels_ = std::move(labels);
  }
  bool has_user_labels() const { return !user_labels_.empty(); }
  bool has_item_labels() const { return !item_labels_.empty(); }

  /// One-line summary: name, shape, nnz, density.
  std::string Summary() const;

  /// Validates internal consistency (label vector lengths match shape).
  Status Validate() const;

 private:
  std::string name_;
  CsrMatrix interactions_;
  std::vector<std::string> user_labels_;
  std::vector<std::string> item_labels_;
};

}  // namespace ocular

#endif  // OCULAR_DATA_DATASET_H_
