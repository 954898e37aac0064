#ifndef CCD_GENERATORS_RANDOM_TREE_H_
#define CCD_GENERATORS_RANDOM_TREE_H_

#include <memory>
#include <vector>

#include "generators/concept.h"

namespace ccd {

/// Random-tree concept (MOA's RandomTreeGenerator): a randomly grown binary
/// decision tree over [0,1]^d defines axis-aligned leaf boxes, each labelled
/// with a class. Unconditional sampling draws x uniformly and reads the leaf
/// label; class-conditional sampling picks a leaf of the class (weighted by
/// box volume) and draws uniformly inside its box — exact and O(depth),
/// which makes extreme-imbalance streams cheap. A fresh seed grows an
/// entirely new tree (sudden drift).
class RandomTreeConcept : public Concept {
 public:
  struct Options {
    int num_features = 10;
    int num_classes = 5;
    int max_depth = 7;
    int min_depth = 3;       ///< No leaves above this depth.
    double leaf_prob = 0.25; ///< Chance to stop splitting past min_depth.
  };

  RandomTreeConcept(const Options& options, uint64_t seed);

  const StreamSchema& schema() const override { return schema_; }
  int Sample(Rng* rng, std::vector<double>* x) const override;
  void SampleForClass(int k, Rng* rng,
                      std::vector<double>* x) const override;

  size_t num_leaves() const { return leaves_.size(); }

 private:
  struct Node {
    int feature = -1;        ///< -1 for leaves.
    double threshold = 0.0;
    int left = -1, right = -1;
    int label = -1;          ///< Valid for leaves.
    int leaf_index = -1;
  };

  struct Leaf {
    std::vector<double> lo, hi;  ///< Axis-aligned bounding box.
    int label = -1;
    double volume = 0.0;
  };

  int Grow(Rng* rng, int depth, std::vector<double> lo, std::vector<double> hi);

  StreamSchema schema_;
  Options opt_;
  std::vector<Node> nodes_;
  std::vector<Leaf> leaves_;
  /// leaves_by_class_[k] = indices into leaves_ of class k's leaves, and
  /// leaf_volumes_by_class_[k] their box volumes (the Discrete() weights
  /// of SampleForClass).
  std::vector<std::vector<int>> leaves_by_class_;
  std::vector<std::vector<double>> leaf_volumes_by_class_;
};

}  // namespace ccd

#endif  // CCD_GENERATORS_RANDOM_TREE_H_
