//===- core/ml/DecisionTree.h - CART decision tree --------------*- C++ -*-===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A CART-style decision tree classifier. The paper's related work leans
/// on trees - Monsifrot et al. decide *whether* to unroll with boosted
/// decision trees and Calder et al. use them for branch prediction - so a
/// tree is the natural third comparator for the multi-class problem
/// (bench/ablation_classifiers). Splits minimize Gini impurity; growth
/// stops on depth, leaf size, or purity.
///
//===----------------------------------------------------------------------===//

#ifndef METAOPT_CORE_ML_DECISIONTREE_H
#define METAOPT_CORE_ML_DECISIONTREE_H

#include "core/ml/Classifier.h"

#include <optional>

namespace metaopt {

/// Tree growth limits.
struct DecisionTreeOptions {
  unsigned MaxDepth = 12;
  unsigned MinLeafSize = 5;
  /// Stop splitting once a node is at least this pure.
  double PurityThreshold = 0.98;
};

/// Multi-class CART over the (normalized) feature subset.
class DecisionTreeClassifier : public Classifier {
public:
  explicit DecisionTreeClassifier(FeatureSet Features,
                                  DecisionTreeOptions Options = {});

  std::string name() const override;
  void train(const Dataset &Train) override;
  unsigned predict(const FeatureVector &Features) const override;

  /// Serializes the grown tree (growth limits, normalizer, node table) so
  /// a compiler can ship and load the model without retraining;
  /// deserialize() restores a predict-equivalent classifier.
  std::string serialize() const override;
  static std::optional<DecisionTreeClassifier>
  deserialize(const std::string &Text);

  /// Number of nodes in the grown tree (diagnostics/tests).
  size_t numNodes() const { return Nodes.size(); }

  /// Depth of the grown tree.
  unsigned depth() const;

private:
  struct Node {
    bool IsLeaf = true;
    unsigned Label = 1;      ///< Leaf: majority class.
    unsigned SplitDim = 0;   ///< Internal: dimension in subset space.
    double Threshold = 0.0;  ///< Internal: go left when value <= threshold.
    int32_t Left = -1;
    int32_t Right = -1;
    unsigned Depth = 0;
  };

  /// Per-fit sweep state: every dimension's example order and the
  /// normalized values, defined in DecisionTree.cpp.
  struct Grower;

  /// Grows the subtree over the examples at positions [Begin, End) of
  /// every dimension's sorted list and returns its root node.
  int32_t grow(Grower &G, size_t Begin, size_t End, unsigned Depth);

  FeatureSet Features;
  DecisionTreeOptions Options;
  Normalizer Norm;
  std::vector<Node> Nodes;
  int32_t Root = -1;
};

} // namespace metaopt

#endif // METAOPT_CORE_ML_DECISIONTREE_H
