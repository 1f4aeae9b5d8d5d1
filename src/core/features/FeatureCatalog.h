//===- core/features/FeatureCatalog.h - The 41 loop features ----*- C++ -*-===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The catalogue of the static loop characteristics used as the feature
/// vector. Table 1 of the paper publishes 22 of them and Tables 3/4 name
/// three more (live range size, instruction fan-in in the DAG, known trip
/// count); the remaining 13 of the paper's 38 were not published and are
/// completed here with static properties of the same flavour. Features
/// whose definitions the paper gives keep those definitions. On top of
/// the paper's 38, the symbolic memory analysis (analysis/symbolic)
/// contributes three prover-derived features — the minimum symbolic
/// dependence distance, the provably-disjoint fraction of access pairs,
/// and the number of reachable predicated stores — for 41 in total.
///
//===----------------------------------------------------------------------===//

#ifndef METAOPT_CORE_FEATURES_FEATURECATALOG_H
#define METAOPT_CORE_FEATURES_FEATURECATALOG_H

#include <array>
#include <string>
#include <vector>

namespace metaopt {

/// Identifies one loop feature. Keep featureName()/featureDescription()
/// in sync when editing.
enum class FeatureId : unsigned {
  // Table 1 features.
  NestLevel,            ///< The loop nest level.
  NumOps,               ///< Operations in the loop body.
  NumFloatOps,          ///< Floating point operations in the body.
  NumBranches,          ///< Branches in the body (exits + calls).
  NumMemOps,            ///< Memory operations in the body.
  NumOperands,          ///< Register operand slots in the body.
  NumImplicitOps,       ///< Compiler-inserted ops (copies, addr, preds).
  NumUniquePredicates,  ///< Distinct predicate registers guarding ops.
  CriticalPathLatency,  ///< Estimated latency of the body critical path.
  EstCycleLength,       ///< Estimated resource-bound cycles of the body.
  Language,             ///< Source language (0 C, 1 Fortran, 2 F90).
  NumParallelComputations, ///< Independent dependence components.
  MaxDependenceHeight,  ///< Max latency-weighted dependence height.
  MaxMemDependenceHeight,   ///< Max memory-dependence chain height.
  MaxControlDependenceHeight, ///< Max control-dependence chain height.
  AvgDependenceHeight,  ///< Mean component dependence height.
  NumIndirectRefs,      ///< Indirect memory references in the body.
  MinMemCarriedDistance, ///< Min mem-to-mem loop-carried dep distance.
  NumMemDeps,           ///< Memory-to-memory dependences.
  TripCount,            ///< Compile-time trip count (-1 if unknown).
  NumUses,              ///< Register uses in the body.
  NumDefs,              ///< Register definitions in the body.
  // Features named by Tables 3/4.
  LiveRangeSize,        ///< Peak simultaneously-live values.
  InstructionFanIn,     ///< Max data-dependence fan-in of one op.
  KnownTripCount,       ///< 1 when the trip count is a compile-time const.
  // Catalogue completion (the paper's remaining 13 were unpublished).
  NumIntOps,            ///< Integer arithmetic/logic operations.
  NumCalls,             ///< Calls in the body.
  NumLoads,             ///< Loads in the body.
  NumStores,            ///< Stores in the body.
  NumEarlyExits,        ///< Early-exit branches in the body.
  SumExitProbability,   ///< Static estimate of exit likelihood.
  RecMii,               ///< Recurrence-constrained min initiation interval.
  NumLoopCarriedValues, ///< Loop-carried scalars (phi nodes).
  NumLiveIns,           ///< Loop-invariant register inputs.
  MaxLiveFloat,         ///< Peak live floating point values.
  MaxLiveInt,           ///< Peak live integer values.
  CodeSizeBytes,        ///< Estimated code bytes of the body.
  NumLongLatencyOps,    ///< Divides, square roots, remainders.
  // Symbolic-prover features (analysis/symbolic/Disjointness.h).
  MinSymbolicDepDistance,   ///< Smallest lag not proven disjoint
                            ///< (MaxUnrollFactor + 1 when all are).
  ProvableDisjointFraction, ///< Fraction of (pair, lag) checks proven.
  ReachablePredicatedStores, ///< Predicated stores not proven dead.
};

/// Number of features: the paper's 38 ("We collected 38 features for
/// these experiments") plus the three symbolic-prover features.
constexpr unsigned NumFeatures = 41;

/// Short machine-readable feature name ("numFloatOps", ...).
const char *featureName(FeatureId Id);

/// Human-readable description, mirroring Table 1's phrasing.
const char *featureDescription(FeatureId Id);

/// All feature values of one loop, indexed by FeatureId.
using FeatureVector = std::array<double, NumFeatures>;

/// An ordered feature subset used by a classifier.
using FeatureSet = std::vector<FeatureId>;

/// All NumFeatures features (the paper's 38 plus the symbolic three).
FeatureSet fullFeatureSet();

/// The reduced set the paper classifies with in Section 6: the union of
/// the Table 3 (mutual information) and Table 4 (greedy selection) lists.
FeatureSet paperReducedFeatureSet();

} // namespace metaopt

#endif // METAOPT_CORE_FEATURES_FEATURECATALOG_H
