// Differential oracles that only tests and micro_knapsack link (library
// mobi_oracles): straightforward versions of optimised paths in src/,
// kept so the fast versions can be checked against them bit for bit.
#pragma once

#include "cache/cache.hpp"
#include "core/benefit.hpp"
#include "core/scoring.hpp"
#include "object/object.hpp"
#include "workload/requests.hpp"

namespace mobi::core {

/// Reference implementation of build_candidates using an ordered map —
/// the original O(R log D) aggregation, kept verbatim as the oracle for
/// the differential fuzz in tests/benefit_diff_test.cpp.
CandidateSet build_candidates_reference(const workload::RequestBatch& batch,
                                        const object::Catalog& catalog,
                                        const cache::Cache& cache,
                                        const RecencyScorer& scorer);

}  // namespace mobi::core
