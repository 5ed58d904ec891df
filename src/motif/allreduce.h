// Allreduce motifs (Fig 11a): recursive doubling (the Ember default for
// power-of-two communicators) and ring allreduce (ablation alternative).
// Tree allreduces (binomial, EDST) live in the collective engine
// (collective/engine.h).
//
// Recursive doubling: log2(R) exchange rounds per iteration; in round k
// rank r exchanges a full-size message with r XOR 2^k.
// Ring: 2(R-1) rounds per iteration; rank r sends a chunk to (r+1) mod R
// and receives from (r-1) mod R each round.
#pragma once

#include <cstdint>

#include "motif/motif.h"

namespace polarstar::motif {

enum class AllreduceAlgorithm { kRecursiveDoubling, kRing };

/// Builds the allreduce program over `ranks` ranks (must be a power of two
/// for recursive doubling; any >= 2 for ring).
StepProgram make_allreduce(std::uint32_t ranks,
                           std::uint32_t packets_per_message,
                           std::uint32_t iterations,
                           AllreduceAlgorithm algorithm);

}  // namespace polarstar::motif
