#include "motif/allreduce.h"

#include <stdexcept>

namespace polarstar::motif {

StepProgram make_allreduce(std::uint32_t ranks,
                           std::uint32_t packets_per_message,
                           std::uint32_t iterations,
                           AllreduceAlgorithm algorithm) {
  if (ranks < 2) throw std::invalid_argument("allreduce: need >= 2 ranks");
  StepProgram prog(ranks, packets_per_message);
  if (algorithm == AllreduceAlgorithm::kRecursiveDoubling) {
    if ((ranks & (ranks - 1)) != 0) {
      throw std::invalid_argument(
          "recursive doubling allreduce: ranks must be a power of two");
    }
    std::uint32_t rounds = 0;
    for (std::uint32_t m = 1; m < ranks; m *= 2) ++rounds;
    for (std::uint32_t r = 0; r < ranks; ++r) {
      std::vector<StepProgram::Step> steps;
      steps.reserve(static_cast<std::size_t>(rounds) * iterations);
      for (std::uint32_t it = 0; it < iterations; ++it) {
        for (std::uint32_t k = 0; k < rounds; ++k) {
          steps.push_back({{r ^ (1u << k)}, 1});
        }
      }
      prog.set_program(r, std::move(steps));
    }
  } else {
    const std::uint32_t rounds = 2 * (ranks - 1);
    for (std::uint32_t r = 0; r < ranks; ++r) {
      std::vector<StepProgram::Step> steps;
      steps.reserve(static_cast<std::size_t>(rounds) * iterations);
      for (std::uint32_t it = 0; it < iterations; ++it) {
        for (std::uint32_t k = 0; k < rounds; ++k) {
          steps.push_back({{(r + 1) % ranks}, 1});
        }
      }
      prog.set_program(r, std::move(steps));
    }
  }
  return prog;
}

}  // namespace polarstar::motif
