#include "common/rng.hpp"

namespace tscclock {

Rng Rng::fork(std::uint64_t label) {
  // splitmix-style decorrelation of the child seed from the parent stream.
  std::uint64_t z = engine_() + 0x9e3779b97f4a7c15ULL * (label + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return Rng(z ^ (z >> 31));
}

}  // namespace tscclock
