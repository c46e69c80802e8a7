#ifndef FSJOIN_CHECK_LATTICE_H_
#define FSJOIN_CHECK_LATTICE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "baselines/massjoin.h"
#include "core/fsjoin_config.h"
#include "util/status.h"

namespace fsjoin::check {

/// Which join implementation a lattice point runs. All four produce the
/// exact brute-force result set, which is what the sweeper asserts.
enum class Algorithm { kFsJoin, kVernica, kVSmart, kMassJoin };

const char* AlgorithmName(Algorithm algorithm);

/// One sampled point of the knob cross-product: an algorithm plus a fully
/// populated configuration. For kFsJoin `fsjoin` is authoritative; for the
/// baselines `baseline` (and `massjoin_length_group`) is. Both share theta,
/// the similarity function and the exec shape so result sets are comparable
/// across every point of one seed.
struct LatticePoint {
  Algorithm algorithm = Algorithm::kFsJoin;
  FsJoinConfig fsjoin;
  BaselineConfig baseline;
  uint32_t massjoin_length_group = 1;
  /// R-S shape of the run (FsJoinConfig::rs_boundary contract): set by the
  /// sweeper from the scenario, adjusted by the minimizer as records are
  /// removed, and copied by RunPoint into whichever config the algorithm
  /// reads. Like theta it is semantic: it changes the expected result set.
  std::optional<RecordId> rs_boundary;

  double theta() const { return fsjoin.theta; }
  SimilarityFunction function() const { return fsjoin.function; }

  /// Stable one-line description — printed in failure reports and repros.
  std::string Name() const;
};

/// Deterministically samples `count` lattice points for `seed`. Theta and
/// the similarity function are drawn once per seed (they change the result
/// set; every other knob must not). The first four points always cover all
/// four algorithms; the rest lean on FS-Join, whose knob space (threads x
/// spill budget x pivot strategy x horizontal t x join method x filter
/// toggles x fragment count) is the large one. Threads > 0 on the thread
/// runner also runs the fragment joins in morsels.
std::vector<LatticePoint> SampleLattice(uint64_t seed, size_t count);

}  // namespace fsjoin::check

#endif  // FSJOIN_CHECK_LATTICE_H_
