// Lowering frontend: NB201 genotype -> dataflow IR.
//
// Expands the searched cell into the full deployment skeleton (the same
// macro structure as net/macro_net.cpp: stem -> cells_per_stage cells
// per stage with residual reductions between stages -> GAP -> FC), but
// as an executable graph with materialized weights instead of a flat
// LayerSpec list. Convolutions are emitted un-fused as
// conv -> batch_norm -> relu chains with freshly initialized parameters
// (there is no trained checkpoint in this environment; weights are a
// deterministic function of the seed), which is exactly the shape the
// compile passes expect: constant folding collapses the four BN
// parameter vectors into a channel affine, fusion folds the affine and
// the ReLU into the conv, and DCE sweeps the orphaned constants.
//
// `none` edges lower to an explicit zero constant feeding the node sum
// — semantically faithful to the supernet, and eliminated at compile
// time by the add-zero rewrite rather than special-cased here.
#pragma once

#include <cstdint>

#include "src/ir/graph.hpp"
#include "src/net/macro_net.hpp"

namespace micronas::ir {

struct LowerOptions {
  MacroNetConfig macro;         // deployment skeleton (NB201 defaults)
  std::uint64_t seed = 1;       // weight/BN parameter streams
  bool emit_batch_norm = true;  // false: bare conv(+relu) chains
};

/// Build the float deployment graph for `genotype`.
Graph lower_genotype(const nb201::Genotype& genotype, const LowerOptions& options = {});

}  // namespace micronas::ir
