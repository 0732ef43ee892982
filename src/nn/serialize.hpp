// Binary (de)serialization of model state.
//
// Format: magic, version, tensor count, then per tensor the element count
// and raw float32 payload. Architecture is reconstructed by the model zoo
// from its name, so only state tensors are stored — mirroring how the
// benches cache trained scenario models between runs.
#pragma once

#include <string>

#include "nn/model.hpp"

namespace advh::nn {

/// Writes all persistent tensors (weights + batch-norm statistics).
void save_state(model& m, const std::string& path);

/// Loads state saved by save_state; tensor count and shapes must match.
/// Unless `verify` is false, the loaded model is run through the static
/// verifier (src/analysis) and analysis::check_error is thrown when the
/// graph or the loaded parameters fail it — a model whose data flow is
/// broken must never feed the HPC templates.
void load_state(model& m, const std::string& path, bool verify = true);

/// True if `path` exists and carries the serialization magic.
bool is_state_file(const std::string& path);

}  // namespace advh::nn
