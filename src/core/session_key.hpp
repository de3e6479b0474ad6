/**
 * @file
 * The shared-session cache key. Jobs or server requests with equal
 * keys produce identical structural encodings, so they may share one
 * live incremental Verifier — within a batch (core::BatchVerifier
 * groups) and across requests (the serve session LRU).
 *
 * Every option that reaches the engine is part of the key; the unroll
 * bound is normalized to -1 for straight-line programs (their
 * unrolling — and hence the whole encoding, given an equal effective
 * value width — is the same at every bound). The per-check wall-clock
 * budget is not: every consumer arms it on the live Verifier before
 * each check (Verifier::setSolverTimeoutMs), and a definitive verdict
 * does not depend on it. The model contributes its
 * stable *content* fingerprint (cat::ModelFingerprint: name + hashed
 * relation definitions), never its address: pointer identity is sound
 * for a one-shot batch but unsound for a long-lived server, where a
 * reloaded model can land on a recycled allocation and alias a stale
 * session or cached result.
 */

#ifndef GPUMC_CORE_SESSION_KEY_HPP
#define GPUMC_CORE_SESSION_KEY_HPP

#include <cstdint>
#include <tuple>

#include "core/verifier.hpp"

namespace gpumc::core {

using SessionKey = std::tuple<uint64_t, uint64_t, // program fingerprint
                              uint64_t, uint64_t, // model fingerprint
                              int,                // engine
                              int,                // backend kind
                              int,                // normalized bound
                              int,                // effective bits
                              bool, bool,         // encoder ablations
                              bool, bool,         // witness handling
                              uint64_t,           // exploration cap
                              int,                // cube depth
                              int>;               // clause-share mode

/** Key under which (program, model, options) may share a session. */
SessionKey sessionKey(const prog::Program &program,
                      const cat::CatModel &model,
                      const VerifierOptions &options);

} // namespace gpumc::core

#endif // GPUMC_CORE_SESSION_KEY_HPP
