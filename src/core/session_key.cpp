#include "core/session_key.hpp"

namespace gpumc::core {

SessionKey
sessionKey(const prog::Program &program, const cat::CatModel &model,
           const VerifierOptions &options)
{
    const prog::ProgramFingerprint fp = program.fingerprint();
    const cat::ModelFingerprint &mfp = model.fingerprint();
    int effectiveBits = options.valueBits > 0
                            ? options.valueBits
                            : program.suggestedValueBits(options.bound);
    int normalizedBound = program.isStraightLine() ? -1 : options.bound;
    return {fp.hi,
            fp.lo,
            mfp.hi,
            mfp.lo,
            static_cast<int>(options.engine),
            static_cast<int>(options.backend),
            normalizedBound,
            effectiveBits,
            options.useLowerBounds,
            options.forceClosureSoundness,
            options.validateWitness,
            options.wantWitness,
            options.maxCandidates,
            options.cubeDepth,
            static_cast<int>(options.clauseShare)};
}

} // namespace gpumc::core
