/**
 * @file
 * Shared helpers for the gpumc test suite: locating the shipped .cat
 * models and running litmus sources end to end.
 */

#ifndef GPUMC_TESTS_TEST_UTIL_HPP
#define GPUMC_TESTS_TEST_UTIL_HPP

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "cat/model.hpp"
#include "core/verifier.hpp"
#include "litmus/litmus_parser.hpp"

namespace gpumc::test {

inline std::string
catPath(const std::string &file)
{
    return std::string(GPUMC_CAT_DIR) + "/" + file;
}

inline std::string
litmusPath(const std::string &file)
{
    return std::string(GPUMC_LITMUS_DIR) + "/" + file;
}

/** Every shipped `.litmus` file under the corpus root, sorted. */
inline std::vector<std::string>
corpusFiles()
{
    std::vector<std::string> out;
    for (const auto &entry :
         std::filesystem::recursive_directory_iterator(GPUMC_LITMUS_DIR)) {
        if (entry.is_regular_file() &&
            entry.path().extension() == ".litmus") {
            out.push_back(entry.path().string());
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

inline const cat::CatModel &
ptx60Model()
{
    static const cat::CatModel model =
        cat::CatModel::fromFile(catPath("ptx-v6.0.cat"));
    return model;
}

inline const cat::CatModel &
ptx75Model()
{
    static const cat::CatModel model =
        cat::CatModel::fromFile(catPath("ptx-v7.5.cat"));
    return model;
}

inline const cat::CatModel &
vulkanModel()
{
    static const cat::CatModel model =
        cat::CatModel::fromFile(catPath("vulkan.cat"));
    return model;
}

inline const cat::CatModel &
modelFor(const prog::Program &program)
{
    return program.arch == prog::Arch::Ptx ? ptx75Model() : vulkanModel();
}

/** Run the safety check of a litmus source; returns `holds`. */
inline bool
checkSafety(const std::string &source,
            core::VerifierOptions options = {})
{
    prog::Program program = litmus::parseLitmus(source);
    options.validateWitness = true;
    core::Verifier verifier(program, modelFor(program), options);
    return verifier.checkSafety().holds;
}

/** Run a safety check under an explicit model. */
inline bool
checkSafety(const std::string &source, const cat::CatModel &model,
            core::VerifierOptions options = {})
{
    prog::Program program = litmus::parseLitmus(source);
    options.validateWitness = true;
    core::Verifier verifier(program, model, options);
    return verifier.checkSafety().holds;
}

} // namespace gpumc::test

#endif // GPUMC_TESTS_TEST_UTIL_HPP
