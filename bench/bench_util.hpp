/**
 * @file
 * Shared helpers for the gpumc experiment harnesses (one binary per
 * paper table/figure).
 */

#ifndef GPUMC_BENCH_BENCH_UTIL_HPP
#define GPUMC_BENCH_BENCH_UTIL_HPP

#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cat/model.hpp"
#include "core/verifier.hpp"
#include "litmus/litmus_parser.hpp"

namespace gpumc::bench {

inline const cat::CatModel &
ptx60Model()
{
    static const cat::CatModel model = cat::CatModel::fromFile(
        std::string(GPUMC_CAT_DIR) + "/ptx-v6.0.cat");
    return model;
}

inline const cat::CatModel &
ptx75Model()
{
    static const cat::CatModel model = cat::CatModel::fromFile(
        std::string(GPUMC_CAT_DIR) + "/ptx-v7.5.cat");
    return model;
}

inline const cat::CatModel &
vulkanModel()
{
    static const cat::CatModel model = cat::CatModel::fromFile(
        std::string(GPUMC_CAT_DIR) + "/vulkan.cat");
    return model;
}

/** Load all litmus files for one architecture from the corpus. */
inline std::vector<prog::Program>
loadCorpus(prog::Arch arch)
{
    namespace fs = std::filesystem;
    std::vector<prog::Program> out;
    std::vector<std::string> files;
    for (const auto &entry :
         fs::recursive_directory_iterator(GPUMC_LITMUS_DIR)) {
        if (entry.is_regular_file() &&
            entry.path().extension() == ".litmus") {
            files.push_back(entry.path().string());
        }
    }
    std::sort(files.begin(), files.end());
    for (const std::string &file : files) {
        prog::Program program = litmus::parseLitmusFile(file);
        if (program.arch == arch)
            out.push_back(std::move(program));
    }
    return out;
}

/** CSV writer with header. */
class CsvWriter {
  public:
    CsvWriter(const std::string &path, const std::string &header)
        : out_(path)
    {
        out_ << header << "\n";
        std::cout << "(writing " << path << ")\n";
    }

    template <typename... Args>
    void row(Args &&...args)
    {
        bool first = true;
        ((out_ << (first ? "" : ",") << args, first = false), ...);
        out_ << "\n";
    }

  private:
    std::ofstream out_;
};

} // namespace gpumc::bench

#endif // GPUMC_BENCH_BENCH_UTIL_HPP
