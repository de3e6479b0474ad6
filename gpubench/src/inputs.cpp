#include "inputs.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "kernels/sync_kernels.hpp"
#include "litmus/generator.hpp"
#include "litmus/litmus_parser.hpp"
#include "support/diagnostics.hpp"
#include "support/string_utils.hpp"

namespace gpubench {

namespace fs = std::filesystem;
using kernels::KernelGrid;
using kernels::LockVariant;
using kernels::XfVariant;

namespace {

std::string
metaOr(const prog::Program &p, const std::string &key,
       const std::string &fallback)
{
    auto it = p.meta.find(key);
    return it == p.meta.end() ? fallback : it->second;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/**
 * gpumc-corpus's expansion of one file's directives against one model:
 * `safety-<tag>` overrides `safety`; `drf` needs a flagged model.
 */
void
addExpectations(Inputs &inputs, const prog::Program &program,
                const cat::CatModel &model, const std::string &modelName,
                const std::string &tag, int bound, const std::string &file,
                const std::string *source)
{
    auto add = [&](core::Property property, bool expect) {
        Query q;
        q.program = &program;
        q.model = &model;
        q.modelName = modelName;
        q.property = property;
        q.bound = bound;
        q.expect = expect;
        q.label = file;
        q.source = source;
        inputs.queries.push_back(std::move(q));
    };
    std::string safety =
        metaOr(program, "safety-" + tag, metaOr(program, "safety", ""));
    if (!safety.empty())
        add(core::Property::Safety, safety == "holds");
    std::string liveness = metaOr(program, "liveness", "");
    if (!liveness.empty())
        add(core::Property::Liveness, liveness == "live");
    std::string drf = metaOr(program, "drf", "");
    if (!drf.empty() && model.hasFlaggedAxioms())
        add(core::Property::CatSpec, drf == "racefree");
}

} // namespace

void
addShippedFiles(Inputs &inputs, const Options &opts, const Models &models)
{
    std::vector<std::string> files;
    for (const auto &entry :
         fs::recursive_directory_iterator(opts.root + "/litmus")) {
        if (entry.is_regular_file() &&
            entry.path().extension() == ".litmus")
            files.push_back(entry.path().string());
    }
    std::sort(files.begin(), files.end());

    bool havePtx = false, haveVulkan = false;
    for (const std::string &file : files) {
        std::string source = readFile(file);
        prog::Program program = litmus::parseLitmus(source);
        bool isPtx = program.arch == prog::Arch::Ptx;
        if (opts.tiny && (isPtx ? havePtx : haveVulkan))
            continue;
        (isPtx ? havePtx : haveVulkan) = true;

        int bound = 2;
        auto meta = program.meta.find("bound");
        if (meta != program.meta.end()) {
            std::optional<int64_t> value = parseInt(meta->second);
            if (!value || *value < 0 || *value > 64)
                fatal("invalid bound in ", file);
            bound = static_cast<int>(*value);
        }
        std::string rel = fs::relative(file, opts.root).string();
        inputs.sources.push_back(std::move(source));
        inputs.programs.push_back(std::move(program));
        const prog::Program &p = inputs.programs.back();
        const std::string *src = &inputs.sources.back();
        if (isPtx) {
            addExpectations(inputs, p, *models.ptx60, "ptx-v6.0", "v60",
                            bound, rel, src);
            addExpectations(inputs, p, *models.ptx75, "ptx-v7.5", "v75",
                            bound, rel, src);
        } else {
            addExpectations(inputs, p, *models.vulkan, "vulkan", "vulkan",
                            bound, rel, src);
        }
    }
}

void
addGeneratedSuites(Inputs &inputs, const Options &opts,
                   const Models &models)
{
    struct Suite {
        prog::Arch arch;
        bool proxies;
        const cat::CatModel *model;
        const char *modelName;
    } suites[] = {
        {prog::Arch::Ptx, false, models.ptx60.get(), "ptx-v6.0"},
        {prog::Arch::Ptx, true, models.ptx75.get(), "ptx-v7.5"},
        {prog::Arch::Vulkan, false, models.vulkan.get(), "vulkan"},
    };
    for (const Suite &suite : suites) {
        std::vector<litmus::GeneratedTest> tests =
            litmus::generatePatternSuite(suite.arch, suite.proxies);
        std::vector<litmus::GeneratedTest> progress =
            litmus::generateProgressSuite(suite.arch);
        if (opts.tiny) {
            tests.resize(std::min<size_t>(tests.size(), 4));
            progress.resize(std::min<size_t>(progress.size(), 1));
        }
        for (auto &t : progress)
            tests.push_back(std::move(t));
        for (litmus::GeneratedTest &test : tests) {
            inputs.programs.push_back(std::move(test.program));
            const prog::Program &p = inputs.programs.back();
            auto add = [&](core::Property property) {
                Query q;
                q.program = &p;
                q.model = suite.model;
                q.modelName = suite.modelName;
                q.property = property;
                q.label = "generated/" + test.name;
                q.generated = true;
                inputs.queries.push_back(std::move(q));
            };
            if (test.isProgress) {
                add(core::Property::Liveness);
                continue;
            }
            add(core::Property::Safety);
            if (suite.model->hasFlaggedAxioms())
                add(core::Property::CatSpec);
        }
    }
}

bool
explicitSupports(const prog::Program &program)
{
    if (!program.isStraightLine())
        return false;
    for (const prog::Thread &t : program.threads) {
        for (const prog::Instruction &ins : t.instrs) {
            if (ins.op == prog::Opcode::Barrier)
                return false;
            if (ins.op == prog::Opcode::Rmw &&
                ins.rmwKind == prog::RmwKind::Cas)
                return false;
            if (ins.op == prog::Opcode::ProxyFence &&
                ins.proxyFence == prog::ProxyFenceKind::Constant)
                return false;
            if (ins.isMemoryAccess() && ins.proxy == prog::Proxy::Constant)
                return false;
        }
    }
    return true;
}

std::vector<KernelRow>
lockRows(bool tiny)
{
    std::vector<KernelRow> rows;
    auto add = [&](std::string name, prog::Program program, bool drf,
                   bool buggy) {
        program.name = name;
        rows.push_back({std::move(name), std::move(program), drf, buggy});
    };
    const KernelGrid g22{2, 2};
    if (tiny) {
        add("xf-barrier-2.2", kernels::buildXfBarrier(g22, XfVariant::Base),
            true, false);
        add("xf-barrier-2.2-acq2rx-1",
            kernels::buildXfBarrier(g22, XfVariant::AcqToRlx1), false, true);
        return rows;
    }

    using LockBuilder = prog::Program (*)(const KernelGrid &, LockVariant);
    struct Lock {
        const char *name;
        LockBuilder build;
        bool drf; // the base row's DRF proof is cheap enough to include
    } locks[] = {
        {"caslock", kernels::buildCaslock, false},
        {"ticketlock", kernels::buildTicketlock, true},
        {"ttaslock", kernels::buildTtaslock, false},
    };
    for (const Lock &lock : locks) {
        add(std::string(lock.name) + "-2.2",
            lock.build(g22, LockVariant::Base), lock.drf, false);
        for (LockVariant variant : {LockVariant::Acq2Rlx,
                                    LockVariant::Rel2Rlx,
                                    LockVariant::Dv2Wg}) {
            add(std::string(lock.name) + "-2.2" +
                    kernels::lockVariantName(variant),
                lock.build(g22, variant), false, true);
        }
    }
    const KernelGrid g33{3, 3};
    add("xf-barrier-3.3", kernels::buildXfBarrier(g33, XfVariant::Base),
        true, false);
    for (XfVariant variant : {XfVariant::AcqToRlx1, XfVariant::AcqToRlx2,
                              XfVariant::RelToRlx1, XfVariant::RelToRlx2}) {
        add(std::string("xf-barrier-2.2") + kernels::xfVariantName(variant),
            kernels::buildXfBarrier(g22, variant), false, true);
    }
    return rows;
}

namespace {

/**
 * MP-N with the flag accesses strengthened to release stores and
 * acquire loads: the chain then forbids the weak outcome, so every
 * engine has to prove it unreachable instead of finding it.
 */
prog::Program
releaseAcquireMp(int threads)
{
    prog::Program program = litmus::generateScaled(
        litmus::ScaledPattern::MP, prog::Arch::Ptx, threads);
    for (prog::Thread &thread : program.threads) {
        for (prog::Instruction &ins : thread.instrs) {
            if (!ins.isMemoryAccess() || ins.location == "x")
                continue;
            ins.order = ins.op == prog::Opcode::Load ? prog::MemOrder::Acq
                                                     : prog::MemOrder::Rel;
            ins.atomic = true;
        }
    }
    program.name = "MP-relacq-" + std::to_string(threads);
    return program;
}

} // namespace

std::vector<ScaledProgram>
scaledPrograms(const Models &models, bool tiny)
{
    struct Family {
        const char *name;
        litmus::ScaledPattern pattern;
        prog::Arch arch;
        const cat::CatModel *model;
    } families[] = {
        {"MP", litmus::ScaledPattern::MP, prog::Arch::Ptx, models.ptx75.get()},
        {"MP-relacq", litmus::ScaledPattern::MP, prog::Arch::Ptx,
         models.ptx75.get()},
        {"SB", litmus::ScaledPattern::SB, prog::Arch::Ptx, models.ptx75.get()},
        {"LB", litmus::ScaledPattern::LB, prog::Arch::Vulkan,
         models.vulkan.get()},
        {"IRIW", litmus::ScaledPattern::IRIW, prog::Arch::Vulkan,
         models.vulkan.get()},
    };
    std::vector<ScaledProgram> out;
    for (const Family &family : families) {
        bool relAcq = std::string(family.name) == "MP-relacq";
        bool iriw = family.pattern == litmus::ScaledPattern::IRIW;
        for (int threads : {4, 5, 6, 8, 10, 12, 16, 20, 24}) {
            if ((iriw && threads % 2) ||
                (tiny && (family.pattern != litmus::ScaledPattern::MP ||
                          threads != 4)))
                continue;
            ScaledProgram sp;
            sp.family = family.name;
            sp.name = sp.family + "-" + std::to_string(threads);
            sp.program = relAcq ? releaseAcquireMp(threads)
                                : litmus::generateScaled(family.pattern,
                                                         family.arch, threads);
            sp.model = family.model;
            sp.enumerative = threads <= 6;
            out.push_back(std::move(sp));
        }
    }
    return out;
}

} // namespace gpubench
