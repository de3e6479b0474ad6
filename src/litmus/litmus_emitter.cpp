#include "litmus/litmus_emitter.hpp"

#include <algorithm>
#include <sstream>

#include "support/diagnostics.hpp"

namespace gpumc::litmus {

using prog::Arch;
using prog::Instruction;
using prog::MemOrder;
using prog::Opcode;
using prog::Program;
using prog::Proxy;
using prog::ProxyFenceKind;
using prog::RmwKind;
using prog::Scope;
using prog::StorageClass;

namespace {

/** Modifier spelling of a memory order, per dialect. */
const char *
orderMod(MemOrder order, Arch arch)
{
    if (arch == Arch::Ptx) {
        switch (order) {
          case MemOrder::Plain: return "weak";
          case MemOrder::Rlx: return "relaxed";
          case MemOrder::Acq: return "acquire";
          case MemOrder::Rel: return "release";
          case MemOrder::AcqRel: return "acq_rel";
          case MemOrder::Sc: return "sc";
        }
    }
    switch (order) {
      case MemOrder::Plain: return "weak";
      case MemOrder::Rlx: return "rlx";
      case MemOrder::Acq: return "acq";
      case MemOrder::Rel: return "rel";
      case MemOrder::AcqRel: return "acq_rel";
      case MemOrder::Sc:
        fatal("litmus emitter: Vulkan has no SC memory order");
    }
    return "?";
}

/** PTX load/store mnemonic for a proxy. */
const char *
ptxAccessHead(Proxy proxy, bool isLoad)
{
    switch (proxy) {
      case Proxy::Generic: return isLoad ? "ld" : "st";
      case Proxy::Surface: return isLoad ? "suld" : "sust";
      case Proxy::Texture: return isLoad ? "tld" : "tst";
      case Proxy::Constant: return isLoad ? "cld" : "cst";
    }
    return "?";
}

const char *
rmwKindMod(RmwKind kind)
{
    switch (kind) {
      case RmwKind::Add: return "add";
      case RmwKind::Exchange: return "exch";
      case RmwKind::Cas: return "cas";
    }
    return "?";
}

/** Append the Vulkan-only attribute modifiers shared by all ops. */
void
appendVulkanAttrs(std::string &m, const Instruction &ins)
{
    if (ins.storageClass) {
        m += ins.storageClass == StorageClass::Sc1 ? ".sc1" : ".sc0";
    }
    if (ins.avFlag)
        m += ".av";
    if (ins.visFlag)
        m += ".vis";
    if (ins.semSc0)
        m += ".semsc0";
    if (ins.semSc1)
        m += ".semsc1";
    if (ins.semAv)
        m += ".semav";
    if (ins.semVis)
        m += ".semvis";
}

std::string
emitAccess(const Instruction &ins, Arch arch)
{
    bool isLoad = ins.op == Opcode::Load;
    std::string m;
    if (arch == Arch::Ptx) {
        // The PTX dialect derives `atomic` from the order modifier:
        // any explicit order other than .weak is a strong access.
        if (ins.atomic != (ins.order != MemOrder::Plain)) {
            fatal("litmus emitter: PTX cannot express a ",
                  ins.atomic ? "strong .weak" : "weak ordered", " access");
        }
        m = ptxAccessHead(ins.proxy, isLoad);
        m += ".";
        m += orderMod(ins.order, arch);
        if (ins.scope)
            m += std::string(".") + prog::scopeName(*ins.scope);
    } else {
        if (!ins.atomic && ins.order != MemOrder::Plain) {
            fatal("litmus emitter: non-atomic Vulkan access cannot ",
                  "carry a memory order");
        }
        m = isLoad ? "ld" : "st";
        if (ins.atomic)
            m += ".atom";
        if (ins.order != MemOrder::Plain)
            m += std::string(".") + orderMod(ins.order, arch);
        if (ins.scope)
            m += std::string(".") + prog::scopeName(*ins.scope);
        appendVulkanAttrs(m, ins);
    }
    if (isLoad)
        return m + " " + ins.dst + ", " + ins.location;
    return m + " " + ins.location + ", " + ins.src.str();
}

std::string
emitRmw(const Instruction &ins, Arch arch)
{
    if (ins.order == MemOrder::Plain)
        fatal("litmus emitter: RMW must carry a memory order");
    std::string m = "atom";
    m += std::string(".") + orderMod(ins.order, arch);
    if (ins.scope)
        m += std::string(".") + prog::scopeName(*ins.scope);
    if (arch == Arch::Vulkan)
        appendVulkanAttrs(m, ins);
    m += std::string(".") + rmwKindMod(ins.rmwKind);
    m += " " + ins.dst + ", " + ins.location + ", " + ins.src.str();
    if (ins.rmwKind == RmwKind::Cas)
        m += ", " + ins.src2.str();
    return m;
}

std::string
emitFence(const Instruction &ins, Arch arch)
{
    std::string m = "fence";
    m += std::string(".") + orderMod(ins.order, arch);
    if (ins.scope)
        m += std::string(".") + prog::scopeName(*ins.scope);
    if (arch == Arch::Vulkan)
        appendVulkanAttrs(m, ins);
    return m;
}

std::string
emitProxyFence(const Instruction &ins)
{
    std::string m = "fence.proxy.";
    switch (ins.proxyFence) {
      case ProxyFenceKind::Alias: m += "alias"; break;
      case ProxyFenceKind::Texture: m += "texture"; break;
      case ProxyFenceKind::Surface: m += "surface"; break;
      case ProxyFenceKind::Constant: m += "constant"; break;
    }
    if (ins.scope)
        m += std::string(".") + prog::scopeName(*ins.scope);
    return m;
}

std::string
emitBarrier(const Instruction &ins, Arch arch)
{
    std::string m;
    if (arch == Arch::Ptx) {
        m = "bar";
        if (ins.scope)
            m += std::string(".") + prog::scopeName(*ins.scope);
        m += ".sync";
    } else {
        m = "cbar";
        if (ins.scope)
            m += std::string(".") + prog::scopeName(*ins.scope);
    }
    return m + " " + ins.barrierId.str();
}

} // namespace

std::string
emitInstruction(const Instruction &ins, Arch arch)
{
    switch (ins.op) {
      case Opcode::Load:
      case Opcode::Store:
        return emitAccess(ins, arch);
      case Opcode::Rmw:
        return emitRmw(ins, arch);
      case Opcode::Fence:
        return emitFence(ins, arch);
      case Opcode::ProxyFence:
        if (arch != Arch::Ptx)
            fatal("litmus emitter: proxy fences are PTX-only");
        return emitProxyFence(ins);
      case Opcode::Barrier:
        return emitBarrier(ins, arch);
      case Opcode::AvDevice:
        return "avdevice";
      case Opcode::VisDevice:
        return "visdevice";
      case Opcode::Label:
        return ins.label + ":";
      case Opcode::Goto:
        return "goto " + ins.label;
      case Opcode::BranchEq:
        return "beq " + ins.branchLhs.str() + ", " +
               ins.branchRhs.str() + ", " + ins.label;
      case Opcode::BranchNe:
        return "bne " + ins.branchLhs.str() + ", " +
               ins.branchRhs.str() + ", " + ins.label;
      case Opcode::Mov:
        return "mov " + ins.dst + ", " + ins.src.str();
      case Opcode::AddReg:
        return "add " + ins.dst + ", " + ins.branchLhs.str() + ", " +
               ins.src.str();
    }
    fatal("litmus emitter: unknown opcode");
}

std::string
emitLitmus(const Program &program)
{
    std::ostringstream out;

    for (const auto &[key, value] : program.meta) {
        // Directive words are whitespace/'='-delimited; pairs that
        // cannot survive the comment scanner are not emitted.
        if (key.empty() || value.empty() ||
            key.find_first_of(" \t=") != std::string::npos ||
            value.find_first_of(" \t=") != std::string::npos) {
            continue;
        }
        out << "// @config " << key << "=" << value << "\n";
    }

    out << (program.arch == Arch::Ptx ? "PTX" : "VULKAN");
    if (!program.name.empty())
        out << " \"" << program.name << "\"";
    out << "\n";

    // Every variable is declared explicitly, in declaration order, so
    // virtual/physical location ids are identical after a reparse.
    if (!program.vars.empty()) {
        out << "{";
        for (const prog::VarDecl &var : program.vars) {
            out << " " << var.name << " = " << var.init;
            if (!var.aliasOf.empty())
                out << " -> " << var.aliasOf;
            if (var.storageClass == StorageClass::Sc1)
                out << " @ sc1";
            out << ";";
        }
        out << " }\n";
    }

    // Header row and instruction rows, one column per thread.
    size_t rows = 0;
    std::vector<std::vector<std::string>> cells(program.threads.size());
    std::vector<size_t> width(program.threads.size());
    for (size_t t = 0; t < program.threads.size(); ++t) {
        const prog::Thread &thread = program.threads[t];
        // Conditions name threads by index: column t is always P<t>.
        std::string header = "P" + std::to_string(t) + "@";
        if (program.arch == Arch::Ptx) {
            header += "cta " + std::to_string(thread.placement.cta) +
                      ",gpu " + std::to_string(thread.placement.gpu);
        } else {
            header += "sg " + std::to_string(thread.placement.sg) +
                      ",wg " + std::to_string(thread.placement.wg) +
                      ",qf " + std::to_string(thread.placement.qf);
            if (thread.placement.ssw)
                header += ",ssw";
        }
        cells[t].push_back(std::move(header));
        for (const Instruction &ins : thread.instrs)
            cells[t].push_back(emitInstruction(ins, program.arch));
        rows = std::max(rows, cells[t].size());
        for (const std::string &cell : cells[t])
            width[t] = std::max(width[t], cell.size());
    }
    for (size_t row = 0; row < rows; ++row) {
        for (size_t t = 0; t < cells.size(); ++t) {
            std::string cell =
                row < cells[t].size() ? cells[t][row] : std::string();
            cell.resize(width[t], ' ');
            out << cell << (t + 1 < cells.size() ? " | " : " ;\n");
        }
    }

    if (program.filter)
        out << "filter (" << program.filter->str() << ")\n";
    if (program.assertion) {
        out << prog::assertKindName(program.assertKind) << " ("
            << program.assertion->str() << ")\n";
    } else if (program.assertKind != prog::AssertKind::Exists) {
        out << prog::assertKindName(program.assertKind) << " (true)\n";
    }
    return out.str();
}

} // namespace gpumc::litmus
