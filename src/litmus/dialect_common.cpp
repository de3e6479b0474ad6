#include "litmus/dialect_common.hpp"

#include <algorithm>

#include "support/string_utils.hpp"

namespace gpumc::litmus {

bool
ParsedMnemonic::hasMod(const std::string &mod) const
{
    return std::find(parts.begin() + 1, parts.end(), mod) != parts.end();
}

std::vector<std::string>
splitOperands(std::string_view text)
{
    std::vector<std::string> out;
    if (trim(text).empty())
        return out;
    for (const std::string &part : split(text, ','))
        out.emplace_back(trim(part));
    return out;
}

prog::Operand
parseOperand(const std::string &text, SourceLoc loc)
{
    if (text.empty())
        fatalAt(loc, "empty operand");
    if (isInteger(text))
        return prog::Operand::makeConst(parseLiteral(text, loc));
    return prog::Operand::makeReg(text);
}

std::optional<prog::MemOrder>
orderFromName(const std::string &name)
{
    using prog::MemOrder;
    if (name == "weak")
        return MemOrder::Plain;
    if (name == "relaxed" || name == "rlx")
        return MemOrder::Rlx;
    if (name == "acquire" || name == "acq")
        return MemOrder::Acq;
    if (name == "release" || name == "rel")
        return MemOrder::Rel;
    if (name == "acq_rel" || name == "acqrel")
        return MemOrder::AcqRel;
    if (name == "sc")
        return MemOrder::Sc;
    return std::nullopt;
}

std::optional<prog::Scope>
scopeFromName(const std::string &name)
{
    using prog::Scope;
    if (name == "cta")
        return Scope::Cta;
    if (name == "gpu")
        return Scope::Gpu;
    if (name == "sys")
        return Scope::Sys;
    if (name == "sg")
        return Scope::Sg;
    if (name == "wg")
        return Scope::Wg;
    if (name == "qf")
        return Scope::Qf;
    if (name == "dv")
        return Scope::Dv;
    return std::nullopt;
}

ParsedMnemonic
splitMnemonic(std::string_view cell, SourceLoc loc, std::string &operandsOut)
{
    std::string_view trimmed = trim(cell);
    size_t space = trimmed.find_first_of(" \t");
    std::string_view mnemonic = trimmed.substr(0, space);
    operandsOut = space == std::string_view::npos
                      ? std::string()
                      : std::string(trim(trimmed.substr(space + 1)));
    ParsedMnemonic out;
    out.loc = loc;
    for (const std::string &part : split(mnemonic, '.'))
        out.parts.push_back(part);
    if (out.parts.empty() || out.parts[0].empty())
        fatalAt(loc, "empty instruction mnemonic");
    return out;
}

} // namespace gpumc::litmus
