#include "serve/result_cache.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <tuple>
#include <type_traits>

#include "support/json.hpp"

namespace gpumc::serve {

namespace {

/** Bumped whenever the entry layout changes. */
constexpr int kCacheFileVersion = 2;
constexpr size_t kKeyFields = std::tuple_size_v<core::SessionKey>;

std::string
encodeKey(const core::SessionKey &key)
{
    std::string out = "[";
    bool first = true;
    std::apply(
        [&](const auto &...field) {
            auto one = [&](const auto &f) {
                if (!first)
                    out += ",";
                first = false;
                using T = std::decay_t<decltype(f)>;
                if constexpr (std::is_same_v<T, bool>)
                    out += f ? "true" : "false";
                else
                    out += "\"" + std::to_string(f) + "\"";
            };
            (one(field), ...);
        },
        key);
    out += "]";
    return out;
}

bool
decodeKey(const JsonValue &array, core::SessionKey &key)
{
    if (array.kind != JsonValue::Kind::Array ||
        array.items.size() != kKeyFields)
        return false;
    bool ok = true;
    size_t index = 0;
    std::apply(
        [&](auto &...field) {
            auto one = [&](auto &f) {
                const JsonValue &v = array.items[index++];
                using T = std::decay_t<decltype(f)>;
                if constexpr (std::is_same_v<T, bool>) {
                    if (!v.isBool()) {
                        ok = false;
                        return;
                    }
                    f = v.boolean;
                } else {
                    if (!v.isString() || v.text.empty()) {
                        ok = false;
                        return;
                    }
                    errno = 0;
                    char *end = nullptr;
                    if constexpr (std::is_unsigned_v<T>) {
                        f = static_cast<T>(
                            std::strtoull(v.text.c_str(), &end, 10));
                    } else {
                        f = static_cast<T>(
                            std::strtoll(v.text.c_str(), &end, 10));
                    }
                    if (end == v.text.c_str() || *end != '\0' ||
                        errno != 0)
                        ok = false;
                }
            };
            (one(field), ...);
        },
        key);
    return ok;
}

} // namespace

std::optional<CachedResult>
ResultCache::lookup(const ResultKey &key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(key);
    if (it == index_.end()) {
        misses_++;
        return std::nullopt;
    }
    hits_++;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->second;
}

void
ResultCache::insert(const ResultKey &key, CachedResult value)
{
    if (capacity_ == 0)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(key);
    if (it != index_.end()) {
        it->second->second = std::move(value);
        lru_.splice(lru_.begin(), lru_, it->second);
        return;
    }
    lru_.emplace_front(key, std::move(value));
    index_[key] = lru_.begin();
    if (lru_.size() > capacity_) {
        index_.erase(lru_.back().first);
        lru_.pop_back();
        evictions_++;
    }
}

bool
ResultCache::saveToFile(const std::string &path) const
{
    // Write everything to a sibling temp file, then rename into
    // place: rename(2) is atomic within a filesystem, so a reader (or
    // the next daemon start) only ever sees the old complete file or
    // the new complete file, never a torn write.
    const std::string tmpPath = path + ".tmp";
    {
        std::ofstream out(tmpPath, std::ios::trunc);
        if (!out)
            return false;
        out << "{\"gpumc_result_cache\":" << kCacheFileVersion
            << ",\"key_fields\":" << kKeyFields << "}\n";
        std::lock_guard<std::mutex> lock(mutex_);
        // Back (LRU) to front (MRU): reloading in file order
        // re-inserts the most recent entry last, restoring the
        // eviction order.
        for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
            char solveMs[32];
            std::snprintf(solveMs, sizeof solveMs, "%.3f",
                          it->second.solveMs);
            out << "{\"key\":" << encodeKey(it->first.first)
                << ",\"property\":" << it->first.second
                << ",\"holds\":"
                << (it->second.holds ? "true" : "false")
                << ",\"detail\":" << jsonString(it->second.detail)
                << ",\"solve_ms\":" << solveMs << "}\n";
        }
        out.flush();
        if (!out) {
            std::remove(tmpPath.c_str());
            return false;
        }
    }
    if (std::rename(tmpPath.c_str(), path.c_str()) != 0) {
        std::remove(tmpPath.c_str());
        return false;
    }
    return true;
}

bool
ResultCache::loadFromFile(const std::string &path)
{
    // A missing file is a normal cold start; anything else is a
    // corrupt or incompatible cache, worth a loud warning — silently
    // dropping a full cache looks exactly like a performance bug.
    auto startCold = [this, &path](const char *why) {
        std::lock_guard<std::mutex> lock(mutex_);
        lru_.clear();
        index_.clear();
        hits_ = misses_ = evictions_ = 0;
        if (why) {
            loadFailed_++;
            std::fprintf(stderr,
                         "gpumc-serve: ignoring result cache '%s' "
                         "(%s); starting cold\n",
                         path.c_str(), why);
        }
        return false;
    };

    std::ifstream in(path);
    if (!in)
        return startCold(nullptr);
    std::string line;
    if (!std::getline(in, line))
        return startCold("empty file");
    std::string error;
    JsonValue header = parseJson(line, error);
    const JsonValue *version = header.find("gpumc_result_cache");
    const JsonValue *fields = header.find("key_fields");
    if (!error.empty() || !version || !fields ||
        version->asInt() != kCacheFileVersion ||
        fields->asInt() != static_cast<int64_t>(kKeyFields))
        return startCold("bad or mismatched header");

    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        JsonValue entry = parseJson(line, error);
        const JsonValue *keyField = entry.find("key");
        const JsonValue *property = entry.find("property");
        const JsonValue *holds = entry.find("holds");
        const JsonValue *detail = entry.find("detail");
        const JsonValue *solveMs = entry.find("solve_ms");
        ResultKey key;
        std::optional<int64_t> propertyId =
            property ? property->asInt() : std::nullopt;
        if (!error.empty() || !keyField || !propertyId ||
            *propertyId < 0 ||
            *propertyId > static_cast<int64_t>(core::Property::CatSpec) ||
            !holds || !detail || !solveMs || !holds->isBool() ||
            !detail->isString() || !solveMs->isNumber() ||
            !decodeKey(*keyField, key.first))
            return startCold("malformed entry");
        key.second = static_cast<int>(*propertyId);
        CachedResult value;
        value.holds = holds->boolean;
        value.detail = detail->text;
        value.solveMs = solveMs->number;
        insert(key, std::move(value));
    }

    // The load is warm-up, not traffic: metrics start at zero.
    std::lock_guard<std::mutex> lock(mutex_);
    hits_ = misses_ = evictions_ = 0;
    return true;
}

ResultCache::Counters
ResultCache::counters() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Counters c;
    c.hits = hits_;
    c.misses = misses_;
    c.evictions = evictions_;
    c.size = static_cast<int64_t>(lru_.size());
    c.loadFailed = loadFailed_;
    return c;
}

} // namespace gpumc::serve
