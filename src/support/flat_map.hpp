/**
 * @file
 * FlatMap: an open-addressing hash map from 64-bit keys to small
 * trivially copyable values, with linear probing in one power-of-two
 * slot array. It backs the per-session memo tables of the encoder
 * (smt::Circuit's gate caches, encoder::RelationEncoder's pair
 * literals), which are filled once and dropped whole, so it has no
 * erase and no iteration: nothing can depend on the order it stores
 * its keys in. Key ~0 marks an empty slot and may not be stored.
 */

#ifndef GPUMC_SUPPORT_FLAT_MAP_HPP
#define GPUMC_SUPPORT_FLAT_MAP_HPP

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "support/diagnostics.hpp"

namespace gpumc {

template <typename V>
class FlatMap {
    static_assert(std::is_trivially_copyable_v<V>,
                  "FlatMap moves its values with the slot array");

  public:
    /** The reserved key of an empty slot. */
    static constexpr uint64_t kEmptyKey = ~uint64_t(0);

    /** @p key's value, or nullptr; valid until the next emplace(). */
    const V *find(uint64_t key) const
    {
        if (slots_.empty())
            return nullptr;
        for (size_t i = home(key);; i = (i + 1) & mask_) {
            const Slot &slot = slots_[i];
            if (slot.key == key)
                return &slot.value;
            if (slot.key == kEmptyKey)
                return nullptr;
        }
    }

    /**
     * Stores @p value under @p key unless the key is present, like
     * std::unordered_map::emplace; returns the stored value.
     */
    const V &emplace(uint64_t key, V value)
    {
        GPUMC_ASSERT(key != kEmptyKey, "FlatMap key ~0 is reserved");
        // Grow at half full, so a probe run stays short.
        if (2 * (size_ + 1) > slots_.size())
            grow();
        size_t i = home(key);
        while (slots_[i].key != kEmptyKey) {
            if (slots_[i].key == key)
                return slots_[i].value;
            i = (i + 1) & mask_;
        }
        slots_[i] = {key, value};
        ++size_;
        return slots_[i].value;
    }

    size_t size() const { return size_; }

  private:
    struct Slot {
        uint64_t key;
        V value;
    };

    /** The home slot of @p key: its bits mixed, then masked. */
    size_t home(uint64_t key) const
    {
        key ^= key >> 33;
        key *= 0xff51afd7ed558ccdull;
        key ^= key >> 33;
        return static_cast<size_t>(key) & mask_;
    }

    void grow()
    {
        std::vector<Slot> old = std::move(slots_);
        size_t capacity = old.empty() ? 16 : 2 * old.size();
        slots_.assign(capacity, Slot{kEmptyKey, V{}});
        mask_ = capacity - 1;
        for (const Slot &slot : old) {
            if (slot.key == kEmptyKey)
                continue;
            size_t i = home(slot.key);
            while (slots_[i].key != kEmptyKey)
                i = (i + 1) & mask_;
            slots_[i] = slot;
        }
    }

    std::vector<Slot> slots_;
    size_t mask_ = 0;
    size_t size_ = 0;
};

} // namespace gpumc

#endif // GPUMC_SUPPORT_FLAT_MAP_HPP
