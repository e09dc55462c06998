/**
 * @file
 * FNV-1a 64: the one hash behind config fingerprints, warmup snapshot
 * checksums and result-store envelope checksums. All three are
 * persisted or compared across processes, so the offset basis and
 * prime are part of those formats and must never change.
 */

#ifndef VSV_COMMON_FNV1A_HH
#define VSV_COMMON_FNV1A_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace vsv
{

/** FNV-1a 64 over `bytes`. */
inline std::uint64_t
fnv1a64(std::string_view bytes)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

/** fnv1a64(bytes) as 16 lower-case hex digits. */
inline std::string
fnv1a64Hex(std::string_view bytes)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(fnv1a64(bytes)));
    return buf;
}

} // namespace vsv

#endif // VSV_COMMON_FNV1A_HH
