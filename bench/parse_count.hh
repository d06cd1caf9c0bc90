/**
 * @file
 * The one strict count parser behind every command-line binary (the
 * benches' BenchArgs, dlsim_cli, dlsim_ubench and dlsim_fuzz): a
 * count option takes an unsigned decimal and nothing else.
 */

#ifndef DLSIM_BENCH_PARSE_COUNT_HH
#define DLSIM_BENCH_PARSE_COUNT_HH

#include <charconv>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace dlsim::bench
{

/**
 * The value of option `flag` as an unsigned decimal no larger than
 * `max`. Anything else (sign, suffix, hex prefix, overflow, empty)
 * throws std::invalid_argument whose what() reads
 * "<flag>: '<text>' is not a count in [0, <max>]"; each tool prints
 * it its own way and exits 2.
 */
inline std::uint64_t
parseCount(const std::string &flag, std::string_view text,
           std::uint64_t max)
{
    std::uint64_t out = 0;
    const auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), out);
    if (ec != std::errc{} || end != text.data() + text.size() ||
        out > max) {
        throw std::invalid_argument(
            flag + ": '" + std::string(text) +
            "' is not a count in [0, " + std::to_string(max) + "]");
    }
    return out;
}

} // namespace dlsim::bench

#endif // DLSIM_BENCH_PARSE_COUNT_HH
