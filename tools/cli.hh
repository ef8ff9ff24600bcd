/**
 * @file
 * Command-line helpers shared by the tools' hand-rolled parsers: a
 * `--key=` prefix match and a strict unsigned count parser, so a
 * malformed value ends in the usage message (exit 2) instead of
 * silently becoming 0.
 */

#ifndef DSASIM_TOOLS_CLI_HH
#define DSASIM_TOOLS_CLI_HH

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

namespace dsasim::cli
{

/** The text after @p key if @p arg starts with it, else null. */
inline const char *
flagValue(const std::string &arg, const char *key)
{
    const std::size_t klen = std::strlen(key);
    return arg.compare(0, klen, key) == 0 ? arg.c_str() + klen : nullptr;
}

/**
 * Parse @p s into @p out as an unsigned count in strtoull base-0
 * syntax (decimal, 0x hex, leading-0 octal). False on an empty value,
 * a sign, trailing garbage, a value @p out cannot hold, or a 0 when
 * @p allow_zero is false.
 */
template <class T>
bool
parseCount(const char *s, T &out, bool allow_zero = false)
{
    if (!std::isdigit(static_cast<unsigned char>(*s)))
        return false;
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(s, &end, 0);
    if (*end != '\0' || errno == ERANGE ||
        v > std::numeric_limits<T>::max() || (v == 0 && !allow_zero))
        return false;
    out = static_cast<T>(v);
    return true;
}

} // namespace dsasim::cli

#endif // DSASIM_TOOLS_CLI_HH
