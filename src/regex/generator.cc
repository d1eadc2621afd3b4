#include "regex/generator.hh"

#include <bit>

#include "common/logging.hh"

namespace tomur::regex {

namespace {

/** The k-th (0-based) set bit of a word; k < popcount(w). */
int
selectBit(std::uint64_t w, unsigned k)
{
    for (; k > 0; --k)
        w &= w - 1;
    return std::countr_zero(w);
}

/** Pick a byte from a set, preferring printable members. */
std::uint8_t
pickByte(const ByteSet &set, Rng &rng)
{
    static const ByteSet kPrintable = printableSet();
    static const ByteSet kLowWord(~std::uint64_t(0));
    ByteSet printable = set & kPrintable;
    const ByteSet &pool = printable.any() ? printable : set;
    std::size_t n = pool.count();
    if (n == 0)
        panic("generateMatch: empty byte class");
    // The k-th member in ascending byte order: skip whole 64-bit
    // words by popcount, then select within the word.
    std::size_t k = rng.uniformInt(static_cast<std::uint64_t>(n));
    for (int base = 0; base < 256; base += 64) {
        std::uint64_t word = ((pool >> base) & kLowWord).to_ullong();
        std::size_t c = static_cast<std::size_t>(std::popcount(word));
        if (k < c) {
            return static_cast<std::uint8_t>(
                base + selectBit(word, static_cast<unsigned>(k)));
        }
        k -= c;
    }
    panic("generateMatch: pickByte fell through");
}

void
gen(const Node &n, Rng &rng, const GenerateOptions &opts,
    std::vector<std::uint8_t> &out)
{
    if (out.size() >= opts.maxLen)
        return;
    switch (n.kind) {
      case NodeKind::Empty:
        return;
      case NodeKind::ByteClass:
        out.push_back(pickByte(n.bytes, rng));
        return;
      case NodeKind::Concat:
        for (const auto &c : n.children)
            gen(*c, rng, opts, out);
        return;
      case NodeKind::Alternate: {
        std::size_t i = rng.uniformInt(
            static_cast<std::uint64_t>(n.children.size()));
        gen(*n.children[i], rng, opts, out);
        return;
      }
      case NodeKind::Repeat: {
        int count;
        if (n.repeatMax < 0) {
            count = n.repeatMin + static_cast<int>(rng.uniformInt(
                static_cast<std::uint64_t>(opts.maxExtraRepeats + 1)));
        } else {
            count = static_cast<int>(
                rng.uniformInt(n.repeatMin, n.repeatMax));
        }
        for (int i = 0; i < count; ++i)
            gen(*n.children[0], rng, opts, out);
        return;
      }
    }
}

} // namespace

std::vector<std::uint8_t>
generateMatch(const Node &node, Rng &rng, const GenerateOptions &opts)
{
    std::vector<std::uint8_t> out;
    gen(node, rng, opts, out);
    return out;
}

std::vector<std::uint8_t>
generateMatch(const Pattern &pattern, Rng &rng,
              const GenerateOptions &opts)
{
    if (!pattern.root)
        panic("generateMatch: pattern without AST");
    return generateMatch(*pattern.root, rng, opts);
}

} // namespace tomur::regex
