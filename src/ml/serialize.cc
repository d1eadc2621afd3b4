/**
 * @file
 * Text serialization of the ML models (save/load round trips).
 *
 * The format is line-oriented and versioned by a leading magic token
 * per object; floating-point values are written with max_digits10 so
 * reloaded models predict bit-identically.
 */

#include <algorithm>
#include <istream>
#include <ostream>
#include <string>

#include "common/logging.hh"
#include "common/serial.hh"
#include "ml/gbr.hh"
#include "ml/linreg.hh"
#include "ml/tree.hh"

namespace tomur::ml {

namespace {

// Shared helpers (common/serial.hh) under the historical local names
// so the save/load bodies read unchanged.
using tomur::expectToken;
constexpr auto writeDouble = writeSerialDouble;

} // namespace

void
RegressionTree::save(std::ostream &out) const
{
    out << "tree " << nodes_.size() << "\n";
    for (const Node &n : nodes_) {
        out << n.feature << " ";
        writeDouble(out, n.threshold);
        out << " ";
        writeDouble(out, n.value);
        out << " " << n.left << " " << n.right << "\n";
    }
}

bool
RegressionTree::load(std::istream &in)
{
    if (!expectToken(in, "tree"))
        return false;
    std::size_t count = 0;
    in >> count;
    if (!in || count == 0 || count > 10'000'000)
        return false;
    std::vector<Node> nodes(count);
    for (std::size_t i = 0; i < count; ++i) {
        Node &n = nodes[i];
        in >> n.feature >> n.threshold >> n.value >> n.left >>
            n.right;
        if (!in)
            return false;
        if (n.feature < 0) {
            // A leaf: feature -1 and no children.
            if (n.feature != -1 || n.left != -1 || n.right != -1)
                return false;
            continue;
        }
        // An internal node: both children exist and come later, so
        // every walk from the root descends to a leaf.
        auto bad = [&](int child) {
            return child <= static_cast<int>(i) ||
                   child >= static_cast<int>(count);
        };
        if (bad(n.left) || bad(n.right))
            return false;
    }
    nodes_ = std::move(nodes);
    return true;
}

int
RegressionTree::maxFeature() const
{
    int m = -1;
    for (const Node &n : nodes_)
        m = std::max(m, n.feature);
    return m;
}

void
GradientBoostingRegressor::save(std::ostream &out) const
{
    if (!fitted_)
        panic("GradientBoostingRegressor::save before fit");
    out << "gbr " << trees_.size() << " ";
    writeDouble(out, base_);
    out << " ";
    writeDouble(out, params_.learningRate);
    out << "\n";
    for (const auto &t : trees_)
        t.save(out);
}

bool
GradientBoostingRegressor::load(std::istream &in)
{
    if (!expectToken(in, "gbr"))
        return false;
    std::size_t count = 0;
    double base = 0.0, lr = 0.0;
    in >> count >> base >> lr;
    if (!in || count > 1'000'000 || lr <= 0.0)
        return false;
    std::vector<RegressionTree> trees(count);
    for (auto &t : trees) {
        if (!t.load(in))
            return false;
    }
    trees_ = std::move(trees);
    base_ = base;
    params_.learningRate = lr;
    params_.numTrees = static_cast<int>(count);
    fitted_ = true;
    // A loaded model matches no in-memory dataset: drop the
    // warm-start caches so the next fit runs cold.
    binned_.reset();
    fitFeatureFp_ = 0;
    fitLabelFp_ = 0;
    return true;
}

int
GradientBoostingRegressor::maxFeature() const
{
    int m = -1;
    for (const auto &t : trees_)
        m = std::max(m, t.maxFeature());
    return m;
}

void
LinearRegression::save(std::ostream &out) const
{
    if (!fitted_)
        panic("LinearRegression::save before fit");
    out << "linreg " << coef_.size() << " ";
    writeDouble(out, intercept_);
    for (double c : coef_) {
        out << " ";
        writeDouble(out, c);
    }
    out << "\n";
}

bool
LinearRegression::load(std::istream &in)
{
    if (!expectToken(in, "linreg"))
        return false;
    std::size_t count = 0;
    double b0 = 0.0;
    in >> count >> b0;
    if (!in || count > 1'000'000)
        return false;
    std::vector<double> coef(count);
    for (auto &c : coef) {
        in >> c;
        if (!in)
            return false;
    }
    intercept_ = b0;
    coef_ = std::move(coef);
    fitted_ = true;
    return true;
}

} // namespace tomur::ml
