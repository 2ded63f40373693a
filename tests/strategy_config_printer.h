// gtest printer for StrategyConfig. Suites parameterized over configs
// list as "... # GetParam() = crack MRI" instead of the struct's raw
// bytes, so their ctest names do not change with the struct's size or
// padding.
#pragma once

#include <ostream>

#include "exec/access_path.h"

namespace aidx {

inline void PrintTo(const StrategyConfig& config, std::ostream* os) {
  *os << config.DisplayName() << ' ' << MergePolicyName(config.merge_policy);
}

}  // namespace aidx
